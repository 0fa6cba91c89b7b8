"""Benchmark for stochreg: one workload per run, end-to-end or traced.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ./src. The run
builds the workload's inputs from the seed, then runs whole rounds of its
operations until --seconds have passed (at least one round), checks every
operation's output, and prints as its last line of standard output one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run spends half its time
untraced and half traced, and reports the per-layer metrics of the traced
rounds plus the tracing overhead. Diagnostics go to standard error. See
README.md in this directory.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fixed for every run, whatever the machine: two cell threads and
# single-threaded BLAS keep every workload at two busy threads.
THREAD_ENV = {"STOCHREG_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
IMPORTS = "import stochreg, checks, tracing, workloads"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, min_rounds: int = 1
               ) -> tuple[list, int, int]:
    """Whole rounds until `seconds` have passed and at least `min_rounds`
    ran; returns the program time of each round and the operations attempted
    and failed."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        outcomes = workload.round()
        times.append(sum(o.seconds for o in outcomes))
        for index, outcome in enumerate(outcomes):
            attempted += 1
            if outcome.failures:
                failed += 1
                print(f"{workload.name} round {len(times)} operation {index}:"
                      f" FAILED", file=sys.stderr)
                for line in outcome.failures:
                    print(f"  {line}", file=sys.stderr)
        if (time.perf_counter() - start >= seconds
                and len(times) >= min_rounds):
            return times, attempted, failed


def start_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the program and
    the benchmark: a run's own start happens once, so it is timed again in a
    child process. No timeout: with one, the wait polls in steps of up to
    50 ms, which would show in the time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochreg" / "__init__.py").is_file():
        print(f"error: no stochreg package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import stochreg
    if Path(stochreg.__file__).resolve().parent != (SRC / "stochreg").resolve():
        print(f"error: imported stochreg from {stochreg.__file__}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    starts = [start_seconds() for _ in range(SETUP_REPEATS)]

    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(starts) + statistics.median(builds)
        print(f"{args.workload}: seed {args.seed}, threads {THREAD_ENV}, "
              f"imports {import_s:.3f} s, fresh starts "
              f"{[round(t, 4) for t in starts]} s, input builds "
              f"{[round(b, 4) for b in builds]} s", file=sys.stderr)

        if not args.trace:
            times, attempted, failed = run_rounds(workload, args.seconds,
                                                  workload.MIN_ROUNDS)
            op_s = statistics.median(times)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "op_s": metric(op_s, "s"),
                "grad_evals_per_s": metric(workload.grad_evals / op_s, "1/s"),
                "peak_rss_mib": metric(rss_mib, "MiB"),
            }
            print(f"{args.workload}: round times {[round(t, 3) for t in times]}"
                  " s", file=sys.stderr)
        else:
            half = max(1, workload.MIN_ROUNDS // 2)
            plain, attempted, failed = run_rounds(workload, args.seconds / 2,
                                                  half)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, [workloads])
            traced, per_round = [], []
            start = time.perf_counter()
            try:
                while True:
                    tracer.reset()
                    more, n_att, n_fail = run_rounds(workload, 0.0)
                    traced += more
                    attempted += n_att
                    failed += n_fail
                    per_round.append(tracer.metrics())
                    if (time.perf_counter() - start >= args.seconds / 2
                            and len(traced) >= half):
                        break
            finally:
                restore()
            values = {name: statistics.median(r[name] for r in per_round)
                      for name in per_round[0]}
            values["trace.overhead_s"] = (statistics.median(traced)
                                          - statistics.median(plain))
            metrics = {name: metric(values[name], unit)
                       for name, unit in tracing.PER_LAYER.items()}
            print(f"{args.workload}: untraced {[round(t, 3) for t in plain]} s,"
                  f" traced {[round(t, 3) for t in traced]} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
