"""Command-line front end.

Exit codes are a stable contract: 0 success, 2 verification failure,
3 divergence, 4 input error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import fileio, verify
from .experiment import (MethodPlan, load_spec, run_experiment,
                         run_precondition_study, thread_count)
from .problems import (GENERATORS, add_noise, generate, load_instance,
                       load_noisy, precondition, rescale_to_unit_norm,
                       save_instance, save_noisy, smooth_solution, NoisyData)
from .solvers import (METHODS, DivergenceError, SolverConfig, oracle_stop,
                      solve, write_trajectory)
from .spectral import step_constant

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_DIVERGED = 3
EXIT_INPUT = 4


class InputError(Exception):
    """Bad flags, bad files, bad expressions; mapped to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to the 4 exit code
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stochreg",
                     description="Stochastic gradient regularization of "
                                 "ill-posed linear systems, with exact-moment "
                                 "verification oracles.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("generate", help="build a test problem "
                         "and a noisy data vector")
    gen.add_argument("problem", choices=GENERATORS)
    gen.add_argument("--n", type=int, required=True, help="grid size")
    gen.add_argument("--nu", type=float, default=0.0,
                     help="solution smoothing exponent")
    gen.add_argument("--eps", type=float, default=0.0,
                     help="relative noise level")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--precondition", action="store_true",
                     help="rotate rows to an orthogonal system")
    gen.add_argument("--normalize", action="store_true",
                     help="rescale the matrix to unit operator norm")
    gen.add_argument("--out", required=True,
                     help="output prefix; writes <out>.instance.json and "
                          "<out>.noise.json")

    sol = sub.add_parser("solve", help="run one trajectory on a generated "
                         "problem")
    sol.add_argument("instance", help="instance JSON, or the generate prefix")
    sol.add_argument("--noise", default=None,
                     help="noisy-data JSON (default: <prefix>.noise.json, "
                          "else exact data)")
    sol.add_argument("--method", required=True, choices=METHODS)
    sol.add_argument("--c0", default=None,
                     help="step size: literal, or '<q>*c', '<q>*c/M', "
                          "'<q>*c/n' (landweber default: auto)")
    sol.add_argument("--M", default=None,
                     help="inner loop length: literal or '<q>*n'")
    sol.add_argument("--max-epochs", type=float, default=100.0)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--checkpoint-every", type=float, default=1.0,
                     help="checkpoint stride in epochs")
    sol.add_argument("--allow-large-step", action="store_true",
                     help="run past the stability bound")
    sol.add_argument("--out", required=True,
                     help="output prefix; writes <out>.csv and <out>.meta.json")

    exp = sub.add_parser("experiment", help="run a JSON experiment grid")
    exp.add_argument("spec", help="experiment spec JSON")
    exp.add_argument("--out", required=True, help="result table CSV path")
    exp.add_argument("--figure-dir", default=None,
                     help="also emit per-cell moment curves into this "
                          "directory")

    ver = sub.add_parser("verify", help="run the identity/bound/ordering "
                         "verification suite")
    ver.add_argument("--level", choices=["fast", "full"], default="fast")
    ver.add_argument("--out", default=None, help="write the JSON report here")

    pre = sub.add_parser("precondition-study",
                         help="run a grid twice, raw vs preconditioned rows, "
                              "with shared seeds")
    pre.add_argument("spec", help="experiment spec JSON")
    pre.add_argument("--out", required=True, help="paired result CSV path")
    return parser


def cmd_generate(args) -> int:
    try:
        inst = smooth_solution(generate(args.problem, args.n), args.nu)
        if args.normalize:
            inst = rescale_to_unit_norm(inst)
        data = add_noise(inst, args.eps, args.seed)
    except ValueError as exc:
        raise InputError(str(exc))
    if args.precondition:
        inst, y_rot = precondition(inst, data.y)
        data = NoisyData(y=y_rot, epsilon=data.epsilon, seed=data.seed,
                         delta=data.delta)
    save_instance(inst, f"{args.out}.instance.json")
    save_noisy(data, f"{args.out}.noise.json")
    print(f"wrote {args.out}.instance.json and {args.out}.noise.json")
    print(f"delta = {data.delta!r}")
    print(f"delta_bar = {data.delta_bar!r}")
    print(f"gram_norm = {inst.gram.norm!r}")
    print(f"step_unit_c = {step_constant(inst.a)!r}")
    return EXIT_OK


def _load_problem(args):
    path = args.instance
    if path.endswith(".json"):
        inst = load_instance(path)
        noise_path = args.noise
    else:
        inst = load_instance(f"{path}.instance.json")
        noise_path = args.noise or f"{path}.noise.json"
    if noise_path:
        data = load_noisy(noise_path)
        y = data.y
    else:
        y = inst.y_dag
    if y.shape != (inst.n,):
        raise InputError("noisy data length does not match the instance")
    return inst, y


def cmd_solve(args) -> int:
    try:
        inst, y = _load_problem(args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot load problem: {exc}")
    try:
        if args.c0 is None and args.method != "landweber":
            raise ValueError(f"{args.method} needs --c0")
        c0, m_value = MethodPlan(args.method, args.c0, args.M).resolve(
            inst, step_constant(inst.a))
        cfg = SolverConfig(method=args.method, c0=c0,
                           max_epochs=args.max_epochs, M=m_value,
                           seed=args.seed,
                           checkpoint_every=args.checkpoint_every,
                           allow_large_step=args.allow_large_step)
    except ValueError as exc:
        raise InputError(str(exc))
    try:
        traj = solve(inst, y, cfg)
    except ValueError as exc:
        raise InputError(str(exc))
    write_trajectory(traj, f"{args.out}.csv", f"{args.out}.meta.json")
    kstar, err_sq = oracle_stop(traj)
    print(f"wrote {args.out}.csv")
    print(f"kstar_epochs = {kstar!r} (rounded {round(kstar)})")
    print(f"error_at_kstar = {math.sqrt(err_sq)!r}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad experiment spec: {exc}")
    try:
        rows = run_experiment(spec, args.out, figure_dir=args.figure_dir)
    except ValueError as exc:
        raise InputError(str(exc))
    failures = [row for row in rows if row[-1]]
    print(f"wrote {args.out} ({len(rows)} cells, "
          f"{len(failures)} with recorded errors)")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        thread_count()  # a malformed STOCHREG_THREADS fails before any check
    except ValueError as exc:
        raise InputError(str(exc))
    report = verify.run_suite(args.level)
    print(verify.format_report(report))
    if args.out:
        fileio.dump_json(report, args.out)
        print(f"wrote {args.out}")
    if not report["passed"]:
        print("verification failed: " + ", ".join(report["failed_checks"]),
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_precondition_study(args) -> int:
    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad experiment spec: {exc}")
    try:
        rows, max_gap = run_precondition_study(spec, args.out)
    except ValueError as exc:
        raise InputError(str(exc))
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(f"max_relative_e_gap = {max_gap!r}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "experiment": cmd_experiment,
    "verify": cmd_verify,
    "precondition-study": cmd_precondition_study,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # unreadable inputs and unwritable outputs are caller mistakes,
        # not crashes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
