"""The four benchmark workloads, built on the public API of stochreg.

A workload is built once from the workload seed (its inputs), then runs
rounds. A round is a fixed list of operations; each operation is timed around
the program call alone and then checked, so checking costs no measured time.
References the checks need are computed on first use, after the first timed
operation, and kept.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from stochreg import (add_noise, closed_form_mean, cli, condition_report,
                      enumerate_exact_moments, enumerate_weighted_second_moment,
                      exact_weighted_second_moment, generate, make_instance,
                      noise_functional, precondition, sgd_variance_terms,
                      smooth_solution, step_constant, svrg_variance_terms,
                      variance_compare)
from stochreg.experiment import ExperimentSpec, MethodPlan, run_experiment

R1_FAMILY = ("I", "B", "M0^2")
R2_FAMILY = ("0", "Binv_zeta")


@dataclass(frozen=True)
class Outcome:
    seconds: float
    failures: list


def _timed(fn, *args, **kwargs):
    """(seconds, result, exception) of one program call."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a crashing operation is a failed operation
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


def _error(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _checked(check, *args) -> list[str]:
    """The failures `check` finds; a check that raises on a malformed output
    finds that output wrong."""
    try:
        return check(*args)
    except Exception as exc:  # malformed output, not a benchmark fault
        return [f"check {_error(exc)}"]


# ---------------------------------------------------------------------------
# pipelines: one operation is one run_experiment call

class Pipeline:
    """A grid run through run_experiment; subclasses give the spec and the
    check."""

    name = ""
    figures = False
    MIN_ROUNDS = 1

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.spec = self.make_spec(seed)
        self.rounds = 0
        self._reference = None

    @staticmethod
    def make_spec(seed: int) -> ExperimentSpec:
        raise NotImplementedError

    @property
    def grad_evals(self) -> int:
        """Useful stochastic-gradient evaluations of one operation: runs x
        epochs x n over the cells. Replayed trajectories are not counted."""
        spec = self.spec
        return int(round(len(spec.cells) * spec.runs * spec.max_epochs * spec.n))

    def round(self) -> list[Outcome]:
        self.rounds += 1
        out = self.workdir / f"round{self.rounds}"
        figdir = out / "figures" if self.figures else None
        try:
            seconds, _, exc = _timed(run_experiment, self.spec,
                                     out / "results.csv", figure_dir=figdir)
            if exc is not None:
                return [Outcome(seconds, [_error(exc)])]
            if self._reference is None:
                self._reference = self.reference()
            return [Outcome(seconds, _checked(self.check, out))]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def reference(self):
        """Quantities the check needs that do not come from the output."""
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError


class TablePhillips1000(Pipeline):
    """The paper's table cell: s-phillips n = 1000, nu = 0, eps = 5e-2, svrg
    against sgd on raw rows, 100 runs each."""

    name = "table-phillips1000"
    # epochs: past both stopping epochs at seed 0 (64 and 72); the stopping
    # epochs of other seeds reach 145, which no run can afford
    HORIZON = 80.0

    @staticmethod
    def make_spec(seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            problem="s-phillips", n=1000, nu=(0.0,), epsilon=(5e-2,),
            methods=(MethodPlan("svrg", "5*c/M", "100"),
                     MethodPlan("sgd", "4*c/n")),
            runs=100, max_epochs=TablePhillips1000.HORIZON, base_seed=seed)

    def reference(self) -> float:
        """The initial error |x0 - x_dag| of the grid's instance."""
        spec = self.spec
        inst = smooth_solution(generate(spec.problem, spec.n), spec.nu[0])
        return float(np.linalg.norm(np.asarray(inst.x0) - inst.x_dag))

    def check(self, out: Path) -> list[str]:
        rows = checks.read_table(out / "results.csv")
        failures = checks.check_table(rows, self.spec.max_epochs,
                                      self._reference)
        for method, (e, k) in checks.paper_ratios(rows).items():
            print(f"{self.name}: {method} e_at_kstar {e:.3f}x, kstar {k:.3f}x "
                  "the paper's", file=sys.stderr)
        return failures


class RateShaw200(Pipeline):
    """The rate pipeline: preconditioned s-shaw n = 200, nu = 1, three noise
    levels, svrg with M = 15 and c0 = c/2, 20 runs per level."""

    name = "rate-shaw200"
    # epochs; past the eps = 1e-3 stopping epoch on about 99% of seeds
    HORIZON = 10000.0
    M = 15

    @staticmethod
    def make_spec(seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            problem="s-shaw", n=200, nu=(1.0,), epsilon=(5e-2, 1e-2, 1e-3),
            methods=(MethodPlan("svrg", "1/2*c", str(RateShaw200.M)),), runs=20,
            max_epochs=RateShaw200.HORIZON, base_seed=seed, precondition=True)

    def reference(self) -> dict:
        """Per epsilon: the realized noise norm delta, and the exact error
        |E x_k - x_dag| of the mean iterate at every anchor state up to the
        last checkpoint, with the epochs of those states.

        Computed in plain numpy on the raw instance. Preconditioning rotates
        the data space: B = A^T A / n and A^T y stay the same, and every row
        norm becomes a singular value, so c = 1 / |A|_2^2. An svrg epoch
        holds n M / (n + M) inner steps.
        """
        spec = self.spec
        inst = smooth_solution(generate(spec.problem, spec.n), spec.nu[0])
        a = np.array(inst.a)
        n, M = spec.n, self.M
        c0 = 0.5 / np.linalg.norm(a, 2) ** 2
        total = round(spec.max_epochs * n * M / (n + M))
        iterations = np.append(np.arange(0, total, M), total)
        epochs = iterations * (n + M) / (n * M)
        ref = {}
        for i, eps in enumerate(spec.epsilon):
            data = add_noise(inst, eps, spec.noise_seed(0, i))
            errors = np.sqrt(checks.exact_bias_sq(
                a, np.array(inst.x_dag), np.array(inst.x0), np.array(data.y),
                c0, iterations))
            ref[eps] = (data.delta, epochs, errors)
        return ref

    def check(self, out: Path) -> list[str]:
        rows = checks.read_table(out / "results.csv")
        failures = checks.check_rate(
            rows, self.spec.max_epochs,
            {eps: curve for eps, (_, *curve) in self._reference.items()})
        if not failures:
            slope = checks.rate_slope(
                [self._reference[float(r["epsilon"])][0] for r in rows],
                [float(r["e_at_kstar"]) for r in rows])
            print(f"{self.name}: slope of e^2 against delta {slope:.3f}",
                  file=sys.stderr)
        return failures


class FigurePhillips200(Pipeline):
    """The variance-curve pipeline: s-phillips n = 200, nu = 1, eps = 1e-3,
    svrg and sgd with M = 100 and c0 = 3/2 c/M, 100 runs, 50 epochs, figure
    CSVs written."""

    name = "figure-phillips200"
    figures = True
    # Rounds last 3-4 s and, with two interpreter-bound cell threads, vary by
    # up to 40% within a run; the median of five is steady.
    MIN_ROUNDS = 5

    @staticmethod
    def make_spec(seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            problem="s-phillips", n=200, nu=(1.0,), epsilon=(1e-3,),
            methods=(MethodPlan("svrg", "3/2*c/M", "100"),
                     MethodPlan("sgd", "3/2*c/M", "100")),
            runs=100, max_epochs=50.0, base_seed=seed)

    def reference(self):
        """The problem data, to compute exact biases apart from the program."""
        spec = self.spec
        inst = smooth_solution(generate(spec.problem, spec.n), spec.nu[0])
        y = add_noise(inst, spec.epsilon[0], spec.noise_seed(0, 0)).y
        a = np.array(inst.a)
        c0 = 1.5 / np.max(np.einsum("ij,ij->i", a, a)) / 100
        return a, np.array(inst.x_dag), np.array(inst.x0), np.array(y), c0

    def check(self, out: Path) -> list[str]:
        a, x_dag, x0, y, c0 = self._reference
        curves = {}
        for path in sorted((out / "figures").glob("*.csv")):
            method = path.stem.rsplit("_", 1)[-1]
            curves[method] = checks.read_curves(path)
        exact = {method: checks.exact_bias_sq(a, x_dag, x0, y, c0,
                                              cols["iteration"])
                 for method, cols in curves.items()}
        return checks.check_figure(curves, exact, self.spec.runs, self.spec.n,
                                   checks.read_table(out / "results.csv"))


# ---------------------------------------------------------------------------
# exact oracles: one round is the verify suite and two oracle sweeps

# (n, m, M, K) of the enumeration cases: every n in {2, 3} with M and K in
# {1, 2, 3}, and m alternating between 2 and 3 (m > n leaves B singular)
ENUM_SHAPES = tuple((n, 2 + i % 2, M, K) for i, (n, M, K) in enumerate(
    (n, M, K) for n in (2, 3) for M in (1, 2, 3) for K in (1, 2, 3)))
# the cases also checked against the brute-force loop
BRUTE_FORCE_CASES = (3, 4, 10, 13)
# (n, m) of the ordering sweep: n from 21 to 39, m from 2 to 4
ORDER_SHAPES = tuple((21 + 2 * i, 2 + i % 3) for i in range(10))
ORDER_M = 2
ORDER_K = (1, 2, 3)


def _random_case(rng, name: str, n: int, m: int, noise_seed: int):
    inst = make_instance(name, rng.normal(size=(n, m)), rng.normal(size=m))
    return inst, add_noise(inst, 5e-2, noise_seed).y


def _path_evals(n: int, M: int, K: int, method: str) -> int:
    """Gradient evaluations along every enumerated path: K M inner steps, and
    n more for each svrg anchor."""
    per_path = K * (M + n) if method == "svrg" else K * M
    return n ** (K * M) * per_path


class OraclesSmall:
    """The exact oracles with no solver horizon: `verify --level fast` through
    cli.main, the acceptance-criterion-3 ordering sweep, and path enumeration
    of means and weighted second moments on small cases."""

    name = "oracles-small"
    MIN_ROUNDS = 1

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = np.random.default_rng([seed, 1])
        self.enum_cases = []
        for idx, (n, m, M, K) in enumerate(ENUM_SHAPES):
            inst, y = _random_case(rng, f"case{idx}", n, m, seed + 1000 + idx)
            c0 = float(rng.uniform(0.3, 0.9)) * step_constant(inst.a)
            pinst, py = precondition(inst, y)
            self.enum_cases.append((inst, y, pinst, py, c0, M, K))
        rng = np.random.default_rng([seed, 2])
        self.order_cases = []
        for idx, (n, m) in enumerate(ORDER_SHAPES):
            inst, y = _random_case(rng, f"cmp{idx}", n, m, seed + 4000 + idx)
            pinst, py = precondition(inst, y)
            self.order_cases.append((pinst, py, step_constant(pinst.a)))
        self.rounds = 0
        self._brute = None

    @property
    def grad_evals(self) -> int:
        """Gradient evaluations along the paths of the enumeration sweep's
        own enumerate calls; the suite and the ordering sweep count none."""
        total = 0
        for inst, _, _, _, _, M, K in self.enum_cases:
            for method in ("sgd", "svrg"):
                evals = _path_evals(inst.n, M, K, method)
                total += evals * (1 + len(R1_FAMILY) * len(R2_FAMILY))
        return total

    def round(self) -> list[Outcome]:
        self.rounds += 1
        return [self.suite(), self.ordering_sweep(), self.enumeration_sweep()]

    def suite(self) -> Outcome:
        report = self.workdir / f"verify{self.rounds}.json"
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                seconds, code, exc = _timed(
                    cli.main, ["verify", "--level", "fast", "--out", str(report)])
            if exc is not None:
                return Outcome(seconds, [_error(exc)])
            return Outcome(seconds, _checked(checks.check_suite, code, report))
        finally:
            report.unlink(missing_ok=True)

    def _ordering(self):
        margins, conditions = [], []
        for pinst, py, c0 in self.order_cases:
            conditions.append(condition_report(pinst, c0, ORDER_M).compare_ok)
            for K in ORDER_K:
                for r1 in R1_FAMILY:
                    for r2 in R2_FAMILY:
                        cmp = variance_compare(pinst, py, c0, ORDER_M, K,
                                               r1=r1, r2=r2)
                        margins.append(cmp.margin)
        return margins, conditions

    def ordering_sweep(self) -> Outcome:
        seconds, result, exc = _timed(self._ordering)
        if exc is not None:
            return Outcome(seconds, [_error(exc)])
        return Outcome(seconds, checks.check_margins(*result))

    def _enumeration(self) -> list[dict]:
        """Per case: enumerated means, closed-form mean, and for every
        weight pair the enumerated, propagated and decomposed moments."""
        out = []
        for inst, y, pinst, py, c0, M, K in self.enum_cases:
            zeta = noise_functional(inst, y)
            res = {"closed_form": closed_form_mean(
                inst.gram, inst.x0 - inst.x_dag, zeta, c0, M, K,
                x_dag=inst.x_dag)}
            for method in ("sgd", "svrg"):
                res[method, "mean"] = enumerate_exact_moments(
                    inst, y, c0, M, K, method).mean
            for r1 in R1_FAMILY:
                for r2 in R2_FAMILY:
                    for method, terms in (("svrg", svrg_variance_terms),
                                          ("sgd", sgd_variance_terms)):
                        res[method, r1, r2] = (
                            enumerate_weighted_second_moment(
                                pinst, py, c0, M, K, method, r1=r1, r2=r2),
                            exact_weighted_second_moment(
                                pinst, py, c0, M, K, method, r1=r1, r2=r2),
                            terms(pinst, py, c0, M, K, r1=r1, r2=r2).total)
            out.append(res)
        return out

    def brute_force(self) -> list:
        """Per case of BRUTE_FORCE_CASES and method: the brute-force mean on
        the raw instance and the brute-force weighted moments on the
        preconditioned one, as the enumeration sweep uses them."""
        refs = []
        for idx in BRUTE_FORCE_CASES:
            inst, y, pinst, py, c0, M, K = self.enum_cases[idx]
            ref = {}
            for method in ("sgd", "svrg"):
                mean, _ = checks.brute_force_moments(
                    inst.a, y, inst.x_dag, inst.x0, c0, M, K, method, {}, {})
                _, values = checks.brute_force_moments(
                    pinst.a, py, pinst.x_dag, pinst.x0, c0, M, K, method,
                    checks.weight_matrices(pinst.a, c0),
                    checks.shift_vectors(pinst.a, py, pinst.x_dag))
                ref[method] = (mean, values)
            refs.append(ref)
        return refs

    def enumeration_sweep(self) -> Outcome:
        seconds, result, exc = _timed(self._enumeration)
        if exc is not None:
            return Outcome(seconds, [_error(exc)])
        if self._brute is None:
            self._brute = self.brute_force()
        return Outcome(seconds, _checked(self._check_enumeration, result))

    def _check_enumeration(self, result) -> list[str]:
        failures = checks.check_agreement(
            "enumerated mean vs closed form",
            ((i, res[method, "mean"], res["closed_form"], 0.0)
             for i, res in enumerate(result) for method in ("sgd", "svrg")))
        moments = []
        for i, (res, case) in enumerate(zip(result, self.enum_cases)):
            _, _, pinst, py, c0, _, _ = case
            weights = checks.weight_matrices(pinst.a, c0)
            shifts = checks.shift_vectors(pinst.a, py, pinst.x_dag)
            for method in ("sgd", "svrg"):
                second = res[method, "I", "0"][0]
                for r1 in R1_FAMILY:
                    for r2 in R2_FAMILY:
                        scale = checks.moment_scale(weights[r1], shifts[r2],
                                                    second)
                        moments.append((f"{i} {method} {r1} {r2}",
                                        *res[method, r1, r2], scale))
        failures += checks.check_agreement(
            "propagation vs enumeration",
            ((case, prop, enum, scale)
             for case, enum, prop, _, scale in moments))
        failures += checks.check_agreement(
            "decomposition vs enumeration",
            ((case, dec, enum, scale)
             for case, enum, _, dec, scale in moments))
        scales = {case: scale for case, *_, scale in moments}
        for idx, ref in zip(BRUTE_FORCE_CASES, self._brute):
            res = result[idx]
            for method, (mean, values) in ref.items():
                failures += checks.check_agreement(
                    f"brute force vs enumeration, case {idx} {method}",
                    [("mean", res[method, "mean"], mean, 0.0)]
                    + [(f"{r1} {r2}", res[method, r1, r2][0], value,
                        scales[f"{idx} {method} {r1} {r2}"])
                       for (r1, r2), value in values.items()])
        return failures


WORKLOADS = {cls.name: cls for cls in (TablePhillips1000, RateShaw200,
                                       FigurePhillips200, OraclesSmall)}
