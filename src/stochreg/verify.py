"""Self-contained verification suites behind the `verify` command.

Each check rebuilds its own small problem, evaluates one identity, bound, or
ordering through an independent route, and reports a signed margin (positive
means the check passed with room to spare). Hard checks gate the exit code;
soft checks are diagnostics that are reported but never fail the suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fileio
from .analysis import (closed_form_mean, condition_report,
                       enumerate_exact_moments, enumerate_weighted_second_moment,
                       error_curves, mc_moments, operator_word_matrix,
                       orthogonality_check, recursion_check, residual_bound,
                       sgd_variance_terms, stopping_stats, svrg_variance_terms,
                       theorem_bound, variance_compare, rate_fit)
from .problems import (add_noise, generate, make_instance, noise_functional,
                       precondition, smooth_solution)
from .solvers import SolverConfig, EpochAccounting, solve, step_stability_bound
from .spectral import Propagator, kernel_bound_check, step_constant


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    soft: bool
    margin: float
    seconds: float
    detail: str


def _result(name, passed, margin, detail, soft=False, seconds=0.0) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), soft=soft,
                       margin=float(margin), seconds=seconds, detail=detail)


# ---------------------------------------------------------------------------
# small deterministic problem builders

def _random_instance(n: int, m: int, seed: int, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=(n, m))
    x = rng.normal(size=m)
    return make_instance(f"check-{n}x{m}", a, x)


def _noisy_preconditioned(n: int, m: int, seed: int, epsilon: float = 0.05):
    inst = _random_instance(n, m, seed)
    data = add_noise(inst, epsilon, seed + 1)
    return precondition(inst, data.y)


# ---------------------------------------------------------------------------
# fast checks

def check_propagator_range() -> CheckResult:
    worst = -np.inf
    for seed in range(5):
        inst = _random_instance(6 + seed, 3 + (seed % 3), seed)
        prop = Propagator(inst.gram, step_constant(inst.a))
        lo, hi = prop.eigenvalues.min(), prop.eigenvalues.max()
        worst = max(worst, -lo, hi - 1.0)
        if not prop.stable:
            return _result("propagator-range", False, -1.0,
                           f"seed {seed}: stability flag false at the unit step")
    margin = 1e-12 - worst
    return _result("propagator-range", margin >= 0, margin,
                   f"worst eigenvalue excursion {worst:.3e} outside [0, 1]")


def check_kernel_bounds() -> CheckResult:
    rng = np.random.default_rng(11)
    failures = 0
    worst = np.inf
    cases = [np.full(4, 0.5)]
    cases += [np.sort(rng.uniform(1e-6, 1.0, size=rng.integers(2, 9)))
              for _ in range(200)]
    for lam in cases:
        c0 = 1.0 / lam.max()
        for m_len, k_out, s, t in ((1, 1, 1.0, 1.0), (3, 2, 0.5, 0.5),
                                   (2, 4, 2.0, 1.0), (4, 3, 0.0, 0.0)):
            rep = kernel_bound_check(lam, 0.7 * c0, m_len, k_out, s=s, t=t)
            failures += not rep.passed
            worst = min(worst, rep.rhs_power - rep.lhs_power,
                        rep.rhs_inv - rep.lhs_inv)
    return _result("spectral-kernel-bounds", failures == 0, worst,
                   f"{failures} failures over {4 * len(cases)} sweep cases; "
                   f"smallest bound slack {worst:.3e}")


def check_step_sum_identity() -> CheckResult:
    worst = 0.0
    for seed in range(3):
        inst = _random_instance(7, 4, seed + 20)
        gram = inst.gram
        c0 = 0.8 * step_constant(inst.a)
        m0 = operator_word_matrix(gram, c0, "M0")
        rng = np.random.default_rng(seed + 40)
        v = gram.matrix @ rng.normal(size=4)  # range(B) representative
        target = gram.pinv_apply(v)
        acc = np.zeros_like(v)
        power = np.eye(4)
        for j in range(1, 9):
            acc = acc + c0 * (power @ v)
            power = m0 @ power
            lhs = acc
            rhs = target - gram.pinv_apply(power @ v)
            worst = max(worst, np.linalg.norm(lhs - rhs)
                        / (1.0 + np.linalg.norm(rhs)))
    margin = 1e-10 - worst
    return _result("step-sum-identity", margin >= 0, margin,
                   f"worst relative deviation {worst:.3e} "
                   "(geometric step sums vs truncated inversion)")


def check_row_commutation() -> CheckResult:
    inst, _ = _noisy_preconditioned(8, 5, seed=5)
    worst = 0.0
    scale = 0.0
    for i in range(inst.n):
        ai = np.outer(inst.a[i], inst.a[i])
        scale = max(scale, np.linalg.norm(ai))
        for j in range(i + 1, inst.n):
            aj = np.outer(inst.a[j], inst.a[j])
            worst = max(worst, np.linalg.norm(ai @ aj - aj @ ai))
    margin = 1e-12 * max(scale**2, 1.0) - worst
    return _result("row-commutation", margin >= 0, margin,
                   f"largest commutator norm {worst:.3e} at row scale "
                   f"{scale:.3e}")


def check_centering_factor() -> CheckResult:
    """Averaging over one uniform row index: centered single-row quantities
    carry an exact (n-1) factor against their deterministic counterparts."""
    inst, y = _noisy_preconditioned(6, 4, seed=9)
    gram = inst.gram
    n = inst.n
    rng = np.random.default_rng(33)
    weights = rng.uniform(0.5, 2.0, size=gram.eigenvalues.size)
    dmat = gram.filter_matrix(weights)
    v = rng.normal(size=inst.m)
    xi = y - inst.y_dag
    zeta = noise_functional(inst, y)
    b = gram.matrix

    lhs_n = np.mean([np.linalg.norm(
        dmat @ ((b - np.outer(inst.a[j], inst.a[j])) @ v))**2
        for j in range(n)])
    rhs_n = (n - 1) * np.linalg.norm(dmat @ (b @ v))**2
    dev_n = abs(lhs_n - rhs_n) / (1.0 + abs(rhs_n))

    lhs_z = np.mean([np.linalg.norm(dmat @ (xi[j] * inst.a[j] - zeta))**2
                     for j in range(n)])
    rhs_z = (n - 1) * np.linalg.norm(dmat @ zeta)**2
    dev_z = abs(lhs_z - rhs_z) / (1.0 + abs(rhs_z))

    worst = max(dev_n, dev_z)
    margin = 1e-12 - worst
    return _result("centering-factor", margin >= 0, margin,
                   f"relative deviations {dev_n:.3e} (row-gap), "
                   f"{dev_z:.3e} (noise-gap)")


def check_fixed_point() -> CheckResult:
    base = smooth_solution(generate("s-shaw", 16), 1.0)
    inst = make_instance(base.name, base.a, base.x_dag, x0=base.x_dag,
                         nu=base.nu)
    worst = 0.0
    for method, m_len in (("svrg", 4), ("sgd", 1), ("landweber", 1)):
        c0 = (0.5 * step_constant(inst.a) if method != "landweber"
              else 0.5 * step_stability_bound(inst, "landweber"))
        cfg = SolverConfig(method=method, c0=c0, max_epochs=3.0, M=m_len,
                           seed=17)
        traj = solve(inst, inst.y_dag, cfg)
        worst = max(worst, float(np.max(traj.error_sq)))
    return _result("exact-data-fixed-point", worst == 0.0, -worst,
                   f"largest recorded squared error {worst:.3e} when started "
                   "at the exact solution with exact data")


def check_epoch_recursion() -> CheckResult:
    worst = 0.0
    for seed, (n, m, m_len, k_out) in enumerate([(5, 3, 3, 2), (4, 4, 2, 3)]):
        inst, y = _noisy_preconditioned(n, m, seed=50 + seed)
        c0 = 0.7 * step_constant(inst.a)
        rep = recursion_check(inst, y, c0, m_len, k_out, seed=seed)
        worst = max(worst, rep.max_epoch_deviation, rep.max_telescope_deviation,
                    rep.max_anchor_deviation)
    margin = 1e-12 - worst
    return _result("epoch-recursion", margin >= 0, margin,
                   f"worst relative deviation {worst:.3e} across the epoch, "
                   "telescoping, and first-step identities")


def check_orthogonality() -> CheckResult:
    worst = 0.0
    detail = []
    for method in ("svrg", "sgd"):
        inst, y = _noisy_preconditioned(3, 2, seed=71)
        c0 = 0.6 * step_constant(inst.a)
        rep = orthogonality_check(inst, y, c0, 3, 2, method=method)
        rel = rep.max_cross / rep.scale if rep.scale > 0 else rep.max_cross
        worst = max(worst, rel)
        detail.append(f"{method}: {rel:.3e} over {rep.pair_count} pairs")
    margin = 1e-12 - worst
    return _result("inner-term-orthogonality", margin >= 0, margin,
                   "; ".join(detail))


def check_mean_closed_form() -> CheckResult:
    worst = 0.0
    cases = [(2, 2, 2, 2, 80), (3, 2, 2, 1, 81), (2, 3, 3, 1, 82),
             (3, 3, 1, 3, 83)]
    for n, m, m_len, k_out, seed in cases:
        inst = _random_instance(n, m, seed)
        data = add_noise(inst, 0.05, seed + 7)
        c0 = 0.7 * step_constant(inst.a)
        zeta = noise_functional(inst, data.y)
        e0 = inst.x0 - inst.x_dag
        expect = closed_form_mean(inst.gram, e0, zeta, c0, m_len, k_out,
                                  x_dag=inst.x_dag)
        for method in ("sgd", "svrg"):
            got = enumerate_exact_moments(inst, data.y, c0, m_len, k_out,
                                          method).mean
            dev = np.linalg.norm(got - expect) / (1.0 + np.linalg.norm(inst.x_dag))
            worst = max(worst, dev)
    margin = 1e-11 - worst
    return _result("mean-closed-form", margin >= 0, margin,
                   f"worst normalized mean gap {worst:.3e} between path "
                   "enumeration and the spectral formula")


def check_bias_equality() -> CheckResult:
    worst = 0.0
    for n, m, m_len, k_out, seed in [(3, 2, 2, 2, 90), (2, 3, 3, 1, 91)]:
        inst = _random_instance(n, m, seed)
        data = add_noise(inst, 0.05, seed + 3)
        c0 = 0.6 * step_constant(inst.a)
        mean_sgd = enumerate_exact_moments(inst, data.y, c0, m_len, k_out,
                                           "sgd").mean
        mean_svrg = enumerate_exact_moments(inst, data.y, c0, m_len, k_out,
                                            "svrg").mean
        worst = max(worst, float(np.linalg.norm(mean_sgd - mean_svrg)))
    margin = 1e-12 - worst
    return _result("bias-method-equality", margin >= 0, margin,
                   f"largest mean gap {worst:.3e} between the two stochastic "
                   "methods at equal step, loop length, and loop count")


def _decomposition_worst(method: str) -> float:
    worst = 0.0
    terms_fn = svrg_variance_terms if method == "svrg" else sgd_variance_terms
    for n, m, m_len, k_out, seed in [(3, 2, 2, 2, 60), (2, 2, 3, 1, 61)]:
        inst, y = _noisy_preconditioned(n, m, seed=seed)
        c0 = 0.7 * step_constant(inst.a)
        for r1 in ("I", "B", "M0^2"):
            for r2 in ("0", "Binv_zeta"):
                dec = terms_fn(inst, y, c0, m_len, k_out, r1=r1, r2=r2)
                ref = enumerate_weighted_second_moment(
                    inst, y, c0, m_len, k_out, method, r1=r1, r2=r2)
                worst = max(worst, abs(dec.total - ref) / (1.0 + abs(ref)))
    return worst


def check_decomposition_svrg() -> CheckResult:
    worst = _decomposition_worst("svrg")
    margin = 1e-11 - worst
    return _result("anchored-decomposition", margin >= 0, margin,
                   f"worst relative gap {worst:.3e} against enumerated "
                   "second moments")


def check_decomposition_sgd() -> CheckResult:
    worst = _decomposition_worst("sgd")
    margin = 1e-11 - worst
    return _result("unanchored-decomposition", margin >= 0, margin,
                   f"worst relative gap {worst:.3e} against enumerated "
                   "second moments")


def _ordering_worst(n: int, m: int, m_len: int, k_values, seed: int
                    ) -> tuple[float, bool]:
    inst, y = _noisy_preconditioned(n, m, seed=seed)
    c0 = step_constant(inst.a)
    ok = condition_report(inst, c0, m_len).compare_ok
    worst = np.inf
    for k_out in k_values:
        for r1 in ("I", "B", "M0^2"):
            for r2 in ("0", "Binv_zeta"):
                cmp = variance_compare(inst, y, c0, m_len, k_out, r1=r1, r2=r2)
                worst = min(worst, cmp.margin)
    return worst, ok


def check_variance_ordering() -> CheckResult:
    details = []
    worst = np.inf
    for seed, n in ((101, 21), (102, 24)):
        margin, cond = _ordering_worst(n, 3, 2, (1, 2), seed)
        details.append(f"n={n}: min margin {margin:.3e}, condition "
                       f"{'met' if cond else 'violated'}")
        if not cond:
            return _result("variance-ordering", False, -1.0,
                           "; ".join(details))
        worst = min(worst, margin)
    passed = worst >= -1e-12
    return _result("variance-ordering", passed, worst, "; ".join(details))


def check_mc_consistency() -> CheckResult:
    inst, y = _noisy_preconditioned(3, 2, seed=120)
    c0 = 0.7 * step_constant(inst.a)
    m_len, k_out = 2, 2
    exact = enumerate_weighted_second_moment(inst, y, c0, m_len, k_out, "svrg",
                                             r1="I", r2="Binv_zeta")
    acct = EpochAccounting("svrg", inst.n, m_len)
    total = m_len * k_out
    cfg = SolverConfig(method="svrg", c0=c0,
                       max_epochs=total / acct.iterations_per_epoch, M=m_len,
                       seed=7)
    rep = mc_moments(inst, y, cfg, runs=20000)
    if rep.iterations[-1] != total:
        return _result("mc-consistency", False, -1.0,
                       f"checkpoint grid ends at {rep.iterations[-1]}, "
                       f"wanted {total}")
    gap = abs(rep.mse[-1] - exact)
    allowance = 4.0 * rep.mse_stderr[-1]
    return _result("mc-consistency", gap <= allowance, allowance - gap,
                   f"sampled mse {rep.mse[-1]:.6e} vs exact {exact:.6e}; "
                   f"gap {gap:.3e} within {allowance:.3e} (4 SE, 20000 runs)")


def check_noise_scaling() -> CheckResult:
    inst = generate("s-shaw", 1000)
    data = add_noise(inst, 1e-2, seed=5)
    ratio = data.delta / (1e-2 * np.abs(inst.y_dag).max())
    dev = abs(ratio / math.sqrt(inst.n) - 1.0)
    margin = 0.10 - dev
    return _result("noise-scale-concentration", margin >= 0, margin,
                   f"perturbation norm over per-entry scale = {ratio:.2f} vs "
                   f"sqrt(n) = {math.sqrt(inst.n):.2f} (relative gap "
                   f"{dev:.3f}, allowed 0.10)")


FAST_CHECKS = [
    check_propagator_range,
    check_kernel_bounds,
    check_step_sum_identity,
    check_row_commutation,
    check_centering_factor,
    check_fixed_point,
    check_epoch_recursion,
    check_orthogonality,
    check_mean_closed_form,
    check_bias_equality,
    check_decomposition_svrg,
    check_decomposition_sgd,
    check_variance_ordering,
    check_mc_consistency,
    check_noise_scaling,
]


# ---------------------------------------------------------------------------
# full-level checks

def _bound_test_instance(seed: int = 140):
    """Preconditioned instance with a known source representation and a step
    satisfying the rate-side condition."""
    raw = _random_instance(24, 4, seed)
    rotated, _ = precondition(raw)
    rng = np.random.default_rng(seed + 1)
    w = rng.normal(size=rotated.m)
    x_dag = rotated.gram.apply_power(1.0, w)
    inst = make_instance("bound-check", rotated.a, x_dag)
    data = add_noise(inst, 1e-2, seed + 2)
    return inst, data, float(np.linalg.norm(w))


def check_error_bound_mc() -> CheckResult:
    inst, data, norm_w = _bound_test_instance()
    m_len = 2
    c0 = step_constant(inst.a)
    report = condition_report(inst, c0, m_len)
    if not report.rate_ok:
        return _result("error-bound-monte-carlo", False, -1.0,
                       "rate condition unexpectedly violated on the test "
                       f"instance (lhs {report.rate_lhs:.3e})")
    acct = EpochAccounting("svrg", inst.n, m_len)
    total = 10 * m_len
    cfg = SolverConfig(method="svrg", c0=c0,
                       max_epochs=total / acct.iterations_per_epoch, M=m_len,
                       checkpoint_every=m_len / acct.iterations_per_epoch,
                       seed=31)
    rep = mc_moments(inst, data.y, cfg, runs=2000)
    worst = np.inf
    for k_out in range(1, 11):
        j = int(np.searchsorted(rep.iterations, k_out * m_len))
        bound = theorem_bound(inst.gram.norm, inst.n, c0, m_len, k_out, 1.0,
                              norm_w, data.delta_bar)
        slack = bound + 3.0 * rep.mse_stderr[j] - rep.mse[j]
        worst = min(worst, slack)
    return _result("error-bound-monte-carlo", worst >= 0, worst,
                   f"smallest slack {worst:.3e} between bound plus 3 SE and "
                   "sampled mse over ten outer-loop counts (2000 runs)")


def check_residual_bound_mc() -> CheckResult:
    inst, data, norm_w = _bound_test_instance()
    m_len = 2
    c0 = step_constant(inst.a)
    acct = EpochAccounting("svrg", inst.n, m_len)
    total = 10 * m_len
    cfg = SolverConfig(method="svrg", c0=c0,
                       max_epochs=total / acct.iterations_per_epoch, M=m_len,
                       checkpoint_every=m_len / acct.iterations_per_epoch,
                       seed=32)
    curves = error_curves(inst, data.y, cfg, runs=2000, include_residual=True)
    worst = np.inf
    for k_out in range(1, 11):
        j = int(np.searchsorted(curves.iterations, k_out * m_len))
        sample = curves.residual_sq[:, j]
        mean = float(sample.mean())
        se = float(sample.std(ddof=1)) / math.sqrt(sample.shape[0])
        bound = residual_bound(inst.n, c0, m_len, k_out, 1.0, norm_w,
                               data.delta_bar)
        worst = min(worst, bound + 3.0 * se - mean)
    return _result("residual-bound-monte-carlo", worst >= 0, worst,
                   f"smallest slack {worst:.3e} between the residual bound "
                   "plus 3 SE and the sampled mean residual")


def check_variance_ordering_midsize() -> CheckResult:
    margin, cond = _ordering_worst(30, 4, 2, (1, 2, 3), seed=150)
    passed = cond and margin >= -1e-12
    return _result("variance-ordering-midsize", passed, margin,
                   f"min margin {margin:.3e} over three outer-loop counts, "
                   f"condition {'met' if cond else 'violated'}")


def check_saturation() -> CheckResult:
    """Soft: with a step far above the rate condition, extra solution
    smoothness stops helping the unanchored method."""
    base = generate("s-shaw", 200)
    c0 = step_constant(base.a)
    ratio = np.inf
    try:
        rep = condition_report(base, c0, 100)
        ratio = rep.rate_lhs / rep.rate_rhs
    except (OverflowError, ValueError):
        pass  # contraction factor overflows: violation beyond representable
    stats = {}
    for nu in (2.0, 4.0):
        inst = smooth_solution(base, nu)
        data = add_noise(inst, 1e-2, seed=160)
        cfg = SolverConfig(method="sgd", c0=c0, max_epochs=60.0, seed=161)
        curves = error_curves(inst, data.y, cfg, runs=50)
        best = curves.error_sq.min(axis=1)
        stats[nu] = (float(best.mean()),
                     float(best.std(ddof=1)) / math.sqrt(best.shape[0]))
    mse2, se2 = stats[2.0]
    mse4, se4 = stats[4.0]
    spread = 3.0 * math.hypot(se2, se4)
    saturated = mse4 >= mse2 - spread
    return _result("smoothness-saturation", saturated, mse4 - (mse2 - spread),
                   f"condition violation factor {ratio:.1e}; best mse "
                   f"{mse4:.3e} (smoother) vs {mse2:.3e}; no significant "
                   "improvement expected", soft=True)


def check_rate_slope() -> CheckResult:
    base = smooth_solution(generate("s-shaw", 200), 1.0)
    m_len = math.ceil(math.sqrt(200))
    deltas = []
    values = []
    last_e = np.inf
    decreasing = True
    for eps in (5e-2, 1e-2, 1e-3):
        data = add_noise(base, eps, seed=170)
        inst, y = precondition(base, data.y)
        c0 = step_constant(inst.a)
        cfg = SolverConfig(method="svrg", c0=c0, max_epochs=600.0, M=m_len,
                           seed=171)
        curves = error_curves(inst, y, cfg, runs=20)
        best = curves.error_sq.min(axis=1)
        deltas.append(data.delta)
        values.append(float(best.mean()))
        e_mean = math.sqrt(values[-1])
        decreasing = decreasing and e_mean < last_e
        last_e = e_mean
    slope, _ = rate_fit(deltas, values)
    passed = 0.8 <= slope <= 1.9 and decreasing
    margin = min(slope - 0.8, 1.9 - slope)
    return _result("rate-slope", passed, margin,
                   f"fitted mse-vs-noise slope {slope:.3f} (window [0.8, 1.9]);"
                   f" stopping errors decreasing: {decreasing}")


def check_phillips_benchmark() -> CheckResult:
    inst = smooth_solution(generate("s-phillips", 1000), 0.0)
    data = add_noise(inst, 5e-2, seed=180)
    c0 = 5.0 * step_constant(inst.a) / 100.0
    cfg = SolverConfig(method="svrg", c0=c0, max_epochs=250.0, M=100, seed=181)
    curves = error_curves(inst, data.y, cfg, runs=100)
    kstar, e_mean, _ = stopping_stats(curves)
    e_ok = 5.42e-1 / 2 <= e_mean <= 5.42e-1 * 2
    k_ok = 96.25 / 2 <= kstar <= 96.25 * 2
    margin = min(e_mean / (5.42e-1 / 2) - 1.0, 2.0 - e_mean / 5.42e-1,
                 kstar / (96.25 / 2) - 1.0, 2.0 - kstar / 96.25)
    return _result("phillips-benchmark-bands", e_ok and k_ok, margin,
                   f"e at stop {e_mean:.3e} (band [2.71e-1, 1.084e0]), "
                   f"stop epoch {kstar:.2f} (band [48.1, 192.5]), 100 runs")


FULL_CHECKS = [
    check_error_bound_mc,
    check_residual_bound_mc,
    check_variance_ordering_midsize,
    check_saturation,
    check_rate_slope,
    check_phillips_benchmark,
]


# ---------------------------------------------------------------------------
# suite driver

def run_suite(level: str = "fast") -> dict:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    results = []
    start = time.perf_counter()
    soft_names = {check_saturation}
    for fn in checks:
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # a crashed check is a failed check
            res = _result(fn.__name__.removeprefix("check_").replace("_", "-"),
                          False, -1e308, f"{type(exc).__name__}: {exc}",
                          soft=fn in soft_names)
        results.append(CheckResult(name=res.name, passed=res.passed,
                                   soft=res.soft, margin=res.margin,
                                   seconds=time.perf_counter() - t0,
                                   detail=res.detail))
    elapsed = time.perf_counter() - start
    if level == "fast":
        results.append(_result("fast-wallclock", elapsed < 60.0,
                               60.0 - elapsed,
                               f"fast suite took {elapsed:.1f} s "
                               "(soft budget 60 s)", soft=True))
    failed = [r.name for r in results if not r.passed and not r.soft]
    return {
        "schema": fileio.SCHEMA_VERSION,
        "kind": "verification_report",
        "level": level,
        "elapsed_seconds": elapsed,
        "passed": not failed,
        "failed_checks": failed,
        "checks": [{"name": r.name, "passed": r.passed, "soft": r.soft,
                    "margin": r.margin, "seconds": round(r.seconds, 3),
                    "detail": r.detail} for r in results],
    }


def format_report(report: dict) -> str:
    lines = []
    for entry in report["checks"]:
        status = "pass" if entry["passed"] else "FAIL"
        if entry["soft"]:
            status += " (soft)"
        lines.append(f"[{status:>11}] {entry['name']:<28} "
                     f"margin {entry['margin']:+.3e}  {entry['detail']}")
    lines.append(f"level={report['level']} elapsed={report['elapsed_seconds']:.1f}s "
                 f"result={'PASS' if report['passed'] else 'FAIL'}")
    if report["failed_checks"]:
        lines.append("failed: " + ", ".join(report["failed_checks"]))
    return "\n".join(lines)
