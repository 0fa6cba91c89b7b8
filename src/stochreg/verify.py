"""Self-contained verification suites behind the `verify` command.

Each check rebuilds its own small problem, evaluates one identity, bound, or
ordering through an independent route, and reports a signed margin (positive
means the check passed with room to spare). Hard checks gate the exit code;
soft checks are diagnostics that are reported but never fail the suite.

`FAST_CHECKS` and `FULL_CHECKS` pair each check with its report name, and
`SOFT_CHECKS` names the soft ones; a check returns (passed, margin, detail),
and `run_suite` builds the report entry from that and the table.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from . import fileio
from .analysis import (closed_form_mean, condition_report,
                       enumerate_exact_moments, enumerate_weighted_second_moment,
                       error_curves, mc_moments, operator_word_matrix,
                       orthogonality_check, recursion_check, residual_bound,
                       sgd_variance_terms, stopping_stats, svrg_variance_terms,
                       theorem_bound, variance_compare, rate_fit)
from .experiment import run_groups
from .problems import (add_noise, generate, make_instance, noise_functional,
                       precondition, smooth_solution)
from .solvers import SolverConfig, EpochAccounting, solve, step_stability_bound
from .spectral import (BOUND_RTOL, Propagator, kernel_bound_check,
                       step_constant)


Outcome = tuple[bool, float, str]  # (passed, margin, detail)


# ---------------------------------------------------------------------------
# small deterministic problem builders

def _random_instance(n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m))
    x = rng.normal(size=m)
    return make_instance(f"check-{n}x{m}", a, x)


def _noisy_preconditioned(n: int, m: int, seed: int):
    inst = _random_instance(n, m, seed)
    data = add_noise(inst, 0.05, seed + 1)
    return precondition(inst, data.y)


def _svrg_steps(n: int, c0: float, m_len: int, steps: int, seed: int,
                every: int | None = None) -> SolverConfig:
    """svrg for `steps` iterations, recorded every `every` iterations
    (default: once per epoch)."""
    per_epoch = EpochAccounting("svrg", n, m_len).iterations_per_epoch
    every_epochs = 1.0 if every is None else every / per_epoch
    return SolverConfig(method="svrg", c0=c0, max_epochs=steps / per_epoch,
                        M=m_len, seed=seed, checkpoint_every=every_epochs)


# ---------------------------------------------------------------------------
# fast checks

def check_propagator_range() -> Outcome:
    worst = -np.inf
    for seed in range(5):
        inst = _random_instance(6 + seed, 3 + (seed % 3), seed)
        prop = Propagator(inst.gram, step_constant(inst.a))
        lo, hi = prop.eigenvalues.min(), prop.eigenvalues.max()
        worst = max(worst, -lo, hi - 1.0)
        if not prop.stable:
            return (False, -1.0,
                    f"seed {seed}: stability flag false at the unit step")
    margin = 1e-12 - worst
    return (margin >= 0, margin,
            f"worst eigenvalue excursion {worst:.3e} outside [0, 1]")


def check_kernel_bounds() -> Outcome:
    rng = np.random.default_rng(11)
    failures = 0
    worst = margin = np.inf
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
            # the room under the tolerance the bounds are checked with:
            # >= 0 exactly when the case passed
            margin = min(margin,
                         rep.rhs_power * (1 + BOUND_RTOL) - rep.lhs_power,
                         rep.rhs_inv * (1 + BOUND_RTOL) - rep.lhs_inv)
    return (failures == 0, margin,
            f"{failures} failures over {4 * len(cases)} sweep cases; "
            f"smallest bound slack {worst:.3e}")


def check_step_sum_identity() -> Outcome:
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
    return (margin >= 0, margin,
            f"worst relative deviation {worst:.3e} "
            "(geometric step sums vs truncated inversion)")


def check_row_commutation() -> Outcome:
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
    return (margin >= 0, margin,
            f"largest commutator norm {worst:.3e} at row scale {scale:.3e}")


def check_centering_factor() -> Outcome:
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
    return (margin >= 0, margin,
            f"relative deviations {dev_n:.3e} (row-gap), "
            f"{dev_z:.3e} (noise-gap)")


def check_fixed_point() -> Outcome:
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
    return (worst == 0.0, 0.0 - worst,
            f"largest recorded squared error {worst:.3e} when started "
            "at the exact solution with exact data")


def check_epoch_recursion() -> Outcome:
    worst = 0.0
    for seed, (n, m, m_len, k_out) in enumerate([(5, 3, 3, 2), (4, 4, 2, 3)]):
        inst, y = _noisy_preconditioned(n, m, seed=50 + seed)
        c0 = 0.7 * step_constant(inst.a)
        rep = recursion_check(inst, y, c0, m_len, k_out, seed=seed)
        worst = max(worst, rep.max_epoch_deviation, rep.max_telescope_deviation,
                    rep.max_anchor_deviation)
    margin = 1e-12 - worst
    return (margin >= 0, margin,
            f"worst relative deviation {worst:.3e} across the epoch, "
            "telescoping, and first-step identities")


def check_orthogonality() -> Outcome:
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
    return margin >= 0, margin, "; ".join(detail)


def check_mean_closed_form() -> Outcome:
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
    return (margin >= 0, margin,
            f"worst normalized mean gap {worst:.3e} between path "
            "enumeration and the spectral formula")


def check_bias_equality() -> Outcome:
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
    return (margin >= 0, margin,
            f"largest mean gap {worst:.3e} between the two stochastic "
            "methods at equal step, loop length, and loop count")


def check_decomposition(method: str) -> Outcome:
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
    margin = 1e-11 - worst
    return (margin >= 0, margin,
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


def check_variance_ordering() -> Outcome:
    details = []
    worst = np.inf
    for seed, n in ((101, 21), (102, 24)):
        margin, cond = _ordering_worst(n, 3, 2, (1, 2), seed)
        details.append(f"n={n}: min margin {margin:.3e}, condition "
                       f"{'met' if cond else 'violated'}")
        if not cond:
            return False, -1.0, "; ".join(details)
        worst = min(worst, margin)
    passed = worst >= -1e-12
    return passed, worst, "; ".join(details)


def check_mc_consistency() -> Outcome:
    inst, y = _noisy_preconditioned(3, 2, seed=120)
    c0 = 0.7 * step_constant(inst.a)
    m_len, k_out = 2, 2
    exact = enumerate_weighted_second_moment(inst, y, c0, m_len, k_out, "svrg",
                                             r1="I", r2="Binv_zeta")
    total = m_len * k_out
    rep = mc_moments(inst, y, _svrg_steps(inst.n, c0, m_len, total, seed=7),
                     runs=20000)
    if rep.iterations[-1] != total:
        return (False, -1.0,
                f"checkpoint grid ends at {rep.iterations[-1]}, "
                f"wanted {total}")
    gap = abs(rep.mse[-1] - exact)
    allowance = 4.0 * rep.mse_stderr[-1]
    return (gap <= allowance, allowance - gap,
            f"sampled mse {rep.mse[-1]:.6e} vs exact {exact:.6e}; "
            f"gap {gap:.3e} within {allowance:.3e} (4 SE, 20000 runs)")


def check_noise_scaling() -> Outcome:
    inst = generate("s-shaw", 1000)
    data = add_noise(inst, 1e-2, seed=5)
    ratio = data.delta / (1e-2 * np.abs(inst.y_dag).max())
    dev = abs(ratio / math.sqrt(inst.n) - 1.0)
    margin = 0.10 - dev
    return (margin >= 0, margin,
            f"perturbation norm over per-entry scale = {ratio:.2f} vs "
            f"sqrt(n) = {math.sqrt(inst.n):.2f} (relative gap "
            f"{dev:.3f}, allowed 0.10)")


FAST_CHECKS = [
    ("propagator-range", check_propagator_range),
    ("spectral-kernel-bounds", check_kernel_bounds),
    ("step-sum-identity", check_step_sum_identity),
    ("row-commutation", check_row_commutation),
    ("centering-factor", check_centering_factor),
    ("exact-data-fixed-point", check_fixed_point),
    ("epoch-recursion", check_epoch_recursion),
    ("inner-term-orthogonality", check_orthogonality),
    ("mean-closed-form", check_mean_closed_form),
    ("bias-method-equality", check_bias_equality),
    ("anchored-decomposition", partial(check_decomposition, "svrg")),
    ("unanchored-decomposition", partial(check_decomposition, "sgd")),
    ("variance-ordering", check_variance_ordering),
    ("mc-consistency", check_mc_consistency),
    ("noise-scale-concentration", check_noise_scaling),
]


# ---------------------------------------------------------------------------
# full-level checks

def _bound_test_instance():
    """Preconditioned instance with a known source representation and a step
    satisfying the rate-side condition."""
    raw = _random_instance(24, 4, 140)
    rotated, _ = precondition(raw)
    rng = np.random.default_rng(141)
    w = rng.normal(size=rotated.m)
    x_dag = rotated.gram.apply_power(1.0, w)
    inst = make_instance("bound-check", rotated.a, x_dag)
    data = add_noise(inst, 1e-2, 142)
    return inst, data, float(np.linalg.norm(w))


def check_error_bound_mc() -> Outcome:
    inst, data, norm_w = _bound_test_instance()
    m_len = 2
    c0 = step_constant(inst.a)
    report = condition_report(inst, c0, m_len)
    if not report.rate_ok:
        return (False, -1.0,
                "rate condition unexpectedly violated on the test "
                f"instance (lhs {report.rate_lhs:.3e})")
    cfg = _svrg_steps(inst.n, c0, m_len, 10 * m_len, seed=31, every=m_len)
    rep = mc_moments(inst, data.y, cfg, runs=2000)
    worst = np.inf
    for k_out in range(1, 11):
        j = int(np.searchsorted(rep.iterations, k_out * m_len))
        bound = theorem_bound(inst.gram.norm, inst.n, c0, m_len, k_out, 1.0,
                              norm_w, data.delta_bar)
        slack = bound + 3.0 * rep.mse_stderr[j] - rep.mse[j]
        worst = min(worst, slack)
    return (worst >= 0, worst,
            f"smallest slack {worst:.3e} between bound plus 3 SE and "
            "sampled mse over ten outer-loop counts (2000 runs)")


def check_residual_bound_mc() -> Outcome:
    inst, data, norm_w = _bound_test_instance()
    m_len = 2
    c0 = step_constant(inst.a)
    cfg = _svrg_steps(inst.n, c0, m_len, 10 * m_len, seed=32, every=m_len)
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
    return (worst >= 0, worst,
            f"smallest slack {worst:.3e} between the residual bound "
            "plus 3 SE and the sampled mean residual")


def check_variance_ordering_midsize() -> Outcome:
    margin, cond = _ordering_worst(30, 4, 2, (1, 2, 3), seed=150)
    passed = cond and margin >= -1e-12
    return (passed, margin,
            f"min margin {margin:.3e} over three outer-loop counts, "
            f"condition {'met' if cond else 'violated'}")


def check_saturation() -> Outcome:
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
    return (saturated, mse4 - (mse2 - spread),
            f"condition violation factor {ratio:.1e}; best mse "
            f"{mse4:.3e} (smoother) vs {mse2:.3e}; no significant "
            "improvement expected")


def check_rate_slope() -> Outcome:
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
    return (passed, margin,
            f"fitted mse-vs-noise slope {slope:.3f} (window [0.8, 1.9]);"
            f" stopping errors decreasing: {decreasing}")


def check_phillips_benchmark() -> Outcome:
    inst = smooth_solution(generate("s-phillips", 1000), 0.0)
    data = add_noise(inst, 5e-2, seed=180)
    c0 = 5.0 * step_constant(inst.a) / 100.0
    cfg = SolverConfig(method="svrg", c0=c0, max_epochs=250.0, M=100, seed=181)
    # the grid's runner: a run has the same bits in a slice as in one
    # 100-run batch
    (curves,) = run_groups([(inst, cfg, data.y[None], [cfg.seed])], 100)
    if isinstance(curves, Exception):
        raise curves
    kstar, e_mean, _ = stopping_stats(curves)
    e_ok = 5.42e-1 / 2 <= e_mean <= 5.42e-1 * 2
    k_ok = 96.25 / 2 <= kstar <= 96.25 * 2
    margin = min(e_mean / (5.42e-1 / 2) - 1.0, 2.0 - e_mean / 5.42e-1,
                 kstar / (96.25 / 2) - 1.0, 2.0 - kstar / 96.25)
    return (e_ok and k_ok, margin,
            f"e at stop {e_mean:.3e} (band [2.71e-1, 1.084e0]), "
            f"stop epoch {kstar:.2f} (band [48.1, 192.5]), 100 runs")


FULL_CHECKS = [
    ("error-bound-monte-carlo", check_error_bound_mc),
    ("residual-bound-monte-carlo", check_residual_bound_mc),
    ("variance-ordering-midsize", check_variance_ordering_midsize),
    ("smoothness-saturation", check_saturation),
    ("rate-slope", check_rate_slope),
    ("phillips-benchmark-bands", check_phillips_benchmark),
]

# diagnostics: reported, but a failure never fails the suite
SOFT_CHECKS = {"smoothness-saturation", "fast-wallclock"}


# ---------------------------------------------------------------------------
# suite driver

def _entry(name: str, passed, margin, seconds: float, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "soft": name in SOFT_CHECKS,
            "margin": float(margin), "seconds": round(seconds, 3),
            "detail": detail}


def run_suite(level: str = "fast") -> dict:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    checks = FAST_CHECKS + (FULL_CHECKS if level == "full" else [])
    entries = []
    start = time.perf_counter()
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            passed, margin, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, margin = False, -1e308
            detail = f"{type(exc).__name__}: {exc}"
        entries.append(_entry(name, passed, margin, time.perf_counter() - t0,
                              detail))
    elapsed = time.perf_counter() - start
    if level == "fast":
        entries.append(_entry("fast-wallclock", elapsed < 60.0, 60.0 - elapsed,
                              0.0, f"fast suite took {elapsed:.1f} s "
                              "(soft budget 60 s)"))
    failed = [e["name"] for e in entries if not e["passed"] and not e["soft"]]
    return {
        "schema": fileio.SCHEMA_VERSION,
        "kind": "verification_report",
        "level": level,
        "elapsed_seconds": elapsed,
        "passed": not failed,
        "failed_checks": failed,
        "checks": entries,
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
