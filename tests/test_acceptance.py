"""Acceptance gate: nine checks, one printed line each.

Each test prints a single [criterion N] PASS/FAIL line (visible despite
capture) before asserting, so a full run always yields a nine-line scoreboard.
The long-running experiment pipelines execute exactly twice each, once per
thread setting, shared between the behavioral checks (6-8) and the
determinism check (9) through session fixtures.
"""

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from stochreg import fileio
from stochreg.analysis import (closed_form_mean, condition_report,
                               enumerate_exact_moments,
                               enumerate_weighted_second_moment, error_curves,
                               operator_word_matrix, orthogonality_check,
                               rate_fit, recursion_check, residual_bound,
                               sgd_variance_terms, svrg_variance_terms,
                               theorem_bound, variance_compare)
from stochreg.experiment import (ExperimentSpec, MethodPlan, RESULT_HEADER,
                                 run_experiment)
from stochreg.problems import (add_noise, make_instance, noise_functional,
                               precondition, smooth_solution, source_element)
from stochreg.solvers import EpochAccounting, SolverConfig
from stochreg.spectral import kernel_bound_check, step_constant

R1_FAMILY = ("I", "B", "M0^2")
R2_FAMILY = ("0", "Binv_zeta")

E_COL = RESULT_HEADER.index("e_at_kstar")
K_COL = RESULT_HEADER.index("kstar")
ERR_COL = RESULT_HEADER.index("error")


def _announce(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: "
              f"{label} ({detail})", flush=True)


def _small_cases(count=20, seed=20260815):
    """Random instances small enough for full path enumeration."""
    rng = np.random.default_rng(seed)
    cases = []
    for idx in range(count):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        M = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        a = rng.normal(size=(n, m))
        x_dag = rng.normal(size=m)
        inst = make_instance(f"case{idx}", a, x_dag)
        data = add_noise(inst, 5e-2, 1000 + idx)
        c0 = float(rng.uniform(0.3, 0.9)) * step_constant(a)
        cases.append((inst, data.y, c0, M, K))
    return cases


def test_criterion_1_mean_matches_closed_form(capsys):
    start = time.perf_counter()
    worst = 0.0
    for inst, y, c0, M, K in _small_cases():
        assert inst.n ** (K * M) <= 10**5
        zeta = noise_functional(inst, y)
        cf = closed_form_mean(inst.gram, inst.x0 - inst.x_dag, zeta, c0, M, K,
                              x_dag=inst.x_dag)
        scale = 1.0 + np.linalg.norm(inst.x_dag)
        for method in ("sgd", "svrg"):
            em = enumerate_exact_moments(inst, y, c0, M, K, method)
            worst = max(worst, float(np.linalg.norm(em.mean - cf)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 30
    _announce(capsys, 1, "enumerated mean vs closed form, both methods", ok,
              f"worst scaled deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-11
    assert elapsed < 30


def test_criterion_2_decompositions_match_enumeration(capsys):
    start = time.perf_counter()
    worst = 0.0
    for inst, y, c0, M, K in _small_cases():
        pinst, py = precondition(inst, y)
        for r1 in R1_FAMILY:
            for r2 in R2_FAMILY:
                for method, terms in (("svrg", svrg_variance_terms),
                                      ("sgd", sgd_variance_terms)):
                    dec = terms(pinst, py, c0, M, K, r1=r1, r2=r2)
                    ref = enumerate_weighted_second_moment(
                        pinst, py, c0, M, K, method, r1=r1, r2=r2)
                    worst = max(worst, abs(dec.total - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 60
    _announce(capsys, 2, "variance decomposition totals vs enumeration", ok,
              f"worst relative deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-11
    assert elapsed < 60


def test_criterion_3_variance_ordering(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_margin = np.inf
    all_condition_ok = True
    for idx in range(10):
        n = int(rng.integers(21, 41))
        m = int(rng.integers(2, 5))
        inst = make_instance(f"cmp{idx}", rng.normal(size=(n, m)),
                             rng.normal(size=m))
        data = add_noise(inst, 5e-2, 4000 + idx)
        pinst, py = precondition(inst, data.y)
        c0 = step_constant(pinst.a)
        all_condition_ok &= condition_report(pinst, c0, 2).compare_ok
        for K in (1, 2, 3):
            for r1 in R1_FAMILY:
                for r2 in R2_FAMILY:
                    cmp = variance_compare(pinst, py, c0, 2, K, r1=r1, r2=r2)
                    worst_margin = min(worst_margin, cmp.margin)
    elapsed = time.perf_counter() - start
    ok = all_condition_ok and worst_margin >= -1e-12 and elapsed < 60
    _announce(capsys, 3, "anchored variance never above plain variance", ok,
              f"worst margin {worst_margin:.2e}, {elapsed:.1f}s")
    assert all_condition_ok
    assert worst_margin >= -1e-12
    assert elapsed < 60


def _preconditioned(n, m, seed, eps=5e-2):
    rng = np.random.default_rng(seed)
    inst = make_instance(f"id{n}x{m}", rng.normal(size=(n, m)),
                         rng.normal(size=m))
    data = add_noise(inst, eps, seed)
    return precondition(inst, data.y)


def test_criterion_4_identity_suite(capsys):
    start = time.perf_counter()

    # geometric step sums against truncated inversion, on range(B)
    worst_stepsum = 0.0
    for seed in (1, 2, 3):
        inst, _ = _preconditioned(7, 4, seed)
        gram = inst.gram
        c0 = 0.8 * step_constant(inst.a)
        m0 = operator_word_matrix(gram, c0, "M0")
        v = gram.matrix @ np.random.default_rng(seed + 50).normal(size=inst.m)
        acc = np.zeros_like(v)
        power = np.eye(inst.m)
        for _ in range(1, 10):
            acc = acc + c0 * (power @ v)
            power = m0 @ power
            rhs = gram.pinv_apply(v - power @ v)
            worst_stepsum = max(worst_stepsum, np.linalg.norm(acc - rhs)
                                / (1.0 + np.linalg.norm(rhs)))

    # cross moments of the per-step fluctuation vectors vanish
    worst_orth = 0.0
    for method in ("svrg", "sgd"):
        inst, y = _preconditioned(3, 2, 11)
        rep = orthogonality_check(inst, y, 0.7 * step_constant(inst.a), 2, 2,
                                  method=method)
        worst_orth = max(worst_orth, rep.max_cross / max(rep.scale, 1e-300))

    # epoch recursion, telescoping products, first step after each anchor
    worst_rec = 0.0
    for seed in (5, 6):
        inst, y = _preconditioned(9, 5, seed)
        rep = recursion_check(inst, y, 0.6 * step_constant(inst.a), 3, 4,
                              seed=seed)
        worst_rec = max(worst_rec, rep.max_epoch_deviation,
                        rep.max_telescope_deviation, rep.max_anchor_deviation)

    # row projectors commute once rows are mutually orthogonal
    worst_comm = 0.0
    for seed in (7, 8):
        inst, _ = _preconditioned(8, 5, seed)
        scale = max(np.linalg.norm(np.outer(r, r)) for r in inst.a)
        for i in range(inst.n):
            pi = np.outer(inst.a[i], inst.a[i])
            for j in range(i + 1, inst.n):
                pj = np.outer(inst.a[j], inst.a[j])
                worst_comm = max(worst_comm, np.linalg.norm(pi @ pj - pj @ pi)
                                 / scale**2)

    # centered single-row quantities carry an exact (n-1) factor
    worst_center = 0.0
    for seed in (9, 10):
        inst, y = _preconditioned(6, 4, seed)
        gram = inst.gram
        rng = np.random.default_rng(seed + 60)
        dmat = gram.filter_matrix(
            rng.uniform(0.5, 2.0, size=gram.eigenvalues.size))
        v = rng.normal(size=inst.m)
        xi = y - inst.y_dag
        zeta = noise_functional(inst, y)
        b = gram.matrix
        lhs_n = np.mean([np.linalg.norm(
            dmat @ ((b - np.outer(inst.a[j], inst.a[j])) @ v))**2
            for j in range(inst.n)])
        rhs_n = (inst.n - 1) * np.linalg.norm(dmat @ (b @ v))**2
        lhs_z = np.mean([np.linalg.norm(dmat @ (xi[j] * inst.a[j] - zeta))**2
                         for j in range(inst.n)])
        rhs_z = (inst.n - 1) * np.linalg.norm(dmat @ zeta)**2
        worst_center = max(worst_center,
                           abs(lhs_n - rhs_n) / (1.0 + abs(rhs_n)),
                           abs(lhs_z - rhs_z) / (1.0 + abs(rhs_z)))

    # spectral kernel bounds across random spectra, steps, and exponents
    rng = np.random.default_rng(202)
    sweep_pass = True
    for _ in range(200):
        lam = rng.uniform(0.05, 1.0, size=4)
        c0 = float(rng.uniform(0.1, 0.95)) / lam.max()
        M = int(rng.integers(1, 6))
        K = int(rng.integers(1, 8))
        s = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        t = float(rng.choice([0.25, 0.5, 1.0]))
        sweep_pass &= kernel_bound_check(np.diag(lam), c0, M, K, s=s, t=t).passed

    elapsed = time.perf_counter() - start
    worst = max(worst_stepsum, worst_orth, worst_rec, worst_comm, worst_center)
    ok = worst <= 1e-12 and sweep_pass and elapsed < 30
    _announce(capsys, 4, "identity suite", ok,
              f"worst deviation {worst:.2e}, bound sweep "
              f"{'all pass' if sweep_pass else 'FAILED'}, {elapsed:.1f}s")
    assert worst_stepsum <= 1e-12
    assert worst_orth <= 1e-12
    assert worst_rec <= 1e-12
    assert worst_comm <= 1e-12
    assert worst_center <= 1e-12
    assert sweep_pass
    assert elapsed < 30


def test_criterion_5_bounds_hold_on_mc_moments(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    inst = smooth_solution(
        make_instance("bound", rng.normal(size=(24, 4)), rng.normal(size=4)),
        1.0)
    data = add_noise(inst, 5e-2, 314)
    pinst, py = precondition(inst, data.y)
    c0 = step_constant(pinst.a)
    M = 2
    report = condition_report(pinst, c0, M)
    assert report.rate_ok
    norm_w = float(np.linalg.norm(source_element(pinst).w))

    acct = EpochAccounting("svrg", pinst.n, M)
    epochs_for_ten_loops = 10 * M / acct.iterations_per_epoch
    cfg = SolverConfig(method="svrg", c0=c0, M=M,
                       max_epochs=epochs_for_ten_loops + 0.01, seed=9,
                       checkpoint_every=1.0)
    curves = error_curves(pinst, py, cfg, runs=2000, include_residual=True)
    runs = curves.error_sq.shape[0]

    mse_ok = residual_ok = True
    for K in range(1, 11):
        idx = int(np.nonzero(curves.iterations == K * M)[0][0])
        mse = curves.error_sq[:, idx].mean()
        se = curves.error_sq[:, idx].std(ddof=1) / np.sqrt(runs)
        bound = theorem_bound(pinst.gram.norm, pinst.n, c0, M, K, pinst.nu,
                              norm_w, data.delta_bar)
        mse_ok &= mse <= bound + 3 * se
        res = curves.residual_sq[:, idx].mean()
        res_se = curves.residual_sq[:, idx].std(ddof=1) / np.sqrt(runs)
        rbound = residual_bound(pinst.n, c0, M, K, pinst.nu, norm_w,
                                data.delta_bar)
        residual_ok &= res <= rbound + 3 * res_se
    elapsed = time.perf_counter() - start
    ok = mse_ok and residual_ok and elapsed < 120
    _announce(capsys, 5, "error and residual bounds over ten outer loops", ok,
              f"mse {'ok' if mse_ok else 'VIOLATED'}, residual "
              f"{'ok' if residual_ok else 'VIOLATED'}, {elapsed:.1f}s")
    assert mse_ok
    assert residual_ok
    assert elapsed < 120


# --- experiment pipelines, each run once per thread setting -------------------

@dataclass(frozen=True)
class PipelineRuns:
    rows: list
    elapsed: float                # wall time of the single-thread run
    csv_bytes: tuple
    figure_bytes: tuple           # (mapping, mapping) keyed by file name


def _run_pipeline(spec, base_dir, figures=False):
    outputs = []
    rows = None
    elapsed = 0.0
    saved = os.environ.get("STOCHREG_THREADS")
    try:
        for threads in (1, 3):
            outdir = base_dir / f"threads{threads}"
            outdir.mkdir(parents=True, exist_ok=True)
            out_csv = outdir / "results.csv"
            figdir = outdir / "figures" if figures else None
            os.environ["STOCHREG_THREADS"] = str(threads)
            t0 = time.perf_counter()
            got = run_experiment(spec, out_csv, figure_dir=figdir)
            dt = time.perf_counter() - t0
            if threads == 1:
                rows, elapsed = got, dt
            figs = {}
            if figures:
                figs = {f.name: f.read_bytes()
                        for f in sorted(Path(figdir).glob("*.csv"))}
            outputs.append((out_csv.read_bytes(), figs))
    finally:
        if saved is None:
            os.environ.pop("STOCHREG_THREADS", None)
        else:
            os.environ["STOCHREG_THREADS"] = saved
    return PipelineRuns(rows=rows, elapsed=elapsed,
                        csv_bytes=(outputs[0][0], outputs[1][0]),
                        figure_bytes=(outputs[0][1], outputs[1][1]))


@pytest.fixture(scope="session")
def rate_runs(tmp_path_factory):
    spec = ExperimentSpec(
        problem="s-shaw", n=200, nu=[1.0], epsilon=[5e-2, 1e-2, 1e-3],
        methods=(MethodPlan(method="svrg", c0_expr="1/2*c", m_expr="15"),),
        runs=20, max_epochs=12000.0, base_seed=0, precondition=True)
    return _run_pipeline(spec, tmp_path_factory.mktemp("rate"))


@pytest.fixture(scope="session")
def table_runs(tmp_path_factory):
    spec = ExperimentSpec(
        problem="s-phillips", n=1000, nu=[0.0], epsilon=[5e-2],
        methods=(MethodPlan(method="svrg", c0_expr="5*c/M", m_expr="100"),
                 MethodPlan(method="sgd", c0_expr="4*c/n")),
        runs=100, max_epochs=250.0, base_seed=0, precondition=False)
    return _run_pipeline(spec, tmp_path_factory.mktemp("table"))


@pytest.fixture(scope="session")
def figure_runs(tmp_path_factory):
    spec = ExperimentSpec(
        problem="s-phillips", n=200, nu=[1.0], epsilon=[1e-3],
        methods=(MethodPlan(method="svrg", c0_expr="3/2*c/M", m_expr="100"),
                 MethodPlan(method="sgd", c0_expr="3/2*c/M", m_expr="100")),
        runs=100, max_epochs=50.0, base_seed=0, precondition=False)
    return _run_pipeline(spec, tmp_path_factory.mktemp("figure"), figures=True)


def test_criterion_6_rate_behavior(capsys, rate_runs):
    rows = rate_runs.rows
    assert all(row[ERR_COL] == "" for row in rows)
    es = [row[E_COL] for row in rows]
    slope, _ = rate_fit([5e-2, 1e-2, 1e-3], [e * e for e in es])
    decreasing = all(es[i] > es[i + 1] for i in range(len(es) - 1))
    interior = all(row[K_COL] < 12000.0 for row in rows)
    ok = 0.8 <= slope <= 1.9 and decreasing and interior \
        and rate_runs.elapsed < 300
    _announce(capsys, 6, "stopping error follows the noise level", ok,
              f"squared-error slope {slope:.2f}, e {es[0]:.3f} > {es[1]:.3f} "
              f"> {es[2]:.3f}, {rate_runs.elapsed:.0f}s")
    assert 0.8 <= slope <= 1.9
    assert decreasing
    assert interior
    assert rate_runs.elapsed < 300


def test_criterion_7_benchmark_cell(capsys, table_runs):
    rows = {row[RESULT_HEADER.index("method")]: row for row in table_runs.rows}
    targets = {"svrg": (0.542, 96.25), "sgd": (0.542, 108.90)}
    details = []
    ok = table_runs.elapsed < 600
    for method, (e_ref, k_ref) in targets.items():
        row = rows[method]
        assert row[ERR_COL] == ""
        e_ratio = row[E_COL] / e_ref
        k_ratio = row[K_COL] / k_ref
        details.append(f"{method} e {row[E_COL]:.3f} ({e_ratio:.2f}x), "
                       f"k* {row[K_COL]:.1f} ({k_ratio:.2f}x)")
        ok &= 0.5 <= e_ratio <= 2.0 and 0.5 <= k_ratio <= 2.0
    _announce(capsys, 7, "benchmark cell within a factor two", ok,
              "; ".join(details) + f", {table_runs.elapsed:.0f}s")
    for method, (e_ref, k_ref) in targets.items():
        row = rows[method]
        assert 0.5 <= row[E_COL] / e_ref <= 2.0
        assert 0.5 <= row[K_COL] / k_ref <= 2.0
    assert table_runs.elapsed < 600


def _variance_by_iteration(figure_bytes):
    curves = {}
    for name, blob in figure_bytes.items():
        lines = blob.decode().splitlines()
        header = lines[0].split(",")
        i_it = header.index("iteration")
        i_var = header.index("variance")
        method = "svrg" if "svrg" in name else "sgd"
        curves[method] = {float(parts[i_it]): float(parts[i_var])
                          for parts in (l.split(",") for l in lines[1:])}
    return curves


def test_criterion_8_variance_reduction_curve(capsys, figure_runs):
    curves = _variance_by_iteration(figure_runs.figure_bytes[0])
    common = sorted(set(curves["svrg"]) & set(curves["sgd"]))
    # one full sweep of the data is n plain-method iterations
    beyond = [k for k in common if k > 200]
    wins = [curves["svrg"][k] < curves["sgd"][k] for k in beyond]
    final = beyond[-1]
    ratio = curves["sgd"][final] / curves["svrg"][final]
    win_rate = sum(wins) / len(wins)
    ok = win_rate >= 0.95 and ratio >= 10.0 and figure_runs.elapsed < 300
    _announce(capsys, 8, "anchoring suppresses the iterate variance", ok,
              f"wins {sum(wins)}/{len(wins)}, final-iterate ratio {ratio:.1f}x, "
              f"{figure_runs.elapsed:.0f}s")
    assert len(beyond) >= 20
    assert win_rate >= 0.95
    assert ratio >= 10.0
    assert figure_runs.elapsed < 300


def test_criterion_9_thread_count_invariance(capsys, rate_runs, table_runs,
                                             figure_runs):
    same_rate = rate_runs.csv_bytes[0] == rate_runs.csv_bytes[1]
    same_table = table_runs.csv_bytes[0] == table_runs.csv_bytes[1]
    same_figure = figure_runs.csv_bytes[0] == figure_runs.csv_bytes[1] \
        and figure_runs.figure_bytes[0] == figure_runs.figure_bytes[1]
    ok = same_rate and same_table and same_figure
    _announce(capsys, 9, "byte-identical outputs across thread counts", ok,
              f"rate {'=' if same_rate else '!='}, "
              f"table {'=' if same_table else '!='}, "
              f"figure {'=' if same_figure else '!='}")
    assert same_rate
    assert same_table
    assert same_figure
