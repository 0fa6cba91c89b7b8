"""Self-test of the benchmark's correctness checks.

Each check is fed a correct output and a wrong one, and must pass the first
and fail the second. The independent computations the checks rely on (the
exact bias curve and the brute-force path moments) are also compared with
the program's own oracles on tiny cases.

    python3 -m pytest benchmark/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from stochreg import (add_noise, closed_form_mean, enumerate_exact_moments,  # noqa: E402
                      enumerate_weighted_second_moment, make_instance,
                      noise_functional, precondition, step_constant)


def _row(method, eps, e, k, error=""):
    return {"method": method, "epsilon": repr(eps), "e_at_kstar": repr(e),
            "kstar": repr(k), "error": error}


# ---------------------------------------------------------------------------
# table

def _table_rows():
    return [_row("svrg", 0.05, 0.45, 64.0), _row("sgd", 0.05, 0.44, 72.0)]


def test_table_accepts_paper_like_cells():
    assert checks.check_table(_table_rows(), 80.0, 13.0) == []
    rows = _table_rows()
    rows[0]["kstar"] = "80.003"     # the last checkpoint, a fraction past 80
    assert checks.check_table(rows, 80.0, 13.0) == []
    ratios = checks.paper_ratios(_table_rows())
    assert ratios["svrg"] == pytest.approx((0.45 / 0.542, 64.0 / 96.25))


@pytest.mark.parametrize("index,field,value", [
    (0, "error", "ValueError: step too large"),
    (1, "e_at_kstar", "13.0"),      # no progress from the initial error
    (0, "e_at_kstar", "nan"),
    (0, "kstar", "0.0"),
    (1, "kstar", "81.0"),           # past the horizon
])
def test_table_rejects_wrong_cells(index, field, value):
    rows = _table_rows()
    rows[index][field] = value
    assert checks.check_table(rows, 80.0, 13.0)


def test_table_rejects_missing_method():
    assert checks.check_table(_table_rows()[:1], 80.0, 13.0)


# ---------------------------------------------------------------------------
# rate

EPS = (5e-2, 1e-2, 1e-3)
DELTAS = {5e-2: 0.7, 1e-2: 0.14, 1e-3: 0.014}
HORIZON = 12000.0
EPOCHS = np.linspace(0.0, HORIZON, 12001)
EXACT_STOPS = {5e-2: (0.2, 500.0), 1e-2: (0.06, 2000.0), 1e-3: (0.008, 4300.0)}


def _exact_curves(stops=EXACT_STOPS):
    """Exact-like error curves: minimum e at epoch k, 1% higher 10% away."""
    return {eps: (EPOCHS, e * (1.0 + ((EPOCHS - k) / k) ** 2))
            for eps, (e, k) in stops.items()}


def _rate_rows(stops=EXACT_STOPS, se=1e-6):
    rows = [_row("svrg", eps, e, k) for eps, (e, k) in stops.items()]
    for row in rows:
        row["standard_error"] = repr(se)
    return rows


def test_rate_slope_recovers_a_power_law():
    es = [d ** 0.75 for d in DELTAS.values()]
    assert checks.rate_slope(list(DELTAS.values()), es) == pytest.approx(1.5)


def test_rate_accepts_the_exact_stops():
    assert checks.check_rate(_rate_rows(), HORIZON, _exact_curves()) == []
    # a stop at the last checkpoint, where the exact error is still falling
    stops = dict(EXACT_STOPS)
    stops[1e-3] = (0.008, HORIZON + 0.008)
    assert checks.check_rate(_rate_rows(stops), HORIZON,
                             _exact_curves(stops)) == []
    # e not decreasing with epsilon, as on some noise realizations
    stops = dict(EXACT_STOPS)
    stops[1e-2] = (0.3, 2000.0)
    assert checks.check_rate(_rate_rows(stops), HORIZON,
                             _exact_curves(stops)) == []


def _moved(eps, e=None, k=None):
    rows = _rate_rows()
    row = rows[EPS.index(eps)]
    if e is not None:
        row["e_at_kstar"] = repr(e)
    if k is not None:
        row["kstar"] = repr(k)
    return rows


@pytest.mark.parametrize("rows", [
    _moved(5e-2, e=0.202),             # 1% off the exact stopping error
    _moved(1e-3, e=0.0),
    _moved(1e-2, k=2500.0),            # exact error 6% above its minimum
    _moved(1e-2, k=0.0),
    _moved(1e-3, k=HORIZON + 1.0),     # past the horizon
    _rate_rows()[:2],                  # a noise level missing
])
def test_rate_rejects_wrong_rows(rows):
    assert checks.check_rate(rows, HORIZON, _exact_curves())


def test_rate_rejects_recorded_errors():
    rows = _rate_rows()
    rows[2]["error"] = "1 runs diverged"
    assert checks.check_rate(rows, HORIZON, _exact_curves())


def test_exact_curve_ignores_preconditioning():
    """The rate reference computes the exact curve on the raw instance with
    c = 1 / |A|_2^2; preconditioning must leave both unchanged."""
    inst, y, _ = _tiny_problem()
    pinst, py = precondition(inst, y)
    c = 1.0 / np.linalg.norm(np.asarray(inst.a), 2) ** 2
    assert step_constant(pinst.a) == pytest.approx(c, rel=1e-12)
    iters = np.arange(0, 3000, 2)   # several chunks
    raw = checks.exact_bias_sq(inst.a, inst.x_dag, inst.x0, y, c / 2, iters)
    rotated = checks.exact_bias_sq(pinst.a, pinst.x_dag, pinst.x0, py, c / 2,
                                   iters)
    np.testing.assert_allclose(rotated, raw, rtol=1e-9)
    np.testing.assert_array_equal(
        checks.exact_bias_sq(inst.a, inst.x_dag, inst.x0, y, c / 2,
                             iters[::500]), raw[::500])


# ---------------------------------------------------------------------------
# figure

def _tiny_problem(seed=3, n=6, m=4):
    rng = np.random.default_rng(seed)
    inst = make_instance("tiny", rng.normal(size=(n, m)), rng.normal(size=m))
    y = add_noise(inst, 5e-2, seed).y
    return inst, y, 0.5 * step_constant(inst.a)


def test_exact_bias_matches_the_closed_form_mean():
    inst, y, c0 = _tiny_problem()
    zeta = noise_functional(inst, y)
    ks = np.array([0, 1, 5, 40])
    got = checks.exact_bias_sq(inst.a, inst.x_dag, inst.x0, y, c0, ks)
    for k, value in zip(ks, got):
        mean = closed_form_mean(inst.gram, inst.x0 - inst.x_dag, zeta, c0, 1,
                                int(k))
        assert value == pytest.approx(float(mean @ mean), rel=1e-10)


RUNS, N_ROWS = 100, 6


def _figure_curves():
    """Curves consistent with the exact bias: sampled bias at its expected
    value, svrg variance a hundredth of sgd's."""
    inst, y, c0 = _tiny_problem()
    iters = np.arange(0, 4000, 100, dtype=np.float64)
    exact = checks.exact_bias_sq(inst.a, inst.x_dag, inst.x0, y, c0, iters)
    curves = {}
    for method, scale in (("svrg", 1e-6), ("sgd", 1e-4)):
        var = scale * (1.0 - np.exp(-iters / 500.0))
        bias = exact + var / (RUNS - 1)
        curves[method] = {"iteration": iters, "bias_sq": bias,
                          "variance": var, "mse": bias + var}
    return curves, {m: exact for m in curves}


def _check_figure(curves, exact):
    return checks.check_figure(curves, exact, RUNS, N_ROWS,
                               [_row("svrg", 1e-3, 0.1, 10.0),
                                _row("sgd", 1e-3, 0.1, 10.0)])


def test_figure_accepts_consistent_curves():
    assert _check_figure(*_figure_curves()) == []


def test_figure_rejects_swapped_variances():
    curves, exact = _figure_curves()
    curves["svrg"], curves["sgd"] = curves["sgd"], curves["svrg"]
    assert _check_figure(curves, exact)


def test_figure_rejects_a_small_final_ratio():
    curves, exact = _figure_curves()
    curves["sgd"]["variance"] = 5.0 * curves["svrg"]["variance"]
    curves["sgd"]["mse"] = curves["sgd"]["bias_sq"] + curves["sgd"]["variance"]
    assert _check_figure(curves, exact)


def test_figure_rejects_a_broken_mse_split():
    curves, exact = _figure_curves()
    curves["svrg"]["mse"] = curves["svrg"]["mse"] * (1 + 1e-9)
    assert _check_figure(curves, exact)


def test_figure_rejects_a_wrong_bias():
    curves, exact = _figure_curves()
    curves["sgd"]["bias_sq"] = 1.05 * curves["sgd"]["bias_sq"]
    curves["sgd"]["mse"] = curves["sgd"]["bias_sq"] + curves["sgd"]["variance"]
    assert _check_figure(curves, exact)


def test_figure_rejects_a_missing_method():
    curves, exact = _figure_curves()
    del curves["sgd"]
    assert _check_figure(curves, exact)


# ---------------------------------------------------------------------------
# oracles

@pytest.mark.parametrize("method", ["sgd", "svrg"])
def test_brute_force_matches_enumeration(method):
    inst, y, c0 = _tiny_problem(seed=5, n=3, m=2)
    weights = checks.weight_matrices(inst.a, c0)
    shifts = checks.shift_vectors(inst.a, y, inst.x_dag)
    mean, values = checks.brute_force_moments(
        inst.a, y, inst.x_dag, inst.x0, c0, 2, 2, method, weights, shifts)
    enum = enumerate_exact_moments(inst, y, c0, 2, 2, method)
    assert checks.relative_gap(mean, enum.mean) <= checks.EXACT_TOL
    for (r1, r2), value in values.items():
        ref = enumerate_weighted_second_moment(inst, y, c0, 2, 2, method,
                                               r1=r1, r2=r2)
        assert checks.relative_gap(value, ref) <= checks.EXACT_TOL
    # the wrong step gives different moments
    wrong, _ = checks.brute_force_moments(
        inst.a, y, inst.x_dag, inst.x0, 0.9 * c0, 2, 2, method, {}, {})
    assert checks.check_agreement("mean", [("tiny", wrong, enum.mean, 0.0)])


def test_agreement_flags_a_gap_above_tolerance():
    ref = np.array([1.0, 2.0])
    assert checks.check_agreement("x", [("a", ref * (1 + 1e-13), ref, 0.0)]) == []
    assert checks.check_agreement("x", [("a", ref * (1 + 1e-10), ref, 0.0)])
    # a gap measured against the size of the summed terms
    assert checks.check_agreement("x", [("a", 1.0 + 1e-9, 1.0, 1e4)]) == []
    assert checks.check_agreement("x", [("a", 1.0 + 1e-7, 1.0, 1e4)])


def test_moment_scale_is_the_moment_without_weights_or_shift():
    assert checks.moment_scale(np.eye(3), np.zeros(3), 7.0) == pytest.approx(7.0)
    assert checks.moment_scale(2.0 * np.eye(2), np.array([3.0, 4.0]), 1.0) \
        == pytest.approx(29.0)


def test_margins_flag_a_reversed_ordering_and_a_failed_condition():
    assert checks.check_margins([0.1, 0.0, -1e-13], [True, True]) == []
    assert checks.check_margins([0.1, -1e-9], [True])
    assert checks.check_margins([0.1], [True, False])


def test_suite_check_reads_the_exit_code_and_report(tmp_path):
    report = tmp_path / "report.json"
    report.write_text('{"passed": true, "failed_checks": [], '
                      '"checks": [{"name": "a"}]}')
    assert checks.check_suite(0, report) == []
    assert checks.check_suite(2, report)
    assert checks.check_suite(0, tmp_path / "missing.json")
    report.write_text('{"passed": false, "failed_checks": ["a"], '
                      '"checks": [{"name": "a"}]}')
    assert checks.check_suite(0, report)


# ---------------------------------------------------------------------------
# the description in BENCHMARK.json matches what run.py prints

def test_benchmark_json_lists_what_the_runs_report():
    import json

    import tracing
    import workloads
    root = Path(__file__).resolve().parents[1]
    doc = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "op_s", "grad_evals_per_s", "peak_rss_mib"}
