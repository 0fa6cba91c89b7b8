"""The `verify` suite driver: one table of named checks.

Each report entry takes its name and softness from the tables in
`stochreg.verify`, whether the check returned or crashed.
"""

import math

import numpy as np
import pytest

from stochreg import verify
from stochreg.analysis import ErrorCurves
from stochreg.problems import add_noise, generate, smooth_solution
from stochreg.solvers import SolverConfig
from stochreg.spectral import KernelBoundReport, step_constant

REPORT_NAMES = [
    "propagator-range", "spectral-kernel-bounds", "step-sum-identity",
    "row-commutation", "centering-factor", "exact-data-fixed-point",
    "epoch-recursion", "inner-term-orthogonality", "mean-closed-form",
    "bias-method-equality", "anchored-decomposition",
    "unanchored-decomposition", "variance-ordering", "mc-consistency",
    "noise-scale-concentration",
    # full level only
    "error-bound-monte-carlo", "residual-bound-monte-carlo",
    "variance-ordering-midsize", "smoothness-saturation", "rate-slope",
    "phillips-benchmark-bands",
]


def _stub_tables(monkeypatch, make_check):
    """Replace every table check by make_check(report name)."""
    for table in ("FAST_CHECKS", "FULL_CHECKS"):
        monkeypatch.setattr(verify, table, [
            (name, make_check(name)) for name, _ in getattr(verify, table)])


def test_report_names_are_unique_and_in_order():
    names = [name for name, _ in verify.FAST_CHECKS + verify.FULL_CHECKS]
    assert names == REPORT_NAMES
    assert len(set(names + ["fast-wallclock"])) == len(names) + 1


def test_a_crashed_check_keeps_its_table_name(monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("solver down")
    monkeypatch.setattr(verify, "solve", broken)
    report = verify.run_suite("fast")
    assert report["passed"] is False
    assert report["failed_checks"] == ["exact-data-fixed-point"]
    entry = next(e for e in report["checks"]
                 if e["name"] == "exact-data-fixed-point")
    assert entry["passed"] is False and entry["soft"] is False
    assert entry["margin"] == -1e308
    assert entry["detail"] == "RuntimeError: solver down"
    assert ([e["name"] for e in report["checks"]]
            == REPORT_NAMES[:15] + ["fast-wallclock"])


def test_soft_is_set_only_for_the_soft_checks(monkeypatch):
    _stub_tables(monkeypatch, lambda name: lambda: (False, -1.0, "stub"))
    full = verify.run_suite("full")
    fast = verify.run_suite("fast")
    soft = {e["name"] for e in full["checks"] + fast["checks"] if e["soft"]}
    assert soft == {"smoothness-saturation", "fast-wallclock"}
    assert full["failed_checks"] == [name for name in REPORT_NAMES
                                     if name != "smoothness-saturation"]
    assert fast["failed_checks"] == REPORT_NAMES[:15]


def test_a_crashed_soft_check_never_fails_the_suite(monkeypatch):
    def make_check(name):
        def check():
            if name == "smoothness-saturation":
                raise RuntimeError("diverged")
            return True, 1.0, "stub"
        return check
    _stub_tables(monkeypatch, make_check)
    report = verify.run_suite("full")
    assert report["passed"] is True
    entry = next(e for e in report["checks"]
                 if e["name"] == "smoothness-saturation")
    assert entry["passed"] is False and entry["soft"] is True
    assert entry["detail"] == "RuntimeError: diverged"


def test_fixed_point_margin_prints_as_a_positive_zero():
    passed, margin, _ = verify.check_fixed_point()
    assert passed is True
    assert margin == 0.0 and math.copysign(1.0, margin) == 1.0
    assert f"{margin:+.3e}" == "+0.000e+00"


def test_kernel_bounds_margin_is_not_negative_when_passing():
    passed, margin, detail = verify.check_kernel_bounds()
    assert passed is True and margin >= 0.0
    assert detail.startswith("0 failures over 804 sweep cases; "
                             "smallest bound slack ")


@pytest.mark.parametrize("excess,passed", [
    (0.0, True), (5e-13, True), (2e-12, False), (1e-6, False)])
def test_kernel_bounds_margin_sign_follows_the_failures(monkeypatch, excess,
                                                        passed):
    # every case reports lhs = rhs (1 + excess) on the power bound, with the
    # pass rule of kernel_bound_check: room up to a relative 1e-12
    def report(*_args, **_kwargs):
        lhs = 1.0 + excess
        return KernelBoundReport(lhs, 1.0, 0.5, 1.0,
                                 lhs <= 1.0 + verify.BOUND_RTOL)

    monkeypatch.setattr(verify, "kernel_bound_check", report)
    ok, margin, detail = verify.check_kernel_bounds()
    assert ok is passed
    assert (margin >= 0.0) is passed
    failures = 0 if passed else 804
    assert detail == (f"{failures} failures over 804 sweep cases; "
                      f"smallest bound slack {1.0 - (1.0 + excess):.3e}")


def test_phillips_check_runs_its_cell_through_the_worker_runner(monkeypatch):
    # the grid's runner gets the 100-run cell as one group; canned curves
    # stand in for the 6 s of its runs
    seen = []

    def runner(groups, runs, moments=False):
        seen.append((groups, runs, moments))
        ((_, cfg, _, _),) = groups
        error_sq = np.tile([1.0, 0.5**2, 1.0], (runs, 1))
        yield ErrorCurves(method=cfg.method, epochs=np.array([0.0, 96.0, 192.0]),
                          iterations=np.arange(3), error_sq=error_sq,
                          residual_sq=None, excluded_runs=())

    monkeypatch.setattr(verify, "run_groups", runner)
    passed, margin, detail = verify.check_phillips_benchmark()
    assert passed and margin > 0
    assert "e at stop 5.000e-01" in detail and "stop epoch 96.00" in detail
    ((groups, runs, moments),) = seen
    assert runs == 100 and not moments
    ((inst, cfg, ys, seeds),) = groups
    expected = smooth_solution(generate("s-phillips", 1000), 0.0)
    assert inst.a.tobytes() == expected.a.tobytes()
    assert ys.tobytes() == add_noise(expected, 5e-2, seed=180).y[None].tobytes()
    assert cfg == SolverConfig(method="svrg", c0=5.0 * step_constant(inst.a)
                               / 100.0, max_epochs=250.0, M=100, seed=181)
    assert list(seeds) == [181]
