"""One BLAS thread wherever the program computes a result: the bits of a
grid and of ``solve`` do not depend on the caller's BLAS thread count, the
caller gets its count back, and forked workers inherit the one thread."""

import os
import subprocess
import sys

import pytest

import stochreg
from stochreg import experiment, solvers, verify
from stochreg.experiment import ExperimentSpec, MethodPlan, run_grid
from stochreg.problems import add_noise, generate
from stochreg.solvers import SolverConfig, one_blas_thread, solve
from stochreg.spectral import step_constant

from recorders import CallLog


@pytest.fixture
def blas_threads():
    """The BLAS's (set, get), with the test process at two BLAS threads; the
    count it had is restored after the test."""
    functions = solvers.blas_thread_functions()
    if functions is None:
        pytest.skip("no BLAS thread setter found")
    set_threads, get_threads = functions
    saved = get_threads()
    try:
        set_threads(2)
        if get_threads() < 2:
            pytest.skip("the BLAS reports fewer than two threads when asked "
                        "for two")
        yield set_threads, get_threads
    finally:
        set_threads(saved)


def table_cell_spec():
    # the paper's table cell (s-phillips, m = 1000) at 2 runs and 2 epochs,
    # where one and two BLAS threads give different products
    return ExperimentSpec(
        problem="s-phillips", n=1000, nu=(0.0,), epsilon=(5e-2,),
        methods=(MethodPlan("svrg", "5*c/M", "100"),
                 MethodPlan("sgd", "4*c/n")),
        runs=2, max_epochs=2.0)


def one_trajectory():
    inst = generate("s-phillips", 1000)
    y = add_noise(inst, 5e-2, 11).y
    cfg = SolverConfig(method="svrg", c0=5 * step_constant(inst.a) / 100,
                       max_epochs=2.0, M=100, seed=3)
    return solve(inst, y, cfg).error_sq


def test_the_caller_s_blas_threads_change_no_bit_and_are_restored(
        blas_threads, monkeypatch):
    set_threads, get_threads = blas_threads
    monkeypatch.setenv("STOCHREG_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    set_threads(1)
    rows = [o.row for o in run_grid(table_cell_spec())]
    error_sq = one_trajectory()
    assert get_threads() == 1
    set_threads(2)
    assert [o.row for o in run_grid(table_cell_spec())] == rows
    assert all(row[-1] == "" for row in rows)
    assert get_threads() == 2
    assert one_trajectory().tobytes() == error_sq.tobytes()
    assert get_threads() == 2
    assert verify.run_suite("fast")["passed"]
    assert get_threads() == 2


def test_forked_workers_run_at_one_blas_thread(blas_threads, monkeypatch):
    _, get_threads = blas_threads
    monkeypatch.setenv("STOCHREG_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, log, curves = os.getpid(), CallLog(), experiment.error_curves

    def logged(*args, **kwargs):
        # read before run_batch enters the pin itself
        log.append((os.getpid() != parent, get_threads()))
        return curves(*args, **kwargs)

    monkeypatch.setattr(experiment, "error_curves", logged)
    run_grid(table_cell_spec())  # two one-slice groups on two workers
    assert log.drain() == [(True, 1), (True, 1)]
    assert get_threads() == 2


def test_one_blas_thread_nests_and_restores_the_caller_s_count(blas_threads):
    set_threads, get_threads = blas_threads
    set_threads(3)
    with one_blas_thread():
        assert get_threads() == 1
        with one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == 1  # the inner exit leaves the pin held
    assert get_threads() == 3
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("a failed computation")
    assert get_threads() == 3


def test_the_blas_thread_setter_is_looked_up_on_first_use():
    code = ("import stochreg; from stochreg import solvers; "
            "print(solvers.blas_thread_functions.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochreg.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"
