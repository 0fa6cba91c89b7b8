"""Grid specs, the step/inner-loop grammar, and deterministic execution."""

import functools
import json
import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from stochreg import analysis, experiment, solvers
from stochreg.analysis import (ErrorCurves, error_curves, mc_moments,
                               stopping_stats)
from stochreg.experiment import (ExperimentSpec, MethodPlan, RESULT_HEADER,
                                 FIGURE_HEADER, load_spec, parse_c0_expr,
                                 parse_m_expr, parse_rational,
                                 run_experiment, run_grid,
                                 run_precondition_study, spec_from_dict,
                                 spec_to_dict, thread_count)
from stochreg.fileio import read_csv
from stochreg.problems import (ProblemInstance, add_noise, generate,
                               precondition, smooth_solution)
from stochreg.solvers import (EpochAccounting, SolverConfig,
                              checkpoint_iterations, run_batch)
from stochreg.spectral import step_constant

from recorders import CallLog, SummingRecorder


# --- grammar -------------------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("5", 5.0), ("0.1", 0.1), ("1/2", 0.5), (" 3 / 4 ", 0.75), ("5e-2", 0.05),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("bad", ["", "c", "1/2/3", "one", "1/0", "0/0", "inf",
                                 "-inf", "nan", "1e400", "1e300/1e-300"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("expr,n,value", [
    (None, 10, 1), ("7", 10, 7), (7, 10, 7), ("1/10*n", 100, 10),
    ("0.25*n", 16, 4), (7.0, 10, 7), ("7.0", 10, 7), ("0.26*n", 10, 3),
])
def test_parse_m_expr(expr, n, value):
    assert parse_m_expr(expr, n) == value


@pytest.mark.parametrize("bad", [2.6, "2.6", "5/2", 0.5])
def test_parse_m_expr_rejects_a_fractional_literal(bad):
    with pytest.raises(ValueError, match="not an integer"):
        parse_m_expr(bad, 10)


def test_parse_m_expr_rejects():
    with pytest.raises(ValueError):
        parse_m_expr("0*n", 10)
    with pytest.raises(ValueError):
        parse_m_expr("n*2", 10)


@pytest.mark.parametrize("bad", ["1/0", "1/0*n", "inf", "1e400", "inf*n",
                                 "1e308*n", float("inf"), json.loads("1e400")])
def test_parse_m_expr_rejects_unbounded(bad):
    with pytest.raises(ValueError):
        parse_m_expr(bad, 10)


@pytest.mark.parametrize("expr,c,M,n,value", [
    ("5*c/M", 0.2, 5, 100, 0.2),
    ("4*c/n", 0.5, 1, 8, 0.25),
    ("3*c", 0.1, 1, 4, 0.3),
    ("1/2*c/M", 1.0, 4, 9, 0.125),
    ("0.125", 0.7, 3, 5, 0.125),
    (0.25, 0.7, 3, 5, 0.25),
])
def test_parse_c0_expr(expr, c, M, n, value):
    assert parse_c0_expr(expr, c, M, n) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("bad", ["c/M*5", "-1*c", "0", "five*c", "1/0*c",
                                 "1/0", "inf*c", "1e400*c/M"])
def test_parse_c0_expr_rejects(bad):
    with pytest.raises(ValueError):
        parse_c0_expr(bad, 0.1, 2, 4)


# --- spec construction ----------------------------------------------------------

def small_spec(**overrides):
    doc = {
        "problem": "s-shaw", "n": 16, "nu": [0.0, 1.0], "epsilon": [1e-2],
        "methods": [{"method": "sgd", "c0": "1/2*c"},
                    {"method": "landweber"}],
        "runs": 3, "max_epochs": 5.0, "base_seed": 11,
    }
    doc.update(overrides)
    return spec_from_dict(doc)


def test_spec_from_dict_roundtrip():
    spec = small_spec()
    assert spec.problem == "s-shaw" and spec.nu == (0.0, 1.0)
    assert spec.methods[0].c0_expr == "1/2*c"
    again = spec_from_dict(spec_to_dict(spec))
    assert again == spec


def test_spec_rejects_unknown_keys():
    for key in ("extra_knob", "resample_noise"):
        with pytest.raises(ValueError, match="unknown experiment keys"):
            small_spec(**{key: True})
    with pytest.raises(ValueError, match="unknown method keys"):
        small_spec(methods=[{"method": "sgd", "c0": "1*c", "step": 2}])


def test_spec_requires_core_fields():
    with pytest.raises(ValueError, match="missing"):
        spec_from_dict({"problem": "s-shaw", "n": 8})


def test_spec_validates_values():
    with pytest.raises(ValueError):
        small_spec(nu=[-1.0])
    with pytest.raises(ValueError):
        small_spec(epsilon=[])
    with pytest.raises(ValueError):
        small_spec(runs=0)
    with pytest.raises(ValueError, match="needs a step"):
        small_spec(methods=[{"method": "svrg"}])
    with pytest.raises(ValueError, match="step expression"):
        small_spec(methods=[{"method": "sgd", "c0": "bogus"}])
    with pytest.raises(ValueError, match="step expression"):
        small_spec(methods=[{"method": "sgd", "c0": "1/0*c"}])
    for m_expr in ("1/0", json.loads("1e400"), json.loads("true")):
        with pytest.raises(ValueError, match="inner-loop expression"):
            small_spec(methods=[{"method": "svrg", "c0": "1/2*c",
                                 "M": m_expr}])
    # integers must be integral, numbers JSON numbers and flags boolean;
    # nothing is rounded or cast
    for key, value in (("n", 8.9), ("runs", 2.7), ("runs", True),
                       ("base_seed", 1.5), ("precondition", "false"),
                       ("nu", [True]), ("epsilon", ["1e-2"]),
                       ("max_epochs", True),
                       ("max_epochs", json.loads("Infinity"))):
        with pytest.raises(ValueError, match=key):
            small_spec(**{key: value})
    assert small_spec(n=16.0).n == 16


def test_seed_derivation_is_positional():
    spec = small_spec()
    assert spec.noise_seed(0, 0) == 11 + 7919
    assert spec.noise_seed(1, 0) == 11 + 7919 * 2
    assert spec.solver_seed(0) == 11 + 104729
    assert spec.solver_seed(3) == 11 + 104729 * 4
    assert len(spec.cells) == 4  # 2 nu x 1 eps x 2 methods


def test_load_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(small_spec())))
    assert load_spec(path) == small_spec()


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("STOCHREG_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("STOCHREG_THREADS", "0")
    assert thread_count() == 1
    monkeypatch.setenv("STOCHREG_THREADS", "two")
    with pytest.raises(ValueError):
        thread_count()
    monkeypatch.delenv("STOCHREG_THREADS")
    assert thread_count() >= 1


# --- grid execution --------------------------------------------------------------

def test_grid_produces_one_row_per_cell(tmp_path):
    spec = small_spec()
    out = tmp_path / "table.csv"
    rows = run_experiment(spec, out)
    assert len(rows) == 4
    header, parsed = read_csv(out)
    assert header == RESULT_HEADER
    for row in parsed:
        assert row[RESULT_HEADER.index("error")] == ""  # no cell failed
        assert row[RESULT_HEADER.index("e_at_kstar")] > 0
    meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
    assert meta["kind"] == "experiment_meta"
    assert "kstar" in meta["kstar_convention"]


def test_landweber_cell_conventions(tmp_path):
    spec = small_spec(nu=[0.0])
    rows = run_experiment(spec, tmp_path / "t.csv")
    lm = [r for r in rows if r[3] == "landweber"][0]
    assert lm[RESULT_HEADER.index("c0_expr")] == "auto"
    # one deterministic descent step per epoch, so kstar is an integer
    assert lm[RESULT_HEADER.index("kstar")] == float(
        lm[RESULT_HEADER.index("kstar_rounded")])
    # deterministic method: spread across runs is pure roundoff
    assert lm[RESULT_HEADER.index("standard_error")] < 1e-12


def test_failing_cell_is_isolated(tmp_path):
    spec = small_spec(methods=[{"method": "sgd", "c0": "1/2*c"},
                               {"method": "svrg", "c0": "50*c", "M": "4"}])
    rows = run_experiment(spec, tmp_path / "t.csv")
    good = [r for r in rows if r[3] == "sgd"]
    bad = [r for r in rows if r[3] == "svrg"]
    assert all(r[-1] == "" for r in good)
    assert all("stability bound" in r[-1] for r in bad)
    assert all("," not in r[-1] for r in bad)  # CSV stays one cell per column


@pytest.fixture
def forked(monkeypatch):
    """Grids run on forked worker processes, as on a host of four cores at
    one BLAS thread each, whatever this host has."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


@pytest.mark.parametrize("env,cores,threads,workers", [
    ({}, 4, "4", 1),  # every core is a BLAS thread: in-process
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, "4", 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, "2", 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, "4", 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 4, "4", 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 2, "4", 1),
    ({"OMP_NUM_THREADS": "1"}, 2, "4", 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, "4", 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, "2", 2),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, "4", 2),
])
def test_worker_budget_leaves_the_blas_threads_their_cores(
        monkeypatch, env, cores, threads, workers):
    # the BLAS threads come from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
    # as OpenBLAS reads them, else one per core
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("STOCHREG_THREADS", threads)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    assert experiment.worker_budget() == workers
    monkeypatch.setattr(experiment.sys, "platform", "darwin")
    assert experiment.worker_budget() == 1


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch, forked):
    # four groups of one slice: in-process on one worker, on three workers
    # in the other run
    spec = small_spec()
    blobs = {}
    for workers in ("1", "3"):
        monkeypatch.setenv("STOCHREG_THREADS", workers)
        out = tmp_path / f"t{workers}.csv"
        run_experiment(spec, out)
        blobs[workers] = out.read_bytes()
    assert blobs["1"] == blobs["3"]


def test_map_slices_yields_in_order_and_raises_what_a_worker_raised():
    parent = os.getpid()

    def run(index):
        if index == 3:
            raise ValueError("slice 3 failed")
        return index * index, os.getpid() != parent

    squares = [(k * k, True) for k in range(3)]
    assert list(experiment._map_slices(run, 3, 2)) == squares
    assert list(experiment._map_slices(run, 3, 1)) == [
        (k * k, False) for k in range(3)]
    with pytest.raises(ValueError, match="slice 3 failed"):
        list(experiment._map_slices(run, 6, 2))
    results = experiment._map_slices(run, 6, 3)
    assert next(results) == (0, True)
    results.close()  # stopped early: the workers still running are ended
    assert multiprocessing.active_children() == []


def test_a_two_worker_grid_leaves_no_worker_behind(tmp_path, monkeypatch,
                                                    forked):
    # the calling thread receives the slices' results: no thread is started
    monkeypatch.setenv("STOCHREG_THREADS", "2")
    parent, pids, batch = os.getpid(), CallLog(), analysis.run_batch
    threads, outcome_of = [], experiment._cell_outcome

    def recording(*args):
        pids.append(os.getpid())
        return batch(*args)

    def counting_threads(*args):
        threads.append(threading.active_count())
        return outcome_of(*args)

    monkeypatch.setattr(analysis, "run_batch", recording)
    monkeypatch.setattr(experiment, "_cell_outcome", counting_threads)
    before = threading.active_count()
    rows = run_experiment(small_spec(), tmp_path / "t.csv")
    assert all(row[-1] == "" for row in rows)
    assert threads == [before] * len(rows)
    # four groups of one slice, dealt round-robin to the two workers
    ran_in = set(pids.drain())
    assert parent not in ran_in and len(ran_in) == 2
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_and_leaves_no_child(monkeypatch, forked):
    monkeypatch.setenv("STOCHREG_THREADS", "2")
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)

    monkeypatch.setattr(analysis, "run_batch", dying)
    with pytest.raises(ChildProcessError, match="died with exit code 1"):
        run_grid(small_spec())
    assert multiprocessing.active_children() == []


def test_a_one_slice_cell_joins_with_no_copy(tmp_path, monkeypatch):
    # one group of two cells in one slice: each cell's curves are its part
    # of the slice's, with no copy of the error curves
    monkeypatch.setenv("STOCHREG_THREADS", "1")
    made, joined = [], []
    curves_of, outcome_of = experiment.error_curves, experiment._cell_outcome

    def recording_curves(*args, **kwargs):
        made.append(curves_of(*args, **kwargs))
        return made[-1]

    def recording_outcome(spec_, cell, curves, figure_grid):
        joined.append(curves)
        return outcome_of(spec_, cell, curves, figure_grid)

    monkeypatch.setattr(experiment, "error_curves", recording_curves)
    monkeypatch.setattr(experiment, "_cell_outcome", recording_outcome)
    spec = small_spec(nu=[0.0], epsilon=[5e-2, 1e-2],
                      methods=[{"method": "sgd", "c0": "1/2*c"}])
    rows = run_experiment(spec, tmp_path / "t.csv")
    assert all(row[-1] == "" for row in rows)
    (parts,) = made
    assert len(parts) == len(joined) == 2
    for part, curves in zip(parts, joined):
        assert curves is part
        assert np.shares_memory(curves.error_sq, part.error_sq)


@pytest.mark.parametrize("rotate", [False, True], ids=["dense", "diagonal"])
def test_method_groups_share_one_row_gram(tmp_path, monkeypatch, forked,
                                          rotate):
    # the sgd, svrg and landweber groups of one instance run on two worker
    # processes; K = A A^T and the selection of its diagonal are built once,
    # in the test process before the workers fork, and every kernel reads
    # them: the diagonal form on preconditioned rows, K itself on raw rows.
    # A worker inherits the address space, so it sees them at their ids.
    monkeypatch.setenv("STOCHREG_THREADS", "2")
    parent = os.getpid()
    built = {"row_gram": CallLog(), "row_gram_diagonal": CallLog()}
    seen = CallLog()
    for name, calls in built.items():
        build = getattr(ProblemInstance, name).func

        def recording_build(inst, build=build, calls=calls):
            calls.append(os.getpid() == parent)
            return build(inst)

        prop = functools.cached_property(recording_build)
        prop.__set_name__(ProblemInstance, name)
        monkeypatch.setattr(ProblemInstance, name, prop)
    init = solvers.Lockstep.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append((os.getpid() != parent, id(self.k),
                     None if self.kd is None else id(self.kd)))

    monkeypatch.setattr(solvers.Lockstep, "__init__", recording_init)
    instances = _grid_instances(monkeypatch)
    spec = small_spec(nu=[0.0], precondition=rotate,
                      methods=[{"method": "sgd", "c0": "1/2*c"},
                               {"method": "svrg", "c0": "1/2*c", "M": "4"},
                               {"method": "landweber"}])
    rows = run_experiment(spec, tmp_path / "t.csv")
    assert all(row[-1] == "" for row in rows)
    assert {name: calls.drain() for name, calls in built.items()} == {
        "row_gram": [True], "row_gram_diagonal": [True]}
    seen = seen.drain()
    assert len(seen) == 3
    (inst,) = instances
    kd = inst.row_gram_diagonal
    assert all(entry == (True, id(inst.row_gram),
                         None if kd is None else id(kd)) for entry in seen)
    assert (seen[0][2] is not None) == rotate


def _grid_instances(monkeypatch) -> list:
    """The instances the next grid runs on, recorded as they are prepared."""
    seen = []
    prepare = experiment._prepare_cells

    def recording(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        seen.extend(inst for inst, _, _ in prepared.values())
        return prepared

    monkeypatch.setattr(experiment, "_prepare_cells", recording)
    return seen


@pytest.mark.parametrize("rotate", [False, True], ids=["raw", "preconditioned"])
def test_stochastic_grids_build_no_gram(tmp_path, monkeypatch, rotate):
    # an sgd or svrg step is checked against the row bound alone, so no
    # instance of the grid builds B = A^T A / n or its eigendecomposition
    seen = _grid_instances(monkeypatch)
    spec = small_spec(nu=[0.0, 1.0], precondition=rotate,
                      methods=[{"method": "sgd", "c0": "1/2*c"},
                               {"method": "svrg", "c0": "1/2*c", "M": "4"}])
    rows = run_experiment(spec, tmp_path / "t.csv")
    assert len(rows) == 4 and all(row[-1] == "" for row in rows)
    assert len(seen) == 2
    assert all("gram" not in inst.__dict__ for inst in seen)


def test_landweber_auto_step_builds_the_gram(tmp_path, monkeypatch):
    seen = _grid_instances(monkeypatch)
    spec = small_spec(nu=[0.0], methods=[{"method": "landweber"}])
    rows = run_experiment(spec, tmp_path / "t.csv")
    assert len(rows) == 1 and rows[0][-1] == ""
    assert len(seen) == 1 and "gram" in seen[0].__dict__


def test_figure_outputs_share_iteration_grid(tmp_path):
    spec = small_spec(
        nu=[1.0], runs=4, max_epochs=6.0,
        methods=[{"method": "svrg", "c0": "1/2*c/M", "M": "4"},
                 {"method": "sgd", "c0": "1/4*c", "M": "4"}])
    figdir = tmp_path / "fig"
    run_experiment(spec, tmp_path / "t.csv", figure_dir=figdir)
    files = sorted(figdir.iterdir())
    assert len(files) == 2
    grids = {}
    for path in files:
        header, rows = read_csv(path)
        assert header == FIGURE_HEADER
        arr = np.array(rows, dtype=float)
        epochs, iters, bias, var, mse = arr.T
        np.testing.assert_allclose(mse, bias + var, rtol=1e-12)
        grids[path.name] = set(int(i) for i in iters)
    a, b = grids.values()
    shared = a & b
    assert len(shared) >= 4  # a usable common grid beyond the endpoints


def test_figure_mode_guards(tmp_path):
    with pytest.raises(ValueError, match="two runs"):
        run_experiment(small_spec(runs=1), tmp_path / "t.csv",
                       figure_dir=tmp_path / "fig")


def test_precondition_study_pairs_rows(tmp_path):
    # the shared step must clear the rotated-side stability bound too, so it
    # sits well below the raw step unit
    spec = small_spec(nu=[1.0], runs=4, max_epochs=8.0,
                      methods=[{"method": "sgd", "c0": "1/8*c"}])
    out = tmp_path / "pairs.csv"
    rows, max_gap = run_precondition_study(spec, out)
    assert [r[0] for r in rows] == ["raw", "preconditioned"]
    assert all(r[-1] == "" for r in rows)
    # rotating the data space is cosmetic for the error at the stop index
    assert max_gap < 0.25
    header, parsed = read_csv(out)
    assert header == ["variant"] + RESULT_HEADER
    meta = json.loads((tmp_path / "pairs.csv.meta.json").read_text())
    assert meta["pairs"] == 1 and meta["max_relative_e_gap"] == max_gap


def test_run_grid_reports_outcomes_in_order():
    spec = small_spec(runs=2, max_epochs=2.0)
    outcomes = run_grid(spec)
    labels = [(o.row[1], o.row[3]) for o in outcomes]
    assert labels == [(0.0, "sgd"), (0.0, "landweber"),
                      (1.0, "sgd"), (1.0, "landweber")]


# --- one pass per figure cell ----------------------------------------------------

def error_row(spec, cell_index, message):
    i_nu, i_eps, _, plan = spec.cells[cell_index]
    return [spec.problem, spec.nu[i_nu], spec.epsilon[i_eps], plan.method,
            plan.c0_expr, "", "", "", spec.runs, "", "", message]


def three_pass_figure_cell(spec, cell_index):
    """The (result row, figure rows) of a figure cell as computed before one
    pass per cell: error curves, re-running the kept runs when some diverge,
    then one pass for the mean iterate and one for the spread around it."""
    i_nu, i_eps, _, plan = spec.cells[cell_index]
    inst, y, c_unit = experiment._prepare_cells(spec)[(i_nu, i_eps)]
    cfg, c0_expr, m_value = experiment._cell_config(
        inst, plan, spec, spec.solver_seed(cell_index), True, c_unit)
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    cp = checkpoint_iterations(acct, cfg)

    def batch(subkeys, centers=None):
        rec = SummingRecorder(inst, cp, len(subkeys), centers)
        keys = [(cfg.seed, r) for r in subkeys]
        return rec, run_batch(inst, y, cfg, keys, rec)

    rec, diverged = batch(list(range(spec.runs)))
    excluded = tuple(int(r) for r in np.nonzero(diverged)[0])
    kept = [r for r in range(spec.runs) if r not in excluded]
    if not kept:
        return error_row(spec, cell_index, "ValueError: no runs survived the "
                         "divergence guard"), ()
    if excluded:
        rec, _ = batch(kept)
    curves = ErrorCurves(method=cfg.method, epochs=acct.epochs(cp),
                         iterations=cp, error_sq=rec.error_sq,
                         residual_sq=None, excluded_runs=excluded)
    kstar, e_mean, se = stopping_stats(curves)
    if len(kept) < 2:
        return error_row(spec, cell_index, "ValueError: fewer than two runs "
                         "survived the divergence guard"), ()
    note = f"{len(excluded)} runs diverged" if excluded else ""
    row = [spec.problem, spec.nu[i_nu], spec.epsilon[i_eps], plan.method,
           c0_expr, m_value, e_mean, kstar, spec.runs, se, round(kstar), note]
    sums, _ = batch(kept)
    mean_x = sums.sum_x / len(kept)
    spread, _ = batch(kept, mean_x)
    diff = mean_x - inst.x_dag
    bias_sq = np.einsum("cm,cm->c", diff, diff)
    variance = spread.centered_sq.mean(axis=0)
    mse = rec.error_sq.mean(axis=0)
    figure = tuple((float(e), int(i), float(b), float(v), float(m))
                   for e, i, b, v, m in zip(acct.epochs(cp), cp, bias_sq,
                                            variance, mse))
    return row, figure


def test_figure_cell_one_pass_equals_three():
    spec = small_spec(
        nu=[1.0], runs=6, max_epochs=6.0,
        methods=[{"method": "sgd", "c0": "1/4*c", "M": "4"},
                 {"method": "svrg", "c0": "1/2*c/M", "M": "4"}])
    outcomes = run_grid(spec, figure_grid=True)
    assert [o.row[3] for o in outcomes] == ["sgd", "svrg"]
    for index, outcome in enumerate(outcomes):
        row, figure = three_pass_figure_cell(spec, index)
        assert outcome.row == row and outcome.row[-1] == ""
        assert outcome.figure_rows == figure


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_figure_cells_with_diverged_runs(tmp_path, monkeypatch):
    # steps above the stability bound: some runs of the 2.9*c cells trip the
    # divergence guard, every run of the 4*c cell does
    monkeypatch.setattr(experiment, "SolverConfig",
                        functools.partial(SolverConfig, allow_large_step=True))
    spec = small_spec(
        n=10, nu=[0.0], runs=12, max_epochs=60.0, base_seed=0,
        methods=[{"method": "sgd", "c0": "2.9*c"},
                 {"method": "sgd", "c0": "4*c"},
                 {"method": "svrg", "c0": "2.9*c", "M": "5"}])
    outcomes = run_grid(spec, figure_grid=True)
    for index, outcome in enumerate(outcomes):
        row, figure = three_pass_figure_cell(spec, index)
        assert outcome.row == row
        assert outcome.figure_rows == figure
    notes = [o.row[-1] for o in outcomes]
    assert notes == ["3 runs diverged",
                     "ValueError: no runs survived the divergence guard",
                     "6 runs diverged"]
    run_experiment(spec, tmp_path / "t.csv", figure_dir=tmp_path / "fig")
    _, parsed = read_csv(tmp_path / "t.csv")
    assert [r[RESULT_HEADER.index("error")] for r in parsed] == notes
    assert sorted(p.name for p in (tmp_path / "fig").iterdir()) == [
        "figure_cell000_sgd.csv", "figure_cell002_svrg.csv"]


# --- one lockstep batch per cell group -------------------------------------------

def lone_cell(spec, cell_index, figure_grid):
    """The (result row, figure rows) of a grid cell run on its own: the
    instance and data of its (nu, epsilon) point alone, rotated with that
    point's data, and one error_curves or mc_moments call."""
    i_nu, i_eps, _, plan = spec.cells[cell_index]
    inst = smooth_solution(generate(spec.problem, spec.n), spec.nu[i_nu])
    y = experiment.add_noise(inst, spec.epsilon[i_eps],
                             spec.noise_seed(i_nu, i_eps)).y
    if spec.precondition:
        inst, y = precondition(inst, y)
    try:
        cfg, c0_expr, m_value = experiment._cell_config(
            inst, plan, spec, spec.solver_seed(cell_index), figure_grid,
            step_constant(inst.a))
        curves = (mc_moments if figure_grid else error_curves)(
            inst, y, cfg, spec.runs)
    except ValueError as exc:
        return error_row(spec, cell_index, f"ValueError: {exc}"), ()
    kstar, e_mean, se = stopping_stats(curves)
    note = (f"{len(curves.excluded_runs)} runs diverged"
            if curves.excluded_runs else "")
    row = [spec.problem, spec.nu[i_nu], spec.epsilon[i_eps], plan.method,
           c0_expr, m_value, e_mean, kstar, spec.runs, se, round(kstar), note]
    figure = ()
    if figure_grid:
        figure = tuple((float(e), int(i), float(b), float(v), float(m))
                       for e, i, b, v, m in zip(
                           curves.epochs, curves.iterations, curves.bias_sq,
                           curves.variance, curves.mse))
    return row, figure


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("figure_grid,epsilon", [
    (False, [5e-2, 1e-2, 1e-3]),
    (True, [1e-2, 1e-3]),  # per-cell mean and spread
])
def test_grouped_grid_rows_are_bitwise_their_lone_cells(rotate, figure_grid,
                                                        epsilon):
    spec = small_spec(
        nu=[0.5, 1.0], epsilon=epsilon, runs=4, max_epochs=30.0,
        precondition=rotate,
        methods=[{"method": "sgd", "c0": "1/2*c"},
                 {"method": "svrg", "c0": "1/2*c", "M": "4"},
                 {"method": "landweber"}])
    outcomes = run_grid(spec, figure_grid=figure_grid)
    for index, outcome in enumerate(outcomes):
        row, figure = lone_cell(spec, index, figure_grid)
        assert outcome.row == row and row[-1] == ""
        assert outcome.figure_rows == figure


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("figure_grid", [False, True])
def test_grouped_grid_errors_stay_in_their_cells_bitwise(figure_grid,
                                                         monkeypatch):
    # steps above the stability bound make runs diverge cell by cell, data
    # that is not finite ends every run of the epsilon = 1e-2 cells, and a
    # bad configuration fails the epsilon = 1e-3 sgd cell alone
    monkeypatch.setattr(experiment, "SolverConfig",
                        functools.partial(SolverConfig, allow_large_step=True))
    spec = small_spec(
        n=10, nu=[0.0], epsilon=[5e-2, 1e-2, 1e-3], runs=12, max_epochs=60.0,
        base_seed=0, methods=[{"method": "sgd", "c0": "2.9*c"},
                              {"method": "svrg", "c0": "2.9*c", "M": "5"}])
    draw, configure = experiment.add_noise, experiment._cell_config

    def noise(inst, epsilon, seed):
        data = draw(inst, epsilon, seed)
        if seed == spec.noise_seed(0, 1):
            return SimpleNamespace(y=np.full_like(data.y, np.nan))
        return data

    def config(inst, plan, spec_, seed, *args):
        if seed == spec.solver_seed(4):
            raise ValueError("bad configuration")
        return configure(inst, plan, spec_, seed, *args)

    monkeypatch.setattr(experiment, "add_noise", noise)
    monkeypatch.setattr(experiment, "_cell_config", config)
    outcomes = run_grid(spec, figure_grid=figure_grid)
    for index, outcome in enumerate(outcomes):
        row, figure = lone_cell(spec, index, figure_grid)
        assert outcome.row == row
        assert outcome.figure_rows == figure
    notes = [o.row[-1] for o in outcomes]
    lost = "ValueError: no runs survived the divergence guard"
    assert notes[2:5] == [lost, lost, "ValueError: bad configuration"]
    assert all(note.endswith("runs diverged")
               for note in notes[:2] + notes[5:])


def test_rotation_runs_once_per_nu_point_bitwise(monkeypatch):
    spec = small_spec(nu=[1.0], epsilon=[5e-2, 1e-2, 1e-3], precondition=True)
    calls = []
    rotate = experiment.precondition

    def counting(*args):
        calls.append(args)
        return rotate(*args)

    monkeypatch.setattr(experiment, "precondition", counting)
    prepared = experiment._prepare_cells(spec)
    assert len(calls) == 1
    assert len({id(prepared[(0, k)][0]) for k in range(3)}) == 1
    inst_nu = smooth_solution(generate(spec.problem, spec.n), 1.0)
    for k, eps in enumerate(spec.epsilon):
        inst, y, c_unit = prepared[(0, k)]
        data = add_noise(inst_nu, eps, spec.noise_seed(0, k))
        alone, y_alone = precondition(inst_nu, data.y)
        assert y.tobytes() == y_alone.tobytes()
        assert inst.a.tobytes() == alone.a.tobytes()
        assert c_unit == step_constant(alone.a)
    run_grid(spec)
    assert len(calls) == 2


# --- run slices -----------------------------------------------------------------

@pytest.mark.parametrize("cells,runs,threads,sizes", [
    (1, 100, 1, [100]),
    (1, 100, 2, [50, 50]),
    (1, 100, 3, [50, 50]),  # thirds hold 33-34 runs, each padded to 64 rows
    (1, 100, 4, [25, 25, 25, 25]),
    (1, 64, 2, [32, 32]),
    (1, 63, 2, [31, 32]),
    (1, 4, 2, [4]),         # halves pad to 2 blocks, the whole to 1
    (3, 20, 2, [10, 10]),   # 30 runs per half
    (3, 20, 3, [10, 10]),   # thirds pad to 3 blocks, the whole to 2
    (2, 100, 2, [100]),     # halves pad to 8 blocks, the whole to 7
    (3, 100, 2, [50, 50]),
])
def test_run_slices_rule(cells, runs, threads, sizes):
    slices = experiment._run_slices(cells, runs, threads)
    assert [len(r) for r in slices] == sizes
    assert [r[0] for r in slices] + [runs] == [0] + [r[-1] + 1 for r in slices]


def _batch_sizes(monkeypatch) -> CallLog:
    """The run count of every run_batch call the grid makes, in the test
    process or in a worker."""
    sizes = CallLog()
    batch = analysis.run_batch

    def recording(inst, y, cfg, subkeys, recorder):
        sizes.append(len(subkeys))
        return batch(inst, y, cfg, subkeys, recorder)

    monkeypatch.setattr(analysis, "run_batch", recording)
    return sizes


@pytest.mark.parametrize("name,overrides,figures,sizes", [
    ("table", dict(runs=100, nu=[0.0]), False,
     {"1": [100], "2": [50, 50], "3": [50, 50]}),
    ("rate", dict(runs=20, nu=[1.0], epsilon=[5e-2, 1e-2, 1e-3]), False,
     {"1": [60], "2": [30, 30], "3": [30, 30]}),
    ("figure", dict(runs=100, nu=[1.0]), True,
     {"1": [100], "2": [100], "3": [100]}),
    ("table-diagonal", dict(runs=100, nu=[0.0], precondition=True), False,
     {"1": [100], "2": [50, 50], "3": [50, 50]}),
    ("rate-diagonal",
     dict(runs=20, nu=[1.0], epsilon=[5e-2, 1e-2, 1e-3], precondition=True),
     False, {"1": [60], "2": [30, 30], "3": [30, 30]}),
    ("figure-diagonal", dict(runs=100, nu=[1.0], precondition=True), True,
     {"1": [100], "2": [100], "3": [100]}),
])
def test_run_slices_of_the_grid_shapes_keep_bytes_bitwise(
        tmp_path, monkeypatch, forked, name, overrides, figures, sizes):
    # one method, so each grid is one group: the table's 1 x 100 runs and
    # the rate's 3 x 20 runs are cut in halves on two or more workers, and
    # the figure cell stays whole; preconditioned rows take the diagonal
    # form, whose errors come from the row coordinates
    spec = small_spec(max_epochs=2.0,
                      methods=[{"method": "sgd", "c0": "1/2*c"}], **overrides)
    seen, blobs = _batch_sizes(monkeypatch), {}
    for threads in sizes:
        monkeypatch.setenv("STOCHREG_THREADS", threads)
        out = tmp_path / threads
        run_experiment(spec, out / "t.csv",
                       figure_dir=out / "fig" if figures else None)
        assert sorted(seen.drain()) == sizes[threads]
        blobs[threads] = sorted((p.relative_to(out), p.read_bytes())
                                for p in out.rglob("*") if p.is_file())
    assert blobs["1"] == blobs["2"] == blobs["3"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lose_first_slice", [False, True])
def test_sliced_divergence_matches_the_whole_cell_bitwise(
        tmp_path, monkeypatch, forked, lose_first_slice):
    # a step above the stability bound: runs 50 and 58 of 64 trip the
    # divergence guard, both in the second of two 32-run slices; forcing
    # every run of the first slice to trip it too leaves the cell to the
    # second slice alone
    monkeypatch.setattr(experiment, "SolverConfig",
                        functools.partial(SolverConfig, allow_large_step=True))
    if lose_first_slice:
        batch = analysis.run_batch

        def losing(inst, y, cfg, subkeys, recorder):
            lost = np.array([r < 32 for _, r in subkeys])
            return batch(inst, y, cfg, subkeys, recorder) | lost

        monkeypatch.setattr(analysis, "run_batch", losing)
    spec = small_spec(n=10, nu=[0.0], runs=64, max_epochs=60.0, base_seed=5,
                      methods=[{"method": "sgd", "c0": "2.8*c"}])
    log, slices, joined = CallLog(), {}, []
    curves_of, outcome_of = experiment.error_curves, experiment._cell_outcome

    def recording_curves(inst, y, cfg, runs, **kwargs):
        log.append(runs)
        return curves_of(inst, y, cfg, runs, **kwargs)

    def recording_outcome(spec_, cell, curves, figure_grid):
        joined.append(curves)
        return outcome_of(spec_, cell, curves, figure_grid)

    monkeypatch.setattr(experiment, "error_curves", recording_curves)
    monkeypatch.setattr(experiment, "_cell_outcome", recording_outcome)
    blobs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("STOCHREG_THREADS", threads)
        run_experiment(spec, tmp_path / f"t{threads}.csv")
        blobs[threads] = (tmp_path / f"t{threads}.csv").read_bytes()
        slices[threads] = sorted(log.drain(), key=lambda runs: runs.start)
    assert slices == {"1": [range(64)], "2": [range(32), range(32, 64)]}
    whole, sliced = joined
    excluded = (tuple(range(32)) if lose_first_slice else ()) + (50, 58)
    assert whole.excluded_runs == sliced.excluded_runs == excluded
    np.testing.assert_array_equal(sliced.error_sq, whole.error_sq)
    assert blobs["1"] == blobs["2"]
    _, parsed = read_csv(tmp_path / "t2.csv")
    assert parsed[0][-1] == f"{len(excluded)} runs diverged"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_one_cell_group_is_its_error_curves_on_one_or_two_workers(
        monkeypatch, forked):
    # runs 50 and 58 of 64 trip the divergence guard, both in the second of
    # the two 32-run slices that two workers cut the cell into
    monkeypatch.setattr(experiment, "SolverConfig",
                        functools.partial(SolverConfig, allow_large_step=True))
    spec = small_spec(n=10, nu=[0.0], runs=64, max_epochs=60.0, base_seed=5,
                      methods=[{"method": "sgd", "c0": "2.8*c"}])
    inst, y, c_unit = experiment._prepare_cells(spec)[(0, 0)]
    cfg, _, _ = experiment._cell_config(inst, spec.methods[0], spec,
                                        spec.solver_seed(0), False, c_unit)
    whole = error_curves(inst, y, cfg, 64)
    assert whole.excluded_runs == (50, 58)
    sizes = _batch_sizes(monkeypatch)
    for threads, slices in (("1", [64]), ("2", [32, 32])):
        monkeypatch.setenv("STOCHREG_THREADS", threads)
        (curves,) = experiment.run_groups([(inst, cfg, y[None], [cfg.seed])],
                                          64)
        assert sorted(sizes.drain()) == slices
        assert curves.excluded_runs == whole.excluded_runs
        for name in ("epochs", "iterations", "error_sq"):
            np.testing.assert_array_equal(getattr(curves, name),
                                          getattr(whole, name))
    assert multiprocessing.active_children() == []


def test_every_group_goes_to_one_worker_map(tmp_path, monkeypatch, forked):
    # the figure grid's two one-slice groups run at once on two workers
    monkeypatch.setenv("STOCHREG_THREADS", "2")
    calls, map_slices = [], experiment._map_slices

    def recording(run, count, workers):
        calls.append((count, workers))
        return map_slices(run, count, workers)

    monkeypatch.setattr(experiment, "_map_slices", recording)
    spec = small_spec(nu=[1.0], methods=[
        {"method": "svrg", "c0": "1/2*c/M", "M": "4"},
        {"method": "sgd", "c0": "1/2*c/M", "M": "4"}])
    rows = run_experiment(spec, tmp_path / "t.csv", figure_dir=tmp_path / "f")
    assert all(row[-1] == "" for row in rows)
    assert calls == [(2, 2)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_cell_with_one_surviving_run_writes_no_standard_error(monkeypatch):
    # 11 of 12 runs trip the divergence guard: one sample has no spread to
    # report, as with runs = 1
    monkeypatch.setattr(experiment, "SolverConfig",
                        functools.partial(SolverConfig, allow_large_step=True))
    spec = small_spec(n=10, nu=[0.0], runs=12, max_epochs=60.0, base_seed=0,
                      methods=[{"method": "sgd", "c0": "3.1*c"}])
    (outcome,) = run_grid(spec)
    row = dict(zip(RESULT_HEADER, outcome.row))
    assert row["error"] == "11 runs diverged"
    assert row["standard_error"] == ""
    assert row["runs"] == 12 and isinstance(row["e_at_kstar"], float)
