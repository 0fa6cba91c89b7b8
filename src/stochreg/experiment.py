"""Experiment grids over (smoothness, noise level, method) cells.

One cell is a (nu, epsilon, method plan) triple. Each (nu, epsilon) point
draws one noise realization, shared by every run and method of the point: the
paper's expectations are over the row indices for a fixed datum. Every random
stream is derived from the base seed and the cell's position in the grid, never
from execution order, which keeps all emitted files byte-stable under any
STOCHREG_THREADS setting.

Cells that share an instance and every solver setting but the seed (the
epsilon points of one nu and method plan) form a group and run as lockstep
batches, each cell with its own data and seed; a lone cell is a group of one.
``run_groups`` is the one place where groups are cut into run slices, run and
joined.  A slice is one batch over runs [a, b) of every cell of a group.
Slices run in forked worker processes, which inherit the prepared instances
and data and the slices they run; only a slice's curves or its exception come
back. The workers number min(STOCHREG_THREADS, slices, cores // BLAS
threads): the cores are the process's CPU affinity, and the BLAS threads come
from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else count every core, so
with neither set the slices run in-process, as they do with one worker, one
slice, or off Linux. A group is cut into the most slices, at most that worker
budget, such that the slices pad no more BLAS rows than the whole group. So
the paper's 100-run table cells run as two halves on two workers, a rate
group of three 20-run cells as two 30-run halves, and a figure group stays
whole, since each cell's spread is taken around the mean of all its runs in
one batch. A run gives the same numbers alone or in any batch, so neither
grouping nor slicing changes an output byte.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import closing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fileio
from .analysis import (NO_SURVIVORS, error_curves, mc_moments, parse_rational,
                       stopping_stats)
from .problems import (GENERATORS, ProblemInstance, add_noise, generate,
                       precondition, smooth_solution)
from .rng import check_seed
from .solvers import (_GRADIENT_BLOCK, METHODS, EpochAccounting, SolverConfig,
                      step_stability_bound)
from .spectral import step_constant

RESULT_HEADER = ["problem", "nu", "epsilon", "method", "c0_expr", "M",
                 "e_at_kstar", "kstar", "runs", "standard_error",
                 "kstar_rounded", "error"]

FIGURE_HEADER = ["epoch", "iteration", "bias_sq", "variance", "mse"]

# seed offsets; arbitrary distinct primes, frozen for reproducibility
_NOISE_STRIDE = 7919
_CELL_STRIDE = 104729


def thread_count() -> int:
    env = os.environ.get("STOCHREG_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"STOCHREG_THREADS={env!r} is not an integer")
        return max(1, workers)
    return min(4, os.cpu_count() or 1)


def _blas_threads(cores: int) -> int:
    """BLAS threads per process, read in OpenBLAS's own order: a positive
    OPENBLAS_NUM_THREADS, else a positive OMP_NUM_THREADS, else one per
    core."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads >= 1:
            return threads
    return cores


def worker_budget() -> int:
    """Worker processes a grid may use: thread_count(), capped by the cores
    that BLAS threads leave free, cores // BLAS threads; 1 off Linux."""
    threads = thread_count()
    if not sys.platform.startswith("linux"):
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(threads, cores // _blas_threads(cores)))


# ---------------------------------------------------------------------------
# step and inner-loop expression grammar

def parse_m_expr(expr, n: int) -> int:
    """Inner-loop length: an integral literal, or '<rational>*n' scaled by
    problem size and rounded to the nearest integer."""
    if expr is None:
        return 1
    scaled = False
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        value = expr
    else:
        text = str(expr).replace(" ", "")
        scaled = text.endswith("*n")
        try:
            if scaled:
                value = parse_rational(text[:-2]) * n
            else:
                value = parse_rational(text)
        except ValueError:
            raise ValueError(f"cannot parse inner-loop expression {expr!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"inner-loop expression {expr!r} is not finite")
    if not scaled and value != int(value):
        raise ValueError(f"inner-loop expression {expr!r} is not an integer")
    value = int(round(value))
    if value < 1:
        raise ValueError(f"inner-loop expression {expr!r} gives M = {value} < 1")
    return value


def parse_c0_expr(expr, c: float, M: int, n: int) -> float:
    """Step size: '<rational>*c/M', '<rational>*c/n', '<rational>*c', or a
    literal; c is the reciprocal of the largest squared row norm."""
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        value = float(expr)
    else:
        text = str(expr).replace(" ", "")
        matched = None
        for suffix, denom in (("*c/M", float(M)), ("*c/n", float(n)),
                              ("*c", 1.0)):
            if text.endswith(suffix):
                matched = (text[: -len(suffix)], denom)
                break
        try:
            if matched is not None:
                coeff, denom = matched
                value = parse_rational(coeff) * c / denom
            else:
                value = parse_rational(text)
        except ValueError:
            raise ValueError(f"cannot parse step expression {expr!r}")
    if not value > 0:
        raise ValueError(f"step expression {expr!r} evaluates to {value}, "
                         "which is not positive")
    return value


# ---------------------------------------------------------------------------
# experiment specification

@dataclass(frozen=True)
class MethodPlan:
    """One grid column: a method with its step and inner-loop expressions."""

    method: str
    c0_expr: object = None
    m_expr: object = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"choices: {METHODS}")
        if self.c0_expr is None and self.method != "landweber":
            raise ValueError(f"{self.method} needs a step expression")

    def resolve(self, inst: ProblemInstance, c_unit: float
                ) -> tuple[float, int]:
        """Step c0 and inner-loop length M on inst, with step unit c_unit:
        the landweber stability step when no step expression is given."""
        m_value = parse_m_expr(self.m_expr, inst.n)
        if self.c0_expr is None:
            return step_stability_bound(inst, "landweber"), m_value
        return parse_c0_expr(self.c0_expr, c_unit, m_value, inst.n), m_value


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    n: int
    nu: tuple
    epsilon: tuple
    methods: tuple
    runs: int = 100
    max_epochs: float = 100.0
    base_seed: int = 0
    precondition: bool = False

    def __post_init__(self):
        if self.problem not in GENERATORS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"choices: {sorted(GENERATORS)}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not self.nu or any(v < 0 for v in self.nu):
            raise ValueError("nu list must be nonempty and nonnegative")
        if not self.epsilon or any(e < 0 for e in self.epsilon):
            raise ValueError("epsilon list must be nonempty and nonnegative")
        if not self.methods:
            raise ValueError("methods list must be nonempty")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 0 < self.max_epochs < math.inf:
            raise ValueError("max_epochs must be positive and finite")
        # structural parse check so bad grammar fails before any cell runs
        for plan in self.methods:
            m = parse_m_expr(plan.m_expr, self.n)
            parse_c0_expr(plan.c0_expr if plan.c0_expr is not None else 1.0,
                          1.0, m, self.n)
        # the derived seeds grow with grid position, so the extremes bound
        # every seed a cell can key a stream with; the base seed is checked
        # too, since every derived seed lies above it
        for seed in (self.base_seed, self.noise_seed(0, 0),
                     self.noise_seed(len(self.nu) - 1, len(self.epsilon) - 1),
                     self.solver_seed(0),
                     self.solver_seed(len(self.cells) - 1)):
            check_seed(seed)

    @property
    def cells(self) -> list:
        """Grid order: nu-major, then epsilon, then method."""
        out = []
        for i_nu in range(len(self.nu)):
            for i_eps in range(len(self.epsilon)):
                for i_m, plan in enumerate(self.methods):
                    out.append((i_nu, i_eps, i_m, plan))
        return out

    def noise_seed(self, i_nu: int, i_eps: int) -> int:
        return self.base_seed + _NOISE_STRIDE * (
            i_nu * len(self.epsilon) + i_eps + 1)

    def solver_seed(self, cell_index: int) -> int:
        return self.base_seed + _CELL_STRIDE * (cell_index + 1)


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} takes JSON numbers, not {value!r}")
    return float(value)


def _as_list(key: str, value) -> tuple:
    values = value if isinstance(value, (list, tuple)) else (value,)
    return tuple(_number(key, v) for v in values)


def _integer(key: str, value) -> int:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(value)


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, not {value!r}")
    return value


# the scalar keys and their parsers; absent optional keys take the defaults
# of ExperimentSpec's fields
_SCALARS = {"n": _integer, "runs": _integer, "max_epochs": _number,
            "base_seed": _integer, "precondition": _flag}


def spec_from_dict(doc: dict) -> ExperimentSpec:
    unknown = set(doc) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
    for key in ("problem", "n", "nu", "epsilon", "methods"):
        if key not in doc:
            raise ValueError(f"experiment spec is missing {key!r}")
    plans = []
    for entry in doc["methods"]:
        if not isinstance(entry, dict) or "method" not in entry:
            raise ValueError(f"malformed method entry {entry!r}")
        extra = set(entry) - {"method", "c0", "M"}
        if extra:
            raise ValueError(f"unknown method keys: {sorted(extra)}")
        plans.append(MethodPlan(method=entry["method"],
                                c0_expr=entry.get("c0"),
                                m_expr=entry.get("M")))
    scalars = {key: parse(key, doc[key]) for key, parse in _SCALARS.items()
               if key in doc}
    return ExperimentSpec(problem=doc["problem"], nu=_as_list("nu", doc["nu"]),
                          epsilon=_as_list("epsilon", doc["epsilon"]),
                          methods=tuple(plans), **scalars)


def load_spec(path) -> ExperimentSpec:
    return spec_from_dict(fileio.load_json(path))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    methods = []
    for plan in spec.methods:
        entry = {"method": plan.method}
        if plan.c0_expr is not None:
            entry["c0"] = plan.c0_expr
        if plan.m_expr is not None:
            entry["M"] = plan.m_expr
        methods.append(entry)
    return {"problem": spec.problem, "n": spec.n, "nu": list(spec.nu),
            "epsilon": list(spec.epsilon), "methods": methods,
            "runs": spec.runs, "max_epochs": spec.max_epochs,
            "base_seed": spec.base_seed, "precondition": spec.precondition}


# ---------------------------------------------------------------------------
# grid execution

@dataclass(frozen=True)
class CellOutcome:
    row: list
    figure_name: str | None = None
    figure_rows: tuple = ()
    e_value: float | None = None


def _cell_config(inst: ProblemInstance, plan: MethodPlan, spec: ExperimentSpec,
                 seed: int, figure_grid: bool, c_unit: float
                 ) -> tuple[SolverConfig, object, int]:
    c0, m_value = plan.resolve(inst, c_unit)
    c0_expr = plan.c0_expr if plan.c0_expr is not None else "auto"
    acct = EpochAccounting(plan.method, inst.n, m_value)
    if figure_grid:
        # checkpoints every M iterations so methods share an iteration grid
        every = m_value / acct.iterations_per_epoch
    else:
        every = 1.0
    cfg = SolverConfig(method=plan.method, c0=c0, max_epochs=spec.max_epochs,
                       M=m_value, seed=seed, checkpoint_every=every)
    return cfg, c0_expr, m_value


def _error_outcome(base_row: list, plan: MethodPlan, spec: ExperimentSpec,
                   exc: Exception) -> CellOutcome:
    message = f"{type(exc).__name__}: {exc}".replace(",", ";")
    message = " ".join(message.split())
    row = base_row + [plan.c0_expr if plan.c0_expr is not None else "auto",
                      "", "", "", spec.runs, "", "", message]
    return CellOutcome(row=row)


@dataclass(frozen=True)
class _Cell:
    """A grid cell ready to run: its place, plan, data and configuration."""

    index: int
    plan: MethodPlan
    base_row: list
    inst: ProblemInstance
    y: np.ndarray
    cfg: SolverConfig
    c0_expr: object
    m_value: int


def _cell_outcome(spec: ExperimentSpec, cell: _Cell, curves,
                  figure_grid: bool) -> CellOutcome:
    try:
        if isinstance(curves, Exception):
            raise curves
        kstar, e_mean, se = stopping_stats(curves)
        note = (f"{len(curves.excluded_runs)} runs diverged"
                if curves.excluded_runs else "")
        row = cell.base_row + [cell.c0_expr, cell.m_value, e_mean, kstar,
                               spec.runs,
                               se if curves.error_sq.shape[0] > 1 else "",
                               round(kstar), note]
        figure_name = None
        figure_rows = ()
        if figure_grid:
            figure_name = (f"figure_cell{cell.index:03d}_"
                           f"{cell.plan.method}.csv")
            figure_rows = tuple(
                (float(curves.epochs[j]), int(curves.iterations[j]),
                 float(curves.bias_sq[j]), float(curves.variance[j]),
                 float(curves.mse[j]))
                for j in range(curves.iterations.size))
        return CellOutcome(row=row, figure_name=figure_name,
                           figure_rows=figure_rows, e_value=e_mean)
    except Exception as exc:  # per-cell failures leave the grid running
        return _error_outcome(cell.base_row, cell.plan, spec, exc)


def _run_slices(cells: int, runs: int, workers: int) -> list:
    """The run slices of a group of `cells` cells with `runs` runs each: the
    most near-equal run ranges, at most `workers`, such that the slices pad
    no more BLAS rows than the whole group does."""
    whole = -(-cells * runs // _GRADIENT_BLOCK)
    for count in range(min(workers, runs), 1, -1):
        bounds = [runs * k // count for k in range(count + 1)]
        sizes = [cells * (b - a) for a, b in zip(bounds, bounds[1:])]
        if sum(-(-z // _GRADIENT_BLOCK) for z in sizes) <= whole:
            return [range(a, b) for a, b in zip(bounds, bounds[1:])]
    return [range(runs)]


def _serve(run, indices: range, sender) -> None:
    """A worker's loop: run(k) for each k of indices, in order, each result
    sent as (True, result), or the exception run raised as (False, exc),
    which ends the loop."""
    with sender:
        for index in indices:
            try:
                result = run(index)
            except Exception as exc:  # raised again in the calling process
                sender.send((False, exc))
                return
            sender.send((True, result))


def _map_slices(run, count: int, workers: int):
    """run(0), ..., run(count - 1), yielded in order: on min(workers, count)
    forked worker processes, which take the indices round-robin, or
    in-process if that is one.  A worker inherits run, and every array it
    reads, through fork: it is sent nothing and sends back only run's
    results, or the exception run raised, which is raised here.  The
    results are received and unpickled on the calling thread, so they are
    allocated where the caller's own arrays are; a receiving thread would
    take a malloc arena of its own.  Every worker is joined when the
    generator ends or is closed."""
    workers = min(workers, count)
    if workers <= 1:
        yield from map(run, range(count))
        return
    # imported here, so that a program that never forks does not load it
    import multiprocessing
    context = multiprocessing.get_context("fork")
    receivers, procs = [], []
    try:
        for first in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            proc = context.Process(target=_serve, args=(
                run, range(first, count, workers), sender))
            with sender:  # closed here, so a worker that dies leaves EOF
                proc.start()
            procs.append(proc)
        for index in range(count):
            proc = procs[index % workers]
            try:
                ok, result = receivers[index % workers].recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"the worker process of slice {index} died with exit "
                    f"code {proc.exitcode}") from None
            if not ok:
                raise result
            yield result
    finally:
        for proc in procs:
            # ends a worker still running when a slice failed or the caller
            # stopped early; one that sent all its slices is done anyway
            proc.terminate()
            proc.join()
        for receiver in receivers:
            receiver.close()


def _join_slices(slices: list):
    """One cell's error curves from the (runs, curves) of its run slices, in
    run order; a lone slice's curves are the cell's, uncopied.  A slice whose
    runs all diverged adds them to the excluded runs; the cell fails only if
    every slice failed, with the first error."""
    if len(slices) == 1:
        return slices[0][1]
    done = [part for _, part in slices if not isinstance(part, Exception)]
    if not done:
        return slices[0][1]
    excluded = []
    for runs, part in slices:
        if not isinstance(part, Exception):
            excluded += part.excluded_runs
        elif part.args == (NO_SURVIVORS,):
            excluded += runs
        else:
            return part
    # the grid records no residuals
    return replace(done[0], excluded_runs=tuple(excluded),
                   error_sq=np.concatenate([part.error_sq for part in done]))


def run_groups(groups: list, runs: int, moments: bool = False):
    """Runs groups of cells (module docstring) and yields each cell's
    curves, or the exception that ended it, group by group in cell order.
    A group is (inst, cfg, ys, seeds): cells on one instance with cfg's
    method, step, inner loop and checkpoints, cell c with data ys[c] and
    seed seeds[c].  With moments, a cell's curves are its mc_moments, and
    no group is cut.  K and its diagonal selection are built before the
    fork, and the slices of every group go to one _map_slices call.  A cell
    is joined on the calling thread once its group's last slice is in, from
    its own parts, which are let go as it joins."""
    workers = worker_budget()
    cuts = []
    for inst, _, ys, _ in groups:
        # built here, once per instance, for every worker to inherit
        inst.row_gram
        inst.row_gram_diagonal
        cuts.append([range(runs)] if moments
                    else _run_slices(len(ys), runs, workers))
    work = [(group, part) for group, cut in zip(groups, cuts) for part in cut]

    def run(index: int) -> list:
        (inst, cfg, ys, seeds), part = work[index]
        try:
            if moments:
                # one pass gives the moments and the per-run error curves
                return mc_moments(inst, ys, cfg, runs, seeds=seeds)
            return error_curves(inst, ys, cfg, part, seeds=seeds)
        except Exception as exc:  # the group's shared settings failed
            return [exc] * len(ys)

    with closing(_map_slices(run, len(work), workers)) as results:
        for (_, _, ys, _), cut in zip(groups, cuts):
            parts = [[] for _ in ys]  # per cell, its (runs, curves) pairs
            for part in cut:
                for own, curves in zip(parts, next(results)):
                    own.append((part, curves))
            del curves  # each cell's list holds its parts alone
            while parts:
                yield _join_slices(parts.pop(0))


def _prepare_cells(spec: ExperimentSpec, step_from_raw: bool = False) -> dict:
    """Instance, noisy data and step unit c shared by every method in a
    (nu, epsilon) point.  The epsilon points of one nu share one instance
    object: the rotation of a preconditioned grid depends on A alone, so it
    runs once per nu, each data vector rotated on its own.

    step_from_raw evaluates c on the unrotated rows even when solving the
    preconditioned system, so paired studies run with the same numeric step
    on both sides.
    """
    base = generate(spec.problem, spec.n)
    prepared = {}
    for i_nu, nu in enumerate(spec.nu):
        inst_nu = smooth_solution(base, nu)
        ys = np.array([add_noise(inst_nu, eps, spec.noise_seed(i_nu, i_eps)).y
                       for i_eps, eps in enumerate(spec.epsilon)])
        if spec.precondition:
            inst_cell, ys = precondition(inst_nu, ys)
        else:
            inst_cell = inst_nu
        c_unit = step_constant(inst_nu.a if step_from_raw else inst_cell.a)
        for i_eps, y in enumerate(ys):
            prepared[(i_nu, i_eps)] = (inst_cell, y, c_unit)
    return prepared


def run_grid(spec: ExperimentSpec, figure_grid: bool = False,
             step_from_raw: bool = False) -> list:
    """All grid cells, results in grid order: run_groups runs the cell
    groups, and each cell is made a row as soon as it is joined."""
    prepared = _prepare_cells(spec, step_from_raw)
    cells = spec.cells
    outcomes = [None] * len(cells)
    groups = {}
    for idx, (i_nu, i_eps, _, plan) in enumerate(cells):
        inst, y, c_unit = prepared[(i_nu, i_eps)]
        base_row = [spec.problem, spec.nu[i_nu], spec.epsilon[i_eps],
                    plan.method]
        try:
            cfg, c0_expr, m_value = _cell_config(
                inst, plan, spec, spec.solver_seed(idx), figure_grid, c_unit)
        except Exception as exc:  # a bad configuration fails its cell alone
            outcomes[idx] = _error_outcome(base_row, plan, spec, exc)
            continue
        cell = _Cell(idx, plan, base_row, inst, y, cfg, c0_expr, m_value)
        groups.setdefault((id(inst), replace(cfg, seed=0)), []).append(cell)

    groups = list(groups.values())
    with closing(run_groups(
            [(group[0].inst, group[0].cfg, np.stack([c.y for c in group]),
              [c.cfg.seed for c in group]) for group in groups],
            spec.runs, moments=figure_grid)) as joined:
        for group in groups:
            for cell in group:
                outcomes[cell.index] = _cell_outcome(spec, cell, next(joined),
                                                     figure_grid)
    return outcomes


KSTAR_NOTE = ("kstar is the mean over runs of the per-run best epoch (first "
              "index on ties); kstar_rounded is its nearest integer. One "
              "landweber step counts as one epoch, so its kstar is integral.")


def _write_outputs(spec: ExperimentSpec, outcomes: list, out_csv,
                   figure_dir=None) -> None:
    fileio.write_csv(out_csv, RESULT_HEADER, [o.row for o in outcomes])
    meta = {"schema": fileio.SCHEMA_VERSION, "kind": "experiment_meta",
            "spec": spec_to_dict(spec), "kstar_convention": KSTAR_NOTE}
    fileio.dump_json(meta, str(out_csv) + ".meta.json")
    if figure_dir is not None:
        os.makedirs(figure_dir, exist_ok=True)
        for outcome in outcomes:
            if outcome.figure_name is not None:
                fileio.write_csv(os.path.join(figure_dir, outcome.figure_name),
                                 FIGURE_HEADER, outcome.figure_rows)


def run_experiment(spec: ExperimentSpec, out_csv, figure_dir=None) -> list:
    """Run the grid and write the result table (plus optional figure data).

    Returns the result rows.
    """
    if figure_dir is not None and spec.runs < 2:
        raise ValueError("figure data needs at least two runs")
    outcomes = run_grid(spec, figure_grid=figure_dir is not None)
    _write_outputs(spec, outcomes, out_csv, figure_dir)
    return [o.row for o in outcomes]


def run_precondition_study(spec: ExperimentSpec, out_csv) -> tuple[list, float]:
    """Every cell twice, raw rows paired with preconditioned ones.

    Shared seeds, shared noise; the returned gap is the largest relative
    difference in e at the stopping index across completed pairs.
    """
    raw = run_grid(replace(spec, precondition=False))
    rotated = run_grid(replace(spec, precondition=True), step_from_raw=True)
    rows = []
    gaps = []
    for before, after in zip(raw, rotated):
        rows.append(["raw"] + before.row)
        rows.append(["preconditioned"] + after.row)
        if before.e_value is not None and after.e_value is not None:
            top = max(abs(before.e_value), abs(after.e_value))
            if top > 0:
                gaps.append(abs(before.e_value - after.e_value) / top)
    max_gap = max(gaps) if gaps else float("nan")
    fileio.write_csv(out_csv, ["variant"] + RESULT_HEADER, rows)
    fileio.dump_json({"schema": fileio.SCHEMA_VERSION,
                      "kind": "precondition_study_summary",
                      "spec": spec_to_dict(spec), "pairs": len(gaps),
                      "max_relative_e_gap": max_gap,
                      "kstar_convention": KSTAR_NOTE},
                     str(out_csv) + ".meta.json")
    return rows, max_gap
