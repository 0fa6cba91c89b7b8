"""Experiment grids over (smoothness, noise level, method) cells.

One cell is a (nu, epsilon, method plan) triple. Cells sharing (nu, epsilon)
also share the noise realization, so methods face identical data. Every random
stream is derived from the base seed and the cell's position in the grid, never
from execution order, which keeps all emitted files byte-stable under any
STOCHREG_THREADS setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import fileio
from .analysis import (ErrorCurves, error_curves, mc_moments, parse_rational,
                       stopping_stats)
from .problems import (GENERATORS, ProblemInstance, add_noise, generate,
                       orthogonalize_rows, precondition, smooth_solution)
from .solvers import EpochAccounting, SolverConfig, step_stability_bound
from .spectral import step_constant

RESULT_HEADER = ["problem", "nu", "epsilon", "method", "c0_expr", "M",
                 "e_at_kstar", "kstar", "runs", "standard_error",
                 "kstar_rounded", "error"]

FIGURE_HEADER = ["epoch", "iteration", "bias_sq", "variance", "mse"]

# seed offsets; arbitrary distinct primes, frozen for reproducibility
_NOISE_STRIDE = 7919
_CELL_STRIDE = 104729
_RESAMPLE_STRIDE = 65537


def thread_count() -> int:
    env = os.environ.get("STOCHREG_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"STOCHREG_THREADS={env!r} is not an integer")
        return max(1, workers)
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# step and inner-loop expression grammar

def parse_m_expr(expr, n: int) -> int:
    """Inner-loop length: a literal, or '<rational>*n' scaled by problem size."""
    if expr is None:
        return 1
    if isinstance(expr, (int, float)):
        value = int(round(expr))
    else:
        text = str(expr).replace(" ", "")
        try:
            if text.endswith("*n"):
                value = int(round(parse_rational(text[:-2]) * n))
            else:
                value = int(round(parse_rational(text)))
        except ValueError:
            raise ValueError(f"cannot parse inner-loop expression {expr!r}")
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
        if self.method not in ("landweber", "sgd", "svrg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.c0_expr is None and self.method != "landweber":
            raise ValueError(f"{self.method} needs a step expression")


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
    resample_noise: bool = False

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
        if not self.max_epochs > 0:
            raise ValueError("max_epochs must be positive")
        # structural parse check so bad grammar fails before any cell runs
        for plan in self.methods:
            m = parse_m_expr(plan.m_expr, self.n)
            parse_c0_expr(plan.c0_expr if plan.c0_expr is not None else 1.0,
                          1.0, m, self.n)

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


_SPEC_KEYS = {"problem", "n", "nu", "epsilon", "methods", "runs", "max_epochs",
              "base_seed", "precondition", "resample_noise"}


def _as_list(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return (float(value),)


def spec_from_dict(doc: dict) -> ExperimentSpec:
    unknown = set(doc) - _SPEC_KEYS
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
    return ExperimentSpec(
        problem=doc["problem"], n=int(doc["n"]), nu=_as_list(doc["nu"]),
        epsilon=_as_list(doc["epsilon"]), methods=tuple(plans),
        runs=int(doc.get("runs", 100)),
        max_epochs=float(doc.get("max_epochs", 100.0)),
        base_seed=int(doc.get("base_seed", 0)),
        precondition=bool(doc.get("precondition", False)),
        resample_noise=bool(doc.get("resample_noise", False)))


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
            "base_seed": spec.base_seed, "precondition": spec.precondition,
            "resample_noise": spec.resample_noise}


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
    m_value = parse_m_expr(plan.m_expr, inst.n)
    if plan.c0_expr is None:
        c0 = step_stability_bound(inst, "landweber")
        c0_expr = "auto"
    else:
        c0 = parse_c0_expr(plan.c0_expr, c_unit, m_value, inst.n)
        c0_expr = plan.c0_expr
    acct = EpochAccounting(plan.method, inst.n, m_value)
    if figure_grid:
        # checkpoints every M iterations so methods share an iteration grid
        every = m_value / acct.iterations_per_epoch
    else:
        every = 1.0
    cfg = SolverConfig(method=plan.method, c0=c0, max_epochs=spec.max_epochs,
                       M=m_value, seed=seed, checkpoint_every=every,
                       record_residual=False)
    return cfg, c0_expr, m_value


def _resampled_curves(inst_nu: ProblemInstance, inst_cell: ProblemInstance,
                      rotation: np.ndarray | None, spec: ExperimentSpec,
                      i_nu: int, i_eps: int, cfg: SolverConfig) -> ErrorCurves:
    """Fresh noise per run; index streams still differ run to run.  Each
    run's data is drawn on inst_nu and, when preconditioning, rotated into
    inst_cell's coordinates by the cell's one rotation."""
    eps = spec.epsilon[i_eps]
    base = spec.noise_seed(i_nu, i_eps)
    rows = []
    grid = None
    for r in range(spec.runs):
        y_r = add_noise(inst_nu, eps, base + _RESAMPLE_STRIDE * (r + 1)).y
        if rotation is not None:
            y_r = rotation @ y_r
        cur = error_curves(inst_cell, y_r, replace(cfg, seed=cfg.seed + r),
                           runs=1)
        rows.append(cur.error_sq[0])
        grid = cur
    return ErrorCurves(method=cfg.method, epochs=grid.epochs,
                       iterations=grid.iterations, error_sq=np.vstack(rows),
                       residual_sq=None, excluded_runs=())


def _run_cell(spec: ExperimentSpec, prepared: dict, cell, cell_index: int,
              figure_grid: bool) -> CellOutcome:
    i_nu, i_eps, i_m, plan = cell
    nu = spec.nu[i_nu]
    eps = spec.epsilon[i_eps]
    inst_nu, inst_cell, y_cell, rotation, c_unit = prepared[(i_nu, i_eps)]
    base_row = [spec.problem, nu, eps, plan.method]
    try:
        cfg, c0_expr, m_value = _cell_config(
            inst_cell, plan, spec, spec.solver_seed(cell_index), figure_grid,
            c_unit)
        if figure_grid:
            # one pass gives the figure moments and the per-run error curves;
            # figure data needs the cell's fixed noise (see run_experiment)
            report = mc_moments(inst_cell, y_cell, cfg, spec.runs)
            curves = ErrorCurves(method=cfg.method, epochs=report.epochs,
                                 iterations=report.iterations,
                                 error_sq=report.error_sq, residual_sq=None,
                                 excluded_runs=report.excluded_runs)
        elif spec.resample_noise:
            curves = _resampled_curves(inst_nu, inst_cell, rotation, spec,
                                       i_nu, i_eps, cfg)
        else:
            curves = error_curves(inst_cell, y_cell, cfg, runs=spec.runs)
        kstar, e_mean, se = stopping_stats(curves)
        note = (f"{len(curves.excluded_runs)} runs diverged"
                if curves.excluded_runs else "")
        row = base_row + [c0_expr, m_value, e_mean, kstar, spec.runs,
                          se if spec.runs > 1 else "", round(kstar), note]
        figure_name = None
        figure_rows = ()
        if figure_grid:
            figure_name = f"figure_cell{cell_index:03d}_{plan.method}.csv"
            figure_rows = tuple(
                (float(report.epochs[j]), int(report.iterations[j]),
                 float(report.bias_sq[j]), float(report.variance[j]),
                 float(report.mse[j]))
                for j in range(report.iterations.size))
        return CellOutcome(row=row, figure_name=figure_name,
                           figure_rows=figure_rows, e_value=e_mean)
    except Exception as exc:  # per-cell failures leave the grid running
        message = f"{type(exc).__name__}: {exc}".replace(",", ";")
        message = " ".join(message.split())
        row = base_row + [plan.c0_expr if plan.c0_expr is not None else "auto",
                          "", "", "", spec.runs, "", "", message]
        return CellOutcome(row=row)


def _prepare_cells(spec: ExperimentSpec, step_from_raw: bool = False) -> dict:
    """Instances and noise shared by every method in a (nu, epsilon) point.

    With resample_noise and precondition, y_cell is None and rotation maps
    each run's fresh data into the cell's coordinates; otherwise rotation
    is None.  step_from_raw evaluates the step unit c on the unrotated rows
    even when solving the preconditioned system, so paired studies run with
    the same numeric step on both sides.
    """
    base = generate(spec.problem, spec.n)
    prepared = {}
    for i_nu, nu in enumerate(spec.nu):
        inst_nu = smooth_solution(base, nu)
        for i_eps, eps in enumerate(spec.epsilon):
            data = add_noise(inst_nu, eps, spec.noise_seed(i_nu, i_eps))
            rotation = None
            if spec.precondition and not spec.resample_noise:
                inst_cell, y_cell = precondition(inst_nu, data.y)
            elif spec.precondition:
                inst_cell, rotation = orthogonalize_rows(inst_nu)
                y_cell = None  # rebuilt per run with fresh noise
            else:
                inst_cell, y_cell = inst_nu, data.y
            c_unit = step_constant(inst_nu.a if step_from_raw else inst_cell.a)
            prepared[(i_nu, i_eps)] = (inst_nu, inst_cell, y_cell, rotation,
                                       c_unit)
    return prepared


def run_grid(spec: ExperimentSpec, figure_grid: bool = False,
             step_from_raw: bool = False) -> list:
    """All grid cells, concurrently, results in grid order."""
    prepared = _prepare_cells(spec, step_from_raw)
    cells = spec.cells
    outcomes = [None] * len(cells)

    def work(idx: int) -> None:
        outcomes[idx] = _run_cell(spec, prepared, cells[idx], idx, figure_grid)

    workers = min(thread_count(), len(cells))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(len(cells))))
    else:
        for idx in range(len(cells)):
            work(idx)
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

    Returns the result rows. Figure data wants sample moments over a common
    iteration grid, which needs a fixed noise realization per cell.
    """
    if figure_dir is not None and spec.resample_noise:
        raise ValueError("figure data needs a fixed noise realization; "
                         "disable resample_noise")
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
