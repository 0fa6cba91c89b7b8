"""Stochastic and deterministic iterations for the regularized least-squares
functional J(x) = (1/2n) ||A x - y||^2.

Three methods share one batched core: plain stochastic gradient steps,
a variance-reduced double loop with full-gradient anchors, and deterministic
full-gradient descent.  Row dots go through ``einsum`` reductions and the full
gradient through fixed-size BLAS blocks, both bitwise independent of the
batch size.  With data generated by ``problems.exact_data``, x0 = x_dag with
exact data is a bitwise fixed point of every method.

A batch may hold several cells: runs on one instance with one method, step
and inner loop, but each cell with its own data vector.  The data come as a
(cells, n) array y, and the runs split into equal contiguous blocks, one per
cell, in the order of y's rows; each run reads only its own cell's data,
here written y_r.  A 1-d y is one cell.

Update arithmetic (fixed, relied on by replay tests).  The stochastic and
anchored steps run in place on buffers allocated once per ``Lockstep``, one
numpy call per statement, in this order:
    gather:         A.take(idx, 0, rows, "clip")
    stochastic:     d = einsum(rows, X);  d -= y_r[idx];  d *= c0
                    rows *= d[:,None];  X -= rows
    anchored:       diff = X - Xa;  d = einsum(rows, diff)
                    rows *= d[:,None];  rows += G;  rows *= c0;  X -= rows
    residual:       R = residuals(A, y_r, X) = einsum(X, A) - y_r, for the
                    recorded residual
    full gradient:  G = FullGradient(inst, y, runs)(X) = (X - x0) @ B + g0_r,
                    with B = A^T A / n the instance's Gram matrix and
                    g0_r = einsum(residuals(A, y_r, x0), A) / n, taken once
                    per cell on one row and added to each of its runs; the
                    product runs on X - x0 zero-padded to blocks of
                    _GRADIENT_BLOCK rows, one stacked matmul, for anchors
                    and descent
    descent:        X = X - (c0*n)*G
The data entries y_r[idx] of all the steps of one advance call are gathered
in one call before its loop.  Every entry gets the same IEEE operations, in the same order, as in the
out-of-place forms X - (c0*d)[:,None]*rows and X - c0*(d[:,None]*rows + G),
so the kernel's bits equal those forms' bits.  The gather uses mode "clip"
because the default "raise" buffers the copy: 100 rows of 1000 took about
100 us against 27 us on a 2-vCPU Xeon VM.  Indices are already reduced modulo
n, so clipping never changes one.

Every run starts at x0, and at an exact-data start x0 = x_dag both X - x0 and
g0_r are exactly zero, so the full gradient is too.  Each BLAS block has the
same shape whatever the batch, so a run's gradient bits depend neither on the
other runs nor on its place in the batch; they can depend on the BLAS build
and its thread count.

One epoch is n stochastic-gradient evaluations: n plain stochastic steps,
n*M/(n+M) anchored inner steps (each anchor adds a full-gradient's worth of
work), or a single descent step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance
from .rng import check_seed, index_blocks
from .spectral import stability_step_bound

_CHUNK = 4096  # iterations per index-stream draw
_GRADIENT_BLOCK = 32  # rows per BLAS product of the full gradient
DIVERGENCE_FACTOR = 1e12

METHODS = ("sgd", "svrg", "landweber")


class DivergenceError(RuntimeError):
    """An iterate left the divergence guard region."""


@dataclass(frozen=True)
class SolverConfig:
    method: str
    c0: float
    max_epochs: float
    M: int = 1
    seed: int = 0
    checkpoint_every: float = 1.0
    allow_large_step: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choices: {METHODS}")
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if not 0 < self.max_epochs < math.inf:
            raise ValueError("max_epochs must be positive and finite")
        if self.M < 1:
            raise ValueError("inner loop length M must be >= 1")
        if not 0 < self.checkpoint_every < math.inf:
            raise ValueError("checkpoint_every must be positive and finite")
        check_seed(self.seed)


@dataclass(frozen=True)
class EpochAccounting:
    """Cost bookkeeping: an epoch is n stochastic-gradient evaluations."""

    method: str
    n: int
    M: int = 1

    @property
    def units_per_iteration(self) -> float:
        if self.method == "sgd":
            return 1.0
        if self.method == "svrg":
            return (self.n + self.M) / self.M
        if self.method == "landweber":
            return float(self.n)
        raise ValueError(f"unknown method {self.method!r}")

    @property
    def iterations_per_epoch(self) -> float:
        return self.n / self.units_per_iteration

    def epochs(self, iterations) -> np.ndarray:
        return np.asarray(iterations, dtype=np.float64) / self.iterations_per_epoch

    def iterations(self, epochs: float) -> int:
        return max(1, int(round(epochs * self.iterations_per_epoch)))


@dataclass(frozen=True)
class Trajectory:
    method: str
    epochs: np.ndarray
    iterations: np.ndarray
    error_sq: np.ndarray
    residual_sq: np.ndarray | None
    meta: dict

    def __len__(self) -> int:
        return self.epochs.size


def checkpoint_iterations(acct: EpochAccounting, cfg: SolverConfig, total: int
                          ) -> np.ndarray:
    stride = max(1, round(cfg.checkpoint_every * acct.iterations_per_epoch))
    marks = set(range(0, total + 1, stride))
    if cfg.method == "svrg":
        marks.update(range(0, total + 1, cfg.M))  # anchor states
    marks.add(0)
    marks.add(total)
    return np.array(sorted(marks), dtype=np.int64)


def step_stability_bound(inst: ProblemInstance, method: str) -> float:
    if method == "landweber":
        return 1.0 / (inst.n * inst.gram.norm)
    return stability_step_bound(inst.a, inst.gram)


def step_is_admissible(inst: ProblemInstance, cfg: SolverConfig) -> bool:
    return cfg.c0 <= step_stability_bound(inst, cfg.method) * (1 + 1e-9)


def _validate_step(inst: ProblemInstance, cfg: SolverConfig) -> None:
    if not step_is_admissible(inst, cfg) and not cfg.allow_large_step:
        bound = step_stability_bound(inst, cfg.method)
        raise ValueError(
            f"step c0={cfg.c0:.6g} exceeds the stability bound {bound:.6g} for "
            f"{cfg.method}; pass allow_large_step to run anyway")


def _cell_data(y, n: int, runs: int) -> np.ndarray:
    """y as a (cells, n) float array, one data vector per cell; the runs
    must split into equal blocks, one per cell."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[None]
    if y.ndim != 2 or y.shape[1] != n:
        raise ValueError("data vector shape does not match the instance")
    if not y.shape[0] or runs % y.shape[0]:
        raise ValueError(f"{runs} runs do not split over {y.shape[0]} cells")
    return y


class _Recorder:
    """Collects per-checkpoint statistics from the batched iterate matrix,
    whose runs split into one block per row of the data y.

    With center_on_mean, sum_x[c, j] sums the iterates of cell c at
    checkpoint j and centered_sq holds each run's squared distance to its
    cell's mean ``sum_x[c, j] / runs_per_cell``: every run sits in one
    lockstep matrix, so one pass gives the means and the spread around
    them.  That center has the bits of ``sum_x / runs_per_cell`` taken after
    the pass, since sum_x starts at zero.
    """

    def __init__(self, inst: ProblemInstance, y: np.ndarray, cp: np.ndarray,
                 runs: int, *, want_residual: bool,
                 center_on_mean: bool = False):
        y = _cell_data(y, inst.n, runs)
        cells, per_cell = y.shape[0], runs // y.shape[0]
        self.inst, self.cp = inst, cp
        self.y = y.repeat(per_cell, axis=0) if want_residual else None
        self.blocks = [slice(k * per_cell, (k + 1) * per_cell)
                       for k in range(cells)]
        c = cp.size
        self.error_sq = np.empty((runs, c))
        self.residual_sq = np.empty((runs, c)) if want_residual else None
        self.sum_x = np.zeros((cells, c, inst.m)) if center_on_mean else None
        self.centered_sq = np.empty((runs, c)) if center_on_mean else None

    def record(self, j: int, x: np.ndarray) -> np.ndarray:
        diff = x - self.inst.x_dag
        err = np.einsum("rm,rm->r", diff, diff)
        self.error_sq[:, j] = err
        if self.residual_sq is not None:
            resid = residuals(self.inst.a, self.y, x)
            self.residual_sq[:, j] = np.einsum("rn,rn->r", resid, resid)
        if self.sum_x is not None:
            for k, rows in enumerate(self.blocks):
                cell_x = x[rows]
                self.sum_x[k, j] += cell_x.sum(axis=0)
                d = cell_x - self.sum_x[k, j] / cell_x.shape[0]
                self.centered_sq[rows, j] = np.einsum("rm,rm->r", d, d)
        return err


def _divergence_limit(inst: ProblemInstance) -> float:
    init = float(np.sum((inst.x0 - inst.x_dag) ** 2))
    ref = init if init > 0 else 1.0 + float(np.sum(inst.x_dag**2))
    return DIVERGENCE_FACTOR * ref


def residuals(a: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x - y for each row of the (runs, m) matrix x; y is one data vector
    or one per run."""
    return np.einsum("rm,nm->rn", x, a) - y


class FullGradient:
    """(1/n) A^T (A x - y_r) for each row of a (runs, m) matrix x, as
    g0_r + (x - x0) @ B with g0_r the gradient at inst.x0 on the run's cell
    data.  The product runs on x - x0 zero-padded to blocks of
    _GRADIENT_BLOCK rows, one stacked matmul over buffers allocated once; a
    call returns a view of the output buffer, valid until the next call."""

    def __init__(self, inst: ProblemInstance, y: np.ndarray, runs: int):
        y = _cell_data(y, inst.n, runs)
        self.x0 = inst.x0
        self.b = inst.gram.matrix
        # (cells, 1, m): each cell's g0, broadcast over its block of runs
        self.g0 = np.array([
            np.einsum("rn,nm->rm", residuals(inst.a, cell, inst.x0[None]),
                      inst.a) / inst.n for cell in y])
        blocks = -(-runs // _GRADIENT_BLOCK)
        self._shifted = np.zeros((blocks, _GRADIENT_BLOCK, inst.m))
        self._products = np.empty_like(self._shifted)
        self._shifted_rows = self._shifted.reshape(-1, inst.m)[:runs]
        self._gradient_rows = self._products.reshape(-1, inst.m)[:runs]
        self._cell_rows = self._gradient_rows.reshape(y.shape[0], -1, inst.m)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        np.subtract(x, self.x0, self._shifted_rows)
        np.matmul(self._shifted, self.b, out=self._products)
        self._cell_rows += self.g0
        return self._gradient_rows


class Lockstep:
    """Advances a (runs, m) matrix x of sgd or svrg iterates in place, one
    drawn row per run per step.  ``t`` counts the steps taken; svrg refreshes
    its anchor whenever t % M == 0."""

    def __init__(self, inst: ProblemInstance, y: np.ndarray, x: np.ndarray,
                 method: str, c0: float, M: int = 1):
        if method not in ("sgd", "svrg"):
            raise ValueError(f"the step kernel runs sgd and svrg, not {method!r}")
        y = _cell_data(y, inst.n, x.shape[0])
        self.a = inst.a
        self.x = x
        self.method, self.c0, self.M = method, c0, M
        self.t = 0
        self._rows = np.empty_like(x)
        self._d = np.empty(x.shape[0])
        if method == "sgd":
            # run r reads its data at self._y[self._offsets[r] + i]
            self._y = y.ravel()
            per_cell = x.shape[0] // y.shape[0]
            self._offsets = np.arange(y.shape[0]).repeat(per_cell) * inst.n
        else:
            self._anchor = np.empty_like(self.x)
            self._diff = np.empty_like(self.x)
            self._gradient = FullGradient(inst, y, x.shape[0])
            self._grad = None

    def advance(self, idx: np.ndarray) -> None:
        """One step per row of idx, a (steps, runs) array of row indices in
        [0, n); idx[s, r] is the row run r draws at step t + s."""
        a, x, c0 = self.a, self.x, self.c0
        rows, d = self._rows, self._d
        scale = d[:, None]
        if self.method == "sgd":
            # each run's data entries for every step, in one gather
            for i, y_i in zip(idx, self._y[idx + self._offsets]):
                a.take(i, 0, rows, "clip")
                np.einsum("rm,rm->r", rows, x, out=d)
                d -= y_i
                d *= c0
                rows *= scale
                x -= rows
            self.t += len(idx)
            return
        anchor, diff, grad = self._anchor, self._diff, self._grad
        M, t = self.M, self.t
        for i in idx:
            if t % M == 0:
                np.copyto(anchor, x)
                grad = self._gradient(anchor)
            a.take(i, 0, rows, "clip")
            np.subtract(x, anchor, diff)
            np.einsum("rm,rm->r", rows, diff, out=d)
            rows *= scale
            rows += grad
            rows *= c0
            x -= rows
            t += 1
        self._grad, self.t = grad, t


def run_batch(inst: ProblemInstance, y: np.ndarray, cfg: SolverConfig,
              subkeys, recorder: _Recorder) -> np.ndarray:
    """Advance all runs in lockstep, recording at recorder.cp.  Run r draws
    its rows from the index stream subkeys[r], a (seed, subkey) pair, and
    reads the data of its cell, a row of y; cfg gives the method, step and
    inner loop, and its seed is not read.  Returns a boolean mask of runs
    that tripped the divergence guard (they keep iterating; their records
    past the trip point are not meaningful)."""
    runs = len(subkeys)
    y = _cell_data(y, inst.n, runs)
    _validate_step(inst, cfg)

    n = inst.n
    total = int(recorder.cp[-1])
    limit = _divergence_limit(inst)
    diverged = np.zeros(runs, dtype=bool)

    x = np.tile(inst.x0, (runs, 1))
    cp = recorder.cp
    next_cp = 0
    if cp[0] == 0:
        recorder.record(0, x)
        next_cp = 1

    if cfg.method == "landweber":
        scale = cfg.c0 * n
        gradient = FullGradient(inst, y, runs)
        for t in range(1, total + 1):
            x = x - scale * gradient(x)
            if next_cp < cp.size and t == cp[next_cp]:
                err = recorder.record(next_cp, x)
                next_cp += 1
                diverged |= ~np.isfinite(err) | (err > limit)
        return diverged

    kernel = Lockstep(inst, y, x, cfg.method, cfg.c0, cfg.M)
    while kernel.t < total:
        start = kernel.t
        width = min(_CHUNK, total - start)
        idx = index_blocks(n, subkeys, start, width)
        while kernel.t < start + width:
            stop = min(start + width, int(cp[next_cp]))
            kernel.advance(idx[kernel.t - start:stop - start])
            if kernel.t == cp[next_cp]:
                err = recorder.record(next_cp, x)
                next_cp += 1
                diverged |= ~np.isfinite(err) | (err > limit)
    return diverged


def _metadata(inst: ProblemInstance, cfg: SolverConfig, acct: EpochAccounting,
              run: int, admissible: bool) -> dict:
    return {
        "method": cfg.method, "problem": inst.name, "n": inst.n, "m": inst.m,
        "nu": inst.nu, "c0": cfg.c0, "M": cfg.M, "seed": cfg.seed, "run": run,
        "max_epochs": cfg.max_epochs, "checkpoint_every": cfg.checkpoint_every,
        "iterations_per_epoch": acct.iterations_per_epoch,
        "step_admissible": admissible,
    }


def solve(inst: ProblemInstance, y: np.ndarray, cfg: SolverConfig,
          run: int = 0) -> Trajectory:
    """One seeded trajectory; raises DivergenceError if the guard trips."""
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    total = acct.iterations(cfg.max_epochs)
    cp = checkpoint_iterations(acct, cfg, total)
    rec = _Recorder(inst, y, cp, 1, want_residual=True)
    admissible = step_is_admissible(inst, cfg)
    diverged = run_batch(inst, y, cfg, [(cfg.seed, run)], rec)
    if diverged[0]:
        raise DivergenceError(
            f"{cfg.method} with step c0={cfg.c0:.6g} left the guard region "
            f"(error above {DIVERGENCE_FACTOR:.0e} times its initial size)")
    return Trajectory(
        method=cfg.method, epochs=acct.epochs(cp), iterations=cp,
        error_sq=rec.error_sq[0],
        residual_sq=None if rec.residual_sq is None else rec.residual_sq[0],
        meta=_metadata(inst, cfg, acct, run, admissible))


def oracle_stop(traj: Trajectory) -> tuple[float, float]:
    """Epoch and squared error of the best recorded checkpoint (first on ties)."""
    j = int(np.argmin(traj.error_sq))
    return float(traj.epochs[j]), float(traj.error_sq[j])


def trajectory_rows(traj: Trajectory):
    resid = traj.residual_sq
    for j in range(len(traj)):
        yield (float(traj.epochs[j]), float(traj.error_sq[j]),
               float("nan") if resid is None else float(resid[j]))


def write_trajectory(traj: Trajectory, csv_path, meta_path) -> None:
    from . import fileio
    fileio.write_csv(csv_path, ["epoch", "error_sq", "residual_sq"],
                     trajectory_rows(traj))
    fileio.dump_json({"schema": fileio.SCHEMA_VERSION,
                      "kind": "trajectory_meta", **traj.meta}, meta_path)
