"""Stochastic and deterministic iterations for the regularized least-squares
functional J(x) = (1/2n) ||A x - y||^2.

Three methods share one batched core: plain stochastic gradient steps, a
variance-reduced double loop with full-gradient anchors, and deterministic
full-gradient descent (Landweber), which is the double loop with an anchor
at every step.  Row dots go through ``einsum`` reductions and every matrix
product through fixed-size BLAS blocks, both bitwise independent of the
batch size.  With data generated by ``problems.exact_data``, x0 = x_dag with
exact data is a bitwise fixed point of every method.

A batch may hold several cells: runs on one instance with one method, step
and inner loop, but each cell with its own data vector.  The data come as a
(cells, n) array y, and the runs split into equal contiguous blocks, one per
cell, in the order of y's rows; each run reads only its own cell's data,
here written y_r.  A 1-d y is one cell.

Update arithmetic (fixed, relied on by replay tests).  An sgd or svrg step
moves run r's iterate along its drawn row a_i, and the anchor gradient
A^T (A xa - y_r)/n lies in the row space too.  So the step kernel keeps each
iterate as X = x0 + (C + W) @ A, with C and W (runs, n) matrices of row
coordinates: W holds the steps since the last fold, C the folded ones.  It
works on K = A A^T (``ProblemInstance.row_gram``).  Per step it gathers one
row of K per run, takes one row dot and changes one coordinate of W per run
(svrg and landweber add one shift of W), one numpy call per statement:
    gather:     K.take(idx, 0, rows, "clip")
    sgd:        d = einsum(rows, W);  d += D[idx];  d *= c0;  W[idx] -= d
    svrg:       d = einsum(rows, W);  d *= c0;  W[idx] -= d;  W -= D
    landweber:  the svrg statements
Here D = s (A Xc - y_r) is the dual of the folded iterate Xc = x0 + C @ A,
with s = 1 for sgd, s = c0/n for svrg and s = c0 for landweber, whose
folded iterate is their anchor; D[idx] and W[idx] mean each run's entry at
its own drawn index.  W folds into C by one rule for all methods, and every
product is taken on its left factor zero-padded to blocks of
_GRADIENT_BLOCK rows, one stacked matmul each:
    fold:       C += W;  D += s (W @ K);  W = 0, after every step that
                ends with t % every == 0, every = n for sgd (one epoch), M
                for svrg (one anchor) and 1 for landweber
    iterate:    X = (C + W) @ A + x0, built only when a caller asks for X
    start:      C = 0 and D = s residuals(A, y_r, x0), taken once per cell
    residual:   residuals(A, y_r, X) = einsum(X, A) - y_r, for the recorded
                residual
    error:      einsum(X - x_dag, X - x_dag), per run
On rows orthogonal to rounding, K is diagonal up to entries that cannot be
told apart from zero, and the kernel takes the diagonal form: it reads the
diagonal kd of K (``ProblemInstance.row_gram_diagonal``) in place of K,
and only the two statements that read K change, besides the error:
    row dot:    d = kd[idx] * W[idx], kd[idx] gathered once per advance call
    fold:       D += s (W * kd), elementwise in place of W @ K
    error:      v = (C + W) + q;  |X - x_dag|^2 = |z|^2 + einsum(v, kd v + 2 g)
The selection comes from the instance, not from an option: the diagonal
form is taken when row_orthogonality_gap <= max(n, m) eps, the rounding
bound of the dot products K is built from.  Preconditioned rows take it,
raw rows do not.  Where K's off-diagonal entries are exact zeros the two
forms give the same bits for W, D, C and X; elsewhere they differ at
roundoff.  The error is read off the coordinates with no product by A,
through q, z and g built once per kernel from e0 = x0 - x_dag, so that
e0 = q @ A + z:
    q[i] = (a_i . e0) / kd[i] on kept rows, else 0;  z = e0 - q @ A
    g[i] = a_i . z on dropped rows, else 0
A row is kept when kd[i] > sqrt(max(n, m) eps) max kd.  The selection bounds
each off-diagonal |K[i, j]| by max(n, m) eps max kd, so kept rows are
orthogonal to within a cosine of sqrt(max(n, m) eps), and z is orthogonal
to them to that accuracy.  The other rows hold little more than rounding of
the rotation: two of them can point almost the same way, so a projection on
them is meaningless, and their part of e0 stays in z.  The cross term 2 v g
carries their overlap with z, which the error needs: the error expands
|v @ A + z|^2 = v K v + 2 v (A z) + |z|^2 with K read as diagonal and A z
as zero on the kept rows.  With x0 = x_dag, q, z and g are exact zeros.
A landweber step starts at W = 0, so its row dot is exactly zero whatever
the index (``run_batch`` passes row 0 and draws none), W -= D leaves
W = -c0 (A Xc - y_r), and the fold is the step Xc -= c0 A^T (A Xc - y_r),
taken on C.
The fold grid depends on the step count alone, so a run's bits depend
neither on where its advance calls stop nor on the checkpoint grid or
_CHUNK.  The gather uses mode "clip" because the default "raise" buffers
the copy: 100 rows of 1000 took about 100 us against 27 us on a 2-vCPU Xeon
VM.  Indices are already reduced modulo n, so clipping never changes one.

Recording.  ``run_batch`` records its checkpoints in blocks.  One advance
call runs through up to ``slots`` checkpoints of an index chunk, and at
each checkpoint step, after that step's fold, it copies C + W into the next
slot of a padded snapshot block, one np.add per checkpoint.  The recorder
then reads the block at once (``Lockstep.read``): the error statements and
the iterate's product run on a (slots, runs, n) block, the product as one
stacked matmul of the same 32-row blocks, and the einsum reductions per
(slot, run) row.  Each entry gets the arithmetic it gets alone, so a block
of one snapshot, which ``error_sq()`` and ``iterates()`` read, gives the
bits of any other block.  C never holds -0.0, so on the fold grid, where
W = 0, the snapshot C + W is C bit for bit.  A block holds as many
snapshots as fit in _SNAPSHOT_BYTES (1 MiB), at least one and at most the
grid's checkpoint count.  Neither the fold grid nor any entry's arithmetic
depends on where a block or a chunk ends, so neither _SNAPSHOT_BYTES nor
_CHUNK changes a bit.

Every run starts at x0, and at an exact-data start x0 = x_dag the dual D
is exactly zero, so W and C stay zero and X = 0 @ A + x0 = x0.  Each BLAS
block has the same shape whatever the batch, so a run's bits depend neither
on the other runs nor on its place in the batch; they can depend on the
BLAS build and its thread count.

One epoch is n stochastic-gradient evaluations: n plain stochastic steps,
n*M/(n+M) anchored inner steps (each anchor adds a full-gradient's worth of
work), or a single landweber step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import _EPS, ProblemInstance
from .rng import check_seed, index_blocks
from .spectral import step_constant

_CHUNK = 4096  # iterations per index-stream draw
_GRADIENT_BLOCK = 32  # rows per block of every padded BLAS product
_SNAPSHOT_BYTES = 1 << 20  # C + W snapshots a kernel keeps for one block
DIVERGENCE_FACTOR = 1e12
MAX_CHECKPOINTS = 10**6  # about 100 times the longest record of the rate grid

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
        steps = epochs * self.iterations_per_epoch
        if not math.isfinite(steps):
            raise ValueError(f"{epochs!r} epochs overflow the iteration count")
        return max(1, int(round(steps)))


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


def checkpoint_iterations(acct: EpochAccounting, cfg: SolverConfig
                          ) -> np.ndarray:
    total = acct.iterations(cfg.max_epochs)
    # a stride past the horizon marks the same checkpoints as one at it
    stride = max(1, round(min(cfg.checkpoint_every * acct.iterations_per_epoch,
                              total)))
    # the multiples of stride and, for svrg, of M, counted before any is built
    count = total // stride + 1
    if cfg.method == "svrg":
        count += total // cfg.M - total // math.lcm(stride, cfg.M)
    if count > MAX_CHECKPOINTS:
        raise ValueError(f"max_epochs {cfg.max_epochs!r} at checkpoint_every "
                         f"{cfg.checkpoint_every!r} needs more than "
                         f"{MAX_CHECKPOINTS} checkpoints")
    marks = set(range(0, total + 1, stride))
    if cfg.method == "svrg":
        marks.update(range(0, total + 1, cfg.M))  # anchor states
    marks.add(0)
    marks.add(total)
    return np.array(sorted(marks), dtype=np.int64)


def step_stability_bound(inst: ProblemInstance, method: str) -> float:
    """Largest admissible c0.  Landweber's full-gradient step reads the
    spectrum: 1 / (n ||B||), which builds inst.gram.  An sgd or svrg row
    step is bounded by the step unit c = 1 / max_i ||a_i||^2
    (``spectral.step_constant``), which reads only the row norms and governs
    1/||B|| since ||B|| <= mean_i ||a_i||^2; inst.gram is not touched."""
    if method == "landweber":
        norm = inst.gram.norm
        if norm <= 0:
            raise ValueError("all rows are zero; no admissible step exists")
        return 1.0 / (inst.n * norm)
    return step_constant(inst.a)


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
    whose runs split into one block per row of the data y.  The checkpoint
    grid cp and its accounting acct come from cfg.

    With center_on_mean, sum_x[c, j] sums the iterates of cell c at
    checkpoint j and centered_sq holds each run's squared distance to its
    cell's mean ``sum_x[c, j] / runs_per_cell``: every run sits in one
    lockstep matrix, so one pass gives the means and the spread around
    them.  That center has the bits of ``sum_x / runs_per_cell`` taken after
    the pass, since sum_x starts at zero.
    """

    def __init__(self, inst: ProblemInstance, y: np.ndarray,
                 cfg: SolverConfig, runs: int, *, want_residual: bool,
                 center_on_mean: bool = False):
        self.inst = inst
        self.acct = EpochAccounting(cfg.method, inst.n, cfg.M)
        self.cp = cp = checkpoint_iterations(self.acct, cfg)
        y = _cell_data(y, inst.n, runs)
        cells, per_cell = y.shape[0], runs // y.shape[0]
        self.y = y.repeat(per_cell, axis=0) if want_residual else None
        self.blocks = [slice(k * per_cell, (k + 1) * per_cell)
                       for k in range(cells)]
        c = cp.size
        self.error_sq = np.empty((runs, c))
        self.residual_sq = np.empty((runs, c)) if want_residual else None
        self.sum_x = np.zeros((cells, c, inst.m)) if center_on_mean else None
        self.centered_sq = np.empty((runs, c)) if center_on_mean else None

    def record(self, j: int, kernel: Lockstep, count: int) -> np.ndarray:
        """Records checkpoints j, ..., j + count - 1 off the kernel's first
        count snapshots (``Lockstep.read``); returns their (count, runs)
        squared errors."""
        want_x = self.residual_sq is not None or self.sum_x is not None
        err, xs = kernel.read(count, want_x)
        self.error_sq[:, j:j + count] = err.T
        for j, x in enumerate(xs if want_x else (), j):
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


def _padded(runs: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeros in blocks of _GRADIENT_BLOCK rows, the stacked-matmul layout
    whose products are batch-invariant, and the view of its first runs rows."""
    blocks = np.zeros((-(-runs // _GRADIENT_BLOCK), _GRADIENT_BLOCK, width))
    return blocks, blocks.reshape(-1, width)[:runs]


class Lockstep:
    """Advances the iterates of `runs` runs from inst.x0 by any of the three
    methods, one drawn row per run per step, in the row coordinates of the
    module docstring.  ``t`` counts the steps taken, and W folds into C
    after every step that ends with t % every == 0: every = n for sgd, once
    per epoch; every = M for svrg, so the folded iterate is its anchor; and
    every = 1 for landweber, an anchor at every step."""

    def __init__(self, inst: ProblemInstance, y: np.ndarray, runs: int,
                 method: str, c0: float, M: int = 1, snapshots: int = 1):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choices: {METHODS}")
        n, m = inst.a.shape
        y = _cell_data(y, n, runs)
        self.a, self.k = inst.a, inst.row_gram
        self.kd = inst.row_gram_diagonal
        self.x0, self.x_dag = inst.x0, inst.x_dag
        self.method, self.c0 = method, c0
        self.every, self._scale = {"sgd": (n, 1.0), "svrg": (M, c0 / n),
                                   "landweber": (1, c0)}[method]
        self.t = 0
        # scale (A x0 - y_r): each cell's residual, over its block of runs
        self._dual = np.zeros((runs, n))
        cell_dual = self._dual.reshape(y.shape[0], -1, n)
        cell_dual += residuals(self.a, y, inst.x0[None])[:, None]
        self._dual *= self._scale
        self._rows = np.empty((runs, n))
        self._d = np.empty(runs)
        self._w_blocks, self._w = _padded(runs, n)
        self._w_flat = self._w.reshape(-1)
        self._c = np.zeros((runs, n))
        # run r's entry i of a (runs, n) matrix sits at flat r*n + i
        self._offsets = np.arange(runs) * n
        # up to `snapshots` slots of C + W within _SNAPSHOT_BYTES, padded as
        # W, and one output buffer for their iterates (C + W) @ A and the
        # fold's W @ K, or W * kd in the diagonal form
        size = self._w_blocks.shape[0] * _GRADIENT_BLOCK
        self.slots = max(1, min(snapshots, _SNAPSHOT_BYTES // (8 * size * n)))
        self._snap_blocks = np.zeros((self.slots, *self._w_blocks.shape))
        self._snaps = self._snap_blocks.reshape(self.slots, size, n)[:, :runs]
        out = np.zeros(max(self.slots * size * m, size * n))
        self._by_a = out[:self.slots * size * m].reshape(
            self.slots, -1, _GRADIENT_BLOCK, m)
        self._by_k = out[:size * n].reshape(-1, _GRADIENT_BLOCK, n)
        self._by_a_rows = self._by_a.reshape(self.slots, size, m)[:, :runs]
        self._by_k_rows = self._by_k.reshape(-1, n)[:runs]
        if self.kd is not None:
            self._kd_v = np.empty((self.slots, runs, n))  # kd v + 2 g
            self._q, self._z_sq, self._g2 = _error_coordinates(inst)

    def _fold(self) -> None:
        """C += W and dual += scale (W @ K), or scale (W * kd) in the
        diagonal form; W = 0."""
        self._c += self._w
        if self.kd is None:
            np.matmul(self._w_blocks, self.k, out=self._by_k)
        else:
            np.multiply(self._w, self.kd, out=self._by_k_rows)
        self._by_k_rows *= self._scale
        self._dual += self._by_k_rows
        self._w.fill(0.0)

    def advance(self, idx: np.ndarray, marks=()) -> None:
        """One step per row of idx, a (steps, runs) array of row indices in
        [0, n); idx[s, r] is the row run r draws at step t + s.  When t
        reaches marks[k], ascending step counts in [t, t + steps], at most
        ``slots`` of them, C + W is copied into snapshot slot k for
        ``read``."""
        k, kd, w, w_flat, c0 = self.k, self.kd, self._w, self._w_flat, self.c0
        dual, dual_flat = self._dual, self._dual.reshape(-1)
        rows, d, every, t, c = self._rows, self._d, self.every, self.t, self._c
        sgd = self.method == "sgd"
        marks = iter([*marks, -1])  # -1: no snapshot past the last mark
        snaps, mark = iter(self._snaps), next(marks)
        if mark == t:
            np.add(c, w, out=next(snaps))
            mark = next(marks)
        # the diagonal form's K[i, i] of every step and run, in one gather;
        # the dense form zips idx in its place and does not read it
        kd_idx = idx if kd is None else kd.take(idx)
        for i, at, kd_i in zip(idx, idx + self._offsets, kd_idx):
            if kd is None:
                k.take(i, 0, rows, "clip")
                np.einsum("rn,rn->r", rows, w, out=d)
            else:
                np.multiply(kd_i, w_flat[at], out=d)
            if sgd:
                d += dual_flat[at]
            d *= c0
            w_flat[at] -= d
            if not sgd:
                w -= dual
            t += 1
            if t % every == 0:
                self._fold()
            if t == mark:
                np.add(c, w, out=next(snaps))
                mark = next(marks)
        self.t = t

    def _iterates(self, count: int) -> np.ndarray:
        np.matmul(self._snap_blocks[:count], self.a, out=self._by_a[:count])
        x = self._by_a_rows[:count]
        x += self.x0
        return x

    def read(self, count: int, iterates: bool = False) -> tuple:
        """The squared errors |X - x_dag|^2 at the first count snapshots, a
        (count, runs) array, and the (count, runs, m) iterates
        X = (C + W) @ A + x0 there, or None in the diagonal form unless
        iterates is set.  The dense form reads the error off X, the
        diagonal form off the coordinates, with no product by A.  A snapshot
        is read once; X is valid until the next advance call."""
        x = self._iterates(count) if self.kd is None or iterates else None
        if self.kd is None:
            diff = x - self.x_dag
            return np.einsum("krm,krm->kr", diff, diff), x
        v, kd_v = self._snaps[:count], self._kd_v[:count]
        v += self._q
        np.multiply(v, self.kd, out=kd_v)
        kd_v += self._g2
        return np.einsum("krn,krn->kr", v, kd_v) + self._z_sq, x

    def error_sq(self) -> np.ndarray:
        """Each run's squared error after t steps: ``read`` of one
        snapshot."""
        np.add(self._c, self._w, out=self._snaps[0])
        return self.read(1)[0][0]

    def iterates(self) -> np.ndarray:
        """The (runs, m) iterates (C + W) @ A + x0 after t steps.  Not to be
        written; valid until the next advance call."""
        np.add(self._c, self._w, out=self._snaps[0])
        return self._iterates(1)[0]


def _error_coordinates(inst: ProblemInstance) -> tuple:
    """q, |z|^2 and 2 g of the diagonal form's error (module docstring),
    from e0 = x0 - x_dag."""
    a, kd = inst.a, inst.row_gram_diagonal
    e0 = inst.x0 - inst.x_dag
    kept = kd > math.sqrt(max(a.shape) * _EPS) * kd.max()
    q = np.zeros(inst.n)
    np.divide(np.einsum("nm,m->n", a, e0), kd, out=q, where=kept)
    z = e0 - np.einsum("n,nm->m", q, a)
    g2 = np.einsum("nm,m->n", a, z)
    g2[kept] = 0.0
    g2 *= 2.0
    return q, float(np.einsum("m,m->", z, z)), g2


def run_batch(inst: ProblemInstance, y: np.ndarray, cfg: SolverConfig,
              subkeys, recorder: _Recorder) -> np.ndarray:
    """Advance all runs in lockstep, recording at recorder.cp in blocks of
    checkpoints (module docstring, Recording).  Run r draws its rows from
    the index stream subkeys[r], a (seed, subkey) pair (landweber draws
    none), and reads the data of its cell, a row of y; cfg gives the method,
    step and inner loop, and its seed is not read.  Returns a boolean mask of
    runs that tripped the divergence guard (they keep iterating; their
    records past the trip point are not meaningful)."""
    runs = len(subkeys)
    _validate_step(inst, cfg)

    n, cp = inst.n, recorder.cp
    total = int(cp[-1])
    limit = _divergence_limit(inst)
    diverged = np.zeros(runs, dtype=bool)

    kernel = Lockstep(inst, y, runs, cfg.method, cfg.c0, cfg.M, cp.size)
    done = start = 0  # checkpoints recorded; the first step of idx
    idx = np.empty((0, runs), dtype=np.int64)
    while done < cp.size:
        if kernel.t == start + len(idx):  # draw the next chunk
            start, width = kernel.t, min(_CHUNK, total - kernel.t)
            idx = (np.zeros((width, runs), dtype=np.int64)
                   if cfg.method == "landweber"
                   else index_blocks(n, subkeys, start, width))
        # the next block: up to kernel.slots checkpoints in this chunk
        end = start + len(idx)
        marks = cp[done:done + kernel.slots]
        marks = marks[:np.searchsorted(marks, end, "right")]
        stop = int(marks[-1]) if marks.size == kernel.slots else end
        kernel.advance(idx[kernel.t - start:stop - start], marks.tolist())
        if marks.size:
            err = recorder.record(done, kernel, marks.size)
            done += marks.size
            diverged |= (~np.isfinite(err) | (err > limit)).any(axis=0)
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
    rec = _Recorder(inst, y, cfg, 1, want_residual=True)
    acct, cp = rec.acct, rec.cp
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
