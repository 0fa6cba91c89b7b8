"""Stochastic and deterministic iterations for the regularized least-squares
functional J(x) = (1/2n) ||A x - y||^2.

Three methods share one batched core: plain stochastic gradient steps,
a variance-reduced double loop with full-gradient anchors, and deterministic
full-gradient descent.  All inner products go through ``einsum`` reductions,
which are bitwise independent of the batch size; with data generated by
``problems.exact_data`` this makes x0 = x_dag with exact data a bitwise fixed
point of every method.

Update arithmetic (fixed, relied on by replay tests).  The stochastic and
anchored steps run in place on buffers allocated once per ``Lockstep``, one
numpy call per statement, in this order:
    gather:         A.take(idx, 0, rows, "clip")
    stochastic:     d = einsum(rows, X);  d -= y[idx];  d *= c0
                    rows *= d[:,None];  X -= rows
    anchored:       diff = X - Xa;  d = einsum(rows, diff)
                    rows *= d[:,None];  rows += G;  rows *= c0;  X -= rows
    full gradient:  resid = einsum(X, A) - y;      G = einsum(resid, A) / n
    descent:        X = X - (c0*n)*G
Every entry gets the same IEEE operations, in the same order, as in the
out-of-place forms X - (c0*d)[:,None]*rows and X - c0*(d[:,None]*rows + G),
so the kernel's bits equal those forms' bits.  The gather uses mode "clip"
because the default "raise" buffers the copy: 100 rows of 1000 took about
100 us against 27 us on a 2-vCPU Xeon VM.  Indices are already reduced modulo
n, so clipping never changes one.

One epoch is n stochastic-gradient evaluations: n plain stochastic steps,
n*M/(n+M) anchored inner steps (each anchor adds a full-gradient's worth of
work), or a single descent step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance
from .rng import index_blocks
from .spectral import stability_step_bound

_CHUNK = 4096  # iterations per index-stream draw
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
    record_residual: bool = True
    allow_large_step: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choices: {METHODS}")
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if not self.max_epochs > 0:
            raise ValueError("max_epochs must be positive")
        if self.M < 1:
            raise ValueError("inner loop length M must be >= 1")
        if not self.checkpoint_every > 0:
            raise ValueError("checkpoint_every must be positive")


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


class _Recorder:
    """Collects per-checkpoint statistics from the batched iterate matrix.

    centered_sq holds each run's squared distance to ``centers[j]`` or, with
    center_on_mean, to the batch mean ``sum_x[j] / runs`` of the same
    checkpoint: every run sits in one lockstep matrix, so one pass gives the
    mean and the spread around it.  That center has the bits of
    ``sum_x / runs`` taken after the pass, since sum_x starts at zero.
    """

    def __init__(self, inst: ProblemInstance, y: np.ndarray, cp: np.ndarray,
                 runs: int, *, want_residual: bool, sum_iterates: bool = False,
                 centers: np.ndarray | None = None,
                 center_on_mean: bool = False):
        self.inst, self.y, self.cp = inst, y, cp
        c = cp.size
        self.error_sq = np.empty((runs, c))
        self.residual_sq = np.empty((runs, c)) if want_residual else None
        self.sum_x = (np.zeros((c, inst.m)) if sum_iterates or center_on_mean
                      else None)
        self.centers = centers
        self.center_on_mean = center_on_mean
        self.centered_sq = (np.empty((runs, c))
                            if centers is not None or center_on_mean else None)

    def record(self, j: int, x: np.ndarray) -> np.ndarray:
        diff = x - self.inst.x_dag
        err = np.einsum("rm,rm->r", diff, diff)
        self.error_sq[:, j] = err
        if self.residual_sq is not None:
            resid = np.einsum("rm,nm->rn", x, self.inst.a) - self.y
            self.residual_sq[:, j] = np.einsum("rn,rn->r", resid, resid)
        if self.sum_x is not None:
            self.sum_x[j] += x.sum(axis=0)
        if self.centered_sq is not None:
            if self.center_on_mean:
                d = x - self.sum_x[j] / x.shape[0]
            else:
                d = x - self.centers[j]
            self.centered_sq[:, j] = np.einsum("rm,rm->r", d, d)
        return err


def _divergence_limit(inst: ProblemInstance) -> float:
    init = float(np.sum((inst.x0 - inst.x_dag) ** 2))
    ref = init if init > 0 else 1.0 + float(np.sum(inst.x_dag**2))
    return DIVERGENCE_FACTOR * ref


class Lockstep:
    """Advances a (runs, m) matrix x of sgd or svrg iterates in place, one
    drawn row per run per step.  ``t`` counts the steps taken; svrg refreshes
    its anchor whenever t % M == 0."""

    def __init__(self, a: np.ndarray, y: np.ndarray, x: np.ndarray,
                 method: str, c0: float, M: int = 1):
        if method not in ("sgd", "svrg"):
            raise ValueError(f"the step kernel runs sgd and svrg, not {method!r}")
        self.a = a
        self.y = np.asarray(y, dtype=np.float64)
        self.x = x
        self.method, self.c0, self.M = method, c0, M
        self.t = 0
        self._rows = np.empty_like(x)
        self._d = np.empty(x.shape[0])
        if method == "svrg":
            self._anchor = np.empty_like(self.x)
            self._diff = np.empty_like(self.x)
            self._grad = None

    def advance(self, idx: np.ndarray) -> None:
        """One step per row of idx, a (steps, runs) array of row indices in
        [0, n); idx[s, r] is the row run r draws at step t + s."""
        a, y, x, c0 = self.a, self.y, self.x, self.c0
        rows, d = self._rows, self._d
        scale = d[:, None]
        if self.method == "sgd":
            for i in idx:
                a.take(i, 0, rows, "clip")
                np.einsum("rm,rm->r", rows, x, out=d)
                d -= y[i]
                d *= c0
                rows *= scale
                x -= rows
            self.t += len(idx)
            return
        anchor, diff, grad = self._anchor, self._diff, self._grad
        n, M, t = a.shape[0], self.M, self.t
        for i in idx:
            if t % M == 0:
                np.copyto(anchor, x)
                resid = np.einsum("rm,nm->rn", anchor, a) - y
                grad = np.einsum("rn,nm->rm", resid, a) / n
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
    """Advance all runs in lockstep, recording at recorder.cp.  Returns a
    boolean mask of runs that tripped the divergence guard (they keep
    iterating; their records past the trip point are not meaningful)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (inst.n,):
        raise ValueError("data vector shape does not match the instance")
    _validate_step(inst, cfg)

    a = inst.a
    n = inst.n
    runs = len(subkeys)
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
        for t in range(1, total + 1):
            resid = np.einsum("rm,nm->rn", x, a) - y
            grad = np.einsum("rn,nm->rm", resid, a) / n
            x = x - scale * grad
            if next_cp < cp.size and t == cp[next_cp]:
                err = recorder.record(next_cp, x)
                next_cp += 1
                diverged |= ~np.isfinite(err) | (err > limit)
        return diverged

    kernel = Lockstep(a, y, x, cfg.method, cfg.c0, cfg.M)
    while kernel.t < total:
        start = kernel.t
        width = min(_CHUNK, total - start)
        idx = index_blocks(cfg.seed, n, subkeys, start, width)
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
    rec = _Recorder(inst, y, cp, 1, want_residual=cfg.record_residual)
    admissible = step_is_admissible(inst, cfg)
    diverged = run_batch(inst, y, cfg, [run], rec)
    if diverged[0]:
        raise DivergenceError(
            f"{cfg.method} with step c0={cfg.c0:.6g} left the guard region "
            f"(error above {DIVERGENCE_FACTOR:.0e} times its initial size)")
    return Trajectory(
        method=cfg.method, epochs=acct.epochs(cp), iterations=cp,
        error_sq=rec.error_sq[0],
        residual_sq=None if rec.residual_sq is None else rec.residual_sq[0],
        meta=_metadata(inst, cfg, acct, run, admissible))


def sgd_run(inst, y, cfg: SolverConfig, run: int = 0) -> Trajectory:
    if cfg.method != "sgd":
        raise ValueError("config method must be 'sgd'")
    return solve(inst, y, cfg, run)


def svrg_run(inst, y, cfg: SolverConfig, run: int = 0) -> Trajectory:
    if cfg.method != "svrg":
        raise ValueError("config method must be 'svrg'")
    return solve(inst, y, cfg, run)


def landweber_run(inst, y, cfg: SolverConfig) -> Trajectory:
    if cfg.method != "landweber":
        raise ValueError("config method must be 'landweber'")
    return solve(inst, y, cfg)


def oracle_stop(traj: Trajectory) -> tuple[float, float]:
    """Epoch and squared error of the best recorded checkpoint (first on ties)."""
    j = int(np.argmin(traj.error_sq))
    return float(traj.epochs[j]), float(traj.error_sq[j])


def trajectory_rows(traj: Trajectory):
    resid = traj.residual_sq
    for j in range(len(traj)):
        yield (float(traj.epochs[j]), float(traj.error_sq[j]),
               float("nan") if resid is None else float(resid[j]))


def write_trajectory(traj: Trajectory, csv_path, meta_path=None) -> None:
    from . import fileio
    fileio.write_csv(csv_path, ["epoch", "error_sq", "residual_sq"],
                     trajectory_rows(traj))
    if meta_path is not None:
        fileio.dump_json({"schema": fileio.SCHEMA_VERSION,
                          "kind": "trajectory_meta", **traj.meta}, meta_path)
