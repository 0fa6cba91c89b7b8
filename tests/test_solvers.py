"""Iteration correctness: replay oracles, accounting, determinism, guards."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from stochreg.fileio import read_csv
from stochreg.problems import (add_noise, gen_shaw, generate, make_instance,
                               precondition, smooth_solution)
from stochreg.rng import NOISE_SUBKEY, IndexStream, index_blocks
from stochreg.spectral import step_constant
from stochreg import solvers
from stochreg.analysis import enumerate_exact_moments, error_curves, mc_moments
from stochreg.solvers import (_CHUNK, _GRADIENT_BLOCK, MAX_CHECKPOINTS,
                              DivergenceError, EpochAccounting, Lockstep, SolverConfig, Trajectory, _Recorder,
                              _divergence_limit, _error_coordinates,
                              checkpoint_iterations, oracle_stop, residuals,
                              run_batch,
                              solve, step_is_admissible, step_stability_bound,
                              write_trajectory)

from recorders import SummingRecorder


@pytest.fixture(scope="module")
def noisy_shaw():
    inst = gen_shaw(12)
    data = add_noise(inst, 5e-2, seed=21)
    return inst, data.y


def replay_errors(inst, y, cfg, run, checkpoints):
    """Plain-loop reimplementation of the two stochastic updates."""
    idx = IndexStream(cfg.seed, inst.n, subkey=run).block(0, int(checkpoints[-1]))
    x = inst.x0.astype(float).copy()
    out = {}
    anchor = grad = None
    if checkpoints[0] == 0:
        out[0] = np.dot(x - inst.x_dag, x - inst.x_dag)
    for t in range(int(checkpoints[-1])):
        i = int(idx[t])
        row = inst.a[i]
        if cfg.method == "svrg":
            if t % cfg.M == 0:
                anchor = x.copy()
                grad = inst.a.T @ (inst.a @ anchor - y) / inst.n
            x = x - cfg.c0 * (np.dot(row, x - anchor) * row + grad)
        else:
            x = x - cfg.c0 * (np.dot(row, x) - y[i]) * row
        if t + 1 in out or (t + 1) in set(int(c) for c in checkpoints):
            out[t + 1] = np.dot(x - inst.x_dag, x - inst.x_dag)
    return np.array([out[int(c)] for c in checkpoints])


@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 4)])
def test_stochastic_updates_match_plain_loop(noisy_shaw, method, M):
    inst, y = noisy_shaw
    c0 = 0.5 * step_stability_bound(inst, method)
    cfg = SolverConfig(method=method, c0=c0, max_epochs=3.0, M=M, seed=7)
    traj = solve(inst, y, cfg, run=2)
    expected = replay_errors(inst, y, cfg, 2, traj.iterations)
    assert_allclose(traj.error_sq, expected, rtol=1e-10,
                    atol=1e-14 * (1 + expected.max()))


def test_landweber_matches_normal_equation_recursion(noisy_shaw):
    inst, y = noisy_shaw
    c0 = step_stability_bound(inst, "landweber")
    cfg = SolverConfig(method="landweber", c0=c0, max_epochs=5.0)
    traj = solve(inst, y, cfg)
    x = inst.x0.copy()
    expected = [np.dot(x - inst.x_dag, x - inst.x_dag)]
    for _ in range(5):
        x = x - c0 * inst.a.T @ (inst.a @ x - y)
        expected.append(np.dot(x - inst.x_dag, x - inst.x_dag))
    assert_allclose(traj.error_sq, expected, rtol=1e-10)


def test_svrg_single_step_loop_is_scaled_descent():
    # with M = 1 every inner step starts at its anchor, so the correction
    # vanishes and the method is full-gradient descent at step c0; the
    # deterministic method takes the same path at step c0/n (dyadic values
    # keep the comparison bitwise)
    a = np.array([[1.0, 0.0], [0.0, 2.0], [2.0, 1.0], [0.0, 1.0]])
    inst = make_instance("dyadic", a, np.array([0.5, -0.25]))
    y = inst.y_dag + np.array([0.25, 0.0, -0.125, 0.0625])
    c0 = 0.125
    svrg = solve(inst, y, SolverConfig(method="svrg", c0=c0, max_epochs=8.0,
                                       M=1, seed=0))
    lm = solve(inst, y, SolverConfig(method="landweber", c0=c0 / 4,
                                     max_epochs=8.0))
    k = min(svrg.iterations.size, lm.iterations.size)
    assert_array_equal(svrg.iterations[:k], lm.iterations[:k])
    assert_array_equal(svrg.error_sq[:k], lm.error_sq[:k])


def test_landweber_solves_scaled_identity_in_one_step():
    inst = make_instance("easy", 2.0 * np.eye(2), np.array([1.0, -1.0]))
    cfg = SolverConfig(method="landweber",
                       c0=step_stability_bound(inst, "landweber"),
                       max_epochs=3.0)
    traj = solve(inst, inst.y_dag, cfg)
    assert traj.error_sq[0] > 0
    assert np.all(traj.error_sq[1:] == 0.0)


@pytest.mark.parametrize("method", ["sgd", "svrg", "landweber"])
def test_exact_data_fixed_point(method):
    base = gen_shaw(10)
    inst = make_instance(base.name, base.a, base.x_dag, x0=base.x_dag)
    cfg = SolverConfig(method=method, c0=0.9 * step_stability_bound(inst, method),
                       max_epochs=4.0, M=3, seed=1)
    traj = solve(inst, inst.y_dag, cfg)
    assert np.all(traj.error_sq == 0.0)


def test_same_seed_same_trajectory(noisy_shaw):
    inst, y = noisy_shaw
    cfg = SolverConfig(method="sgd", c0=0.5 * step_stability_bound(inst, "sgd"),
                       max_epochs=2.0, seed=13)
    one = solve(inst, y, cfg, run=4)
    two = solve(inst, y, cfg, run=4)
    assert_array_equal(one.error_sq, two.error_sq)
    other = solve(inst, y, cfg, run=5)
    assert not np.array_equal(one.error_sq, other.error_sq)


def test_runs_are_batch_invariant(noisy_shaw):
    # the batched core must give each run the same numbers it gets alone
    from stochreg.solvers import _Recorder, run_batch
    inst, y = noisy_shaw
    cfg = SolverConfig(method="svrg", c0=0.5 * step_stability_bound(inst, "svrg"),
                       max_epochs=2.0, M=3, seed=2)
    rec = _Recorder(inst, y, cfg, 3, want_residual=False)
    run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(3)], rec)
    for r in range(3):
        solo = solve(inst, y, cfg, run=r)
        assert_array_equal(rec.error_sq[r], solo.error_sq)


def padded_product(rows, mat):
    """rows @ mat on rows zero-padded to blocks of _GRADIENT_BLOCK and mat
    zero-padded to a multiple of _COLUMN_BLOCK columns, the layout of the
    kernel's products."""
    runs, width = rows.shape
    padded = np.zeros((-(-runs // _GRADIENT_BLOCK) * _GRADIENT_BLOCK, width))
    padded[:runs] = rows
    blocks = padded.reshape(-1, _GRADIENT_BLOCK, width)
    cols = mat.shape[1]
    product = blocks @ solvers._column_padded(mat)
    return product[..., :cols].reshape(-1, cols)[:runs]


def out_of_place_lockstep(inst, y, idx, method, c0, M, stops):
    """The row-space update written out of place: idx[t] holds each run's
    row at step t.  The iterate is (C + W) @ A + x0, a padded product, with
    dual coordinates W stepped through rows of K = A A^T and folded into
    the coordinates C after every step that ends with t % every == 0,
    every = n for sgd, M for svrg and 1 for landweber, which takes the svrg
    statements.  On rows orthogonal to rounding K is its diagonal kd: the
    row dot is kd[i] W[r, i], the fold's W @ K is W * kd, and the error
    comes from C + W with the kernel's q, |z|^2 and 2 g.  Returns the
    (iterate matrix, squared errors) after each step count in stops."""
    a, k, x0, n = inst.a, inst.row_gram, inst.x0, inst.n
    kd = inst.row_gram_diagonal
    runs = idx.shape[1]
    every_run = np.arange(runs)
    scale, every = {"sgd": (1.0, n), "svrg": (c0 / n, M),
                    "landweber": (c0, 1)}[method]
    coords = np.zeros((runs, n))
    dual = (np.zeros((runs, n))
            + (np.einsum("rm,nm->rn", x0[None], a) - y)) * scale
    w = np.zeros((runs, n))

    def state():
        v = coords + w
        x = padded_product(v, a) + x0
        if kd is not None:
            q, z_sq, g2 = _error_coordinates(inst)
            v_q = v + q
            return x, np.einsum("rn,rn->r", v_q, v_q * kd + g2) + z_sq
        diff = x - inst.x_dag
        return x, np.vecdot(diff, diff)

    states = {0: state()}
    for t, i in enumerate(idx[:max(stops)], start=1):
        d = np.vecdot(k[i], w) if kd is None else kd[i] * w[every_run, i]
        w = w.copy()
        if method == "sgd":
            w[every_run, i] -= (d + dual[every_run, i]) * c0
        else:
            w[every_run, i] -= d * c0
            w = w - dual
        if t % every == 0:
            coords = coords + w
            w_k = padded_product(w, k) if kd is None else w * kd
            dual = dual + w_k * scale
            w = np.zeros((runs, n))
        if t in stops:
            states[t] = state()
    return states


def primal_lockstep(inst, y, idx, method, c0, M):
    """The batched update on the iterates themselves, as the kernel ran it
    before the row-space form: idx[t] holds each run's row at step t.  The
    anchor gradient and the landweber step's gradient are the Gram form
    g0 + (x - x0) B on padded blocks.  Returns the iterate matrix after
    every step count 0..len(idx)."""
    a, x0, n = inst.a, inst.x0, inst.n
    x = np.tile(x0, (idx.shape[1], 1))
    states = [x]
    anchor = grad = None
    resid = np.einsum("rm,nm->rn", x0[None], a) - y
    g0 = np.einsum("rn,nm->rm", resid, a)[0] / n
    for t, i in enumerate(idx):
        rows = a[i]
        if method == "svrg":
            if t % M == 0:
                anchor = x.copy()
                grad = padded_product(anchor - x0, inst.gram.matrix) + g0
            d = np.einsum("rm,rm->r", rows, x - anchor)
            x = x - c0 * (d[:, None] * rows + grad)
        elif method == "landweber":
            grad = padded_product(x - x0, inst.gram.matrix) + g0
            x = x - (c0 * n) * grad
        else:
            d = np.einsum("rm,rm->r", rows, x) - y[i]
            x = x - (c0 * d)[:, None] * rows
        states.append(x)
    return states


def stream_indices(seed, n, runs, steps):
    return np.stack([IndexStream(seed, n, subkey=r).block(0, steps)
                     for r in range(runs)], axis=1)


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("start,count", [(0, 9), (1, 6), (3, 4), (6, 1),
                                         (_CHUNK - 3, 11), (_CHUNK + 1, 5),
                                         (2 * _CHUNK - 2, 0)])
def test_index_blocks_equal_single_stream_blocks(n, start, count):
    subkeys = [0, 1, 5, 2**32 + 3, NOISE_SUBKEY - 1, NOISE_SUBKEY]
    got = index_blocks(n, [(17, k) for k in subkeys], start, count)
    assert got.dtype == np.int64 and got.shape == (count, len(subkeys))
    for r, subkey in enumerate(subkeys):
        assert_array_equal(got[:, r],
                           IndexStream(17, n, subkey=subkey).block(start, count))
    if n == 1:
        assert not got.any()


def test_index_blocks_mix_seeds_in_one_draw():
    # runs of several cells share a draw, each under its own cell's seed
    keys = [(17, 0), (5, 0), (17, 1), (2**64 - 1, NOISE_SUBKEY), (0, 3)]
    start = _CHUNK - 2
    got = index_blocks(7, keys, start, 9)
    for r, (seed, subkey) in enumerate(keys):
        assert_array_equal(got[:, r],
                           IndexStream(seed, 7, subkey=subkey).block(start, 9))
    with pytest.raises(ValueError, match="outside"):
        index_blocks(7, [(17, 0), (2**64, 0)], 0, 4)


def test_index_blocks_reject_bad_arguments():
    with pytest.raises(ValueError, match="row"):
        index_blocks(0, [(0, 0)], 0, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        index_blocks(3, [(0, 0)], -1, 4)


@pytest.mark.parametrize("rotate", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3),
                                      ("landweber", 1)])
def test_lockstep_kernel_is_the_out_of_place_update_bitwise(noisy_shaw,
                                                            method, M, rotate):
    # raw s-shaw rows take the dense form, the preconditioned ones the
    # diagonal form
    inst, y = precondition(*noisy_shaw) if rotate else noisy_shaw
    assert (inst.row_gram_diagonal is not None) == rotate
    c0 = 0.5 * step_stability_bound(inst, method)
    runs, steps = 5, _CHUNK + 700
    idx = stream_indices(3, inst.n, runs, steps)
    # stops on and off the fold grid (n = 12 for sgd, M = 3 for svrg, every
    # step for landweber) and on both sides of the chunk boundary
    stops = (1, 7, 60, _CHUNK - 1, _CHUNK, steps)
    expected = out_of_place_lockstep(inst, y, idx, method, c0, M, stops)
    kernel = Lockstep(inst, y, runs, method, c0, M)
    for stop in stops:
        kernel.advance(idx[kernel.t:stop])
        assert kernel.t == stop
        x, err = expected[stop]
        assert_array_equal(kernel.error_sq(), err)
        assert_array_equal(kernel.iterates(), x)


@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3),
                                      ("landweber", 1)])
def test_iterates_are_the_coordinate_sum_product_at_every_step(noisy_shaw,
                                                               method, M):
    # on the fold grid (every n = 12 steps for sgd, M = 3 for svrg, every
    # step for landweber) the iterate is read off C alone, elsewhere off
    # C + W; either way it is the padded product (C + W) @ A + x0, bit for
    # bit, and so is the dense form's squared error
    inst, y = noisy_shaw
    assert inst.row_gram_diagonal is None
    c0 = 0.5 * step_stability_bound(inst, method)
    runs, steps = 33, 2 * inst.n + 1
    idx = stream_indices(4, inst.n, runs, steps)
    kernel = Lockstep(inst, y, runs, method, c0, M)
    folds = 0
    for t in range(steps + 1):
        kernel.advance(idx[kernel.t:t])
        folds += t % kernel.every == 0
        x = padded_product(kernel._c + kernel._w, inst.a) + inst.x0
        diff = x - inst.x_dag
        assert_array_equal(kernel.error_sq(), np.vecdot(diff, diff))
        assert_array_equal(kernel.iterates(), x)
    assert 0 < folds < steps + 1 or method == "landweber"


@pytest.mark.parametrize("method,M,epochs", [("sgd", 1, 400.0),
                                             ("svrg", 3, 2000.0),
                                             ("landweber", 1, 5000.0)])
def test_run_batch_iterates_match_out_of_place_update(noisy_shaw, method, M,
                                                      epochs):
    inst, y = noisy_shaw
    cfg = SolverConfig(method=method, c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=epochs, M=M, seed=4, checkpoint_every=50.0)
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    total = acct.iterations(cfg.max_epochs)
    assert total > _CHUNK
    cp = checkpoint_iterations(acct, cfg)
    runs = 4
    rec = SummingRecorder(inst, cp, runs)
    run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(runs)], rec)
    states = out_of_place_lockstep(
        inst, y, stream_indices(cfg.seed, inst.n, runs, total), method,
        cfg.c0, M, {int(c) for c in cp})
    at_cp = [states[c][0] for c in cp]
    assert_array_equal(rec.sum_x, [x.sum(axis=0) for x in at_cp])
    diffs = [x - inst.x_dag for x in at_cp]
    assert_array_equal(rec.error_sq.T, [np.vecdot(d, d) for d in diffs])


class IterateRecorder:
    """Keeps a copy of the iterate matrix at each checkpoint."""

    def __init__(self, inst, cp):
        self.inst, self.cp, self.x = inst, cp, []

    def record(self, j, kernel, count):
        errs = []
        for x in kernel.read(count, iterates=True)[1]:
            self.x.append(x.copy())
            diff = x - self.inst.x_dag
            errs.append(np.einsum("rm,rm->r", diff, diff))
        return np.array(errs)


def random_case(n, m):
    rng = np.random.default_rng(10 * n + m)
    inst = make_instance(f"rand{n}x{m}", rng.normal(size=(n, m)),
                         rng.normal(size=m))
    return inst, add_noise(inst, 5e-2, seed=n).y


@pytest.mark.parametrize("shape", [None, (12, 3), (3, 12)],
                         ids=["shaw12", "tall12x3", "wide3x12"])
@pytest.mark.parametrize("method,M,epochs", [("sgd", 1, 400.0),
                                             ("svrg", 3, 2000.0),
                                             ("landweber", 1, 2000.0)])
def test_row_space_kernel_matches_the_primal_update(noisy_shaw, shape, method,
                                                    M, epochs):
    # the row-space form is the primal update regrouped: over thousands of
    # steps the two stay within roundoff of each other
    inst, y = noisy_shaw if shape is None else random_case(*shape)
    cfg = SolverConfig(method=method, c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=epochs, M=M, seed=6, checkpoint_every=50.0)
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    total = acct.iterations(cfg.max_epochs)
    cp = checkpoint_iterations(acct, cfg)
    runs = 3
    rec = IterateRecorder(inst, cp)
    run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(runs)], rec)
    states = primal_lockstep(inst, y,
                             stream_indices(cfg.seed, inst.n, runs, total),
                             method, cfg.c0, M)
    primal = np.array([states[c] for c in cp])
    gap = np.abs(np.array(rec.x) - primal).max()
    assert gap <= 1e-11 * np.abs(primal - inst.x_dag).max()


# --- checkpoint blocks -------------------------------------------------------

class PerCheckpointRecorder(_Recorder):
    """The solvers' recorder as it was before checkpoints were recorded in
    blocks: record_one reads one checkpoint through error_sq() and
    iterates()."""

    def record_one(self, j, kernel):
        err = kernel.error_sq()
        self.error_sq[:, j] = err
        if self.residual_sq is None and self.sum_x is None:
            return err
        x = kernel.iterates()
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


def per_checkpoint_batch(inst, y, cfg, subkeys, rec):
    """run_batch's loop before checkpoints were recorded in blocks: one
    advance call per checkpoint interval, one record call per checkpoint."""
    runs, cp = len(subkeys), rec.cp
    total = int(cp[-1])
    limit = _divergence_limit(inst)
    diverged = np.zeros(runs, dtype=bool)
    kernel = Lockstep(inst, y, runs, cfg.method, cfg.c0, cfg.M)
    next_cp = 0
    if cp[0] == 0:
        rec.record_one(0, kernel)
        next_cp = 1
    while kernel.t < total:
        start = kernel.t
        width = min(_CHUNK, total - start)
        idx = (np.zeros((width, runs), dtype=np.int64)
               if cfg.method == "landweber"
               else index_blocks(inst.n, subkeys, start, width))
        while kernel.t < start + width:
            stop = min(start + width, int(cp[next_cp]))
            kernel.advance(idx[kernel.t - start:stop - start])
            if kernel.t == cp[next_cp]:
                err = rec.record_one(next_cp, kernel)
                next_cp += 1
                diverged |= ~np.isfinite(err) | (err > limit)
    return diverged


class BlockLog(_Recorder):
    """The solvers' recorder, keeping the (first checkpoint, count) of each
    block it records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def record(self, j, kernel, count):
        self.log.append((j, count))
        return super().record(j, kernel, count)


RECORDER_MODES = {"errors": {"want_residual": False},
                  "residual": {"want_residual": True},
                  "center": {"want_residual": False, "center_on_mean": True}}


def block_and_reference(inst, ys, cfg, runs, mode):
    """The solvers' recorder after run_batch and the per-checkpoint one
    after the old loop, with their divergence masks."""
    keys = [(cfg.seed, r) for r in range(runs)]
    rec = BlockLog(inst, ys, cfg, runs, **RECORDER_MODES[mode])
    ref = PerCheckpointRecorder(inst, ys, cfg, runs, **RECORDER_MODES[mode])
    return (rec, run_batch(inst, ys, cfg, keys, rec),
            ref, per_checkpoint_batch(inst, ys, cfg, keys, ref))


def assert_same_records(rec, ref):
    for name in ("error_sq", "residual_sq", "sum_x", "centered_sq"):
        if getattr(ref, name) is None:
            assert getattr(rec, name) is None, name
        else:
            assert_array_equal(getattr(rec, name), getattr(ref, name),
                               err_msg=name)


@pytest.mark.parametrize("budget", ["default", "one", "whole grid"])
@pytest.mark.parametrize("mode", list(RECORDER_MODES))
@pytest.mark.parametrize("rotate", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("method,M,epochs,every", [
    ("sgd", 1, 350.5, 0.75), ("svrg", 4, 1400.3, 3.0),
    ("landweber", 1, 4201.0, 9.0)])
def test_block_recording_is_the_per_checkpoint_loop_bitwise(
        monkeypatch, noisy_shaw, method, M, epochs, every, rotate, mode,
        budget):
    # two cells of three runs on s-shaw n = 12; a checkpoint every 9 steps
    # (and every svrg anchor, M = 4) over 4206 sgd or 4201 svrg and
    # landweber steps: the grid crosses _CHUNK, ends off the stride and
    # holds more checkpoints than the default block of 256 snapshots, as
    # many as fit in 1 MiB at the iterates' 16 padded columns
    inst, y = noisy_shaw
    ys = np.stack([y, add_noise(inst, 1e-3, seed=22).y])
    if rotate:
        inst, ys = precondition(inst, ys)
    assert (inst.row_gram_diagonal is not None) == rotate
    if budget != "default":
        monkeypatch.setattr(solvers, "_SNAPSHOT_BYTES",
                            1 if budget == "one" else 1 << 60)
    cfg = SolverConfig(method=method,
                       c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=epochs, M=M, seed=8, checkpoint_every=every)
    rec, diverged, ref, ref_diverged = block_and_reference(inst, ys, cfg, 6,
                                                           mode)
    total = int(rec.cp[-1])
    assert total > _CHUNK and total % 9
    counts = [count for _, count in rec.log]
    assert sum(counts) == rec.cp.size
    if budget == "one":
        assert set(counts) == {1}
    elif budget == "whole grid":  # one block per index chunk
        assert len(counts) == -(-total // _CHUNK)
    else:
        slots = solvers._SNAPSHOT_BYTES // (8 * _GRADIENT_BLOCK * 16)
        assert max(counts) == slots == 256
        assert rec.cp.size > 256
    assert not diverged.any() and not ref_diverged.any()
    assert_same_records(rec, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_block_recording_keeps_the_divergence_mask_bitwise():
    # at 2.9 times the sgd bound on s-shaw n = 10, seven runs of 12 trip
    # the divergence guard, each at one of checkpoints 56-76 of the block
    # 0-80
    inst = gen_shaw(10)
    y = add_noise(inst, 1e-2, 3).y
    cfg = SolverConfig(method="sgd",
                       c0=2.9 * step_stability_bound(inst, "sgd"),
                       max_epochs=80.0, seed=5, allow_large_step=True)
    lost = (1, 2, 3, 5, 9, 10, 11)
    for mode in RECORDER_MODES:
        rec, diverged, ref, ref_diverged = block_and_reference(inst, y, cfg,
                                                               12, mode)
        assert_array_equal(diverged, ref_diverged)
        assert tuple(np.nonzero(diverged)[0]) == lost
        assert_same_records(rec, ref)
    limit = _divergence_limit(inst)
    tripped = ~np.isfinite(ref.error_sq) | (ref.error_sq > limit)
    for r in np.nonzero(diverged)[0]:
        first = int(np.argmax(tripped[r]))
        assert any(j < first < j + count - 1 for j, count in rec.log)

    kept = [(cfg.seed, r) for r in range(12) if not diverged[r]]
    errors = PerCheckpointRecorder(inst, y, cfg, len(kept),
                                   want_residual=True)
    moments = PerCheckpointRecorder(inst, y, cfg, len(kept),
                                    want_residual=False, center_on_mean=True)
    for ref in (errors, moments):
        assert not per_checkpoint_batch(inst, y, cfg, kept, ref).any()
    curves = error_curves(inst, y, cfg, 12, include_residual=True)
    assert curves.excluded_runs == lost
    assert_array_equal(curves.error_sq, errors.error_sq)
    assert_array_equal(curves.residual_sq, errors.residual_sq)
    rep = mc_moments(inst, y, cfg, 12)
    assert rep.excluded_runs == lost
    assert_array_equal(rep.error_sq, moments.error_sq)
    assert_array_equal(rep.variance, moments.centered_sq.mean(axis=0))
    diff = moments.sum_x[0] / len(kept) - inst.x_dag
    assert_array_equal(rep.bias_sq, np.einsum("cm,cm->c", diff, diff))


def test_step_kernel_leaves_its_inputs_unchanged(noisy_shaw):
    inst, y = noisy_shaw
    a, x0, y_before = inst.a.copy(), inst.x0.copy(), y.copy()
    for method, M, K in (("sgd", 1, 2), ("svrg", 3, 1)):
        c0 = 0.5 * step_stability_bound(inst, method)
        cfg = SolverConfig(method=method, c0=c0, max_epochs=3.0, M=M, seed=1)
        run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(4)],
                  _Recorder(inst, y, cfg, 4, want_residual=True))
        enumerate_exact_moments(inst, y, c0, M, K, method)
    assert_array_equal(inst.a, a)
    assert_array_equal(inst.x0, x0)
    assert_array_equal(y, y_before)


def kernel_case(m, runs, rotate=False):
    """An instance with m unknowns, a nonzero start for the random ones and
    one noisy data vector per run; with rotate, its preconditioned form,
    whose kernels take the diagonal form (the random 5 x 2 and 5 x 3 cases
    are rank deficient)."""
    if m == 200:
        inst = gen_shaw(200)
    else:
        rng = np.random.default_rng(m)
        inst = make_instance(f"rand5x{m}", rng.normal(size=(5, m)),
                             rng.normal(size=m), x0=rng.normal(size=m))
    noise = np.random.default_rng(m + 1).normal(size=(runs, inst.n))
    ys = inst.y_dag + 5e-2 * noise
    if rotate:
        inst, ys = precondition(inst, ys)
    assert (inst.row_gram_diagonal is not None) == rotate
    return inst, ys


@pytest.mark.parametrize("rotate", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3),
                                      ("landweber", 1)])
@pytest.mark.parametrize("m", [2, 3, 200])
def test_step_kernel_is_batch_invariant(m, method, M, rotate):
    # single runs, subsets and reorders get the bits of the full batch, also
    # when their last block ends in padding; both stops are off the fold
    # grids of sgd and svrg, so the iterate is built by a W @ A product, or
    # a (C + W) @ A product in the diagonal form; the squared errors too
    inst, ys = kernel_case(m, 100, rotate)
    c0 = 0.5 * step_stability_bound(inst, method)
    stops = (inst.n + 2, 2 * inst.n + 1)
    idx = stream_indices(5, inst.n, 100, stops[-1])

    def states(pick):
        kernel = Lockstep(inst, ys[pick], pick.size, method, c0, M)
        out = []
        for stop in stops:
            kernel.advance(idx[kernel.t:stop, pick])
            out += [kernel.error_sq(), kernel.iterates().copy()]
        return out

    full = states(np.arange(100))
    rng = np.random.default_rng(7)
    picks = [rng.permutation(100)[:runs] for runs in (1, 31, 32, 33, 100)]
    picks += [np.array([r]) for r in (0, 31, 32, 99)]
    for pick in picks:
        for got, want in zip(states(pick), full):
            assert_array_equal(got, want[pick])


@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3)])
def test_raw_row_dot_is_batch_invariant_on_long_rows(method, M):
    # the dense form's row dot and error read take one BLAS ddot per run;
    # at an odd row length of 501 each run's gathered K row, W row and
    # iterate starts at its own alignment, and a 40-run batch spans two
    # 32-row blocks, yet run r alone gets row r of the batch, bit for bit;
    # runs 30 and 31 sit in the last 8 rows of a block, which dgemm
    # computes on their own in the columns past 496 unless the products'
    # right factors are padded to 504 columns; both stops are off the fold
    # grid, and the second one past a fold.  Run at one BLAS thread, as
    # run_batch runs, whatever the environment's setting
    inst = gen_shaw(501)
    assert inst.row_gram_diagonal is None
    runs = 40
    noise = np.random.default_rng(3).normal(size=(runs, inst.n))
    ys = inst.y_dag + 5e-2 * noise
    c0 = 0.5 * step_stability_bound(inst, method)
    stops = (37, inst.n + 2)
    idx = stream_indices(8, inst.n, runs, stops[-1])

    def states(pick):
        kernel = Lockstep(inst, ys[pick], pick.size, method, c0, M)
        out = []
        for stop in stops:
            kernel.advance(idx[kernel.t:stop, pick])
            out += [kernel.error_sq(), kernel.iterates().copy()]
        return out

    with solvers.one_blas_thread():
        full = states(np.arange(runs))
        for r in (0, 1, 30, 31, 32, 33, 39):
            for got, want in zip(states(np.array([r])), full):
                assert_array_equal(got, want[[r]])


@pytest.mark.parametrize("m", [2, 3, 200])
def test_landweber_steps_agree_with_the_residual_form(m):
    inst, ys = kernel_case(m, 33)
    c0 = step_stability_bound(inst, "landweber")
    kernel = Lockstep(inst, ys, 33, "landweber", c0)
    x = np.tile(inst.x0, (33, 1))
    for _ in range(3):
        kernel.advance(np.zeros((1, 33), dtype=np.int64))
        x = x - c0 * np.einsum("rn,nm->rm",
                               np.einsum("rm,nm->rn", x, inst.a) - ys, inst.a)
        got = kernel.iterates()
        assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("rotate", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3),
                                      ("landweber", 1)])
def test_step_kernel_keeps_the_exact_data_fixed_point(method, M, rotate):
    # 33 runs: the last padded block holds one run
    base = gen_shaw(12)
    if rotate:
        base = precondition(base)[0]
    inst = make_instance("start-at-solution", base.a, base.x_dag,
                         x0=base.x_dag)
    assert (inst.row_gram_diagonal is not None) == rotate
    runs = _GRADIENT_BLOCK + 1
    cfg = SolverConfig(method=method, c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=3.0, M=M, seed=5)
    rec = _Recorder(inst, inst.y_dag, cfg, runs, want_residual=True)
    run_batch(inst, inst.y_dag, cfg, [(cfg.seed, r) for r in range(runs)],
              rec)
    assert not rec.error_sq.any() and not rec.residual_sq.any()


@pytest.mark.parametrize("rotate", [False, True], ids=["dense", "diagonal"])
def test_step_kernel_bits_do_not_depend_on_python_threads(rotate):
    # a landweber and an svrg batch at 100 x 200, alone and then on two
    # threads at once
    inst, ys = kernel_case(200, 100, rotate)
    idx = stream_indices(9, inst.n, 100, 40)
    plans = [("landweber", 1), ("svrg", 3)]

    def states(method, M):
        kernel = Lockstep(inst, ys, 100, method,
                          0.5 * step_stability_bound(inst, method), M)
        out = []
        for step in idx:
            kernel.advance(step[None])
            out.append(kernel.iterates().copy())
        return np.array(out)

    expected = [states(*plan) for plan in plans]
    got = [None, None]

    def work(k):
        got[k] = states(*plans[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for k in range(2):
        assert_array_equal(got[k], expected[k])


def dense_form(inst):
    """A copy of inst whose kernels take the dense form: its cached
    selection row_gram_diagonal is set to None, as on rows that are not
    orthogonal."""
    dense = dataclasses.replace(inst)
    vars(dense)["row_gram_diagonal"] = None
    return dense


def exactly_orthogonal_case(kind, runs):
    """Rows orthogonal in floating point, so that every off-diagonal entry
    of K = A A^T is an exact zero: a 6 x 4 diagonal A, whose last two rows
    are zero (rank deficient), or the 8 x 8 Sylvester Hadamard matrix
    scaled by 1/2, whose row dots are sums of +-1/4.  A nonzero start and
    one noisy data vector per run."""
    if kind == "diagonal":
        a = np.zeros((6, 4))
        a[np.arange(4), np.arange(4)] = [1.5, 0.75, 2.0, 0.3]
    else:
        a = np.ones((1, 1))
        for _ in range(3):
            a = np.block([[a, a], [a, -a]])
        a *= 0.5
    rng = np.random.default_rng(a.shape[0])
    m = a.shape[1]
    inst = make_instance(kind, a, rng.normal(size=m), x0=rng.normal(size=m))
    return inst, inst.y_dag + 5e-2 * rng.normal(size=(runs, inst.n))


@pytest.mark.parametrize("kind", ["diagonal", "hadamard"])
@pytest.mark.parametrize("runs", [1, 31, 32, 33])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3),
                                      ("landweber", 1)])
def test_diagonal_form_is_the_dense_form_bitwise_on_exactly_orthogonal_rows(
        kind, runs, method, M):
    # with exact zeros off the diagonal, the einsum row dot and the W @ K
    # product of the dense form add only exact zeros to kd[i] W[r, i] and
    # W * kd, so W, the dual, C and the iterates (C + W) @ A + x0 keep their
    # bits; three epochs of sgd, with stops on and off the fold grids.  The
    # diagonal form reads the error off the coordinates, the dense form off
    # X, so the error norms |X - x_dag| agree to 1e-14 of the largest entry
    # of X (measured: 1.1e-15)
    inst, ys = exactly_orthogonal_case(kind, runs)
    assert not (inst.row_gram - np.diag(inst.row_gram_diagonal)).any()
    c0 = 0.5 * step_stability_bound(inst, method)
    steps = 3 * inst.n + 2
    idx = stream_indices(2, inst.n, runs, steps)
    diagonal = Lockstep(inst, ys, runs, method, c0, M)
    dense = Lockstep(dense_form(inst), ys, runs, method, c0, M)
    assert diagonal.kd is not None and dense.kd is None
    for stop in (1, inst.n + 1, 2 * inst.n, steps):
        for kernel in (diagonal, dense):
            kernel.advance(idx[kernel.t:stop])
        assert_array_equal(diagonal._w, dense._w)
        assert_array_equal(diagonal._dual, dense._dual)
        assert_array_equal(diagonal._c, dense._c)
        want = dense.iterates()
        assert_array_equal(diagonal.iterates(), want)
        norms = np.sqrt([diagonal.error_sq(), dense.error_sq()])
        assert np.abs(norms[0] - norms[1]).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("m", [200, 2], ids=["shaw200", "rand5x2"])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 15),
                                      ("landweber", 1)])
def test_diagonal_form_agrees_with_the_dense_form_on_preconditioned_rows(
        m, method, M):
    # preconditioned rows are orthogonal only to rounding: the dense form
    # adds off-diagonal entries of K at roundoff, over two epochs of sgd
    # (two folds), 27 svrg anchors and 2n + 7 landweber steps
    inst, ys = kernel_case(m, 3, rotate=True)
    c0 = 0.5 * step_stability_bound(inst, method)
    steps = 2 * inst.n + 7
    idx = stream_indices(8, inst.n, 3, steps)
    diagonal = Lockstep(inst, ys, 3, method, c0, M)
    dense = Lockstep(dense_form(inst), ys, 3, method, c0, M)
    for stop in (inst.n, 2 * inst.n, steps):
        for kernel in (diagonal, dense):
            kernel.advance(idx[kernel.t:stop])
        want = dense.iterates()
        gap = np.abs(diagonal.iterates() - want).max()
        assert gap <= 1e-12 * np.abs(want).max()


def referee_case(case, runs):
    """A preconditioned instance whose kernels take the diagonal form, with
    one noisy data vector per run: s-shaw or s-phillips at n = 200 with
    the solution smoothed to nu, as the rate grid builds them, or the rank
    deficient random 5 x 2 and 5 x 3 cases, whose rows past the rank have
    kd at rounding level or zero."""
    if case.startswith("rand"):
        return kernel_case(int(case[-1]), runs, rotate=True)
    name, nu = case.rsplit("-", 1)
    inst = smooth_solution(generate(name, 200), float(nu))
    ys = np.array([add_noise(inst, 1e-2, seed=r).y for r in range(runs)])
    return precondition(inst, ys)


@pytest.mark.parametrize("case", ["s-shaw-0", "s-shaw-1", "s-phillips-0",
                                  "s-phillips-1", "rand5x2", "rand5x3"])
@pytest.mark.parametrize("method,M", [("svrg", 15), ("sgd", 1),
                                      ("landweber", 1)])
def test_diagonal_form_error_is_the_dense_iterate_error(case, method, M):
    # the diagonal form reads |X - x_dag|^2 off its coordinates; the dense
    # form of the same instance builds X and takes the norm.  svrg runs
    # 40960 steps (2730 anchors), stopping every 14 steps as the rate grid
    # records every epoch; sgd and landweber run 2n + 7 steps.  On s-shaw
    # 200, 184 of 200 rows have kd below 1e-20 of the largest, so the
    # dropped rows and the cross term 2 v g are in play.  Tolerance 1e-11
    # relative; the worst case measured is 2.7e-12 (s-shaw 200, nu = 1, svrg)
    runs = 3
    inst, ys = referee_case(case, runs)
    c0 = 0.5 * step_stability_bound(inst, method)
    steps = 40960 if method == "svrg" else 2 * inst.n + 7
    idx = stream_indices(12, inst.n, runs, steps)
    diagonal = Lockstep(inst, ys, runs, method, c0, M)
    dense = Lockstep(dense_form(inst), ys, runs, method, c0, M)
    worst = 0.0
    for stop in [*range(0, steps, 14 if method == "svrg" else 7), steps]:
        for kernel in (diagonal, dense):
            kernel.advance(idx[kernel.t:stop])
        want = dense.error_sq()
        worst = max(worst, (np.abs(diagonal.error_sq() - want) / want).max())
    assert worst <= 1e-11


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3),
                                      ("landweber", 1)])
def test_diagonal_form_keeps_the_exact_data_fixed_point_bitwise(m, method, M):
    # a rotated rank-deficient instance started at x_dag on exact data:
    # e0 = 0 makes q, z and g exact zeros, the dual is zero, so W and C stay
    # zero; the error is 0 and the iterate x0, bit for bit, at stops on and
    # off the fold grids
    rng = np.random.default_rng(m)
    x_dag = rng.normal(size=m)
    raw = make_instance(f"rand5x{m}", rng.normal(size=(5, m)), x_dag,
                        x0=x_dag)
    inst = precondition(raw)[0]
    assert inst.row_gram_diagonal is not None
    q, z_sq, g2 = _error_coordinates(inst)
    assert not q.any() and z_sq == 0.0 and not g2.any()
    runs = _GRADIENT_BLOCK + 1
    c0 = 0.5 * step_stability_bound(inst, method)
    idx = stream_indices(4, inst.n, runs, 40)
    kernel = Lockstep(inst, inst.y_dag, runs, method, c0, M)
    for stop in (0, 1, 3, 5, 40):
        kernel.advance(idx[kernel.t:stop])
        assert_array_equal(kernel.error_sq(), np.zeros(runs))
        assert_array_equal(kernel.iterates(), np.tile(inst.x0, (runs, 1)))


def error_read_case(case, runs):
    """A preconditioned s-shaw instance smoothed to nu = 1 and one noisy
    data vector per run: the rate grid's n = 200 instance, on which q is
    nonzero on 8 rows; n = 6, on which every row is kept; or the n = 200
    instance started at x_dag, on which q is zero."""
    inst, ys = referee_case("s-shaw-1", runs)
    if case == "kept-6":
        raw = smooth_solution(generate("s-shaw", 6), 1.0)
        noise = np.random.default_rng(6).normal(size=(runs, raw.n))
        inst, ys = precondition(raw, raw.y_dag + 1e-2 * noise)
    elif case == "exact-start":
        inst = make_instance("start-at-solution", inst.a, inst.x_dag,
                             x0=inst.x_dag)
        ys = np.tile(inst.y_dag, (runs, 1))
    return inst, ys


@pytest.mark.parametrize("case,columns", [("rate-200", 8), ("kept-6", None),
                                          ("exact-start", 0)])
@pytest.mark.parametrize("method,M", [("svrg", 15), ("sgd", 1),
                                      ("landweber", 1)])
def test_diagonal_error_read_adds_q_on_its_nonzero_columns_bitwise(
        case, columns, method, M):
    # the diagonal form's read adds q to the snapshots C + W on q's nonzero
    # columns alone (all of them when every row is kept); the full add of
    # q to every column gives the same bits, since C + W never holds -0.0.
    # Six blocks of up to 6 snapshots over 3n + 5 steps, on and off the
    # folds
    runs = 3
    inst, ys = error_read_case(case, runs)
    c0 = 0.5 * step_stability_bound(inst, method)
    kernel = Lockstep(inst, ys, runs, method, c0, M, snapshots=7)
    full = Lockstep(inst, ys, runs, method, c0, M, snapshots=7)
    q = _error_coordinates(inst)[0]
    full._q_at, full._q = slice(None), q
    assert kernel.kd is not None
    if columns is None:
        assert kernel._q_at == slice(None)
    else:
        assert_array_equal(kernel._q_at, np.flatnonzero(q))
        assert kernel._q_at.size == columns
    steps = 3 * inst.n + 5
    idx = stream_indices(13, inst.n, runs, steps)
    marks = np.unique(np.linspace(0, steps, 36).astype(int))
    for block in np.array_split(marks, 6):
        for lockstep in (kernel, full):
            lockstep.advance(idx[lockstep.t:block[-1]], block)
        got, want = kernel.read(block.size)[0], full.read(block.size)[0]
        assert got.tobytes() == want.tobytes()
        if case == "exact-start":
            assert not got.any()


def test_row_projection_step_is_admissible():
    # at c0 = c = 1/max ||a_i||^2 an sgd step on a row of 10 I projects onto
    # that row's solution set; the step guard must let it run
    inst = make_instance("ten", 10.0 * np.eye(2), np.array([1.0, -1.0]))
    cfg = SolverConfig(method="sgd", c0=step_constant(inst.a), max_epochs=3.0,
                       seed=0)
    assert step_is_admissible(inst, cfg)
    traj = solve(inst, inst.y_dag, cfg)
    assert traj.error_sq[0] == 2.0
    assert traj.error_sq[-1] <= 1e-28


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_divergence_guard_raises():
    inst = gen_shaw(8)
    y = add_noise(inst, 1e-2, seed=0).y
    huge = 1e4 * step_stability_bound(inst, "sgd")
    cfg = SolverConfig(method="sgd", c0=huge, max_epochs=50.0, seed=0,
                       allow_large_step=True)
    with pytest.raises(DivergenceError):
        solve(inst, y, cfg)


def test_inadmissible_step_rejected_without_override():
    inst = gen_shaw(8)
    bound = step_stability_bound(inst, "sgd")
    cfg = SolverConfig(method="sgd", c0=2 * bound, max_epochs=1.0)
    assert not step_is_admissible(inst, cfg)
    with pytest.raises(ValueError, match="stability bound"):
        solve(inst, inst.y_dag, cfg)


def test_override_is_recorded_in_metadata():
    inst = make_instance("well", np.eye(3), np.array([1.0, 2.0, 0.5]))
    bound = step_stability_bound(inst, "landweber")
    cfg = SolverConfig(method="landweber", c0=1.5 * bound, max_epochs=3.0,
                       allow_large_step=True)
    traj = solve(inst, inst.y_dag + 0.1, cfg)
    assert traj.meta["step_admissible"] is False


def test_method_guards():
    with pytest.raises(ValueError):
        SolverConfig(method="newton", c0=0.1, max_epochs=1.0)
    with pytest.raises(ValueError):
        SolverConfig(method="svrg", c0=0.1, max_epochs=1.0, M=0)


@pytest.mark.parametrize("method,n,M,expected", [
    ("sgd", 10, 1, 10.0),
    ("landweber", 10, 1, 1.0),
    ("svrg", 10, 5, 10 / 3),        # each iteration costs (n + M)/M draws
    ("svrg", 100, 10, 1000 / 110),
])
def test_epochs_per_iteration(method, n, M, expected):
    acct = EpochAccounting(method, n, M)
    assert acct.iterations_per_epoch == pytest.approx(expected, rel=1e-15)
    assert acct.iterations(2.0) == max(1, round(2 * expected))
    assert acct.epochs([expected]) == pytest.approx([1.0])


def test_checkpoint_grid_structure():
    acct = EpochAccounting("svrg", 12, 4)
    cfg = SolverConfig(method="svrg", c0=1e-3, max_epochs=10.0, M=4,
                       checkpoint_every=2.0)
    total = acct.iterations(10.0)
    cp = checkpoint_iterations(acct, cfg)
    assert cp[0] == 0 and cp[-1] == total
    assert np.all(np.diff(cp) > 0)
    anchors = set(range(0, total + 1, 4))
    assert anchors <= set(int(c) for c in cp)


def test_checkpoint_grid_rejects_a_horizon_past_the_cap():
    # one iteration per epoch, 10**6 of them: 10**6 + 1 checkpoints with 0,
    # the anchors at every second iteration among them
    acct = EpochAccounting("svrg", 2, 2)
    cfg = SolverConfig(method="svrg", c0=1e-3, max_epochs=float(MAX_CHECKPOINTS),
                       M=2)
    with pytest.raises(ValueError, match="more than 1000000 checkpoints"):
        checkpoint_iterations(acct, cfg)
    with pytest.raises(ValueError, match="overflow the iteration count"):
        EpochAccounting("sgd", 16).iterations(1e308)
    # a stride past the horizon marks only its ends
    acct = EpochAccounting("sgd", 16)
    cfg = SolverConfig(method="sgd", c0=1e-3, max_epochs=3.0,
                       checkpoint_every=1e308)
    assert_array_equal(checkpoint_iterations(acct, cfg), [0, 48])


def test_oracle_stop_takes_first_minimum():
    traj = Trajectory(method="sgd", epochs=np.array([0.0, 1.0, 2.0, 3.0]),
                      iterations=np.arange(4), error_sq=np.array([4.0, 1.0, 1.0, 2.0]),
                      residual_sq=None, meta={})
    kstar, err = oracle_stop(traj)
    assert (kstar, err) == (1.0, 1.0)


def test_trajectory_roundtrip(tmp_path, noisy_shaw):
    inst, y = noisy_shaw
    cfg = SolverConfig(method="landweber",
                       c0=step_stability_bound(inst, "landweber"),
                       max_epochs=4.0)
    traj = solve(inst, y, cfg)
    csv = tmp_path / "run.csv"
    meta = tmp_path / "run.meta.json"
    write_trajectory(traj, csv, meta)
    header, rows = read_csv(csv)
    assert header == ["epoch", "error_sq", "residual_sq"]
    got = np.array([row[1] for row in rows])
    assert_array_equal(got, traj.error_sq)
    assert meta.exists()


# --- step bounds ----------------------------------------------------------------

def gram_max_bound(a):
    """The row bound taken together with the Gram norm, max(row norm^2,
    ||B||): the referee of the row bound alone."""
    inst = make_instance("ref", a, np.zeros(a.shape[1]))
    norms = np.einsum("ij,ij->i", inst.a, inst.a)
    return float(1.0 / max(norms.max(), inst.gram.norm))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 5)),
              elements=st.floats(-10, 10)))
def test_row_bound_is_the_step_unit_bitwise(a):
    inst = make_instance("drawn", a, np.zeros(a.shape[1]))
    norms = np.einsum("ij,ij->i", a, a)
    if not norms.max() > 0:
        for method in ("sgd", "svrg"):
            with pytest.raises(ValueError, match="all rows are zero"):
                step_stability_bound(inst, method)
        return
    for method in ("sgd", "svrg"):
        assert step_stability_bound(inst, method) == step_constant(inst.a)
    # ||B|| <= mean_i ||a_i||^2 < max_i ||a_i||^2 once the row norms differ
    if norms.max() > norms.mean() * (1 + 1e-8):
        for method in ("sgd", "svrg"):
            assert step_stability_bound(inst, method) == gram_max_bound(a)
    assert "gram" not in inst.__dict__


def test_row_bound_keeps_the_admissibility_decision_on_equal_rank_one_rows():
    # five equal rows: ||B|| equals the row norm, and eigh's rounding of it
    # may exceed the einsum's; the 1e-9 slack absorbs the difference
    a = np.tile([0.3, 0.7], (5, 1))
    inst = make_instance("rank-one", a, np.zeros(2))
    bound = gram_max_bound(a)
    for method in ("sgd", "svrg"):
        for scale in (1 - 1e-12, 1 + 1e-12, 1 - 1e-8, 1 + 1e-8):
            cfg = SolverConfig(method=method, c0=bound * scale, max_epochs=1.0)
            assert step_is_admissible(inst, cfg) == (
                cfg.c0 <= bound * (1 + 1e-9)), (method, scale)
    assert "gram" not in inst.__dict__


def test_landweber_bound_reads_the_gram_norm(noisy_shaw):
    inst, _ = noisy_shaw
    assert step_stability_bound(inst, "landweber") == 1.0 / (inst.n * inst.gram.norm)


@pytest.mark.parametrize("method", ["landweber", "sgd", "svrg"])
def test_zero_matrix_has_no_admissible_step(method):
    inst = make_instance("zero", np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="all rows are zero"):
        step_stability_bound(inst, method)


def test_row_bound_memory_is_not_a_gram():
    # B and its eigendecomposition would be about 30 MiB here
    inst = generate("s-phillips", 1000)
    tracemalloc.start()
    try:
        step_stability_bound(inst, "svrg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    assert "gram" not in inst.__dict__
