"""Iteration correctness: replay oracles, accounting, determinism, guards."""

import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stochreg.fileio import read_csv
from stochreg.problems import add_noise, gen_shaw, make_instance
from stochreg.rng import NOISE_SUBKEY, IndexStream, index_blocks
from stochreg.analysis import enumerate_exact_moments
from stochreg.solvers import (_CHUNK, _GRADIENT_BLOCK, DivergenceError,
                              EpochAccounting, FullGradient,
                              Lockstep, SolverConfig, Trajectory, _Recorder,
                              checkpoint_iterations, oracle_stop, run_batch,
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
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    total = acct.iterations(cfg.max_epochs)
    cp = checkpoint_iterations(acct, cfg, total)
    rec = _Recorder(inst, y, cp, 3, want_residual=False)
    run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(3)], rec)
    for r in range(3):
        solo = solve(inst, y, cfg, run=r)
        assert_array_equal(rec.error_sq[r], solo.error_sq)


def out_of_place_lockstep(inst, y, idx, method, c0, M):
    """The batched update written out of place, as it was before the
    in-place kernel: idx[t] holds each run's row at step t.  The anchor
    gradient is the Gram form g0 + (x - x0) B, its product taken on rows
    zero-padded to blocks of _GRADIENT_BLOCK.  Returns the iterate matrix
    after every step count 0..len(idx)."""
    a, x0, n, m = inst.a, inst.x0, inst.n, inst.m
    runs = idx.shape[1]
    x = np.tile(x0, (runs, 1))
    states = [x]
    anchor = grad = None
    resid = np.einsum("rm,nm->rn", x0[None], a) - y
    g0 = np.einsum("rn,nm->rm", resid, a)[0] / n
    padded = -(-runs // _GRADIENT_BLOCK) * _GRADIENT_BLOCK
    for t, i in enumerate(idx):
        rows = a[i]
        if method == "svrg":
            if t % M == 0:
                anchor = x.copy()
                diff = np.zeros((padded, m))
                diff[:runs] = anchor - x0
                blocks = diff.reshape(-1, _GRADIENT_BLOCK, m)
                grad = (blocks @ inst.gram.matrix).reshape(-1, m)[:runs] + g0
            d = np.einsum("rm,rm->r", rows, x - anchor)
            x = x - c0 * (d[:, None] * rows + grad)
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


@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 3)])
def test_lockstep_kernel_is_the_out_of_place_update_bitwise(noisy_shaw,
                                                            method, M):
    inst, y = noisy_shaw
    c0 = 0.5 * step_stability_bound(inst, method)
    runs, steps = 5, _CHUNK + 700
    idx = stream_indices(3, inst.n, runs, steps)
    expected = out_of_place_lockstep(inst, y, idx, method, c0, M)
    kernel = Lockstep(inst, y, np.tile(inst.x0, (runs, 1)), method, c0, M)
    # stops off the anchor grid and on both sides of the chunk boundary
    for stop in (1, 7, _CHUNK - 1, _CHUNK, steps):
        kernel.advance(idx[kernel.t:stop])
        assert kernel.t == stop
        assert_array_equal(kernel.x, expected[stop])


@pytest.mark.parametrize("method,M,epochs", [("sgd", 1, 400.0),
                                             ("svrg", 3, 2000.0)])
def test_run_batch_iterates_match_out_of_place_update(noisy_shaw, method, M,
                                                      epochs):
    inst, y = noisy_shaw
    cfg = SolverConfig(method=method, c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=epochs, M=M, seed=4, checkpoint_every=50.0)
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    total = acct.iterations(cfg.max_epochs)
    assert total > _CHUNK
    cp = checkpoint_iterations(acct, cfg, total)
    runs = 4
    rec = SummingRecorder(inst, cp, runs)
    run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(runs)], rec)
    states = out_of_place_lockstep(inst, y,
                                   stream_indices(cfg.seed, inst.n, runs, total),
                                   method, cfg.c0, M)
    at_cp = [states[c] for c in cp]
    assert_array_equal(rec.sum_x, [x.sum(axis=0) for x in at_cp])
    diffs = [x - inst.x_dag for x in at_cp]
    assert_array_equal(rec.error_sq.T,
                       [np.einsum("rm,rm->r", d, d) for d in diffs])


def test_step_kernel_leaves_its_inputs_unchanged(noisy_shaw):
    inst, y = noisy_shaw
    a, x0, y_before = inst.a.copy(), inst.x0.copy(), y.copy()
    for method, M, K in (("sgd", 1, 2), ("svrg", 3, 1)):
        c0 = 0.5 * step_stability_bound(inst, method)
        cfg = SolverConfig(method=method, c0=c0, max_epochs=3.0, M=M, seed=1)
        acct = EpochAccounting(method, inst.n, M)
        cp = checkpoint_iterations(acct, cfg, acct.iterations(cfg.max_epochs))
        run_batch(inst, y, cfg, [(cfg.seed, r) for r in range(4)],
                  _Recorder(inst, y, cp, 4, want_residual=True))
        enumerate_exact_moments(inst, y, c0, M, K, method)
    assert_array_equal(inst.a, a)
    assert_array_equal(inst.x0, x0)
    assert_array_equal(y, y_before)


def gradient_case(m):
    """An instance with m unknowns, noisy data and a nonzero start."""
    if m == 200:
        inst = gen_shaw(200)
    else:
        rng = np.random.default_rng(m)
        inst = make_instance(f"rand5x{m}", rng.normal(size=(5, m)),
                             rng.normal(size=m), x0=rng.normal(size=m))
    return inst, add_noise(inst, 5e-2, seed=m).y


@pytest.mark.parametrize("m", [2, 3, 200])
def test_full_gradient_is_batch_invariant(m):
    # single rows, subsets and reorders get the bits of the full batch, also
    # when their last block ends in padding
    inst, y = gradient_case(m)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, m))
    full = FullGradient(inst, y, 100)(x).copy()
    for runs in (1, 31, 32, 33, 100):
        pick = rng.permutation(100)[:runs]
        gradient = FullGradient(inst, y, runs)
        assert_array_equal(gradient(x[pick]), full[pick])
        # a second call on the same buffers
        assert_array_equal(gradient(x[pick[::-1]]), full[pick[::-1]])
    single = FullGradient(inst, y, 1)
    for r in (0, 31, 32, 99):
        assert_array_equal(single(x[r:r + 1])[0], full[r])


@pytest.mark.parametrize("m", [2, 3, 200])
def test_full_gradient_agrees_with_the_residual_form(m):
    inst, y = gradient_case(m)
    x = np.random.default_rng(8).normal(size=(33, m))
    expected = np.einsum("rn,nm->rm", np.einsum("rm,nm->rn", x, inst.a) - y,
                         inst.a) / inst.n
    got = FullGradient(inst, y, 33)(x)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("method,M", [("svrg", 3), ("landweber", 1)])
def test_full_gradient_keeps_the_exact_data_fixed_point(method, M):
    base = gen_shaw(12)
    inst = make_instance("start-at-solution", base.a, base.x_dag,
                         x0=base.x_dag)
    runs = _GRADIENT_BLOCK + 1
    gradient = FullGradient(inst, inst.y_dag, runs)
    assert not gradient(np.tile(inst.x0, (runs, 1))).any()
    cfg = SolverConfig(method=method, c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=3.0, M=M, seed=5)
    acct = EpochAccounting(method, inst.n, M)
    cp = checkpoint_iterations(acct, cfg, acct.iterations(cfg.max_epochs))
    rec = _Recorder(inst, inst.y_dag, cp, runs, want_residual=True)
    run_batch(inst, inst.y_dag, cfg, [(cfg.seed, r) for r in range(runs)],
              rec)
    assert not rec.error_sq.any() and not rec.residual_sq.any()


def test_full_gradient_bits_do_not_depend_on_python_threads():
    inst, y = gradient_case(200)
    inputs = np.random.default_rng(9).normal(size=(2, 20, 100, 200))

    def gradients(batches):
        gradient = FullGradient(inst, y, 100)
        return np.array([gradient(x).copy() for x in batches])

    expected = [gradients(batches) for batches in inputs]
    got = [None, None]

    def work(k):
        got[k] = gradients(inputs[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for k in range(2):
        assert_array_equal(got[k], expected[k])


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
    cp = checkpoint_iterations(acct, cfg, total)
    assert cp[0] == 0 and cp[-1] == total
    assert np.all(np.diff(cp) > 0)
    anchors = set(range(0, total + 1, 4))
    assert anchors <= set(int(c) for c in cp)


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
