"""Exact-moment oracles, decompositions, comparisons, and bound formulas.

Frozen constants in this file were produced by the path-enumeration oracle
(every index path of the tiny cases below, evaluated with the pinned solver
arithmetic) and by exact rational arithmetic for the bound formulas.  They
protect the closed forms against silent regressions.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from stochreg import analysis, solvers, verify
from stochreg.analysis import (ErrorCurves, RunStops, closed_form_mean,
                               condition_report,
                               enumerate_exact_moments,
                               enumerate_weighted_second_moment,
                               epoch_transitions, error_curves,
                               exact_final_moments,
                               exact_weighted_second_moment, mc_moments,
                               operator_word_matrix, operator_word_weights,
                               orthogonality_check, path_count, rate_fit,
                               recursion_check, residual_bound, run_stops,
                               shift_vector, sgd_variance_terms, stopping_stats,
                               svrg_variance_terms, theorem_bound,
                               variance_compare)
from stochreg.problems import (add_noise, gen_shaw, make_instance,
                               noise_functional, precondition)
from stochreg.rng import IndexStream
from stochreg.solvers import (EpochAccounting, Lockstep, SolverConfig,
                              _Recorder, checkpoint_iterations, run_batch,
                              step_stability_bound)
from stochreg.spectral import GramOperator, Propagator, step_constant

from recorders import SummingRecorder


def tiny_instance():
    a = np.array([[1.0, 0.0], [0.5, 0.5]])
    inst = make_instance("tiny", a, np.array([1.0, -0.5]))
    return inst, inst.y_dag + np.array([0.125, -0.0625])


def ortho_instance():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    inst = make_instance("ortho", a, np.array([1.0, 1.0]))
    return inst, inst.y_dag + np.array([0.25, -0.125])


def raw_random(n, m, seed, eps=5e-2):
    rng = np.random.default_rng(seed)
    inst = make_instance(f"rand{n}x{m}", rng.normal(size=(n, m)),
                         rng.normal(size=m))
    return inst, add_noise(inst, eps, seed).y


def random_preconditioned(n, m, seed, eps=5e-2):
    return precondition(*raw_random(n, m, seed, eps))


# --- enumeration against frozen values ----------------------------------------

TINY_MEAN = np.array([0.280517578125, 0.018310546875])  # dyadic, both methods
TINY_SECOND = {"sgd": 0.10460615158081055, "svrg": 0.07924532890319824}
TINY_VARIANCE = {"sgd": 0.025580763816833496, "svrg": 0.0002199411392211914}


@pytest.mark.parametrize("method", ["sgd", "svrg"])
def test_enumeration_frozen_values(method):
    inst, y = tiny_instance()
    mom = enumerate_exact_moments(inst, y, 0.25, M=2, K=1, method=method)
    assert mom.path_count == 4
    assert_allclose(mom.mean, TINY_MEAN, rtol=1e-14)
    assert_allclose(mom.second_moment_trace, TINY_SECOND[method], rtol=1e-14)
    assert_allclose(mom.variance_trace, TINY_VARIANCE[method], rtol=1e-13)


def test_mean_is_method_independent():
    inst, y = tiny_instance()
    sgd = enumerate_exact_moments(inst, y, 0.25, 2, 1, "sgd").mean
    svrg = enumerate_exact_moments(inst, y, 0.25, 2, 1, "svrg").mean
    assert_allclose(sgd, svrg, rtol=0, atol=1e-15)


@pytest.mark.parametrize("method", ["sgd", "svrg"])
@pytest.mark.parametrize("n,m,M,K", [(2, 2, 1, 1), (3, 2, 2, 2), (2, 3, 3, 2)])
def test_closed_form_mean_matches_enumeration(method, n, m, M, K):
    rng = np.random.default_rng(100 * n + 10 * m + M + K)
    inst = make_instance("case", rng.normal(size=(n, m)), rng.normal(size=m))
    y = inst.y_dag + 0.1 * rng.normal(size=n)
    c0 = 0.8 * step_stability_bound(inst, method)
    enum = enumerate_exact_moments(inst, y, c0, M, K, method)
    mean = closed_form_mean(inst.gram, inst.x0 - inst.x_dag,
                            noise_functional(inst, y), c0, M, K,
                            x_dag=inst.x_dag)
    err = np.linalg.norm(enum.mean - mean)
    assert err <= 1e-11 * (1 + np.linalg.norm(inst.x_dag))


def test_closed_form_mean_at_zero_steps_is_the_start():
    # c0 lambda_max = 1, landweber's default step: the tail filter would
    # read 0 * log1p(-1) = NaN at zero steps
    gram = GramOperator(np.diag([2.0, 1.0]))
    e0, zeta, x_dag = np.array([1.0, 2.0]), np.array([0.3, -0.1]), np.ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M, K in [(0, 3), (2, 0)]:
            assert_array_equal(closed_form_mean(gram, e0, zeta, 0.5, M, K), e0)
            assert_array_equal(closed_form_mean(gram, e0, zeta, 0.5, M, K,
                                                x_dag=x_dag), x_dag + e0)
        assert_array_equal(closed_form_mean(gram, e0, zeta, 0.5, 1, 1),
                           [0.15, 0.95])
        for M, K in [(2, 1), (1, 2)]:
            assert_array_equal(closed_form_mean(gram, e0, zeta, 0.5, M, K),
                               [0.15, 0.425])


def test_landweber_matches_closed_form_mean_at_every_checkpoint():
    # a landweber run is deterministic, so its error is that of the mean:
    # one step of c0 is one epoch of step c0 n with M = 1
    rng = np.random.default_rng(3)
    inst = make_instance("rand50x20", rng.normal(size=(50, 20)),
                         rng.normal(size=20))
    y = add_noise(inst, 0.05, 4).y
    c0 = step_stability_bound(inst, "landweber")
    cfg = SolverConfig(method="landweber", c0=c0, max_epochs=200)
    curves = error_curves(inst, y, cfg, runs=1)
    assert curves.iterations[0] == 0 and curves.iterations.size == 201
    e0, zeta = inst.x0 - inst.x_dag, noise_functional(inst, y)
    ref = [np.sum(closed_form_mean(inst.gram, e0, zeta, c0 * inst.n, 1,
                                   int(k))**2) for k in curves.iterations]
    assert_allclose(curves.error_sq[0], ref, rtol=1e-13, atol=0)


def test_path_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        path_count(10, 4, 2)


# --- second-moment decompositions ---------------------------------------------

FROZEN_HEAD = 0.2680194238200784
FROZEN_TERMS = {
    "svrg": [0.005053416825830936, 0.009997310116887093],
    "sgd": [0.025678890757262707, 0.07062078639864922],
}


@pytest.mark.parametrize("method,fn", [("svrg", svrg_variance_terms),
                                       ("sgd", sgd_variance_terms)])
def test_decomposition_frozen_values(method, fn):
    inst, y = ortho_instance()
    dec = fn(inst, y, 0.25, M=2, K=2)
    assert_allclose(dec.head, FROZEN_HEAD, rtol=1e-13)
    assert_allclose(dec.epoch_terms, FROZEN_TERMS[method], rtol=1e-12)
    enum = enumerate_weighted_second_moment(inst, y, 0.25, 2, 2, method)
    assert abs(dec.total - enum) <= 1e-13 * (1 + enum)


@pytest.mark.parametrize("method,fn", [("svrg", svrg_variance_terms),
                                       ("sgd", sgd_variance_terms)])
@pytest.mark.parametrize("r1", ["I", "B", "M0^2"])
@pytest.mark.parametrize("r2", ["0", "Binv_zeta"])
def test_decomposition_matches_enumeration_weighted(method, fn, r1, r2):
    inst, y = random_preconditioned(3, 2, seed=77)
    c0 = step_constant(inst.a)
    dec = fn(inst, y, c0, M=2, K=2, r1=r1, r2=r2)
    enum = enumerate_weighted_second_moment(inst, y, c0, 2, 2, method, r1, r2)
    assert abs(dec.total - enum) <= 1e-11 * (1 + abs(enum))


def test_svrg_split_has_no_noise_family():
    inst, y = ortho_instance()
    dec = svrg_variance_terms(inst, y, 0.25, 2, 2)
    assert_array_equal(dec.split_noise, np.zeros(2))
    covariance = dec.epoch_terms - dec.split_main - dec.split_noise
    assert_allclose(covariance, np.zeros(2), atol=1e-18)


def test_sgd_split_families_are_correlated():
    # separating the per-step terms from their delayed echoes drops a
    # covariance that is genuinely nonzero; the grouped terms still match
    # the enumerated moment exactly
    a = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    inst = make_instance("p3", a, np.array([0.8, -0.3]))
    y = inst.y_dag + np.array([0.3, -0.2, 0.1])
    c0 = 0.3 / 9.0
    dec = sgd_variance_terms(inst, y, c0, M=3, K=2)
    enum = enumerate_weighted_second_moment(inst, y, c0, 3, 2, "sgd")
    assert abs(dec.total - enum) <= 1e-12 * (1 + enum)
    covariance = dec.epoch_terms - dec.split_main - dec.split_noise
    assert np.abs(covariance).max() > 1e-6 * dec.total


def test_decomposition_requires_orthogonal_rows():
    inst = gen_shaw(6)
    with pytest.raises(ValueError, match="precondition"):
        svrg_variance_terms(inst, inst.y_dag, 1e-3, 2, 1)


# --- epoch propagation --------------------------------------------------------

@pytest.mark.parametrize("method", ["sgd", "svrg"])
def test_propagated_moments_match_enumeration(method):
    inst, y = random_preconditioned(3, 2, seed=5)
    c0 = step_constant(inst.a)
    enum = enumerate_exact_moments(inst, y, c0, 2, 2, method)
    mu, s = exact_final_moments(inst, y, c0, 2, 2, method)
    # propagation works in coordinates centered at x_dag + B^+ zeta
    ref = inst.x_dag + inst.gram.pinv_apply(noise_functional(inst, y))
    assert_allclose(ref + mu, enum.mean, rtol=0, atol=1e-13)
    second = np.trace(s) + 2 * ref @ mu + ref @ ref
    assert_allclose(second, enum.second_moment_trace, rtol=1e-12)
    assert_allclose(np.trace(s) - mu @ mu, enum.variance_trace, rtol=1e-11)
    weighted = exact_weighted_second_moment(inst, y, c0, 2, 2, method,
                                            "B", "Binv_zeta")
    brute = enumerate_weighted_second_moment(inst, y, c0, 2, 2, method,
                                             "B", "Binv_zeta")
    assert_allclose(weighted, brute, rtol=1e-12)


@pytest.mark.parametrize("method", ["sgd", "svrg"])
@pytest.mark.parametrize("build", [
    lambda seed: raw_random(3, 3, seed),
    lambda seed: random_preconditioned(4, 2, seed)],
    ids=["raw", "preconditioned"])
def test_epoch_moments_match_final_moments_bitwise(method, build):
    inst, y = build(23)
    c0 = 0.8 * step_constant(inst.a)
    M, K = 3, 4
    moments = analysis._epoch_moments(inst, y, c0, M, K, method)
    assert len(moments) == K + 1
    for j, (mu, s) in enumerate(moments):
        mu_j, s_j = exact_final_moments(inst, y, c0, M, j, method)
        assert_array_equal(mu, mu_j)
        assert_array_equal(s, s_j)


def loop_epoch_transitions(inst, y, c0, M, method):
    """Reference: the per-epoch maps built one digit combination at a time."""
    n, m = inst.n, inst.m
    eye = np.eye(m)
    b = inst.gram.matrix
    m0 = eye - c0 * b
    m0_pows = [np.linalg.matrix_power(m0, i) for i in range(M + 1)]
    acc = np.zeros((m, m))
    stepsum = [acc.copy()]
    for i in range(M):
        acc = acc + c0 * m0_pows[i]
        stepsum.append(acc.copy())
    zeta = noise_functional(inst, y)
    zeta_k = inst.a * (y - inst.y_dag)[:, None]
    outer = inst.a[:, :, None] * inst.a[:, None, :]
    bz = inst.gram.pinv_apply(zeta)
    ids = np.arange(n**M)
    combos = np.stack([(ids // n**t) % n for t in range(M)], axis=1)
    t_stack = np.empty((ids.size, m, m))
    v_stack = np.zeros((ids.size, m))
    for c, digits in enumerate(combos):
        suf = [None] * (M + 1)
        suf[M] = eye
        for i in range(M - 1, -1, -1):
            suf[i] = suf[i + 1] @ (eye - c0 * outer[digits[i]])
        if method == "svrg":
            h = [suf[i + 1] @ (b - outer[digits[i]]) for i in range(M)]
            l_mat = np.zeros((m, m))
            for i in range(1, M):
                l_mat += c0 * (h[i] @ stepsum[i])
            t_stack[c] = m0_pows[M] - l_mat @ b
        else:
            t_full = suf[1] @ (eye - c0 * outer[digits[0]])
            w = np.zeros(m)
            for i in range(M):
                w += c0 * (suf[i + 1] @ zeta_k[digits[i]])
            t_stack[c] = t_full
            v_stack[c] = (t_full - eye) @ bz + w
    return t_stack, v_stack


@pytest.mark.parametrize("method", ["sgd", "svrg"])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("build", [raw_random, random_preconditioned])
def test_epoch_transitions_match_per_combination_loop_bitwise(
        monkeypatch, method, M, build):
    inst, y = build(3, 3, seed=40 + M)
    c0 = 0.9 * step_constant(inst.a)
    # a block size that does not divide n^M puts a short block at the end
    monkeypatch.setattr(analysis, "_BLOCK", 7)
    t_stack, v_stack = epoch_transitions(inst, y, c0, M, method)
    t_ref, v_ref = loop_epoch_transitions(inst, y, c0, M, method)
    assert t_stack.shape == (3**M, 3, 3)
    assert_array_equal(t_stack, t_ref)
    assert_array_equal(v_stack, v_ref)


def test_epoch_transitions_reject_oversized_stacks():
    rng = np.random.default_rng(3)
    wide = make_instance("wide", rng.normal(size=(1000, 15)), rng.normal(size=15))
    # 1000^2 maps of 15 x 15 entries exceed the 2e8-entry stack budget
    with pytest.raises(ValueError, match="stack would not fit the budget"):
        epoch_transitions(wide, wide.y_dag, 1e-3, 2, "svrg")
    tall = make_instance("tall", rng.normal(size=(1001, 2)), rng.normal(size=2))
    # 1001^2 digit combinations exceed the 10^6-combination budget
    with pytest.raises(ValueError, match="digit space exceeds the budget"):
        epoch_transitions(tall, tall.y_dag, 1e-3, 2, "sgd")
    with pytest.raises(ValueError, match="unknown method"):
        epoch_transitions(tall, tall.y_dag, 1e-3, 1, "landweber")


@pytest.mark.parametrize("oracle", [enumerate_exact_moments,
                                    enumerate_weighted_second_moment,
                                    orthogonality_check, exact_final_moments])
def test_analysis_oracles_reject_landweber(oracle):
    # landweber has no index paths; its moments are its one trajectory
    inst = tiny_instance()[0]
    with pytest.raises(ValueError, match="landweber"):
        oracle(inst, inst.y_dag, 0.1, 1, 2, method="landweber")


def rank_deficient(seed):
    """A raw instance with more unknowns than rows, so B is singular."""
    return raw_random(2, 3, seed)


@pytest.mark.parametrize("method", ["sgd", "svrg"])
@pytest.mark.parametrize("M,K", [(1, 1), (1, 3), (3, 1), (3, 3)])
@pytest.mark.parametrize("build", [
    lambda seed: random_preconditioned(3, 2, seed), rank_deficient],
    ids=["preconditioned", "rank_deficient"])
def test_propagation_matches_enumeration_across_loop_lengths(method, M, K,
                                                             build):
    inst, y = build(7 + M + K)
    c0 = step_constant(inst.a)
    enum = enumerate_exact_moments(inst, y, c0, M, K, method)
    mu, s = exact_final_moments(inst, y, c0, M, K, method)
    ref = inst.x_dag + inst.gram.pinv_apply(noise_functional(inst, y))
    assert_allclose(ref + mu, enum.mean, rtol=1e-12)
    second = np.trace(s) + 2 * ref @ mu + ref @ ref
    assert_allclose(second, enum.second_moment_trace, rtol=1e-12)
    for r1, r2 in (("I", "0"), ("B", "Binv_zeta"), ("M0^2", "Binv_zeta")):
        weighted = exact_weighted_second_moment(inst, y, c0, M, K, method, r1, r2)
        brute = enumerate_weighted_second_moment(inst, y, c0, M, K, method,
                                                 r1, r2)
        assert_allclose(weighted, brute, rtol=1e-12)


def averaged_epoch_maps(inst, y, c0, M, K, method):
    """Reference: the moments of u_K averaged over the n^M epoch maps."""
    t_stack, v_stack = epoch_transitions(inst, y, c0, M, method)
    mu = inst.x0 - inst.x_dag - inst.gram.pinv_apply(noise_functional(inst, y))
    s = np.outer(mu, mu)
    for _ in range(K):
        tmu = t_stack @ mu
        cross = np.einsum("ci,cj->ij", tmu, v_stack)
        s = (np.einsum("cij,jk,clk->il", t_stack, s, t_stack) + cross + cross.T
             + v_stack.T @ v_stack) / t_stack.shape[0]
        mu = (tmu + v_stack).mean(axis=0)
    return mu, s


@pytest.mark.parametrize("method", ["sgd", "svrg"])
@pytest.mark.parametrize("build", [
    lambda seed: raw_random(3, 2, seed),
    lambda seed: random_preconditioned(3, 3, seed), rank_deficient],
    ids=["raw", "preconditioned", "rank_deficient"])
def test_moment_recursion_matches_averaged_epoch_maps(method, build):
    for M, K in ((1, 4), (2, 3), (4, 2)):
        inst, y = build(60 + M)
        c0 = 0.8 * step_constant(inst.a)
        mu, s = exact_final_moments(inst, y, c0, M, K, method)
        mu_ref, s_ref = averaged_epoch_maps(inst, y, c0, M, K, method)
        scale = np.trace(s_ref)
        assert np.abs(mu - mu_ref).max() <= 1e-12 * math.sqrt(scale)
        assert np.abs(s - s_ref).max() <= 1e-12 * scale


def test_moment_recursion_runs_past_the_epoch_map_budgets():
    # 1001^2 digit combinations per epoch: no epoch map stack is built
    inst, y = random_preconditioned(1001, 2, seed=19)
    c0 = step_constant(inst.a)
    with pytest.raises(ValueError, match="digit space exceeds the budget"):
        epoch_transitions(inst, y, c0, 2, "svrg")
    zeta = noise_functional(inst, y)
    ref = inst.x_dag + inst.gram.pinv_apply(zeta)
    mean = closed_form_mean(inst.gram, inst.x0 - inst.x_dag, zeta, c0, 2, 3,
                            x_dag=inst.x_dag)
    for method in ("sgd", "svrg"):
        mu, _ = exact_final_moments(inst, y, c0, 2, 3, method)
        assert_allclose(ref + mu, mean, rtol=1e-12)
    cmp = variance_compare(inst, y, c0, M=2, K=3)
    assert cmp.ordered and cmp.margin >= -1e-12


# --- variance comparison ------------------------------------------------------

def test_variance_compare_enumeration_mode():
    inst, y = random_preconditioned(3, 2, seed=11)
    c0 = step_constant(inst.a)
    cmp = variance_compare(inst, y, c0, M=2, K=2)
    assert cmp.svrg_value == pytest.approx(
        enumerate_weighted_second_moment(inst, y, c0, 2, 2, "svrg"), rel=1e-13)
    assert cmp.margin == pytest.approx(cmp.sgd_value - cmp.svrg_value,
                                       rel=1e-12)


def test_variance_compare_propagation_mode():
    inst, y = random_preconditioned(25, 3, seed=13)
    c0 = step_constant(inst.a)
    cmp = variance_compare(inst, y, c0, M=2, K=3)
    assert cmp.condition_ok
    assert cmp.ordered and cmp.margin >= -1e-12


# --- identity reports ---------------------------------------------------------

def test_recursion_identities_hold_on_any_instance():
    rng = np.random.default_rng(29)
    inst = make_instance("rand", rng.normal(size=(5, 3)), rng.normal(size=3))
    y = inst.y_dag + 0.1 * rng.normal(size=5)
    rep = recursion_check(inst, y, 0.5 * step_stability_bound(inst, "svrg"),
                          M=4, K=3, seed=8)
    assert rep.max_epoch_deviation <= 1e-12
    assert rep.max_telescope_deviation <= 1e-12
    assert rep.max_anchor_deviation <= 1e-12


@pytest.mark.parametrize("method", ["svrg", "sgd"])
def test_fluctuation_terms_are_orthogonal(method):
    inst, y = random_preconditioned(3, 3, seed=41)
    rep = orthogonality_check(inst, y, step_constant(inst.a), M=2, K=2,
                              method=method)
    assert rep.pair_count == 6  # 4 labels -> C(4,2) pairs... for M=2, K=2
    assert rep.max_cross <= 1e-12 * (1 + rep.scale)


def test_recursion_check_runs_the_solver_kernel(monkeypatch):
    # a kernel that drifts by one part in a million must show in the epoch
    # identity, so the check tests the step the solvers run
    inst, y = random_preconditioned(5, 3, seed=50)
    c0 = 0.7 * step_constant(inst.a)
    advance = Lockstep.advance

    def drifting(self, idx):
        advance(self, idx)
        self._dual *= 1 + 1e-6

    monkeypatch.setattr(Lockstep, "advance", drifting)
    rep = recursion_check(inst, y, c0, M=3, K=2, seed=0)
    assert rep.max_epoch_deviation > 1e-9


# References: the inline loops the decomposition terms, the orthogonality
# check and the recursion check ran before they shared _apply_h, the stacked
# path operators and solvers.Lockstep.  The orthogonality and recursion
# checks must match them bit for bit.  The decomposition terms now come from
# the epoch-start moments and walk no path, so the path loops referee them
# to 1e-12 of the total.  Cases: the verify suite's, plus ones with M = 3 and
# K = 2, M = 1 and K = 3, and n = m = M = K = 3.

def loop_svrg_variance_terms(inst, y, c0, M, K, r1, r2):
    n = inst.n
    r1m = operator_word_matrix(inst.gram, c0, r1)
    r2v = shift_vector(inst, y, r2)
    kit = analysis._EpochKit(inst, y, c0, M)
    x_ref = inst.x_dag + inst.gram.pinv_apply(kit.zeta)
    head = analysis._head_term(inst, y, c0, M, K, r1m, r2v)
    terms = np.zeros(K)
    for j in range(K):
        pre = r1m @ np.linalg.matrix_power(kit.m0, (K - 1 - j) * M)
        total = n ** ((j + 1) * M)
        acc = []
        for ids in analysis._block_ranges(total):
            u = analysis._iterate_paths(inst, y, c0, M, j * M, "svrg",
                                        ids)[j * M] - x_ref
            block = np.zeros(ids.size)
            for i in range(1, M):
                w = u @ (kit.stepsum[i] @ kit.b).T
                k = j * M + i
                rows = inst.a[analysis._digit(ids, n, k)]
                w = w @ kit.b.T - rows * np.einsum("rm,rm->r", rows,
                                                   w)[:, None]
                for l in range(k + 1, j * M + M):
                    rows_l = inst.a[analysis._digit(ids, n, l)]
                    w = w - kit.c0 * rows_l * np.einsum("rm,rm->r", rows_l,
                                                        w)[:, None]
                v = w @ pre.T
                block += np.einsum("rm,rm->r", v, v)
            acc.append(block.sum())
        terms[j] = c0**2 * np.add.reduce(np.array(acc)) / total
    return head, terms


def loop_sgd_variance_terms(inst, y, c0, M, K, r1, r2):
    n = inst.n
    r1m = operator_word_matrix(inst.gram, c0, r1)
    r2v = shift_vector(inst, y, r2)
    kit = analysis._EpochKit(inst, y, c0, M)
    bz = inst.gram.pinv_apply(kit.zeta)
    x_ref = inst.x_dag + bz
    head = analysis._head_term(inst, y, c0, M, K, r1m, r2v)
    exact, main, noise = np.zeros(K), np.zeros(K), np.zeros(K)
    for j in range(K):
        pre = r1m @ np.linalg.matrix_power(kit.m0, (K - 1 - j) * M)
        total = n ** ((j + 1) * M)
        acc_e, acc_m, acc_n = [], [], []
        for ids in analysis._block_ranges(total):
            u = analysis._iterate_paths(inst, y, c0, M, j * M, "sgd",
                                        ids)[j * M] - x_ref
            digits = [analysis._digit(ids, n, j * M + i) for i in range(M)]
            rows_at = [inst.a[d] for d in digits]
            block_e = np.zeros(ids.size)
            block_m = np.zeros(ids.size)
            block_n = np.zeros(ids.size)
            for i in range(M):
                w = u @ kit.m0_pows[i].T + bz
                rows = rows_at[i]
                w = w @ kit.b.T - rows * np.einsum("rm,rm->r", rows,
                                                   w)[:, None]
                for l in range(i + 1, M):
                    rl = rows_at[l]
                    w = w - kit.c0 * rl * np.einsum("rm,rm->r", rl, w)[:, None]
                gap = kit.zeta_k[digits[i]] - kit.zeta
                own = c0 * (w + gap @ kit.m0_pows[M - i - 1].T)
                v = own @ pre.T
                block_m += np.einsum("rm,rm->r", v, v)
                group = own
                for t in range(M - i - 1):
                    w2 = gap @ kit.m0_pows[t].T
                    rt = rows_at[i + t + 1]
                    w2 = w2 @ kit.b.T - rt * np.einsum("rm,rm->r", rt,
                                                       w2)[:, None]
                    for l in range(i + t + 2, M):
                        rl = rows_at[l]
                        w2 = w2 - kit.c0 * rl * np.einsum("rm,rm->r", rl,
                                                          w2)[:, None]
                    echo = c0**2 * w2
                    v = echo @ pre.T
                    block_n += np.einsum("rm,rm->r", v, v)
                    group = group + echo
                v = group @ pre.T
                block_e += np.einsum("rm,rm->r", v, v)
            acc_e.append(block_e.sum())
            acc_m.append(block_m.sum())
            acc_n.append(block_n.sum())
        exact[j] = np.add.reduce(np.array(acc_e)) / total
        main[j] = np.add.reduce(np.array(acc_m)) / total
        noise[j] = np.add.reduce(np.array(acc_n)) / total
    return head, exact, main, noise


DECOMPOSITION_CASES = [(3, 2, 2, 2, 60), (2, 2, 3, 1, 61), (2, 2, 3, 2, 62),
                       (3, 2, 3, 2, 63), (3, 2, 1, 3, 66), (3, 3, 3, 3, 64)]


@pytest.mark.parametrize("n,m,M,K,seed", DECOMPOSITION_CASES)
def test_variance_terms_match_path_loops(n, m, M, K, seed):
    inst, y = verify._noisy_preconditioned(n, m, seed=seed)
    c0 = 0.7 * step_constant(inst.a)
    for r1 in ("I", "B", "M0^2"):
        for r2 in ("0", "Binv_zeta"):
            dec = svrg_variance_terms(inst, y, c0, M, K, r1=r1, r2=r2)
            head, terms = loop_svrg_variance_terms(inst, y, c0, M, K, r1, r2)
            tol = 1e-12 * (1 + abs(dec.total))
            assert dec.head == head
            assert np.abs(dec.epoch_terms - terms).max() <= tol
            assert_array_equal(dec.split_main, dec.epoch_terms)
            assert_array_equal(dec.split_noise, np.zeros(K))
            dec = sgd_variance_terms(inst, y, c0, M, K, r1=r1, r2=r2)
            head, exact, main, noise = loop_sgd_variance_terms(
                inst, y, c0, M, K, r1, r2)
            tol = 1e-12 * (1 + abs(dec.total))
            assert dec.head == head
            assert np.abs(dec.epoch_terms - exact).max() <= tol
            assert np.abs(dec.split_main - main).max() <= tol
            assert np.abs(dec.split_noise - noise).max() <= tol


@pytest.mark.parametrize("n,m,seed,M,K", [(30, 4, 5, 4, 3), (60, 8, 6, 6, 4)])
def test_decomposition_runs_past_the_enumeration_budget(monkeypatch, n, m,
                                                        seed, M, K):
    # 30^12 and 60^24 index paths: the terms must come from the moments
    inst, y = verify._noisy_preconditioned(n, m, seed=seed)
    c0 = 0.7 * step_constant(inst.a)

    def no_paths(*args, **kwargs):
        raise AssertionError("a decomposition term walked index paths")

    monkeypatch.setattr(analysis, "_iterate_paths", no_paths)
    for method, fn in (("svrg", svrg_variance_terms),
                       ("sgd", sgd_variance_terms)):
        for r1 in ("I", "B", "M0^2"):
            for r2 in ("0", "Binv_zeta"):
                dec = fn(inst, y, c0, M, K, r1=r1, r2=r2)
                ref = exact_weighted_second_moment(inst, y, c0, M, K, method,
                                                   r1, r2)
                assert abs(dec.total - ref) <= 1e-12 * (1 + abs(ref))


def test_decomposition_memory_is_not_a_stack_of_row_outers():
    # an (n, m, m) stack of a_k a_k^T would be 61 MiB here
    inst, y = verify._noisy_preconditioned(200, 200, seed=5)
    c0 = step_constant(inst.a) / 2
    for fn in (svrg_variance_terms, sgd_variance_terms):
        tracemalloc.start()
        try:
            fn(inst, y, c0, 2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (fn.__name__, peak)
    kit = analysis._EpochKit(inst, y, c0, 2)
    for name, value in vars(kit).items():
        for arr in value if isinstance(value, list) else [value]:
            assert np.size(arr) < inst.n * inst.m**2, name


def loop_orthogonality_check(inst, y, c0, M, K, method):
    n = inst.n
    total = n ** (K * M)
    kit = analysis._EpochKit(inst, y, c0, M)
    labels = [(j, i) for j in range(K) for i in range(M)]
    cross_sums, diag_sums = {}, {}
    for ids in analysis._block_ranges(total):
        states = analysis._iterate_paths(inst, y, c0, M, K * M, method, ids,
                                         stop_states=[j * M for j in range(K)])
        hvecs = []
        for (j, i) in labels:
            e = states[j * M] - inst.x_dag
            k = j * M + i
            rows = inst.a[analysis._digit(ids, n, k)]
            w = e @ kit.b.T - rows * np.einsum("rm,rm->r", rows, e)[:, None]
            for l in range(k + 1, j * M + M):
                rows_l = inst.a[analysis._digit(ids, n, l)]
                w = w - kit.c0 * rows_l * np.einsum("rm,rm->r", rows_l,
                                                    w)[:, None]
            hvecs.append(w)
        for p in range(len(labels)):
            diag_sums[p] = diag_sums.get(p, 0.0) + float(
                np.einsum("rm,rm->", hvecs[p], hvecs[p]))
            for q in range(p + 1, len(labels)):
                cross_sums[(p, q)] = cross_sums.get((p, q), 0.0) + float(
                    np.einsum("rm,rm->", hvecs[p], hvecs[q]))
    scale = max(diag_sums.values()) / total
    max_cross = max(abs(v) for v in cross_sums.values()) / total
    return max_cross, scale, len(cross_sums)


@pytest.mark.parametrize("method", ["svrg", "sgd"])
@pytest.mark.parametrize("n,m,M,K,seed", [(3, 2, 3, 2, 71), (2, 3, 2, 3, 72)])
def test_orthogonality_check_matches_inline_loop_bitwise(method, n, m, M, K,
                                                         seed):
    inst, y = verify._noisy_preconditioned(n, m, seed=seed)
    c0 = 0.6 * step_constant(inst.a)
    rep = orthogonality_check(inst, y, c0, M, K, method=method)
    ref = loop_orthogonality_check(inst, y, c0, M, K, method)
    assert (rep.max_cross, rep.scale, rep.pair_count) == ref


def loop_recursion_check(inst, y, c0, M, K, seed):
    """The single-path loop with its own svrg step and per-combination
    path operators, as it ran before it used the solvers' kernel, the step
    written in the kernel's row-space arithmetic: the iterate is
    (c + w) A + x0, the dual coordinates w step through rows of K = A A^T
    with the kernel's vecdot row dot and fold into the coordinates c at
    each anchor, and every product is taken on the path's row zero-padded
    to one block of _GRADIENT_BLOCK rows, by a factor padded to whole
    blocks of _COLUMN_BLOCK columns.  On rows orthogonal to rounding
    the kernel's diagonal form replaces K by its diagonal kd: the row dot
    is kd[i] w[i] and the fold's w K is w * kd."""
    kit = analysis._EpochKit(inst, y, c0, M)
    digits = IndexStream(seed, inst.n).block(0, K * M)
    a, k_mat, n, m = inst.a, inst.row_gram, inst.n, inst.m
    kd = inst.row_gram_diagonal
    eye = np.eye(m)
    rel = analysis._rel

    def padded(v, mat):
        block = np.zeros((1, solvers._GRADIENT_BLOCK, v.size))
        block[0, 0] = v
        return (block @ solvers._column_padded(mat))[0, 0, :mat.shape[1]]

    resid = padded(inst.x0 - inst.x0, a.T) \
        + (np.einsum("rm,nm->rn", inst.x0[None], a)[0] - y)
    shift = resid * (c0 / n)
    x = inst.x0.copy()
    w, coords = np.zeros(n), np.zeros(n)
    dev_epoch = dev_tel = dev_anchor = 0.0
    for k in range(K):
        e_start = x - inst.x_dag
        epoch_digits = digits[k * M:(k + 1) * M]
        for i in range(M):
            row = epoch_digits[i]
            if kd is None:
                d = np.vecdot(k_mat[row], w)
            else:
                d = kd[row] * w[row]
            w = w.copy()
            w[row] -= d * c0
            w = w - shift
            if i == M - 1:
                coords = coords + w
                w_k = padded(w, k_mat) if kd is None else w * kd
                shift = shift + w_k * (c0 / n)
                w = np.zeros(n)
            x = padded(coords + w, a) + inst.x0
            if i == 0:
                predicted = kit.m0 @ e_start + c0 * kit.zeta
                got = x - inst.x_dag
                dev_anchor = max(dev_anchor, rel(got - predicted, got))
        e_end = x - inst.x_dag
        suf = [None] * (M + 1)
        suf[M] = eye
        outer = [np.outer(a[d], a[d]) for d in epoch_digits]
        for i in range(M - 1, -1, -1):
            suf[i] = suf[i + 1] @ (eye - c0 * outer[i])
        h = [suf[i + 1] @ (kit.b - outer[i]) for i in range(M)]
        l_mat = np.zeros((m, m))
        for i in range(1, M):
            l_mat += c0 * (h[i] @ kit.stepsum[i])
        predicted = (kit.m0_pows[M] - l_mat @ kit.b) @ e_start \
            + (kit.stepsum[M] + l_mat) @ kit.zeta
        dev_epoch = max(dev_epoch, rel(e_end - predicted, e_end))
        for i in range(1, M):
            rhs = kit.m0_pows[M - i].copy()
            for l in range(M - i):
                rhs += c0 * (h[i + l] @ kit.m0_pows[l])
            dev_tel = max(dev_tel, rel(suf[i] - rhs, suf[i]))
    return dev_epoch, dev_tel, dev_anchor


@pytest.mark.parametrize("n,m,M,K,seed,path_seed,build", [
    (5, 3, 3, 2, 50, 0, verify._noisy_preconditioned),
    (4, 4, 2, 3, 51, 1, verify._noisy_preconditioned),
    (6, 3, 4, 3, 53, 2, raw_random),
    (4, 2, 1, 3, 54, 3, raw_random)])
def test_recursion_check_matches_single_path_loop_bitwise(n, m, M, K, seed,
                                                          path_seed, build):
    inst, y = build(n, m, seed=seed)
    c0 = 0.7 * step_constant(inst.a)
    rep = recursion_check(inst, y, c0, M, K, seed=path_seed)
    got = (rep.max_epoch_deviation, rep.max_telescope_deviation,
           rep.max_anchor_deviation)
    assert got == loop_recursion_check(inst, y, c0, M, K, path_seed)


# --- sampled moments ----------------------------------------------------------

def test_mc_moments_decomposition_is_exact():
    inst, y = random_preconditioned(6, 3, seed=53)
    cfg = SolverConfig(method="sgd", c0=0.5 * step_constant(inst.a),
                       max_epochs=3.0, seed=9)
    rep = mc_moments(inst, y, cfg, runs=40)
    assert_allclose(rep.mse, rep.bias_sq + rep.variance, rtol=1e-12)
    assert rep.run_count == 40 and rep.excluded_runs == ()


def test_mc_moments_agree_with_enumeration():
    inst, y = random_preconditioned(3, 2, seed=59)
    c0 = step_constant(inst.a)
    exact = enumerate_weighted_second_moment(inst, y, c0, 2, 2, "svrg",
                                             "I", "Binv_zeta")
    cfg = SolverConfig(method="svrg", c0=c0, max_epochs=4 / 1.2, M=2, seed=0,
                       checkpoint_every=100.0)
    acct_iters = 4  # K*M inner steps
    rep = mc_moments(inst, y, cfg, runs=4000)
    j = int(np.nonzero(rep.iterations == acct_iters)[0][0])
    se = rep.mse_stderr[j]
    assert abs(rep.mse[j] - exact) <= 4 * se


def test_stopping_stats_first_on_ties():
    curves = ErrorCurves(
        method="sgd", epochs=np.array([0.0, 1.0, 2.0]),
        iterations=np.array([0, 4, 8]),
        error_sq=np.array([[4.0, 1.0, 1.0], [9.0, 4.0, 1.0]]),
        residual_sq=None, excluded_runs=())
    kstar, e_mean, se = stopping_stats(curves)
    assert kstar == pytest.approx((1.0 + 2.0) / 2)
    assert e_mean == pytest.approx((1.0 + 1.0) / 2)
    assert se >= 0.0


def test_run_stops_take_the_first_minimum_of_each_run():
    curves = ErrorCurves(
        method="sgd", epochs=np.array([0.0, 1.0, 2.0]),
        iterations=np.array([0, 4, 8]),
        error_sq=np.array([[4.0, 1.0, 1.0], [9.0, 4.0, 1.0]]),
        residual_sq=None, excluded_runs=(3,))
    stops = run_stops(curves)
    assert_array_equal(stops.epochs, [1.0, 2.0])
    assert_array_equal(stops.error_sq, [1.0, 1.0])
    assert stops.excluded_runs == (3,)
    assert stopping_stats(stops) == stopping_stats(curves)


@pytest.mark.parametrize("report", ["error_curves", "mc_moments"])
def test_stopping_stats_of_joined_run_stops_are_the_whole_batch_bitwise(
        report):
    # the stops of runs 0-4 and 5-11, each batch reduced on its own and
    # joined in run order, give the statistics of the 12-run report's
    # curves, bit for bit
    inst, y = random_preconditioned(5, 2, seed=61)
    cfg = SolverConfig(method="sgd", c0=0.3 * step_constant(inst.a),
                       max_epochs=6.0, seed=3)
    if report == "error_curves":
        whole = error_curves(inst, y, cfg, runs=12)
        parts = [run_stops(error_curves(inst, y, cfg, runs=range(a, b)))
                 for a, b in ((0, 5), (5, 12))]
    else:
        whole = mc_moments(inst, y, cfg, runs=12)
        parts = [run_stops(error_curves(inst, y, cfg, runs=12))]
    joined = RunStops(
        epochs=np.concatenate([part.epochs for part in parts]),
        error_sq=np.concatenate([part.error_sq for part in parts]),
        excluded_runs=())
    assert joined.epochs.shape == joined.error_sq.shape == (12,)
    assert stopping_stats(joined) == stopping_stats(whole)


def test_error_curves_shape(tmp_path):
    inst, y = random_preconditioned(5, 2, seed=61)
    cfg = SolverConfig(method="sgd", c0=0.3 * step_constant(inst.a),
                       max_epochs=2.0, seed=3)
    curves = error_curves(inst, y, cfg, runs=7)
    assert curves.error_sq.shape == (7, curves.epochs.size)
    assert curves.excluded_runs == ()


# --- partial divergence ------------------------------------------------------

def diverging_shaw_case(factor, seed=5):
    """s-shaw n = 10 at sgd steps `factor` times the stability bound.  At 2.9
    runs 1, 10 and 11 of 12 trip the divergence guard; at 3.1 with seed 0,
    runs 0 and 1 of 3 do; at 4 every run does."""
    inst = gen_shaw(10)
    y = add_noise(inst, 1e-2, 3).y
    cfg = SolverConfig(method="sgd", c0=factor * step_stability_bound(inst, "sgd"),
                       max_epochs=60.0, seed=seed, allow_large_step=True)
    return inst, y, cfg


def checkpoints(inst, cfg):
    acct = EpochAccounting(cfg.method, inst.n, cfg.M)
    return checkpoint_iterations(acct, cfg)


def two_pass_mc_moments(inst, y, cfg, runs):
    """mc_moments as it was before one-pass recording: a first pass for the
    mean, a re-run of the kept runs on divergence, then a second pass for
    the spread around the mean."""
    cp = checkpoints(inst, cfg)
    subkeys = [(cfg.seed, r) for r in range(runs)]
    rec = SummingRecorder(inst, cp, runs)
    diverged = run_batch(inst, y, cfg, subkeys, rec)
    excluded = tuple(int(r) for r in np.nonzero(diverged)[0])
    if excluded:
        subkeys = [(cfg.seed, r) for r in range(runs) if r not in excluded]
        rec = SummingRecorder(inst, cp, len(subkeys))
        run_batch(inst, y, cfg, subkeys, rec)
    count = len(subkeys)
    mean_x = rec.sum_x / count
    rec2 = SummingRecorder(inst, cp, count, centers=mean_x)
    run_batch(inst, y, cfg, subkeys, rec2)
    diff = mean_x - inst.x_dag
    return {"bias_sq": np.einsum("cm,cm->c", diff, diff),
            "variance": rec2.centered_sq.mean(axis=0),
            "mse": rec.error_sq.mean(axis=0),
            "mse_stderr": rec.error_sq.std(axis=0, ddof=1) / math.sqrt(count),
            "error_sq": rec.error_sq, "run_count": count,
            "excluded_runs": excluded}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_error_curves_drop_diverged_rows():
    inst, y, cfg = diverging_shaw_case(2.9)
    curves = error_curves(inst, y, cfg, runs=12, include_residual=True)
    assert curves.excluded_runs == (1, 10, 11)
    kept = [(cfg.seed, r) for r in range(12) if r not in curves.excluded_runs]
    rec = _Recorder(inst, y, cfg, len(kept), want_residual=True)
    assert not run_batch(inst, y, cfg, kept, rec).any()
    assert_array_equal(curves.error_sq, rec.error_sq)
    assert_array_equal(curves.residual_sq, rec.residual_sq)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_moments_on_partial_divergence_match_two_passes():
    inst, y, cfg = diverging_shaw_case(2.9)
    rep = mc_moments(inst, y, cfg, runs=12)
    ref = two_pass_mc_moments(inst, y, cfg, runs=12)
    assert rep.excluded_runs == ref["excluded_runs"] == (1, 10, 11)
    for field, value in ref.items():
        assert_array_equal(getattr(rep, field), value, err_msg=field)


def test_mc_moments_match_two_passes():
    inst, y = raw_random(6, 4, seed=67)
    cfg = SolverConfig(method="svrg", c0=0.5 * step_stability_bound(inst, "svrg"),
                       max_epochs=5.0, M=3, seed=2, checkpoint_every=0.5)
    rep = mc_moments(inst, y, cfg, runs=9)
    ref = two_pass_mc_moments(inst, y, cfg, runs=9)
    assert rep.excluded_runs == ()
    for field, value in ref.items():
        assert_array_equal(getattr(rep, field), value, err_msg=field)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_messages():
    inst, y, cfg = diverging_shaw_case(4.0)
    with pytest.raises(ValueError, match="no runs survived"):
        error_curves(inst, y, cfg, runs=3)
    with pytest.raises(ValueError, match="no runs survived"):
        mc_moments(inst, y, cfg, runs=3)
    inst, y, cfg = diverging_shaw_case(3.1, seed=0)
    assert error_curves(inst, y, cfg, runs=3).excluded_runs == (0, 1)
    with pytest.raises(ValueError, match="fewer than two runs survived"):
        mc_moments(inst, y, cfg, runs=3)


# --- cell groups: one lockstep batch for several data vectors ----------------

def assert_same_report(got, expected):
    """Bitwise equality of two ErrorCurves or MomentReports, or of the two
    ValueErrors that ended a cell."""
    if isinstance(expected, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(expected)
        return
    assert type(got) is type(expected)
    for field in dataclasses.fields(expected):
        want, have = getattr(expected, field.name), getattr(got, field.name)
        if isinstance(want, np.ndarray):
            assert_array_equal(have, want, err_msg=field.name)
        else:
            assert have == want, field.name


def lone(fn, *args, **kwargs):
    """fn's result, or the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return exc


def assert_group_is_its_lone_cells(inst, ys, cfg, runs, seeds):
    curves = error_curves(inst, ys, cfg, runs, include_residual=True,
                          seeds=seeds)
    reports = mc_moments(inst, ys, cfg, runs, seeds=seeds)
    assert len(curves) == len(reports) == len(seeds)
    for c, seed in enumerate(seeds):
        alone = dataclasses.replace(cfg, seed=seed)
        y = ys[c].copy()
        assert_same_report(curves[c], lone(error_curves, inst, y, alone, runs,
                                           include_residual=True))
        assert_same_report(reports[c], lone(mc_moments, inst, y, alone, runs))
    return curves, reports


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 4),
                                      ("landweber", 1)])
def test_grouped_cells_are_bitwise_their_lone_calls(method, M, rotate):
    # three noise levels in one batch; the sgd horizon crosses an index chunk
    inst = gen_shaw(16)
    ys = np.array([add_noise(inst, eps, seed=3 + k).y
                   for k, eps in enumerate((5e-2, 1e-2, 1e-3))])
    if rotate:
        inst, ys = precondition(inst, ys)
    cfg = SolverConfig(method=method,
                       c0=0.5 * step_stability_bound(inst, method),
                       max_epochs=300.0, M=M, seed=1, checkpoint_every=7.0)
    assert_group_is_its_lone_cells(inst, ys, cfg, 4, seeds=(7, 11, 13))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grouped_divergence_is_bitwise_per_cell():
    # at 3.1 times the bound, runs 0 and 1 of seed 0 diverge; data that is
    # not finite ends every run of its cell
    inst, y, cfg = diverging_shaw_case(3.1, seed=0)
    ys = np.array([y, add_noise(inst, 1e-3, 4).y, np.full_like(y, np.nan), y])
    curves, reports = assert_group_is_its_lone_cells(inst, ys, cfg, 3,
                                                     seeds=(0, 5, 2, 9))
    assert curves[0].excluded_runs == (0, 1)
    assert "fewer than two" in str(reports[0])
    assert (str(curves[2]) == str(reports[2])
            == "no runs survived the divergence guard")


@pytest.mark.parametrize("method,M", [("sgd", 1), ("svrg", 4)])
def test_curves_are_bitwise_the_same_on_any_checkpoint_grid_and_chunk(
        monkeypatch, method, M):
    # a run's iterates are a function of its index path alone: neither the
    # checkpoint grid nor the index chunk, which decide where the kernel's
    # advance calls stop, changes a bit; the sgd horizon crosses a chunk
    # of the default length, and both cross many chunks of 97
    inst = gen_shaw(16)
    ys = np.array([add_noise(inst, eps, seed=3 + k).y
                   for k, eps in enumerate((5e-2, 1e-3))])
    base = SolverConfig(method=method,
                        c0=0.5 * step_stability_bound(inst, method),
                        max_epochs=300.0, M=M, seed=1)

    def curves(every):
        cfg = dataclasses.replace(base, checkpoint_every=every)
        grouped = error_curves(inst, ys, cfg, 3, include_residual=True,
                               seeds=(7, 11))
        alone = error_curves(inst, ys[1].copy(),
                             dataclasses.replace(cfg, seed=11), 3,
                             include_residual=True)
        return [*grouped, alone]

    fine = curves(1.0)
    others = [curves(7.0)]
    monkeypatch.setattr(solvers, "_CHUNK", 97)
    others += [curves(1.0), curves(7.0)]
    for other in others:
        for want, got in zip(fine, other):
            shared, i, j = np.intersect1d(want.iterations, got.iterations,
                                          return_indices=True)
            assert shared.size > 2 and shared[-1] == want.iterations[-1]
            assert_array_equal(got.error_sq[:, j], want.error_sq[:, i])
            assert_array_equal(got.residual_sq[:, j], want.residual_sq[:, i])


def test_grouped_cells_need_one_seed_per_data_vector():
    inst, y = raw_random(5, 3, seed=1)
    cfg = SolverConfig(method="sgd", c0=0.1 * step_constant(inst.a),
                       max_epochs=1.0)
    with pytest.raises(ValueError, match="one seed per data vector"):
        error_curves(inst, np.array([y, y]), cfg, 2, seeds=(1, 2, 3))


# --- condition constants and bounds (frozen rational arithmetic) --------------

def test_condition_report_reference_values():
    inst = make_instance("id3", np.eye(3), np.ones(3))  # ||B|| = 1/3
    rep = condition_report(inst, c0=1.0, M=3)
    assert rep.contraction_factor == pytest.approx(27 / 8, rel=1e-12)
    assert rep.inner_drift_sum == pytest.approx(34 / 81, rel=1e-12)
    assert rep.contraction_factor_sq == pytest.approx(81 / 16, rel=1e-12)
    assert rep.rate_lhs == pytest.approx(17 / 6, rel=1e-12)
    assert rep.rate_rhs == 0.5 and not rep.rate_ok
    assert rep.compare_lhs_step == pytest.approx(4 / 9, rel=1e-12)
    assert rep.compare_rhs_step == pytest.approx(8 / 81, rel=1e-12)
    assert rep.compare_lhs_size == 16.0
    assert rep.compare_rhs_size == pytest.approx(16 / 81, rel=1e-12)
    assert not rep.compare_ok


def test_condition_report_validation():
    inst = make_instance("id2", np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        condition_report(inst, c0=4.0, M=2)  # c0 ||B|| = 2


def test_theorem_bound_reference_values():
    # norm_b = 1/4, n = 4, c0 = 1, M = 2, nu = 0, ||w|| = 3/2, delta_bar = 1/4
    assert theorem_bound(0.25, 4, 1.0, 2, 1, 0.0, 1.5, 0.25) == pytest.approx(
        731 / 36, rel=1e-12)
    assert theorem_bound(0.25, 4, 1.0, 2, 3, 0.0, 1.5, 0.25) == pytest.approx(
        287 / 12, rel=1e-12)
    with pytest.raises(ValueError):
        theorem_bound(0.25, 4, 1.0, 2, 0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        theorem_bound(2.0, 4, 1.0, 2, 1, 0.0, 1.0, 0.1)


def test_residual_bound_reference_values():
    assert residual_bound(4, 1.0, 2, 1, 0.0, 1.5, 0.25) == pytest.approx(
        19.0, rel=1e-12)
    assert residual_bound(4, 1.0, 2, 4, 0.0, 1.5, 0.25) == pytest.approx(
        5.5, rel=1e-12)


def test_bounds_decay_then_grow_with_noise():
    # the approximation part shrinks in K, the noise part grows linearly
    lo = theorem_bound(0.1, 50, 1.0, 5, 1, 1.0, 1.0, 0.0)
    hi = theorem_bound(0.1, 50, 1.0, 5, 4, 1.0, 1.0, 0.0)
    assert hi < lo
    assert theorem_bound(0.1, 50, 1.0, 5, 4, 1.0, 1.0, 0.5) > hi


def test_rate_fit_recovers_exponent():
    deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    slope, intercept = rate_fit(deltas, 3.0 * deltas**0.75)
    assert slope == pytest.approx(0.75, rel=1e-12)
    assert intercept == pytest.approx(math.log(3.0), rel=1e-10)
    with pytest.raises(ValueError):
        rate_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        rate_fit([1.0, -1.0], [1.0, 1.0])


# --- weight-word language -----------------------------------------------------

def test_operator_word_weights_on_diagonal_gram():
    gram = GramOperator(np.diag([0.5, 0.125]))
    lam = gram.eigenvalues  # ascending: [0.125, 0.5]
    c0 = 1.0
    assert_array_equal(operator_word_weights(gram, c0, "I"), np.ones(2))
    assert_array_equal(operator_word_weights(gram, c0, "B"), lam)
    assert_allclose(operator_word_weights(gram, c0, "M0^2"), (1 - lam) ** 2,
                    rtol=1e-15)
    assert_allclose(operator_word_weights(gram, c0, "2*B^1/2 M0^3"),
                    2 * np.sqrt(lam) * (1 - lam) ** 3, rtol=1e-14)
    with pytest.raises(ValueError, match="token"):
        operator_word_weights(gram, c0, "Q^2")


def test_operator_word_matrix_identity():
    gram = GramOperator(np.diag([0.5, 0.25]))
    assert_allclose(operator_word_matrix(gram, 0.5, "I"), np.eye(2), atol=1e-15)


def test_shift_vector_variants():
    inst, y = tiny_instance()
    assert_array_equal(shift_vector(inst, y, "0"), np.zeros(2))
    zeta = noise_functional(inst, y)
    assert_allclose(shift_vector(inst, y, "Binv_zeta"),
                    inst.gram.pinv_apply(zeta), rtol=1e-14)
    with pytest.raises(ValueError):
        shift_vector(inst, y, "whatever")


@given(lam=arrays(np.float64, 3, elements=st.floats(0.01, 1.0)),
       power=st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_closed_form_mean_noise_free_is_propagator_power(lam, power):
    gram = GramOperator(np.diag(lam))
    e0 = np.array([1.0, -2.0, 0.5])
    c0 = 0.9 / lam.max()
    mean = closed_form_mean(gram, e0, np.zeros(3), c0, M=power, K=1)
    prop = Propagator(gram, c0)
    assert_allclose(mean, prop.apply_power(power, e0), rtol=1e-11, atol=1e-13)
