"""Gram operator, propagator, and spectral-filter behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from stochreg.spectral import (GramOperator, Propagator, build_gram,
                               kernel_bound_check, step_constant, svd)
from stochreg.problems import gen_shaw


def naive_gram(a):
    # triple loop on purpose; independent of any numpy matrix product
    n, m = a.shape
    out = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            s = 0.0
            for k in range(n):
                s += a[k][i] * a[k][j]
            out[i][j] = s / n
    return np.array(out)


def test_gram_identity():
    g = build_gram(np.eye(3))
    assert_allclose(g.matrix, np.eye(3) / 3, rtol=0, atol=0)
    assert g.norm == pytest.approx(1 / 3, rel=1e-15)


def test_gram_diagonal():
    g = build_gram(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert_allclose(g.matrix, np.diag([2.0, 0.0]), rtol=0, atol=0)
    assert g.norm == pytest.approx(2.0, rel=1e-14)


def test_gram_matches_triple_loop():
    rng = np.random.default_rng(42)
    a = rng.choice([-1.0, 1.0], size=(4, 3))
    g = build_gram(a)
    assert_allclose(g.matrix, naive_gram(a), rtol=1e-12, atol=1e-15)


def test_gram_rejects_nonfinite():
    with pytest.raises(ValueError):
        build_gram(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_step_constant_identity():
    assert step_constant(np.eye(3)) == 1.0


def test_step_constant_uses_largest_row():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])  # row norms 1, 2, 3
    assert step_constant(a) == pytest.approx(1 / 9, rel=1e-15)


def test_step_constant_shaw_oracle():
    inst = gen_shaw(16)
    worst = max(sum(v * v for v in row) for row in inst.a)
    assert step_constant(inst.a) == pytest.approx(1.0 / worst, rel=1e-12)


def test_step_constant_zero_matrix():
    with pytest.raises(ValueError):
        step_constant(np.zeros((2, 2)))


def test_propagator_identity_gram():
    prop = Propagator(GramOperator(np.eye(2)), 0.5)
    assert_allclose(prop.matrix, 0.5 * np.eye(2), rtol=0, atol=0)
    assert prop.stable


def test_propagator_diagonal_gram():
    prop = Propagator(GramOperator(np.diag([1.0, 0.0])), 1.0)
    assert_allclose(prop.matrix, np.diag([0.0, 1.0]), rtol=0, atol=0)
    assert sorted(prop.eigenvalues) == [0.0, 1.0]


@pytest.mark.parametrize("k", [5, 64])
def test_propagator_power_matches_repeated_multiplication(k):
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 3))
    gram = GramOperator(h @ h.T / 10.0)
    prop = Propagator(gram, 0.9 / gram.norm)
    v = rng.normal(size=3)
    expected = v.copy()
    for _ in range(k):
        expected = expected - prop.c0 * (gram.matrix @ expected)
    got = prop.apply_power(k, v)
    assert_allclose(got, expected, rtol=1e-10, atol=1e-13 * np.abs(expected).max())


def test_fractional_power_requires_stable_step():
    gram = GramOperator(np.diag([2.0, 1.0]))
    unstable = Propagator(gram, 1.0)  # eigenvalue 1 - 2 = -1
    assert not unstable.stable
    with pytest.raises(ValueError):
        unstable.power_weights(0.5)
    # integer powers are still fine
    assert_array_equal(unstable.power_weights(2), unstable.eigenvalues ** 2)


@given(arrays(np.float64, (4, 3), elements=st.floats(-10, 10, allow_nan=False)))
@settings(max_examples=50, deadline=None)
def test_stability_bound_keeps_spectrum_in_unit_interval(a):
    if np.abs(a).max() < 1e-3:
        return
    gram = build_gram(a)
    prop = Propagator(gram, step_constant(a))
    assert prop.stable
    assert prop.eigenvalues.max() <= 1.0 + 1e-12


def test_scaling_consistency():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 3))
    alpha = 2.5
    g1, g2 = build_gram(a), build_gram(alpha * a)
    assert_allclose(g2.matrix, alpha**2 * g1.matrix, rtol=1e-13)
    c0 = 0.3 / g1.norm
    m1 = Propagator(g1, c0).matrix
    m2 = Propagator(g2, c0 / alpha**2).matrix
    assert_allclose(m2, m1, rtol=0, atol=1e-14)


def test_pseudo_inverse_power_projects_onto_range():
    a = np.array([[2.0, 0.0], [0.0, 0.0]])  # rank 1
    gram = build_gram(a)
    v = np.array([3.0, 5.0])
    w = gram.apply_power(-1.0, v)
    # B B^+ v keeps only the range component
    assert_allclose(gram.matrix @ w, [3.0, 0.0], rtol=1e-14, atol=1e-14)
    assert gram.power_weights(-1.0)[gram.eigenvalues <= gram.cutoff].sum() == 0.0


@pytest.mark.parametrize("j", [1, 4, 9])
def test_step_sum_identity(j):
    # c0 * sum_{i<j} M0^i equals (I - M0^j) B^+ on the range of B
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4))
    gram = GramOperator(h @ h.T / 8.0)
    c0 = 0.7 / gram.norm
    prop = Propagator(gram, c0)
    v = gram.matrix @ rng.normal(size=4)
    acc = np.zeros(4)
    for i in range(j):
        acc = acc + prop.apply_power(i, v)
    lhs = c0 * acc
    rhs = gram.pinv_apply(v - prop.apply_power(j, v))
    assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12 * np.linalg.norm(v))


def test_kernel_bound_scalar_case():
    rep = kernel_bound_check(np.array([0.5]), c0=1.0, M=2, K=3, s=1.0, t=1.0)
    assert rep.lhs_power == pytest.approx(0.5 * 0.5**6, rel=1e-14)
    assert rep.rhs_power == pytest.approx(1 / 6, rel=1e-14)
    assert rep.passed


def test_kernel_bound_zero_exponents():
    rep = kernel_bound_check(np.array([0.5, 0.125]), c0=1.0, M=2, K=2,
                             s=0.0, t=0.0)
    assert rep.rhs_power == 1.0  # 0**0 == 1
    assert rep.lhs_power <= 1.0
    assert rep.passed


def test_kernel_bound_sweep():
    rng = np.random.default_rng(17)
    for _ in range(200):
        lam = rng.uniform(1e-6, 1.0, size=rng.integers(1, 6))
        rep = kernel_bound_check(
            lam, c0=1.0,
            M=int(rng.integers(1, 9)), K=int(rng.integers(1, 9)),
            s=float(rng.choice([0.5, 1.0, 2.0])),
            t=float(rng.choice([0.0, 0.5, 1.0])))
        assert rep.passed


def test_kernel_bound_rejects_bad_exponents():
    b = np.array([0.5])
    with pytest.raises(ValueError):
        kernel_bound_check(b, 1.0, 2, 2, s=-1.0)
    with pytest.raises(ValueError):
        kernel_bound_check(b, 1.0, 2, 2, t=1.5)
    with pytest.raises(ValueError):
        kernel_bound_check(np.array([2.0]), 1.0, 2, 2)  # c0 * lam > 1


def test_svd_diagonal():
    f = svd(np.diag([3.0, 2.0, 1.0]))
    assert_array_equal(f.s, [3.0, 2.0, 1.0])
    assert_allclose(f.u, np.eye(3), rtol=0, atol=1e-15)
    assert_allclose(f.vt, np.eye(3), rtol=0, atol=1e-15)


def test_svd_rank_one():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    f = svd(np.outer(u, v), tau=1e-10)
    assert f.s.size == 1
    assert f.s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v),
                                   rel=1e-13)


def test_svd_shaw_reconstruction():
    a = gen_shaw(32).a
    f = svd(a)
    err = np.linalg.norm(a - (f.u * f.s) @ f.vt, 2)
    assert err <= 1e-10 * np.linalg.norm(a, 2)


def test_svd_sign_canonical():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 4))
    f = svd(a)
    for row in f.vt:
        assert row[np.argmax(np.abs(row))] > 0
