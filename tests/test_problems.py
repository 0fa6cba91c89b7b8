"""Test-problem generators, smoothing, noise, and the orthogonal-row rotation."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stochreg.problems import (NoisyData, add_noise, gen_gravity, gen_phillips,
                               gen_shaw, generate, is_preconditioned,
                               load_instance, load_noisy, make_instance,
                               precondition, rescale_to_unit_norm,
                               save_instance, save_noisy, smooth_solution,
                               source_element, SourceConditionError)


# --- generators --------------------------------------------------------------

def test_shaw_symmetric():
    a = gen_shaw(4).a
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()


def test_shaw_diagonal_entry_oracle():
    n = 4
    inst = gen_shaw(n)
    h = math.pi / n
    s1 = -math.pi / 2 + 0.5 * h
    u = math.pi * (math.sin(s1) + math.sin(s1))
    expected = h * (math.cos(s1) + math.cos(s1)) ** 2 * (math.sin(u) / u) ** 2
    assert inst.a[0, 0] == pytest.approx(expected, rel=1e-12)


def test_shaw_severely_ill_posed():
    s = np.linalg.svd(gen_shaw(32).a, compute_uv=False)
    assert s[19] / s[0] < 1e-10


def test_gravity_symmetric_toeplitz():
    a = gen_gravity(4).a
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
    assert_allclose(a[:-1, :-1], a[1:, 1:], rtol=1e-12)


def test_gravity_entry_oracle():
    n, d = 5, 0.25
    inst = gen_gravity(n, d)
    grid = [(i + 0.5) / n for i in range(n)]
    expected = (1 / n) * d / (d * d + (grid[1] - grid[3]) ** 2) ** 1.5
    assert inst.a[1, 3] == pytest.approx(expected, rel=1e-12)


def test_gravity_depth_controls_conditioning():
    # a deeper source smooths the kernel, so conditioning degrades with d
    s_shallow = np.linalg.svd(gen_gravity(32, 0.05).a, compute_uv=False)
    s_default = np.linalg.svd(gen_gravity(32, 0.25).a, compute_uv=False)
    assert s_shallow[0] / s_shallow[-1] < s_default[0] / s_default[-1]


def test_gravity_rejects_bad_depth():
    with pytest.raises(ValueError):
        gen_gravity(8, d=0.0)


def test_phillips_band_is_exactly_zero():
    inst = gen_phillips(8)
    grid = np.array([-6 + 12 * j / 8 for j in range(8)])
    gap = np.abs(grid[:, None] - grid[None, :])
    assert np.all(inst.a[gap >= 3.0] == 0.0)
    assert np.all(inst.a[gap < 3.0] > 0.0)


def test_phillips_solution_peak():
    inst = gen_phillips(16)
    # the grid contains t = 0, where the solution equals 1 + cos(0) = 2
    assert inst.x_dag[8] == 2.0
    assert np.abs(inst.x_dag).max() == 2.0


def test_phillips_solution_support():
    inst = gen_phillips(24)
    grid = np.array([-6 + 12 * j / 24 for j in range(24)])
    assert np.all(inst.x_dag[np.abs(grid) >= 3.0] == 0.0)


@pytest.mark.parametrize("n", [3, 30])
def test_phillips_rejects_bad_n(n):
    with pytest.raises(ValueError):
        gen_phillips(n)


@pytest.mark.parametrize("name", ["s-shaw", "s-gravity", "s-phillips"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_exact_data_consistency(name, n):
    inst = generate(name, n)
    resid = np.linalg.norm(inst.a @ inst.x_dag - inst.y_dag)
    assert resid <= 1e-10 * (1 + np.linalg.norm(inst.y_dag))
    assert_array_equal(inst.x0, np.zeros(inst.m))


def test_generate_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        generate("s-heat", 8)


# --- smoothing and source elements -------------------------------------------

def test_smooth_solution_nu_zero_is_normalization():
    inst = gen_shaw(16)
    out = smooth_solution(inst, 0.0)
    assert_allclose(out.x_dag, inst.x_dag / np.abs(inst.x_dag).max(), rtol=1e-15)
    assert np.abs(out.x_dag).max() == 1.0


def test_smooth_solution_diagonal_case():
    inst = make_instance("diag", np.diag([2.0, 1.0]), np.array([1.0, 1.0]))
    out = smooth_solution(inst, 1.0)
    # (A^T A) x = (4, 1), so the normalized solution is (1, 1/4)
    assert_allclose(out.x_dag, [1.0, 0.25], rtol=1e-14)
    assert out.nu == 1.0


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_smooth_solution_unit_max_norm(nu):
    out = smooth_solution(gen_gravity(12), nu)
    assert np.abs(out.x_dag).max() == pytest.approx(1.0, abs=1e-14)


def test_smooth_solution_matches_repeated_multiplication():
    inst = gen_shaw(32)
    ata = inst.a.T @ inst.a
    v = ata @ (ata @ inst.x_dag)
    expected = v / np.abs(v).max()
    out = smooth_solution(inst, 2.0)
    assert_allclose(out.x_dag, expected, rtol=1e-10, atol=1e-12)


def test_source_element_nu_zero():
    inst = smooth_solution(gen_gravity(8), 0.0)
    se = source_element(inst)
    assert_array_equal(se.w, inst.x_dag - inst.x0)
    assert se.residual == 0.0


def test_source_element_at_solution_start():
    inst0 = gen_gravity(8)
    inst = make_instance(inst0.name, inst0.a, inst0.x_dag, x0=inst0.x_dag,
                         nu=1.0)
    se = source_element(inst)
    assert_array_equal(se.w, np.zeros(inst.m))


def test_source_element_full_rank_algebra():
    # on a well-conditioned full-rank matrix, w = n^nu x_e / max|(A^T A)^nu x_e|
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 4)) + 3 * np.eye(6, 4)
    x_e = rng.normal(size=4)
    inst = smooth_solution(make_instance("rand", a, x_e), 1.0)
    se = source_element(inst)
    assert se.residual <= 1e-8
    expected = 6 * x_e / np.abs(a.T @ a @ x_e).max()
    assert_allclose(se.w, expected, rtol=1e-8)


def test_source_element_raises_outside_range():
    # an ill-posed instance whose solution was never smoothed has no nu = 4
    # representation within tolerance
    inst0 = gen_shaw(16)
    inst = make_instance(inst0.name, inst0.a, inst0.x_dag, nu=4.0)
    with pytest.raises(SourceConditionError):
        source_element(inst)


# --- noise -------------------------------------------------------------------

def test_add_noise_zero_epsilon():
    inst = gen_shaw(8)
    data = add_noise(inst, 0.0, seed=5)
    assert_array_equal(data.y, inst.y_dag)
    assert data.delta == 0.0
    assert data.delta_bar == 0.0


def test_add_noise_deterministic():
    inst = gen_gravity(16)
    one = add_noise(inst, 1e-2, seed=99)
    two = add_noise(inst, 1e-2, seed=99)
    assert_array_equal(one.y, two.y)
    assert one.delta == two.delta
    assert not np.array_equal(one.y, add_noise(inst, 1e-2, seed=100).y)


def test_add_noise_magnitude():
    inst = gen_shaw(1000)
    data = add_noise(inst, 1e-2, seed=0)
    ratio = data.delta / (1e-2 * np.abs(inst.y_dag).max())
    assert abs(ratio / math.sqrt(1000) - 1) < 0.1
    assert data.delta == pytest.approx(np.linalg.norm(data.y - inst.y_dag),
                                       rel=1e-12)
    assert data.delta_bar == pytest.approx(data.delta / math.sqrt(1000),
                                           rel=1e-15)


def test_add_noise_rejects_negative():
    with pytest.raises(ValueError):
        add_noise(gen_shaw(4), -0.1, seed=0)


# --- preconditioning and rescaling -------------------------------------------

def test_precondition_preserves_gram_and_residuals():
    rng = np.random.default_rng(31)
    inst = make_instance("rand", rng.normal(size=(6, 4)), rng.normal(size=4))
    y = inst.y_dag + rng.normal(size=6) * 0.1
    rot, y_rot = precondition(inst, y)
    assert is_preconditioned(rot)
    assert_allclose(rot.a.T @ rot.a, inst.a.T @ inst.a, rtol=0,
                    atol=1e-10 * np.abs(inst.a.T @ inst.a).max())
    x = rng.normal(size=4)
    assert np.linalg.norm(rot.a @ x - y_rot) == pytest.approx(
        np.linalg.norm(inst.a @ x - y), rel=1e-10)
    assert_allclose(np.linalg.svd(rot.a, compute_uv=False),
                    np.linalg.svd(inst.a, compute_uv=False), rtol=1e-10)


def test_precondition_fixed_point():
    # a matrix that is already diag(s) V^T with positive diagonal stays put
    inst = make_instance("diag", np.diag([3.0, 1.0]), np.array([1.0, 2.0]))
    rot, y_rot = precondition(inst, inst.y_dag)
    assert_allclose(rot.a, inst.a, rtol=0, atol=1e-14)
    assert_allclose(y_rot, inst.y_dag, rtol=0, atol=1e-14)


def inline_sign_precondition(inst, y):
    """precondition with its own copy of spectral.svd's sign-fix loop."""
    u, s, vt = np.linalg.svd(inst.a, full_matrices=True)
    for k in range(s.size):
        idx = int(np.argmax(np.abs(vt[k])))
        if vt[k, idx] < 0:
            vt[k] = -vt[k]
            u[:, k] = -u[:, k]
    a_rot = u.T @ inst.a
    return a_rot, np.einsum("nm,m->n", a_rot, inst.x_dag), u.T @ y


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
def test_precondition_bits_match_inline_sign_fix(shape):
    rng = np.random.default_rng(37)
    inst = make_instance("rand", rng.normal(size=shape),
                         rng.normal(size=shape[1]))
    y = inst.y_dag + rng.normal(size=shape[0]) * 0.1
    rot, y_rot = precondition(inst, y)
    a_rot, y_dag, y_ref = inline_sign_precondition(inst, y)
    assert_array_equal(rot.a, a_rot)
    assert_array_equal(rot.y_dag, y_dag)
    assert_array_equal(y_rot, y_ref)


def test_raw_problem_rows_not_orthogonal():
    assert not is_preconditioned(gen_shaw(16))


def test_rescale_to_unit_norm():
    inst = rescale_to_unit_norm(gen_gravity(16))
    assert np.linalg.norm(inst.a, 2) == pytest.approx(1.0, rel=1e-12)
    assert inst.gram.norm == pytest.approx(1.0 / 16, rel=1e-12)


# --- validation and serialization --------------------------------------------

def test_instance_validation():
    a = np.eye(2)
    with pytest.raises(ValueError, match="shapes"):
        make_instance("bad", a, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        make_instance("bad", np.array([[np.inf, 0], [0, 1]]), np.ones(2))


def test_instance_fields_frozen():
    inst = gen_shaw(4)
    with pytest.raises(ValueError):
        inst.a[0, 0] = 7.0


def test_instance_json_roundtrip(tmp_path):
    inst = smooth_solution(gen_phillips(8), 1.0)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.name == inst.name and back.nu == inst.nu
    assert_array_equal(back.a, inst.a)
    assert_array_equal(back.x_dag, inst.x_dag)
    assert_array_equal(back.y_dag, inst.y_dag)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "problem_instance" and doc["schema"] == 1


def test_noisy_json_roundtrip(tmp_path):
    data = add_noise(gen_shaw(8), 5e-2, seed=3)
    path = tmp_path / "noise.json"
    save_noisy(data, path)
    back = load_noisy(path)
    assert_array_equal(back.y, data.y)
    assert back.delta == data.delta and back.seed == 3
    with pytest.raises(ValueError, match="problem-instance"):
        load_instance(path)


def test_noisy_data_requires_finite():
    with pytest.raises(ValueError):
        NoisyData(y=np.array([1.0, np.nan]), epsilon=0.1, seed=0, delta=0.5)
