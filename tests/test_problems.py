"""Test-problem generators, smoothing, noise, and the orthogonal-row rotation."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stochreg import problems
from stochreg.problems import (NoisyData, ProblemInstance, add_noise,
                               gen_gravity, gen_phillips, gen_shaw, generate,
                               is_preconditioned,
                               load_instance, load_noisy, make_instance,
                               precondition, rescale_to_unit_norm,
                               row_orthogonality_gap, save_instance,
                               save_noisy, smooth_solution, source_element,
                               SourceConditionError)


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
    inst = gen_gravity(n)
    grid = [(i + 0.5) / n for i in range(n)]
    expected = (1 / n) * d / (d * d + (grid[1] - grid[3]) ** 2) ** 1.5
    assert inst.a[1, 3] == pytest.approx(expected, rel=1e-12)


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


def full_array_matrix(name, n):
    """Each generator's matrix as one full-array expression, every n x n
    temporary at once: the referee of the row-block fill."""
    if name == "s-shaw":
        h = np.pi / n
        grid = -np.pi / 2 + (np.arange(1, n + 1) - 0.5) * h
        s, t = grid[:, None], grid[None, :]
        u_over_pi = np.sin(s) + np.sin(t)
        return h * (np.cos(s) + np.cos(t)) ** 2 * np.sinc(u_over_pi) ** 2
    if name == "s-gravity":
        d = 0.25
        grid = (np.arange(1, n + 1) - 0.5) / n
        diff = grid[:, None] - grid[None, :]
        return (1.0 / n) * d / (d * d + diff**2) ** 1.5
    j = np.arange(n)
    offsets = j[:, None] - j[None, :]
    vals = 1.0 + np.cos(np.pi * ((12.0 * offsets) / n) / 3.0)
    return (12.0 / n) * np.where(4 * np.abs(offsets) < n, vals, 0.0)


_B = problems._ROW_BLOCK
# sizes on each side of one and of two row blocks, and the paper's n
_EDGES = sorted({2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 1000})
_EDGES_BY_4 = sorted({4, _B - 4, _B, _B + 4, 2 * _B - 4, 2 * _B, 2 * _B + 4, 1000})


@pytest.mark.parametrize("name,n", [(name, n) for name in ("s-shaw", "s-gravity")
                                    for n in _EDGES]
                         + [("s-phillips", n) for n in _EDGES_BY_4])
def test_row_block_fill_is_the_full_array_bitwise(name, n):
    expected = full_array_matrix(name, n)
    assert generate(name, n).a.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["s-shaw", "s-gravity", "s-phillips"])
def test_generator_memory_is_the_matrix_alone(name):
    # the full-array expressions peaked at 23-38 MiB beside a 7.6 MiB A
    tracemalloc.start()
    try:
        a = generate(name, 1000).a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= a.nbytes + 2 * 2**20, peak


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


def test_row_gram_diagonal_is_selected_on_preconditioned_rows_only():
    raw = gen_shaw(16)
    assert raw.row_gram_diagonal is None
    rot = precondition(raw)[0]
    assert_array_equal(rot.row_gram_diagonal, np.diag(rot.row_gram))
    assert not rot.row_gram_diagonal.flags.writeable


def test_row_gram_diagonal_selection_stops_at_the_rounding_bound():
    # one off-diagonal dot a_0 . a_1 = delta of an otherwise identity 4 x 4
    # matrix: the gap is delta, and the bound is max(n, m) eps = 2^-50
    bound = 4 * np.finfo(np.float64).eps
    for delta, diagonal in ((bound, True),
                            (np.nextafter(bound, 1.0), False)):
        a = np.eye(4)
        a[0, 1] = delta
        inst = make_instance("coupled", a, np.ones(4))
        assert row_orthogonality_gap(inst) == delta
        assert (inst.row_gram_diagonal is not None) == diagonal


@pytest.mark.parametrize("n", [5, 150, 300])
def test_row_orthogonality_gap_block_scan_is_the_whole_matrix_form(n):
    # K is scanned in blocks of 64 KiB of rows: one block at n = 5, three
    # at 150 and twelve at 300; the scaled last row and column hold the
    # largest off-diagonal entries
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 7))
    a[-1] *= 3.0
    inst = make_instance("rand", a, rng.normal(size=7))
    k = inst.row_gram
    off = k - np.diag(np.diag(k))
    assert row_orthogonality_gap(inst) == float(
        np.abs(off).max() / np.abs(np.diag(k)).max())


def test_rescale_to_unit_norm():
    inst = rescale_to_unit_norm(gen_gravity(16))
    assert np.linalg.norm(inst.a, 2) == pytest.approx(1.0, rel=1e-12)
    assert inst.gram.norm == pytest.approx(1.0 / 16, rel=1e-12)


# --- validation and serialization --------------------------------------------

def test_instance_validation():
    a = np.eye(2)
    with pytest.raises(ValueError, match="shapes"):
        make_instance("bad", a, np.ones(3))
    fields = {"a": np.eye(2), "x_dag": np.ones(2), "y_dag": np.ones(2),
              "x0": np.zeros(2)}
    for name in fields:
        for bad in (np.nan, np.inf, -np.inf):
            broken = dict(fields)
            broken[name] = broken[name].copy()
            broken[name][-1] = bad
            with pytest.raises(ValueError, match="finite"):
                ProblemInstance("bad", **broken)
    # size-0 fields are accepted
    assert make_instance("empty", np.zeros((2, 0)), np.zeros(0)).m == 0


@pytest.mark.parametrize("a", [np.zeros((0, 2)), np.zeros(0)],
                         ids=["0x2", "empty-list"])
def test_instance_without_rows_is_rejected_by_name(a):
    # an instance needs one equation; numpy's reduction over the empty data
    # must not be the error a caller sees
    with pytest.raises(ValueError, match="a has no rows"):
        ProblemInstance("empty", a=a, x_dag=np.zeros(2), y_dag=np.zeros(0),
                        x0=np.zeros(2))
    with pytest.raises(ValueError, match="a has no rows"):
        make_instance("empty", np.zeros((0, 2)), np.zeros(2))


def test_instance_check_makes_no_full_size_temporary():
    # np.isfinite(a) would be a bool array the size of a (0.95 MiB here)
    inst = generate("s-phillips", 1000)
    tracemalloc.start()
    try:
        make_instance(inst.name, inst.a, inst.x_dag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10, peak


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
