"""Discretized ill-posed test problems and data generation.

Three classic first-kind Fredholm kernels are discretized on uniform grids of
the unit interval of their respective domains.  Instances carry the exact
discrete solution and exact data y_dag = A x_dag, so errors and residuals have
unambiguous references.  Gaussian noise, solution smoothing, source elements,
and the orthogonal-row change of basis are provided alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fileio
from .rng import check_seed, standard_gaussians
from .spectral import GramOperator, build_gram, fix_singular_signs


_EPS = np.finfo(np.float64).eps
# bytes per block of the orthogonality scan's |K| temporary: below glibc's
# 128 KiB mmap threshold, which a larger freed block raises, moving the
# grid's later buffers onto the heap (1 MiB more peak RSS on the table grid)
_GAP_BLOCK_BYTES = 1 << 16
# rows per block of a generated test matrix: at n = 1000 the temporaries of
# one s-shaw block stay under 1.5 MiB beside the 7.6 MiB matrix
_ROW_BLOCK = 32


class SourceConditionError(ValueError):
    """The requested smoothness representation does not hold numerically."""


@dataclass(frozen=True)
class ProblemInstance:
    """A linear system with known exact solution and exact data."""

    name: str
    a: np.ndarray
    x_dag: np.ndarray
    y_dag: np.ndarray
    x0: np.ndarray
    nu: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        x_dag = np.asarray(self.x_dag, dtype=np.float64)
        y_dag = np.asarray(self.y_dag, dtype=np.float64)
        x0 = np.asarray(self.x0, dtype=np.float64)
        if a.ndim in (1, 2) and not a.shape[0]:
            raise ValueError("a has no rows: an instance needs at least one "
                             "equation")
        if a.ndim != 2:
            raise ValueError("a must be a matrix")
        n, m = a.shape
        if x_dag.shape != (m,) or x0.shape != (m,) or y_dag.shape != (n,):
            raise ValueError("field shapes are inconsistent with a")
        for arr in (a, x_dag, y_dag, x0):
            # min and max propagate NaN and show +-inf as an extreme, with
            # no temporary the size of the field
            if arr.size and not (np.isfinite(arr.min())
                                 and np.isfinite(arr.max())):
                raise ValueError("instance fields must be finite")
        scale = 1.0 + np.abs(y_dag).max()
        if np.abs(a @ x_dag - y_dag).max() > 1e-8 * scale:
            raise ValueError("y_dag does not match a @ x_dag")
        for arr in (a, x_dag, y_dag, x0):
            arr.flags.writeable = False
        for field, arr in (("a", a), ("x_dag", x_dag), ("y_dag", y_dag), ("x0", x0)):
            object.__setattr__(self, field, arr)
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]

    @cached_property
    def gram(self) -> GramOperator:
        return build_gram(self.a)

    @cached_property
    def row_gram(self) -> np.ndarray:
        """K = A A^T (n x n), the row dots a_i . a_j that every method's step
        reads, unless row_gram_diagonal selects the diagonal form, and that
        row_orthogonality_gap checks; built once per instance, so every
        kernel on it shares it."""
        return self.a @ self.a.T

    @cached_property
    def row_gram_diagonal(self) -> np.ndarray | None:
        """The diagonal of row_gram when the rows are orthogonal to rounding,
        else None.  The rule is row_orthogonality_gap <= max(n, m) eps, the
        rounding bound of the dot products K is built from: the step kernel
        then drops only off-diagonal entries that cannot be told apart from
        zero, and works on this diagonal instead of K."""
        if row_orthogonality_gap(self) > max(self.n, self.m) * _EPS:
            return None
        diagonal = np.diagonal(self.row_gram).copy()
        diagonal.flags.writeable = False
        return diagonal


def exact_data(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x through the same einsum reduction that solvers.residuals takes at
    x0, so the residual of an exact-data start at x_dag is exactly zero and
    every method stays put bit for bit: the step kernel's dual coordinates
    and its anchor shift stay zero."""
    return np.einsum("nm,m->n", a, x)


def make_instance(name, a, x_dag, x0=None, nu=0.0) -> ProblemInstance:
    a = np.asarray(a, dtype=np.float64)
    x_dag = np.asarray(x_dag, dtype=np.float64)
    if x0 is None:
        x0 = np.zeros(a.shape[1])
    return ProblemInstance(name=name, a=a, x_dag=x_dag, y_dag=exact_data(a, x_dag),
                           x0=np.asarray(x0, dtype=np.float64), nu=nu)


def _fill_rows(grid: np.ndarray, rows) -> np.ndarray:
    """The square matrix whose rows are rows(s), s a column of grid values,
    filled _ROW_BLOCK rows at a time so that the elementwise temporaries of
    rows are block-sized and none is made at full size beside the matrix.
    Each entry comes from the same elementwise expression whatever the
    block, so the matrix is the full-array expression bit for bit."""
    a = np.empty((grid.size, grid.size))
    for lo in range(0, grid.size, _ROW_BLOCK):
        a[lo:lo + _ROW_BLOCK] = rows(grid[lo:lo + _ROW_BLOCK, None])
    return a


def gen_shaw(n: int) -> ProblemInstance:
    """One-dimensional image reconstruction kernel on [-pi/2, pi/2]."""
    if n < 2:
        raise ValueError("need n >= 2")
    h = np.pi / n
    grid = -np.pi / 2 + (np.arange(1, n + 1) - 0.5) * h
    t = grid[None, :]
    # sinc(sin s + sin t) = sin(u) / u with u = pi * (sin s + sin t)
    a = _fill_rows(grid, lambda s: h * (np.cos(s) + np.cos(t)) ** 2
                   * np.sinc(np.sin(s) + np.sin(t)) ** 2)
    x = 2.0 * np.exp(-6.0 * (grid - 0.8) ** 2) + np.exp(-2.0 * (grid + 0.5) ** 2)
    return make_instance(f"s-shaw-{n}", a, x)


def gen_gravity(n: int) -> ProblemInstance:
    """Gravity surveying kernel on [0, 1] at source depth d = 0.25."""
    if n < 2:
        raise ValueError("need n >= 2")
    d = 0.25
    grid = (np.arange(1, n + 1) - 0.5) / n
    a = _fill_rows(grid, lambda s: (1.0 / n) * d
                   / (d * d + (s - grid[None, :])**2) ** 1.5)
    x = np.sin(np.pi * grid) + 0.5 * np.sin(2.0 * np.pi * grid)
    return make_instance(f"s-gravity-{n}", a, x)


def gen_phillips(n: int) -> ProblemInstance:
    """Convolution with the compactly supported cosine bump on [-6, 6].

    The grid contains 0 and aligns with the support boundary |s - t| = 3, so
    matrix entries outside the band and solution samples outside the support
    are exact zeros (the on/off decision is made in integer arithmetic).
    """
    if n < 4 or n % 4:
        raise ValueError("need n divisible by 4")
    j = np.arange(n)
    w = 12.0 / n
    grid = (12.0 * j - 6.0 * n) / n  # -6 + j*w with t = 0 landing exactly on 0.0

    def rows(i):
        offsets = i - j[None, :]
        vals = 1.0 + np.cos(np.pi * ((12.0 * offsets) / n) / 3.0)
        return w * np.where(4 * np.abs(offsets) < n, vals, 0.0)

    a = _fill_rows(j, rows)
    x = np.where(np.abs(4 * j - 2 * n) < n, 1.0 + np.cos(np.pi * grid / 3.0), 0.0)
    return make_instance(f"s-phillips-{n}", a, x)


GENERATORS = {"s-shaw": gen_shaw, "s-gravity": gen_gravity, "s-phillips": gen_phillips}


def generate(name: str, n: int) -> ProblemInstance:
    if name not in GENERATORS:
        raise ValueError(f"unknown problem {name!r}; choices: {sorted(GENERATORS)}")
    return GENERATORS[name](n)


def smooth_solution(inst: ProblemInstance, nu: float) -> ProblemInstance:
    """Replace the exact solution by (A^T A)^nu x applied to the current one,
    rescaled to unit max norm, and recompute the exact data."""
    if nu < 0:
        raise ValueError("smoothing exponent must be nonnegative")
    if nu == 0:
        v = inst.x_dag.copy()
    else:
        ata = GramOperator(inst.a.T @ inst.a)
        v = ata.apply_power(nu, inst.x_dag)
    top = np.abs(v).max()
    if top <= 0:
        raise ValueError("smoothed solution vanishes; cannot normalize")
    x_new = v / top
    return ProblemInstance(name=inst.name, a=inst.a, x_dag=x_new,
                           y_dag=exact_data(inst.a, x_new), x0=inst.x0, nu=float(nu))


@dataclass(frozen=True)
class SourceElement:
    """Representation x_dag - x0 = B^nu w together with its residual."""

    w: np.ndarray
    nu: float
    residual: float


def source_element(inst: ProblemInstance) -> SourceElement:
    target = inst.x_dag - inst.x0
    scale = np.linalg.norm(target)
    if inst.nu == 0 or scale == 0:
        return SourceElement(w=target.copy(), nu=inst.nu, residual=0.0)
    gram = inst.gram
    w = gram.apply_power(-inst.nu, target)
    residual = float(np.linalg.norm(gram.apply_power(inst.nu, w) - target) / scale)
    if residual > 1e-8:
        raise SourceConditionError(
            f"no source element at exponent nu={inst.nu}: relative residual "
            f"{residual:.3e} exceeds 1.0e-08")
    return SourceElement(w=w, nu=inst.nu, residual=residual)


@dataclass(frozen=True)
class NoisyData:
    """Observed right-hand side with its recorded perturbation size."""

    y: np.ndarray
    epsilon: float
    seed: int
    delta: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if not np.all(np.isfinite(y)):
            raise ValueError("noisy data must be finite")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @property
    def delta_bar(self) -> float:
        return float(self.delta / np.sqrt(self.y.size))


def add_noise(inst: ProblemInstance, epsilon: float, seed: int) -> NoisyData:
    """y = y_dag + epsilon * max|y_dag| * xi with iid standard Gaussian xi."""
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative")
    check_seed(seed)
    if epsilon == 0:
        return NoisyData(y=inst.y_dag.copy(), epsilon=0.0, seed=int(seed), delta=0.0)
    xi = standard_gaussians(seed, inst.n)
    y = inst.y_dag + epsilon * np.abs(inst.y_dag).max() * xi
    delta = float(np.linalg.norm(y - inst.y_dag))
    return NoisyData(y=y, epsilon=float(epsilon), seed=int(seed), delta=delta)


def precondition(inst: ProblemInstance, y: np.ndarray | None = None
                 ) -> tuple[ProblemInstance, np.ndarray]:
    """Rotate the data space so rows become orthogonal: A -> U^T A = S V^T.

    U is the full left singular factor under spectral.svd's sign convention,
    so the Gram operator, every residual norm, and the noise size are
    preserved exactly; only the row geometry changes.  Returns the rotated
    instance and U^T y.  y may also be a (k, n) stack of data vectors, for
    one rotation shared by k data sets; each row is rotated on its own, so
    it has the bits of a call with that row alone.
    """
    if y is None:
        y = inst.y_dag
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[-1] != inst.n:
        raise ValueError("data vector shape does not match the instance")
    u, _, vt = np.linalg.svd(inst.a, full_matrices=True)
    fix_singular_signs(u, vt)
    a_rot = u.T @ inst.a
    inst_rot = ProblemInstance(name=inst.name, a=a_rot, x_dag=inst.x_dag,
                               y_dag=exact_data(a_rot, inst.x_dag), x0=inst.x0,
                               nu=inst.nu)
    if y.ndim == 2:
        return inst_rot, np.array([u.T @ row for row in y]).reshape(y.shape)
    return inst_rot, u.T @ y


def rescale_to_unit_norm(inst: ProblemInstance) -> ProblemInstance:
    """Divide A by sqrt(n * ||B||), giving the rescaled matrix operator norm 1.

    Optional cosmetic rescaling; the default step rule is already admissible
    without it. The exact solution is unchanged, the data scales with A.
    """
    scale = 1.0 / np.sqrt(inst.n * inst.gram.norm)
    return make_instance(inst.name, inst.a * scale, inst.x_dag, x0=inst.x0,
                         nu=inst.nu)


def row_orthogonality_gap(inst: ProblemInstance) -> float:
    """Largest off-diagonal |a_i . a_j| relative to the largest row norm^2.
    K is scanned in blocks of rows of at most _GAP_BLOCK_BYTES, so no n x n
    temporary is made beside it."""
    gram_rows = inst.row_gram
    scale = np.abs(np.diag(gram_rows)).max()
    if scale == 0:
        return 0.0
    step = max(1, _GAP_BLOCK_BYTES // (gram_rows.itemsize * inst.n))
    worst = 0.0
    for start in range(0, inst.n, step):
        block = np.abs(gram_rows[start:start + step])
        rows = np.arange(block.shape[0])
        block[rows, start + rows] = 0.0
        worst = max(worst, block.max())
    return float(worst / scale)


def is_preconditioned(inst: ProblemInstance) -> bool:
    return row_orthogonality_gap(inst) <= 1e-10


def noise_functional(inst: ProblemInstance, y: np.ndarray) -> np.ndarray:
    """zeta = (1/n) A^T (y - y_dag), the backprojected data perturbation."""
    return inst.a.T @ (np.asarray(y) - inst.y_dag) / inst.n


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "schema": fileio.SCHEMA_VERSION,
        "kind": "problem_instance",
        "name": inst.name,
        "n": inst.n,
        "m": inst.m,
        "nu": inst.nu,
        "a": [[float(v) for v in row] for row in inst.a],
        "x_dag": [float(v) for v in inst.x_dag],
        "y_dag": [float(v) for v in inst.y_dag],
        "x0": [float(v) for v in inst.x0],
    }


def instance_from_dict(doc: dict) -> ProblemInstance:
    if not isinstance(doc, dict) or doc.get("kind") != "problem_instance":
        raise ValueError("not a problem-instance document")
    return ProblemInstance(name=doc["name"], a=np.array(doc["a"], dtype=np.float64),
                           x_dag=np.array(doc["x_dag"], dtype=np.float64),
                           y_dag=np.array(doc["y_dag"], dtype=np.float64),
                           x0=np.array(doc["x0"], dtype=np.float64), nu=doc["nu"])


def noisy_to_dict(data: NoisyData) -> dict:
    return {
        "schema": fileio.SCHEMA_VERSION,
        "kind": "noisy_data",
        "epsilon": data.epsilon,
        "seed": data.seed,
        "delta": data.delta,
        "y": [float(v) for v in data.y],
    }


def noisy_from_dict(doc: dict) -> NoisyData:
    if not isinstance(doc, dict) or doc.get("kind") != "noisy_data":
        raise ValueError("not a noisy-data document")
    return NoisyData(y=np.array(doc["y"], dtype=np.float64), epsilon=doc["epsilon"],
                     seed=doc["seed"], delta=doc["delta"])


def save_instance(inst: ProblemInstance, path) -> None:
    fileio.dump_json(instance_to_dict(inst), path)


def load_instance(path) -> ProblemInstance:
    return instance_from_dict(fileio.load_json(path))


def save_noisy(data: NoisyData, path) -> None:
    fileio.dump_json(noisy_to_dict(data), path)


def load_noisy(path) -> NoisyData:
    return noisy_from_dict(fileio.load_json(path))
