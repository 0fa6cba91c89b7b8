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
        if a.ndim != 2:
            raise ValueError("a must be a matrix")
        n, m = a.shape
        if x_dag.shape != (m,) or x0.shape != (m,) or y_dag.shape != (n,):
            raise ValueError("field shapes are inconsistent with a")
        for arr in (a, x_dag, y_dag, x0):
            if not np.all(np.isfinite(arr)):
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


def exact_data(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x through the same einsum reduction the sgd steps use for row dots,
    so an sgd start at x_dag with this data stays put bit for bit.  svrg and
    landweber hold that fixed point through their full gradient, whose
    product term vanishes with x - x0 and whose base term is zero at an
    exact-data start."""
    return np.einsum("nm,m->n", a, x)


def make_instance(name, a, x_dag, x0=None, nu=0.0) -> ProblemInstance:
    a = np.asarray(a, dtype=np.float64)
    x_dag = np.asarray(x_dag, dtype=np.float64)
    if x0 is None:
        x0 = np.zeros(a.shape[1])
    return ProblemInstance(name=name, a=a, x_dag=x_dag, y_dag=exact_data(a, x_dag),
                           x0=np.asarray(x0, dtype=np.float64), nu=nu)


def gen_shaw(n: int) -> ProblemInstance:
    """One-dimensional image reconstruction kernel on [-pi/2, pi/2]."""
    if n < 2:
        raise ValueError("need n >= 2")
    h = np.pi / n
    grid = -np.pi / 2 + (np.arange(1, n + 1) - 0.5) * h
    s, t = grid[:, None], grid[None, :]
    u_over_pi = np.sin(s) + np.sin(t)  # u = pi * (sin s + sin t)
    a = h * (np.cos(s) + np.cos(t)) ** 2 * np.sinc(u_over_pi) ** 2
    x = 2.0 * np.exp(-6.0 * (grid - 0.8) ** 2) + np.exp(-2.0 * (grid + 0.5) ** 2)
    return make_instance(f"s-shaw-{n}", a, x)


def gen_gravity(n: int, d: float = 0.25) -> ProblemInstance:
    """Gravity surveying kernel on [0, 1] at source depth d."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not d > 0:
        raise ValueError("depth must be positive")
    grid = (np.arange(1, n + 1) - 0.5) / n
    diff = grid[:, None] - grid[None, :]
    a = (1.0 / n) * d / (d * d + diff**2) ** 1.5
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
    offsets = j[:, None] - j[None, :]
    vals = 1.0 + np.cos(np.pi * ((12.0 * offsets) / n) / 3.0)
    a = w * np.where(4 * np.abs(offsets) < n, vals, 0.0)
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
    """Largest off-diagonal |a_i . a_j| relative to the largest row norm^2."""
    gram_rows = inst.a @ inst.a.T
    scale = np.abs(np.diag(gram_rows)).max()
    off = gram_rows - np.diag(np.diag(gram_rows))
    if scale == 0:
        return 0.0
    return float(np.abs(off).max() / scale)


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
    if doc.get("kind") != "problem_instance":
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
    if doc.get("kind") != "noisy_data":
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
