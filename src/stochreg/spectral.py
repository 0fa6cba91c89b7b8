"""Normalized Gram operator, its propagator, and spectral utilities.

Everything downstream lives in the eigenbasis of B = (1/n) A^T A: powers of B,
powers of the propagator I - c0*B, and truncated inverse powers are spectral
filters over one cached eigendecomposition.  Inverse powers use the
pseudo-inverse convention with a relative cutoff tau = RELATIVE_CUTOFF * lambda_max,
and 0**0 is taken as 1 throughout so zeroth powers act as the identity.
The step unit c = 1 / max_i ||a_i||^2 (``step_constant``) reads the row
norms alone; it is also the stability bound of the row-step methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

RELATIVE_CUTOFF = 1e-12
BOUND_RTOL = 1e-12  # relative tolerance of kernel_bound_check's bounds


class GramOperator:
    """Symmetric positive semidefinite operator with spectral filtering."""

    def __init__(self, matrix: np.ndarray):
        b = np.asarray(matrix, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("gram operator must be square")
        if not np.all(np.isfinite(b)):
            raise ValueError("gram operator entries must be finite")
        asym = np.abs(b - b.T).max()
        scale = max(np.abs(b).max(), 1.0)
        if asym > 1e-10 * scale:
            raise ValueError("gram operator must be symmetric")
        b = 0.5 * (b + b.T)
        b.flags.writeable = False
        self.matrix = b

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eig(self):
        lam_raw, vecs = np.linalg.eigh(self.matrix)
        top = max(lam_raw[-1], 0.0)
        if lam_raw[0] < -1e-10 * max(top, 1.0):
            raise ValueError("gram operator has a significantly negative eigenvalue")
        lam = np.clip(lam_raw, 0.0, None)
        lam.flags.writeable = False
        vecs.flags.writeable = False
        return lam, vecs

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending, clipped at zero."""
        return self._eig[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eig[1]

    @property
    def norm(self) -> float:
        lam = self.eigenvalues
        return float(lam[-1]) if lam.size else 0.0

    @property
    def cutoff(self) -> float:
        return RELATIVE_CUTOFF * self.norm

    def power_weights(self, p: float) -> np.ndarray:
        """Eigenvalue filter for B**p; negative p is a pseudo-inverse power."""
        lam = self.eigenvalues
        if p >= 0:
            return lam**p
        keep = lam > self.cutoff
        w = np.zeros_like(lam)
        w[keep] = lam[keep] ** p
        return w

    def filter_apply(self, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
        vecs = self.eigenvectors
        coeff = vecs.T @ v
        return vecs @ (weights * coeff.T).T if coeff.ndim > 1 else vecs @ (weights * coeff)

    def filter_matrix(self, weights: np.ndarray) -> np.ndarray:
        vecs = self.eigenvectors
        return (vecs * weights) @ vecs.T

    def apply_power(self, p: float, v: np.ndarray) -> np.ndarray:
        return self.filter_apply(self.power_weights(p), v)

    def pinv_apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_power(-1.0, v)


def build_gram(a) -> GramOperator:
    """B = (1/n) A^T A."""
    mat = np.asarray(a, dtype=np.float64)
    n = mat.shape[0]
    return GramOperator(mat.T @ mat / n)


def step_constant(a) -> float:
    """c = 1 / max_i ||a_i||^2, the experimental step-size unit, and the
    largest stable step of a row step: no row step overshoots its row's
    projection, and every propagator eigenvalue 1 - c*lambda of
    B = build_gram(a) stays in [0, 1], since ||B|| <= tr B = mean_i ||a_i||^2."""
    mat = np.asarray(a, dtype=np.float64)
    norms = np.einsum("ij,ij->i", mat, mat)
    top = norms.max()
    if top <= 0:
        raise ValueError("all rows are zero; no admissible step exists")
    return 1.0 / float(top)  # inf, with no overflow warning, on subnormal rows


class Propagator:
    """I - c0*B as a spectral filter over the Gram eigenbasis."""

    def __init__(self, gram: GramOperator, c0: float):
        if not c0 > 0:
            raise ValueError("step constant must be positive")
        self.gram = gram
        self.c0 = float(c0)
        self.eigenvalues = 1.0 - self.c0 * gram.eigenvalues

    @property
    def stable(self) -> bool:
        """True when the spectrum lies in [0, 1] (up to roundoff slack)."""
        return bool(self.eigenvalues.min() >= -1e-12)

    @cached_property
    def matrix(self) -> np.ndarray:
        out = np.eye(self.gram.m) - self.c0 * self.gram.matrix
        out.flags.writeable = False
        return out

    def power_weights(self, k: float) -> np.ndarray:
        mu = self.eigenvalues
        if float(k).is_integer():
            return mu ** int(k)
        if mu.min() < -1e-12:
            raise ValueError("fractional propagator power needs a stable step")
        return np.clip(mu, 0.0, None) ** k

    def apply_power(self, k: float, v: np.ndarray) -> np.ndarray:
        return self.gram.filter_apply(self.power_weights(k), v)


@dataclass(frozen=True)
class KernelBoundReport:
    lhs_power: float
    rhs_power: float
    lhs_inv: float
    rhs_inv: float
    passed: bool


def _eigenvalues_of(b) -> np.ndarray:
    """The spectrum of a symmetric matrix, or an array of eigenvalues."""
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim == 2:
        return GramOperator(arr).eigenvalues
    return np.clip(arr, 0.0, None)


def kernel_bound_check(b, c0: float, M: int, K: int, s: float = 1.0,
                       t: float = 1.0) -> KernelBoundReport:
    """Spectral-calculus bounds for power decay and truncated inversion.

    Checks sup_lam lam^s (1-c0 lam)^(KM) <= s^s (M c0)^(-s) K^(-s) and
    sup_lam lam^(-t) (1 - (1-c0 lam)^(KM)) <= (M c0 K)^t over the spectrum,
    with 0**0 = 1 and the inverse part restricted to the retained spectrum.
    """
    if not (c0 > 0 and M >= 1 and K >= 1):
        raise ValueError("need c0 > 0, M >= 1, K >= 1")
    if s < 0 or not 0 <= t <= 1:
        raise ValueError("need s >= 0 and t in [0, 1]")
    lam = _eigenvalues_of(b)
    x = c0 * lam
    if x.max() > 1 + 1e-12:
        raise ValueError("step is too large for the spectrum: c0 * lambda_max > 1")
    x = np.clip(x, 0.0, 1.0)
    km = K * M

    mu_pow = (1.0 - x) ** km
    lhs_power = float(np.max(lam**s * mu_pow))
    rhs_power = float(s**s * (M * c0) ** (-s) * K ** float(-s))

    top = lam[-1] if lam.size else 0.0
    keep = lam > RELATIVE_CUTOFF * top
    if np.any(keep):
        lk, xk = lam[keep], x[keep]
        with np.errstate(divide="ignore"):
            grow = -np.expm1(km * np.log1p(-xk))  # 1 - (1-x)^km without cancellation
        grow[xk >= 1.0] = 1.0
        lhs_inv = float(np.max(lk ** (-t) * grow))
    else:
        lhs_inv = 0.0
    rhs_inv = float((M * c0 * K) ** t)

    passed = (lhs_power <= rhs_power * (1 + BOUND_RTOL)
              and lhs_inv <= rhs_inv * (1 + BOUND_RTOL))
    return KernelBoundReport(lhs_power, rhs_power, lhs_inv, rhs_inv, passed)


@dataclass(frozen=True)
class SvdFactors:
    """Thin, truncated SVD with sign-canonical right factors."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    tau: float


def fix_singular_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Fix the sign ambiguity of paired singular vectors in place: the
    largest-magnitude entry of each right singular vector vt[j] is made
    positive, flipping u[:, j] with it, so factors are reproducible."""
    for j in range(min(u.shape[1], vt.shape[0])):
        k = int(np.argmax(np.abs(vt[j])))
        if vt[j, k] < 0:
            vt[j] = -vt[j]
            u[:, j] = -u[:, j]


def svd(a, tau: float = 1e-10) -> SvdFactors:
    mat = np.asarray(a, dtype=np.float64)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s.size and s[0] > 0:
        keep = s > tau * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    u, s, vt = u[:, keep], s[keep], vt[keep]
    fix_singular_signs(u, vt)
    for arr in (u, s, vt):
        arr.flags.writeable = False
    return SvdFactors(u=u, s=s, vt=vt, tau=float(tau))
