"""Exact and sampled moment analysis of the stochastic iterations.

The iterations draw one row index per inner step, uniformly and independently,
so the law of the iterate after K outer loops of length M is a finite sum over
n**(K*M) equally likely index paths.  This module evaluates that law three
ways, which cross-check each other:

* brute force: enumerate every path (budget permitting) and average,
  reusing the solver update arithmetic step for step;
* closed forms: the mean iterate, and the second-moment decompositions into
  a deterministic head term plus per-epoch fluctuation terms, each term a
  sum of per-step quadratic forms of the exact moments at its epoch start;
* moment recursion: exact first/second moments pushed one inner step at a
  time, O(n m^2) per step on any instance and horizon, in agreement with
  enumeration to 1e-12 relative.  The n**M single-epoch maps of
  epoch_transitions, built as stacked matmuls, are a second referee for it.

The per-path identity checks use the same arithmetic: recursion_check
advances one seeded path with solvers.Lockstep, the solvers' own step kernel,
and compares it with the path operators of _EpochKit that also build the
epoch maps.  The kit holds (m, m) operators and vectors; a path stack forms
a_k a_k^T only for the rows it draws.

Conventions used throughout: K counts completed outer loops, so the final
iterate is x_{KM} and per-epoch sums run over j = 0..K-1; inner step t of the
global path consumes digit t (base-n little-endian digits of the path id);
shifted coordinates u = x - (x_dag + B^+ zeta) center the iterate at the noisy
limit point.  Weight matrices R1 are words over powers of B and of the
propagator; the shift R2 is either 0 or B^+ zeta.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, noise_functional
from .rng import index_blocks
from .solvers import Lockstep, SolverConfig, _Recorder, run_batch
from .spectral import GramOperator, Propagator

ENUM_BUDGET = 10**7
_BLOCK = 8192


# ---------------------------------------------------------------------------
# weight-operator language

_TOKEN = re.compile(r"^(I|B|M0)(?:\^([-0-9./]+))?$")


def parse_rational(text: str) -> float:
    """A number or a quotient of numbers, e.g. '5', '0.1', '1/2'; a zero
    denominator or a value that is not finite is a ValueError."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if float(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        value = float(num) / float(den)
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def operator_word_weights(gram: GramOperator, c0: float, spec: str) -> np.ndarray:
    """Eigenvalue weights of a word like 'I', 'B', 'M0^2', '2*B^1/2 M0^3'."""
    weights = np.ones(gram.m)
    prop = Propagator(gram, c0)
    for token in spec.replace("*", " ").split():
        match = _TOKEN.match(token)
        if match:
            name, power = match.group(1), match.group(2)
            p = 1.0 if power is None else parse_rational(power)
            if name == "B":
                weights = weights * gram.power_weights(p)
            elif name == "M0":
                weights = weights * prop.power_weights(p)
            continue
        try:
            weights = weights * parse_rational(token)
        except ValueError:
            raise ValueError(f"cannot parse operator token {token!r}") from None
    return weights


def operator_word_matrix(gram: GramOperator, c0: float, spec: str) -> np.ndarray:
    return gram.filter_matrix(operator_word_weights(gram, c0, spec))


def shift_vector(inst: ProblemInstance, y: np.ndarray, spec: str) -> np.ndarray:
    """R2 in {'0', 'Binv_zeta'}."""
    if spec == "0":
        return np.zeros(inst.m)
    if spec == "Binv_zeta":
        return inst.gram.pinv_apply(noise_functional(inst, y))
    raise ValueError(f"unknown shift spec {spec!r}")


# ---------------------------------------------------------------------------
# path enumeration

def path_count(n: int, M: int, K: int) -> int:
    total = n ** (K * M)
    if total > ENUM_BUDGET:
        raise ValueError(
            f"enumeration needs n^(K*M) = {n}^{K * M} = {total} paths, over the "
            f"budget of {ENUM_BUDGET}")
    return total


def _digit(ids: np.ndarray, n: int, t: int) -> np.ndarray:
    return (ids // n**t) % n


def _iterate_paths(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                   steps: int, method: str, ids: np.ndarray,
                   stop_states: list[int] | None = None) -> dict[int, np.ndarray]:
    """Advance one block of paths `steps` inner steps; return the iterate
    matrix after each step count listed in stop_states (default: just the
    final one).  The steps are solvers.Lockstep, the solvers' own kernel;
    only the two stochastic methods have paths."""
    if method not in ("sgd", "svrg"):
        raise ValueError(f"the path oracles run sgd and svrg, not {method!r}")
    kernel = Lockstep(inst, y, ids.size, method, c0, M)
    idx = _digit(ids, inst.n, np.arange(steps)[:, None])
    out = {}
    for s in sorted(set([steps] if stop_states is None else stop_states)):
        kernel.advance(idx[kernel.t:s])
        out[s] = kernel.iterates().copy()
    return out


def _block_ranges(total: int):
    for start in range(0, total, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, total), dtype=np.int64)


@dataclass(frozen=True)
class ExactMoments:
    mean: np.ndarray
    second_moment_trace: float
    variance_trace: float
    path_count: int


def enumerate_exact_moments(inst: ProblemInstance, y: np.ndarray, c0: float,
                            M: int, K: int, method: str) -> ExactMoments:
    """Exact mean/second moment of x_{KM} by full path enumeration."""
    y = np.asarray(y, dtype=np.float64)
    total = path_count(inst.n, M, K)
    steps = K * M

    sums, sq = [], []
    for ids in _block_ranges(total):
        x = _iterate_paths(inst, y, c0, M, steps, method, ids)[steps]
        sums.append(x.sum(axis=0))
        sq.append(np.einsum("rm,rm->r", x, x).sum())
    mean = np.add.reduce(np.stack(sums), axis=0) / total
    second = float(np.add.reduce(np.array(sq)) / total)

    var_parts = []
    for ids in _block_ranges(total):
        x = _iterate_paths(inst, y, c0, M, steps, method, ids)[steps]
        d = x - mean
        var_parts.append(np.einsum("rm,rm->r", d, d).sum())
    variance = float(np.add.reduce(np.array(var_parts)) / total)
    return ExactMoments(mean=mean, second_moment_trace=second,
                        variance_trace=variance, path_count=total)


def enumerate_weighted_second_moment(inst: ProblemInstance, y: np.ndarray,
                                     c0: float, M: int, K: int, method: str,
                                     r1="I", r2="0") -> float:
    """E || R1 (x_KM - x_dag - B^+ zeta) + R2 ||^2 by full path enumeration."""
    y = np.asarray(y, dtype=np.float64)
    total = path_count(inst.n, M, K)
    steps = K * M
    r1m = operator_word_matrix(inst.gram, c0, r1)
    r2v = shift_vector(inst, y, r2)
    x_ref = inst.x_dag + inst.gram.pinv_apply(noise_functional(inst, y))

    parts = []
    for ids in _block_ranges(total):
        x = _iterate_paths(inst, y, c0, M, steps, method, ids)[steps]
        v = (x - x_ref) @ r1m.T + r2v
        parts.append(np.einsum("rm,rm->r", v, v).sum())
    return float(np.add.reduce(np.array(parts)) / total)


# ---------------------------------------------------------------------------
# closed-form mean

def closed_form_mean(gram: GramOperator, e0: np.ndarray, zeta: np.ndarray,
                     c0: float, M: int, K: int,
                     x_dag: np.ndarray | None = None) -> np.ndarray:
    """Mean iterate after K outer loops: identical for both stochastic methods.

    In error coordinates the mean is M0^(KM) e0 + (I - M0^(KM)) B^+ zeta,
    evaluated as spectral filters.  Pass x_dag to get iterate coordinates.
    """
    power = K * M
    lam = gram.eigenvalues
    mu = 1.0 - c0 * lam
    if mu.min() < -1e-12:
        raise ValueError("step too large: propagator spectrum leaves [0, 1]")
    head = gram.filter_apply(mu**power, e0)
    # at power 0 the tail (I - M0^0) B^+ zeta is 0; 0 * log1p(-1) would be NaN
    keep = (lam > gram.cutoff) & (power > 0)
    w = np.zeros_like(lam)
    with np.errstate(divide="ignore"):
        grow = -np.expm1(power * np.log1p(-np.clip(c0 * lam[keep], None, 1.0)))
    w[keep] = grow / lam[keep]
    tail = gram.filter_apply(w, zeta)
    mean_err = head + tail
    return mean_err if x_dag is None else x_dag + mean_err


# ---------------------------------------------------------------------------
# per-epoch operator kit (explicit matrices; valid on any instance)

class _EpochKit:
    """Epoch operators of one instance and step: B, M0^i, the step sums and
    zeta, zeta_k; a_k a_k^T is formed only for the rows a path stack draws."""

    def __init__(self, inst: ProblemInstance, y: np.ndarray, c0: float, M: int):
        self.inst, self.c0, self.M = inst, float(c0), int(M)
        self.b = inst.gram.matrix
        self.m0 = np.eye(inst.m) - c0 * self.b
        self.m0_pows = [np.linalg.matrix_power(self.m0, i) for i in range(M + 1)]
        # c0 * sum_{t<i} M0^t, the exact polynomial form of (I - M0^i) B^+
        acc = np.zeros((inst.m, inst.m))
        self.stepsum = [acc.copy()]
        for i in range(M):
            acc = acc + c0 * self.m0_pows[i]
            self.stepsum.append(acc.copy())
        xi = np.asarray(y, dtype=np.float64) - inst.y_dag
        self.zeta = noise_functional(inst, y)
        self.zeta_k = inst.a * xi[:, None]  # row k: a_k * xi_k

    # The path operators below take a (count, M) stack of epoch digits and
    # return (count, m, m) stacks, one matrix per row of digits.

    def _outer(self, digits, i):  # each path's a_k a_k^T at epoch step i
        rows = self.inst.a[digits[:, i]]
        return rows[:, :, None] * rows[:, None, :]

    def suffix_products(self, digits: np.ndarray) -> list[np.ndarray]:
        """suf[i] = P_{d[M-1]} ... P_{d[i]} (suf[M] = I)."""
        M, m = self.M, self.inst.m
        eye = np.eye(m)
        suf = [None] * (M + 1)
        suf[M] = np.broadcast_to(eye, (digits.shape[0], m, m))
        for i in range(M - 1, -1, -1):
            suf[i] = suf[i + 1] @ (eye - self.c0 * self._outer(digits, i))
        return suf

    def h_mat(self, digits: np.ndarray, suf: list[np.ndarray], i: int
              ) -> np.ndarray:
        """H_i = (P_{d[M-1]} ... P_{d[i+1]}) N_{d[i]}."""
        return suf[i + 1] @ (self.b - self._outer(digits, i))

    def l_mat(self, digits: np.ndarray, suf: list[np.ndarray]) -> np.ndarray:
        """L = c0 sum_{i=1}^{M-1} H_i (I - M0^i) B^+ via the polynomial form."""
        out = np.zeros_like(suf[0])
        for i in range(1, self.M):
            out += self.c0 * (self.h_mat(digits, suf, i) @ self.stepsum[i])
        return out


def _apply_h(b: np.ndarray, c0: float, w: np.ndarray,
             rows: list[np.ndarray], i: int) -> np.ndarray:
    """H_i w per path: N at epoch step i, then P at steps i+1..M-1, where
    rows[l] holds each path's row drawn at epoch step l."""
    w = w @ b.T - rows[i] * np.einsum("rm,rm->r", rows[i], w)[:, None]
    for rl in rows[i + 1:]:
        w = w - c0 * rl * np.einsum("rm,rm->r", rl, w)[:, None]
    return w


def _epoch_rows(inst: ProblemInstance, ids: np.ndarray, j: int, M: int
                ) -> list[np.ndarray]:
    """Each path's rows at the M steps of epoch j."""
    return [inst.a[_digit(ids, inst.n, j * M + l)] for l in range(M)]


# ---------------------------------------------------------------------------
# variance decompositions evaluated term by term

@dataclass(frozen=True)
class VarianceDecomposition:
    """head + sum(epoch_terms) equals the weighted second moment exactly.

    head = ||R1 M0^(KM) u_0 + R2||^2.  Inner step i of epoch j adds c0 N_k
    v_i + c0 g_k to u, N_k = B - a_k a_k^T for its row k (and applies P_k =
    I - c0 a_k a_k^T to what earlier steps added): svrg has v_i =
    stepsum_i B u_j and g = 0; sgd has v_i = M0^i u_j + B^+ zeta and the
    noise gap g_k = a_k xi_k - zeta, which each later step echoes as c0 N g.
    epoch_terms[j] sums over i the mean square of that addition, carried to
    the end with its echoes, under pre = R1 M0^((K-1-j)M).  Each is a
    quadratic form of the epoch-start moments: with V_i = E v_i v_i^T,
    G = E g g^T, and X, W, Z pulled backward over the later steps from
    X = W = pre^T pre, Z = 0 by
        X <- E P X P = X - c0 (B X + X B) + c0^2 R(X),   W <- M0 W M0,
        Z <- E N X N + M0 Z M0,   E N X N = R(X) - B X B,
    R(X) = A^T diag(a_k^T X a_k) A / n, group i's parts are
        split_main  = c0^2 [tr(E[N X N] V_i) + 2 E_k (N_k E v_i)^T W g_k
                      + tr(W G)],    the step's own term,
        split_noise = c0^4 tr(Z G),  its delayed noise echoes,
        epoch_terms = split_main + split_noise
                      + 2 c0^4 E_k (N_k E v_i)^T Z g_k.
    The last summand is the covariance of the two sub-families, nonzero in
    general for sgd.  For svrg g = 0: the split is exact, split_noise zero.
    """

    method: str
    head: float
    epoch_terms: np.ndarray
    split_main: np.ndarray
    split_noise: np.ndarray

    @property
    def total(self) -> float:
        return float(self.head + self.epoch_terms.sum())


def _head_term(inst, y, c0, M, K, r1m, r2v) -> float:
    bz = inst.gram.pinv_apply(noise_functional(inst, y))
    u0 = inst.x0 - inst.x_dag - bz
    m0 = np.eye(inst.m) - c0 * inst.gram.matrix
    head_vec = r1m @ (np.linalg.matrix_power(m0, K * M) @ u0) + r2v
    return float(head_vec @ head_vec)


def _require_preconditioned(inst: ProblemInstance) -> None:
    from .problems import is_preconditioned
    if not is_preconditioned(inst):
        raise ValueError(
            "decomposition terms assume mutually orthogonal rows; "
            "apply precondition() first")


def _variance_terms(method: str, inst: ProblemInstance, y: np.ndarray,
                    c0: float, M: int, K: int, r1, r2) -> VarianceDecomposition:
    """Both methods' splits by the formulas of VarianceDecomposition, from
    the moments of _epoch_moments; no index path is walked."""
    _require_preconditioned(inst)
    y = np.asarray(y, dtype=np.float64)
    r1m = operator_word_matrix(inst.gram, c0, r1)
    r2v = shift_vector(inst, y, r2)
    kit = _EpochKit(inst, y, c0, M)
    a, b, m0, n = inst.a, kit.b, kit.m0, inst.n
    if method == "svrg":
        ops = [kit.stepsum[i] @ b for i in range(M)]  # v_i = ops[i] u_j
        shift = np.zeros(inst.m)
        gaps = np.zeros_like(kit.zeta_k)
    else:
        ops = kit.m0_pows[:M]  # v_i = ops[i] u_j + shift
        shift = inst.gram.pinv_apply(kit.zeta)
        gaps = kit.zeta_k - kit.zeta
    gap_cov = gaps.T @ gaps / n

    def gap_cross(v_mean, mat):  # E_k (N_k v_mean)^T mat g_k
        nv = b @ v_mean - a * (a @ v_mean)[:, None]
        return float(np.einsum("km,km->", nv @ mat, gaps)) / n

    head = _head_term(inst, y, c0, M, K, r1m, r2v)
    exact, main, noise = np.zeros(K), np.zeros(K), np.zeros(K)
    # the moments after the last epoch are not needed
    for j, (mu, s) in enumerate(_epoch_moments(inst, y, c0, M, K - 1,
                                               method)[:K]):
        pre = r1m @ np.linalg.matrix_power(m0, (K - 1 - j) * M)
        x = w = pre.T @ pre
        z = np.zeros_like(x)
        for i in range(M - 1, -1, -1):  # x, w, z: the forms after step i
            r = (a.T * np.einsum("km,km->k", a @ x, a)) @ a / n  # R(x)
            q = r - b @ x @ b  # E_k N_k x N_k
            om = ops[i] @ mu
            v_mean = om + shift  # E v_i
            # tr(q V_i), V_i = E v_i v_i^T, v_i = ops[i] u_j + shift
            own = np.vdot(ops[i].T @ q @ ops[i], s) \
                + shift @ q @ (2 * om + shift)
            group_main = c0**2 * (own + 2 * gap_cross(v_mean, w)
                                  + np.vdot(w, gap_cov))
            group_noise = c0**4 * np.vdot(z, gap_cov)
            main[j] += group_main
            noise[j] += group_noise
            exact[j] += group_main + group_noise \
                + 2 * c0**4 * gap_cross(v_mean, z)
            x = x - c0 * (b @ x + x @ b) + c0**2 * r
            w = m0 @ w @ m0
            z = q + m0 @ z @ m0
    return VarianceDecomposition(method=method, head=head, epoch_terms=exact,
                                 split_main=main, split_noise=noise)


def svrg_variance_terms(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                        K: int, r1="I", r2="0") -> VarianceDecomposition:
    """Second-moment split for the anchored method: deterministic head plus one
    fluctuation term per outer loop, the sum over inner steps i of
    c0^2 tr(E_k[N_k X N_k] V_i), V_i = E v_i v_i^T, v_i = stepsum_i B u_j."""
    return _variance_terms("svrg", inst, y, c0, M, K, r1, r2)


def sgd_variance_terms(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                       K: int, r1="I", r2="0") -> VarianceDecomposition:
    """Second-moment split for the plain stochastic method: the fluctuation of
    one outer loop is grouped by the inner step whose drawn index introduces
    it, the step's own term plus every later echo of its noise gap.  Groups
    are mutually uncorrelated, so head + sum over groups is the second moment
    to machine precision; split_* report the two sub-families apart."""
    return _variance_terms("sgd", inst, y, c0, M, K, r1, r2)


# ---------------------------------------------------------------------------
# exact first and second moments (no sampling)

EPOCH_COMBO_BUDGET = 10**6
EPOCH_STACK_BUDGET = 2 * 10**8  # entries of the n^M (m, m) transition stack


def _epoch_digit_combos(n: int, M: int) -> np.ndarray:
    count = n**M
    if count > EPOCH_COMBO_BUDGET:
        raise ValueError("single-epoch digit space exceeds the budget")
    ids = np.arange(count)
    return np.stack([(ids // n**t) % n for t in range(M)], axis=1)


def epoch_transitions(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                      method: str) -> tuple[np.ndarray, np.ndarray]:
    """All n^M per-epoch affine maps u -> T u + v in shifted coordinates.

    The maps are built a block of digit combinations at a time as stacked
    matmuls, suf[i] = suf[i+1] @ P[combos[:, i]] with the row matrices
    P_k = I - c0 a_k a_k^T gathered per block, and svrg's L and sgd's noise
    sum accumulated in ascending step order.  Each combination gets the same
    BLAS products in the same order as a loop over the combinations, so the
    stacks are bitwise those of that loop.  exact_final_moments does not use
    them; the maps are a second referee for its recursion.
    """
    if method not in ("sgd", "svrg"):
        raise ValueError(f"unknown method {method!r}")
    m = inst.m
    if inst.n**M * m * m > EPOCH_STACK_BUDGET:
        raise ValueError("epoch transition stack would not fit the budget")
    y = np.asarray(y, dtype=np.float64)
    combos = _epoch_digit_combos(inst.n, M)
    count = combos.shape[0]
    kit = _EpochKit(inst, y, c0, M)
    eye = np.eye(m)
    t_stack = np.empty((count, m, m))
    v_stack = np.zeros((count, m))
    bz = inst.gram.pinv_apply(kit.zeta)
    # the M + 1 suffix stacks of a block hold at most (M + 1) * 2**20 entries
    block = max(1, min(_BLOCK, 2**20 // (m * m)))
    for lo in range(0, count, block):
        digits = combos[lo:lo + block]
        suf = kit.suffix_products(digits)
        if method == "svrg":
            t_stack[lo:lo + block] = (kit.m0_pows[M]
                                      - kit.l_mat(digits, suf) @ kit.b)
        else:
            w = np.zeros((digits.shape[0], m))
            for i in range(M):
                w += kit.c0 * (suf[i + 1]
                               @ kit.zeta_k[digits[:, i]][..., None])[..., 0]
            t_stack[lo:lo + block] = suf[0]
            v_stack[lo:lo + block] = (suf[0] - eye) @ bz + w
    return t_stack, v_stack


def exact_final_moments(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                        K: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and second-moment matrix of u_K = x_{KM} - x_dag - B^+ zeta,
    the last entry of _epoch_moments."""
    return _epoch_moments(inst, y, c0, M, K, method)[-1]


def _epoch_moments(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                   K: int, method: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact mean and second-moment matrix of u_j = x_{jM} - x_dag - B^+ zeta
    at every epoch start, j = 0..K.

    The state z is (u, 1) for sgd and (u, anchor, 1) for svrg.  A step with
    row j maps its first m entries, u, by u <- u - c0 (a_j f_j^T + G) z: sgd
    has f_j = (a_j, -r_j), r = y - A x_ref, and G = 0; svrg has f_j = (a_j,
    -a_j, 0) and G z its anchor's full gradient.  With T_j that step's
    matrix on z, Z = E z z^T follows Z <- mean_j T_j Z T_j^T, at O(n m^2)
    per step, with no path or epoch map built; it agrees with path
    enumeration to 1e-12 relative.
    """
    y = np.asarray(y, dtype=np.float64)
    a, b = inst.a, inst.gram.matrix
    n, m = a.shape
    x_ref = inst.x_dag + inst.gram.pinv_apply(noise_functional(inst, y))
    r = y - a @ x_ref
    if method == "sgd":
        f = np.hstack([a, -r[:, None]])
        g = np.zeros((m, m + 1))
    elif method == "svrg":
        f = np.hstack([a, -a, np.zeros((n, 1))])
        g = np.hstack([np.zeros((m, m)), b, -(a.T @ r / n)[:, None]])
    else:
        raise ValueError(f"unknown method {method!r}")
    size = f.shape[1]
    fold = np.eye(size)
    fold[m:-1] = np.eye(size - m - 1, size)  # an epoch starts: anchor <- u
    f_mean = a.T @ f / n
    drift = f_mean + g  # mean_j (a_j f_j^T + G)
    z = np.concatenate([inst.x0 - x_ref, np.zeros(size - m - 1), [1.0]])
    zz = np.outer(z, z)
    moments = []
    for _ in range(K):
        moments.append((zz[:m, -1], zz[:m, :m]))
        zz = fold @ zz @ fold.T
        for _ in range(M):
            w = np.einsum("js,js->j", f @ zz, f)
            dz = drift @ zz
            nxt = zz.copy()
            nxt[:m] -= c0 * dz
            nxt[:, :m] -= c0 * dz.T
            nxt[:m, :m] += c0**2 * ((a.T * w) @ a / n + dz @ g.T
                                    + g @ zz @ f_mean.T)
            zz = nxt
    moments.append((zz[:m, -1], zz[:m, :m]))
    return moments


def exact_weighted_second_moment(inst: ProblemInstance, y: np.ndarray, c0: float,
                                 M: int, K: int, method: str, r1="I",
                                 r2="0") -> float:
    """E || R1 u_K + R2 ||^2 via the exact moment recursion (no sampling)."""
    y = np.asarray(y, dtype=np.float64)
    mu, s = exact_final_moments(inst, y, c0, M, K, method)
    r1m = operator_word_matrix(inst.gram, c0, r1)
    r2v = shift_vector(inst, y, r2)
    quad = float(np.einsum("ij,jk,ik->", r1m, s, r1m))
    return quad + 2.0 * float(r2v @ (r1m @ mu)) + float(r2v @ r2v)


# ---------------------------------------------------------------------------
# ordering of the two methods' weighted second moments

@dataclass(frozen=True)
class VarianceComparison:
    svrg_value: float
    sgd_value: float
    margin: float        # sgd - svrg; positive favors the anchored method
    ordered: bool
    condition_ok: bool   # comparison-side step/size condition; warning only


def variance_compare(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                     K: int, r1="I", r2="0") -> VarianceComparison:
    """Compare E||R1 u_K + R2||^2 between the two stochastic methods, both
    from the exact moment recursion.  The ordering is guaranteed only under
    the comparison condition, so condition_ok=False marks the result as
    merely empirical; the comparison is still computed.
    """
    _require_preconditioned(inst)
    condition_ok = condition_report(inst, c0, M).compare_ok
    svrg = exact_weighted_second_moment(inst, y, c0, M, K, "svrg", r1, r2)
    sgd = exact_weighted_second_moment(inst, y, c0, M, K, "sgd", r1, r2)
    return VarianceComparison(svrg_value=svrg, sgd_value=sgd,
                              margin=sgd - svrg, ordered=svrg <= sgd + 1e-12,
                              condition_ok=condition_ok)


# ---------------------------------------------------------------------------
# per-path identity checks

@dataclass(frozen=True)
class RecursionReport:
    max_epoch_deviation: float
    max_telescope_deviation: float
    max_anchor_deviation: float


def recursion_check(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                    K: int, seed: int = 0) -> RecursionReport:
    """Follow one seeded index path and verify, per outer loop, the closed
    epoch recursion, the telescoping identity for the partial products, and
    the first-step identity after each anchor.  The path is advanced by
    solvers.Lockstep, the kernel the solvers run.  Valid on any instance."""
    y = np.asarray(y, dtype=np.float64)
    kit = _EpochKit(inst, y, c0, M)
    idx = index_blocks(inst.n, [(seed, 0)], 0, K * M)
    kernel = Lockstep(inst, y, 1, "svrg", c0, M)

    dev_epoch = dev_tel = dev_anchor = 0.0
    for k in range(K):
        e_start = kernel.iterates()[0] - inst.x_dag
        epoch_idx = idx[k * M:(k + 1) * M]
        kernel.advance(epoch_idx[:1])
        got = kernel.iterates()[0] - inst.x_dag
        predicted = kit.m0 @ e_start + c0 * kit.zeta
        dev_anchor = max(dev_anchor, _rel(got - predicted, got))
        kernel.advance(epoch_idx[1:])
        e_end = kernel.iterates()[0] - inst.x_dag

        digits = epoch_idx.T  # the epoch's one digit combination
        suf = kit.suffix_products(digits)
        l_mat = kit.l_mat(digits, suf)[0]
        predicted = (kit.m0_pows[M] - l_mat @ kit.b) @ e_start \
            + (kit.stepsum[M] + l_mat) @ kit.zeta
        dev_epoch = max(dev_epoch, _rel(e_end - predicted, e_end))

        h = [kit.h_mat(digits, suf, i)[0] for i in range(M)]
        for i in range(1, M):
            lhs = suf[i][0]  # product of P over positions i..M-1 of this epoch
            rhs = kit.m0_pows[M - i].copy()
            for l in range(M - i):
                rhs += c0 * (h[i + l] @ kit.m0_pows[l])
            dev_tel = max(dev_tel, _rel(lhs - rhs, lhs))
    return RecursionReport(max_epoch_deviation=dev_epoch,
                           max_telescope_deviation=dev_tel,
                           max_anchor_deviation=dev_anchor)


def _rel(diff, ref) -> float:
    return float(np.linalg.norm(diff) / (1.0 + np.linalg.norm(ref)))


@dataclass(frozen=True)
class OrthogonalityReport:
    max_cross: float
    scale: float
    pair_count: int


def orthogonality_check(inst: ProblemInstance, y: np.ndarray, c0: float, M: int,
                        K: int, method: str = "svrg") -> OrthogonalityReport:
    """Cross moments E< H_{jM+i} e_jM , H_{j'M+i'} e_j'M > over all paths for
    all distinct index pairs; they should vanish identically."""
    y = np.asarray(y, dtype=np.float64)
    total = path_count(inst.n, M, K)
    b = inst.gram.matrix
    terms = K * M  # H_{jM+i} e_jM in the order j, then i

    cross_sums = {}
    diag_sums = {}
    for ids in _block_ranges(total):
        states = _iterate_paths(inst, y, c0, M, K * M, method, ids,
                                stop_states=[j * M for j in range(K)])
        hvecs = []
        for j in range(K):
            e = states[j * M] - inst.x_dag
            rows = _epoch_rows(inst, ids, j, M)
            hvecs += [_apply_h(b, float(c0), e, rows, i) for i in range(M)]
        for p in range(terms):
            diag_sums[p] = diag_sums.get(p, 0.0) + float(
                np.einsum("rm,rm->", hvecs[p], hvecs[p]))
            for q in range(p + 1, terms):
                cross_sums[(p, q)] = cross_sums.get((p, q), 0.0) + float(
                    np.einsum("rm,rm->", hvecs[p], hvecs[q]))
    scale = max(diag_sums.values()) / total if diag_sums else 0.0
    max_cross = max((abs(v) for v in cross_sums.values()), default=0.0) / total
    return OrthogonalityReport(max_cross=max_cross, scale=scale,
                               pair_count=len(cross_sums))


# ---------------------------------------------------------------------------
# sampled moments on top of the batched solvers

# the error of a cell whose every run tripped the divergence guard
NO_SURVIVORS = "no runs survived the divergence guard"

@dataclass(frozen=True)
class MomentReport:
    method: str
    epochs: np.ndarray
    iterations: np.ndarray
    bias_sq: np.ndarray
    variance: np.ndarray
    mse: np.ndarray
    mse_stderr: np.ndarray
    error_sq: np.ndarray        # kept runs x checkpoints
    run_count: int
    excluded_runs: tuple


def _cell_group(y, cfg: SolverConfig, seeds, runs: range):
    """The data stack of a cell group and its runs' stream keys, cell-major:
    cell c holds y[c] (y itself when 1-d) and runs (seeds[c], r), r in runs."""
    ys = np.atleast_2d(np.asarray(y, dtype=np.float64))
    seeds = (cfg.seed,) * ys.shape[0] if seeds is None else tuple(seeds)
    if len(seeds) != ys.shape[0]:
        raise ValueError("need one seed per data vector")
    return ys, [(seed, r) for seed in seeds for r in runs]


def _per_cell(y, results: list):
    """The results of a stack of data vectors, one per cell; for a 1-d y,
    the one cell's result, raised if it is an error."""
    if np.ndim(y) > 1:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def mc_moments(inst: ProblemInstance, y: np.ndarray, cfg: SolverConfig,
               runs: int, seeds=None):
    """Sample moments over independently seeded runs at the checkpoint grid.

    One deterministic pass records per-run errors, the mean curve and the
    spread around the realized mean: the runs advance in lockstep, so the
    mean at each checkpoint is known before the next step.  Diverged runs
    are excluded and reported; the kept runs are then run once more, alone,
    since their mean differs from the mean of the whole batch.

    y is one data vector, giving a MomentReport, or a (cells, n) stack of
    them, giving a list with one entry per cell: its MomentReport, or the
    ValueError that ended it.  All cells run in one lockstep batch with
    cfg's method, step and inner loop; cell c runs with seed seeds[c]
    (default cfg.seed).  Each run gives the same numbers alone or in a
    batch, so each cell's report has the bits of its own call.
    """
    if runs < 2:
        raise ValueError("need at least two runs for sample moments")
    ys, keys = _cell_group(y, cfg, seeds, range(runs))
    group = _Recorder(inst, ys, cfg, len(keys), want_residual=False,
                      center_on_mean=True)
    epochs, cp = group.acct.epochs(group.cp), group.cp
    diverged = run_batch(inst, ys, cfg, keys, group).reshape(-1, runs)
    reports = []
    for c, lost in enumerate(diverged):
        rec, cell = group, c
        excluded = tuple(int(r) for r in np.nonzero(lost)[0])
        if excluded:
            kept = [key for key, out in zip(keys[group.blocks[c]], lost)
                    if not out]
            if len(kept) < 2:
                reports.append(ValueError(
                    "fewer than two runs survived the divergence guard" if kept
                    else NO_SURVIVORS))
                continue
            rec, cell = _Recorder(inst, ys[c], cfg, len(kept),
                                  want_residual=False, center_on_mean=True), 0
            run_batch(inst, ys[c], cfg, kept, rec)
        error_sq = rec.error_sq[rec.blocks[cell]]
        count = error_sq.shape[0]
        mean_x = rec.sum_x[cell] / count

        diff = mean_x - inst.x_dag
        bias_sq = np.einsum("cm,cm->c", diff, diff)
        variance = rec.centered_sq[rec.blocks[cell]].mean(axis=0)
        mse = error_sq.mean(axis=0)
        stderr = error_sq.std(axis=0, ddof=1) / math.sqrt(count)
        reports.append(MomentReport(
            method=cfg.method, epochs=epochs, iterations=cp,
            bias_sq=bias_sq, variance=variance, mse=mse,
            mse_stderr=stderr, error_sq=error_sq, run_count=count,
            excluded_runs=excluded))
    return _per_cell(y, reports)


@dataclass(frozen=True)
class ErrorCurves:
    method: str
    epochs: np.ndarray
    iterations: np.ndarray
    error_sq: np.ndarray        # runs x checkpoints
    residual_sq: np.ndarray | None
    excluded_runs: tuple


def error_curves(inst: ProblemInstance, y: np.ndarray, cfg: SolverConfig,
                 runs: int | range, include_residual: bool = False,
                 seeds=None):
    """Per-run error curves at the checkpoint grid, in a single pass.

    runs is a count, meaning runs 0..runs-1, or a range of run numbers: run
    r of a cell draws its rows from the stream (seed, r) whatever the other
    runs, so the curves of range(a, b) are rows a..b-1 of those of b runs.
    Diverged runs are excluded and reported by run number.  Their rows are
    dropped: each run gives the same numbers alone or in a batch, so the
    kept rows are those of a batch of the kept runs only.

    y is one data vector, giving ErrorCurves, or a (cells, n) stack of
    them, giving a list with one entry per cell: its ErrorCurves, or the
    ValueError that ended it.  All cells run in one lockstep batch with
    cfg's method, step and inner loop; cell c runs with seed seeds[c]
    (default cfg.seed), and a diverged run is dropped from its own cell.
    """
    runs = runs if isinstance(runs, range) else range(runs)
    if len(runs) < 1:
        raise ValueError("need at least one run")
    ys, keys = _cell_group(y, cfg, seeds, runs)
    rec = _Recorder(inst, ys, cfg, len(keys), want_residual=include_residual)
    epochs = rec.acct.epochs(rec.cp)
    diverged = run_batch(inst, ys, cfg, keys, rec).reshape(-1, len(runs))
    curves = []
    for lost, rows in zip(diverged, rec.blocks):
        if lost.all():
            curves.append(ValueError(NO_SURVIVORS))
            continue
        kept = ~lost if lost.any() else slice(None)  # a view if none dropped
        error_sq = rec.error_sq[rows][kept]
        residual_sq = (None if rec.residual_sq is None
                       else rec.residual_sq[rows][kept])
        curves.append(ErrorCurves(
            method=cfg.method, epochs=epochs, iterations=rec.cp,
            error_sq=error_sq, residual_sq=residual_sq,
            excluded_runs=tuple(runs[r] for r in np.nonzero(lost)[0])))
    return _per_cell(y, curves)


def stopping_stats(curves: ErrorCurves | MomentReport
                   ) -> tuple[float, float, float]:
    """Mean optimal-stopping epoch, mean error there, and its standard error,
    with the optimum taken per run (first index on ties).  Takes either
    report: only its epochs and per-run error_sq are read."""
    best = np.argmin(curves.error_sq, axis=1)
    kstars = curves.epochs[best]
    errs = np.sqrt(curves.error_sq[np.arange(best.size), best])
    se = errs.std(ddof=1) / math.sqrt(best.size) if best.size > 1 else 0.0
    return float(kstars.mean()), float(errs.mean()), float(se)


# ---------------------------------------------------------------------------
# constants, conditions, and convergence bounds

C_STAR = 2.0  # the constant c* > 1 of the rate condition and the bounds

@dataclass(frozen=True)
class ConditionReport:
    n: int
    M: int
    c0: float
    contraction_factor: float      # (1 - c0 ||B||)^(-M)
    inner_drift_sum: float         # sum_{i<M} (1 - (1 - c0||B||)^i)^2
    contraction_factor_sq: float   # (1 - c0 ||B||)^(-2(M-1))
    rate_lhs: float
    rate_rhs: float
    rate_ok: bool
    compare_lhs_step: float
    compare_rhs_step: float
    compare_lhs_size: float
    compare_rhs_size: float
    compare_ok: bool


def condition_report(inst: ProblemInstance, c0: float, M: int) -> ConditionReport:
    n = inst.n
    x = c0 * inst.gram.norm
    if not 0 < x < 1:
        raise ValueError("need 0 < c0 ||B|| < 1 for the condition constants")
    c_b = (1.0 - x) ** (-M)
    c_bm = float(sum((1.0 - (1.0 - x) ** i) ** 2 for i in range(1, M)))
    c_bp = (1.0 - x) ** (-2 * (M - 1))
    rate_lhs = (4.0 + 2.0 * (M * x) ** 2) * n * M ** (-2.0) * c_b * c_bm
    rate_rhs = 1.0 - 1.0 / C_STAR
    cmp_l1 = (M - 1) ** 2 * x**2
    cmp_r1 = 1.0 / (2.0 * c_bp)
    cmp_l2 = float((M + 1) ** 2)
    cmp_r2 = (n - 1) / (2.0 * c_bp)
    return ConditionReport(
        n=n, M=M, c0=c0,
        contraction_factor=c_b, inner_drift_sum=c_bm, contraction_factor_sq=c_bp,
        rate_lhs=rate_lhs, rate_rhs=rate_rhs, rate_ok=rate_lhs <= rate_rhs,
        compare_lhs_step=cmp_l1, compare_rhs_step=cmp_r1,
        compare_lhs_size=cmp_l2, compare_rhs_size=cmp_r2,
        compare_ok=(cmp_l1 <= cmp_r1) and (cmp_l2 <= cmp_r2))


def theorem_bound(norm_b: float, n: int, c0: float, M: int, K: int, nu: float,
                  norm_w: float, delta_bar: float) -> float:
    """Upper bound on E||x_KM - x_dag||^2 after K outer loops under the rate
    condition, for a source representation of order nu and noise delta_bar."""
    if K < 1:
        raise ValueError("need K >= 1")
    x = c0 * norm_b
    if not 0 < x < 1:
        raise ValueError("need 0 < c0 ||B|| < 1")
    c_b = (1.0 - x) ** (-M)
    c_dd = (3.0 + 2.0 * (M * x) ** 2) * n * M * c_b * c0**2 * norm_b
    c_nu = nu**nu * (M * c0) ** (-nu)
    approx = (2.0 + 2.0 ** (2 * nu) * norm_b * c_dd * C_STAR) \
        * c_nu**2 * float(K) ** (-2 * nu) * norm_w**2
    noise = (2.0 * M * c0 + c_dd * C_STAR) * K * delta_bar**2
    return float(approx + noise)


def residual_bound(n: int, c0: float, M: int, K: int, nu: float, norm_w: float,
                   delta_bar: float) -> float:
    """Upper bound on E||A x_KM - y||^2 for the anchored method."""
    if K < 1:
        raise ValueError("need K >= 1")
    s = nu + 0.5
    c_s = s**s * (M * c0) ** (-s)
    approx = 2.0 ** (2 * nu + 2) * c_s**2 * n * C_STAR \
        * float(K) ** (-(2 * nu + 1)) * norm_w**2
    noise = 2.0 * n * C_STAR * delta_bar**2
    return float(approx + noise)


def rate_fit(deltas, values) -> tuple[float, float]:
    """Least-squares slope and intercept of log(values) against log(deltas)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if deltas.size != values.size or deltas.size < 2:
        raise ValueError("need matching arrays with at least two points")
    if np.any(deltas <= 0) or np.any(values <= 0):
        raise ValueError("rate fit needs positive data")
    slope, intercept = np.polyfit(np.log(deltas), np.log(values), 1)
    return float(slope), float(intercept)
