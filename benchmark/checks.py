"""Correctness checks for the benchmark's operations.

Every check takes the program's output (parsed from the files it wrote, or the
values its public functions returned) and returns a list of failure messages;
an empty list means the operation is correct. The checks test properties the
method must have, or compare with quantities computed here in plain numpy,
apart from the program. None of them compares with a stored copy of earlier
output.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

# the paper's table cell: s-phillips, n = 1000, nu = 0, epsilon = 5e-2
PAPER_TABLE = {"svrg": (0.542, 96.25), "sgd": (0.542, 108.90)}
EXACT_TOL = 1e-12        # relative agreement between exact oracles
MSE_SPLIT_TOL = 1e-12    # relative gap allowed in mse = bias_sq + variance
BIAS_Z = 6.0             # standard errors allowed between sampled and exact bias
RATE_E_TOL = 1e-3        # relative gap allowed between e_at_kstar and exact
RATE_STOP_TOL = 1e-2     # relative excess of the exact error at kstar


def read_table(path) -> list[dict]:
    """Rows of a result CSV as dicts of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_curves(path) -> dict[str, np.ndarray]:
    """Columns of a figure CSV as float arrays."""
    rows = read_table(path)
    if not rows:
        return {}
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _cell_errors(rows: list[dict]) -> list[str]:
    return [f"{r['method']} eps={r['epsilon']}: recorded error {r['error']!r}"
            for r in rows if r["error"]]


# ---------------------------------------------------------------------------
# pipeline workloads

def paper_ratios(rows: list[dict]) -> dict:
    """(e_at_kstar, kstar) of each cell over the paper's values."""
    return {r["method"]: (float(r["e_at_kstar"]) / PAPER_TABLE[r["method"]][0],
                          float(r["kstar"]) / PAPER_TABLE[r["method"]][1])
            for r in rows if r["method"] in PAPER_TABLE and not r["error"]}


def check_table(rows: list[dict], horizon: float, initial_error: float
                ) -> list[str]:
    """Both cells complete, stop no later than the last checkpoint, and end
    below the initial error. The last checkpoint is the whole iteration
    nearest the horizon, at most half an iteration (half an epoch) past it.

    The paper's bands (e and kstar within a factor two of PAPER_TABLE) and
    an interior stopping epoch are not checked: both depend on the noise
    realization, which the seed sets. Over seeds 0-9 the svrg stopping epoch
    spreads from 43 to 145 epochs, below the band on one seed and past any
    horizon a run can afford on several.
    """
    failures = _cell_errors(rows)
    by_method = {r["method"]: r for r in rows}
    for method in PAPER_TABLE:
        row = by_method.get(method)
        if row is None:
            failures.append(f"no {method} row")
            continue
        if row["error"]:
            continue
        e, k = float(row["e_at_kstar"]), float(row["kstar"])
        if not 0 < e < initial_error:
            failures.append(f"{method}: e_at_kstar {e:.4g} not below the "
                            f"initial error {initial_error:.4g}")
        if not 0 < k <= horizon + 0.5:
            failures.append(f"{method}: kstar {k!r} past the horizon "
                            f"{horizon:g}")
    return failures


def rate_slope(deltas, e_values) -> float:
    """Least-squares slope of log(e^2) against log(delta)."""
    x = np.log(np.asarray(deltas, dtype=np.float64))
    y = np.log(np.square(np.asarray(e_values, dtype=np.float64)))
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def check_rate(rows: list[dict], horizon: float, exact_curves: dict
               ) -> list[str]:
    """Every noise level completes, stops no later than the last checkpoint,
    and stops where and with the error the exact mean iterate says.

    `exact_curves` maps epsilon to (epochs, errors): the exact error
    |E x_k - x_dag| of the mean iterate on a grid of epochs that ends at the
    last checkpoint (see exact_bias_sq). The reported e_at_kstar, a mean
    over runs of each run's best error, must be within BIAS_Z standard
    errors plus RATE_E_TOL of the exact curve's minimum, and the exact error
    at the reported kstar within RATE_STOP_TOL of that minimum.

    Neither a decreasing e nor a band on the slope of e^2 against delta
    (rate_slope) is checked, nor a stop strictly inside the horizon: with one
    noise realization per level, e at eps = 1e-2 exceeds e at eps = 5e-2 on
    about 4% of seeds, the slope spreads from about 1.3 to 2.1, and the
    eps = 1e-3 stop lies past 10000 epochs on about 1% of seeds. The exact
    curve gives the same on these seeds, so none of them is a fault.
    """
    failures = _cell_errors(rows)
    if failures:
        return failures
    by_eps = {float(r["epsilon"]): r for r in rows}
    for eps, (epochs, errors) in exact_curves.items():
        row = by_eps.get(eps)
        if row is None:
            failures.append(f"no row for eps={eps:g}")
            continue
        e, k = float(row["e_at_kstar"]), float(row["kstar"])
        se = float(row["standard_error"] or 0.0)
        e_min = float(np.min(errors))
        if not abs(e - e_min) <= BIAS_Z * se + RATE_E_TOL * e_min:
            failures.append(f"eps={eps:g}: e_at_kstar {e:.6g} (se {se:.3g}) "
                            f"vs exact stopping error {e_min:.6g}")
        if not 0 < k <= horizon + 0.5:
            failures.append(f"eps={eps:g}: kstar {k!r} past the horizon "
                            f"{horizon:g}")
        elif not np.interp(k, epochs, errors) <= (1 + RATE_STOP_TOL) * e_min:
            best = float(epochs[int(np.argmin(errors))])
            failures.append(f"eps={eps:g}: exact error at kstar {k:.5g} is "
                            f"{np.interp(k, epochs, errors):.6g}, more than "
                            f"{RATE_STOP_TOL:g} above its minimum {e_min:.6g}"
                            f" at epoch {best:.5g}")
    return failures


def exact_bias_sq(a, x_dag, x0, y, c0: float, iterations) -> np.ndarray:
    """||E x_k - x_dag||^2 at each iteration count k, from an eigendecomposition
    of B = A^T A / n made here.

    Both stochastic methods share the mean recursion
    E e_{k+1} = (I - c0 B) E e_k + c0 zeta with zeta = A^T (y - A x_dag) / n,
    so in the eigenbasis E e_k = mu^k e_0 + c0 (1 - mu^k) / (1 - mu) zeta.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    lam, vecs = np.linalg.eigh(a.T @ a / n)
    x = c0 * np.clip(lam, 0.0, None)
    e0 = vecs.T @ (np.asarray(x0) - x_dag)
    zeta = vecs.T @ (a.T @ (np.asarray(y) - a @ x_dag) / n)
    log_mu = np.log1p(-np.clip(x, None, 1.0))
    safe = np.where(x > 0, x, 1.0)
    iterations = np.asarray(iterations, dtype=np.float64)
    out = np.empty(iterations.size)
    # in chunks of iterations, so long curves need little memory
    for start in range(0, iterations.size, 512):
        k = iterations[start:start + 512, None]
        mu_k = np.exp(k * log_mu)
        # c0 * sum_{t<k} mu^t, exact also where c0 * lambda is tiny or zero
        steps = np.where(x > 0, -np.expm1(k * log_mu) / safe, k) * c0
        mean_err = mu_k * e0 + steps * zeta
        out[start:start + 512] = np.einsum("km,km->k", mean_err, mean_err)
    return out


def check_figure(curves: dict, exact_bias: dict, runs: int, n: int,
                 result_rows: list[dict]) -> list[str]:
    """Variance-curve properties of the figure pipeline.

    `curves` maps method to the columns of its figure CSV; `exact_bias` maps
    method to the exact squared bias at that CSV's iterations.
    """
    failures = _cell_errors(result_rows)
    if set(curves) != {"svrg", "sgd"}:
        return failures + [f"figure files for {sorted(curves)}, "
                           "wanted svrg and sgd"]
    for method, cols in curves.items():
        mse, bias, var = cols["mse"], cols["bias_sq"], cols["variance"]
        gap = np.abs(mse - (bias + var))
        bad = np.nonzero(gap > MSE_SPLIT_TOL * np.abs(mse))[0]
        if bad.size:
            j = int(bad[0])
            failures.append(f"{method}: mse != bias_sq + variance at {bad.size}"
                            f" rows, first at iteration {cols['iteration'][j]:g}"
                            f" ({mse[j]!r} vs {bias[j] + var[j]!r})")
        # The sampled bias is |m + eta|^2 with eta the error of the sample
        # mean, so it exceeds the exact |m|^2 by tr(Cov)/runs on average,
        # with fluctuations of at most 2|m| sqrt(tr(Cov)/runs) + sqrt(2)
        # tr(Cov)/runs standard deviations.
        exact = exact_bias[method]
        spread = var / (runs - 1)
        excess = bias - exact - spread
        allowed = BIAS_Z * (2.0 * np.sqrt(exact * spread) + np.sqrt(2.0) * spread) \
            + 1e-9 * exact
        bad = np.nonzero(np.abs(excess) > allowed)[0]
        if bad.size:
            j = int(bad[0])
            failures.append(f"{method}: sampled bias_sq off the exact mean at "
                            f"{bad.size} rows, first at iteration "
                            f"{cols['iteration'][j]:g} ({bias[j]:.6e} vs "
                            f"exact {exact[j]:.6e}, allowed {allowed[j]:.2e})")
    var = {m: dict(zip(c["iteration"], c["variance"])) for m, c in curves.items()}
    common = sorted(k for k in set(var["svrg"]) & set(var["sgd"]) if k > n)
    if len(common) < 20:
        return failures + [f"only {len(common)} common checkpoints after one "
                           "data sweep"]
    wins = sum(var["svrg"][k] < var["sgd"][k] for k in common)
    if wins < 0.95 * len(common):
        failures.append(f"svrg variance below sgd at {wins}/{len(common)} "
                        "checkpoints, wanted 95%")
    last = common[-1]
    if not var["sgd"][last] >= 10.0 * var["svrg"][last]:
        failures.append(f"variance ratio sgd/svrg at iteration {last:g} is "
                        f"{var['sgd'][last] / var['svrg'][last]:.2f}, wanted "
                        ">= 10")
    return failures


# ---------------------------------------------------------------------------
# exact oracles

def relative_gap(got, ref, scale: float = 0.0) -> float:
    """|got - ref| over the larger of |ref| and `scale`."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    size = max(float(np.linalg.norm(ref)), scale)
    diff = float(np.linalg.norm(got - ref))
    return diff / size if size > 0 else diff


def moment_scale(weight: np.ndarray, shift: np.ndarray,
                 second_moment: float) -> float:
    """Size of the terms that E||R1 u + R2||^2 sums: ||R1||^2 E||u||^2 +
    ||R2||^2. Rounding errors of any route to the moment are relative to
    this, which exceeds the moment itself when R1 or R2 cancels a large
    shift B^+ zeta (nearly singular B)."""
    return float(np.linalg.norm(weight, 2) ** 2 * second_moment + shift @ shift)


def check_agreement(label: str, pairs, tol: float = EXACT_TOL) -> list[str]:
    """`pairs` yields (case, got, reference, scale); each must agree to `tol`
    relative to the larger of the reference and the scale."""
    failures = []
    worst, where = 0.0, None
    for case, got, ref, scale in pairs:
        gap = relative_gap(got, ref, scale)
        if not gap <= tol:
            failures.append(f"{label} {case}: relative gap {gap:.3e} > {tol:g}")
        if gap > worst:
            worst, where = gap, case
    if failures:
        failures.append(f"{label}: worst gap {worst:.3e} at {where}")
    return failures


def check_margins(margins, conditions) -> list[str]:
    """Anchored second moments never exceed the plain ones, and every case
    meets the comparison condition under which that is guaranteed."""
    failures = []
    worst = min(margins) if margins else float("nan")
    if not worst >= -EXACT_TOL:
        bad = sum(1 for m in margins if not m >= -EXACT_TOL)
        failures.append(f"{bad} ordering margins below -{EXACT_TOL:g}; "
                        f"worst {worst:.3e}")
    if not all(conditions):
        failures.append(f"comparison condition fails on "
                        f"{sum(1 for c in conditions if not c)} instances")
    return failures


def weight_matrices(a, c0: float) -> dict:
    """R1 words I, B and M0^2 as explicit matrices, built here."""
    a = np.asarray(a, dtype=np.float64)
    n, m = a.shape
    b = a.T @ a / n
    m0 = np.eye(m) - c0 * b
    return {"I": np.eye(m), "B": b, "M0^2": m0 @ m0}


def pinv_apply(a, v):
    """B^+ v with B = A^T A / n, dropping eigenvalues below 1e-12 lambda_max."""
    a = np.asarray(a, dtype=np.float64)
    lam, vecs = np.linalg.eigh(a.T @ a / a.shape[0])
    keep = lam > 1e-12 * max(lam[-1], 0.0)
    coeff = vecs.T @ v
    coeff[keep] /= lam[keep]
    coeff[~keep] = 0.0
    return vecs @ coeff


def shift_vectors(a, y, x_dag) -> dict:
    """R2 shifts 0 and B^+ zeta, with zeta = A^T (y - A x_dag) / n."""
    a = np.asarray(a, dtype=np.float64)
    zeta = a.T @ (np.asarray(y) - a @ x_dag) / a.shape[0]
    return {"0": np.zeros(a.shape[1]), "Binv_zeta": pinv_apply(a, zeta)}


def brute_force_moments(a, y, x_dag, x0, c0: float, M: int, K: int,
                        method: str, weights: dict, shifts: dict):
    """Mean of x_KM and every E||R1 (x_KM - x_dag - B^+ zeta) + R2||^2, by a
    plain loop over all n^(K M) equally likely index paths.

    Returns (mean, {(r1, r2): value}).
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = a.shape[0]
    zeta = a.T @ (y - a @ x_dag) / n
    x_ref = x_dag + pinv_apply(a, zeta)
    total = np.zeros(a.shape[1])
    sums = {key: 0.0 for key in itertools.product(weights, shifts)}
    count = 0
    for path in itertools.product(range(n), repeat=K * M):
        x = np.array(x0, dtype=np.float64)
        for t, i in enumerate(path):
            if method == "svrg":
                if t % M == 0:
                    anchor = x.copy()
                    grad = a.T @ (a @ anchor - y) / n
                x = x - c0 * ((a[i] @ (x - anchor)) * a[i] + grad)
            else:
                x = x - c0 * (a[i] @ x - y[i]) * a[i]
        total += x
        for r1, r2 in sums:
            v = weights[r1] @ (x - x_ref) + shifts[r2]
            sums[(r1, r2)] += float(v @ v)
        count += 1
    return total / count, {key: s / count for key, s in sums.items()}


def check_suite(exit_code: int, report_path) -> list[str]:
    """`verify` exits 0 and its JSON report says every hard check passed."""
    failures = []
    if exit_code != 0:
        failures.append(f"verify exited {exit_code}")
    path = Path(report_path)
    if not path.is_file():
        return failures + ["verify wrote no report"]
    report = json.loads(path.read_text(encoding="utf-8"))
    if report.get("passed") is not True or report.get("failed_checks"):
        failures.append(f"verify report failed: {report.get('failed_checks')}")
    if not report.get("checks"):
        failures.append("verify report lists no checks")
    return failures
