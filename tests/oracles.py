"""Independent oracles used to cross-check the library implementation.

Everything here deliberately takes a different computational route from the
package: counting-based ranks instead of argsort, explicit per-term
summation instead of vectorized matrix algebra, scipy's logsumexp instead
of the package's softmax, and so on. Tests compare the two routes.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp


def rank_by_counting(values) -> list[float]:
    """Average ranks via the O(n^2) counting definition."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def pearson_manual(x, y) -> float:
    mx = statistics.fmean(x)
    my = statistics.fmean(y)
    dx = [xi - mx for xi in x]
    dy = [yi - my for yi in y]
    sx = math.sqrt(sum(d * d for d in dx))
    sy = math.sqrt(sum(d * d for d in dy))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(dx, dy)) / (sx * sy)


def spearman_bruteforce(a, b) -> float:
    """Rank explicitly (counting definition), then Pearson by hand."""
    return pearson_manual(rank_by_counting(list(a)), rank_by_counting(list(b)))


def clr_rowwise_reference(row, eps) -> list[float]:
    """Scalar, per-component evaluation of the centered log-ratio."""
    logs = [math.log(x + eps) for x in row]
    mean = sum(logs) / len(logs)
    return [v - mean for v in logs]


def trace_penalty_bruteforce(W: np.ndarray, adjacency: np.ndarray) -> float:
    """0.5 * sum_{u,v} A_uv ||w_:,u - w_:,v||^2 by explicit loops."""
    p = adjacency.shape[0]
    total = 0.0
    for u in range(p):
        for v in range(p):
            d = W[:, u] - W[:, v]
            total += adjacency[u, v] * float(d @ d)
    return 0.5 * total


def loss_by_terms(W, b, Z, y_idx, sample_weights, laplacian, lam_l2, lam_g) -> float:
    """Per-sample, per-entry recomputation of the training objective."""
    n = len(y_idx)
    K = W.shape[0]
    data = 0.0
    for i in range(n):
        scores = [float(W[k] @ Z[i]) + float(b[k]) for k in range(K)]
        log_z = logsumexp(scores)
        data += sample_weights[i] * (log_z - scores[y_idx[i]])
    data /= n
    l2 = lam_l2 * sum(float(W[k, j]) ** 2 for k in range(K) for j in range(W.shape[1]))
    graph = lam_g * float(np.trace(W @ laplacian @ W.T))
    return data + l2 + graph


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def fit_plain_l2_mlr(Z, y_idx, K, sample_weights, lam_l2, ftol, gtol, max_iters=15000):
    """Independently coded weighted L2 multinomial logistic regression.

    Uses a logsumexp objective and scipy's L-BFGS-B with the package's
    ftol/gtol/max_iters stopping parameters, but none of its code. Returns
    the minimized loss value.
    """
    Z = np.asarray(Z, float)
    n, p = Z.shape
    y = np.asarray(y_idx)
    s = np.asarray(sample_weights, float)

    def objective(theta):
        W = theta[: K * p].reshape(K, p)
        b = theta[K * p :]
        scores = Z @ W.T + b[None, :]
        lse = logsumexp(scores, axis=1)
        data = float((s * (lse - scores[np.arange(n), y])).sum()) / n
        val = data + lam_l2 * float(np.sum(W**2))
        P = np.exp(scores - lse[:, None])
        onehot = np.zeros((n, K))
        onehot[np.arange(n), y] = 1.0
        R = (P - onehot) * (s / n)[:, None]
        gW = R.T @ Z + 2.0 * lam_l2 * W
        gb = R.sum(axis=0)
        return val, np.concatenate([gW.ravel(), gb])

    res = minimize(
        objective,
        np.zeros(K * p + K),
        jac=True,
        method="L-BFGS-B",
        options={"ftol": ftol, "gtol": gtol, "maxiter": max_iters},
    )
    return float(res.fun)


def random_fused_graph(rng: np.random.Generator, p: int):
    """Random thresholded-fused adjacency + Laplacian, for property tests."""
    from grmlr.ecograph import a_co_from_correlations, a_macro_from_profiles, fuse

    profiles = rng.uniform(-1.0, 1.0, size=(p, 4))
    # occasionally knock out a profile to exercise the no-edge path
    if rng.random() < 0.3:
        profiles[rng.integers(p)] = 0.0
    corr = rng.uniform(-1.0, 1.0, size=(p, p))
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    tau = float(rng.uniform(0.0, 1.0))
    gamma = float(rng.uniform(0.0, 1.0))
    alpha = float(rng.uniform(0.0, 1.0))
    a_macro = a_macro_from_profiles(profiles, tau)
    a_co = a_co_from_correlations(corr, gamma)
    return fuse(a_macro, a_co, alpha, tau=tau, gamma=gamma)
