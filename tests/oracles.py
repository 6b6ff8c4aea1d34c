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
    from grmlr.ecograph import _fused, a_co_from_correlations, a_macro_from_profiles

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
    return _fused(a_macro, a_co, alpha, [f"t{j}" for j in range(p)])


class FullSpaceNewton:
    """Damped Newton on all K(p + 1) parameters, for lambda_l2 > 0.

    The parameters are V = [W | b], K x (p + 1). The Hessian is built sample
    by sample as sum_i c_i kron(diag P_i - P_i P_i^T, x_i x_i^T) over the
    class-major vector [w_1, b_1, ..., w_K, b_K], plus
    kron(I_K, 2 lambda_l2 I + 2 lambda_g L on the weights) and u u^T for the
    unit equal-bias-shift vector u, the one flat direction; the step is
    projected off u.
    """

    def __init__(self, Z, y_idx, K, sample_weights, laplacian, lam_l2, lam_g):
        self.Z = np.asarray(Z, float)
        n, p = self.Z.shape
        self.n, self.p, self.K = n, p, K
        self.y = np.asarray(y_idx)
        self.c = np.asarray(sample_weights, float) / n
        self.X = np.hstack([self.Z, np.ones((n, 1))])
        self.onehot = np.zeros((n, K))
        self.onehot[np.arange(n), self.y] = 1.0
        self.laplacian = np.asarray(laplacian, float)
        self.lam_l2, self.lam_g = lam_l2, lam_g
        d = p + 1
        penalty = np.zeros((d, d))
        penalty[:p, :p] = 2.0 * lam_l2 * np.eye(p) + 2.0 * lam_g * self.laplacian
        u = np.zeros((K, d))
        u[:, p] = 1.0 / math.sqrt(K)
        self.u = u.ravel()
        self.curvature = np.kron(np.eye(K), penalty) + np.outer(self.u, self.u)

    def objective(self, V):
        """Value and K x (p + 1) gradient of the training objective at V."""
        n, p = self.n, self.p
        W = V[:, :p]
        scores = self.X @ V.T
        lse = logsumexp(scores, axis=1)
        value = float(self.c @ (lse - scores[np.arange(n), self.y]))
        value += self.lam_l2 * float(np.sum(W**2))
        value += self.lam_g * float(np.trace(W @ self.laplacian @ W.T))
        R = (np.exp(scores - lse[:, None]) - self.onehot) * self.c[:, None]
        grad = R.T @ self.X
        grad[:, :p] += 2.0 * self.lam_l2 * W + 2.0 * self.lam_g * W @ self.laplacian
        return value, grad

    def step(self, V, grad):
        """Undamped Newton step at V, projected off u, as a K x (p + 1) array."""
        scores = self.X @ V.T
        P = np.exp(scores - logsumexp(scores, axis=1)[:, None])
        H = self.curvature.copy()
        for i in range(self.n):
            curvature_i = np.diag(P[i]) - np.outer(P[i], P[i])
            H += self.c[i] * np.kron(curvature_i, np.outer(self.X[i], self.X[i]))
        newton = np.linalg.solve(H, -grad.ravel())
        return (newton - self.u * (self.u @ newton)).reshape(V.shape)

    def fit(self, ftol, gtol, max_iters):
        """Minimize from V = 0; returns (V, n_iterations, final gradient max-norm).

        Line search and stopping rules are the package's: Armijo halving
        (constant 1e-4, at most 50 halvings), stop on gradient max-norm <=
        gtol, on relative decrease <= ftol, when no step passes, or after
        max_iters steps.
        """
        V = np.zeros((self.K, self.p + 1))
        value, grad = self.objective(V)
        n_iter = 0
        while np.abs(grad).max() > gtol and n_iter < max_iters:
            step = self.step(V, grad)
            slope = float(np.sum(grad * step))
            if not slope < 0.0:
                break
            t = 1.0
            for _ in range(50):
                trial = V + t * step
                trial_value, trial_grad = self.objective(trial)
                if trial_value <= value + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            n_iter += 1
            decrease = (value - trial_value) / max(abs(value), abs(trial_value), 1.0)
            V, value, grad = trial, trial_value, trial_grad
            if decrease <= ftol:
                break
        return V, n_iter, float(np.abs(grad).max())
