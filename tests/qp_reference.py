"""Brute-force reference solver for the ridge-shifted SVM dual.

Maximizes f(a) = sum(a) - 0.5 a' (yy' * Kt) a over {a >= 0, y'a = 0}
by dense projected gradient ascent.  Projection onto the feasible set
solves min ||a - v|| via a scalar bisection on the balance multiplier:
a(mu) = max(0, v - mu*y) with y'a(mu) monotone in mu.

Deliberately naive - no pair selection, no incremental gradients - so
it shares nothing with the production solver beyond the objective.
"""

from __future__ import annotations

import math

import numpy as np


def project_feasible(v: np.ndarray, y: np.ndarray, iters: int = 200) -> np.ndarray:
    def balance(mu):
        return float(y @ np.maximum(0.0, v - mu * y))

    lo, hi = -1.0, 1.0
    scale = float(np.max(np.abs(v))) + 1.0
    lo, hi = -scale, scale
    while balance(lo) < 0:
        lo *= 2.0
    while balance(hi) > 0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0:
            lo = mid
        else:
            hi = mid
    return np.maximum(0.0, v - 0.5 * (lo + hi) * y)


def solve_reference(Kt: np.ndarray, y: np.ndarray, tol: float = 1e-8, max_iter: int = 2_000_000):
    """Projected-gradient ascent to a fixed point within tol (sup norm)."""
    n = y.shape[0]
    Q = (y[:, None] * y[None, :]) * Kt
    step = 1.0 / float(np.linalg.eigvalsh(Q).max())
    a = np.zeros(n)
    for _ in range(max_iter):
        grad = 1.0 - Q @ a
        nxt = project_feasible(a + step * grad, y)
        if float(np.max(np.abs(nxt - a))) <= tol:
            a = nxt
            break
        a = nxt
    objective = float(np.sum(a) - 0.5 * a @ (Q @ a))
    return a, objective


def closed_form_kernel(spec, x, z) -> float:
    """k(x, z) for one pair of points, from the textbook formulas:
    x.z, (x.z + 1)^2, (x.z + 1)^3 or exp(-|x - z|^2 / (2 sigma^2))."""
    dot = sum(float(u) * float(v) for u, v in zip(x, z, strict=True))
    if spec.variant == "linear":
        return dot
    if spec.variant == "quadratic":
        return (dot + 1.0) ** 2
    if spec.variant == "cubic":
        return (dot + 1.0) ** 3
    dist2 = sum((float(u) - float(v)) ** 2 for u, v in zip(x, z, strict=True))
    return math.exp(-dist2 / (2.0 * spec.sigma**2))


def reference_decision_function(X, y, alpha, kernel_fn, C):
    """Bias from the per-point certificate, then D(x) over full alpha."""
    n = X.shape[0]
    K = np.array([[kernel_fn(X[i], X[j]) for j in range(n)] for i in range(n)])
    d_nob = K @ (alpha * y)
    b_est = y - d_nob - alpha * y / C
    sv = alpha > 1e-10
    bias = float(np.mean(b_est[sv])) if np.any(sv) else 0.0

    def D(x):
        return float(sum(alpha[i] * y[i] * kernel_fn(X[i], x) for i in range(n)) + bias)

    return D, bias
