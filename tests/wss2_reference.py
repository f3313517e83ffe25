"""The scalar WSS2 dual solver, kept as the bit-identity reference for
the stacked lockstep solver in `netdiag.svm`.

This is the one-problem loop that `svm.solve_dual` ran before problems
were stacked: every vector operation runs on one problem per call.  The
stacked solver must return the same `TrainingState`, field for field and
bit for bit, for every problem of a stack.  The reference also keeps the
dual objective after each pair update, which the solver does not.
"""

from __future__ import annotations

import numpy as np

from netdiag.svm import TrainingState


def solve_dual_reference(Kt: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> tuple[TrainingState, list[float]]:
    """Maximize sum(a) - 0.5 a' (yy' * Kt) a  s.t.  a >= 0, y'a = 0; the
    final state and the objective after each pair update.

    Kt must be symmetric: the loop reads rows where the gradient update
    needs columns.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    # The dual sees y only through yy' and y'a = 0, so solving with the
    # labels oriented to y[0] = +1 takes the same path for y and -y.
    ys = y if y[0] > 0 else -y
    y_list = ys.tolist()
    # b[t] = ys_t * dObjective/dAlpha_t; starts at ys since grad = 1.
    b = ys.copy()
    diag = np.diag(Kt)
    # curv[i, t] = Kt_ii + Kt_tt - 2 Kt_it, the curvature along pair (i, t),
    # with WSS2's tau = 1e-12 where that is <= 0 (two equal points whose
    # ridge vanishes in rounding); inf on the diagonal so the degenerate
    # pair (i, i) never gains.
    curv = np.add.outer(diag, diag)
    curv -= 2.0 * Kt
    curv[curv <= 0.0] = 1e-12
    np.fill_diagonal(curv, np.inf)
    # 0 on the set that may move up (resp. down), -inf (resp. +inf) off it.
    up_pen = np.where(ys > 0, 0.0, -np.inf)
    low_pen = np.where(ys > 0, np.inf, 0.0)
    up = np.empty(n)
    gain = np.empty(n)
    delta_b = np.empty(n)
    alpha = [0.0] * n
    trace = []
    objective = 0.0
    updates = 0
    converged = False
    sweeps = 0
    while sweeps < max_iter and not converged:
        sweeps += 1
        for _ in range(n):
            np.add(b, up_pen, out=up)
            i = int(up.argmax())
            b_i = up.item(i)
            # gain = b_i - b_t over the set that may move down, -inf off it.
            np.add(b, low_pen, out=gain)
            np.subtract(b_i, gain, out=gain)
            if gain.max() <= tol:
                converged = True
                break
            # Second-order choice of j: the largest one-step objective gain
            # (b_i - b_t)^2 / curv[i, t] among points with b_t < b_i.
            np.maximum(gain, 0.0, out=gain)
            np.square(gain, out=gain)
            row = curv[i]
            np.divide(gain, row, out=gain)
            j = int(gain.argmax())
            violation = b_i - b.item(j)
            eta = row.item(j)
            t = violation / eta
            y_i, y_j = y_list[i], y_list[j]
            if y_i < 0:
                t = min(t, alpha[i])
            if y_j > 0:
                t = min(t, alpha[j])
            a_i = max(alpha[i] + y_i * t, 0.0)
            a_j = max(alpha[j] - y_j * t, 0.0)
            alpha[i] = a_i
            alpha[j] = a_j
            np.subtract(Kt[i], Kt[j], out=delta_b)
            delta_b *= t
            b -= delta_b
            for k, a_k, y_k in ((i, a_i, y_i), (j, a_j, y_j)):
                if y_k > 0:
                    low_pen[k] = 0.0 if a_k > 0 else np.inf
                else:
                    up_pen[k] = 0.0 if a_k > 0 else -np.inf
            objective += violation * t - 0.5 * eta * t * t
            trace.append(objective)
            updates += 1

    # Exact recompute of the certificate quantities at the final point,
    # for the caller's labels.
    alpha = np.asarray(alpha)
    ay = alpha * y
    grad = 1.0 - y * (Kt @ ay)
    b_vec_exact = y * grad
    movable = alpha > 0
    pos = y > 0
    m_up = np.max(np.where(pos | movable, b_vec_exact, -np.inf))
    m_low = np.min(np.where(~pos | movable, b_vec_exact, np.inf))
    return TrainingState(
        alpha=alpha,
        bias_estimates=b_vec_exact,
        iterations_used=sweeps,
        updates=updates,
        converged=converged,
        final_kkt_residual=float(m_up - m_low),
    ), trace
