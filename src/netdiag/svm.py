"""Soft-margin kernel SVM with squared-slack penalty.

The squared-slack (L2) primal reduces to a hard-margin dual on the
ridge-shifted kernel K~ = K + I/C with nonnegative multipliers and the
usual balance constraint sum(alpha_i * y_i) = 0.  The solver is pairwise
coordinate ascent with second-order working-set selection (Fan, Chen &
Lin, JMLR 6, 2005; LIBSVM's WSS2): i is the point of the set that may
move up with the largest b_i, and j is the point of the set that may
move down, with b_j < b_i, whose pair step gains the most objective,
(b_i - b_j)^2 / (K~_ii + K~_jj - 2 K~_ij).  Each update takes the exact
1-D Newton step along the pair, clipped to alpha >= 0.  One "iteration"
is a sweep of up to n pair updates; the solver stops when the
first-order gap max_up b - min_low b falls to the tolerance.

The selection rule is not symmetric under y -> -y, but the dual depends
on y only through yy' and y'a = 0.  The solver therefore orients the
labels so that y_0 = +1 before the loop, which makes alpha identical
for y and -y, and computes the certificate below for the caller's
labels, so swapped labels negate the decision function exactly.

The per-point quantity b_i = y_i - sum_j alpha_j y_j K(x_j, x_i)
- alpha_i y_i / C doubles as the optimality certificate (the spread
max-min over the movable sets is the KKT violation) and, averaged over
support vectors, as the bias term of the decision function.

At the sizes fitted here (n <= a few hundred) a pair update is about
fifteen numpy calls whose fixed cost outweighs their arithmetic, so
`solve_duals` runs independent problems in lockstep, one row of a stack
per problem: the vector work of a step (the choice of i and j, the
gradient update) is one call across all rows, and the scalar pair step
runs in Python per row.  A problem is a Gram of a pool plus the
ascending indices of its points: the CV folds of one subset size and its
final fit are sub-blocks of one Gram over all rows, so the pool holds
each distinct Gram once, zero-padded to the largest.  Beside each Gram
the solver keeps its curvature matrix, curv[i, t] = K~_ii + K~_tt -
2 K~_it, computed once per call; WSS2 replaces a curvature <= 0 (two
equal points with a vanishing ridge) by tau = 1e-12, and the diagonal
is inf so that the degenerate pair (i, i) never gains.  Grams and
curvatures together take 2 * |sizes| * n^2 * 8 bytes for a pipeline of
n rows.  A stack row spans every point of the pool; the points a
problem leaves out, such as a fold's held-out rows, are padding.  The
curvature and gradient rows of a step are row takes from the pools.
Each problem brings its own tolerance and sweep cap, so the CV grids
and final fits of differently configured pipelines share one stack,
and a row leaves the stack when its problem converges or hits its
update cap.  Each problem takes exactly the path it takes alone on its
sub-block, bit for bit: elementwise operations and row-wise argmax see
only the row's own values, padding sits off both sets, so its gain is
exactly 0 over a positive curvature (while a row that steps has a point
of positive gain) and argmax meets the problem's points in their order,
the gap is taken as b_i - min(low) (equal to the largest b_i - low_t,
since rounded subtraction is monotone), and the loop keeps b + 0 on
each set (not b and a penalty vector), which holds the same values.
`solve_dual` is the one-problem case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    SingleClassInput,
)
from .preprocess import ScalerParams, parse_real

KERNEL_VARIANTS = ("linear", "quadratic", "cubic", "rbf")


# kernel_matrix divides squared distances by 2 sigma^2.  Its operands are
# scaled rows, in the unit cube, so a squared distance is at most the column
# count, and from 2**-1000 up the quotient of any distance below 2**23 is
# finite.  Below it, distances in the cube can overflow the quotient (sigma
# 1e-160 gave an identity kernel with a RuntimeWarning).
_MIN_TWO_SIGMA_SQ = 2.0**-1000


@dataclass(frozen=True)
class KernelSpec:
    variant: str
    sigma: float | None = None

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "rbf":
            # A NaN width would make every decision value NaN, read as class -1.
            sigma = parse_real(self.sigma, "sigma")
            if not (sigma > 0 and _MIN_TWO_SIGMA_SQ <= 2.0 * sigma * sigma < math.inf):
                raise ValueError(
                    f"rbf kernel requires a sigma > 0 with 2 sigma^2 finite and at least 2**-1000, got {sigma!r}"
                )
        elif self.sigma is not None:
            raise ValueError(f"{self.variant} kernel takes no sigma")


def default_sigma(q: int) -> float:
    """Dimension-scaled default width for the rbf kernel."""
    return float(np.sqrt(max(q, 1) / 2.0))


@dataclass(frozen=True)
class SvmConfig:
    kernel: KernelSpec
    C: float = 10.0
    max_iter: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        # The Gram's ridge is 1/C, and a pair's curvature adds two of them.
        if not (self.C > 0 and math.isfinite(2.0 / self.C) and self.max_iter > 0 and self.tol > 0):
            raise ValueError(f"need C, max_iter, tol > 0 and 2/C finite; got {self.C!r}, {self.max_iter!r}, {self.tol!r}")


@dataclass(frozen=True)
class TrainingMeta:
    n: int
    iterations_used: int
    final_kkt_residual: float
    converged: bool
    updates: int  # pair updates


@dataclass(frozen=True, eq=False)
class SvmModel:
    kernel: KernelSpec
    C: float
    bias: float
    dual_coef: np.ndarray  # alpha_i * y_i for retained vectors
    support_vectors: np.ndarray  # one row per retained vector
    feature_subset: tuple[int, ...]
    scaler: ScalerParams | None
    training_meta: TrainingMeta


@dataclass
class TrainingState:
    """Full solver state; kept for diagnostics and property tests."""

    alpha: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    bias_estimates: np.ndarray | None = None
    dual_objective: float = 0.0
    iterations_used: int = 0
    updates: int = 0
    converged: bool = False
    final_kkt_residual: float = 0.0


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """K(a, b) for every row a of A and b of B, computed in the array of
    A B', which is `out` when given."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch("kernel operands with different feature counts")
    G = np.matmul(A, B.T, out=out)
    if spec.variant == "linear":
        return G
    if spec.variant in ("quadratic", "cubic"):
        G += 1.0
        return np.square(G, out=G) if spec.variant == "quadratic" else np.power(G, 3, out=G)
    # exp(-max(|a|^2 + |b|^2 - 2 a.b, 0) / (2 sigma^2))
    G *= -2.0
    G += (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :]
    np.maximum(G, 0.0, out=G)
    G /= -(2.0 * spec.sigma**2)
    return np.exp(G, out=G)


def gram_matrix(spec: KernelSpec, X: np.ndarray, C: float, out: np.ndarray | None = None) -> np.ndarray:
    """Ridge-shifted training kernel K + I/C, computed in `out` when given."""
    X = np.asarray(X, dtype=np.float64)
    K = kernel_matrix(spec, X, X, out)
    K[np.diag_indices(X.shape[0])] += 1.0 / C
    return K


# WSS2's floor for a pair's curvature (LIBSVM's TAU).
TAU = 1e-12


def _curvatures(grams: np.ndarray) -> np.ndarray:
    """The curvature matrix of each Gram of the (count, n, n) pool:
    curv[g, i, t] = K_ii + K_tt - 2 K_it, tau where that is <= 0, and inf
    for t = i."""
    pool = np.empty_like(grams)
    for K, curv in zip(grams, pool):
        d = K.diagonal()
        np.add(d[:, None], d, out=curv)
        curv -= 2.0 * K
        np.copyto(curv, TAU, where=curv <= 0.0)
        np.fill_diagonal(curv, np.inf)
    return pool


class _Dual:
    """One problem's side of the lockstep loop: the scalar pair-step state.
    alpha and y_list are indexed by the points of the problem's Gram."""

    __slots__ = ("g", "rows", "y", "y_list", "alpha", "trace", "objective", "updates", "tol", "max_iter", "cap", "state")

    def __init__(self, g: int, rows, y, tol: float, max_iter: int, n: int):
        self.g = g
        self.rows = np.asarray(rows, dtype=np.int64)
        self.y = np.asarray(y, dtype=np.float64)
        self.y_list = None  # the oriented labels, 0 off rows; set with the loop's row
        self.alpha = [0.0] * n
        self.trace = []
        self.objective = 0.0
        self.updates = 0
        self.tol = tol
        self.max_iter = max_iter
        self.cap = max_iter * len(self.rows)  # one sweep is up to m pair updates
        self.state = None


def solve_duals(grams: np.ndarray, problems) -> list[TrainingState]:
    """Maximize sum(a) - 0.5 a' (yy' * Kt) a  s.t.  a >= 0, y'a = 0 for
    each (g, rows, y, tol, max_iter) of `problems`, all of them in one
    lockstep stack; one TrainingState per problem, in input order.

    `grams` is a (count, n, n) pool of symmetric Grams, each zero-padded
    to n points (the loop reads rows where the gradient update needs
    columns).  A problem's Kt is the sub-block grams[g][np.ix_(rows,
    rows)]: rows are ascending indices of Gram g's points, y holds their
    labels in {+1, -1}, and tol and max_iter are that problem's stopping
    gap and sweep cap.
    """
    inf = np.inf
    count, n, _ = grams.shape
    rows_of = grams.reshape(count * n, n)  # row i of Gram g is rows_of[g * n + i]
    curv_of = _curvatures(grams).reshape(count * n, n)  # and its curvature row is curv_of[g * n + i]
    duals = [_Dual(*problem, n) for problem in problems]
    # Row r of the loop holds one problem and spans every point of the
    # pool's Grams.  up[r] holds b on the set that may move up and -inf off
    # it, low[r] holds b on the set that may move down and +inf off it,
    # where b_t = y_t * dObjective/dAlpha_t; every point of the problem is
    # on one set, and the other points (padding) are on neither.
    up = np.empty((len(duals), n))
    low = np.empty((len(duals), n))
    for r, dual in enumerate(duals):
        # The dual sees y only through yy' and y'a = 0, so solving with
        # the labels oriented to y[0] = +1 takes the same path for y and
        # -y.  b starts at the oriented labels since grad = 1.
        ys = np.zeros(n)
        ys[dual.rows] = dual.y if dual.y[0] > 0 else -dual.y
        dual.y_list = ys.tolist()
        up[r] = np.where(ys > 0, ys, -inf)
        low[r] = np.where(ys < 0, ys, inf)

    def flip(r: int, k: int, y_k: float, joins: bool) -> None:
        """Point k of row r joins or leaves the set its label does not
        always belong to, carrying its b across."""
        if y_k > 0:
            low[r, k] = up.item(r, k) if joins else inf
        else:
            up[r, k] = low.item(r, k) if joins else -inf

    def finish(dual: _Dual, converged: bool) -> None:
        """Exact recompute of the certificate quantities at the final
        point, for the caller's labels."""
        y, rows = dual.y, dual.rows
        K = grams[dual.g].take(rows, axis=0).take(rows, axis=1)
        alpha = np.asarray(dual.alpha)[rows]
        ay = alpha * y
        K_ay = K @ ay
        grad = 1.0 - y * K_ay
        b_vec_exact = y * grad
        movable = alpha > 0
        pos = y > 0
        m_up = np.max(np.where(pos | movable, b_vec_exact, -np.inf))
        m_low = np.min(np.where(~pos | movable, b_vec_exact, np.inf))
        dual.state = TrainingState(
            alpha=alpha,
            objective_trace=dual.trace,
            bias_estimates=b_vec_exact,
            dual_objective=float(np.sum(alpha) - 0.5 * ay @ K_ay),
            iterations_used=dual.updates // len(rows) + 1 if converged else dual.max_iter,
            updates=dual.updates,
            converged=converged,
            final_kkt_residual=float(m_up - m_low),
        )

    live = list(duals)  # live[r] is the problem in row r of up and low
    offs = np.arange(0, len(live) * n, n)  # row r of up and low starts at offs[r]
    base = np.asarray([dual.g for dual in live], dtype=np.int64) * n
    while live:
        i = up.argmax(axis=1)
        fi = offs + i
        b_i = up.take(fi)
        # The gap max_t (b_i - low_t) is b_i - min low: subtraction is monotone.
        low_min = low.take(offs + low.argmin(axis=1))
        # Second-order choice of j: the largest one-step objective gain
        # (b_i - b_t)^2 / curv[i, t] among points with b_t < b_i.  Padding
        # gains exactly 0 over its positive curvature, and a row that steps
        # has a point of strictly positive gain, so the argmax sees the
        # problem's points in their order, as alone.
        gain = np.subtract(b_i[:, None], low)
        np.maximum(gain, 0.0, out=gain)
        np.square(gain, out=gain)
        curv = curv_of.take(base + i, axis=0)
        np.divide(gain, curv, out=gain)
        j = gain.argmax(axis=1)
        fj = offs + j
        steps = []
        finished = []
        for r, dual, i_p, j_p, b_ip, b_jp, eta, gap_low in zip(
            range(len(live)),
            live,
            i.tolist(),
            j.tolist(),
            b_i.tolist(),
            low.take(fj).tolist(),
            curv.take(fj).tolist(),
            low_min.tolist(),
        ):
            if dual.updates == dual.cap or b_ip - gap_low <= dual.tol:
                # Finished: no step, and the row leaves the loop.
                finish(dual, converged=dual.updates < dual.cap)
                finished.append(r)
                steps.append(0.0)
                continue
            if b_jp == inf:  # j off the set that may move down
                b_jp = up.item(r, j_p)
            alpha, y_list = dual.alpha, dual.y_list
            violation = b_ip - b_jp
            t = violation / eta
            y_i, y_j = y_list[i_p], y_list[j_p]
            a_i, a_j = alpha[i_p], alpha[j_p]
            if y_i < 0 and a_i < t:
                t = a_i
            if y_j > 0 and a_j < t:
                t = a_j
            a_i += y_i * t
            a_j -= y_j * t
            a_i = 0.0 if 0.0 > a_i else a_i
            a_j = 0.0 if 0.0 > a_j else a_j
            # A point joins or leaves a set when its alpha leaves or
            # returns to 0; its b moves with the update below.
            if (a_i > 0) != (alpha[i_p] > 0):
                flip(r, i_p, y_i, a_i > 0)
            alpha[i_p] = a_i
            if (a_j > 0) != (alpha[j_p] > 0):
                flip(r, j_p, y_j, a_j > 0)
            alpha[j_p] = a_j
            dual.objective += violation * t - 0.5 * eta * t * t
            dual.trace.append(dual.objective)
            dual.updates += 1
            steps.append(t)
        # b -= t (Kt_i - Kt_j), on both sets.
        delta_b = rows_of.take(base + j, axis=0)
        np.subtract(rows_of.take(base + i, axis=0), delta_b, out=delta_b)
        delta_b *= np.asarray(steps)[:, None]
        up -= delta_b
        low -= delta_b
        if finished:
            keep = np.ones(len(live), dtype=bool)
            keep[finished] = False
            live = [dual for dual, kept in zip(live, keep) if kept]
            up, low, base, offs = up[keep], low[keep], base[keep], offs[: len(live)]
    return [dual.state for dual in duals]


def solve_dual(Kt: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> TrainingState:
    """The one-problem case of `solve_duals`."""
    Kt = np.asarray(Kt, dtype=np.float64)
    return solve_duals(Kt[None], [(0, np.arange(Kt.shape[0]), y, tol, max_iter)])[0]


def check_training_data(X: np.ndarray, y: np.ndarray) -> None:
    """Refuse non-finite inputs and labels other than both of +1/-1."""
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("training data contains NaN or Inf")
    classes = set(np.unique(y).tolist())
    if classes != {-1.0, 1.0}:
        raise SingleClassInput(f"need both classes +1/-1, got labels {sorted(classes)}")


def build_model(
    X: np.ndarray,
    y: np.ndarray,
    config: SvmConfig,
    state: TrainingState,
    scaler: ScalerParams | None = None,
    feature_subset: tuple[int, ...] | None = None,
) -> SvmModel:
    """The model of a solved dual: support vectors, their coefficients
    and the bias averaged over them."""
    sv = state.alpha > config.tol
    if not np.any(sv):
        sv = state.alpha > 0  # degenerate, extremely well-separated data
    if not np.any(sv):  # no step taken: tol is at or above the starting gap of 2
        raise NonFiniteInput(f"the solver found no support vector (C={config.C!r}, tol={config.tol!r}); no bias")
    bias = float(np.mean(state.bias_estimates[sv]))
    return SvmModel(
        kernel=config.kernel,
        C=config.C,
        bias=bias,
        dual_coef=(state.alpha * y)[sv],
        support_vectors=X[sv].copy(),
        feature_subset=tuple(feature_subset) if feature_subset is not None else tuple(range(X.shape[1])),
        scaler=scaler,
        training_meta=TrainingMeta(
            n=int(X.shape[0]),
            iterations_used=state.iterations_used,
            final_kkt_residual=state.final_kkt_residual,
            converged=state.converged,
            updates=state.updates,
        ),
    )


def train_arrays(
    X: np.ndarray,
    y: np.ndarray,
    config: SvmConfig,
    scaler: ScalerParams | None = None,
    feature_subset: tuple[int, ...] | None = None,
    return_state: bool = False,
):
    """Train on a prepared matrix with labels in {+1, -1}."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_training_data(X, y)
    Kt = gram_matrix(config.kernel, X, config.C)
    state = solve_dual(Kt, y, config.tol, config.max_iter)
    model = build_model(X, y, config, state, scaler, feature_subset)
    return (model, state) if return_state else model


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.support_vectors.shape[1]:
        raise DimensionMismatch(
            f"input has {X.shape[1]} features, model expects {model.support_vectors.shape[1]}"
        )
    K = kernel_matrix(model.kernel, model.support_vectors, X)
    return model.dual_coef @ K + model.bias


def decision_value(model: SvmModel, x) -> float:
    return float(decision_values(model, np.asarray(x))[0])
