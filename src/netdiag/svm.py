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
`solve_duals` runs independent problems in lockstep, one row of a
zero-padded stack per problem: the vector work of a step (the choice of
i and j, the curvature row, the gradient update) is one call across all
rows, and the scalar pair step runs in Python per row.  Each problem
brings its own tolerance and sweep cap, so the CV grids and final fits
of differently configured pipelines share one stack.  A row finished by
convergence or by its update cap takes the next problem at once.
Each problem takes exactly the path it takes alone, bit for bit:
elementwise operations and row-wise argmax see only the row's own
values, padding sits off both sets with an infinite diagonal so it is
never chosen, the gap is taken as b_i - min(low) (equal to the largest
b_i - low_t, since rounded subtraction is monotone), and the loop keeps
b + 0 on each set (not b and a penalty vector), which holds the same
values.  `solve_dual` is the one-problem case.
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
from .preprocess import ScalerParams, parse_indices, parse_integer, parse_numbers, scaler_from_dict, scaler_to_dict

KERNEL_VARIANTS = ("linear", "quadratic", "cubic", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    variant: str
    sigma: float | None = None

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        sigma = self.sigma
        if self.variant == "rbf":
            # A NaN width would make every decision value NaN, read as class -1.
            if isinstance(sigma, bool) or not isinstance(sigma, (int, float)) or not 0 < sigma < math.inf:
                raise ValueError(f"rbf kernel requires a finite sigma > 0, got {sigma!r}")
        elif sigma is not None:
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
        if self.C <= 0 or self.max_iter <= 0 or self.tol <= 0:
            raise ValueError("C, max_iter and tol must be positive")


@dataclass(frozen=True)
class TrainingMeta:
    n: int
    iterations_used: int
    final_kkt_residual: float
    converged: bool
    updates: int = 0  # pair updates; 0 for model files written before it was recorded


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


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch("kernel operands with different feature counts")
    G = A @ B.T
    if spec.variant == "linear":
        return G
    if spec.variant == "quadratic":
        return (G + 1.0) ** 2
    if spec.variant == "cubic":
        return (G + 1.0) ** 3
    sq = np.maximum(
        (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * G, 0.0
    )
    return np.exp(-sq / (2.0 * spec.sigma**2))


def gram_matrix(spec: KernelSpec, X: np.ndarray, C: float) -> np.ndarray:
    """Ridge-shifted training kernel K + I/C."""
    X = np.asarray(X, dtype=np.float64)
    return kernel_matrix(spec, X, X) + np.eye(X.shape[0]) / C


class _Dual:
    """One problem's side of the lockstep loop: the scalar pair-step state."""

    __slots__ = ("slot", "y", "y_list", "alpha", "trace", "objective", "updates", "tol", "max_iter", "cap", "state")

    def __init__(self, slot: int, y: np.ndarray, ys: np.ndarray, tol: float, max_iter: int):
        self.slot = slot
        self.y = y
        self.y_list = ys.tolist()
        self.alpha = [0.0] * len(y)
        self.trace = []
        self.objective = 0.0
        self.updates = 0
        self.tol = tol
        self.max_iter = max_iter
        self.cap = max_iter * len(y)  # one sweep is up to n pair updates
        self.state = None


def solve_duals(problems, n: int, width: int) -> list[TrainingState]:
    """Maximize sum(a) - 0.5 a' (yy' * Kt) a  s.t.  a >= 0, y'a = 0 for
    each (Kt, y, tol, max_iter) of `problems`, up to `width` of them in
    lockstep; one TrainingState per problem, in input order.

    Each Kt is symmetric (the loop reads rows where the gradient update
    needs columns) with at most n rows, y holds labels in {+1, -1}, and
    tol and max_iter are that problem's stopping gap and sweep cap.
    A problem is drawn from `problems` when a slot of the zero-padded
    (width, n, n) stack opens, so a generator of Grams keeps no more than
    the stack alive.
    """
    inf = np.inf
    Kt = np.zeros((width, n, n))
    rows_of = Kt.reshape(width * n, n)  # row i of slot s is rows_of[s * n + i]
    # Row r of the loop holds one problem.  up[r] holds b on the set that
    # may move up and -inf off it, low[r] holds b on the set that may move
    # down and +inf off it, where b_t = y_t * dObjective/dAlpha_t; every
    # point is on one set, and padding is on neither.  diag[r] is the
    # diagonal of Kt, infinite on padding so that padding never gains.
    up = np.empty((width, n))
    low = np.empty((width, n))
    diag = np.empty((width, n))
    duals = []
    source = iter(problems)

    def load(r: int, slot: int) -> _Dual | None:
        """The next problem, set up in row r and slot `slot`; None once
        `problems` is exhausted."""
        problem = next(source, None)
        if problem is None:
            return None
        K, y, tol, max_iter = problem
        y = np.asarray(y, dtype=np.float64)
        m = y.shape[0]
        Kt[slot, :m, :m] = K
        Kt[slot, :m, m:] = 0.0
        Kt[slot, m:] = 0.0
        # The dual sees y only through yy' and y'a = 0, so solving with
        # the labels oriented to y[0] = +1 takes the same path for y and
        # -y.  b starts at the oriented labels since grad = 1.
        ys = y if y[0] > 0 else -y
        up[r], low[r], diag[r] = -inf, inf, inf
        up[r, :m] = np.where(ys > 0, ys, -inf)
        low[r, :m] = np.where(ys < 0, ys, inf)
        diag[r, :m] = Kt[slot].diagonal()[:m]
        dual = _Dual(slot, y, ys, tol, max_iter)
        duals.append(dual)
        return dual

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
        y = dual.y
        m = y.shape[0]
        K = np.ascontiguousarray(Kt[dual.slot, :m, :m])
        alpha = np.asarray(dual.alpha)
        ay = alpha * y
        grad = 1.0 - y * (K @ ay)
        b_vec_exact = y * grad
        movable = alpha > 0
        pos = y > 0
        m_up = np.max(np.where(pos | movable, b_vec_exact, -np.inf))
        m_low = np.min(np.where(~pos | movable, b_vec_exact, np.inf))
        dual.state = TrainingState(
            alpha=alpha,
            objective_trace=dual.trace,
            bias_estimates=b_vec_exact,
            dual_objective=float(np.sum(alpha) - 0.5 * ay @ (K @ ay)),
            iterations_used=dual.updates // m + 1 if converged else dual.max_iter,
            updates=dual.updates,
            converged=converged,
            final_kkt_residual=float(m_up - m_low),
        )

    rows = []
    for slot in range(width):
        dual = load(slot, slot)
        if dual is None:
            break
        rows.append(dual)
    up, low, diag = up[: len(rows)], low[: len(rows)], diag[: len(rows)]
    while rows:
        offs = np.arange(0, len(rows) * n, n)  # row r of up, low and diag starts at offs[r]
        base = np.asarray([dual.slot for dual in rows]) * n
        while True:
            i = up.argmax(axis=1)
            fi = offs + i
            b_i = up.take(fi)
            # The gap max_t (b_i - low_t) is b_i - min low: subtraction is monotone.
            low_min = low.take(offs + low.argmin(axis=1))
            # Second-order choice of j: the largest one-step objective gain
            # (b_i - b_t)^2 / curv[i, t] among points with b_t < b_i, where
            # curv[i, t] = Kt_ii + Kt_tt - 2 Kt_it, and inf for t = i so the
            # degenerate pair (i, i) never gains.
            gain = np.subtract(b_i[:, None], low)
            np.maximum(gain, 0.0, out=gain)
            np.square(gain, out=gain)
            K_i = rows_of.take(base + i, axis=0)
            curv = np.add(diag.take(fi)[:, None], diag)
            curv -= 2.0 * K_i
            curv.put(fi, inf)
            np.divide(gain, curv, out=gain)
            j = gain.argmax(axis=1)
            fj = offs + j
            steps = []
            finished = []
            for r, dual, i_p, j_p, b_ip, b_jp, eta, gap_low in zip(
                range(len(rows)),
                rows,
                i.tolist(),
                j.tolist(),
                b_i.tolist(),
                low.take(fj).tolist(),
                curv.take(fj).tolist(),
                low_min.tolist(),
            ):
                if dual.updates == dual.cap or b_ip - gap_low <= dual.tol:
                    # Finished: no step this time, then the row takes the
                    # next problem or leaves the loop.
                    finish(dual, converged=dual.updates < dual.cap)
                    finished.append(r)
                    steps.append(0.0)
                    rows[r] = load(r, dual.slot)
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
            np.subtract(K_i, delta_b, out=delta_b)
            delta_b *= np.asarray(steps)[:, None]
            if finished:
                delta_b[finished] = 0.0
            up -= delta_b
            low -= delta_b
            if None in rows:
                break
        keep = [dual is not None for dual in rows]
        rows = [dual for dual in rows if dual is not None]
        up, low, diag = up[keep], low[keep], diag[keep]
    return [dual.state for dual in duals]


def solve_dual(Kt: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> TrainingState:
    """The one-problem case of `solve_duals`."""
    Kt = np.asarray(Kt, dtype=np.float64)
    return solve_duals([(Kt, y, tol, max_iter)], Kt.shape[0], 1)[0]


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


def model_to_dict(model: SvmModel) -> dict:
    kernel = {"variant": model.kernel.variant}
    if model.kernel.sigma is not None:
        kernel["sigma"] = model.kernel.sigma
    return {
        "kernel": kernel,
        "C": model.C,
        "bias": model.bias,
        "dual_coef": model.dual_coef.tolist(),
        "support_vectors": model.support_vectors.tolist(),
        "feature_subset": list(model.feature_subset),
        "scaler": scaler_to_dict(model.scaler),
        "training_meta": {
            "n": model.training_meta.n,
            "iterations_used": model.training_meta.iterations_used,
            "final_kkt_residual": model.training_meta.final_kkt_residual,
            "converged": model.training_meta.converged,
            "updates": model.training_meta.updates,
        },
    }


def model_from_dict(d: dict) -> SvmModel:
    """A stored model; keys it does not read, such as the catalog version
    that models once carried, are ignored."""
    scaler = scaler_from_dict(d["scaler"])
    meta = d["training_meta"]
    dual_coef = parse_numbers(d["dual_coef"], "dual_coef")
    support_vectors = parse_numbers(d["support_vectors"], "support_vectors", ndim=2)
    if support_vectors.ndim != 2 or len(dual_coef) != len(support_vectors):
        raise ValueError(
            f"dual_coef of shape {dual_coef.shape} does not match support_vectors of shape {support_vectors.shape}"
        )
    # One distinct index per support-vector column, each a column of the
    # raw signature the scaler was fitted on.
    subset = parse_indices(d["feature_subset"], scaler.m if scaler is not None else None, "feature_subset")
    if len(subset) != support_vectors.shape[1]:
        raise ValueError(f"feature_subset has {len(subset)} indices for {support_vectors.shape[1]} support-vector columns")
    # The writer refuses non-finite numbers, so one here is corruption; it
    # would make decision values NaN, which reads as class -1.
    C, bias = float(d["C"]), float(d["bias"])
    if not (math.isfinite(C) and math.isfinite(bias)):
        raise ValueError("C and bias must be finite")
    return SvmModel(
        kernel=KernelSpec(d["kernel"]["variant"], d["kernel"].get("sigma")),
        C=C,
        bias=bias,
        dual_coef=dual_coef,
        support_vectors=support_vectors,
        feature_subset=subset,
        scaler=scaler,
        training_meta=TrainingMeta(
            n=parse_integer(meta["n"], "training_meta.n", 0),
            iterations_used=parse_integer(meta["iterations_used"], "training_meta.iterations_used", 0),
            final_kkt_residual=float(meta["final_kkt_residual"]),
            converged=bool(meta["converged"]),
            updates=parse_integer(meta.get("updates", 0), "training_meta.updates", 0),
        ),
    )
