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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    SingleClassInput,
)
from .preprocess import ScalerParams, read_artifact, scaler_from_dict, scaler_to_dict, write_artifact

KERNEL_VARIANTS = ("linear", "quadratic", "cubic", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    variant: str
    sigma: float | None = None

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "rbf":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("rbf kernel requires sigma > 0")
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
    catalog_version: str
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


def solve_dual(Kt: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> TrainingState:
    """Maximize sum(a) - 0.5 a' (yy' * Kt) a  s.t.  a >= 0, y'a = 0.

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
    # curv[i, t] = Kt_ii + Kt_tt - 2 Kt_it, the curvature along pair (i, t);
    # inf on the diagonal so the degenerate pair (i, i) never gains.
    curv = np.add.outer(diag, diag)
    curv -= 2.0 * Kt
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
        objective_trace=trace,
        bias_estimates=b_vec_exact,
        dual_objective=float(np.sum(alpha) - 0.5 * ay @ (Kt @ ay)),
        iterations_used=sweeps,
        updates=updates,
        converged=converged,
        final_kkt_residual=float(m_up - m_low),
    )


def train_arrays(
    X: np.ndarray,
    y: np.ndarray,
    config: SvmConfig,
    scaler: ScalerParams | None = None,
    feature_subset: tuple[int, ...] | None = None,
    catalog_version: str = "none",
    return_state: bool = False,
):
    """Train on a prepared matrix with labels in {+1, -1}."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("training data contains NaN or Inf")
    classes = set(np.unique(y).tolist())
    if classes != {-1.0, 1.0}:
        raise SingleClassInput(f"need both classes +1/-1, got labels {sorted(classes)}")

    Kt = gram_matrix(config.kernel, X, config.C)
    state = solve_dual(Kt, y, config.tol, config.max_iter)

    sv = state.alpha > config.tol
    if not np.any(sv):
        sv = state.alpha > 0  # degenerate, extremely well-separated data
    bias = float(np.mean(state.bias_estimates[sv]))
    model = SvmModel(
        kernel=config.kernel,
        C=config.C,
        bias=bias,
        dual_coef=(state.alpha * y)[sv],
        support_vectors=X[sv].copy(),
        feature_subset=tuple(feature_subset) if feature_subset is not None else tuple(range(X.shape[1])),
        scaler=scaler,
        catalog_version=catalog_version,
        training_meta=TrainingMeta(
            n=int(X.shape[0]),
            iterations_used=state.iterations_used,
            final_kkt_residual=state.final_kkt_residual,
            converged=state.converged,
            updates=state.updates,
        ),
    )
    return (model, state) if return_state else model


def train(db, config: SvmConfig, return_state: bool = False):
    """Train from a scaled or optimum two-class database (labels +1/-1)."""
    from .preprocess import Stage  # local import to keep module load light

    if db.stage is Stage.PRELIMINARY:
        raise ValueError("train expects a scaled or optimum database")
    subset = db.selected_features if db.selected_features is not None else tuple(range(db.m))
    return train_arrays(
        db.X,
        db.y,
        config,
        scaler=db.scaler,
        feature_subset=subset,
        catalog_version=db.catalog_version,
        return_state=return_state,
    )


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


def classify(model: SvmModel, x) -> int:
    """+1 iff the decision value is >= 0 (boundary goes to +1)."""
    return 1 if decision_value(model, x) >= 0 else -1


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
        "catalog_version": model.catalog_version,
        "training_meta": {
            "n": model.training_meta.n,
            "iterations_used": model.training_meta.iterations_used,
            "final_kkt_residual": model.training_meta.final_kkt_residual,
            "converged": model.training_meta.converged,
            "updates": model.training_meta.updates,
        },
    }


def model_from_dict(d: dict) -> SvmModel:
    scaler = scaler_from_dict(d["scaler"])
    meta = d["training_meta"]
    dual_coef = np.asarray(d["dual_coef"], dtype=np.float64)
    support_vectors = np.asarray(d["support_vectors"], dtype=np.float64)
    if dual_coef.ndim != 1 or support_vectors.ndim != 2 or len(dual_coef) != len(support_vectors):
        raise ValueError(
            f"dual_coef of shape {dual_coef.shape} does not match support_vectors of shape {support_vectors.shape}"
        )
    # One distinct index per support-vector column, each a column of the
    # raw signature the scaler was fitted on.
    subset = d["feature_subset"]
    q = support_vectors.shape[1]
    limit = scaler.m if scaler is not None else float("inf")
    if len(subset) != q or len(set(subset)) != q or not all(type(i) is int and 0 <= i < limit for i in subset):
        raise ValueError(f"feature_subset {subset} is not {q} distinct integers in [0, {limit})")
    return SvmModel(
        kernel=KernelSpec(d["kernel"]["variant"], d["kernel"].get("sigma")),
        C=float(d["C"]),
        bias=float(d["bias"]),
        dual_coef=dual_coef,
        support_vectors=support_vectors,
        feature_subset=tuple(subset),
        scaler=scaler,
        catalog_version=d["catalog_version"],
        training_meta=TrainingMeta(
            n=int(meta["n"]),
            iterations_used=int(meta["iterations_used"]),
            final_kkt_residual=float(meta["final_kkt_residual"]),
            converged=bool(meta["converged"]),
            updates=int(meta.get("updates", 0)),
        ),
    )


def save_model(model: SvmModel, path) -> None:
    write_artifact(path, model_to_dict(model))


def load_model(path) -> SvmModel:
    return read_artifact(path, "model", model_from_dict)
