"""Hybrid feature selection: t-test ranking, then a cross-validated
sweep over subset sizes.

Features are ranked by the absolute two-sample t-statistic between the
positive and negative class, then candidate prefix sizes are scored by
stratified k-fold cross-validation of an SVM trained on the prefix.
Smallest size wins ties.  The chosen indices always form a prefix of the
ranking, and projecting a scaled database through them yields the
optimum-stage database.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IndexOutOfRange, InsufficientRows, MissingClass, StageError, TooFewSamples
from .preprocess import SignatureDatabase, Stage
from .rng import SplitMix64
from .svm import (  # noqa: F401  (train_arrays: perfbench/layers.py wraps selection.train_arrays)
    SvmConfig,
    build_model,
    check_training_data,
    decision_values,
    gram_matrix,
    solve_duals,
    train_arrays,
)

VARIANCE_FLOOR = 1e-12
DEFAULT_CANDIDATE_SIZES = (5, 10, 15, 20, 25, 50, 75, 100)
# Upper bound on the bytes of the stack of CV Grams solved in lockstep.
CV_STACK_BYTES = 1024 * 1024


@dataclass(frozen=True)
class TTestRanking:
    t_statistic: np.ndarray  # per feature, signed
    abs_t_order: tuple[int, ...]  # indices by |t| descending, ties by index


@dataclass(frozen=True)
class SelectionReport:
    candidate_sizes: tuple[int, ...]
    cv_accuracy: tuple[float, ...]
    cv_objective: tuple[float, ...]
    chosen_q: int
    chosen_indices: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "candidate_sizes": list(self.candidate_sizes),
            "cv_accuracy": list(self.cv_accuracy),
            "cv_objective": list(self.cv_objective),
            "chosen_q": self.chosen_q,
            "chosen_indices": list(self.chosen_indices),
        }


def t_statistic(a, b) -> float | np.ndarray:
    """Pooled-variance two-sample t along axis 0, variance floored at
    1e-12: a float for 1-D samples, one t per column for 2-D samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.shape[0], b.shape[0]
    if na < 2 or nb < 2:
        raise TooFewSamples(f"need >= 2 samples per side, got {na} and {nb}")
    pooled = ((na - 1) * a.var(axis=0, ddof=1) + (nb - 1) * b.var(axis=0, ddof=1)) / (na + nb - 2)
    pooled = np.maximum(pooled, VARIANCE_FLOOR)
    t = (a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(pooled * (1.0 / na + 1.0 / nb))
    return float(t) if a.ndim == 1 else t


def rank_features(db: SignatureDatabase, positive_label: int, negative_label: int) -> TTestRanking:
    mask_a = db.y == positive_label
    mask_b = db.y == negative_label
    if mask_a.sum() < 2 or mask_b.sum() < 2:
        raise MissingClass(
            f"need >= 2 rows per class, got {int(mask_a.sum())} positive / {int(mask_b.sum())} negative"
        )
    t = t_statistic(db.X[mask_a], db.X[mask_b])
    order = sorted(range(db.m), key=lambda i: (-abs(t[i]), i))
    return TTestRanking(t_statistic=t, abs_t_order=tuple(order))


def stratified_folds(y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified folds: per-class shuffle, round-robin.

    A running row counter spans classes so k == n degenerates to
    leave-one-out.  Returns a list of index arrays, one per fold.
    """
    if k < 2:
        raise InsufficientRows(f"need k >= 2 folds, got {k}")
    if k > y.shape[0]:
        raise InsufficientRows(f"k={k} folds but only {y.shape[0]} rows")
    rng = SplitMix64(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    counter = 0
    for label in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == label).tolist()
        rng.shuffle(idx)
        for row in idx:
            folds[counter % k].append(row)
            counter += 1
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def _cv_scores(X, y, order, sizes, folds, config: SvmConfig) -> list[tuple[float, float]]:
    """Mean accuracy and mean false-positive rate over the folds of the
    prefix order[:q], for each q in sizes.

    The (size, fold) problems are built in size-major order and solved in
    lockstep by `solve_duals`, as many at a time as CV_STACK_BYTES of
    stacked Grams hold.  Each problem takes the path it takes alone.
    """
    all_rows = np.arange(y.shape[0])
    train_rows = []
    for fold in folds:
        test_mask = np.zeros(y.shape[0], dtype=bool)
        test_mask[fold] = True
        train_rows.append(all_rows[~test_mask])
    grid = [(q, f) for q in sizes for f in range(len(folds))]

    def problems():
        for q, f in grid:
            ytr = y[train_rows[f]]
            if len(set(ytr.tolist())) < 2:
                raise InsufficientRows("a training fold lost one of the classes")
            Xtr = X[:, order[:q]][train_rows[f]]
            ytr = ytr.astype(np.float64)
            check_training_data(Xtr, ytr)
            yield gram_matrix(config.kernel, Xtr, config.C), ytr

    n = max(len(rows) for rows in train_rows)
    width = max(1, min(len(grid), CV_STACK_BYTES // (8 * n * n)))
    states = solve_duals(problems(), n, width, config.tol, config.max_iter)
    accs: dict[int, list[float]] = {q: [] for q in sizes}
    fprs: dict[int, list[float]] = {q: [] for q in sizes}
    for (q, f), state in zip(grid, states):
        Xq, fold = X[:, order[:q]], folds[f]
        model = build_model(Xq[train_rows[f]], y[train_rows[f]].astype(np.float64), config, state)
        pred = np.where(decision_values(model, Xq[fold]) >= 0, 1, -1)
        accs[q].append(float(np.mean(pred == y[fold])))
        negs = y[fold] == -1
        fprs[q].append(float(np.mean(pred[negs] == 1)) if negs.any() else 0.0)
    return [(float(np.mean(accs[q])), float(np.mean(fprs[q]))) for q in sizes]


def wrapper_select(
    db: SignatureDatabase,
    ranking: TTestRanking,
    candidate_sizes,
    folds: int,
    svm_config: SvmConfig,
    seed: int = 0,
    fp_penalty: float = 0.0,
) -> SelectionReport:
    """Score prefix sizes by stratified CV; best objective wins, then
    smaller size.  Objective = accuracy - fp_penalty * fp_rate."""
    sizes = sorted({int(q) for q in candidate_sizes if 1 <= int(q) <= db.m})
    if not sizes:
        raise IndexOutOfRange(f"no candidate sizes within [1, {db.m}]")
    fold_idx = stratified_folds(db.y, folds, seed)
    order = np.asarray(ranking.abs_t_order, dtype=np.int64)
    accuracies, objectives = [], []
    for acc, fpr in _cv_scores(db.X, db.y, order, sizes, fold_idx, svm_config):
        accuracies.append(acc)
        objectives.append(acc - fp_penalty * fpr)
    best = max(range(len(sizes)), key=lambda i: (objectives[i], -sizes[i]))
    chosen_q = sizes[best]
    return SelectionReport(
        candidate_sizes=tuple(sizes),
        cv_accuracy=tuple(accuracies),
        cv_objective=tuple(objectives),
        chosen_q=chosen_q,
        chosen_indices=tuple(int(i) for i in order[:chosen_q]),
    )


def project(db: SignatureDatabase, indices) -> SignatureDatabase:
    """Column-slice a scaled database into the optimum stage."""
    if db.stage is not Stage.SCALED:
        raise StageError(f"projection expects a scaled database, got {db.stage.value}")
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise IndexOutOfRange("duplicate feature indices")
    for i in idx:
        if not 0 <= i < db.m:
            raise IndexOutOfRange(f"feature index {i} outside [0, {db.m})")
    return replace(
        db,
        stage=Stage.OPTIMUM,
        X=db.X[:, idx].copy(),
        feature_names=tuple(db.feature_names[i] for i in idx),
        selected_features=tuple(idx),
    )
