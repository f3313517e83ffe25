"""Hybrid feature selection: t-test ranking, then a cross-validated
sweep over subset sizes.

Features are ranked by the absolute two-sample t-statistic between the
positive and negative class, then candidate prefix sizes are scored by
stratified k-fold cross-validation of an SVM trained on the prefix.
Smallest size wins ties.  The chosen indices always form a prefix of the
ranking; the final model is trained on those columns of the scaled rows
and keeps them as its feature subset.

The CV loop is split in two so that several pipelines can share one
lockstep solve: `cv_grid` checks the inputs and builds the size x fold
dual problems, and `CvGrid.report` scores their solutions.
`wrapper_select` is the two composed around one `solve_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InsufficientRows, MissingClass, TooFewSamples
from .preprocess import ScalerParams, SignatureDatabase
from .rng import SplitMix64
from .svm import (  # noqa: F401  (train_arrays: perfbench/layers.py wraps selection.train_arrays)
    SvmConfig,
    TrainingState,
    build_model,
    check_training_data,
    decision_values,
    gram_matrix,
    solve_duals,
    train_arrays,
)

VARIANCE_FLOOR = 1e-12
DEFAULT_CANDIDATE_SIZES = (5, 10, 15, 20, 25, 50, 75, 100)
# Upper bound on the bytes of a stack of Grams solved in lockstep.
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
    chosen_indices: tuple[int, ...]  # a prefix of the ranking

    @property
    def chosen_q(self) -> int:
        return len(self.chosen_indices)


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


@dataclass(frozen=True)
class CvGrid:
    """The size x fold CV problems of one wrapper run, checked and ready
    to solve, and what scoring their solutions and fitting the final
    model take."""

    db: SignatureDatabase  # scaled, labels in {+1, -1}
    order: np.ndarray  # the ranking's feature indices
    sizes: tuple[int, ...]
    folds: tuple[np.ndarray, ...]  # test rows per fold
    train_rows: tuple[np.ndarray, ...]  # training rows per fold
    svm: SvmConfig
    fp_penalty: float
    scaler: ScalerParams | None  # the one that scaled db's rows

    def __len__(self) -> int:
        return len(self.sizes) * len(self.folds)

    @property
    def n(self) -> int:
        """Rows of the largest problem."""
        return max(len(rows) for rows in self.train_rows)

    def _cells(self):
        return ((q, f) for q in self.sizes for f in range(len(self.folds)))

    def problems(self):
        """The (Kt, y, tol, max_iter) dual problems in size-major order,
        each Gram built when it is drawn."""
        X, y, config = self.db.X, self.db.y, self.svm
        for q, f in self._cells():
            rows = self.train_rows[f]
            Kt = gram_matrix(config.kernel, X[:, self.order[:q]][rows], config.C)
            yield Kt, y[rows].astype(np.float64), config.tol, config.max_iter

    def report(self, states) -> SelectionReport:
        """Score the solved problems, one TrainingState each in the order
        of `problems`: mean accuracy and false-positive rate over the folds
        per size; the best objective wins, then the smaller size."""
        X, y = self.db.X, self.db.y
        accs: dict[int, list[float]] = {q: [] for q in self.sizes}
        fprs: dict[int, list[float]] = {q: [] for q in self.sizes}
        for (q, f), state in zip(self._cells(), states):
            Xq, fold, rows = X[:, self.order[:q]], self.folds[f], self.train_rows[f]
            model = build_model(Xq[rows], y[rows].astype(np.float64), self.svm, state)
            pred = np.where(decision_values(model, Xq[fold]) >= 0, 1, -1)
            accs[q].append(float(np.mean(pred == y[fold])))
            negs = y[fold] == -1
            fprs[q].append(float(np.mean(pred[negs] == 1)) if negs.any() else 0.0)
        accuracies = tuple(float(np.mean(accs[q])) for q in self.sizes)
        objectives = tuple(a - self.fp_penalty * float(np.mean(fprs[q])) for a, q in zip(accuracies, self.sizes))
        best = max(range(len(self.sizes)), key=lambda i: (objectives[i], -self.sizes[i]))
        return SelectionReport(
            candidate_sizes=self.sizes,
            cv_accuracy=accuracies,
            cv_objective=objectives,
            chosen_indices=tuple(int(i) for i in self.order[: self.sizes[best]]),
        )


def cv_grid(
    db: SignatureDatabase,
    ranking: TTestRanking,
    candidate_sizes,
    folds: int,
    svm_config: SvmConfig,
    seed: int = 0,
    fp_penalty: float = 0.0,
    scaler: ScalerParams | None = None,
) -> CvGrid:
    """The CV problems that score each prefix size of the ranking over
    stratified folds of db, whose rows `scaler` scaled.  Every input error
    is raised here, before any problem is solved."""
    sizes = tuple(sorted({int(q) for q in candidate_sizes if 1 <= int(q) <= db.m}))
    if not sizes:
        raise IndexOutOfRange(f"no candidate sizes within [1, {db.m}]")
    fold_idx = stratified_folds(db.y, folds, seed)
    train_rows = [np.setdiff1d(np.arange(db.n), fold) for fold in fold_idx]
    if any(len(set(db.y[rows].tolist())) < 2 for rows in train_rows):
        raise InsufficientRows("a training fold lost one of the classes")
    order = np.asarray(ranking.abs_t_order, dtype=np.int64)
    check_training_data(db.X[:, order[: sizes[-1]]], db.y.astype(np.float64))
    return CvGrid(
        db=db,
        order=order,
        sizes=sizes,
        folds=tuple(fold_idx),
        train_rows=tuple(train_rows),
        svm=svm_config,
        fp_penalty=fp_penalty,
        scaler=scaler,
    )


def solve_stack(problems, count: int, n: int) -> list[TrainingState]:
    """Solve `count` dual problems of at most n rows in lockstep, as many
    at a time as CV_STACK_BYTES of stacked Grams hold; each problem takes
    the path it takes alone."""
    return solve_duals(problems, n, max(1, min(count, CV_STACK_BYTES // (8 * n * n))))


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
    grid = cv_grid(db, ranking, candidate_sizes, folds, svm_config, seed, fp_penalty)
    return grid.report(solve_stack(grid.problems(), len(grid), grid.n))
