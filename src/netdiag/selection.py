"""Hybrid feature selection: t-test ranking, then a cross-validated
sweep over subset sizes.

`rank_features` returns the ranking: the column indices ordered by the
absolute two-sample t-statistic between the +1 and the -1 rows.  Then
candidate prefix sizes of it are scored by stratified k-fold
cross-validation of an SVM trained on the prefix.  Smallest size wins
ties.  The chosen indices always form a prefix of the ranking, named
only by the `SelectionReport`; the final model is trained on those
columns of the rows, which the caller scaled and keeps the scaler of.
A `PipelineConfig` holds every setting of one such pipeline.

The CV loop is split so that several pipelines share one lockstep
solve: `cv_grid` checks one pipeline's inputs and lays out its dual
problems, and `solve_grids` solves the problems of every grid in one
`solve_duals` stack, then scores each grid's solutions and fits its
final model (`CvGrid.fit`).  A grid's problems are each (size, fold) on
the fold's training rows and each size's final fit on all rows, all of
them sub-blocks of one ridge-shifted Gram per size over all rows.  The
Grams are computed once, into one zero-padded pool of |sizes| * n^2 * 8
bytes per pipeline of n rows; a fold's held-out rows are padding in its
stack row.  A fold's sub-block equals the Gram of its rows alone to
rounding, and bit for bit wherever the BLAS matrix product rounds both
alike (tests/test_svm.py pins where that holds).  Every problem is in
the stack from the start, so the final fits of the sizes not chosen
are solved too.  Each problem takes the path it takes alone, so a
pipeline's result does not depend on the grids beside it.
`wrapper_select` is `cv_grid` and `solve_grids` of one grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError
from .preprocess import SignatureDatabase
from .rng import SplitMix64
from .svm import (  # noqa: F401  (train_arrays: perfbench/layers.py wraps selection.train_arrays)
    SvmConfig,
    SvmModel,
    build_model,
    check_training_data,
    decision_values,
    gram_matrix,
    solve_duals,
    train_arrays,
)

VARIANCE_FLOOR = 1e-12
DEFAULT_CANDIDATE_SIZES = (5, 10, 15, 20, 25, 50, 75, 100)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to turn a database of raw rows into a model."""

    svm: SvmConfig
    candidate_sizes: tuple[int, ...]
    cv_folds: int = 5
    seed: int = 0
    fp_penalty: float = 0.0


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
        raise TrainingError(f"need >= 2 samples per side, got {na} and {nb}")
    pooled = ((na - 1) * a.var(axis=0, ddof=1) + (nb - 1) * b.var(axis=0, ddof=1)) / (na + nb - 2)
    pooled = np.maximum(pooled, VARIANCE_FLOOR)
    t = (a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(pooled * (1.0 / na + 1.0 / nb))
    return float(t) if a.ndim == 1 else t


def rank_features(db: SignatureDatabase) -> tuple[int, ...]:
    """The column indices of db by |t| between its +1 and -1 rows,
    largest first, ties by index."""
    mask_a, mask_b = db.y == 1, db.y == -1
    if mask_a.sum() < 2 or mask_b.sum() < 2:
        raise TrainingError(
            f"need >= 2 rows per class, got {int(mask_a.sum())} positive / {int(mask_b.sum())} negative"
        )
    t = t_statistic(db.X[mask_a], db.X[mask_b])
    return tuple(sorted(range(db.m), key=lambda i: (-abs(t[i]), i)))


def stratified_folds(y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified folds: per-class shuffle, round-robin.

    A running row counter spans classes so k == n degenerates to
    leave-one-out.  Returns a list of index arrays, one per fold.
    """
    if k < 2:
        raise TrainingError(f"need k >= 2 folds, got {k}")
    if k > y.shape[0]:
        raise TrainingError(f"k={k} folds but only {y.shape[0]} rows")
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
    """The size x fold CV problems of one wrapper run and the final fit of
    each size, checked and ready to solve, and what scoring their
    solutions and fitting the final model take."""

    db: SignatureDatabase  # scaled, labels in {+1, -1}
    order: np.ndarray  # the ranking's feature indices
    sizes: tuple[int, ...]
    folds: tuple[np.ndarray, ...]  # test rows per fold
    train_rows: tuple[np.ndarray, ...]  # training rows per fold, ascending
    config: PipelineConfig

    def __len__(self) -> int:
        """The number of problems: one per (size, fold), one per size."""
        return len(self.sizes) * (len(self.folds) + 1)

    def columns(self, q: int) -> np.ndarray:
        """The q best-ranked columns of the scaled rows, copied in C order:
        the Gram's matrix product and row sums round by memory layout."""
        return self.db.X[:, self.order[:q]].copy()

    def problems(self, first: int):
        """The (g, rows, y, tol, max_iter) problems of `solve_duals`, where
        the Gram of the k-th size sits at g = first + k: each (size, fold)
        in size-major order on the fold's training rows, then each size on
        all rows.  A fold's Gram is a sub-block of its size's Gram."""
        y, svm = self.db.y.astype(np.float64), self.config.svm
        gs = range(first, first + len(self.sizes))
        for g in gs:
            for rows in self.train_rows:
                yield g, rows, y[rows], svm.tol, svm.max_iter
        for g in gs:
            yield g, np.arange(self.db.n), y, svm.tol, svm.max_iter

    def fit(self, states) -> tuple[SvmModel, SelectionReport]:
        """Choose the subset size from the solved problems, one
        TrainingState each in the order of `problems`, and fit the final
        model of that size on its columns, which the report names.  A
        size scores its mean accuracy minus fp_penalty times its mean
        false-positive rate over the folds; the best score wins, then the
        smaller size."""
        states = list(states)
        y, svm = self.db.y, self.config.svm
        cv_states = iter(states)
        accuracies, fp_rates = [], []
        for q in self.sizes:
            Xq = self.columns(q)
            accs, fprs = [], []
            for fold, rows in zip(self.folds, self.train_rows):
                model = build_model(Xq[rows], y[rows].astype(np.float64), svm, next(cv_states))
                pred = np.where(decision_values(model, Xq[fold]) >= 0, 1, -1)
                accs.append(float(np.mean(pred == y[fold])))
                negs = y[fold] == -1
                fprs.append(float(np.mean(pred[negs] == 1)) if negs.any() else 0.0)
            accuracies.append(float(np.mean(accs)))
            fp_rates.append(float(np.mean(fprs)))
        objectives = tuple(a - self.config.fp_penalty * f for a, f in zip(accuracies, fp_rates))
        best = max(range(len(self.sizes)), key=lambda i: (objectives[i], -self.sizes[i]))
        report = SelectionReport(
            candidate_sizes=self.sizes,
            cv_accuracy=tuple(accuracies),
            cv_objective=objectives,
            chosen_indices=tuple(int(i) for i in self.order[: self.sizes[best]]),
        )
        final = states[len(self.sizes) * len(self.folds) + best]
        return build_model(self.columns(self.sizes[best]), y.astype(np.float64), svm, final), report


def solve_grids(grids) -> list[tuple[SvmModel, SelectionReport]]:
    """Solve every problem of the grids in one `solve_duals` stack over one
    pool holding each grid's Gram of each size once, then choose each
    grid's subset size and fit its final model; one (SvmModel,
    SelectionReport) per grid, in input order."""
    n = max(grid.db.n for grid in grids)
    pool = np.zeros((sum(len(grid.sizes) for grid in grids), n, n))
    problems, first = [], 0
    for grid in grids:
        n_g, svm = grid.db.n, grid.config.svm
        for g, q in enumerate(grid.sizes, first):
            gram_matrix(svm.kernel, grid.columns(q), svm.C, out=pool[g, :n_g, :n_g])
        problems.extend(grid.problems(first))
        first += len(grid.sizes)
    states = iter(solve_duals(pool, problems))
    return [grid.fit(itertools.islice(states, len(grid))) for grid in grids]


def cv_grid(db: SignatureDatabase, ranking: tuple[int, ...], config: PipelineConfig) -> CvGrid:
    """The CV problems that score each candidate prefix size of the
    ranking over stratified folds of db, whose rows are scaled.
    Every input error is raised here, before any problem is solved."""
    sizes = tuple(sorted({int(q) for q in config.candidate_sizes if 1 <= int(q) <= db.m}))
    if not sizes:
        raise TrainingError(f"no candidate sizes within [1, {db.m}]")
    fold_idx = stratified_folds(db.y, config.cv_folds, config.seed)
    # each fold's training rows: the rows it does not name, ascending
    train_rows = [np.flatnonzero(np.bincount(fold, minlength=db.n) == 0) for fold in fold_idx]
    if any(len(set(db.y[rows].tolist())) < 2 for rows in train_rows):
        raise TrainingError("a training fold lost one of the classes")
    order = np.asarray(ranking, dtype=np.int64)
    check_training_data(db.X[:, order[: sizes[-1]]], db.y.astype(np.float64))
    return CvGrid(
        db=db,
        order=order,
        sizes=sizes,
        folds=tuple(fold_idx),
        train_rows=tuple(train_rows),
        config=config,
    )


def wrapper_select(db: SignatureDatabase, ranking: tuple[int, ...], config: PipelineConfig) -> SelectionReport:
    """Score prefix sizes by stratified CV; best objective wins, then
    smaller size.  Objective = accuracy - fp_penalty * fp_rate."""
    return solve_grids([cv_grid(db, ranking, config)])[0][1]
