"""t-test filter, ranking, wrapper subset choice."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiag.errors import TrainingError
from netdiag.preprocess import scale_database
from netdiag.selection import (
    DEFAULT_CANDIDATE_SIZES,
    VARIANCE_FLOOR,
    PipelineConfig,
    rank_features,
    stratified_folds,
    t_statistic,
    wrapper_select,
)
from netdiag.svm import KernelSpec, SvmConfig

from test_preprocess import db_from


def oracle_t(a, b):
    na, nb = len(a), len(b)
    ma, mb = sum(a) / na, sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    pooled = max(((na - 1) * va + (nb - 1) * vb) / (na + nb - 2), VARIANCE_FLOOR)
    return (ma - mb) / math.sqrt(pooled * (1 / na + 1 / nb))


def pooled_variance(a, b):
    """The pooled variance `t_statistic` compares with `VARIANCE_FLOOR`."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) / (a.size + b.size - 2)


class TestTStatistic:
    def test_identical_samples_zero(self):
        assert t_statistic([1, 2, 3], [1, 2, 3]) == 0.0

    def test_zero_variance_floor(self):
        t = t_statistic([0, 0, 0, 0], [1, 1, 1, 1])
        assert t < 0
        assert abs(t) == pytest.approx(1.0 / math.sqrt(VARIANCE_FLOOR * 0.5), rel=1e-9)
        assert 1e5 < abs(t) < 1e7

    def test_known_value(self):
        # (2.5 - 4.5) / sqrt(5/3 * 1/2) = -2.1908902300206643
        assert t_statistic([1, 2, 3, 4], [3, 4, 5, 6]) == pytest.approx(-2.1908902300206643, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(TrainingError, match="need >= 2 samples per side"):
            t_statistic([1.0], [1.0, 2.0])

    def test_columns_of_2d_samples(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(9, 4)), rng.normal(size=(7, 4)) + 0.5
        t = t_statistic(a, b)
        assert isinstance(t, np.ndarray) and t.shape == (4,)
        assert isinstance(t_statistic(a[:, 0], b[:, 0]), float)
        assert np.allclose(t, [t_statistic(a[:, j], b[:, j]) for j in range(4)], rtol=1e-12, atol=0)
        with pytest.raises(TrainingError, match="need >= 2 samples per side"):
            t_statistic(a[:1], b)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.floats(-100, 100), min_size=2, max_size=20),
        b=st.lists(st.floats(-100, 100), min_size=2, max_size=20),
        shift=st.floats(-50, 50),
        scale=st.floats(0.01, 50),
    )
    def test_invariances(self, a, b, shift, scale):
        t0 = t_statistic(a, b)
        t_shift = t_statistic([x + shift for x in a], [x + shift for x in b])
        scaled_a, scaled_b = [x * scale for x in a], [x * scale for x in b]
        t_scale = t_statistic(scaled_a, scaled_b)
        t_swap = t_statistic(b, a)
        assert t_shift == pytest.approx(t0, rel=1e-6, abs=1e-6)
        # scale invariance holds where neither variance is floored
        if min(pooled_variance(a, b), pooled_variance(scaled_a, scaled_b)) > VARIANCE_FLOOR:
            assert t_scale == pytest.approx(t0, rel=1e-6, abs=1e-6)
        assert t_swap == pytest.approx(-t0, rel=1e-9, abs=1e-12)

    def test_floored_variance_scales_t(self):
        # both pooled variances are below the floor, so t is the mean
        # difference over a fixed scale and follows any rescaling
        a, b, scale = [0.0, 0.0], [0.0, 7.1e-12], 0.5
        assert pooled_variance(a, b) < VARIANCE_FLOOR
        t0 = t_statistic(a, b)
        assert t0 == pytest.approx(-3.55e-12 / math.sqrt(VARIANCE_FLOOR), rel=1e-12)
        assert t_statistic([x * scale for x in a], [x * scale for x in b]) == pytest.approx(scale * t0, rel=1e-12)


class TestRanking:
    def test_perfect_separator_first(self):
        X = np.array([[1.0, 5.0], [1.0, 5.0], [0.0, 5.0], [0.0, 5.0]])
        db = db_from(X, [1, 1, -1, -1])
        r = rank_features(db, 1, -1)
        assert r.abs_t_order == (0, 1)
        assert r.t_statistic[1] == 0.0

    def test_label_swap_negates(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 5))
        y = np.array([1] * 10 + [-1] * 10)
        r1 = rank_features(db_from(X, y), 1, -1)
        r2 = rank_features(db_from(X, y), -1, 1)
        assert np.allclose(r1.t_statistic, -r2.t_statistic)
        assert r1.abs_t_order == r2.abs_t_order

    def test_matches_per_column_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 10)) * 10
        y = np.array([1] * 22 + [-1] * 18)
        db = db_from(X, y)
        r = rank_features(db, 1, -1)
        ts = [oracle_t(X[y == 1, j].tolist(), X[y == -1, j].tolist()) for j in range(10)]
        assert np.allclose(r.t_statistic, ts, rtol=1e-9)
        order = sorted(range(10), key=lambda j: (-abs(ts[j]), j))
        assert r.abs_t_order == tuple(order)

    def test_missing_class(self):
        db = db_from([[1.0], [2.0], [3.0]], [1, 1, 1])
        with pytest.raises(TrainingError, match="need >= 2 rows per class"):
            rank_features(db, 1, -1)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 8))
        y = np.array([1, -1] * 15)
        r1 = rank_features(db_from(X, y), 1, -1)
        r2 = rank_features(db_from(X, y), 1, -1)
        assert np.array_equal(r1.t_statistic, r2.t_statistic)
        assert r1.abs_t_order == r2.abs_t_order


class TestFolds:
    def test_leave_one_out(self):
        y = np.array([1, 1, 1, -1, -1, -1])
        folds = stratified_folds(y, 6, seed=0)
        assert len(folds) == 6
        assert sorted(int(f[0]) for f in folds) == list(range(6))
        assert all(len(f) == 1 for f in folds)

    def test_stratification(self):
        y = np.array([1] * 20 + [-1] * 10)
        folds = stratified_folds(y, 5, seed=1)
        for f in folds:
            labels = y[f]
            assert np.sum(labels == 1) == 4 and np.sum(labels == -1) == 2

    def test_deterministic(self):
        y = np.array([1, -1] * 10)
        a = stratified_folds(y, 4, seed=9)
        b = stratified_folds(y, 4, seed=9)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))


def make_informative_db(n_per_class=20, m=10, informative=(3, 7), seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(2 * n_per_class, m))
    y = np.array([1] * n_per_class + [-1] * n_per_class)
    for j in informative:
        X[y == 1, j] = 0.8 + 0.02 * rng.normal(size=n_per_class)
        X[y == -1, j] = 0.2 + 0.02 * rng.normal(size=n_per_class)
    return db_from(X, y)


class TestWrapper:
    CFG = SvmConfig(KernelSpec("linear"), C=10.0, max_iter=500, tol=1e-3)

    def test_finds_informative_features(self):
        db, _ = scale_database(make_informative_db())
        ranking = rank_features(db, 1, -1)
        report = wrapper_select(db, ranking, PipelineConfig(self.CFG, (2, 5, 10), cv_folds=5, seed=0))
        assert set(ranking.abs_t_order[:2]) == {3, 7}
        assert set(report.chosen_indices) >= {3, 7}
        assert report.cv_accuracy[report.candidate_sizes.index(report.chosen_q)] == 1.0

    def test_single_candidate_all_features(self):
        db, _ = scale_database(make_informative_db())
        ranking = rank_features(db, 1, -1)
        report = wrapper_select(db, ranking, PipelineConfig(self.CFG, (db.m,), cv_folds=4))
        assert report.chosen_q == db.m
        assert report.chosen_indices == ranking.abs_t_order

    def test_tie_prefers_smaller(self):
        db, _ = scale_database(make_informative_db())
        ranking = rank_features(db, 1, -1)
        report = wrapper_select(db, ranking, PipelineConfig(self.CFG, (2, 4), cv_folds=5))
        accs = dict(zip(report.candidate_sizes, report.cv_accuracy))
        if accs[2] == accs[4]:
            assert report.chosen_q == 2

    def test_chosen_is_prefix_of_ranking(self):
        db, _ = scale_database(make_informative_db(seed=5))
        ranking = rank_features(db, 1, -1)
        report = wrapper_select(db, ranking, PipelineConfig(self.CFG, (3, 6), cv_folds=4))
        assert report.chosen_indices == ranking.abs_t_order[: report.chosen_q]
        assert all(0 <= a <= 1 for a in report.cv_accuracy)

    def test_default_sizes_clip_to_m(self):
        db, _ = scale_database(make_informative_db(m=8))
        ranking = rank_features(db, 1, -1)
        report = wrapper_select(db, ranking, PipelineConfig(self.CFG, DEFAULT_CANDIDATE_SIZES + (db.m,), cv_folds=4))
        assert all(q <= db.m for q in report.candidate_sizes)
