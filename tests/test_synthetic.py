"""Direct synthetic-signature generation."""

import numpy as np
import pytest
from synthetic import ClassArtifactSpec, generate_synthetic_signature, synthetic_database

from netdiag.preprocess import scale_database
from netdiag.rng import derive_seed
from netdiag.selection import rank_features


def spec_pair(m=40, informative=((3, 0.8), (7, 0.9)), jitter=0.02):
    pos = ClassArtifactSpec(m=m, informative=informative, jitter=jitter, label=1)
    neg_inf = tuple((i, t - 0.6) for i, t in informative)
    neg = ClassArtifactSpec(m=m, informative=neg_inf, jitter=jitter, label=-1)
    return pos, neg


class TestGenerator:
    def test_zero_randomness_identical(self):
        spec = ClassArtifactSpec(
            m=10, informative=((2, 0.5),), jitter=0.0, label=1, noise_low=0.3, noise_high=0.3
        )
        a = generate_synthetic_signature(spec, seed=1)
        b = generate_synthetic_signature(spec, seed=2)
        assert np.array_equal(a.values, b.values)

    def test_deterministic_per_seed(self):
        spec = ClassArtifactSpec(m=25, informative=((1, 0.5),), jitter=0.1, label=1)
        a = generate_synthetic_signature(spec, seed=9)
        b = generate_synthetic_signature(spec, seed=9)
        c = generate_synthetic_signature(spec, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_values_clipped(self):
        spec = ClassArtifactSpec(
            m=5, informative=((0, 2e6), (1, -5.0)), jitter=0.0, label=1
        )
        sig = generate_synthetic_signature(spec, seed=0)
        assert sig.values[0] == 1e6 and sig.values[1] == 0.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            ClassArtifactSpec(m=5, informative=((0, 1.0), (0, 2.0)), jitter=0.0, label=1)
        with pytest.raises(ValueError):
            ClassArtifactSpec(m=5, informative=((5, 1.0),), jitter=0.0, label=1)


class TestRankingSeparation:
    def test_informative_outrank_noise(self):
        pos, neg = spec_pair()
        db, _ = scale_database(synthetic_database([pos, neg], n_per_class=100, seed=4))
        ranking = rank_features(db)
        assert set(ranking[:2]) == {3, 7}

    def test_280_dim_top25_coverage(self):
        # 20 informative features land in the top 25 ranks almost surely
        rng_targets = [(i * 13 + 1) % 280 for i in range(20)]
        informative_pos = tuple((i, 0.75) for i in rng_targets)
        informative_neg = tuple((i, 0.25) for i in rng_targets)
        hits = []
        for seed in range(20):
            pos = ClassArtifactSpec(m=280, informative=informative_pos, jitter=0.05, label=1)
            neg = ClassArtifactSpec(m=280, informative=informative_neg, jitter=0.05, label=-1)
            db, _ = scale_database(synthetic_database([pos, neg], n_per_class=100, seed=derive_seed(99, seed)))
            ranking = rank_features(db)
            top25 = set(ranking[:25])
            hits.append(len(top25 & set(rng_targets)))
        assert all(h >= 18 for h in hits), hits


class TestDatabase:
    def test_shapes_and_labels(self):
        pos, neg = spec_pair()
        db = synthetic_database([pos, neg], n_per_class=7, seed=0)
        assert db.n == 14 and db.m == 40
        assert sorted(set(db.y.tolist())) == [-1, 1]
        assert db.catalog_version == "synthetic-m40"

    def test_shifted_spec(self):
        pos, _ = spec_pair()
        moved = pos.shifted({3: 0.1})
        assert dict(moved.informative)[3] == pytest.approx(0.9)
        assert dict(moved.informative)[7] == pytest.approx(0.9)
