"""Synthetic task generator: determinism, geometry, and the confusability
property that motivates overlapping cover pools."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from covertrain import (
    DataError,
    DetectorConfig,
    DetectorError,
    SyntheticSpec,
    WeightedTrainingView,
    acceptance_spec,
    generate,
    train,
)
from covertrain.learner import predict_error, train_batch

from conftest import exhaustive_best


def batched_best_risk(pool, secret, m, cfg):
    """Lowest secret risk over every m-subset of the pool, with all the
    subsets trained in one train_batch call."""
    combos = np.array(list(itertools.combinations(range(len(pool)), m)))
    thetas = train_batch(pool.X[combos], pool.y[combos], cfg)
    margins = secret.y[:, None] * (secret.X @ thetas.T)
    return float(np.logaddexp(0.0, -margins).mean(axis=0).min())


class TestGenerate:
    def test_shapes_roles_and_labels(self):
        spec = acceptance_spec(3)
        secret, cover, test = generate(spec)
        assert len(secret) == 2 * spec.secret_count
        assert len(cover) == 2 * spec.cover_count
        assert len(test) == 2 * spec.secret_test_count
        assert secret.role == "secret_set"
        assert cover.role == "camouflage_pool"
        assert test.role == "test_set"
        for ds in (secret, cover, test):
            assert set(np.unique(ds.y)) == {-1, 1}

    def test_same_seed_identical(self):
        a = generate(acceptance_spec(9))
        b = generate(acceptance_spec(9))
        for da, db in zip(a, b):
            assert np.array_equal(da.X, db.X)
            assert np.array_equal(da.y, db.y)

    def test_train_test_disjoint(self):
        secret, _, test = generate(acceptance_spec(4))
        train_rows = {tuple(r) for r in secret.X}
        assert all(tuple(r) not in train_rows for r in test.X)

    def test_zero_rotation_cover_teaches_secret(self, learner_cfg):
        # aligned, separated cover: the oracle is near-perfect and an m=4
        # cover subset with low secret risk exists (exhaustive search)
        spec = SyntheticSpec(
            dim=2, secret_separation=6.0, secret_std=1.0, secret_count=20,
            secret_test_count=50, cover_separation=6.0, cover_std=1.0,
            cover_count=8, angle=0.0, seed=5,
        )
        secret, cover, test = generate(spec)
        theta = train(WeightedTrainingView(secret, np.ones(len(secret))), learner_cfg)
        assert predict_error(theta, test) <= 0.02
        best_risk, _ = exhaustive_best(cover, secret, 4, learner_cfg)
        assert best_risk <= 0.4  # far below the log(2) no-information level

    def test_degenerate_std_propagates_to_detector(self):
        spec = SyntheticSpec(
            dim=2, cover_separation=0.0, cover_std=0.0, seed=1,
        )
        _, cover, _ = generate(spec)
        assert np.ptp(cover.X) == 0.0  # every point sits at the blob mean
        with pytest.raises(DetectorError, match="degenerate"):
            DetectorConfig.from_pool(cover)

    def test_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(secret_count=1)
        with pytest.raises(DataError):
            SyntheticSpec(cover_std=-1.0)
        with pytest.raises(DataError):
            SyntheticSpec(dim=1, angle=math.pi / 2)

    @pytest.mark.parametrize("field, value", [
        ("secret_count", 2.5),
        ("dim", 2.0),
        ("secret_test_count", "3"),
        ("cover_count", True),
        ("secret_count", 1),
        ("secret_test_count", 0),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(DataError, match=field):
            SyntheticSpec(**{field: value})
        assert getattr(SyntheticSpec(**{field: np.int64(3)}), field) == 3


class TestConfusabilityKnob:
    def test_overlap_never_hurts_best_achievable_risk(self, learner_cfg):
        # quadrupling the cover std (more overlap) should give Alice at
        # least as good an exhaustive optimum on most seeds
        def best_for(std, seed):
            spec = SyntheticSpec(
                dim=2, secret_separation=6.0, secret_std=1.0, secret_count=20,
                secret_test_count=10, cover_separation=2.0, cover_std=std,
                cover_count=8, angle=math.pi / 2, seed=seed,
            )
            secret, cover, _ = generate(spec)
            return batched_best_risk(cover, secret, 4, learner_cfg)

        wins = sum(
            best_for(2.0, seed) <= best_for(0.5, seed) for seed in range(50)
        )
        assert wins >= 40
