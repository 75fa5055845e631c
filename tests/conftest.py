"""Shared builders for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from covertrain import (
    Dataset,
    DetectorConfig,
    LearnerConfig,
    RngState,
    WeightedTrainingView,
    empirical_risk,
    train,
)


def make_dataset(X, y, role="camouflage_pool"):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int), role=role)


def gaussian_task(seed, n_per_class, dim=2, separation=4.0, std=1.0, axis=0,
                  role="camouflage_pool"):
    """Two labeled Gaussian blobs separated along one coordinate axis."""
    gen = RngState(seed).generator
    center = np.zeros(dim)
    center[axis] = separation / 2.0
    pos = center + std * gen.standard_normal((n_per_class, dim))
    neg = -center + std * gen.standard_normal((n_per_class, dim))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per_class, int), -np.ones(n_per_class, int)])
    return Dataset(X, y, role=role)


def subset_risk(pool, indices, secret, cfg):
    """Independent risk evaluation used by brute-force oracles."""
    sub = pool.subset(list(indices), role="training_set")
    theta = train(WeightedTrainingView(sub, np.ones(len(sub))), cfg)
    return empirical_risk(theta, secret)


def exhaustive_best(pool, secret, m, cfg, kernel=None):
    """Enumerate every m-subset; returns (best_risk, best_indices) over the
    feasible ones (all subsets if kernel is None)."""
    best = (np.inf, None)
    for combo in itertools.combinations(range(len(pool)), m):
        if kernel is not None and not kernel.feasible(combo):
            continue
        risk = subset_risk(pool, combo, secret, cfg)
        if risk < best[0]:
            best = (risk, combo)
    return best


@pytest.fixture
def learner_cfg():
    return LearnerConfig()


@pytest.fixture
def small_pool():
    return gaussian_task(7, 6, dim=2, separation=2.0, std=1.5)


def loose_detector(pool, alpha=0.05):
    """Detector calibrated on the pool; with K=1 and small n, m the
    threshold exceeds sqrt(2) so every subset is feasible."""
    return DetectorConfig.from_pool(pool, alpha=alpha)
