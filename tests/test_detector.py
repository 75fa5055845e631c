"""Detector: kernel, calibration constants, MMD estimator, threshold, and
the weighted variant used by the relaxation."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist

import covertrain.detector as detector
from covertrain import (
    CandidateSet,
    DetectorConfig,
    DetectorError,
    PoolKernel,
    augment,
    detect,
    gram,
    label_scale,
    median_heuristic_sigma,
    mmd,
    mmd_threshold,
    psi,
    weighted_mmd,
)
from covertrain import RngState

from conftest import gaussian_task, make_dataset


def config(sigma=1.0, alpha=0.05, c=0.0, K=1.0):
    return DetectorConfig(alpha=alpha, sigma=sigma, label_scale_c=c, kernel_bound=K)


def rbf(z1, z2, sigma):
    """The kernel value of one pair of points, as `gram` computes it."""
    return float(gram(z1, z2, sigma)[0, 0])


class TestRbfKernel:
    def test_identical_points(self):
        z = np.array([1.0, -2.0, 3.0])
        assert rbf(z, z, 2.0) == 1.0

    def test_characteristic_distance(self):
        # squared distance 2 sigma^2 gives exp(-1)
        sigma = 1.5
        z1 = np.zeros(1)
        z2 = np.array([math.sqrt(2.0) * sigma])
        assert rbf(z1, z2, sigma) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_symmetry(self):
        gen = RngState(1).generator
        for _ in range(20):
            z1, z2 = gen.standard_normal(3), gen.standard_normal(3)
            assert rbf(z1, z2, 0.7) == rbf(z2, z1, 0.7)

    def test_gram_properties(self):
        Z = RngState(2).generator.standard_normal((30, 3))
        K = gram(Z, Z, 1.3)
        assert np.array_equal(K, K.T)
        assert np.allclose(np.diag(K), 1.0)
        assert K.min() > 0.0 and K.max() <= 1.0


class TestCalibrationConstants:
    def test_median_collinear_oracle(self):
        # points 0, 1, 3 on a line with c=0: pairwise distances {1, 2, 3}
        ds = make_dataset([[0.0], [1.0], [3.0]], [1, 1, -1])
        assert median_heuristic_sigma(ds, 0.0) == 2.0

    def test_median_two_points(self):
        ds = make_dataset([[0.0], [5.0]], [1, -1])
        assert median_heuristic_sigma(ds, 0.0) == 5.0

    def test_median_includes_duplicate_zeros(self):
        # each point twice: half of all pairwise distances are zero
        ds = make_dataset([[0.0], [0.0], [4.0], [4.0]], [1, 1, -1, -1])
        # distances: 0, 4, 4, 4, 4, 0 -> median 4... sorted {0,0,4,4,4,4}
        assert median_heuristic_sigma(ds, 0.0) == 4.0

    def test_median_degenerate_pool(self):
        ds = make_dataset([[1.0], [1.0], [1.0]], [1, 1, 1])
        with pytest.raises(DetectorError, match="degenerate"):
            median_heuristic_sigma(ds, 0.0)

    def test_median_uses_augmented_points(self):
        # same features, different labels: augmentation separates them
        ds = make_dataset([[0.0], [0.0]], [1, -1])
        assert median_heuristic_sigma(ds, 3.0) == 3.0

    def test_label_scale_single_class_oracle(self):
        ds = make_dataset([[0.0], [3.0]], [1, 1])
        assert label_scale(ds) == 3.0

    def test_label_scale_identical_points(self):
        ds = make_dataset([[2.0], [2.0], [2.0]], [1, 1, 1])
        assert label_scale(ds) == 0.0

    def test_label_scale_max_over_classes(self):
        ds = make_dataset([[0.0], [2.0], [10.0], [15.0]], [1, 1, -1, -1])
        assert label_scale(ds) == 5.0

    def test_label_scale_needs_a_pair(self):
        ds = make_dataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(DetectorError):
            label_scale(ds)

    def test_constant_features_are_a_degenerate_pool(self):
        # both classes at one point: c = 0, so every augmented distance is 0
        ds = make_dataset(np.full((6, 2), 0.5), [1, 1, 1, -1, -1, -1])
        assert label_scale(ds) == 0.0
        with pytest.raises(DetectorError, match="degenerate pool"):
            DetectorConfig.from_pool(ds)

    def test_one_constant_column_calibrates_normally(self):
        pool = gaussian_task(3, 15)
        widened = make_dataset(np.insert(pool.X, 1, 7.0, axis=1), pool.y)
        base, cfg = DetectorConfig.from_pool(pool), DetectorConfig.from_pool(widened)
        # a constant column adds exact zeros to every squared distance
        assert cfg.label_scale_c == pytest.approx(base.label_scale_c, rel=1e-12)
        assert cfg.sigma == pytest.approx(base.sigma, rel=1e-12)
        kernel = PoolKernel(widened, cfg)
        assert kernel.psi_indices(range(10)) == pytest.approx(
            psi(widened, CandidateSet(tuple(range(10))), cfg).psi, abs=1e-12)


class TestMmd:
    def test_identical_samples_zero(self):
        for size in (1, 7, 60):
            Z = RngState(size).generator.standard_normal((size, 3))
            assert mmd(Z, Z, config()) <= 1e-9

    def test_singleton_closed_form(self):
        cfg = config(sigma=0.9)
        gen = RngState(3).generator
        for _ in range(10):
            z1 = gen.standard_normal((1, 2))
            z2 = gen.standard_normal((1, 2))
            k = rbf(z1[0], z2[0], cfg.sigma)
            assert mmd(z1, z2, cfg) == pytest.approx(
                math.sqrt(2.0 - 2.0 * k), rel=1e-12
            )

    def test_swap_symmetry(self):
        gen = RngState(4).generator
        cfg = config(sigma=1.1)
        for _ in range(10):
            Z = gen.standard_normal((12, 2))
            Zp = gen.standard_normal((5, 2))
            assert mmd(Z, Zp, cfg) == pytest.approx(mmd(Zp, Z, cfg), abs=1e-12)

    def test_full_pool_candidate_is_null(self):
        pool = gaussian_task(5, 10)
        cfg = DetectorConfig.from_pool(pool)
        verdict = psi(pool, CandidateSet(tuple(range(len(pool)))), cfg)
        assert verdict.mmd <= 1e-9
        assert not verdict.suspicious


class TestThreshold:
    def test_scalar_oracle(self):
        # n=4, m=2, K=1, alpha=0.05, assembled step by step
        T = mmd_threshold(4, 2, config(alpha=0.05))
        expected = 2.0 * (math.sqrt(0.25) + math.sqrt(0.5)) + math.sqrt(
            (2.0 * 6.0 / 8.0) * math.log(20.0)
        )
        assert T == pytest.approx(expected, abs=1e-12)
        assert T == pytest.approx(4.534024499775529, abs=1e-12)

    def test_alpha_near_one_limit(self):
        T = mmd_threshold(4, 2, config(alpha=1.0 - 1e-12))
        assert T == pytest.approx(2.0 * (0.5 + math.sqrt(0.5)), abs=1e-5)

    def test_decreasing_in_matched_sizes(self):
        values = [mmd_threshold(n, n, config()) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]
        for n, T in zip((10, 100, 1000), values):
            expected = 4.0 / math.sqrt(n) + math.sqrt(4.0 / n * math.log(20.0))
            assert T == pytest.approx(expected, abs=1e-12)

    def test_random_tuples_against_direct_evaluation(self):
        gen = RngState(8).generator
        for _ in range(50):
            n = int(gen.integers(1, 500))
            m = int(gen.integers(1, 500))
            alpha = float(gen.uniform(0.001, 0.999))
            K = float(gen.uniform(0.1, 5.0))
            got = mmd_threshold(n, m, config(alpha=alpha, K=K))
            want = 2.0 * (math.sqrt(K / n) + math.sqrt(K / m)) + math.sqrt(
                2.0 * K * (n + m) / (n * m) * math.log(1.0 / alpha)
            )
            assert got == pytest.approx(want, abs=1e-12)


class TestPsi:
    def test_alpha_monotonicity(self):
        pool = gaussian_task(9, 15)
        cand = CandidateSet(tuple(range(4)))
        base = DetectorConfig.from_pool(pool, alpha=0.05)
        psis = []
        for alpha in (0.2, 0.05, 0.01, 0.001):
            cfg = DetectorConfig(alpha=alpha, sigma=base.sigma,
                                 label_scale_c=base.label_scale_c)
            psis.append(psi(pool, cand, cfg).psi)
        assert all(a > b for a, b in zip(psis, psis[1:]))

    def test_verdict_sign_convention(self):
        v_ok = detect(
            gaussian_task(10, 15),
            gaussian_task(10, 15).subset(range(5), role="test_set"),
            DetectorConfig.from_pool(gaussian_task(10, 15)),
        )
        assert v_ok.suspicious == (v_ok.psi >= 0.0)
        assert v_ok.psi == pytest.approx(v_ok.mmd - v_ok.threshold, abs=1e-15)


class TestWeightedMmd:
    def test_all_ones_is_null(self):
        pool = gaussian_task(11, 10)
        cfg = DetectorConfig.from_pool(pool)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        assert weighted_mmd(Z, np.ones(len(pool)), cfg) <= 1e-9

    def test_binary_reduces_to_subset_mmd(self):
        pool = gaussian_task(12, 12)
        cfg = DetectorConfig.from_pool(pool)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        gen = RngState(13).generator
        for _ in range(20):
            idx = np.sort(gen.choice(len(pool), size=6, replace=False))
            b = np.zeros(len(pool))
            b[idx] = 1.0
            direct = mmd(Z, Z[idx], cfg)
            assert weighted_mmd(Z, b, cfg) == pytest.approx(direct, abs=1e-12)

    def test_two_point_hand_evaluation(self):
        # pool {z0, z1}, b = (1, 0): the three-term sum collapses to
        # sqrt(1 - (1 + k)/2) with k the off-diagonal kernel value
        ds = make_dataset([[0.0], [2.0]], [1, -1])
        cfg = config(sigma=1.0, c=0.0)
        Z = augment(ds.X, ds.y, 0.0)
        k = rbf(Z[0], Z[1], 1.0)
        want = math.sqrt(1.0 - (1.0 + k) / 2.0)
        assert weighted_mmd(Z, np.array([1.0, 0.0]), cfg) == pytest.approx(
            want, rel=1e-12
        )

    def test_rejects_zero_weights(self):
        ds = make_dataset([[0.0], [2.0]], [1, -1])
        cfg = config()
        with pytest.raises(DetectorError):
            weighted_mmd(augment(ds.X, ds.y, 0.0), np.zeros(2), cfg)

    def test_rejects_weights_too_small_to_normalise(self):
        pool = gaussian_task(11, 5)
        cfg = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, cfg)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        b = np.zeros(len(pool))
        b[3] = 1e-170  # its square underflows to 0
        for call in (kernel.weighted, kernel.weighted_grad,
                     lambda b: weighted_mmd(Z, b, cfg)):
            with pytest.raises(DetectorError, match="too small to normalise"):
                call(b)
        # a small sum whose cube is a normal float still scales away
        b[3] = 1e-100
        one = np.zeros(len(pool))
        one[3] = 1.0
        assert kernel.weighted(b) == pytest.approx(kernel.weighted(one), rel=1e-12)

    def test_lipschitz_smoke(self):
        pool = gaussian_task(14, 20)
        cfg = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, cfg)
        gen = RngState(15).generator
        for _ in range(20):
            b = gen.uniform(0.1, 0.9, size=len(pool))
            i = int(gen.integers(len(pool)))
            bp = b.copy()
            bp[i] += 1e-6
            assert abs(kernel.weighted(bp) - kernel.weighted(b)) <= 1e-3

    def test_gradient_matches_central_differences(self):
        pool = gaussian_task(16, 10)
        cfg = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, cfg)
        gen = RngState(17).generator
        b = gen.uniform(0.2, 0.8, size=len(pool))
        grad = kernel.weighted_grad(b)
        h = 1e-5  # each MMD value's rounding (about 2e-15) stays far below h * 1e-5
        for i in range(len(pool)):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            fd = (kernel.weighted(bp) - kernel.weighted(bm)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @settings(deadline=None)
    @given(st.sets(st.integers(0, 19), min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_gradient_matches_finite_differences_at_sparse_b(self, support, seed):
        pool = gaussian_task(16, 10)
        kernel = PoolKernel(pool, DetectorConfig.from_pool(pool))
        b = np.zeros(len(pool))
        idx = sorted(support)
        b[idx] = RngState(seed).generator.uniform(0.2, 0.8, size=len(idx))
        grad = kernel.weighted_grad(b)
        h = 1e-5  # rounding in each MMD value stays far below h * 1e-5
        for i in range(len(pool)):
            step = np.zeros(len(pool))
            step[i] = h
            if b[i] > 0.0:  # central differences
                fd = (kernel.weighted(b + step) - kernel.weighted(b - step)) / (2 * h)
            else:  # b_i = 0 is a bound: second-order one-sided differences
                fd = (-3.0 * kernel.weighted(b) + 4.0 * kernel.weighted(b + step)
                      - kernel.weighted(b + 2.0 * step)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestPoolKernel:
    def test_subset_mmd_matches_standalone(self):
        pool = gaussian_task(18, 25)
        cfg = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, cfg)
        gen = RngState(19).generator
        for _ in range(10):
            idx = tuple(np.sort(gen.choice(len(pool), size=7, replace=False)))
            verdict = psi(pool, CandidateSet(idx), cfg)
            assert kernel.mmd_indices(idx) == pytest.approx(verdict.mmd, abs=1e-12)
            assert kernel.psi_indices(idx) == pytest.approx(verdict.psi, abs=1e-12)

    def test_weighted_matches_standalone(self):
        pool = gaussian_task(20, 15)
        cfg = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, cfg)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        b = RngState(21).generator.uniform(0.0, 1.0, size=len(pool))
        assert kernel.weighted(b) == pytest.approx(weighted_mmd(Z, b, cfg), abs=1e-13)


class TestGramMemoryGuard:
    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        monkeypatch.setattr(detector, "_physical_memory", lambda: 1000)

    def test_raises_before_allocating(self, tiny_memory, monkeypatch):
        def no_cdist(*args, **kwargs):
            raise AssertionError("distance matrix allocated")

        monkeypatch.setattr(detector, "cdist", no_cdist)
        with pytest.raises(DetectorError, match=r"20x12 Gram matrix needs 1920 bytes"):
            gram(np.zeros((20, 2)), np.zeros((12, 2)), 1.0)

    def test_fits_at_the_limit(self, tiny_memory):
        K = gram(np.zeros((5, 2)), np.zeros((25, 2)), 1.0)  # exactly 1000 bytes
        assert np.array_equal(K, np.ones((5, 25)))

    def test_kernel_and_detect_surface_the_error(self, tiny_memory):
        pool = gaussian_task(30, 10)
        cfg = config(sigma=1.0, c=1.0)
        with pytest.raises(DetectorError, match="20x20"):
            PoolKernel(pool, cfg)
        with pytest.raises(DetectorError, match="20x20"):
            detect(pool, pool.subset(range(5)), cfg)


_coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_sigmas = st.floats(0.1, 10.0)


@st.composite
def _pools(draw, max_n=20):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=_coords))
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    cfg = config(sigma=draw(_sigmas), c=draw(st.floats(0.0, 5.0)))
    return make_dataset(X, y), cfg


@st.composite
def _sparse_weights(draw, n):
    """Weights in [-1e-12, 1] on a drawn support of 1 to n indices: one
    anchor in [0.5, 1] keeps the sum positive, the others mix regular
    weights, weights near 1e-300 and the slightly negative weights that
    `_check_weights` allows."""
    support = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    b = np.zeros(n)
    b[support[0]] = draw(st.floats(0.5, 1.0))
    for i in support[1:]:
        b[i] = draw(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.floats(1e-300, 1e-298),
            st.floats(-1e-12, 0.0, exclude_max=True),
        ))
    return b


def _dense_weighted(K, b):
    """Weighted MMD from the dense product K @ b, and the four terms whose
    sum is its radicand's gradient."""
    n = K.shape[0]
    r = K.sum(axis=1)
    s = float(b.sum())
    Kb = K @ b
    P, Q = float(b @ r), float(b @ Kb)
    value = math.sqrt(max(float(r.sum()) / (n * n) - 2 * P / (n * s) + Q / (s * s), 0.0))
    terms = (-2 * r / (n * s), 2 * P / (n * s * s), 2 * Kb / (s * s), -2 * Q / s ** 3)
    return value, terms


class TestProperties:
    @settings(deadline=None)
    @given(_pools())
    def test_kernel_is_exactly_symmetric(self, pool_cfg):
        K = PoolKernel(*pool_cfg).K
        assert np.array_equal(K, K.T)

    @settings(deadline=None)
    @given(st.data(), _pools())
    def test_support_product_matches_dense_formula(self, data, pool_cfg):
        pool, cfg = pool_cfg
        kernel = PoolKernel(pool, cfg)
        K = kernel.K
        b = data.draw(_sparse_weights(len(pool)))
        # blocks of 1 to n rows, so gathered and consecutive blocks both occur
        rows = data.draw(st.integers(1, len(pool)))
        with mock.patch.object(detector, "_GATHER_BYTES", 8 * len(pool) * rows):
            Kb = detector._support_product(K, b)
        # the rounding bound of a length-n dot product, far above n * eps
        assert np.all(np.abs(Kb - K @ b) <= 1e-12 * (K @ np.abs(b)))
        value, terms = _dense_weighted(K, b)
        weighted = kernel.weighted(b)
        assert abs(weighted ** 2 - value ** 2) <= 1e-13
        if value >= 1e-2:  # away from 0, where the square root magnifies
            assert abs(weighted - value) <= 1e-12 * value
            # relative to the largest term the gradient sums
            scale = max(float(np.abs(t).max()) for t in terms) / (2 * value)
            grad = sum(terms) / (2 * value)
            assert np.all(np.abs(kernel.weighted_grad(b) - grad) <= 1e-12 * scale)

    @settings(deadline=None)
    @given(st.data(), st.integers(2, 12), st.booleans(), st.floats(0.0, 5.0))
    def test_median_sigma_equals_numpy_median(self, data, n, duplicates, c):
        # n(n-1)/2 pairs is odd for n = 2, 3, 6, 7, 10, 11 and even otherwise
        coords = st.sampled_from([-1.0, 0.0, 2.5]) if duplicates else _coords
        X = data.draw(arrays(np.float64, (n, 2), elements=coords))
        y = data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
        ds = make_dataset(X, y)
        dists = pdist(augment(ds.X, ds.y, c))
        if dists.max() == 0.0:
            with pytest.raises(DetectorError, match="degenerate pool"):
                median_heuristic_sigma(ds, c)
        else:
            assert median_heuristic_sigma(ds, c) == float(np.median(dists))

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 3), _sigmas)
    def test_gram_equals_textbook_expression(self, data, d, sigma):
        Z1 = data.draw(arrays(np.float64, (data.draw(st.integers(1, 15)), d),
                              elements=_coords))
        Z2 = data.draw(arrays(np.float64, (data.draw(st.integers(1, 15)), d),
                              elements=_coords))
        expected = np.exp(-cdist(Z1, Z2, "sqeuclidean") / (2.0 * sigma * sigma))
        assert np.array_equal(gram(Z1, Z2, sigma), expected)

    @settings(deadline=None)
    @given(st.data(), _pools())
    def test_kernel_weighted_equals_weighted_mmd(self, data, pool_cfg):
        pool, cfg = pool_cfg
        b = data.draw(arrays(np.float64, len(pool), elements=st.floats(0.0, 1.0)))
        b[data.draw(st.integers(0, len(pool) - 1))] = 1.0  # positive sum
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        assert PoolKernel(pool, cfg).weighted(b) == weighted_mmd(Z, b, cfg)

    @settings(deadline=None)
    @given(st.data(), _pools())
    def test_weighted_at_indicator_equals_subset_mmd(self, data, pool_cfg):
        pool, cfg = pool_cfg
        idx = sorted(data.draw(st.sets(st.integers(0, len(pool) - 1), min_size=1)))
        b = np.zeros(len(pool))
        b[idx] = 1.0
        kernel = PoolKernel(pool, cfg)
        weighted, exact = kernel.weighted(b), kernel.mmd_indices(idx)
        # The two radicands agree to rounding; near MMD = 0 (the full pool,
        # say) the square root magnifies that rounding to about 1e-8.
        assert abs(weighted ** 2 - exact ** 2) <= 1e-13
        if exact >= 1e-2:
            assert abs(weighted - exact) <= 1e-12


@st.composite
def _block_pools(draw):
    """Pools of 1 to 12 points for the row-block tests: free coordinates,
    duplicate-heavy ones, and a single class (a constant label column)."""
    n = draw(st.integers(1, 12))
    coords = draw(st.sampled_from([_coords, st.sampled_from([-1.0, 0.0, 2.5])]))
    X = draw(arrays(np.float64, (n, 2), elements=coords))
    labels = draw(st.sampled_from([[-1, 1], [1]]))
    y = draw(arrays(np.int64, n, elements=st.sampled_from(labels)))
    return make_dataset(X, y)


def _textbook_gram(Z1, Z2, sigma):
    return np.exp(-cdist(Z1, Z2, "sqeuclidean") / (2.0 * sigma * sigma))


def _or_error(call, *args):
    """call(*args), or DetectorError when it raises one."""
    try:
        return call(*args)
    except DetectorError:
        return DetectorError


class TestRowBlocks:
    """The n x n passes split into row blocks on worker threads give the
    bits of one-shot scipy and numpy, whatever the worker count."""

    @settings(deadline=None)
    @given(_block_pools(), st.sampled_from([2, 3]), _sigmas, st.floats(0.0, 5.0))
    def test_block_path_equals_one_shot(self, pool, workers, sigma, c):
        Z = augment(pool.X, pool.y, c)
        submits = []
        submit = detector._EXECUTOR.submit

        def counting_submit(*args):
            submits.append(args)
            return submit(*args)

        with mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                mock.patch.object(detector, "_WORKERS", workers), \
                mock.patch.object(detector._EXECUTOR, "submit", counting_submit):
            K = gram(Z, Z, sigma)
            row_sums, pool_term = detector._pool_sums(K)
            dists = detector._pair_distances(Z)
            sigma_blocks = _or_error(median_heuristic_sigma, pool, c)
            c_blocks = _or_error(label_scale, pool)
        if len(pool) >= 2:  # n below the worker count included
            assert submits
        assert np.array_equal(K, _textbook_gram(Z, Z, sigma))
        assert np.array_equal(row_sums, K.sum(axis=1))
        assert pool_term == float(K.sum(axis=1).sum()) / len(pool) ** 2
        one_shot = pdist(Z)
        assert np.array_equal(np.sort(dists), np.sort(one_shot))
        if one_shot.size and one_shot.max() > 0.0:
            assert sigma_blocks == float(np.median(one_shot))
        else:
            assert sigma_blocks is DetectorError
        maxima = [pdist(pool.X[pool.y == sign]).max()
                  for sign in (-1, 1) if np.count_nonzero(pool.y == sign) >= 2]
        assert c_blocks == (float(max(maxima)) if maxima else DetectorError)

    def test_forked_child_runs_blocks(self):
        # The child inherits the executor without its threads. Both of the
        # parent's workers exist when it forks, so only the child's own
        # executor can run the child's blocks.
        Z = RngState(43).generator.standard_normal((9, 2))
        executor = ThreadPoolExecutor(max_workers=2)
        barrier = threading.Barrier(2)
        try:
            with mock.patch.object(detector, "_EXECUTOR", executor), \
                    mock.patch.object(detector, "_WORKERS", 2), \
                    mock.patch.object(detector, "_TASK_ENTRIES", 1):
                waits = [executor.submit(barrier.wait, 30.0) for _ in range(2)]
                for future in waits:
                    future.result(timeout=30.0)
                expected = gram(Z, Z, 1.0)
                pid = os.fork()
                if pid == 0:  # the child reports through its exit status only
                    code = 1
                    try:
                        code = 0 if np.array_equal(gram(Z, Z, 1.0), expected) else 1
                    finally:
                        os._exit(code)
        finally:
            executor.shutdown(wait=False)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's gram did not finish in 20 s")

    def test_more_workers_than_cores_under_fast_switching(self):
        Z = RngState(47).generator.standard_normal((64, 3))
        K_want, d_want = _textbook_gram(Z, Z, 1.3), np.sort(pdist(Z))
        results = []

        def run():
            for _ in range(20):
                K = gram(Z, Z, 1.3)
                results.append(
                    np.array_equal(K, K_want)
                    and np.array_equal(detector._pool_sums(K)[0], K.sum(axis=1))
                    and np.array_equal(np.sort(detector._pair_distances(Z)), d_want))

        interval = sys.getswitchinterval()
        executor = ThreadPoolExecutor(max_workers=8)
        try:
            sys.setswitchinterval(1e-6)
            with mock.patch.object(detector, "_EXECUTOR", executor), \
                    mock.patch.object(detector, "_WORKERS", 8), \
                    mock.patch.object(detector, "_TASK_ENTRIES", 1):
                thread = threading.Thread(target=run)
                thread.start()
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            executor.shutdown(wait=False)
        assert not thread.is_alive()
        assert results == [True] * 20

    def test_rectangular_blocks_and_small_work(self):
        gen = RngState(41).generator
        Z1, Z2 = gen.standard_normal((7, 3)), gen.standard_normal((5, 3))
        with mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                mock.patch.object(detector, "_WORKERS", 3):
            blocks = gram(Z1, Z2, 0.7)
        assert np.array_equal(blocks, _textbook_gram(Z1, Z2, 0.7))
        # below two tasks' worth of entries, no task leaves the calling thread
        no_submit = mock.patch.object(detector._EXECUTOR, "submit",
                                      side_effect=AssertionError)
        with no_submit:
            assert np.array_equal(gram(Z1, Z2, 0.7), blocks)


def _mixture_sample(gen, size):
    """2-D two-blob mixture with labels by blob."""
    half = size // 2
    rest = size - half
    pos = np.array([1.5, 0.0]) + gen.standard_normal((half, 2))
    neg = np.array([-1.5, 0.0]) + gen.standard_normal((rest, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(half, int), -np.ones(rest, int)])
    return X, y


class TestOperatingCharacteristics:
    def test_conservative_under_null(self):
        # fast version of the calibration property (full size in acceptance)
        flags = 0
        trials = 40
        for t in range(trials):
            gen = RngState(1000 + t).generator
            Xp, yp = _mixture_sample(gen, 200)
            Xc, yc = _mixture_sample(gen, 50)
            pool = make_dataset(Xp, yp)
            cfg = DetectorConfig.from_pool(pool)
            Z = augment(Xp, yp, cfg.label_scale_c)
            Zc = augment(Xc, yc, cfg.label_scale_c)
            if mmd(Z, Zc, cfg) - mmd_threshold(200, 50, cfg) >= 0:
                flags += 1
        assert flags / trials <= 0.05

    def test_power_on_separated_samples(self):
        flags = 0
        trials = 40
        for t in range(trials):
            gen = RngState(2000 + t).generator
            Xp = gen.standard_normal((200, 2))
            Xc = np.array([10.0, 0.0]) + gen.standard_normal((200, 2))
            yp = np.where(gen.uniform(size=200) < 0.5, 1, -1)
            yc = np.where(gen.uniform(size=200) < 0.5, 1, -1)
            pool = make_dataset(Xp, yp)
            cfg = DetectorConfig.from_pool(pool)
            Z = augment(Xp, yp, cfg.label_scale_c)
            Zc = augment(Xc, yc, cfg.label_scale_c)
            if mmd(Z, Zc, cfg) - mmd_threshold(200, 200, cfg) >= 0:
                flags += 1
        assert flags / trials >= 0.95
