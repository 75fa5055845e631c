"""Detector: kernel, calibration constants, MMD estimator, threshold, and
the weighted variant used by the relaxation."""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import assume, given, settings
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
    mmd,
    mmd_threshold,
    psi,
    weighted_mmd,
)
from covertrain import RngState

from conftest import gaussian_task, make_dataset


def config(sigma=1.0, alpha=0.05, c=0.0, K=1.0):
    return DetectorConfig(alpha=alpha, sigma=sigma, label_scale_c=c, kernel_bound=K)


def dense_kernels():
    """PoolKernels built under this patch store their Gram matrix."""
    return mock.patch.object(detector, "_GRAM_CAP_BYTES", math.inf)


def gram_free_kernels():
    """PoolKernels built under this patch compute every kernel block."""
    return mock.patch.object(detector, "_GRAM_CAP_BYTES", 0)


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

    # A NaN sigma gave an all-NaN matrix and an infinite one a matrix of ones.
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_gram_rejects_bad_sigma(self, sigma):
        Z = RngState(3).generator.standard_normal((4, 2))
        with pytest.raises(DetectorError, match="sigma must be positive and finite"):
            gram(Z, Z, sigma)


def calibration(pool):
    """(c, sigma) of DetectorConfig.from_pool(pool)."""
    cfg = DetectorConfig.from_pool(pool)
    return cfg.label_scale_c, cfg.sigma


class TestCalibrationConstants:
    """(c, sigma) from `from_pool` against hand-computed values: c is the
    largest same-class distance, sigma the median distance between the
    augmented points [x, c * 1{y = +1}]."""

    def test_median_collinear_oracle(self):
        # points 0, 1, 3 with c = 1 (the +1 pair): augmented points (0, 1),
        # (1, 1), (3, 0) at squared distances {1, 10, 5}; odd count
        ds = make_dataset([[0.0], [1.0], [3.0]], [1, 1, -1])
        assert calibration(ds) == (1.0, math.sqrt(5.0))

    def test_median_two_points(self):
        # one pair: c and sigma are both its distance
        ds = make_dataset([[0.0], [5.0]], [1, 1])
        assert calibration(ds) == (5.0, 5.0)

    def test_median_includes_duplicate_zeros(self):
        # each point twice, one class each, so c = 0: distances
        # {0, 0, 4, 4, 4, 4}, an even count whose central pair is 4 and 4
        ds = make_dataset([[0.0], [0.0], [4.0], [4.0]], [1, 1, -1, -1])
        assert calibration(ds) == (0.0, 4.0)

    def test_median_of_an_even_count_averages_the_central_pair(self):
        # c = 0 and distances {0, 0, 0, 3, 3, 3}: the mean of 0 and 3
        ds = make_dataset([[2.0], [2.0], [2.0], [5.0]], [1, 1, 1, -1])
        assert calibration(ds) == (0.0, 1.5)

    def test_median_degenerate_pool(self):
        ds = make_dataset([[1.0], [1.0], [1.0]], [1, 1, 1])
        with pytest.raises(DetectorError, match=r"degenerate pool \(n=3\)"):
            DetectorConfig.from_pool(ds)

    def test_zero_median_is_a_degenerate_pool(self):
        # six copies of one point in class +1 and two of another in class -1:
        # c = 0, and 16 of the 28 distances are zero, so the median is zero
        # although the 12 cross-class distances are not
        ds = make_dataset([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 2, [1] * 6 + [-1] * 2)
        dists = pdist(augment(ds.X, ds.y, 0.0))
        assert np.median(dists) == 0.0 and dists.max() > 0.0
        with pytest.raises(DetectorError, match=r"degenerate pool \(n=8\)"):
            DetectorConfig.from_pool(ds)

    def test_median_uses_augmented_points(self):
        # c = 4; the label coordinate moves the median from 2 (the features'
        # distances {4, 0, 0, 0, 4, 4}) to 4 (squares {16, 0, 16, 16, 32, 32})
        ds = make_dataset([[0.0], [4.0], [0.0], [0.0]], [1, 1, -1, -1])
        assert np.median(pdist(ds.X)) == 2.0
        assert calibration(ds) == (4.0, 4.0)

    def test_label_scale_single_class_oracle(self):
        # distances {3, 1, 2}
        ds = make_dataset([[0.0], [3.0], [1.0]], [1, 1, 1])
        assert calibration(ds) == (3.0, 2.0)

    def test_label_scale_identical_points(self):
        # the class with two members has them at one point: c = 0
        ds = make_dataset([[2.0], [2.0], [5.0]], [1, 1, -1])
        assert calibration(ds) == (0.0, 3.0)

    def test_label_scale_max_over_classes(self):
        # class distances 2 and 5, so c = 5; squared distances
        # {4, 25, 125, 250, 89, 194}, whose central pair is 89 and 125
        ds = make_dataset([[0.0], [2.0], [10.0], [15.0]], [1, 1, -1, -1])
        c, sigma = calibration(ds)
        assert c == 5.0
        assert sigma == float(np.mean([math.sqrt(89.0), math.sqrt(125.0)]))
        assert sigma == float(np.median(pdist(augment(ds.X, ds.y, 5.0))))

    def test_label_scale_needs_a_pair(self):
        ds = make_dataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(DetectorError, match="no class has two members"):
            DetectorConfig.from_pool(ds)

    def test_constant_features_are_a_degenerate_pool(self):
        # both classes at one point: c = 0, so every augmented distance is 0
        ds = make_dataset(np.full((6, 2), 0.5), [1, 1, 1, -1, -1, -1])
        assert not pdist(augment(ds.X, ds.y, 0.0)).any()
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


class TestDetectorConfig:
    # Each of these would let any sample pass: a NaN psi is never >= 0, an
    # infinite sigma makes every MMD 0 and an infinite bound the threshold.
    @pytest.mark.parametrize("field, value", [
        ("sigma", math.inf), ("sigma", math.nan),
        ("label_scale_c", math.inf), ("label_scale_c", math.nan),
        ("kernel_bound", math.inf), ("kernel_bound", math.nan),
    ])
    def test_rejects_non_finite_settings(self, field, value):
        settings = dict(alpha=0.05, sigma=1.0, label_scale_c=0.0, kernel_bound=1.0)
        settings[field] = value
        with pytest.raises(DetectorError, match="finite"):
            DetectorConfig(**settings)


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

    def test_rejects_nan_weights(self):
        pool = gaussian_task(11, 5)
        cfg = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, cfg)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        b = np.full(len(pool), 0.5)
        b[2] = math.nan
        for call in (kernel.weighted, kernel.weighted_grad,
                     lambda b: weighted_mmd(Z, b, cfg)):
            with pytest.raises(DetectorError, match=r"weights must lie in \[0, 1\]"):
                call(b)

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

        # the detector imports cdist from scipy on each call
        monkeypatch.setattr(scipy.spatial.distance, "cdist", no_cdist)
        with pytest.raises(DetectorError, match=r"20x12 Gram matrix needs 1920 bytes"):
            gram(np.zeros((20, 2)), np.zeros((12, 2)), 1.0)

    def test_fits_at_the_limit(self, tiny_memory):
        K = gram(np.zeros((5, 2)), np.zeros((25, 2)), 1.0)  # exactly 1000 bytes
        assert np.array_equal(K, np.ones((5, 25)))

    def test_kernel_and_detect_surface_the_error(self, monkeypatch):
        pool = gaussian_task(30, 10)
        cfg = config(sigma=1.0, c=1.0)
        sample = pool.subset(range(5))
        unlimited = detect(pool, sample, cfg)
        monkeypatch.setattr(detector, "_physical_memory", lambda: 1000)
        # a kernel that stores its Gram matrix builds it through gram
        with dense_kernels(), pytest.raises(DetectorError, match="20x20"):
            PoolKernel(pool, cfg)
        # detect sums its kernel values in chunks and allocates no n x n matrix
        assert detect(pool, sample, cfg) == unlimited


def test_import_leaves_scipy_spatial_unloaded():
    # the detector imports its distance functions on first use
    code = "import sys, covertrain; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(detector.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestPeakMemory:
    def test_calibration_buffer_and_chunked_detect(self):
        pool = gaussian_task(61, 500)  # n = 1000
        n = len(pool)
        cfg = DetectorConfig.from_pool(pool)
        sample = pool.subset(range(0, n, 20))
        tracemalloc.start()
        try:
            DetectorConfig.from_pool(pool)
            calibrate = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            detect(pool, sample, cfg)
            verify = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one buffer of the n(n-1)/2 squared distances, and a few small arrays
        assert 8 * n * (n - 1) // 2 <= calibrate <= 8 * n * (n - 1) // 2 + (1 << 16)
        # chunks of about 1 MB a worker, where one n x n matrix is 8 MB
        assert verify < 8 * n * n // 2

    def test_gram_free_kernel(self):
        pool = gaussian_task(62, 1500)  # n = 3000
        n = len(pool)
        cfg = DetectorConfig.from_pool(pool)
        gen = RngState(63).generator
        idx = np.sort(gen.choice(n, size=50, replace=False))
        b = np.zeros(n)
        b[gen.choice(n, size=100, replace=False)] = gen.uniform(0.2, 0.8, size=100)
        tracemalloc.start()
        try:
            kernel = PoolKernel(pool, cfg)
            kernel.feasible(idx)
            kernel.weighted(b)
            grad = kernel.weighted_grad(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel._K is None and np.any(grad != 0.0)
        # one Gram matrix at this size is 72 MB
        assert peak < 8 << 20


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


@st.composite
def _calibration_pools(draw):
    """Pools of 2 to 40 points: balanced or imbalanced classes, one class
    with a single member or none, free coordinates or a few repeated ones
    (duplicate points, with equal or opposite labels)."""
    n = draw(st.integers(2, 40))
    positives = draw(st.one_of(st.integers(0, n), st.sampled_from([0, 1, n - 1, n])))
    coords = draw(st.sampled_from([_coords, st.sampled_from([-1.0, 0.0, 2.5])]))
    X = draw(arrays(np.float64, (n, draw(st.integers(1, 3))), elements=coords))
    y = np.where(np.arange(n) < positives, 1, -1)
    return make_dataset(X, draw(st.permutations(y)))


def _textbook_calibration(pool):
    """(c, sigma) from max(pdist(class)) and np.median(pdist(augment(...))),
    or the start of the message of the DetectorError that from_pool must
    raise: a zero median, all distances zero included, is a degenerate
    pool."""
    maxima = [pdist(pool.X[pool.y == sign]).max()
              for sign in (-1, 1) if np.count_nonzero(pool.y == sign) >= 2]
    if not maxima:
        return "no class has two members"
    c = float(max(maxima))
    sigma = float(np.median(pdist(augment(pool.X, pool.y, c))))
    return (c, sigma) if sigma > 0.0 else f"degenerate pool (n={len(pool)})"


def _calibration_or_message(pool):
    """(c, sigma) of DetectorConfig.from_pool(pool), or the message of the
    DetectorError it raises."""
    try:
        return calibration(pool)
    except DetectorError as exc:
        return str(exc)


def _assert_textbook_calibration(got, pool):
    """`got`, from _calibration_or_message, is the textbook outcome."""
    want = _textbook_calibration(pool)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want), (got, want)
    else:
        assert got == want


class TestProperties:
    @settings(deadline=None)
    @given(_pools())
    def test_kernel_is_exactly_symmetric(self, pool_cfg):
        with dense_kernels():
            K = PoolKernel(*pool_cfg)._K
        assert np.array_equal(K, K.T)

    @settings(deadline=None)
    @given(st.data(), _pools())
    def test_support_product_matches_dense_formula(self, data, pool_cfg):
        pool, cfg = pool_cfg
        n = len(pool)
        K = _textbook_gram(*(2 * [augment(pool.X, pool.y, cfg.label_scale_c)]),
                           cfg.sigma)
        b = data.draw(_sparse_weights(n))
        support = np.flatnonzero(b)
        # chunks of 1 to n rows, so one block or several may cover the support
        rows = data.draw(st.integers(1, n))
        with data.draw(st.sampled_from([dense_kernels, gram_free_kernels]))():
            kernel = PoolKernel(pool, cfg)
        with mock.patch.object(detector, "_CHUNK_BYTES", 8 * n * rows):
            assert np.array_equal(kernel._block(support, support),
                                  K[np.ix_(support, support)])
            assert np.array_equal(kernel._block(support), K[support])
            Kb = detector._support_rows(b, support, kernel._block)
            weighted = kernel.weighted(b)
            grad = kernel.weighted_grad(b)
        # the rounding bound of a length-n dot product, far above n * eps
        assert np.all(np.abs(Kb - K @ b) <= 1e-12 * (K @ np.abs(b)))
        value, terms = _dense_weighted(K, b)
        assert abs(weighted ** 2 - value ** 2) <= 1e-13
        if value >= 1e-2:  # away from 0, where the square root magnifies
            assert abs(weighted - value) <= 1e-12 * value
            # relative to the largest term the gradient sums
            scale = max(float(np.abs(t).max()) for t in terms) / (2 * value)
            want = sum(terms) / (2 * value)
            assert np.all(np.abs(grad - want) <= 1e-12 * scale)

    @settings(deadline=None)
    @given(st.data(), st.integers(2, 12), st.booleans())
    def test_median_sigma_equals_numpy_median(self, data, n, duplicates):
        # n(n-1)/2 pairs is odd for n = 2, 3, 6, 7, 10, 11 and even otherwise
        coords = st.sampled_from([-1.0, 0.0, 2.5]) if duplicates else _coords
        X = data.draw(arrays(np.float64, (n, 2), elements=coords))
        y = data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
        ds = make_dataset(X, y)
        _assert_textbook_calibration(_calibration_or_message(ds), ds)

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
    def test_storage_modes_agree_bit_for_bit(self, data, pool_cfg):
        pool, cfg = pool_cfg
        n = len(pool)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        idx = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        b = data.draw(_sparse_weights(n))
        # chunks of 1 to n rows, for the row sums and the weighted terms
        rows = data.draw(st.integers(1, n))
        with mock.patch.object(detector, "_CHUNK_BYTES", 8 * n * rows):
            with dense_kernels():
                dense = PoolKernel(pool, cfg)
            with gram_free_kernels():
                free = PoolKernel(pool, cfg)
            values = [dense.weighted(b), free.weighted(b), weighted_mmd(Z, b, cfg)]
            grads = [dense.weighted_grad(b), free.weighted_grad(b)]
        assert dense._K is not None and free._K is None
        assert np.array_equal(dense._row_sums, free._row_sums)
        assert dense._pool_term == free._pool_term
        assert dense.mmd_indices(idx) == free.mmd_indices(idx)
        assert values[0] == values[1] == values[2]
        assert np.array_equal(grads[0], grads[1])

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

    @settings(deadline=None)
    @given(_calibration_pools())
    def test_calibration_equals_textbook(self, pool):
        _assert_textbook_calibration(_calibration_or_message(pool), pool)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 60),
           st.integers(1, 3), st.integers(1, 8), _sigmas)
    def test_mmd_bits_do_not_depend_on_workers(self, seed, n, m, d, rows, sigma):
        gen = RngState(seed).generator
        Z, Zp = gen.standard_normal((n, d)), gen.standard_normal((m, d))
        cfg = config(sigma=sigma)
        values = []
        # chunks of `rows` rows of the pool term
        with mock.patch.object(detector, "_CHUNK_BYTES", 8 * n * rows), \
                mock.patch.object(detector, "_TASK_ENTRIES", 1):
            for workers in (1, 2, 3):
                with mock.patch.object(detector, "_WORKERS", workers):
                    values.append(mmd(Z, Zp, cfg))
        assert values[0] == values[1] == values[2]
        textbook = (_textbook_gram(Z, Z, sigma).mean()
                    - 2.0 * _textbook_gram(Z, Zp, sigma).mean()
                    + _textbook_gram(Zp, Zp, sigma).mean())
        assert abs(values[0] ** 2 - max(textbook, 0.0)) <= 1e-13

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 500), st.integers(1, 4))
    def test_mmd_of_a_sample_with_itself_is_zero(self, seed, n, d):
        Z = RngState(seed).generator.standard_normal((n, d))
        assert mmd(Z, Z, config()) == 0.0
        assert mmd(Z, Z.copy(), config(sigma=0.3)) == 0.0


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


def _tile_row_sums(K, side):
    """Row sums of a symmetric K added up as `_row_sums` adds them: each
    row's parts over column blocks of `side` in block order, where a part
    below the diagonal block is a column sum of the tile above it."""
    n = K.shape[0]
    blocks = [slice(start, min(start + side, n)) for start in range(0, n, side)]
    sums = np.empty(n)
    for I, rows in enumerate(blocks):
        parts = [K[rows, cols].sum(axis=1) if I <= J else K[cols, rows].sum(axis=0)
                 for J, cols in enumerate(blocks)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        sums[rows] = total
    return sums


def _recording_pools():
    """A patch of the detector's ThreadPoolExecutor with a subclass that
    records the pools opened while it is active, and the list they go in;
    each pool's `blocks` holds the (lo, hi) rows submitted to it."""
    opened = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.blocks = []
            opened.append(self)

        def submit(self, fn, *args):
            self.blocks.append(args)
            return super().submit(fn, *args)

    return mock.patch.object(detector, "ThreadPoolExecutor", RecordingPool), opened


class TestRowBlocks:
    """The n x n passes split into row blocks, on the calling thread and on
    threads started for the pass, give the bits of one-shot scipy and
    numpy, whatever the worker count."""

    @settings(deadline=None)
    @given(_block_pools(), st.sampled_from([2, 3]), _sigmas, st.floats(0.0, 5.0))
    def test_block_path_equals_one_shot(self, pool, workers, sigma, c):
        Z = augment(pool.X, pool.y, c)
        recording, pools = _recording_pools()
        cfg = config(sigma=sigma, c=c)
        sample = Z[::2]
        one_chunk = mmd(Z, sample, cfg)
        with recording, mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                mock.patch.object(detector, "_WORKERS", workers), \
                mock.patch.object(detector, "_CHUNK_BYTES", 8 * len(pool)):
            K = gram(Z, Z, sigma)
            # computed in tiles of isqrt(n) rows, and read from K
            row_sums, pool_term = detector._row_sums(Z, -2.0 * sigma * sigma)
            read_sums, read_term = detector._row_sums(Z, -2.0 * sigma * sigma, K)
            chunked = mmd(Z, sample, cfg)  # one row per chunk
            calibrated = _calibration_or_message(pool)
        if len(pool) >= 2:  # n below the worker count included
            assert any(p.blocks for p in pools)
        assert np.array_equal(K, _textbook_gram(Z, Z, sigma))
        # one tile for n = 1, several above
        want = _tile_row_sums(K, math.isqrt(len(pool)))
        assert np.array_equal(row_sums, want)
        assert np.array_equal(read_sums, want)
        assert pool_term == read_term == float(want.sum()) / len(pool) ** 2
        # the chunks' sums add up in another order than one chunk's, so the
        # radicands agree to rounding, which the square root magnifies near 0
        assert abs(chunked ** 2 - one_chunk ** 2) <= 1e-13
        _assert_textbook_calibration(calibrated, pool)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3), _sigmas)
    def test_row_sums_add_tiles_in_order(self, seed, n, d, sigma):
        Z = RngState(seed).generator.standard_normal((n, d))
        K = _textbook_gram(Z, Z, sigma)
        scale = -2.0 * sigma * sigma
        for side in sorted({1, 2, 3, 7, n}):
            want = _tile_row_sums(K, side)
            for workers in (1, 2, 3):
                with mock.patch.object(detector, "_WORKERS", workers), \
                        mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                        mock.patch.object(detector, "_CHUNK_BYTES", 8 * side * side):
                    computed, term = detector._row_sums(Z, scale)
                    read, read_term = detector._row_sums(Z, scale, K)
                assert np.array_equal(computed, want) and np.array_equal(read, want)
                assert term == read_term == float(want.sum()) / n ** 2
            one_shot = K.sum(axis=1)
            if side >= n:  # one tile
                assert np.array_equal(want, one_shot)
            else:
                assert np.all(np.abs(want - one_shot) <= 1e-13 * one_shot)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 3), st.sampled_from([1, 2, 3, 7, 40]), _sigmas)
    def test_rectangular_row_sums(self, seed, n, m, d, side, sigma):
        assume(n != m)
        gen = RngState(seed).generator
        Z, Zp = gen.standard_normal((n, d)), gen.standard_normal((m, d))
        scale = -2.0 * sigma * sigma
        cross, same = [], []
        with mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                mock.patch.object(detector, "_CHUNK_BYTES", 8 * side * side):
            for workers in (1, 2, 3):
                with mock.patch.object(detector, "_WORKERS", workers):
                    cross.append(detector._row_sums(Z, scale, Zp=Zp))
                    same.append(detector._row_sums(Z, scale, Zp=Z.copy()))
            symmetric = detector._row_sums(Z, scale)
        for sums, term in cross[1:]:
            assert np.array_equal(sums, cross[0][0]) and term == cross[0][1]
        want = _textbook_gram(Z, Zp, sigma).sum(axis=1)
        assert np.all(np.abs(cross[0][0] - want) <= 1e-13 * np.maximum(want, 1.0))
        assert cross[0][1] == float(cross[0][0].sum()) / (n * m)
        # the invariant behind mmd(Z, Z.copy()) == 0
        for sums, term in same:
            assert np.array_equal(sums, symmetric[0]) and term == symmetric[1]

    def test_one_tile_keeps_the_one_shot_bits(self):
        # tiles of 362 x 362 kernel values at the default 1 MB
        gen = RngState(59).generator
        for n in (200, 362, 363, 1100):
            Z = gen.standard_normal((n, 2))
            K = _textbook_gram(Z, Z, 0.8)
            sums = detector._row_sums(Z, -2.0 * 0.8 * 0.8)[0]
            assert np.array_equal(sums, _tile_row_sums(K, 362))
            if n <= 362:
                assert np.array_equal(sums, K.sum(axis=1))
            else:
                assert np.all(np.abs(sums - K.sum(axis=1)) <= 1e-13 * K.sum(axis=1))

    def test_forked_child_runs_blocks(self):
        # The fork comes while another thread is partway through a pass, its
        # pool's worker still running. The child inherits neither thread and
        # must start its own for its own pass.
        Z = RngState(43).generator.standard_normal((9, 2))
        expected = _textbook_gram(Z, Z, 1.0)
        started = threading.Barrier(3)
        release = threading.Event()

        def hold(lo, hi):
            started.wait(30.0)
            release.wait(30.0)

        recording, pools = _recording_pools()
        with recording, mock.patch.object(detector, "_WORKERS", 2), \
                mock.patch.object(detector, "_TASK_ENTRIES", 1):
            holder = threading.Thread(target=detector._in_row_blocks,
                                      args=(hold, np.ones(2)))
            holder.start()
            try:
                started.wait(30.0)
                pid = os.fork()
                if pid == 0:  # the child reports through its exit status only
                    code = 1
                    try:
                        before = len(pools)
                        same = np.array_equal(gram(Z, Z, 1.0), expected)
                        code = 0 if same and pools[before:][0].blocks else 1
                    finally:
                        os._exit(code)
            finally:
                release.set()
                holder.join(30.0)
        assert not holder.is_alive()
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
        K_want = _textbook_gram(Z, Z, 1.3)
        sums_want = _tile_row_sums(K_want, 8)  # 8 x 8 tiles of 8 * 64 bytes
        results = []

        def run():
            for _ in range(20):
                K = gram(Z, Z, 1.3)
                results.append(
                    np.array_equal(K, K_want)
                    and np.array_equal(detector._row_sums(Z, -2.0 * 1.3 * 1.3)[0],
                                       sums_want)
                    and mmd(Z, Z, config(sigma=1.3)) == 0.0)

        interval = sys.getswitchinterval()
        recording, pools = _recording_pools()
        try:
            sys.setswitchinterval(1e-6)
            # 5 passes a round: gram's 64 rows, and 36 tiles of 8 x 8 in
            # `_row_sums` and in each of mmd's 3 tile passes
            with recording, mock.patch.object(detector, "_WORKERS", 8), \
                    mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                    mock.patch.object(detector, "_CHUNK_BYTES", 8 * 64):
                thread = threading.Thread(target=run)
                thread.start()
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert results == [True] * 20
        # 8 blocks a pass: 7 of them on threads, whatever the 2 CPUs
        assert len(pools) == 100 and all(len(p.blocks) == 7 for p in pools)

    def test_rectangular_blocks_and_small_work(self):
        gen = RngState(41).generator
        Z1, Z2 = gen.standard_normal((7, 3)), gen.standard_normal((5, 3))
        recording, pools = _recording_pools()
        with recording, mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                mock.patch.object(detector, "_WORKERS", 3):
            blocks = gram(Z1, Z2, 0.7)
        assert [len(p.blocks) for p in pools] == [2]
        assert np.array_equal(blocks, _textbook_gram(Z1, Z2, 0.7))
        # below two tasks' worth of entries, no pool opens and no thread starts
        no_pool = mock.patch.object(detector, "ThreadPoolExecutor",
                                    side_effect=AssertionError)
        with no_pool:
            assert np.array_equal(gram(Z1, Z2, 0.7), blocks)

    def test_no_thread_outlives_a_pass(self):
        Z = RngState(53).generator.standard_normal((40, 3))
        ran_on = []

        def task(lo, hi):
            ran_on.append(threading.current_thread())

        before = set(threading.enumerate())
        with mock.patch.object(detector, "_TASK_ENTRIES", 1), \
                mock.patch.object(detector, "_WORKERS", 3), \
                mock.patch.object(detector, "_CHUNK_BYTES", 8 * 40 * 4):
            detector._in_row_blocks(task, np.ones(6))
            workers = [t for t in ran_on if t is not threading.current_thread()]
            assert len(ran_on) == 3 and len(workers) == 2
            assert not any(t.is_alive() for t in workers)
            gram(Z, Z, 0.9)
            detector._row_sums(Z, -2.0 * 0.9 * 0.9)
            mmd(Z, Z[:10], config(sigma=0.9))
            assert set(threading.enumerate()) <= before


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
