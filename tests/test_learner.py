"""Learner: loss arithmetic, Newton training, and weight sensitivities."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

import covertrain.learner as learner
from covertrain import (
    DataError,
    LearnerConfig,
    ModelParams,
    RngState,
    TrainingError,
    WeightedTrainingView,
    empirical_risk,
    loss_gradients,
    predict_error,
    risk_gradient_wrt_weights,
    stationarity_residual,
    train,
)
from covertrain.learner import instance_losses

from conftest import gaussian_task, make_dataset


def ones_view(ds):
    return WeightedTrainingView(ds, np.ones(len(ds)))


def loss(theta, x, y):
    """Logistic loss of one instance with features x and label y."""
    return float(instance_losses(theta, np.atleast_2d(x), np.array([y]))[0])


def objective(theta, view, cfg):
    """Weighted loss sum plus ridge term, the quantity train() minimizes."""
    losses = instance_losses(theta, view.pool.X, view.pool.y)
    ridge = 0.5 * cfg.lam * float(theta.theta @ theta.theta)
    return float(view.weights @ losses) + ridge


class TestLogisticLoss:
    def test_zero_weights_give_log_two(self):
        theta = ModelParams(np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        assert loss(theta, x, 1) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_saturation_no_overflow(self):
        theta = ModelParams(np.array([100.0]))
        value = loss(theta, np.array([1.0]), 1)
        assert 0.0 < value < 1e-40
        # the losing side grows linearly instead of overflowing
        assert loss(theta, np.array([1.0]), -1) == pytest.approx(100.0, rel=1e-12)

    def test_scalar_oracle(self):
        # theta=(1,0), x=(2,5), y=-1: margin -2, loss log(1+e^2)
        theta = ModelParams(np.array([1.0, 0.0]))
        expected = math.log(1.0 + math.exp(2.0))  # 2.1269280110429727
        assert loss(theta, np.array([2.0, 5.0]), -1) == pytest.approx(
            expected, rel=1e-14
        )

    def test_gradient_matches_central_differences(self):
        # analytic per-instance gradient vs central differences, 100 cases
        gen = RngState(5).generator
        h = 1e-6
        for _ in range(100):
            d = int(gen.integers(1, 6))
            theta_vec = gen.standard_normal(d)
            x = gen.standard_normal(d)
            y = int(gen.choice([-1, 1]))
            grad = loss_gradients(ModelParams(theta_vec), x[None, :], np.array([y]))[0]
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                hi = loss(ModelParams(theta_vec + e), x, y)
                lo = loss(ModelParams(theta_vec - e), x, y)
                fd = (hi - lo) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestEmpiricalRisk:
    def test_single_instance_equals_its_loss(self):
        ds = make_dataset([[2.0, 1.0]], [-1], role="secret_set")
        theta = ModelParams(np.array([0.3, -0.7]))
        assert empirical_risk(theta, ds) == pytest.approx(
            loss(theta, ds.X[0], ds.y[0]), rel=1e-15
        )

    def test_zero_model_gives_log_two(self):
        ds = gaussian_task(1, 10)
        assert empirical_risk(ModelParams(np.zeros(2)), ds) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_mean_of_two(self):
        ds = make_dataset([[1.0], [-3.0]], [1, -1], role="secret_set")
        theta = ModelParams(np.array([0.9]))
        a = loss(theta, ds.X[0], ds.y[0])
        b = loss(theta, ds.X[1], ds.y[1])
        assert empirical_risk(theta, ds) == pytest.approx((a + b) / 2, rel=1e-15)

    def test_empty_rejected(self):
        ds = make_dataset(np.zeros((0, 1)), [], role="test_set")
        with pytest.raises(DataError):
            empirical_risk(ModelParams(np.zeros(1)), ds)


class TestTrain:
    def test_symmetric_pair_aligns_with_x(self, learner_cfg):
        x = np.array([2.0, 1.0])
        ds = make_dataset([x, -x], [1, -1])
        theta = train(ones_view(ds), learner_cfg).theta
        perp = np.array([-x[1], x[0]])
        assert abs(theta @ perp) <= 1e-8
        assert theta @ x > 0

    def test_binary_weights_equal_subset_training(self, learner_cfg):
        pool = gaussian_task(11, 10)
        gen = RngState(3).generator
        for _ in range(5):
            idx = np.sort(gen.choice(len(pool), size=6, replace=False))
            b = np.zeros(len(pool))
            b[idx] = 1.0
            theta_w = train(WeightedTrainingView(pool, b), learner_cfg).theta
            sub = pool.subset(idx)
            theta_s = train(ones_view(sub), learner_cfg).theta
            assert np.array_equal(theta_w, theta_s)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fractional_weights_train_on_their_support(self, data):
        n, d = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 4))
        X = data.draw(arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
        y = data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
        b = data.draw(arrays(np.float64, n, elements=st.one_of(
            st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-298))))
        # one weight in [0.1, 1] keeps the sum positive; one zero at least
        anchor, zero = data.draw(st.permutations(range(n)))[:2]
        b[anchor], b[zero] = data.draw(st.floats(0.1, 1.0)), 0.0
        pool = make_dataset(X, y)
        cfg = LearnerConfig(lam=data.draw(st.floats(0.1, 10.0)))
        view = WeightedTrainingView(pool, b)
        support = np.flatnonzero(b)
        theta = train(view, cfg)
        alone = train(WeightedTrainingView(pool.subset(support), b[support]), cfg)
        assert np.array_equal(theta.theta, alone.theta)
        assert stationarity_residual(theta, view, cfg) <= cfg.tol

    def test_one_dimensional_fixed_point_bisection_oracle(self, learner_cfg):
        # stationarity for x=1, y=+1, lam=1 reads theta = sigmoid(-theta);
        # bisection on that scalar equation is the oracle.
        def g(t):
            return t - 1.0 / (1.0 + math.exp(t))

        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if g(mid) > 0 else (mid, hi)
        root = 0.5 * (lo + hi)

        ds = make_dataset([[1.0]], [1])
        theta = train(ones_view(ds), learner_cfg).theta
        assert theta[0] == pytest.approx(root, abs=1e-4)
        assert theta[0] == pytest.approx(0.4010581375, abs=1e-6)

    def test_agrees_with_scipy_minimizer(self, learner_cfg):
        pool = gaussian_task(17, 12, separation=2.0)
        view = ones_view(pool)
        theta = train(view, learner_cfg).theta

        def at(t):
            return objective(ModelParams(t), view, learner_cfg)

        res = minimize(at, np.zeros(pool.dimension), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
        assert np.linalg.norm(theta - res.x) <= 1e-4

    def test_descends_from_zero(self, learner_cfg):
        pool = gaussian_task(29, 10)
        view = ones_view(pool)
        theta = train(view, learner_cfg)
        zero = ModelParams(np.zeros(pool.dimension))
        assert objective(theta, view, learner_cfg) <= objective(zero, view, learner_cfg)
        # the unregularized risk improves too (the ridge term only shrinks)
        assert empirical_risk(theta, pool) <= empirical_risk(zero, pool)

    def test_damped_fallback_converges(self, monkeypatch):
        calls = []
        objective_raw = learner._objective_raw

        def counted(*args):
            calls.append(1)
            return objective_raw(*args)

        monkeypatch.setattr(learner, "_objective_raw", counted)
        X, y, cfg = damped_instance()
        view = ones_view(make_dataset(X, y))
        theta = train(view, cfg)
        assert calls  # the Armijo backtracking ran
        assert stationarity_residual(theta, view, cfg) <= cfg.tol
        zero = ModelParams(np.zeros(3))
        assert objective(theta, view, cfg) <= objective(zero, view, cfg)

    def test_stationarity_residual_within_tol(self, learner_cfg):
        pool = gaussian_task(31, 20, dim=4)
        view = ones_view(pool)
        theta = train(view, learner_cfg)
        assert stationarity_residual(theta, view, learner_cfg) <= learner_cfg.tol

    def test_nonconvergence_carries_residual(self):
        cfg = LearnerConfig(lam=1.0, tol=1e-14, max_iter=1)
        pool = gaussian_task(5, 20, separation=6.0)
        with pytest.raises(TrainingError) as err:
            train(ones_view(pool), cfg)
        assert err.value.residual is not None and err.value.residual > 1e-14

    def test_rejects_nan_weights(self):
        pool = gaussian_task(5, 6)
        b = np.ones(len(pool))
        b[3] = math.nan
        with pytest.raises(DataError, match=r"weights must lie in \[0, 1\]"):
            WeightedTrainingView(pool, b)

    def test_rejects_zero_lambda(self):
        with pytest.raises(DataError):
            LearnerConfig(lam=0.0)


def damped_instance():
    """Large features and a tiny ridge: some full Newton steps do not shrink
    the residual, so training backtracks on the objective instead."""
    X = 100.0 * RngState(27).generator.standard_normal((6, 3))
    return X, np.array([1, -1, 1, -1, 1, -1]), LearnerConfig(lam=1e-5)


def train_rows(X, y, cfg):
    """`train` on each row of a batch, one subset at a time."""
    return np.array([train(ones_view(make_dataset(Xr, yr)), cfg).theta
                     for Xr, yr in zip(X, y)])


class TestTrainBatch:
    """Rows agree with `train` within 2 tol / lam: both solutions are
    stationary to tol, and the objective is lam-strongly convex."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_train(self, data):
        B, m, d = (data.draw(st.integers(1, hi)) for hi in (5, 8, 4))
        X = data.draw(arrays(np.float64, (B, m, d),
                             elements=st.floats(-5.0, 5.0)))
        y = data.draw(arrays(np.int64, (B, m), elements=st.sampled_from([-1, 1])))
        cfg = LearnerConfig(lam=data.draw(st.floats(0.1, 10.0)))
        got = learner.train_batch(X, y, cfg)
        assert got.shape == (B, d)
        gaps = np.linalg.norm(got - train_rows(X, y, cfg), axis=1)
        assert np.all(gaps <= 2.0 * cfg.tol / cfg.lam)

    def test_damped_row_beside_ordinary_rows(self, monkeypatch):
        calls = []
        objective_raw = learner._objective_raw

        def counted(*args):
            calls.append(1)
            return objective_raw(*args)

        X_damped, y_damped, cfg = damped_instance()
        ordinary = RngState(28).generator.standard_normal((2, 6, 3))
        X = np.concatenate([ordinary[:1], X_damped[None], ordinary[1:]])
        y = np.tile(y_damped, (3, 1))
        monkeypatch.setattr(learner, "_objective_raw", counted)
        got = learner.train_batch(X, y, cfg)
        assert calls  # the Armijo backtracking ran inside the batch
        gaps = np.linalg.norm(got - train_rows(X, y, cfg), axis=1)
        assert np.all(gaps <= 2.0 * cfg.tol / cfg.lam)

    def test_rows_are_independent_and_frozen_once_converged(self):
        # an ordinary row, the damped row, a single-class row and a row of
        # duplicates: each row of the batch is exactly the row trained alone
        X_damped, y_damped, cfg = damped_instance()
        gen = RngState(29).generator
        duplicates = np.repeat(gen.standard_normal((2, 3)), [4, 2], axis=0)
        X = np.stack([gen.standard_normal((6, 3)), X_damped,
                      gen.standard_normal((6, 3)), duplicates])
        y = np.stack([y_damped, y_damped, np.ones(6, int), [1, -1, 1, 1, -1, -1]])
        got = learner.train_batch(X, y, cfg)
        for k in range(len(X)):
            alone = learner.train_batch(X[k:k + 1], y[k:k + 1], cfg)[0]
            assert np.array_equal(got[k], alone)
        gaps = np.linalg.norm(got - train_rows(X, y, cfg), axis=1)
        assert np.all(gaps <= 2.0 * cfg.tol / cfg.lam)

        # the rows converge after different numbers of steps, so the rows
        # that finish first sat unchanged through the batch's later steps
        def steps(k):
            for max_iter in range(1, cfg.max_iter + 1):
                short = replace(cfg, max_iter=max_iter)
                try:
                    learner.train_batch(X[k:k + 1], y[k:k + 1], short)
                except TrainingError:
                    continue
                return max_iter

        counts = [steps(k) for k in range(len(X))]
        assert min(counts) < max(counts)

    def test_nonconvergence_carries_residual(self):
        cfg = LearnerConfig(lam=1.0, tol=1e-14, max_iter=1)
        pool = gaussian_task(5, 20, separation=6.0)
        X = np.stack([pool.X, pool.X[::-1]])
        y = np.stack([pool.y, pool.y[::-1]])
        with pytest.raises(TrainingError) as err:
            learner.train_batch(X, y, cfg)
        assert err.value.residual is not None and err.value.residual > 1e-14


class TestPredictError:
    def test_separating_model_zero_error(self):
        ds = gaussian_task(1, 20, separation=8.0, std=0.5, role="test_set")
        theta = ModelParams(np.array([1.0, 0.0]))
        assert predict_error(theta, ds) == 0.0

    def test_zero_model_predicts_positive(self):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [1, -1, -1, 1],
                          role="test_set")
        # tie rule: sign(0) = +1, so error is the fraction of -1 labels
        assert predict_error(ModelParams(np.zeros(1)), ds) == 0.5

    def test_flipped_model_full_error(self):
        ds = gaussian_task(2, 20, separation=8.0, std=0.5, role="test_set")
        theta = np.array([1.0, 0.0])
        err = predict_error(ModelParams(theta), ds)
        flipped = predict_error(ModelParams(-theta), ds)
        assert err == 0.0 and flipped == 1.0


class TestRiskGradient:
    def test_finite_difference_oracle(self):
        # implicit-function gradient vs central differences in b
        cfg = LearnerConfig(lam=1.0, tol=1e-12, max_iter=200)
        pool = gaussian_task(41, 6)
        secret = gaussian_task(43, 5, role="secret_set")
        gen = RngState(6).generator
        b = gen.uniform(0.2, 0.9, size=len(pool))
        view = WeightedTrainingView(pool, b)
        grad = risk_gradient_wrt_weights(view, cfg, secret, theta=train(view, cfg))

        h = 1e-5
        for i in range(len(pool)):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            rp = empirical_risk(train(WeightedTrainingView(pool, bp), cfg), secret)
            rm = empirical_risk(train(WeightedTrainingView(pool, bm), cfg), secret)
            fd = (rp - rm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_feature_contributes_nothing(self, learner_cfg):
        pool = make_dataset([[1.0, 0.5], [0.0, 0.0], [-1.0, 0.3]], [1, 1, -1])
        secret = gaussian_task(47, 4, role="secret_set")
        view = WeightedTrainingView(pool, np.array([1.0, 0.7, 1.0]))
        grad = risk_gradient_wrt_weights(
            view, learner_cfg, secret, theta=train(view, learner_cfg)
        )
        assert grad[1] == 0.0

    def test_duplicate_instances_equal_gradients(self, learner_cfg):
        pool = make_dataset([[1.0, 2.0], [1.0, 2.0], [-2.0, 0.5]], [1, 1, -1])
        secret = gaussian_task(53, 4, role="secret_set")
        view = WeightedTrainingView(pool, np.array([0.9, 0.4, 1.0]))
        grad = risk_gradient_wrt_weights(
            view, learner_cfg, secret, theta=train(view, learner_cfg)
        )
        assert grad[0] == pytest.approx(grad[1], rel=1e-12)
