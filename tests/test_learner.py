"""Learner: loss arithmetic, Newton training, and weight sensitivities."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_binary_weights_equal_subset_training(self, data):
        # Solvers and the evaluate stage train a subset as 0/1 weights on
        # its pool; the model must have the bits of training on a copy.
        n, d = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 20))
        coords = data.draw(st.sampled_from([
            st.floats(-5.0, 5.0),
            st.sampled_from([-1.0, 0.0, 2.5]),  # duplicate-heavy pools
        ]))
        X = data.draw(arrays(np.float64, (n, d), elements=coords))
        labels = data.draw(st.sampled_from([[-1, 1], [1], [-1]]))
        y = data.draw(arrays(np.int64, n, elements=st.sampled_from(labels)))
        pool = make_dataset(X, y)
        idx = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        b = np.zeros(n)
        b[idx] = 1.0
        cfg = LearnerConfig()
        theta_w = train(WeightedTrainingView(pool, b), cfg).theta
        theta_s = train(ones_view(pool.subset(idx)), cfg).theta
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


DAMPED_WEIGHTS = np.array([0.5, 1.0, 0.25, 0.9, 1.0, 0.7])


def assert_rows_stationary(thetas, X, y, weights, cfg):
    """Each row's theta is stationary to cfg.tol on its own weighted view:
    its training set, weighted by its row of `weights`."""
    for theta, Xr, yr, wr in zip(thetas, X, y, weights):
        view = WeightedTrainingView(make_dataset(Xr, yr), wr)
        assert stationarity_residual(ModelParams(theta), view, cfg) <= cfg.tol


class TestTrainBatch:
    """Rows are certified by their own stationarity residual, and each row
    has the bits of a batch of that row alone."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_are_stationary_and_alone(self, data):
        B, m, d = (data.draw(st.integers(1, hi)) for hi in (5, 8, 4))
        X = data.draw(arrays(np.float64, (B, m, d),
                             elements=st.floats(-5.0, 5.0)))
        y = data.draw(arrays(np.int64, (B, m), elements=st.sampled_from([-1, 1])))
        # default (unit) weights, or rows mixing 0, 1 and fractions; one
        # weight in [0.1, 1] a row keeps its sum positive
        unit = data.draw(st.booleans())
        weights = data.draw(arrays(np.float64, (B, m), elements=st.one_of(
            st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))))
        anchors = data.draw(arrays(np.int64, B, elements=st.integers(0, m - 1)))
        weights[np.arange(B), anchors] = data.draw(st.floats(0.1, 1.0))
        if unit:
            weights[:] = 1.0
        cfg = LearnerConfig(lam=data.draw(st.floats(0.1, 10.0)))
        got = learner.train_batch(X, y, cfg, None if unit else weights)
        assert got.shape == (B, d)
        assert_rows_stationary(got, X, y, weights, cfg)
        for k in range(B):
            alone = learner.train_batch(X[k:k + 1], y[k:k + 1], cfg, weights[k:k + 1])
            assert np.array_equal(got[k], alone[0])

    def test_damped_row_beside_ordinary_rows(self, monkeypatch):
        calls = []
        objective_raw = learner._objective_raw

        def counted(*args):
            calls.append(1)
            return objective_raw(*args)

        X_damped, y_damped, cfg = damped_instance()
        ordinary = RngState(28).generator.standard_normal((3, 6, 3))
        X = np.concatenate([ordinary[:1], X_damped[None], ordinary[1:], X_damped[None]])
        y = np.tile(y_damped, (5, 1))
        # ordinary rows with unit, fractional and 0/1 weights; the damped
        # instance with unit and with fractional weights
        weights = np.array([np.ones(6), np.ones(6), DAMPED_WEIGHTS,
                            [1, 0, 1, 1, 0, 1], DAMPED_WEIGHTS])
        monkeypatch.setattr(learner, "_objective_raw", counted)
        got = learner.train_batch(X, y, cfg, weights)
        assert calls  # the Armijo backtracking ran inside the batch
        assert_rows_stationary(got, X, y, weights, cfg)

    def test_rows_are_independent_and_frozen_once_converged(self):
        # an ordinary row, the damped row, a single-class row, a row of
        # duplicates and the damped row weighted: each row of the batch,
        # unit or weighted, is exactly the row trained alone
        X_damped, y_damped, cfg = damped_instance()
        gen = RngState(29).generator
        duplicates = np.repeat(gen.standard_normal((2, 3)), [4, 2], axis=0)
        X = np.stack([gen.standard_normal((6, 3)), X_damped,
                      gen.standard_normal((6, 3)), duplicates, X_damped])
        y = np.stack([y_damped, y_damped, np.ones(6, int), [1, -1, 1, 1, -1, -1],
                      y_damped])
        unit = np.ones((len(X), 6))
        weighted = np.stack([DAMPED_WEIGHTS, np.ones(6), [1, 0, 1, 1, 0, 1],
                             DAMPED_WEIGHTS[::-1], DAMPED_WEIGHTS])
        for weights in (None, weighted):
            got = learner.train_batch(X, y, cfg, weights)
            rows = unit if weights is None else weights
            for k in range(len(X)):
                alone = learner.train_batch(X[k:k + 1], y[k:k + 1], cfg,
                                            rows[k:k + 1])[0]
                assert np.array_equal(got[k], alone)
            assert_rows_stationary(got, X, y, rows, cfg)

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


def reference_train_batch(X, y, cfg, weights=None):
    """`train_batch` before the Newton loop called the solve gufunc directly
    and negated the features by their labels once: `np.linalg.solve` at each
    step and margins ny * (X @ t). Kept as the oracle for its bits."""
    from scipy.special import expit

    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)[:, :, None]
    w = (np.ones(y.shape) if weights is None
         else np.asarray(weights, dtype=np.float64)[:, :, None])
    lam, tol = cfg.lam, cfg.tol
    ridge = lam * np.eye(X.shape[2])
    out = np.zeros((X.shape[0], X.shape[2], 1))
    rows = np.arange(X.shape[0])

    def state(t):
        p = expit(ny * (X @ t))
        grad = Xt @ (nwy * p) + lam * t
        return p, grad, np.sqrt(np.add.reduce(grad * grad, axis=1)).ravel().tolist()

    Xt, ny, nwy = X.transpose(0, 2, 1), -y, -(w * y)
    theta = out
    p, grad, residual = state(theta)
    for step in range(cfg.max_iter + 1):
        live = [k for k, r in enumerate(residual) if not r <= tol]
        if not live or len(live) < rows.size:
            out[rows] = theta
            if not live:
                return out[:, :, 0]
            rows, X, y, w, theta, p, grad = (
                a[live] for a in (rows, X, y, w, theta, p, grad))
            residual = [residual[k] for k in live]
            Xt, ny, nwy = X.transpose(0, 2, 1), -y, -(w * y)
        if step == cfg.max_iter:
            break
        hess = (X * (w * p * (1.0 - p))).transpose(0, 2, 1) @ X + ridge
        direction = np.linalg.solve(hess, grad)
        cand = theta - direction
        cand_state = state(cand)
        damped = [k for k, (r, c) in enumerate(zip(residual, cand_state[2]))
                  if not c < r]
        for k in damped:
            cand[k, :, 0] = learner._backtrack(
                theta[k, :, 0], direction[k, :, 0], grad[k, :, 0], X[k],
                y[k, :, 0], w[k, :, 0], lam)
        if damped:
            cand_state = state(cand)
        theta, (p, grad, residual) = cand, cand_state
    raise TrainingError("no convergence")


class TestNewtonSolve:
    """The Newton loop and the weight gradient solve their systems with the
    gufuncs behind `np.linalg.solve`, and so keep its bits; a singular
    system raises TrainingError."""

    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("d", [1, 2, 3, 20])
    def test_solve_has_linalg_bits(self, B, d):
        gen = RngState(100 * B + d).generator
        for _ in range(20):
            M = gen.standard_normal((B, d, d))
            A = M @ M.transpose(0, 2, 1) + gen.uniform(1e-3, 1.0) * np.eye(d)
            b = gen.standard_normal((B, d, 1))
            got = learner._solve(A, b, signature="dd->d")
            assert got.dtype == np.float64 and got.shape == (B, d, 1)
            assert got.tobytes() == np.linalg.solve(A, b).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 20])
    def test_solve1_has_linalg_bits(self, d):
        # the sensitivity system's solve: one right-hand-side vector
        gen = RngState(500 + d).generator
        for _ in range(20):
            M = gen.standard_normal((d, d))
            A = M @ M.T + gen.uniform(1e-3, 1.0) * np.eye(d)
            b = gen.standard_normal(d)
            got = learner._solve1(A, b, signature="dd->d")
            assert got.dtype == np.float64 and got.shape == (d,)
            assert got.tobytes() == np.linalg.solve(A, b).tobytes()

    def test_training_solves_without_the_wrapper(self, monkeypatch):
        # every Newton system train_batch solves, damped rows included, gets
        # np.linalg.solve's bits, and the wrapper itself is never called
        systems = []
        solve = learner._solve

        def recorded(hess, grad, **kwargs):
            out = solve(hess, grad, **kwargs)
            systems.append((hess.copy(), grad.copy(), out.copy()))
            return out

        def wrapper(*args, **kwargs):
            raise AssertionError("train_batch called np.linalg.solve")

        X_damped, y_damped, cfg = damped_instance()
        X = np.stack([X_damped, RngState(30).generator.standard_normal((6, 3))])
        y = np.stack([y_damped, y_damped])
        monkeypatch.setattr(learner, "_solve", recorded)
        monkeypatch.setattr(np.linalg, "solve", wrapper)
        learner.train_batch(X, y, cfg, np.stack([DAMPED_WEIGHTS, np.ones(6)]))
        monkeypatch.undo()
        assert len(systems) > 1
        for hess, grad, out in systems:
            assert out.tobytes() == np.linalg.solve(hess, grad).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_train_batch_has_reference_bits(self, data):
        B, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
        d = data.draw(st.sampled_from([1, 2, 3, 20]))
        X = data.draw(arrays(np.float64, (B, m, d), elements=st.floats(-50.0, 50.0)))
        y = data.draw(arrays(np.int64, (B, m), elements=st.sampled_from([-1, 1])))
        weights = data.draw(st.one_of(st.none(), arrays(
            np.float64, (B, m), elements=st.floats(0.05, 1.0))))
        cfg = LearnerConfig(lam=data.draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0])))
        try:
            want = reference_train_batch(X, y, cfg, weights)
        except TrainingError:
            with pytest.raises(TrainingError):
                learner.train_batch(X, y, cfg, weights)
            return
        assert learner.train_batch(X, y, cfg, weights).tobytes() == want.tobytes()

    @pytest.mark.parametrize("ambient", ["warn", "ignore", "raise"])
    def test_singular_system_raises_training_error(self, ambient):
        # two copies of x = (1, 1): at theta = 0 the loss Hessian is
        # [[0.5, 0.5], [0.5, 0.5]], and lam = 1e-20 rounds away when added,
        # so the Newton system is exactly singular although lam > 0. The
        # outcome does not depend on numpy's error state or the warning
        # filters outside, and a batch holding such a row fails whole. The
        # weight gradient at theta = 0 solves the same singular system
        pool = make_dataset([[1.0, 1.0], [1.0, 1.0]], [1, 1])
        cfg = LearnerConfig(lam=1e-20)
        X = np.stack([pool.X, [[1.0, 0.5], [-1.0, 2.0]]])
        y = np.stack([pool.y, [1, -1]])
        secret = gaussian_task(5, 3, role="secret_set")
        before = np.geterr()
        with warnings.catch_warnings(), np.errstate(invalid=ambient):
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="singular") as alone:
                train(ones_view(pool), cfg)
            with pytest.raises(TrainingError, match="singular") as batch:
                learner.train_batch(X, y, cfg)
            with pytest.raises(TrainingError, match="singular") as sensitivity:
                risk_gradient_wrt_weights(ones_view(pool), cfg, secret,
                                          theta=ModelParams(np.zeros(2)))
            assert np.geterr()["invalid"] == ambient
        assert alone.value.residual is None and batch.value.residual is None
        assert sensitivity.value.residual is None
        assert np.geterr() == before


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



@pytest.mark.parametrize("module", ["covertrain", "covertrain.cli"])
def test_import_loads_no_scipy(module):
    # the learner imports expit, and the detector its distance functions,
    # on first use
    code = (f"import json, sys, {module}\n"
            "print(json.dumps([m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')]))")
    env = dict(os.environ, PYTHONPATH=str(Path(learner.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
