"""Regularized logistic regression: training, risk, and weight sensitivities.

The learner minimizes an unnormalized weighted loss sum plus an L2 ridge,

    J(theta) = sum_i b_i * log(1 + exp(-y_i <theta, x_i>)) + (lam/2) ||theta||^2,

with natural logarithms throughout. Risk on an evaluation set is the *mean*
loss; the two normalizations are intentionally different and must not be
conflated. For lam > 0 the objective is strongly convex, so the minimizer
theta_hat is unique and training is deterministic.

Training is one damped Newton method, `train_batch`, on a batch of weighted
training sets; `train` runs it on one row, so a subset gets the same bits.
Labels must be +1 or -1 (`Dataset` enforces it): the Newton loop multiplies
each row's features by its negated labels once, which is exact only for
labels of magnitude one. At acceptance scale (m = 20, d = 2) a training
takes 6.6 Newton steps on average, on 2x2 systems, so its cost is numpy
call overhead more than arithmetic. Each step therefore calls the LAPACK
solve gufunc that `np.linalg.solve` dispatches to, resolved once at import,
and gets the same bits: the wrapper's array checks never change across
steps, and with its error-state context it takes about 5.1 us a call
against the gufunc's 1.2 us. A one-row training at (m, d) = (20, 2) takes
about 63 us, against about 80 us when each step called `np.linalg.solve`
and formed -y * (X @ theta) (2-core VM, `BENCH_newton_overhead.json`).

The logistic function is scipy.special's `expit`, imported where it is
used: scipy.special loads on a process's first training (or loss gradient),
not when covertrain is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .data import DataError, Dataset, check_counts, plain_numbers


class TrainingError(RuntimeError):
    """Training failed to reach the stationarity tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ModelParams:
    """Learned weight vector. No implicit intercept; append a constant-1
    feature at ingestion if a bias term is wanted (it is then regularized
    like every other coordinate)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64, copy=True).ravel()
        if not np.all(np.isfinite(theta)):
            raise TrainingError("non-finite model parameters")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    def to_dict(self) -> dict:
        return {"theta": [float(v) for v in self.theta]}


@dataclass(frozen=True)
class LearnerConfig:
    lam: float = 1.0
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        plain_numbers(self)
        if not self.lam > 0:
            raise DataError("regularization weight lam must be positive")
        if not self.tol > 0:
            raise DataError("tol must be positive")
        check_counts(self, max_iter=1)


@dataclass(frozen=True)
class WeightedTrainingView:
    """A pool with per-instance weights b in [0, 1]; binary b selects a
    subset, fractional b is the continuous relaxation the NLP solver uses."""

    pool: Dataset
    weights: np.ndarray

    def __post_init__(self):
        b = np.array(self.weights, dtype=np.float64, copy=True).ravel()
        if b.shape[0] != len(self.pool):
            raise DataError(
                f"{b.shape[0]} weights for pool of {len(self.pool)}"
            )
        # Written so that NaN fails it.
        if b.size == 0 or not (b.min() >= -1e-12 and b.max() <= 1 + 1e-12):
            raise DataError("weights must lie in [0, 1]")
        if b.sum() <= 0:
            raise DataError("weights must have positive sum")
        b = np.clip(b, 0.0, 1.0)
        b.setflags(write=False)
        object.__setattr__(self, "weights", b)


def subset_weights(n: int, indices) -> np.ndarray:
    """The 0/1 weights on a pool of n instances that select `indices`. On
    them `train` fits the subset alone, with the bits of training on a copy
    of its rows (`Dataset.subset`), so no subset needs copying."""
    b = np.zeros(n)
    b[np.asarray(indices, dtype=np.int64)] = 1.0
    return b


# The gufunc np.linalg.solve dispatches to for float64 stacks, resolved once;
# `train_batch` calls it with signature "dd->d", as the wrapper does.
_solve = _umath_linalg.solve


def _margins(theta_vec: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (X @ theta_vec)


def instance_losses(theta: ModelParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-instance log(1 + exp(-y <theta, x>)), evaluated as
    logaddexp(0, -y <theta, x>) so large margins of either sign stay finite."""
    return np.logaddexp(0.0, -_margins(theta.theta, X, y))


def loss_gradients(theta: ModelParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-instance loss gradients w.r.t. theta, one row per instance:
    grad_i = -y_i * sigmoid(-y_i <theta, x_i>) * x_i."""
    from scipy.special import expit

    p = expit(-_margins(theta.theta, X, y))
    return (-(y * p))[:, None] * X


def empirical_risks(thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Mean logistic loss over a non-empty dataset of each row of the (B, d)
    `thetas`. Each row's margins are a matrix-vector product of their own,
    so row k has the bits of `empirical_risk` of thetas[k] whatever B is."""
    if len(data) == 0:
        raise DataError("empirical risk of an empty dataset")
    margins = data.y * (data.X @ thetas[:, :, None])[:, :, 0]
    losses = np.logaddexp(0.0, -margins)
    # np.mean(losses, axis=1) to the bit, without its Python overhead
    return np.add.reduce(losses, axis=1) / losses.shape[1]


def empirical_risk(theta: ModelParams, data: Dataset) -> float:
    """Mean logistic loss over a non-empty dataset (`empirical_risks`)."""
    return float(empirical_risks(theta.theta[None], data)[0])


def _objective_raw(theta_vec, X, y, b, lam) -> float:
    """Weighted loss sum plus ridge term (the quantity train() minimizes)."""
    losses = np.logaddexp(0.0, -_margins(theta_vec, X, y))
    return float(np.dot(b, losses)) + 0.5 * lam * float(np.dot(theta_vec, theta_vec))


def stationarity_residual(
    theta: ModelParams, view: WeightedTrainingView, cfg: LearnerConfig
) -> float:
    """L2 norm of sum_i b_i grad_loss_i + lam * theta at the given theta."""
    g = view.weights @ loss_gradients(theta, view.pool.X, view.pool.y)
    g = g + cfg.lam * theta.theta
    return float(np.linalg.norm(g))


def _backtrack(theta, direction, grad, X, y, b, lam) -> np.ndarray:
    """Armijo backtracking from theta along -direction on the objective; the
    point it accepts, or the last one tried once the step falls to 1e-12."""
    decrease = float(grad @ direction)  # positive: direction is descent
    obj = _objective_raw(theta, X, y, b, lam)
    step = 1.0
    while step > 1e-12:
        cand = theta - step * direction
        if _objective_raw(cand, X, y, b, lam) <= obj - 1e-4 * step * decrease:
            break
        step *= 0.5
    return cand


def _on_support(view: WeightedTrainingView):
    """Features, float labels and weights of the view's rows of nonzero
    weight, the only rows the objective and its Hessian depend on."""
    X, y, b = view.pool.X, view.pool.y, view.weights
    support = b.nonzero()[0]
    if support.size < b.size:
        X, y, b = X[support], y[support], b[support]
    return X, y.astype(np.float64), b


def train(view: WeightedTrainingView, cfg: LearnerConfig) -> ModelParams:
    """`train_batch` on one row, the support of b: a fractional b costs
    O(|supp b|) per Newton step, not O(n), and the model has the bits of
    training on the pool's subset at the support with b restricted to it."""
    X, y, b = _on_support(view)
    return ModelParams(train_batch(X[None], y[None], cfg, b[None])[0])


def _invalid_newton_step(err, flag):
    raise TrainingError(
        "invalid value in a Newton step: the Newton system is singular or "
        "not finite")


def train_batch(
    X: np.ndarray, y: np.ndarray, cfg: LearnerConfig,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize the weighted regularized objective of each row of a batch by
    damped Newton steps. X is (B, m, d), y and weights (B, m), weights one
    by default; returns the (B, d) minimizers. Each row starts from zero and
    takes its full Newton step whenever that shrinks its residual (it always
    does in the quadratic regime, where an Armijo test would stall on float
    resolution), else backtracks with an Armijo condition. A row within
    cfg.tol drops out of the later steps, so it ends exactly where a batch of
    that row alone ends. Raises TrainingError carrying the largest residual
    if a row is above cfg.tol after cfg.max_iter steps.

    Every label must be +1 or -1: the margins are (-y * X) @ theta, with
    -y * X formed once per set of live rows, and that is -y * (X @ theta)
    to the bit only for |y| = 1. Each Newton system goes to `_solve`, the
    gufunc behind `np.linalg.solve`, which gives its bits without the
    wrapper's per-call overhead (see the module docstring). Where the
    wrapper would raise LinAlgError for a singular system, any invalid
    floating-point operation in the Newton loop, a singular solve included,
    raises TrainingError at once with residual None, whatever numpy's error
    state and the warning filters outside. For lam > 0 and nonnegative
    weights the Hessian is at least lam * I in exact arithmetic, but a lam
    below the rounding error of the loss Hessian's entries is lost when
    added: lam = 1e-20 on two copies of one point gives a singular system."""
    from scipy.special import expit

    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)[:, :, None]
    w = (np.ones(y.shape) if weights is None
         else np.asarray(weights, dtype=np.float64)[:, :, None])
    lam, tol = cfg.lam, cfg.tol
    ridge = lam * np.eye(X.shape[2])
    out = np.zeros((X.shape[0], X.shape[2], 1))
    rows = np.arange(X.shape[0])  # the batch rows still above tol

    # theta, its gradient and Newton direction are (rows, d, 1) columns
    def state(t):
        p = expit(nyX @ t)
        grad = Xt @ (nwy * p) + lam * t
        # np.linalg.norm(grad, axis=1) without its Python overhead, as
        # Python floats, on which the per-row tests below are cheapest
        return p, grad, np.sqrt(np.add.reduce(grad * grad, axis=1)).ravel().tolist()

    with np.errstate(invalid="call", call=_invalid_newton_step):
        Xt, nyX, nwy = X.transpose(0, 2, 1), -y * X, -(w * y)
        theta = out  # zero: out holds zeros until a row is done
        p, grad, residual = state(theta)
        for step in range(cfg.max_iter + 1):
            live = [k for k, r in enumerate(residual) if not r <= tol]  # NaN: live
            if not live or len(live) < rows.size:
                out[rows] = theta
                if not live:
                    return out[:, :, 0]
                rows, X, y, w, theta, p, grad = (
                    a[live] for a in (rows, X, y, w, theta, p, grad))
                residual = [residual[k] for k in live]
                Xt, nyX, nwy = X.transpose(0, 2, 1), -y * X, -(w * y)
            if step == cfg.max_iter:
                break
            hess = (X * (w * p * (1.0 - p))).transpose(0, 2, 1) @ X + ridge
            direction = _solve(hess, grad, signature="dd->d")

            cand = theta - direction
            cand_state = state(cand)
            damped = [k for k, (r, c) in enumerate(zip(residual, cand_state[2]))
                      if not c < r]
            for k in damped:
                cand[k, :, 0] = _backtrack(theta[k, :, 0], direction[k, :, 0],
                                           grad[k, :, 0], X[k], y[k, :, 0],
                                           w[k, :, 0], lam)
            if damped:
                cand_state = state(cand)
            theta, (p, grad, residual) = cand, cand_state

    worst = float(np.max(residual))  # NaN if any row's residual is NaN
    raise TrainingError(
        f"no convergence in {cfg.max_iter} iterations "
        f"(largest residual {worst:.3e})",
        residual=worst,
    )


def predict_error(theta: ModelParams, data: Dataset) -> float:
    """Fraction of sign disagreements; a zero margin predicts +1."""
    if len(data) == 0:
        raise DataError("prediction error on an empty dataset")
    preds = np.where(data.X @ theta.theta >= 0.0, 1, -1)
    return float(np.mean(preds != data.y))


def risk_gradient_wrt_weights(
    view: WeightedTrainingView,
    cfg: LearnerConfig,
    secret: Dataset,
    theta: ModelParams,
) -> np.ndarray:
    """Gradient of the secret-set risk of theta_hat(b) with respect to b,
    where theta = train(view, cfg) is the model trained on the view.

    Differentiates through the stationarity condition
    sum_i b_i grad_loss_i(theta_hat) + lam * theta_hat = 0: solve
    (H + lam I) u = -grad_theta(secret risk) with H the weighted loss
    Hessian, then g_i = <u, grad_loss_i(theta_hat)>. Requires lam > 0 so
    the system is nonsingular. H is formed on the support of b, as `train`
    forms it; g has an entry for every pool row, zero weight or not.
    """
    from scipy.special import expit

    X, y, b = _on_support(view)
    p = expit(-_margins(theta.theta, X, y))
    w = b * p * (1.0 - p)
    hess = (X.T * w) @ X + cfg.lam * np.eye(X.shape[1])

    secret_grad = np.mean(loss_gradients(theta, secret.X, secret.y), axis=0)
    try:
        u = np.linalg.solve(hess, -secret_grad)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"sensitivity system is singular: {exc}") from exc
    return loss_gradients(theta, view.pool.X, view.pool.y) @ u
