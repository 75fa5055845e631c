"""Regularized logistic regression: training, risk, and weight sensitivities.

The learner minimizes an unnormalized weighted loss sum plus an L2 ridge,

    J(theta) = sum_i b_i * log(1 + exp(-y_i <theta, x_i>)) + (lam/2) ||theta||^2,

with natural logarithms throughout. Risk on an evaluation set is the *mean*
loss; the two normalizations are intentionally different and must not be
conflated. For lam > 0 the objective is strongly convex, so the minimizer
theta_hat is unique and training is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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


def _margins(theta_vec: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (X @ theta_vec)


def instance_losses(theta: ModelParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-instance log(1 + exp(-y <theta, x>)), evaluated as
    logaddexp(0, -y <theta, x>) so large margins of either sign stay finite."""
    return np.logaddexp(0.0, -_margins(theta.theta, X, y))


def loss_gradients(theta: ModelParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-instance loss gradients w.r.t. theta, one row per instance:
    grad_i = -y_i * sigmoid(-y_i <theta, x_i>) * x_i."""
    p = expit(-_margins(theta.theta, X, y))
    return (-(y * p))[:, None] * X


def empirical_risk(theta: ModelParams, data: Dataset) -> float:
    """Mean logistic loss over a non-empty dataset."""
    if len(data) == 0:
        raise DataError("empirical risk of an empty dataset")
    return float(np.mean(instance_losses(theta, data.X, data.y)))


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


def train(view: WeightedTrainingView, cfg: LearnerConfig) -> ModelParams:
    """Minimize the weighted regularized objective by damped Newton steps.

    Starts from zero, backtracks with an Armijo condition, and
    stops when the stationarity residual drops to cfg.tol. Raises
    TrainingError carrying the final residual if max_iter is exhausted.

    Rows of zero weight add nothing to the objective, so the fit runs on
    the support of b alone: a fractional b of the relaxation costs
    O(|supp b|) per step, not O(n), and the result has the bits of
    training on the pool's subset at the support with b restricted to it.
    """
    X, y, b = view.pool.X, view.pool.y, view.weights
    support = np.flatnonzero(b)
    if support.size < b.size:
        X, y, b = X[support], y[support], b[support]
    y = y.astype(np.float64)
    lam = cfg.lam
    eye = np.eye(X.shape[1])

    def state(t):
        p = expit(-_margins(t, X, y))
        grad = X.T @ (-(b * y * p)) + lam * t
        return p, grad, float(np.linalg.norm(grad))

    theta = np.zeros(X.shape[1])
    p, grad, residual = state(theta)
    for _ in range(cfg.max_iter):
        if residual <= cfg.tol:
            return ModelParams(theta)
        w = b * p * (1.0 - p)
        hess = (X.T * w) @ X + lam * eye
        direction = np.linalg.solve(hess, grad)

        # full Newton step whenever it shrinks the residual (it always does
        # in the quadratic regime, where objective differences fall below
        # float resolution and an Armijo test would stall)
        cand = theta - direction
        cand_state = state(cand)
        if not cand_state[2] < residual:
            cand = _backtrack(theta, direction, grad, X, y, b, lam)
            cand_state = state(cand)
        theta, (p, grad, residual) = cand, cand_state

    if residual <= cfg.tol:
        return ModelParams(theta)
    raise TrainingError(
        f"no convergence in {cfg.max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def train_batch(X: np.ndarray, y: np.ndarray, cfg: LearnerConfig) -> np.ndarray:
    """Train one model per row of a batch of unit-weight training sets.

    X has shape (B, m, d) and y shape (B, m); returns the (B, d) minimizers.
    Runs train's method on all rows at once: each row starts from zero,
    takes its full Newton step whenever that shrinks its residual and
    otherwise train's Armijo backtracking. A row whose residual is within
    cfg.tol is left unchanged from then on, so each row ends exactly where
    a batch of that row alone ends. Raises TrainingError carrying the
    largest residual if any row is still above cfg.tol after cfg.max_iter
    steps.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Xt = np.swapaxes(X, 1, 2)
    lam = cfg.lam
    eye = np.eye(X.shape[2])
    ones = np.ones(X.shape[1])

    def state(t):
        p = expit(-(y * (X @ t[:, :, None])[:, :, 0]))
        grad = (Xt @ (-(y * p))[:, :, None])[:, :, 0] + lam * t
        return p, grad, np.linalg.norm(grad, axis=1, keepdims=True)

    theta = np.zeros((X.shape[0], X.shape[2]))
    p, grad, residual = state(theta)
    for _ in range(cfg.max_iter):
        active = ~(residual <= cfg.tol)  # (B, 1); a NaN row stays active
        if not active.any():
            return theta
        hess = (Xt * (p * (1.0 - p))[:, None, :]) @ X + lam * eye
        direction = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]

        cand = theta - direction
        cand_state = state(cand)
        damped = np.flatnonzero(active & ~(cand_state[2] < residual))
        for k in damped:
            cand[k] = _backtrack(theta[k], direction[k], grad[k], X[k], y[k], ones, lam)
        if damped.size:
            cand_state = state(cand)
        theta, p, grad, residual = (
            np.where(active, new, old)
            for new, old in zip((cand, *cand_state), (theta, p, grad, residual)))

    if np.all(residual <= cfg.tol):
        return theta
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
    the system is nonsingular.
    """
    X, y, b = view.pool.X, view.pool.y.astype(np.float64), view.weights
    th = theta.theta

    p = expit(-_margins(th, X, y))
    w = b * p * (1.0 - p)
    hess = (X.T * w) @ X + cfg.lam * np.eye(X.shape[1])

    secret_grad = np.mean(loss_gradients(theta, secret.X, secret.y), axis=0)
    try:
        u = np.linalg.solve(hess, -secret_grad)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"sensitivity system is singular: {exc}") from exc
    return loss_gradients(theta, X, y) @ u
