"""Output checks that do not trust the program under test.

Every quantity here is recomputed with plain numpy from its textbook
definition (RBF MMD, median-heuristic bandwidth, logistic loss, Newton's
method for the ridge-regularised logistic fit), or is a property the method
must have (budget respected, best-risk trajectory non-increasing, rounding
never worse than its seed, replay byte-identical). Nothing is compared with
a stored copy of earlier output. Each check raises CheckError on a wrong
result and returns the recomputed value it checked, if any.
"""

from __future__ import annotations

import math

import numpy as np

# Elements of one block of pairwise differences, to bound the memory the
# O(n^2) kernel and distance sums take (1.6 MB of float64 per temporary),
# so the checks stay below the program's own peak memory.
BLOCK_ELEMENTS = 200_000

# Two independent float64 computations of the same MMD or risk agree to
# about 1e-13; this leaves room without hiding a wrong formula.
VALUE_TOL = 1e-9


class CheckError(AssertionError):
    """A program output failed an independent check."""


def augmented(X: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Features with the label coordinate c * 1{y = +1} appended."""
    return np.column_stack([X, np.where(y == 1, c, 0.0)])


def _row_blocks(A: np.ndarray, B: np.ndarray):
    """Yield (start, squared distances of a block of A's rows to all of B)."""
    rows = max(1, BLOCK_ELEMENTS // max(1, B.shape[0] * B.shape[1]))
    for start in range(0, A.shape[0], rows):
        diff = A[start:start + rows, None, :] - B[None, :, :]
        yield start, np.einsum("ijk,ijk->ij", diff, diff)


def kernel_mean(A: np.ndarray, B: np.ndarray, sigma: float) -> float:
    """Mean of exp(-||a - b||^2 / (2 sigma^2)) over all pairs (a, b)."""
    total = 0.0
    for _, sq in _row_blocks(A, B):
        total += float(np.exp(-sq / (2.0 * sigma * sigma)).sum())
    return total / (A.shape[0] * B.shape[0])


def pairwise_distances(A: np.ndarray) -> np.ndarray:
    """Euclidean distances of all pairs i < j, in row-major order."""
    n = A.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for start, sq in _row_blocks(A, A):
        for k, row in enumerate(sq):
            tail = row[start + k + 1:]
            out[pos:pos + tail.size] = np.sqrt(tail)
            pos += tail.size
    return out


def calibration(X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(sigma, c) of the detector: c is the largest intra-class feature
    distance, sigma the median pairwise distance of augmented points."""
    c = max(
        float(pairwise_distances(X[y == sign]).max())
        for sign in (-1, 1) if int((y == sign).sum()) >= 2
    )
    sigma = float(np.median(pairwise_distances(augmented(X, y, c)),
                            overwrite_input=True))
    return sigma, c


def threshold(n: int, m: int, alpha: float, kernel_bound: float) -> float:
    """Level-alpha concentration threshold of the biased MMD statistic."""
    K = kernel_bound
    return (2.0 * (math.sqrt(K / n) + math.sqrt(K / m))
            + math.sqrt(2.0 * K * (n + m) / (n * m) * math.log(1.0 / alpha)))


class TextbookDetector:
    """The two-sample test of one pool, written from its definition.

    The pool-pool kernel mean is the only O(n^2) term and is computed once.
    """

    def __init__(self, X, y, sigma: float, c: float, alpha: float,
                 kernel_bound: float):
        self.Z = augmented(np.asarray(X, float), np.asarray(y), c)
        self.sigma = sigma
        self.alpha, self.kernel_bound = alpha, kernel_bound
        self.pool_term = kernel_mean(self.Z, self.Z, sigma)

    def mmd(self, indices) -> float:
        S = self.Z[np.asarray(indices, dtype=np.int64)]
        value = (self.pool_term - 2.0 * kernel_mean(self.Z, S, self.sigma)
                 + kernel_mean(S, S, self.sigma))
        return math.sqrt(max(value, 0.0))

    def psi(self, indices) -> float:
        return self.mmd(indices) - threshold(
            len(self.Z), len(indices), self.alpha, self.kernel_bound)


def check_calibration(sigma: float, c: float, X, y) -> None:
    """The program's frozen (sigma, c) equal the textbook calibration."""
    want_sigma, want_c = calibration(np.asarray(X, float), np.asarray(y))
    if not (math.isclose(sigma, want_sigma, rel_tol=VALUE_TOL)
            and math.isclose(c, want_c, rel_tol=VALUE_TOL)):
        raise CheckError(
            f"calibration (sigma={sigma!r}, c={c!r}) differs from "
            f"(sigma={want_sigma!r}, c={want_c!r})")


def check_passes_detector(detector: TextbookDetector, indices,
                          reported_psi: float | None = None) -> float:
    """The delivered set has psi < 0 under the textbook MMD, and the psi the
    program reported matches it."""
    value = detector.psi(indices)
    if not value < 0.0:
        raise CheckError(f"delivered set is flagged: psi={value!r} >= 0")
    if reported_psi is not None and abs(value - reported_psi) > VALUE_TOL:
        raise CheckError(f"reported psi {reported_psi!r} != textbook {value!r}")
    return value


def logistic_risk(theta, X, y) -> float:
    """Mean natural-log logistic loss of theta on (X, y)."""
    margins = np.asarray(y, float) * (np.asarray(X, float) @ np.asarray(theta, float))
    return float(np.mean(np.logaddexp(0.0, -margins)))


def error_rate(theta, X, y) -> float:
    """Share of sign disagreements; a zero margin predicts +1."""
    pred = np.where(np.asarray(X, float) @ np.asarray(theta, float) >= 0.0, 1, -1)
    return float(np.mean(pred != np.asarray(y)))


def stationarity(theta, X, y, lam: float) -> float:
    """Norm of the gradient of sum_i loss_i + (lam/2) ||theta||^2."""
    theta = np.asarray(theta, float)
    y = np.asarray(y, float)
    margins = y * (X @ theta)
    p = np.exp(-np.logaddexp(0.0, margins))  # sigmoid(-margin)
    grad = -(X.T @ (y * p)) + lam * theta
    return float(np.linalg.norm(grad))


def fit_logistic(X, y, lam: float, tol: float = 1e-9,
                 max_iter: int = 200) -> np.ndarray:
    """Ridge-regularised logistic regression by Newton's method: the full
    step when it shrinks the gradient, else backtracking on the objective.
    Raises CheckError if it does not reach the stationarity tolerance."""
    X = np.asarray(X, float)
    yf = np.asarray(y, float)
    theta = np.zeros(X.shape[1])

    def objective(t):
        return float(np.logaddexp(0.0, -yf * (X @ t)).sum() + 0.5 * lam * t @ t)

    def gradient(t):
        p = np.exp(-np.logaddexp(0.0, yf * (X @ t)))  # sigmoid(-margin)
        return -(X.T @ (yf * p)) + lam * t, p

    grad, p = gradient(theta)
    for _ in range(max_iter):
        if np.linalg.norm(grad) <= tol:
            return theta
        hess = (X * (p * (1.0 - p))[:, None]).T @ X + lam * np.eye(X.shape[1])
        step = np.linalg.solve(hess, grad)
        t = 1.0
        new_grad, new_p = gradient(theta - step)
        if np.linalg.norm(new_grad) >= np.linalg.norm(grad):
            base = objective(theta)
            while (t > 1e-12 and objective(theta - t * step)
                   > base - 1e-4 * t * float(grad @ step)):
                t *= 0.5
            new_grad, new_p = gradient(theta - t * step)
        theta = theta - t * step
        grad, p = new_grad, new_p
    if np.linalg.norm(grad) <= tol:
        return theta
    raise CheckError("reference logistic fit did not converge")


def check_stationary(theta, X, y, lam: float, tol: float) -> float:
    """The delivered model satisfies the learner's stopping rule."""
    resid = stationarity(theta, np.asarray(X, float), y, lam)
    if not resid <= tol:
        raise CheckError(f"stationarity residual {resid:.3e} > tol {tol:.3e}")
    return resid


def check_risk(reported: float, theta, X, y) -> float:
    """A reported secret-set risk equals the recomputed mean logistic loss."""
    value = logistic_risk(theta, X, y)
    if not abs(value - reported) <= VALUE_TOL * max(1.0, abs(value)):
        raise CheckError(f"reported risk {reported!r} != recomputed {value!r}")
    return value


def check_budget(used: int, budget: int) -> None:
    if not 0 < used <= budget:
        raise CheckError(f"{used} trainings charged against a budget of {budget}")


def check_trajectory(trajectory, best_risk: float) -> None:
    """Best-risk trajectory is non-increasing, its training counts increase,
    and it ends at the reported best risk."""
    if not trajectory:
        raise CheckError("empty trajectory")
    counts = [int(c) for c, _ in trajectory]
    risks = [float(r) for _, r in trajectory]
    if any(b < a for a, b in zip(counts, counts[1:])):
        raise CheckError(f"trajectory training counts decrease: {counts}")
    if any(b > a for a, b in zip(risks, risks[1:])):
        raise CheckError("trajectory risk increases")
    if risks[-1] != best_risk:
        raise CheckError(f"trajectory ends at {risks[-1]!r}, best is {best_risk!r}")


def check_not_worse(result_risk: float, seed_risk: float) -> None:
    """Rounding never returns a set worse than the seed set it started from."""
    if not result_risk <= seed_risk + VALUE_TOL:
        raise CheckError(f"result risk {result_risk!r} worse than seed {seed_risk!r}")


def check_ordering(oracle: float, solver: float, random: float, name: str,
                   test_points: int) -> None:
    """oracle <= solver <= random in mean test error over `test_points`
    test predictions.

    The oracle trains on the secret set itself but is no bound on test
    error: near zero error a solver set may beat it by a few test points.
    The solver may undercut the oracle by two binomial standard errors of
    the oracle's error (at least one test point), no more.
    """
    slack = max(2.0 * math.sqrt(oracle * (1.0 - oracle) / test_points),
                1.0 / test_points)
    if not (oracle - slack <= solver <= random):
        raise CheckError(
            f"{name}: mean test errors break oracle {oracle:.4f} <= "
            f"solver {solver:.4f} <= random {random:.4f} "
            f"(slack {slack:.4f} over {test_points} test points)")


def check_replay(original: bytes, replay: bytes) -> None:
    if original != replay:
        raise CheckError("replayed result.json differs from the original")


def check_span_sum(wall: float, attributed: float, tolerance: float) -> None:
    """An operation's spans account for its wall time: what the spans cover
    is not more than the wall time, and the rest is within `tolerance`."""
    gap = wall - attributed
    if not -1e-6 <= gap <= tolerance:
        raise CheckError(
            f"spans cover {attributed:.6f} s of a {wall:.6f} s operation "
            f"(tolerance {tolerance:.6f} s)")
