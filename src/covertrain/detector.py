"""RBF-kernel MMD detection with a concentration-bound threshold.

The detector compares a delivered training set D against the public pool C.
Both samples are first augmented with a scaled class-label coordinate
[x, c * 1{y = +1}] so the test monitors the joint feature-label
distribution. The statistic is the biased (V-statistic) empirical MMD

    MMD(Z, Z') = [ (1/n^2) sum k(z_i, z_j) - (2/nm) sum k(z_i, z'_j)
                   + (1/m^2) sum k(z'_i, z'_j) ]^(1/2)

with all i = j diagonal terms included, which is what makes MMD(Z, Z) = 0
hold exactly. The decision threshold for a level-alpha test is

    T = 2 (sqrt(K/n) + sqrt(K/m)) + sqrt(2K(n+m)/(nm) * log(1/alpha))

where K bounds the kernel values (K = 1 for the RBF kernel). A sample is
flagged suspicious when psi = MMD - T >= 0.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .data import CandidateSet, Dataset

# A subset passes the detector, psi < 0, when psi <= -FEASIBILITY_SLACK.
FEASIBILITY_SLACK = 1e-9


class DetectorError(ValueError):
    """Invalid detector configuration or degenerate inputs."""


def augment(X: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Append the scaled label indicator c * 1{y = +1} as a coordinate."""
    col = np.where(np.asarray(y) == 1, float(c), 0.0)
    return np.hstack([np.asarray(X, dtype=np.float64), col[:, None]])


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


# Worker threads for the O(n^2) passes; they start on the first submit. The
# work runs in scipy and numpy kernels that release the GIL.
_WORKERS = _cpu_count()


def _start_executor() -> None:
    """Give the process its own executor. A forked child inherits the
    parent's executor but not its threads, so a task it submitted there
    would wait forever; it starts a fresh one instead."""
    global _EXECUTOR
    _EXECUTOR = ThreadPoolExecutor(max_workers=_WORKERS,
                                   thread_name_prefix="covertrain-detector")


_start_executor()
os.register_at_fork(after_in_child=_start_executor)

# Entries (kernel values, distances or summands) each worker task computes
# at least: work below two tasks' worth, such as a 200-point pool's, stays
# on the calling thread, where a submit would cost more than it saves.
_TASK_ENTRIES = 1 << 18


def _in_row_blocks(task, row_cost: np.ndarray) -> None:
    """Call task(lo, hi) on consecutive row blocks that cover every row.

    row_cost[i] is the number of entries row i computes. The rows split into
    blocks of about equal cost, at most one per worker and at most one per
    `_TASK_ENTRIES` entries, run on the executor; a single block runs on the
    calling thread. Each task writes only its own block's part of the
    result, so the result does not depend on the split. A task must not
    submit to the executor itself: with every worker waiting on it, its own
    tasks would never run.
    """
    rows = row_cost.shape[0]
    total = int(row_cost.sum())
    count = min(_WORKERS, rows, total // _TASK_ENTRIES)
    if count < 2:
        task(0, rows)
        return
    cum = np.cumsum(row_cost)
    inner = np.searchsorted(cum, total * np.arange(1, count) / count) + 1
    edges = np.unique(np.concatenate(([0], inner, [rows])))
    futures = [_EXECUTOR.submit(task, lo, hi)
               for lo, hi in zip(edges[:-1], edges[1:])]
    for future in futures:
        future.result()


def gram(Z1: np.ndarray, Z2: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel matrix between two point sets, shape (len(Z1), len(Z2)).

    The float64 result is built in place, in row blocks on the worker
    threads once it is large (`_in_row_blocks`); every entry is
    exp(-|z1 - z2|^2 / (2 sigma^2)) with the same bits however the rows are
    split. The peak is one matrix of len(Z1) * len(Z2) * 8 bytes. A result
    larger than physical memory raises DetectorError before anything is
    allocated.
    """
    if sigma <= 0:
        raise DetectorError("sigma must be positive")
    Z1 = np.atleast_2d(Z1)
    Z2 = np.atleast_2d(Z2)
    rows, cols = Z1.shape[0], Z2.shape[0]
    needed = rows * cols * 8
    available = _physical_memory()
    if needed > available:
        raise DetectorError(
            f"{rows}x{cols} Gram matrix needs {needed} bytes, more than the "
            f"{available} bytes of physical memory"
        )
    K = np.empty((rows, cols))
    # Dividing by -2 sigma^2 gives the bits of negating, then dividing by
    # 2 sigma^2, in one pass.
    scale = -2.0 * sigma * sigma

    def block(lo, hi):
        part = K[lo:hi]
        cdist(Z1[lo:hi], Z2, "sqeuclidean", out=part)
        np.divide(part, scale, out=part)
        np.exp(part, out=part)

    _in_row_blocks(block, np.full(rows, cols))
    return K


def _pair_distances(P: np.ndarray) -> np.ndarray:
    """Euclidean distances of all n(n-1)/2 pairs of rows of P.

    These are pdist(P)'s values in another order: each row block fills the
    stretch pdist gives its pairs with its own pdist, then its cdist to the
    rows after it. Statistics that do not depend on order (max, median) get
    the same bits from every split.
    """
    n = P.shape[0]
    out = np.empty(n * (n - 1) // 2)

    def block(lo, hi):
        start = lo * n - lo * (lo + 1) // 2  # pairs of the rows before lo
        k = hi - lo
        within = k * (k - 1) // 2
        pdist(P[lo:hi], out=out[start:start + within])
        cross = out[start + within:start + within + k * (n - hi)]
        cdist(P[lo:hi], P[hi:], out=cross.reshape(k, n - hi))

    _in_row_blocks(block, n - 1 - np.arange(n))
    return out


def label_scale(pool: Dataset) -> float:
    """Largest intra-class pairwise feature distance over the pool.

    This is the scale c of the label coordinate. At least one class must
    have two members.
    """
    best = None
    for sign in (-1, 1):
        pts = pool.X[pool.y == sign]
        if pts.shape[0] >= 2:
            dmax = float(_pair_distances(pts).max())
            best = dmax if best is None else max(best, dmax)
    if best is None:
        raise DetectorError("no class has two members; label scale undefined")
    return best


def median_heuristic_sigma(pool: Dataset, c: float) -> float:
    """Median pairwise distance between augmented pool points.

    All n(n-1)/2 pairs enter, zero distances from duplicates included; an
    even pair count takes the mean of the two central order statistics
    (plain median, bit-identical to np.median). Errors out when every
    pairwise distance is zero.
    """
    if len(pool) < 2:
        raise DetectorError("median heuristic needs at least two points")
    dists = _pair_distances(augment(pool.X, pool.y, c))
    if float(dists.max()) == 0.0:
        raise DetectorError("degenerate pool: all pairwise distances are zero")
    # np.median's own expression, on one in-place partition instead of a
    # partitioned copy: part[:k].max() is the (k-1)-th order statistic.
    k = dists.size // 2
    dists.partition(k)
    if dists.size % 2:
        return float(dists[k])
    return float(np.mean([dists[:k].max(), dists[k]]))


@dataclass(frozen=True)
class DetectorConfig:
    """Frozen per-pool detector parameters.

    sigma and label_scale_c are computed once from the full pool at run
    start (`from_pool`) and never depend on any candidate subset.
    """

    alpha: float
    sigma: float
    label_scale_c: float
    kernel_bound: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DetectorError("alpha must lie in (0, 1)")
        if not self.sigma > 0:
            raise DetectorError("sigma must be positive")
        if self.label_scale_c < 0:
            raise DetectorError("label scale must be nonnegative")
        if not self.kernel_bound > 0:
            raise DetectorError("kernel bound must be positive")

    @classmethod
    def from_pool(cls, pool: Dataset, alpha: float = 0.05) -> "DetectorConfig":
        c = label_scale(pool)
        sigma = median_heuristic_sigma(pool, c)
        return cls(alpha=alpha, sigma=sigma, label_scale_c=c, kernel_bound=1.0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DetectionVerdict:
    mmd: float
    threshold: float
    psi: float
    suspicious: bool

    def to_dict(self) -> dict:
        return asdict(self)


def mmd(Z: np.ndarray, Zp: np.ndarray, cfg: DetectorConfig) -> float:
    """Biased empirical MMD between two augmented samples.

    The radicand is clamped at zero before the square root to absorb
    negative floating-point residue of order -1e-17.
    """
    Z = np.atleast_2d(Z)
    Zp = np.atleast_2d(Zp)
    if Z.shape[0] < 1 or Zp.shape[0] < 1:
        raise DetectorError("mmd needs at least one point per sample")
    term_nn = float(gram(Z, Z, cfg.sigma).mean())
    term_nm = float(gram(Z, Zp, cfg.sigma).mean())
    term_mm = float(gram(Zp, Zp, cfg.sigma).mean())
    return math.sqrt(max(term_nn - 2.0 * term_nm + term_mm, 0.0))


def mmd_threshold(n: int, m: int, cfg: DetectorConfig) -> float:
    """Level-alpha concentration threshold T for sample sizes n and m."""
    if n < 1 or m < 1:
        raise DetectorError("sample sizes must be positive")
    K = cfg.kernel_bound
    dev = 2.0 * (math.sqrt(K / n) + math.sqrt(K / m))
    eps = math.sqrt(2.0 * K * (n + m) / (n * m) * math.log(1.0 / cfg.alpha))
    return dev + eps


def detect(pool: Dataset, sample: Dataset, cfg: DetectorConfig) -> DetectionVerdict:
    """Run the two-sample test of `sample` against `pool`."""
    if pool.dimension != sample.dimension:
        raise DetectorError("pool and sample dimensions differ")
    Z = augment(pool.X, pool.y, cfg.label_scale_c)
    Zp = augment(sample.X, sample.y, cfg.label_scale_c)
    value = mmd(Z, Zp, cfg)
    threshold = mmd_threshold(len(pool), len(sample), cfg)
    psi_value = value - threshold  # both terms are Python floats
    return DetectionVerdict(mmd=value, threshold=threshold, psi=psi_value,
                            suspicious=psi_value >= 0.0)


def psi(pool: Dataset, candidate: CandidateSet, cfg: DetectorConfig) -> DetectionVerdict:
    """Verdict on a candidate index subset of the pool."""
    if len(candidate) == 0:
        raise DetectorError("cannot test an empty candidate set")
    return detect(pool, pool.subset(candidate.indices), cfg)


def weighted_mmd(pool_augmented: np.ndarray, b: np.ndarray, cfg: DetectorConfig) -> float:
    """Weighted MMD between the pool and its b-weighted soft subset.

    For b with sum s this is

        [ (1/n^2) sum_ij k_ij - (2/(n s)) sum_ij b_i k_ij
          + (1/s^2) sum_ij b_i b_j k_ij ]^(1/2)

    and reduces exactly to mmd(C, C_S) when b is the indicator of S.
    """
    K = gram(pool_augmented, pool_augmented, cfg.sigma)
    b = _check_weights(b, K.shape[0])
    return _weighted_mmd(b, _support_product(K, b), *_pool_sums(K))


def _pool_sums(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Row sums of a pool Gram matrix, and their total over n^2 (the
    weight-free first term of the MMD radicand). Each row reduces as in
    K.sum(axis=1), in row blocks on the worker threads for a large K."""
    n = K.shape[0]
    row_sums = np.empty(n)

    def block(lo, hi):
        np.sum(K[lo:hi], axis=1, out=row_sums[lo:hi])

    _in_row_blocks(block, np.full(n, n))
    return row_sums, float(row_sums.sum()) / (n * n)


def _check_weights(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != n:
        raise DetectorError(f"{b.shape[0]} weights for pool of {n}")
    if b.min() < -1e-12 or b.max() > 1 + 1e-12:
        raise DetectorError("weights must lie in [0, 1]")
    s = float(b.sum())
    if s <= 0:
        raise DetectorError("weights must have positive sum")
    # The weighted MMD divides by s^2 and its gradient by s^3.
    if s ** 3 < np.finfo(np.float64).tiny:
        raise DetectorError(f"weights sum to {s:.3g}, too small to normalise by")
    return b


# Bytes of K's rows gathered at once by `_support_product`.
_GATHER_BYTES = 1 << 23


def _support_product(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K @ b for a symmetric K, as b[S] @ K[S] over the support S of b.

    Costs O(|S| n) instead of O(n^2). Every nonzero weight is in S, the
    slightly negative ones that `_check_weights` allows included. K's rows
    are gathered in blocks of at most `_GATHER_BYTES`, so a dense b never
    copies K whole. A block of consecutive indices lo..hi-1 takes the view
    K[:, lo:hi] instead, so a b with no zero at n <= 1024 gets K @ b itself.
    """
    n = K.shape[0]
    support = np.flatnonzero(b)
    step = max(1, _GATHER_BYTES // (8 * n))
    Kb = np.zeros(n)
    for start in range(0, support.size, step):
        rows = support[start:start + step]
        lo, hi = rows[0], rows[-1] + 1
        if hi - lo == rows.size:
            Kb += K[:, lo:hi] @ b[lo:hi]
        else:
            Kb += b[rows] @ K[rows]
    return Kb


def _weighted_mmd(
    b: np.ndarray, Kb: np.ndarray, row_sums: np.ndarray, pool_term: float
) -> float:
    """The weighted MMD from checked weights b, the product K @ b and the
    pool's `_pool_sums`."""
    n = row_sums.shape[0]
    s = float(b.sum())
    term_ns = float(b @ row_sums) / (n * s)
    term_ss = float(b @ Kb) / (s * s)
    return math.sqrt(max(pool_term - 2.0 * term_ns + term_ss, 0.0))


class PoolKernel:
    """Precomputed Gram machinery for one pool under one detector config.

    The (n, n) kernel matrix over the augmented pool and its row sums are
    computed once, in row blocks on the worker threads for a large pool
    (bit-identical to one pass), and shared read-only, so a candidate's MMD
    costs O(nm + m^2) and the weighted variant and its gradient
    O(|supp b| n). All methods are pure.
    """

    def __init__(self, pool: Dataset, cfg: DetectorConfig):
        self.cfg = cfg
        self.pool = pool
        self.n = len(pool)
        Z = augment(pool.X, pool.y, cfg.label_scale_c)
        self.K = gram(Z, Z, cfg.sigma)
        self.K.setflags(write=False)
        self._row_sums, self._pool_term = _pool_sums(self.K)

    def fits(self, pool: Dataset, cfg: DetectorConfig) -> bool:
        """True when this is the kernel of `pool`'s contents under `cfg`."""
        return (cfg == self.cfg and np.array_equal(pool.X, self.pool.X)
                and np.array_equal(pool.y, self.pool.y))

    def threshold(self, m: int) -> float:
        return mmd_threshold(self.n, m, self.cfg)

    def mmd_indices(self, indices) -> float:
        idx = np.asarray(indices, dtype=np.int64)
        m = idx.size
        if m < 1:
            raise DetectorError("cannot test an empty candidate set")
        cross = float(self._row_sums[idx].sum()) / (self.n * m)
        within = float(self.K[np.ix_(idx, idx)].sum()) / (m * m)
        return math.sqrt(max(self._pool_term - 2.0 * cross + within, 0.0))

    def psi_indices(self, indices) -> float:
        return self.mmd_indices(indices) - self.threshold(len(indices))

    def feasible(self, indices, slack: float = FEASIBILITY_SLACK) -> bool:
        """Strict inequality psi < 0, implemented as psi <= -slack."""
        return self.psi_indices(indices) <= -slack

    def weighted(self, b: np.ndarray) -> float:
        b = _check_weights(b, self.n)
        return _weighted_mmd(b, _support_product(self.K, b), self._row_sums,
                             self._pool_term)

    def weighted_grad(self, b: np.ndarray) -> np.ndarray:
        """Gradient of the weighted MMD w.r.t. b (zero where the radicand
        vanishes, where the square root is not differentiable)."""
        b = _check_weights(b, self.n)
        s = float(b.sum())
        r = self._row_sums
        Kb = _support_product(self.K, b)
        P = float(b @ r)
        Q = float(b @ Kb)
        value = _weighted_mmd(b, Kb, r, self._pool_term)
        if value < 1e-12:
            return np.zeros_like(b)
        dV = (
            -2.0 * r / (self.n * s)
            + 2.0 * P / (self.n * s * s)
            + 2.0 * Kb / (s * s)
            - 2.0 * Q / (s ** 3)
        )
        return dV / (2.0 * value)
