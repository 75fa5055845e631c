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

Every sum of kernel values over a rectangle of points, whether in verify's
`mmd`, a `PoolKernel`'s row sums or `weighted_mmd`'s, comes from one pass in
fixed square tiles (`_row_sums`), so its bits do not depend on the number
of workers and no n x m matrix is allocated. Squared distances come from
numpy for a small pool and from scipy.spatial for a larger one, with the
same bits (`_distances_for`).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

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


# Row blocks per O(n^2) pass at most: one per CPU this process may use. The
# work runs in scipy and numpy kernels that release the GIL.
_WORKERS = _cpu_count()

# Entries (kernel values, distances or summands) each worker task computes
# at least: work below two tasks' worth, such as a 200-point pool's, stays
# on the calling thread, where starting a thread would cost more than it
# saves.
_TASK_ENTRIES = 1 << 18

# Bytes of kernel values one tile of `_row_sums` or one chunk of
# `_support_rows` holds at once, about.
_CHUNK_BYTES = 1 << 20

# Squared-difference terms n^2 (d+1) of the largest pool whose distances
# numpy computes, one 8-byte term per entry of a `_CHUNK_BYTES` chunk:
# 131,072, so an n = 200, d = 2 pool (120,000) is small. numpy takes up to
# 1.6x cdist's time on such a pool's calls, and up to 2.6x on a larger or
# wider tile (BENCH_small_pool_distances.json), so larger pools keep scipy's;
# a process that handles only small pools never imports scipy.spatial, which
# costs 12 MB of memory and 0.15 s.
_NUMPY_TERMS = _CHUNK_BYTES // 8


def _in_row_blocks(task, row_cost: np.ndarray) -> None:
    """Call task(lo, hi) on consecutive row blocks that cover every row.

    row_cost[i] is the number of entries row i computes. The rows split into
    blocks of about equal cost, at most one per worker and at most one per
    `_TASK_ENTRIES` entries. The first block runs on the calling thread and
    each other block on a thread started for this call; every such thread
    has exited when the call returns, so no thread outlives a pass and a
    forked child or a task that calls in again has no pool to wait on. A
    single block starts no thread. Each task writes only its own block's
    part of the result, so the result does not depend on the split.
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
    first, *rest = zip(edges[:-1], edges[1:])
    # Imported here, where a thread starts: it loads logging too.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=count - 1,
                            thread_name_prefix="covertrain-detector") as pool:
        futures = [pool.submit(task, lo, hi) for lo, hi in rest]
        task(*first)
    for future in futures:
        future.result()


# Each thread's temporary for `_numpy_cdist`, grown to its largest call (at
# most 512 KB, since only small pools use it) and kept: a new temporary on
# each call made the routine's time in an accept-run operation 7-15% longer.
_TEMPORARY = threading.local()


def _numpy_cdist(A: np.ndarray, B: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """cdist(A, B, "sqeuclidean") in numpy, bit for bit, in place in `out`
    when given: out = (a_0 - b_0)^2, then out += (a_j - b_j)^2 for each
    further column j, in cdist's order of terms.

    Column j's n x m differences are one matrix product, [a_j, -1] @
    [1; b_j]. Both of its products are exact, so their sum is a_j - b_j
    rounded once, as subtracting rounds it, whatever order or fused
    multiply-add the BLAS uses; only the sign of a zero difference may
    differ, and squaring drops it. A 200 x 200 product takes a third of the
    time of numpy's broadcast subtraction (16 against 52 us). Later columns
    go through one temporary per thread, kept between calls."""
    if out is None:
        out = np.empty((A.shape[0], B.shape[0]))
    n, k = A.shape
    if k == 0:  # no coordinates: cdist's sums are all empty
        out.fill(0.0)
        return out
    left = np.empty((k, n, 2))
    left[:, :, 0] = A.T
    left[:, :, 1] = -1.0
    right = np.empty((k, 2, B.shape[0]))
    right[:, 0] = 1.0
    right[:, 1] = B.T
    np.matmul(left[0], right[0], out=out)
    np.square(out, out=out)
    if k > 1:
        spare = getattr(_TEMPORARY, "buf", None)
        if spare is None or spare.size < out.size:
            spare = _TEMPORARY.buf = np.empty(out.size)
        term = spare[:out.size].reshape(out.shape)
        for j in range(1, k):
            np.matmul(left[j], right[j], out=term)
            np.square(term, out=term)
            np.add(out, term, out=out)
    return out


def _numpy_pdist(P: np.ndarray, out: np.ndarray) -> None:
    """pdist(P, "sqeuclidean") into `out`, bit for bit: the strict upper
    triangle of `_numpy_cdist(P, P)`, row by row."""
    rows = np.arange(P.shape[0])
    out[:] = _numpy_cdist(P, P)[rows[:, None] < rows]


def _scipy_cdist(A: np.ndarray, B: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """cdist(A, B, "sqeuclidean"), in place in `out` when given.
    scipy.spatial loads on the first call, not when covertrain is imported."""
    from scipy.spatial.distance import cdist

    return cdist(A, B, "sqeuclidean", out=out)


def _scipy_pdist(P: np.ndarray, out: np.ndarray) -> None:
    """pdist(P, "sqeuclidean") into `out`."""
    from scipy.spatial.distance import pdist

    pdist(P, "sqeuclidean", out=out)


def _distances_for(terms: int):
    """The squared-distance routines, (cdist, pdist), for a pass of `terms`
    squared differences: numpy's up to `_NUMPY_TERMS`, scipy's above. Both
    give the same bits. Callers pick once per pool, by the n^2 (d+1) terms
    of its full pass (`_pool_cdist`), or per pass in `gram`, so every pass
    of a larger pool, its small edge tiles and samples included, runs
    scipy's."""
    if terms <= _NUMPY_TERMS:
        return _numpy_cdist, _numpy_pdist
    return _scipy_cdist, _scipy_pdist


def _pool_cdist(Z: np.ndarray):
    """The cdist routine for the pool whose augmented points are Z."""
    return _distances_for(Z.shape[0] * Z.shape[0] * Z.shape[1])[0]


def _kernels(A: np.ndarray, B: np.ndarray, scale: float, cdist,
             out: np.ndarray | None = None) -> np.ndarray:
    """exp(cdist(A, B) / scale), in place in `out` when given, with scale =
    -2 sigma^2 and `cdist` a squared-distance routine from `_distances_for`:
    every kernel value the detector uses comes from here. Dividing by
    -2 sigma^2 gives the bits of negating, then dividing by 2 sigma^2, in
    one pass."""
    E = cdist(A, B, out=out)
    np.divide(E, scale, out=E)
    return np.exp(E, out=E)


def _gram_buffer(rows: int, cols: int) -> np.ndarray:
    """An uninitialised float64 (rows, cols) Gram matrix; DetectorError
    before anything is allocated when it is larger than physical memory."""
    needed = rows * cols * 8
    available = _physical_memory()
    if needed > available:
        raise DetectorError(
            f"{rows}x{cols} Gram matrix needs {needed} bytes, more than the "
            f"{available} bytes of physical memory"
        )
    return np.empty((rows, cols))


def gram(Z1: np.ndarray, Z2: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel matrix between two point sets, shape (len(Z1), len(Z2)).

    The float64 result is built in place, in row blocks once it is large
    (`_in_row_blocks`); every entry is exp(-|z1 - z2|^2 / (2 sigma^2)) with
    the same bits however the rows are split. The peak is one matrix of
    len(Z1) * len(Z2) * 8 bytes. A sigma that is not positive and finite, or
    a result larger than physical memory, raises DetectorError before
    anything is allocated.
    """
    if not 0 < sigma < math.inf:
        raise DetectorError("sigma must be positive and finite")
    Z1 = np.atleast_2d(Z1)
    Z2 = np.atleast_2d(Z2)
    rows, cols = Z1.shape[0], Z2.shape[0]
    K = _gram_buffer(rows, cols)
    scale = -2.0 * sigma * sigma
    cdist = _distances_for(rows * cols * Z1.shape[1])[0]
    _in_row_blocks(
        lambda lo, hi: _kernels(Z1[lo:hi], Z2, scale, cdist, out=K[lo:hi]),
        np.full(rows, cols))
    return K


def _calibrate(pool: Dataset) -> tuple[float, float]:
    """The label scale c and the median-heuristic sigma of a pool, from one
    buffer of the squared distances of all n(n-1)/2 pairs of augmented
    points.

    Each class's pairs (pdist, sqeuclidean) fill the front of the buffer,
    class -1's first. Within a class the label coordinates are equal, so
    these are squared feature distances, and their maximum is c squared
    (at least one class must have two members). The cross-class pairs
    follow: cdist between the classes, plus c*c, which is exactly what
    cdist adds for the label coordinate of augmented points, computed in
    row blocks of the positive class (`_in_row_blocks`). sigma is the
    median of the entries' square roots, taken on the squares since sqrt is
    monotone, so it has the bits of np.median(pdist(augment(...))). When no
    cross-class entry is below a same-class one, only the block that holds
    the median index is partitioned. A pool whose median distance is zero
    (every distance zero included) has no bandwidth and raises.

    pdist and cdist are numpy's or scipy's, picked once by the n^2 (d+1)
    terms of the pool's augmented pass (`_distances_for`), with the same
    bits either way.
    """
    n = len(pool)
    cdist, pdist = _distances_for(n * n * (pool.dimension + 1))
    squares = np.empty(n * (n - 1) // 2)
    same = 0
    for sign in (-1, 1):
        pts = pool.X[pool.y == sign]
        pairs = pts.shape[0] * (pts.shape[0] - 1) // 2
        pdist(pts, squares[same:same + pairs])
        same += pairs
    if not same:
        raise DetectorError("no class has two members; label scale undefined")
    top = float(squares[:same].max())
    c = math.sqrt(top)
    pos, neg = pool.X[pool.y == 1], pool.X[pool.y == -1]
    cross = squares[same:]
    grid = cross.reshape(pos.shape[0], neg.shape[0])

    def task(lo, hi):
        cdist(pos[lo:hi], neg, out=grid[lo:hi])
        grid[lo:hi] += c * c

    _in_row_blocks(task, np.full(pos.shape[0], neg.shape[0]))
    # np.median's own expression on one in-place partition: part[:j].max()
    # is the order statistic just below part[j].
    k = squares.size // 2
    part, j = squares, k
    if cross.size and cross.min() >= top:
        part, j = (squares[:same], k) if k < same else (cross, k - same)
    part.partition(j)
    upper = float(part[j])
    # The median is zero exactly when its upper order statistic is.
    if upper == 0.0:
        raise DetectorError(
            f"degenerate pool (n={n}): the median distance between its "
            "augmented points is zero, so the median heuristic gives no bandwidth"
        )
    if squares.size % 2:
        return c, math.sqrt(upper)
    lower = float(part[:j].max()) if j else top  # j = 0: below the cross block
    return c, float(np.mean([math.sqrt(lower), math.sqrt(upper)]))


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
        if not 0 < self.sigma < math.inf:
            raise DetectorError("sigma must be positive and finite")
        if not 0 <= self.label_scale_c < math.inf:
            raise DetectorError("label scale must be nonnegative and finite")
        if not 0 < self.kernel_bound < math.inf:
            raise DetectorError("kernel bound must be positive and finite")

    @classmethod
    def from_pool(cls, pool: Dataset, alpha: float = 0.05) -> "DetectorConfig":
        c, sigma = _calibrate(pool)
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

    Each of the three kernel sums is the total of one tile pass
    (`_row_sums`): of Z with itself, of Z with Zp and of Zp with itself.
    The cross pass computes the tiles of Z against Zp with the same
    floating-point operations as a sample's own pass, so when Z and Zp are
    equal all three sums have equal bits, and MMD(Z, Z) = 0 holds exactly.
    Z is the pool: its size picks the distance routine of all three passes
    (`_pool_cdist`).
    The radicand is clamped at zero before the square root to absorb
    negative floating-point residue of order -1e-17.
    """
    Z = np.atleast_2d(Z)
    Zp = np.atleast_2d(Zp)
    if Z.shape[0] < 1 or Zp.shape[0] < 1:
        raise DetectorError("mmd needs at least one point per sample")
    scale = -2.0 * cfg.sigma * cfg.sigma
    cdist = _pool_cdist(Z)
    return _mmd_root(_row_sums(Z, scale, cdist=cdist)[1],
                     _row_sums(Z, scale, Zp=Zp, cdist=cdist)[1],
                     _row_sums(Zp, scale, cdist=cdist)[1])


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
        raise DetectorError(f"pool has {pool.dimension} features, "
                            f"sample has {sample.dimension}")
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

    and reduces exactly to mmd(C, C_S) when b is the indicator of S. No n x n
    matrix is allocated: the row sums take one tile pass (`_row_sums`) and
    the last term reads kernel blocks on the support of b (`_weighted`), so
    the value has the bits of `PoolKernel.weighted`.
    """
    Z = np.atleast_2d(pool_augmented)
    b = _check_weights(b, Z.shape[0])
    scale = -2.0 * cfg.sigma * cfg.sigma
    return _weighted(b, *_row_sums(Z, scale), partial(_computed_block, Z, scale))


def _mmd_root(pool_term: float, cross: float, within: float) -> float:
    """The MMD from the means of its three kernel sums. The radicand is
    clamped at zero before the square root to absorb negative floating-point
    residue."""
    return math.sqrt(max(pool_term - 2.0 * cross + within, 0.0))


def _row_sums(Z: np.ndarray, scale: float, Zp: np.ndarray | None = None,
              K: np.ndarray | None = None,
              cdist=None) -> tuple[np.ndarray, float]:
    """Row sums of the kernel matrix k(Z, Zp), Zp = Z when not given, and
    their total over n m (for Zp = Z, the weight-free first term of the MMD
    radicand).

    The pass cuts both samples into blocks of the same fixed side, about
    `_CHUNK_BYTES` of kernel values a square tile, and walks the tiles
    (I, J) with I <= J. Tile (I, J) writes the sums of the rows of
    k(Z_I, Zp_J), the part of column block J, to parts[J] at the Z rows of
    block I, and off the diagonal the sums of the columns of k(Zp_I, Z_J),
    the part of column block I, to parts[I] at the Z rows of block J. When
    Zp is Z (or not given) the second tile is the first, so every pair of
    points is computed once and the matrix is exactly symmetric. Squared
    distances are elementwise symmetric, so a Zp equal to Z by value runs
    the same floating-point operations and gets the same bits.
    Each row's parts add up in tile order; a part whose block is empty
    stays zero. The tiles depend only on the shapes, so the bits do not
    depend on how `_in_row_blocks` spreads them over workers, and one tile
    gets the bits of k(Z, Zp).sum(axis=1). Every tile is computed
    (`_kernels`) into its task's buffer, so no n x m matrix is allocated,
    with the distance routine `cdist`, by default the one Z's size picks
    (`_pool_cdist`).

    When an n x n matrix K is given (Zp = Z), the pass also writes each tile
    to K at (I, J) and, off the diagonal, its transpose at (J, I), so K ends
    as the Gram matrix with `gram`'s bits and each kernel value is computed
    once for both.
    """
    Zp = Z if Zp is None else Zp
    symmetric = Zp is Z
    cdist = _pool_cdist(Z) if cdist is None else cdist
    n, m = Z.shape[0], Zp.shape[0]
    side = max(1, math.isqrt(_CHUNK_BYTES // 8))
    starts = range(0, max(n, m), side)
    blocks = [slice(first, first + side) for first in starts]
    rows = [max(0, min(side, n - first)) for first in starts]
    cols = [max(0, min(side, m - first)) for first in starts]
    tiles = [(I, J) for I in range(len(blocks)) for J in range(I, len(blocks))]
    parts = np.zeros((len(blocks), n))

    def task(lo, hi):
        buf = np.empty(min(side, max(n, m)) ** 2)

        def tile(A, B, I, J):
            """k(A_I, B_J), computed into the task's buffer."""
            a, b = A[blocks[I]], B[blocks[J]]
            out = buf[:a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0])
            return _kernels(a, b, scale, cdist, out=out)

        for I, J in tiles[lo:hi]:
            if rows[I] and cols[J]:
                values = tile(Z, Zp, I, J)
                np.sum(values, axis=1, out=parts[J, blocks[I]])
                if K is not None:
                    K[blocks[I], blocks[J]] = values
                    if I != J:
                        K[blocks[J], blocks[I]] = values.T
            if I != J and cols[I] and rows[J]:
                if not symmetric:
                    values = tile(Zp, Z, I, J)
                np.sum(values, axis=0, out=parts[I, blocks[J]])

    cost = [rows[I] * cols[J] + (I != J and not symmetric) * cols[I] * rows[J]
            for I, J in tiles]
    _in_row_blocks(task, np.array(cost))
    sums = parts.sum(axis=0)
    return sums, float(sums.sum()) / (n * m)


def _computed_block(Z: np.ndarray, scale: float, rows: np.ndarray,
                    cols: np.ndarray | None = None) -> np.ndarray:
    """k(z_i, z_j) for i in `rows` and j in `cols` (every column when cols
    is None), computed with the distance routine Z's size picks: entry for
    entry the bits of the Gram matrix."""
    return _kernels(Z[rows], Z if cols is None else Z[cols], scale,
                    _pool_cdist(Z))


def _check_weights(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != n:
        raise DetectorError(f"{b.shape[0]} weights for pool of {n}")
    # Written so that NaN fails it.
    if not (b.min() >= -1e-12 and b.max() <= 1 + 1e-12):
        raise DetectorError("weights must lie in [0, 1]")
    s = float(b.sum())
    if s <= 0:
        raise DetectorError("weights must have positive sum")
    # The weighted MMD divides by s^2 and its gradient by s^3.
    if s ** 3 < np.finfo(np.float64).tiny:
        raise DetectorError(f"weights sum to {s:.3g}, too small to normalise by")
    return b


def _support_rows(b: np.ndarray, support: np.ndarray, block,
                  cols: np.ndarray | None = None) -> np.ndarray:
    """b[S] @ block(S, cols) over the support S of b, in chunks of rows of
    about `_CHUNK_BYTES` of kernel values each. Every nonzero weight is in
    S, the slightly negative ones that `_check_weights` allows included.
    The chunks depend only on the shapes, so a gathered and a computed block
    give the same bits."""
    width = b.shape[0] if cols is None else cols.size
    step = max(1, _CHUNK_BYTES // (8 * width))
    total = np.zeros(width)
    for start in range(0, support.size, step):
        rows = support[start:start + step]
        total += b[rows] @ block(rows, cols)
    return total


def _weighted(b: np.ndarray, row_sums: np.ndarray, pool_term: float,
              block) -> float:
    """The weighted MMD from checked weights b, the pool's `_row_sums` and
    its kernel blocks, block(rows, cols). The last term is
    b[S] @ K[S, S] @ b[S] over the support S of b, so it costs O(|S|^2)."""
    n = row_sums.shape[0]
    s = float(b.sum())
    support = np.flatnonzero(b)
    within = float(_support_rows(b, support, block, support) @ b[support])
    return _mmd_root(pool_term, float(b @ row_sums) / (n * s), within / (s * s))


# Bytes of the largest Gram matrix a PoolKernel stores. End to end, a kernel
# that computed every block made beam-tight (n = 1000, d = 20) slower: op_s
# 0.154 -> 0.191 s at the median, slower in 9 of 10 alternating 45 s pairs
# (BENCH_gram_free_kernel.json, "cap_reason"). Timed on random subsets
# (2-core VM, one BLAS thread), a 100 x 100 block there takes 56 us to
# gather and 119 us to compute; at n = 3000 and d = 2 it takes 215 us to
# gather, its rows missing the cache, and 51 us to compute. The cap reads n
# alone: accept-run's n = 200, d = 2 pools store their matrix and were not
# measurably slower for it. So pools up to 1448 points (a 16 MB matrix)
# store the matrix, and larger ones keep only their points and row sums.
_GRAM_CAP_BYTES = 1 << 24


class PoolKernel:
    """Kernel machinery for one pool under one detector config.

    The pool's augmented points and row sums (`_row_sums`) are computed
    once and shared read-only. The Gram cap decides only how `_block`, the
    one reader of the stored matrix, reads a block: a pool whose n x n
    float64 Gram matrix fits in `_GRAM_CAP_BYTES` stores it, filled by the
    row-sum pass's own tiles, and gathers every block; a larger pool
    computes each block, with the same bits. A candidate's MMD costs O(m^2)
    kernel values, the weighted variant O(|supp b|^2) and its gradient
    O(|supp b| n). All methods are pure.
    """

    def __init__(self, pool: Dataset, cfg: DetectorConfig):
        self.cfg = cfg
        self.pool = pool
        self.n = len(pool)
        self._Z = augment(pool.X, pool.y, cfg.label_scale_c)
        self._scale = -2.0 * cfg.sigma * cfg.sigma
        self._K = None
        if 8 * self.n * self.n <= _GRAM_CAP_BYTES:
            self._K = _gram_buffer(self.n, self.n)
        self._row_sums, self._pool_term = _row_sums(self._Z, self._scale,
                                                    K=self._K)
        if self._K is not None:
            self._K.setflags(write=False)

    def _block(self, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """k(z_i, z_j) for i in `rows` and j in `cols` (index arrays; every
        column when cols is None), from the stored Gram matrix or computed."""
        K = self._K
        if K is None:
            return _computed_block(self._Z, self._scale, rows, cols)
        return K[rows] if cols is None else K[rows[:, None], cols]

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
        within = float(self._block(idx, idx).sum()) / (m * m)
        return _mmd_root(self._pool_term, cross, within)

    def psi_indices(self, indices) -> float:
        return self.mmd_indices(indices) - self.threshold(len(indices))

    def feasible(self, indices) -> bool:
        """Strict inequality psi < 0, implemented as
        psi <= -FEASIBILITY_SLACK."""
        return self.psi_indices(indices) <= -FEASIBILITY_SLACK

    def weighted(self, b: np.ndarray) -> float:
        return _weighted(_check_weights(b, self.n), self._row_sums,
                         self._pool_term, self._block)

    def weighted_grad(self, b: np.ndarray) -> np.ndarray:
        """Gradient of the weighted MMD w.r.t. b (zero where the radicand
        vanishes, where the square root is not differentiable). It needs
        K @ b in full, read as the rows of K on the support of b."""
        b = _check_weights(b, self.n)
        n, s, r = self.n, float(b.sum()), self._row_sums
        Kb = _support_rows(b, np.flatnonzero(b), self._block)
        P = float(b @ r)
        Q = float(b @ Kb)
        value = _mmd_root(self._pool_term, P / (n * s), Q / (s * s))
        if value < 1e-12:
            return np.zeros_like(b)
        dV = (
            -2.0 * r / (n * s)
            + 2.0 * P / (n * s * s)
            + 2.0 * Kb / (s * s)
            - 2.0 * Q / (s ** 3)
        )
        return dV / (2.0 * value)
