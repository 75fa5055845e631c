"""Subset-search strategies for the camouflage problem.

All three solvers minimize the secret-set risk of the learner trained on an
m-element pool subset, subject to the subset passing the detector
(psi < 0). The training budget B counts learner trainings only; detector
checks and rejected proposals are free but capped to prevent livelock.
All three take the run's SolverBudget (NlpOptions is another name for it;
solve_nlp reads only its two limits). Each run holds its instance and
accounting in one _Scorer, which makes every detector check, counts every
rejection and scores every candidate with one call: uniform search and the
rounding sweep batch their subsets (`risk_many`, through train_subsets),
beam search scores each frontier, its initial draws included, with
`risk_each`, and the relaxation each iterate's WeightedTrainingView with
`risk_weighted`. solve_nlp reserves one training per rounding candidate, so
the sweep always fits the budget. `train` is `train_batch` on one row and
every risk is `empirical_risk`, so a report's cached risk is a fresh
recomputation, to the bit. When the wall-clock limit passes, uniform and
beam search stop. Every run reports the best subset it scored; a run that
scored none raises SolverError (_finalize), naming the deadline if it has
passed and the number of draws otherwise.

Strict detector feasibility psi < 0 is implemented as psi <= -1e-9
(FEASIBILITY_SLACK) for numerical stability.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import (
    CandidateSet, DataError, Dataset, RngState, check_counts, plain_numbers,
    sample_subset,
)
from .detector import FEASIBILITY_SLACK, DetectorConfig, PoolKernel
from .learner import (
    LearnerConfig,
    ModelParams,
    WeightedTrainingView,
    empirical_risk,
    empirical_risks,
    risk_gradient_wrt_weights,
    stationarity_residual,
    subset_weights,
    train,
    train_batch,
)

# Fixed schedule of the relaxed solver: penalty rounds, projected-gradient
# steps per round, the backtracking step size and its floor, and the
# detector penalty weight's start, growth per round and cap.
OUTER_ROUNDS = 6
INNER_STEPS = 40
STEP_INIT = 1.0
STEP_TOL = 1e-10
PENALTY_INIT = 1.0
PENALTY_GROWTH = 10.0
PENALTY_MAX = 1e6

# Cap on detector-only draws, as a multiple of the training budget.
DRAW_CAP_FACTOR = 10

# Cap on neighbor proposals, as a multiple of the requested neighbor count.
NEIGHBOR_RETRY_FACTOR = 20

# Most gathered feature values (subsets x m x d) trained in one batch, so a
# batch's memory stays bounded whatever the budget.
BATCH_VALUES = 2**16


def train_subsets(
    pool: Dataset, subsets: list[tuple[int, ...]], cfg: LearnerConfig
) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray]]:
    """Train the learner on each of `subsets`, m-subsets of the pool, in
    chunks of at most `BATCH_VALUES` gathered feature values, one
    `train_batch` call each. Yields each chunk, in order, with its
    (len(chunk), d) thetas; a chunk trains only when it is asked for."""
    if not subsets:
        return
    rows = max(1, BATCH_VALUES // (len(subsets[0]) * pool.dimension))
    for start in range(0, len(subsets), rows):
        chunk = subsets[start:start + rows]
        idx = np.array(chunk, dtype=np.int64)
        yield chunk, train_batch(pool.X[idx], pool.y[idx], cfg)


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverBudget:
    """Search budget. max_trainings is B, the number of learner trainings a
    solver may spend. Beam search splits B across `restarts` as B // R per
    restart, with the remainder spent in the last restart."""

    max_trainings: int
    restarts: int = 1
    beam_width: int = 10
    neighbors_per_state: int = 50
    wall_clock_limit: float | None = None

    def __post_init__(self):
        plain_numbers(self)
        check_counts(self, max_trainings=1, restarts=1, beam_width=1,
                     neighbors_per_state=0)
        # `not limit >= 0` also rejects NaN, which would switch the limit off.
        limit = self.wall_clock_limit
        if limit is not None and not limit >= 0:
            raise DataError(f"wall_clock_limit must be nonnegative, got {limit}")

    def per_restart(self, r: int) -> int:
        base = self.max_trainings // self.restarts
        if r == self.restarts - 1:
            return base + self.max_trainings % self.restarts
        return base


@dataclass
class SolverReport:
    """Audited outcome of one solver run. The returned set is always
    re-checked against the detector; trajectory entries are
    (trainings_used_so_far, best_risk_so_far) and non-increasing in risk.
    feasibility_rejections counts every proposal that failed the detector:
    random draws, beam's neighbour proposals and rounding candidates.
    `to_dict` writes the nlp diagnostics' weights b, dense here, as their
    support: {"indices": [...], "values": [...]}."""

    best: CandidateSet
    trainings_used: int
    feasibility_rejections: int
    trajectory: list[tuple[int, float]]
    solver_name: str
    seed: int | None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        diagnostics = dict(self.diagnostics)
        if "b" in diagnostics:
            b = np.asarray(diagnostics["b"])
            support = np.flatnonzero(b)
            diagnostics["b"] = {"indices": support.tolist(),
                                "values": b[support].tolist()}
        return {
            "best_indices": list(self.best.indices),
            "best_risk": self.best.cached_risk,
            "best_psi": self.best.cached_psi,
            "trainings_used": self.trainings_used,
            "feasibility_rejections": self.feasibility_rejections,
            "trajectory": [[c, r] for c, r in self.trajectory],
            "solver_name": self.solver_name,
            "seed": self.seed,
            "diagnostics": diagnostics,
        }


@dataclass(frozen=True)
class RelaxedSolution:
    """Output of the continuous relaxation: fractional membership weights b
    with sum(b) = m (the best iterate's view weights, so read-only), the
    learner trained on them, and the residuals that certify the two
    constraints."""

    b: np.ndarray
    theta: ModelParams
    stationarity_resid: float
    psi_b: float


NlpOptions = SolverBudget  # solve_nlp reads only the two limits


class _Scorer:
    """One solver run: its instance (the pool's kernel is built from `det`
    when none is given) and its accounting. Scores secret-set risk, charging
    one training per candidate once it has succeeded: subsets one at a time
    on their 0/1 views (`risk_each`), subsets in batches (`risk_many`) or a
    relaxation iterate's view (`risk_weighted`). Audits subsets against the
    detector, counting rejections; counts random draws; holds the deadline.
    Keeps the lowest-risk subset scored so far and the trajectory of
    (trainings, best risk) at each improvement."""

    def __init__(self, pool: Dataset, secret: Dataset, m: int, cfg: LearnerConfig,
                 det: DetectorConfig, kernel: PoolKernel | None,
                 wall_clock_limit: float | None):
        if m < 1 or m > len(pool):
            raise DataError(f"subset size {m} out of range for pool of {len(pool)}")
        self.pool = pool
        self.secret = secret
        self.m = m
        self.cfg = cfg
        if kernel is not None and not kernel.fits(pool, det):
            raise DataError("kernel was built for another pool or detector")
        self.kernel = kernel or PoolKernel(pool, det)
        self.start = time.monotonic()
        self.limit = wall_clock_limit
        self.trainings = 0
        self.rejections = 0
        self.draws = 0
        self.best_idx: tuple[int, ...] | None = None
        self.best_risk = np.inf
        self.trajectory: list[tuple[int, float]] = []

    def feasible(self, indices: tuple[int, ...]) -> bool:
        if self.kernel.feasible(indices):
            return True
        self.rejections += 1
        return False

    def expired(self) -> bool:
        return self.limit is not None and time.monotonic() - self.start >= self.limit

    def spent(self, cap: int) -> bool:
        """True once `cap` trainings are charged or the deadline has passed."""
        return self.trainings >= cap or self.expired()

    def draw(self, rng: RngState, cap: int, want: int,
             seen: set | None) -> list[tuple[int, ...]]:
        """Draw uniform m-subsets until `want` feasible ones are kept, `cap`
        draws are made or the deadline passes (checked before each draw).
        With `seen` a set, subsets already in it are skipped and each kept
        one is added to it. Scores nothing; counts each draw in `draws` and
        returns the kept subsets in draw order."""
        kept: list[tuple[int, ...]] = []
        stop = self.draws + cap
        while len(kept) < want and self.draws < stop and not self.expired():
            self.draws += 1
            idx = sample_subset(self.pool, self.m, rng).indices
            if not self.feasible(idx):
                continue
            if seen is not None:
                if idx in seen:
                    continue
                seen.add(idx)
            kept.append(idx)
        return kept

    def _record(self, indices: tuple[int, ...], risk: float) -> None:
        """Keep `indices` if its risk, just charged, is the lowest yet."""
        if risk < self.best_risk:
            self.best_idx = indices
            self.best_risk = risk
            self.trajectory.append((self.trainings, risk))

    def risk_each(self, subsets: list[tuple[int, ...]],
                  cap: int) -> list[tuple[float, tuple[int, ...]]]:
        """Score `subsets` in order, each by one `train` on its 0/1 view of
        the pool, charging and recording each; stops before a training once
        `spent(cap)` holds. Returns the (risk, subset) pairs it scored."""
        scored = []
        for indices in subsets:
            if self.spent(cap):
                break
            risk = self.risk_weighted(WeightedTrainingView(
                self.pool, subset_weights(len(self.pool), indices)))[0]
            self._record(indices, risk)
            scored.append((risk, indices))
        return scored

    def risk_many(self, batch: list[tuple[int, ...]]) -> None:
        """Score every subset of `batch`, charging one training each, by
        batched training (`train_subsets`); a chunk's risks are charged and
        recorded, in batch order, before the next chunk trains."""
        for chunk, thetas in train_subsets(self.pool, batch, self.cfg):
            for indices, risk in zip(chunk, empirical_risks(thetas, self.secret)):
                self.trainings += 1
                self._record(indices, float(risk))

    def risk_weighted(self, view: WeightedTrainingView) -> tuple[float, ModelParams]:
        """Train on the view, charging the training once it has succeeded,
        and score the model's secret-set risk."""
        theta = train(view, self.cfg)
        self.trainings += 1
        return empirical_risk(theta, self.secret), theta


def _finalize(
    scorer: _Scorer, name: str, seed: int | None, diagnostics: dict | None = None
) -> SolverReport:
    """Re-check the scorer's best set against the detector and report it.
    A run that scored no subset raises: the deadline stopped it if it has
    passed, and otherwise none of its draws was feasible."""
    if scorer.best_idx is None:
        if scorer.expired():
            raise SolverError(
                "wall clock limit reached before any feasible subset was evaluated"
            )
        raise SolverError(
            f"feasible region unreachable: no feasible subset in {scorer.draws} draws"
        )
    psi = scorer.kernel.psi_indices(scorer.best_idx)
    if psi >= 0.0:
        raise SolverError(f"{name}: returned set fails the detector (psi={psi:.3e})")
    return SolverReport(
        best=CandidateSet(scorer.best_idx, scorer.best_risk, psi),
        trainings_used=scorer.trainings,
        feasibility_rejections=scorer.rejections,
        trajectory=list(scorer.trajectory),
        solver_name=name,
        seed=seed,
        diagnostics=diagnostics or {},
    )


def solve_uniform(
    pool: Dataset,
    secret: Dataset,
    m: int,
    cfg: LearnerConfig,
    det: DetectorConfig,
    budget: SolverBudget,
    rng: RngState,
    dedup: bool = True,
    kernel: PoolKernel | None = None,
) -> SolverReport:
    """Evaluate uniformly drawn feasible m-subsets, keep the best.

    Subsets that fail the detector are redrawn without charging the training
    budget; duplicates (with dedup on) are likewise free. Total draws are
    capped at 10 * B; if no feasible subset has been found by then the
    feasible region is declared unreachable.
    """
    scorer = _Scorer(pool, secret, m, cfg, det, kernel, budget.wall_clock_limit)
    B = budget.max_trainings
    scorer.risk_many(scorer.draw(rng, DRAW_CAP_FACTOR * B, B,
                                 set() if dedup else None))
    return _finalize(scorer, "uniform", rng.seed)


def _complement(indices, n: int) -> np.ndarray:
    """The sorted pool indices in range(n) that are not in `indices`, read
    off a boolean mask (the sorted int64 array np.setdiff1d gives, in O(n)
    without its sort)."""
    outside = np.ones(n, dtype=bool)
    outside[np.asarray(indices, dtype=np.int64)] = False
    return np.flatnonzero(outside)


def neighbors(
    indices: tuple[int, ...], auditor: _Scorer | PoolKernel, count: int,
    rng: RngState,
) -> list[tuple[int, ...]]:
    """Sample up to `count` distinct feasible single-swap neighbors of the
    sorted subset `indices` of `auditor.pool`.

    A neighbor exchanges one in-set index for one out-of-set index, both
    chosen uniformly. Each new proposal is audited by `auditor.feasible`
    (a run's _Scorer counts the rejections); infeasible or repeated
    proposals are discarded and redrawn, consuming no training budget, with
    total proposals capped at 20 * count. The out-of-set index is drawn
    from the sorted complement (`_complement`), so the draws, and the rng
    stream, depend only on the set. May return fewer than `count` sets;
    returns none when the subset already covers the pool.
    """
    n = len(auditor.pool)
    m = len(indices)
    if m >= n or count <= 0:
        return []
    complement = _complement(indices, n)
    gen = rng.generator

    out: list[tuple[int, ...]] = []
    tried: set[tuple[int, ...]] = {indices}
    attempts = 0
    cap = NEIGHBOR_RETRY_FACTOR * count
    while len(out) < count and attempts < cap:
        attempts += 1
        drop = indices[int(gen.integers(m))]
        add = int(complement[int(gen.integers(n - m))])
        proposal = tuple(sorted(set(indices) - {drop} | {add}))
        if proposal in tried:
            continue
        tried.add(proposal)
        if auditor.feasible(proposal):
            out.append(proposal)
    return out


def solve_beam(
    pool: Dataset,
    secret: Dataset,
    m: int,
    cfg: LearnerConfig,
    det: DetectorConfig,
    budget: SolverBudget,
    rng: RngState,
    kernel: PoolKernel | None = None,
) -> SolverReport:
    """Width-w beam search over single-swap neighbors, with random restarts.

    Each restart's first frontier is up to w random feasible subsets. Each
    frontier is scored (`_Scorer.risk_each`), the beam keeps the w
    lowest-risk states scored so far, and the beam's unevaluated neighbors,
    in first-proposed order, form the next frontier, until the restart's
    share of the training budget is spent or no new neighbor is found. A
    state drawn or proposed within a restart is never retrained. The
    initial draws of all restarts share one cap of 10 * max(B, w); a
    restart that keeps no feasible draw moves on to the next. The
    wall-clock limit is checked before each draw and each training; once it
    passes, no further subset is scored.
    """
    scorer = _Scorer(pool, secret, m, cfg, det, kernel, budget.wall_clock_limit)
    w, k = budget.beam_width, budget.neighbors_per_state
    # one cap on the initial draws of all restarts together
    init_cap = DRAW_CAP_FACTOR * max(budget.max_trainings, w)

    for r in range(budget.restarts):
        budget_end = scorer.trainings + budget.per_restart(r)
        evaluated: set[tuple[int, ...]] = set()
        frontier = scorer.draw(rng, init_cap - scorer.draws,
                               min(w, budget_end - scorer.trainings), evaluated)
        beam: list[tuple[float, tuple[int, ...]]] = []
        while frontier:
            beam = sorted(beam + scorer.risk_each(frontier, budget_end))[:w]
            if scorer.spent(budget_end):
                break
            frontier = list(dict.fromkeys(
                nb for _, idx in beam for nb in neighbors(idx, scorer, k, rng)
                if nb not in evaluated))
            evaluated.update(frontier)

    return _finalize(scorer, "beam", rng.seed)


def project_capped_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {b : 0 <= b_i <= 1, sum(b) = total}.

    The projection is clip(v - tau, 0, 1) at the shift tau where its sum is
    `total` (Wang & Lu, arXiv:1503.01002). That sum is continuous,
    nonincreasing and linear in tau between the 2n breakpoints v_i - 1 and
    v_i. A binary search over the sorted breakpoints finds the segment
    holding `total`, and tau is solved for on it: O(n log n), exact up to
    rounding. Always succeeds for 0 <= total <= len(v).
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[0]
    if total < 0 or total > n:
        raise DataError(f"target sum {total} out of range for {n} weights")
    knots = np.sort(np.concatenate([v - 1.0, v]))
    # The sum is n at the first knot, v.min() - 1, and 0 at the last,
    # v.max(); the search keeps it above total at knots[lo] and at most
    # total at knots[hi].
    lo, hi = 0, knots.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.clip(v - knots[mid], 0.0, 1.0).sum() > total:
            lo = mid
        else:
            hi = mid
    # On the open segment each coordinate is at 1, at 0 or in between.
    t = 0.5 * (knots[lo] + knots[hi])
    ones = v - 1.0 >= t
    free = (v > t) & ~ones
    if free.any():
        excess = np.count_nonzero(ones) + float(v[free].sum()) - total
        t = min(max(excess / np.count_nonzero(free), knots[lo]), knots[hi])
    return np.clip(v - t, 0.0, 1.0)


def solve_relaxed(
    scorer: _Scorer, seed_set: CandidateSet, cap: int
) -> RelaxedSolution:
    """Continuous relaxation: minimize secret risk of theta_hat(b) over
    membership weights b in [0,1]^n with sum(b) = m and weighted-MMD
    feasibility.

    Projected gradient with backtracking, inside a quadratic-penalty outer
    loop on the detector constraint; the sum constraint is enforced by
    projection and learner stationarity exactly, by retraining at every
    iterate, each one WeightedTrainingView that is trained, differentiated
    and, if best, checked for stationarity: one view per charged training.
    Descent contract: the returned b is never worse (in true objective)
    than the feasible seed indicator it starts from. Runs on the scorer's
    instance and deadline; `cap` caps the trainings it has charged.
    """
    pool, secret, m, cfg = scorer.pool, scorer.secret, scorer.m, scorer.cfg
    kernel = scorer.kernel
    threshold = kernel.threshold(m)
    if len(seed_set) != m:
        raise DataError(f"seed set has {len(seed_set)} indices, expected {m}")
    if seed_set.indices[-1] >= len(pool):
        raise DataError(f"seed set index {seed_set.indices[-1]} out of range "
                        f"for pool of {len(pool)}")

    if not scorer.feasible(seed_set.indices):
        raise SolverError("seed set fails the detector")

    view = WeightedTrainingView(pool, subset_weights(len(pool), seed_set.indices))
    risk, theta = scorer.risk_weighted(view)
    psi_b = kernel.weighted(view.weights) - threshold
    best, best_risk, best_theta, best_psi = view, risk, theta, psi_b

    def penalty(psi_b: float, rho: float) -> float:
        violation = max(psi_b + FEASIBILITY_SLACK, 0.0)
        return rho * violation * violation

    rho = PENALTY_INIT
    for _ in range(OUTER_ROUNDS):
        obj = risk + penalty(psi_b, rho)
        eta = STEP_INIT
        for _ in range(INNER_STEPS):
            if scorer.spent(cap):
                break
            b = view.weights
            grad = risk_gradient_wrt_weights(view, cfg, secret, theta=theta)
            violation = max(psi_b + FEASIBILITY_SLACK, 0.0)
            if violation > 0.0:
                grad = grad + rho * 2.0 * violation * kernel.weighted_grad(b)

            moved = False
            while eta > STEP_TOL and not scorer.spent(cap):
                b_new = project_capped_simplex(b - eta * grad, float(m))
                if float(np.abs(b_new - b).max()) <= STEP_TOL:
                    break
                view_new = WeightedTrainingView(pool, b_new)
                risk_new, theta_new = scorer.risk_weighted(view_new)
                psi_new = kernel.weighted(b_new) - threshold
                obj_new = risk_new + penalty(psi_new, rho)
                if obj_new <= obj - 1e-4 * float(np.sum((b_new - b) ** 2)) / eta:
                    view, risk, theta, psi_b, obj = (
                        view_new, risk_new, theta_new, psi_new, obj_new)
                    moved = True
                    if psi_b <= -FEASIBILITY_SLACK and risk < best_risk:
                        best, best_risk, best_theta, best_psi = view, risk, theta, psi_b
                    eta = min(eta * 2.0, STEP_INIT)
                    break
                eta *= 0.5
            if not moved:
                break  # projected-gradient stationary at this penalty level
        if scorer.spent(cap) or psi_b <= -FEASIBILITY_SLACK:
            break
        rho = min(rho * PENALTY_GROWTH, PENALTY_MAX)

    resid = stationarity_residual(best_theta, best, cfg)
    return RelaxedSolution(best.weights, best_theta, resid, best_psi)


def rounding_candidates(
    b: np.ndarray, seed_indices: tuple[int, ...], n: int, m: int
) -> list[tuple[int, ...]]:
    """Swap sequence from the seed set toward the top-m-by-b set.

    Candidate c keeps the m - c largest-b members of the seed S and adds the
    c largest-b members of the complement, so candidate 0 is S itself and
    the final candidate is the complement's top block; the global top-m-by-b
    set always appears along the way. Ties in b break toward the lower pool
    index. Produces min(m, n - m) + 1 candidates (m + 1 whenever the
    complement is large enough to supply m swaps).
    """
    b = np.asarray(b, dtype=np.float64)
    seed = np.asarray(seed_indices, dtype=np.int64)
    comp = _complement(seed, n)
    # by b descending, then by pool index: lexsort's last key is its first
    keep_order = seed[np.lexsort((seed, -b[seed]))].tolist()
    add_order = comp[np.lexsort((comp, -b[comp]))].tolist()
    swaps = min(m, len(comp))
    return [
        tuple(sorted(keep_order[: m - c] + add_order[:c]))
        for c in range(swaps + 1)
    ]


def round_relaxed(
    scorer: _Scorer, sol: RelaxedSolution, seed_set: CandidateSet
) -> SolverReport:
    """Score every feasible swap-sequence candidate and report the best.

    The seed set is candidate 0 and is feasible by precondition, so the
    result is never worse than the seed. The sweep checks neither the
    wall-clock limit nor a training cap: solve_nlp reserves one training
    per candidate, so the sweep always fits its budget.
    """
    candidates = rounding_candidates(
        sol.b, seed_set.indices, len(scorer.pool), scorer.m
    )
    scorer.risk_many([idx for idx in candidates if scorer.feasible(idx)])
    return _finalize(
        scorer, "nlp", None,
        diagnostics={"candidates": [list(c) for c in candidates]},
    )


def nlp_least_trainings(n: int, m: int) -> int:
    """The smallest max_trainings `solve_nlp` accepts for an m-subset of a
    pool of n: one relaxed-phase training plus the one it reserves for each
    of the min(m, n - m) + 1 rounding candidates."""
    return min(m, n - m) + 2


def solve_nlp(
    pool: Dataset,
    secret: Dataset,
    m: int,
    cfg: LearnerConfig,
    det: DetectorConfig,
    seed_set: CandidateSet,
    budget: SolverBudget,
    kernel: PoolKernel | None = None,
) -> SolverReport:
    """Continuous relaxation followed by swap rounding, both on one scorer.

    Reads budget.max_trainings and budget.wall_clock_limit. One training per
    rounding candidate is reserved, so the relaxation stops short of the cap
    and the rounding sweep always fits it. The report carries the
    relaxed-phase diagnostics.
    """
    scorer = _Scorer(pool, secret, m, cfg, det, kernel, budget.wall_clock_limit)
    least = nlp_least_trainings(len(pool), m)
    reserve = least - 1  # = len(rounding_candidates(...))
    cap = budget.max_trainings
    if cap < least:
        raise SolverError(
            f"max_trainings={cap} cannot cover the relaxed phase plus "
            f"{reserve} rounding evaluations"
        )
    sol = solve_relaxed(scorer, seed_set, cap - reserve)
    relaxed_trainings = scorer.trainings
    report = round_relaxed(scorer, sol, seed_set)
    report.diagnostics.update(
        {
            "relaxed_trainings": relaxed_trainings,
            "stationarity_resid": sol.stationarity_resid,
            "psi_b": sol.psi_b,
            "sum_b": float(np.sum(sol.b)),
            "b": [float(v) for v in sol.b],
        }
    )
    return report
