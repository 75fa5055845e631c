"""Solvers: uniform sampling, beam search, relaxation + rounding."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import covertrain.solvers as solvers
from covertrain import (
    CandidateSet,
    DataError,
    DetectorConfig,
    LearnerConfig,
    SyntheticSpec,
    acceptance_spec,
    generate,
    mmd_threshold,
    NlpOptions,
    PoolKernel,
    RngState,
    SolverBudget,
    SolverError,
    WeightedTrainingView,
    empirical_risk,
    neighbors,
    risk_gradient_wrt_weights,
    rounding_candidates,
    sample_subset,
    solve_beam,
    solve_nlp,
    solve_uniform,
    train,
)
from covertrain.learner import subset_weights, train_batch
from covertrain.solvers import (
    FEASIBILITY_SLACK, project_capped_simplex, round_relaxed, solve_relaxed,
)

from conftest import exhaustive_best, gaussian_task, make_dataset, subset_risk


def brute_instance():
    """n=8, m=3 pool where every subset passes the detector (small-sample
    thresholds exceed sqrt(2), the largest possible MMD)."""
    pool = gaussian_task(101, 4, separation=2.0, std=1.5)
    secret = gaussian_task(103, 6, separation=4.0, std=1.0, role="secret_set")
    det = DetectorConfig.from_pool(pool)
    return pool, secret, det


# A training cap the fixed relaxation schedule cannot reach, for runs that
# should stop on their own.
NO_CAP = 10**6


def scorer(pool, secret, m, cfg, det):
    """A fresh solver run on the instance, with its own kernel and no
    wall-clock limit."""
    return solvers._Scorer(pool, secret, m, cfg, det, None, None)


def strict_detector(pool, target_quantile=0.5, m=3):
    """Detector config whose threshold sits at a quantile of the subset MMD
    distribution, so a controlled fraction of subsets is infeasible."""
    import itertools

    base = DetectorConfig.from_pool(pool)
    kernel = PoolKernel(pool, base)
    values = sorted(
        kernel.mmd_indices(c) for c in itertools.combinations(range(len(pool)), m)
    )
    target = values[int(target_quantile * (len(values) - 1))]
    # the threshold scales as sqrt(K); land it on the target quantile
    K = (target / mmd_threshold(len(pool), m, base)) ** 2
    return DetectorConfig(alpha=base.alpha, sigma=base.sigma,
                          label_scale_c=base.label_scale_c, kernel_bound=K)


def unreachable_detector(pool):
    """Threshold so small that no proper subset can pass."""
    base = DetectorConfig.from_pool(pool)
    return DetectorConfig(alpha=base.alpha, sigma=base.sigma,
                          label_scale_c=base.label_scale_c, kernel_bound=1e-20)


class TestSolveUniform:
    def test_budget_of_one(self, learner_cfg):
        pool, secret, det = brute_instance()
        report = solve_uniform(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=1), RngState(0))
        assert report.trainings_used == 1
        assert report.best.cached_psi < 0

    def test_finds_exhaustive_optimum(self, learner_cfg):
        pool, secret, det = brute_instance()
        best_risk, best_idx = exhaustive_best(pool, secret, 3, learner_cfg)
        report = solve_uniform(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=500), RngState(11),
                               dedup=True)
        assert report.best.indices == best_idx
        assert report.best.cached_risk == pytest.approx(best_risk, rel=1e-9)
        # dedup: only 56 distinct subsets exist, so far fewer trainings than B
        assert report.trainings_used <= 56

    def test_dedup_off_spends_the_whole_budget(self, learner_cfg):
        # only 56 distinct subsets exist, so B = 80 retrains repeats
        pool, secret, det = brute_instance()
        report = solve_uniform(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=80), RngState(11),
                               dedup=False)
        assert report.trainings_used == 80

    def test_deterministic(self, learner_cfg):
        pool, secret, det = brute_instance()
        kwargs = dict(budget=SolverBudget(max_trainings=40))
        r1 = solve_uniform(pool, secret, 3, learner_cfg, det, rng=RngState(5), **kwargs)
        r2 = solve_uniform(pool, secret, 3, learner_cfg, det, rng=RngState(5), **kwargs)
        assert r1.to_dict() == r2.to_dict()

    def test_rejections_are_free(self, learner_cfg):
        pool, secret, _ = brute_instance()
        det = strict_detector(pool, target_quantile=0.5)
        B = 15
        report = solve_uniform(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=B), RngState(3))
        assert report.feasibility_rejections > 0
        assert report.trainings_used <= B
        assert report.best.cached_psi <= -FEASIBILITY_SLACK

    def test_unreachable_feasible_region(self, learner_cfg):
        pool, secret, _ = brute_instance()
        det = unreachable_detector(pool)
        with pytest.raises(SolverError, match="feasible region unreachable"):
            solve_uniform(pool, secret, 3, learner_cfg, det,
                          SolverBudget(max_trainings=5), RngState(1))

    def test_unreachable_message_counts_every_draw(self, learner_cfg,
                                                  monkeypatch):
        # draws made by uniform search and by both beam restarts
        calls = []

        def counted(*args):
            calls.append(1)
            return sample_subset(*args)

        monkeypatch.setattr(solvers, "sample_subset", counted)
        pool, secret, _ = brute_instance()
        det = unreachable_detector(pool)
        run = scorer(pool, secret, 3, learner_cfg, det)
        assert run.draw(RngState(1), 7, 2, set()) == []
        assert run.draw(RngState(2), 5, 1, None) == []
        assert run.draws == len(calls) == 12
        messages = []
        for solve in (
            lambda: solve_uniform(pool, secret, 3, learner_cfg, det,
                                  SolverBudget(max_trainings=6), RngState(1)),
            lambda: solve_beam(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=6, restarts=2,
                                            beam_width=3), RngState(1)),
        ):
            calls.clear()
            with pytest.raises(SolverError) as raised:
                solve()
            assert str(raised.value) == (
                f"feasible region unreachable: no feasible subset in {len(calls)} draws")
            messages.append(str(raised.value))
        # one cap of 10 B draws, shared by beam's two restarts
        assert messages == [messages[0]] * 2 and "in 60 draws" in messages[0]

    def test_trajectory_non_increasing(self, learner_cfg):
        pool, secret, det = brute_instance()
        report = solve_uniform(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=50), RngState(9))
        risks = [r for _, r in report.trajectory]
        assert all(a > b for a, b in zip(risks, risks[1:]))
        counts = [c for c, _ in report.trajectory]
        assert counts == sorted(counts)

    def test_cached_scores_match_fresh_recomputation(self, learner_cfg):
        from covertrain import psi as psi_fn

        pool, secret, det = brute_instance()
        report = solve_uniform(pool, secret, 3, learner_cfg, det,
                               SolverBudget(max_trainings=30), RngState(15))
        best = report.best
        fresh_risk = subset_risk(pool, best.indices, secret, learner_cfg)
        fresh_psi = psi_fn(pool, best, det).psi
        assert best.cached_risk == fresh_risk
        assert abs(best.cached_psi - fresh_psi) <= 1e-12 * abs(fresh_psi)

    def test_wall_clock_limit_before_first_evaluation(self, learner_cfg):
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=50, wall_clock_limit=0.0)
        with pytest.raises(SolverError, match="wall clock"):
            solve_uniform(pool, secret, 3, learner_cfg, det, budget, RngState(1))


class TestNeighbors:
    def test_full_pool_has_no_neighbors(self, learner_cfg):
        pool, _, det = brute_instance()
        kernel = PoolKernel(pool, det)
        assert neighbors(tuple(range(len(pool))), kernel, 5, RngState(0)) == []

    def test_single_swap_structure(self):
        pool = gaussian_task(7, 2, separation=2.0)  # n = 4
        kernel = PoolKernel(pool, DetectorConfig.from_pool(pool))
        state = (0, 2)
        for nb in neighbors(state, kernel, 8, RngState(2)):
            overlap = set(nb) & set(state)
            assert len(nb) == 2
            assert len(overlap) == 1

    def test_all_feasible_and_distinct(self):
        pool, _, det = brute_instance()
        kernel = PoolKernel(pool, det)
        keys = neighbors((0, 3, 5), kernel, 10, RngState(4))
        assert len(set(keys)) == len(keys)
        for key in keys:
            assert kernel.psi_indices(key) < 0

    def test_respects_count(self):
        pool, _, det = brute_instance()
        got = neighbors((0, 1, 2), PoolKernel(pool, det), 3, RngState(6))
        assert len(got) <= 3


class TestSolveBeam:
    def test_no_neighbors_equals_best_initialization(self, learner_cfg):
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=30, restarts=2, beam_width=5,
                              neighbors_per_state=0)
        report = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(21))
        # replay the draw sequence: per restart, w distinct feasible draws
        rng = RngState(21)
        kernel = PoolKernel(pool, det)
        risks = []
        for _ in range(2):
            seen = set()
            while len(seen) < 5:
                cand = sample_subset(pool, 3, rng)
                if not kernel.feasible(cand.indices):
                    continue
                if cand.indices in seen:
                    continue
                seen.add(cand.indices)
                risks.append(subset_risk(pool, cand.indices, secret, learner_cfg))
        assert report.trainings_used == 10
        assert report.best.cached_risk == pytest.approx(min(risks), rel=1e-12)

    def test_bounds_against_oracle_and_initialization(self, learner_cfg):
        pool, secret, det = brute_instance()
        optimum, _ = exhaustive_best(pool, secret, 3, learner_cfg)
        init_only = solve_beam(
            pool, secret, 3, learner_cfg, det,
            SolverBudget(max_trainings=40, beam_width=5, neighbors_per_state=0),
            RngState(31),
        )
        full = solve_beam(
            pool, secret, 3, learner_cfg, det,
            SolverBudget(max_trainings=40, beam_width=5, neighbors_per_state=6),
            RngState(31),
        )
        assert full.best.cached_risk >= optimum - 1e-12
        # same seed means identical initial draws, so beam can only improve
        assert full.best.cached_risk <= init_only.best.cached_risk + 1e-12
        assert full.trainings_used <= 40

    def test_hill_climb_trajectory(self, learner_cfg):
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=25, restarts=1, beam_width=1,
                              neighbors_per_state=4)
        report = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(41))
        risks = [r for _, r in report.trajectory]
        assert all(a > b for a, b in zip(risks, risks[1:]))

    def test_deterministic(self, learner_cfg):
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=30, restarts=2, beam_width=3,
                              neighbors_per_state=5)
        r1 = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(51))
        r2 = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(51))
        assert r1.to_dict() == r2.to_dict()

    def test_remainder_spent_in_last_restart(self):
        budget = SolverBudget(max_trainings=32, restarts=3)
        assert [budget.per_restart(r) for r in range(3)] == [10, 10, 12]

    def test_restarts_without_budget_are_skipped(self, learner_cfg, monkeypatch):
        # B=2 over 3 restarts gives shares 0, 0 and 2
        draws = []
        draw = solvers._Scorer.draw

        def counted(self, *args):
            before = self.draws
            kept = draw(self, *args)
            draws.append(self.draws - before)
            return kept

        monkeypatch.setattr(solvers._Scorer, "draw", counted)
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=2, restarts=3, beam_width=2)
        report = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(63))
        assert draws[:2] == [0, 0] and draws[2] > 0
        assert report.trainings_used == 2

    def test_initialization_failure(self, learner_cfg):
        pool, secret, _ = brute_instance()
        det = unreachable_detector(pool)
        budget = SolverBudget(max_trainings=10, beam_width=3)
        with pytest.raises(SolverError,
                           match="feasible region unreachable: no feasible subset "
                                 "in 100 draws"):
            solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(61))

    def test_scarce_feasible_region_reports_its_one_subset(self, learner_cfg):
        # exactly one of the 56 subsets passes, so the initialisation keeps
        # one of the w=3 states it asks for; beam searches from it, and
        # reports what uniform search does
        pool, secret, _ = brute_instance()
        det = strict_detector(pool, 1 / 55)
        budget = SolverBudget(max_trainings=5, beam_width=3, neighbors_per_state=2)
        beam = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(1))
        uniform = solve_uniform(pool, secret, 3, learner_cfg, det, budget,
                                RngState(1))
        assert beam.best.indices == uniform.best.indices == (1, 5, 7)
        assert beam.trainings_used == uniform.trainings_used == 1
        assert beam.best.cached_risk == pytest.approx(uniform.best.cached_risk,
                                                      rel=1e-12)

    def test_restart_without_feasible_draws_reports_the_earlier_best(
            self, learner_cfg, monkeypatch):
        # B=20 over 2 restarts gives shares 10 and 10; once restart 0's
        # share is charged the detector rejects everything, so restart 1
        # scores nothing and the run reports restart 0, which is a
        # one-restart run of B=10
        pool, secret, det, _ = tightened_instance()
        budget = SolverBudget(max_trainings=20, restarts=2, beam_width=3,
                              neighbors_per_state=3)
        draws = []

        def counted(*args):
            draws.append(1)
            return sample_subset(*args)

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "sample_subset", counted)
            alone = solve_beam(pool, secret, 20, learner_cfg, det,
                               replace(budget, max_trainings=10, restarts=1),
                               RngState(7))
        trainings = []
        feasible = PoolKernel.feasible

        def trained(*args, **kwargs):
            trainings.append(1)
            return train(*args, **kwargs)

        def closed(self, indices):
            return len(trainings) < 10 and feasible(self, indices)

        monkeypatch.setattr(solvers, "train", trained)
        monkeypatch.setattr(PoolKernel, "feasible", closed)
        report = solve_beam(pool, secret, 20, learner_cfg, det, budget, RngState(7))
        init_cap = solvers.DRAW_CAP_FACTOR * budget.max_trainings
        assert report.trainings_used == alone.trainings_used == 10
        assert report.best == alone.best
        assert report.trajectory == alone.trajectory
        # restart 1 is rejected on every draw the shared cap has left
        assert (report.feasibility_rejections
                == alone.feasibility_rejections + init_cap - len(draws))

    def test_wall_clock_limit_before_first_evaluation(self, learner_cfg):
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=50, wall_clock_limit=0.0)
        with pytest.raises(SolverError, match="wall clock"):
            solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(1))

    def test_deadline_in_first_restart_reports_its_best(self, learner_cfg,
                                                        monkeypatch):
        # the deadline passes once 12 trainings are charged, inside restart
        # 0's second frontier: restart 1 runs nothing, and the report is the
        # best of restart 0's 12 trainings
        pool, secret, det, _ = tightened_instance()
        budget = SolverBudget(max_trainings=60, restarts=2, beam_width=3,
                              neighbors_per_state=3)
        full = solve_beam(pool, secret, 20, learner_cfg, det, budget, RngState(7))
        monkeypatch.setattr(solvers._Scorer, "expired",
                            lambda self: self.trainings >= 12)
        cut = solve_beam(pool, secret, 20, learner_cfg, det, budget, RngState(7))
        assert cut.trainings_used == 12
        assert cut.trajectory == [(c, r) for c, r in full.trajectory
                                  if c <= cut.trainings_used]
        assert cut.best.cached_risk == cut.trajectory[-1][1]


def two_loop_beam(pool, secret, m, cfg, det, budget, rng):
    """Beam search as it was written before it had one frontier loop, kept
    as an oracle: it scores its initial draws in one loop and each frontier
    in another, each subset by `risk_weighted` and `_record`, and checks the
    deadline before each neighbor's training only."""
    run = solvers._Scorer(pool, secret, m, cfg, det, None, budget.wall_clock_limit)

    def risk(idx):
        view = WeightedTrainingView(pool, subset_weights(len(pool), idx))
        value = run.risk_weighted(view)[0]
        run._record(idx, value)
        return value

    w = budget.beam_width
    init_cap = solvers.DRAW_CAP_FACTOR * max(budget.max_trainings, w)
    for r in range(budget.restarts):
        budget_end = run.trainings + budget.per_restart(r)
        batch = run.draw(rng, init_cap - run.draws,
                         min(w, budget_end - run.trainings), set())
        evaluated = {idx: risk(idx) for idx in batch}
        if not evaluated:
            continue
        beam = sorted((value, idx) for idx, value in evaluated.items())
        while not run.spent(budget_end):
            fresh = {}
            for _, idx in beam:
                for nb in neighbors(idx, run, budget.neighbors_per_state, rng):
                    if nb not in evaluated:
                        fresh[nb] = None
            if not fresh:
                break
            union = list(beam)
            for idx in fresh:
                if run.spent(budget_end):
                    break
                value = risk(idx)
                evaluated[idx] = value
                union.append((value, idx))
            union.sort()
            beam = union[:w]
    return solvers._finalize(run, "beam", rng.seed)


class TestOneFrontierLoop:
    """Beam search scores every frontier, its initial draws included, by one
    `risk_each` call."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_two_loop_beam(self, data):
        # small pools, budgets that cut a frontier, and detectors tightened
        # so that draws and neighbor proposals get rejected
        seed = data.draw(st.integers(0, 10**6))
        n_per = data.draw(st.integers(3, 8))
        m = data.draw(st.integers(2, min(6, 2 * n_per - 1)))
        pool = gaussian_task(seed, n_per, separation=2.0, std=1.5)
        secret = gaussian_task(seed + 1, 6, role="secret_set")
        base = DetectorConfig.from_pool(pool)
        shrink = data.draw(st.sampled_from([1.0, 0.03, 0.01, 0.003, 0.001]))
        det = replace(base, kernel_bound=shrink * base.kernel_bound)
        budget = SolverBudget(max_trainings=data.draw(st.integers(1, 40)),
                              restarts=data.draw(st.integers(1, 4)),
                              beam_width=data.draw(st.integers(1, 6)),
                              neighbors_per_state=data.draw(st.integers(0, 8)))

        def outcome(solve):
            try:
                return solve(pool, secret, m, LearnerConfig(), det, budget,
                             RngState(seed)).to_dict()
            except SolverError as exc:
                return str(exc)

        assert outcome(solve_beam) == outcome(two_loop_beam)

    def test_deadline_in_the_first_frontier_stops_it(self, learner_cfg,
                                                     monkeypatch):
        # the deadline is checked before each training, the initial draws'
        # included: it passes once 2 of a first frontier of 4 are charged
        pool, secret, det = brute_instance()
        budget = SolverBudget(max_trainings=50, beam_width=4,
                              neighbors_per_state=3)
        first = scorer(pool, secret, 3, learner_cfg, det).draw(
            RngState(1), 200, 4, set())
        monkeypatch.setattr(solvers._Scorer, "expired",
                            lambda self: self.trainings >= 2)
        report = solve_beam(pool, secret, 3, learner_cfg, det, budget, RngState(1))
        assert len(first) == 4
        assert report.trainings_used == 2
        assert report.best.indices in first[:2]


class TestKernelMatch:
    """A solver's `kernel=` must be built on its pool under its detector."""

    @staticmethod
    def solve(name, pool, secret, det, kernel, learner_cfg):
        budget = SolverBudget(max_trainings=20, beam_width=2)
        if name == "nlp":
            return solve_nlp(pool, secret, 3, learner_cfg, det,
                             CandidateSet((0, 1, 2)), budget, kernel=kernel)
        solve = solve_uniform if name == "uniform" else solve_beam
        return solve(pool, secret, 3, learner_cfg, det, budget, RngState(1),
                     kernel=kernel)

    @pytest.mark.parametrize("name", ["uniform", "beam", "nlp"])
    def test_kernel_for_another_pool_size(self, learner_cfg, name):
        pool, secret, det = brute_instance()
        small = PoolKernel(pool.subset(range(4), role="camouflage_pool"), det)
        with pytest.raises(DataError, match="kernel"):
            self.solve(name, pool, secret, det, small, learner_cfg)

    @pytest.mark.parametrize("name", ["uniform", "beam", "nlp"])
    def test_kernel_for_another_pool_of_the_same_size(self, learner_cfg, name):
        # same size and detector config, other points: the kernel's psi
        # values belong to the other pool
        pool, other = gaussian_task(2, 20), gaussian_task(1, 20)
        secret = gaussian_task(103, 6, role="secret_set")
        det = DetectorConfig.from_pool(other)
        with pytest.raises(DataError, match="kernel"):
            self.solve(name, pool, secret, det, PoolKernel(other, det),
                       learner_cfg)

    @pytest.mark.parametrize("name", ["uniform", "beam", "nlp"])
    def test_kernel_for_another_detector(self, learner_cfg, name):
        # the kernel's looser threshold would pass sets that `det` flags
        pool, secret, det = brute_instance()
        strict = replace(det, kernel_bound=1e-6)
        with pytest.raises(DataError, match="kernel"):
            self.solve(name, pool, secret, strict, PoolKernel(pool, det),
                       learner_cfg)


class TestProjection:
    def test_feasible_points_fixed(self):
        gen = RngState(71).generator
        for _ in range(20):
            n = int(gen.integers(2, 30))
            m = int(gen.integers(1, n))
            b = gen.uniform(0, 1, size=n)
            b *= m / b.sum()
            if b.max() > 1.0:
                continue
            assert np.allclose(project_capped_simplex(b, m), b, atol=1e-9)

    def test_constraints_and_optimality(self):
        gen = RngState(73).generator
        for _ in range(50):
            n = int(gen.integers(2, 40))
            m = int(gen.integers(1, n))
            v = 3.0 * gen.standard_normal(n)
            p = project_capped_simplex(v, m)
            assert p.min() >= -1e-12 and p.max() <= 1 + 1e-12
            assert abs(p.sum() - m) <= 1e-6
            # variational inequality: (v - p) . (z - p) <= 0 for feasible z
            for _ in range(5):
                z = gen.uniform(0, 1, size=n)
                z = project_capped_simplex(z, m)  # any feasible point
                assert float((v - p) @ (z - p)) <= 1e-7

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 40), st.booleans())
    def test_kkt_and_bisection_reference(self, data, n, tied):
        # tied: few distinct values, some exactly 1 apart, so breakpoints
        # v_i and v_j - 1 coincide
        values = (st.sampled_from([-1.0, 0.0, 0.25, 1.0, 2.0]) if tied
                  else st.floats(-5.0, 5.0))
        v = data.draw(arrays(np.float64, n, elements=values))
        total = data.draw(st.one_of(st.just(0.0), st.just(float(n)),
                                    st.integers(0, n).map(float),
                                    st.floats(0.0, float(n))))
        p = project_capped_simplex(v, total)
        assert p.min() >= 0.0 and p.max() <= 1.0
        assert abs(p.sum() - total) <= 1e-12 * max(n, 1)
        # KKT: p = clip(v - tau, 0, 1) for one tau, so tau = v_i - p_i on the
        # free coordinates, v_i <= tau where p_i = 0 and v_i - 1 >= tau
        # where p_i = 1
        tol = 1e-12 * (1.0 + float(np.abs(v).max()))
        zeros, ones = p == 0.0, p == 1.0
        low = float(v[zeros].max()) if zeros.any() else -np.inf
        high = float((v[ones] - 1.0).min()) if ones.any() else np.inf
        assert low <= high + tol
        free = ~(zeros | ones)
        if free.any():
            tau = v[free] - p[free]
            assert float(np.ptp(tau)) <= tol
            assert low - tol <= tau.min() and tau.max() <= high + tol
        assert np.allclose(p, bisection_projection(v, total), rtol=0.0, atol=1e-12)

    def test_bisection_reference_agrees_at_scale(self):
        gen = RngState(75).generator
        for n, total in ((200, 20.0), (3000, 50.0), (3000, 2999.5)):
            v = gen.uniform(-0.5, 1.5, size=n)
            p = project_capped_simplex(v, total)
            assert np.abs(p - bisection_projection(v, total)).max() <= 1e-12


def bisection_projection(v, total, steps=200):
    """Reference projection: bisection on tau over [min(v) - 1, max(v)]."""
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, 1.0).sum() > total:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


def relaxed_instance(seed=201, n_per=10, m=5):
    pool = gaussian_task(seed, n_per, separation=1.0, std=2.0)
    secret = gaussian_task(seed + 1, 8, separation=4.0, std=1.0,
                           role="secret_set")
    det = DetectorConfig.from_pool(pool)
    return pool, secret, det


class TestSolveRelaxed:
    def test_stationary_corner_returns_seed(self, learner_cfg):
        # the selected item carries the (unique) minimal risk gradient, so
        # the projected gradient at the seed indicator is zero
        pool = make_dataset(
            [[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]], [1, 1, -1, -1]
        )
        secret = make_dataset([[4.0, 0.0], [-4.0, 0.0]], [1, -1], role="secret_set")
        det = DetectorConfig.from_pool(pool)
        b0 = np.array([1.0, 0.0, 0.0, 0.0])
        view = WeightedTrainingView(pool, b0)
        g = risk_gradient_wrt_weights(
            view, learner_cfg, secret, theta=train(view, learner_cfg)
        )
        assert g[0] == g.min()  # premise: seed is the corner minimizer
        sol = solve_relaxed(scorer(pool, secret, 1, learner_cfg, det),
                            CandidateSet((0,)), NO_CAP)
        assert np.abs(sol.b - b0).max() <= 1e-6

    def test_descent_contract_and_invariants(self, learner_cfg):
        pool, secret, det = relaxed_instance()
        rng = RngState(81)
        seed_set = sample_subset(pool, 5, rng)
        seed_risk = subset_risk(pool, seed_set.indices, secret, learner_cfg)
        sol = solve_relaxed(scorer(pool, secret, 5, learner_cfg, det), seed_set,
                            NO_CAP)
        view = WeightedTrainingView(pool, sol.b)
        returned_risk = empirical_risk(sol.theta, secret)
        assert returned_risk <= seed_risk + 1e-9
        assert abs(sol.b.sum() - 5.0) <= 1e-6
        assert sol.b.min() >= -1e-9 and sol.b.max() <= 1 + 1e-9
        assert sol.stationarity_resid <= 1e-6
        assert sol.psi_b <= -FEASIBILITY_SLACK

    def test_rejected_step_halves_the_step_size(self, monkeypatch):
        secret, pool, _ = generate(SyntheticSpec(seed=5, cover_count=30,
                                                 secret_count=30))
        cfg = LearnerConfig(lam=0.01)
        det = DetectorConfig.from_pool(pool)
        run = scorer(pool, secret, 10, cfg, det)
        rng = RngState(4)
        seed_set = sample_subset(pool, 10, rng)
        while not run.kernel.feasible(seed_set.indices):
            seed_set = sample_subset(pool, 10, rng)
        seed_risk = subset_risk(pool, seed_set.indices, secret, cfg)
        marks = []

        def gradient(*args, **kwargs):
            marks.append(run.trainings)
            return risk_gradient_wrt_weights(*args, **kwargs)

        monkeypatch.setattr(solvers, "risk_gradient_wrt_weights", gradient)
        sol = solve_relaxed(run, seed_set, NO_CAP)
        # an accepted step is followed by the next gradient, so two trial
        # trainings between gradients mean a rejected step halved eta
        assert max(np.diff(marks + [run.trainings])) >= 2
        assert empirical_risk(sol.theta, secret) <= seed_risk + 1e-9
        assert abs(sol.b.sum() - 10) <= 1e-6

    def test_projected_gradient_direction_descends(self, learner_cfg):
        # finite-difference audit of the first step on a 2-D instance
        pool, secret, det = relaxed_instance(seed=211, n_per=10, m=5)
        kernel = PoolKernel(pool, det)
        seed_set = sample_subset(pool, 5, RngState(83))
        b0 = np.zeros(len(pool))
        b0[list(seed_set.indices)] = 1.0

        def objective(b):
            theta = train(WeightedTrainingView(pool, b), learner_cfg)
            risk = empirical_risk(theta, secret)
            psi_b = kernel.weighted(b) - kernel.threshold(5)
            violation = max(psi_b + FEASIBILITY_SLACK, 0.0)
            return risk + violation * violation

        view = WeightedTrainingView(pool, b0)
        grad = risk_gradient_wrt_weights(
            view, learner_cfg, secret, theta=train(view, learner_cfg)
        )
        stepped = project_capped_simplex(b0 - 1e-2 * grad, 5.0)
        assert np.abs(stepped - b0).max() > 1e-6  # not already stationary
        assert objective(stepped) < objective(b0)

    def test_infeasible_seed_rejected(self, learner_cfg):
        pool, secret, _ = relaxed_instance()
        det = unreachable_detector(pool)
        with pytest.raises(SolverError, match="seed"):
            solve_relaxed(scorer(pool, secret, 5, learner_cfg, det),
                          sample_subset(pool, 5, RngState(1)), NO_CAP)


class TestRounding:
    def test_hand_enumerated_swap_sequence(self):
        b = np.array([0.1, 0.9, 0.8, 0.2])
        cands = rounding_candidates(b, (0, 1), n=4, m=2)
        assert cands == [(0, 1), (1, 2), (2, 3)]
        # the global top-m-by-b set {1, 2} appears
        assert (1, 2) in cands

    def test_indicator_tie_break(self):
        # ties in b resolve toward the lower pool index: index 0 is kept
        # longest within the seed and index 2 enters first from outside
        b = np.array([1.0, 1.0, 0.0, 0.0])
        cands = rounding_candidates(b, (0, 1), n=4, m=2)
        assert cands == [(0, 1), (0, 2), (2, 3)]

    def test_count_and_membership(self):
        # m at most n/2 and above it; b continuous, tied on three levels,
        # or the indicator of an m-subset
        gen = RngState(91).generator
        for _ in range(20):
            n = int(gen.integers(6, 16))
            for m in (int(gen.integers(1, n // 2 + 1)), int(gen.integers(n // 2 + 1, n))):
                seed = tuple(np.sort(gen.choice(n, size=m, replace=False)))
                indicator = np.zeros(n)
                indicator[gen.choice(n, size=m, replace=False)] = 1.0
                for b in (gen.uniform(0, 1, size=n), gen.integers(0, 3, size=n) / 2.0,
                          indicator):
                    cands = rounding_candidates(b, seed, n, m)
                    assert len(cands) == min(m, n - m) + 1
                    assert cands[0] == seed
                    top_m = tuple(sorted(sorted(range(n), key=lambda i: (-b[i], i))[:m]))
                    assert top_m in cands
                    assert len(set(cands)) == len(cands)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_key_sort_definition(self, data):
        # m up to n, so the complement may hold fewer than m indices
        n = data.draw(st.integers(1, 30))
        m = data.draw(st.integers(1, n))
        seed = tuple(sorted(data.draw(
            st.sets(st.integers(0, n - 1), min_size=m, max_size=m))))
        # b on a few levels, where ties are common, or free in [0, 1]
        levels = data.draw(st.sampled_from(
            [st.sampled_from([-0.0, 0.0, 0.5, 1.0]), st.floats(0.0, 1.0)]))
        b = data.draw(arrays(np.float64, n, elements=levels))
        comp = sorted(set(range(n)) - set(seed))
        keep = sorted(seed, key=lambda i: (-b[i], i))
        add = sorted(comp, key=lambda i: (-b[i], i))
        want = [tuple(sorted(keep[:m - c] + add[:c]))
                for c in range(min(m, len(comp)) + 1)]
        got = rounding_candidates(b, seed, n, m)
        assert got == want
        assert all(type(i) is int for c in got for i in c)

    def test_returned_no_worse_than_seed(self, learner_cfg):
        pool, secret, det = relaxed_instance(seed=221)
        seed_set = sample_subset(pool, 5, RngState(93))
        seed_risk = subset_risk(pool, seed_set.indices, secret, learner_cfg)
        run = scorer(pool, secret, 5, learner_cfg, det)
        sol = solve_relaxed(run, seed_set, NO_CAP)
        report = round_relaxed(run, sol, seed_set)
        assert report.best.cached_risk <= seed_risk + 1e-9
        assert report.best.cached_psi < 0
        assert len(report.diagnostics["candidates"]) == 6


class TestSolveNlp:
    def test_contracts_on_brute_instance(self, learner_cfg):
        pool, secret, det = brute_instance()
        optimum, _ = exhaustive_best(pool, secret, 3, learner_cfg)
        seed_set = sample_subset(pool, 3, RngState(95))
        seed_risk = subset_risk(pool, seed_set.indices, secret, learner_cfg)
        report = solve_nlp(pool, secret, 3, learner_cfg, det, seed_set,
                           NlpOptions(max_trainings=120))
        assert report.best.cached_risk <= seed_risk + 1e-9
        assert report.best.cached_risk >= optimum - 1e-9
        assert report.best.cached_psi < 0
        assert report.trainings_used <= 120
        assert report.diagnostics["sum_b"] == pytest.approx(3.0, abs=1e-6)

    def test_deterministic(self, learner_cfg):
        pool, secret, det = relaxed_instance(seed=231)
        seed_set = sample_subset(pool, 5, RngState(97))
        budget = SolverBudget(max_trainings=NO_CAP)
        r1 = solve_nlp(pool, secret, 5, learner_cfg, det, seed_set, budget)
        r2 = solve_nlp(pool, secret, 5, learner_cfg, det, seed_set, budget)
        assert r1.to_dict() == r2.to_dict()

    def test_to_dict_writes_b_as_its_support(self, learner_cfg):
        pool, secret, det = relaxed_instance(seed=231)
        seed_set = sample_subset(pool, 5, RngState(97))
        report = solve_nlp(pool, secret, 5, learner_cfg, det, seed_set,
                           SolverBudget(max_trainings=NO_CAP))
        dense = report.diagnostics["b"]
        assert len(dense) == len(pool)
        support = json.loads(json.dumps(report.to_dict()))["diagnostics"]["b"]
        assert len(support["indices"]) == np.count_nonzero(dense) < len(pool)
        expanded = np.zeros(len(pool))
        expanded[support["indices"]] = support["values"]
        assert np.array_equal(expanded, dense)

    def test_budget_too_small_for_rounding(self, learner_cfg):
        pool, secret, det = relaxed_instance(seed=233)
        seed_set = sample_subset(pool, 5, RngState(99))
        with pytest.raises(SolverError, match="max_trainings"):
            solve_nlp(pool, secret, 5, learner_cfg, det, seed_set,
                      NlpOptions(max_trainings=4))

    def test_seed_index_outside_the_pool(self, learner_cfg):
        # raised a bare IndexError from the kernel
        secret, pool, _ = generate(acceptance_spec(3))
        det = DetectorConfig.from_pool(pool)
        with pytest.raises(DataError,
                           match="seed set index 999 out of range for pool of 200"):
            solve_nlp(pool, secret, 3, learner_cfg, det, CandidateSet((0, 1, 999)),
                      NlpOptions(max_trainings=50))

    def test_budget_exactly_covers_phases(self, learner_cfg):
        pool, secret, det = relaxed_instance(seed=235)
        seed_set = sample_subset(pool, 5, RngState(101))
        B = 7  # 1 relaxed evaluation + 6 rounding candidates
        report = solve_nlp(pool, secret, 5, learner_cfg, det, seed_set,
                           NlpOptions(max_trainings=B))
        assert report.trainings_used <= B

    @pytest.mark.parametrize("instance", ["tightened", "brute"])
    def test_rounding_sweep_fits_its_reserve(self, learner_cfg, instance):
        # one training is reserved per rounding candidate, so every feasible
        # candidate is scored and the total never exceeds the budget
        if instance == "tightened":
            pool, secret, det, seed_set = tightened_instance()
        else:
            pool, secret, det = brute_instance()
            seed_set = sample_subset(pool, 3, RngState(95))
        m = len(seed_set)
        kernel = PoolKernel(pool, det)
        reserve = min(m, len(pool) - m) + 1
        for B in range(reserve + 1, reserve + 9):
            report = solve_nlp(pool, secret, m, learner_cfg, det, seed_set,
                               NlpOptions(max_trainings=B))
            candidates = report.diagnostics["candidates"]
            assert len(candidates) == reserve
            scored = sum(kernel.feasible(tuple(c)) for c in candidates)
            assert report.trainings_used <= B
            assert (report.trainings_used
                    == report.diagnostics["relaxed_trainings"] + scored)

    @pytest.mark.parametrize("cap", [5.5, 6.0, True, 0])
    def test_options_reject_non_integer_cap(self, cap):
        # a fractional cap let the rounding sweep overrun it (6 trainings at 5.5)
        with pytest.raises(DataError, match="max_trainings"):
            NlpOptions(max_trainings=cap)
        assert NlpOptions(max_trainings=np.int64(6)).max_trainings == 6

    def test_options_reject_bad_wall_clock_limit(self):
        for limit in (float("nan"), -1.0):
            with pytest.raises(DataError, match="wall_clock_limit"):
                NlpOptions(max_trainings=1, wall_clock_limit=limit)
        assert NlpOptions(max_trainings=1, wall_clock_limit=0.0).wall_clock_limit == 0.0


def tightened_instance(seed=3, quantile=0.2, m=20, draws=200):
    """Acceptance-family pool whose detector threshold sits at the
    `quantile` of the MMD of random m-subsets, so most random subsets and
    many relaxed iterates fail it; also returns a feasible random seed set."""
    secret, pool, _ = generate(acceptance_spec(seed))
    base = DetectorConfig.from_pool(pool)
    kernel = PoolKernel(pool, base)
    rng = RngState(seed)
    values = sorted(
        kernel.mmd_indices(sample_subset(pool, m, rng).indices)
        for _ in range(draws)
    )
    target = values[int(quantile * (len(values) - 1))]
    # the threshold scales as sqrt(K); land it on the target quantile
    K = (target / mmd_threshold(len(pool), m, base)) ** 2
    det = replace(base, kernel_bound=K)
    strict = PoolKernel(pool, det)
    seed_set = sample_subset(pool, m, rng)
    while not strict.feasible(seed_set.indices):
        seed_set = sample_subset(pool, m, rng)
    return pool, secret, det, seed_set


class TestPenaltyPath:
    def test_relaxed_solver_pays_the_detector_penalty(self, learner_cfg, monkeypatch):
        pool, secret, det, seed_set = tightened_instance()
        calls = []
        weighted_grad = PoolKernel.weighted_grad

        def counted(self, b):
            calls.append(1)
            return weighted_grad(self, b)

        monkeypatch.setattr(PoolKernel, "weighted_grad", counted)
        seed_risk = subset_risk(pool, seed_set.indices, secret, learner_cfg)
        sol = solve_relaxed(scorer(pool, secret, 20, learner_cfg, det), seed_set,
                            cap=100)
        assert calls  # some iterate violated the detector
        assert sol.psi_b <= -FEASIBILITY_SLACK
        assert abs(sol.b.sum() - 20) <= 1e-6
        assert empirical_risk(sol.theta, secret) <= seed_risk + 1e-9


class TestRelaxedViews:
    """solve_relaxed builds one WeightedTrainingView per training it
    charges, and reuses it for the weight gradient and the residual."""

    @pytest.mark.parametrize("instance", ["brute", "tightened"])
    def test_one_view_per_training(self, learner_cfg, monkeypatch, instance):
        if instance == "tightened":
            pool, secret, det, seed_set = tightened_instance()
            m, cap = 20, 100
        else:
            (pool, secret, det), seed_set = brute_instance(), CandidateSet((0, 1, 2))
            m, cap = 3, NO_CAP
        views, grads = [], []
        view_cls, weighted_grad = solvers.WeightedTrainingView, PoolKernel.weighted_grad

        def counted_view(*args):
            views.append(1)
            return view_cls(*args)

        def counted_grad(self, b):
            grads.append(1)
            return weighted_grad(self, b)

        monkeypatch.setattr(solvers, "WeightedTrainingView", counted_view)
        monkeypatch.setattr(PoolKernel, "weighted_grad", counted_grad)
        run = scorer(pool, secret, m, learner_cfg, det)
        solve_relaxed(run, seed_set, cap)
        assert run.trainings > 1
        assert len(views) == run.trainings
        # only the tightened detector sends an iterate down the penalty path
        assert bool(grads) == (instance == "tightened")


def reference_scores(pool, secret, cfg, subsets, trainings=0):
    """Score `subsets` in order, training each one with `train`, the way a
    sequential loop charging one training each would: returns the best
    indices, the best risk, the trajectory and the training count."""
    best_idx, best_risk, trajectory = None, np.inf, []
    for idx in subsets:
        trainings += 1
        risk = subset_risk(pool, idx, secret, cfg)
        if risk < best_risk:
            best_idx, best_risk = idx, risk
            trajectory.append((trainings, risk))
    return best_idx, best_risk, trajectory, trainings


class TestBatchedScoring:
    """Batched scoring reports what a loop training each subset would."""

    @staticmethod
    def assert_matches(report, reference, rejections):
        best_idx, best_risk, trajectory, trainings = reference
        assert report.best.indices == best_idx
        assert report.trainings_used == trainings
        assert report.feasibility_rejections == rejections
        assert report.trajectory == trajectory
        assert report.best.cached_risk == best_risk

    @pytest.mark.parametrize("instance, B, dedup", [
        ("tightened", 60, True), ("brute", 80, True), ("brute", 80, False)])
    def test_uniform_matches_a_train_loop(self, learner_cfg, instance, B, dedup):
        if instance == "tightened":
            pool, secret, det, _ = tightened_instance()
        else:
            pool, secret, det = brute_instance()
        m = 20 if instance == "tightened" else 3
        report = solve_uniform(pool, secret, m, learner_cfg, det,
                               SolverBudget(max_trainings=B), RngState(8),
                               dedup=dedup)
        kernel, rng = PoolKernel(pool, det), RngState(8)
        subsets, draws, rejections = [], 0, 0
        while len(subsets) < B and draws < solvers.DRAW_CAP_FACTOR * B:
            draws += 1
            idx = sample_subset(pool, m, rng).indices
            if not kernel.feasible(idx):
                rejections += 1
            elif not (dedup and idx in subsets):
                subsets.append(idx)
        self.assert_matches(
            report, reference_scores(pool, secret, learner_cfg, subsets), rejections)

    def test_chunks_bound_the_batch(self, learner_cfg, monkeypatch):
        # three subsets per train_batch call give the one-call report
        pool, secret, det, _ = tightened_instance()
        budget = SolverBudget(max_trainings=20)
        whole = solve_uniform(pool, secret, 20, learner_cfg, det, budget,
                              RngState(8))
        sizes = []

        def sized(X, y, cfg):
            sizes.append(len(X))
            return train_batch(X, y, cfg)

        monkeypatch.setattr(solvers, "BATCH_VALUES", 3 * 20 * pool.dimension)
        monkeypatch.setattr(solvers, "train_batch", sized)
        chunked = solve_uniform(pool, secret, 20, learner_cfg, det, budget,
                                RngState(8))
        assert sizes == [3] * 6 + [2]
        assert chunked.to_dict() == whole.to_dict()

    def test_rounding_matches_a_train_loop(self, learner_cfg):
        pool, secret, det, seed_set = tightened_instance()
        run = scorer(pool, secret, 20, learner_cfg, det)
        sol = solve_relaxed(run, seed_set, cap=30)
        relaxed, rejected = run.trainings, run.rejections
        report = round_relaxed(run, sol, seed_set)
        kernel = PoolKernel(pool, det)
        candidates = rounding_candidates(sol.b, seed_set.indices, len(pool), 20)
        feasible = [c for c in candidates if kernel.feasible(c)]
        reference = reference_scores(pool, secret, learner_cfg, feasible, relaxed)
        self.assert_matches(report, reference,
                            rejected + len(candidates) - len(feasible))


class TestCachedRisk:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cached_risk_is_a_fresh_training(self, data):
        # every solver reports the bits that training its best subset anew,
        # as 0/1 weights on the pool, and scoring it give
        solver = data.draw(st.sampled_from(["uniform", "beam", "nlp"]))
        d, n_per = data.draw(st.integers(1, 20)), data.draw(st.integers(3, 12))
        m = data.draw(st.integers(2, 2 * n_per - 1))
        seed = data.draw(st.integers(0, 10**6))
        pool = gaussian_task(seed, n_per, dim=d, separation=2.0, std=1.5)
        secret = gaussian_task(seed + 1, data.draw(st.integers(3, 40)), dim=d,
                               role="secret_set")
        # a kernel bound this large puts every subset below the threshold
        det = replace(DetectorConfig.from_pool(pool), kernel_bound=1e6)
        cfg = LearnerConfig(lam=data.draw(st.floats(0.1, 10.0)))
        budget = SolverBudget(max_trainings=data.draw(st.integers(m + 2, 60)),
                              beam_width=3, neighbors_per_state=4)
        rng = RngState(seed)
        if solver == "uniform":
            report = solve_uniform(pool, secret, m, cfg, det, budget, rng)
        elif solver == "beam":
            report = solve_beam(pool, secret, m, cfg, det, budget, rng)
        else:
            report = solve_nlp(pool, secret, m, cfg, det,
                               sample_subset(pool, m, rng), budget)
        weights = subset_weights(len(pool), report.best.indices)
        fresh = empirical_risk(train(WeightedTrainingView(pool, weights), cfg), secret)
        assert report.best.cached_risk == fresh


class TestAccounting:
    """Report counters against counts taken around the detector check and
    the learner."""

    @pytest.fixture
    def instance(self):
        return tightened_instance()

    @pytest.fixture
    def counted(self, instance, monkeypatch):
        """(detector answers, trainings), counted once the instance is built."""
        answers, trainings = [], []
        feasible = PoolKernel.feasible

        def audited(self, indices):
            ok = feasible(self, indices)
            answers.append(ok)
            return ok

        def trained(*args, **kwargs):
            trainings.append(1)
            return train(*args, **kwargs)

        def trained_batch(X, y, cfg):
            trainings.extend([1] * len(X))
            return train_batch(X, y, cfg)

        monkeypatch.setattr(PoolKernel, "feasible", audited)
        monkeypatch.setattr(solvers, "train", trained)
        monkeypatch.setattr(solvers, "train_batch", trained_batch)
        return answers, trainings

    budget = SolverBudget(max_trainings=40, restarts=2, beam_width=4,
                          neighbors_per_state=8)

    def test_uniform(self, learner_cfg, instance, counted):
        answers, trainings = counted
        pool, secret, det, _ = instance
        report = solve_uniform(pool, secret, 20, learner_cfg, det, self.budget,
                               RngState(5))
        assert answers.count(False) > 0
        assert report.feasibility_rejections == answers.count(False)
        assert report.trainings_used == len(trainings)

    def test_beam(self, learner_cfg, instance, counted):
        # rejected neighbour proposals count like rejected draws
        answers, trainings = counted
        pool, secret, det, _ = instance
        report = solve_beam(pool, secret, 20, learner_cfg, det, self.budget,
                            RngState(6))
        assert answers.count(False) > 0
        assert report.feasibility_rejections == answers.count(False)
        assert report.trainings_used == len(trainings)

    def test_nlp(self, learner_cfg, instance, counted):
        answers, trainings = counted
        pool, secret, det, seed_set = instance
        report = solve_nlp(pool, secret, 20, learner_cfg, det, seed_set,
                           NlpOptions(max_trainings=100))
        assert answers.count(False) > 0
        assert report.feasibility_rejections == answers.count(False)
        assert report.trainings_used == len(trainings)
