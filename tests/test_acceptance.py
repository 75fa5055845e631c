"""Acceptance gate: eight criteria, each printed as one PASS/FAIL line with
its runtime against the stated limit.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Everything is seeded; the whole gate is deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from covertrain import (
    DetectorConfig,
    ExperimentConfig,
    LearnerConfig,
    ModelParams,
    NlpOptions,
    PoolKernel,
    RngState,
    SolverBudget,
    SyntheticSpec,
    WeightedTrainingView,
    acceptance_spec,
    augment,
    generate,
    loss_gradients,
    mmd,
    mmd_threshold,
    oracle_baseline,
    psi,
    random_baseline,
    rerun_from_manifest,
    run_experiment,
    rounding_candidates,
    sample_subset,
    save_dataset,
    solve_beam,
    solve_nlp,
    solve_uniform,
    stationarity_residual,
    train,
    weighted_mmd,
)
from covertrain.learner import instance_losses

from conftest import exhaustive_best, gaussian_task, make_dataset, subset_risk

LEARNER = LearnerConfig()


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.1f}s): {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {number} overran: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s < {limit_s:.0f}s): {description}")


def _train_subset(pool, indices, cfg=LEARNER):
    sub = pool.subset(list(indices), role="training_set")
    return train(WeightedTrainingView(sub, np.ones(len(sub))), cfg)


def test_criterion_1_detector_exactness():
    with criterion(1, "detector exactness: mmd(Z,Z)=0 and threshold formula", 10.0):
        cfg = DetectorConfig(alpha=0.05, sigma=1.0, label_scale_c=0.0)
        gen = RngState(1001).generator
        for k in range(20):
            size = int(gen.integers(1, 501))
            Z = gen.standard_normal((size, 3))
            assert mmd(Z, Z, cfg) <= 1e-9, f"case {k}, size {size}"

        # worked example
        got = mmd_threshold(4, 2, cfg)
        assert abs(got - 4.534024499775529) <= 1e-12

        for _ in range(50):
            n = int(gen.integers(1, 1000))
            m = int(gen.integers(1, 1000))
            alpha = float(gen.uniform(0.001, 0.999))
            K = float(gen.uniform(0.05, 4.0))
            c = DetectorConfig(alpha=alpha, sigma=1.0, label_scale_c=0.0,
                               kernel_bound=K)
            want = 2.0 * (math.sqrt(K / n) + math.sqrt(K / m)) + math.sqrt(
                2.0 * K * (n + m) / (n * m) * math.log(1.0 / alpha)
            )
            assert abs(mmd_threshold(n, m, c) - want) <= 1e-12


def _mixture(gen, size):
    half, rest = size // 2, size - size // 2
    pos = np.array([1.5, 0.0]) + gen.standard_normal((half, 2))
    neg = np.array([-1.5, 0.0]) + gen.standard_normal((rest, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(half, int), -np.ones(rest, int)])
    return X, y


def test_criterion_2_detector_calibration():
    with criterion(2, "calibration <= 0.05 under null, power >= 0.95 separated", 60.0):
        null_flags = 0
        for t in range(200):
            gen = RngState(20_000 + t).generator
            Xp, yp = _mixture(gen, 200)
            Xc, yc = _mixture(gen, 50)
            cfg = DetectorConfig.from_pool(make_dataset(Xp, yp))
            value = mmd(
                augment(Xp, yp, cfg.label_scale_c),
                augment(Xc, yc, cfg.label_scale_c),
                cfg,
            )
            null_flags += value - mmd_threshold(200, 50, cfg) >= 0
        assert null_flags / 200 <= 0.05, f"null rejection rate {null_flags / 200}"

        power_flags = 0
        for t in range(200):
            gen = RngState(30_000 + t).generator
            Xp = gen.standard_normal((200, 2))
            Xc = np.array([10.0, 0.0]) + gen.standard_normal((200, 2))
            yp = np.where(gen.uniform(size=200) < 0.5, 1, -1)
            yc = np.where(gen.uniform(size=200) < 0.5, 1, -1)
            cfg = DetectorConfig.from_pool(make_dataset(Xp, yp))
            value = mmd(
                augment(Xp, yp, cfg.label_scale_c),
                augment(Xc, yc, cfg.label_scale_c),
                cfg,
            )
            power_flags += value - mmd_threshold(200, 200, cfg) >= 0
        assert power_flags / 200 >= 0.95, f"power {power_flags / 200}"


def test_criterion_3_learner_correctness():
    with criterion(3, "stationarity, analytic gradients, 1-D fixed point", 30.0):
        gen = RngState(40_000).generator
        for _ in range(50):
            n = int(gen.integers(5, 201))
            d = int(gen.integers(1, 21))
            X = gen.standard_normal((n, d))
            y = np.where(gen.uniform(size=n) < 0.5, 1, -1)
            pool = make_dataset(X, y)
            view = WeightedTrainingView(pool, np.ones(n))
            theta = train(view, LEARNER)
            assert stationarity_residual(theta, view, LEARNER) <= 1e-6

        h = 1e-6
        for _ in range(100):
            d = int(gen.integers(1, 8))
            theta_vec = gen.standard_normal(d)
            x = gen.standard_normal(d)
            y = int(gen.choice([-1, 1]))
            grad = loss_gradients(
                ModelParams(theta_vec), x[None, :], np.array([y])
            )[0]
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                hi = instance_losses(ModelParams(theta_vec + e), x[None, :],
                                     np.array([y]))[0]
                lo = instance_losses(ModelParams(theta_vec - e), x[None, :],
                                     np.array([y]))[0]
                fd = (hi - lo) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-5 * max(abs(fd), 1e-3)

        # 1-D fixed point: bisection oracle on theta = sigmoid(-theta)
        def g(t):
            return t - 1.0 / (1.0 + math.exp(t))

        lo_b, hi_b = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo_b + hi_b)
            lo_b, hi_b = (lo_b, mid) if g(mid) > 0 else (mid, hi_b)
        root = 0.5 * (lo_b + hi_b)
        ds = make_dataset([[1.0]], [1])
        theta = train(WeightedTrainingView(ds, np.ones(1)), LEARNER)
        assert abs(theta.theta[0] - root) <= 1e-4


def test_criterion_4_weighted_unweighted_equivalence():
    with criterion(4, "binary-b training and weighted MMD reduce to subsets", 30.0):
        gen = RngState(50_000).generator
        for _ in range(100):
            n = int(gen.integers(6, 40))
            d = int(gen.integers(1, 6))
            X = gen.standard_normal((n, d))
            y = np.where(gen.uniform(size=n) < 0.5, 1, -1)
            pool = make_dataset(X, y)
            m = int(gen.integers(2, n))
            idx = np.sort(gen.choice(n, size=m, replace=False))
            b = np.zeros(n)
            b[idx] = 1.0
            theta_w = train(WeightedTrainingView(pool, b), LEARNER).theta
            theta_s = _train_subset(pool, idx).theta
            assert np.linalg.norm(theta_w - theta_s) <= 1e-8

        for _ in range(100):
            n = int(gen.integers(6, 40))
            pool = gaussian_task(int(gen.integers(1 << 30)), n // 2 + 1, dim=2)
            n = len(pool)
            cfg = DetectorConfig.from_pool(pool)
            Z = augment(pool.X, pool.y, cfg.label_scale_c)
            m = int(gen.integers(1, n))
            idx = np.sort(gen.choice(n, size=m, replace=False))
            b = np.zeros(n)
            b[idx] = 1.0
            assert abs(weighted_mmd(Z, b, cfg) - mmd(Z, Z[idx], cfg)) <= 1e-12


def _family_100(seed):
    return SyntheticSpec(
        dim=2, secret_separation=6.0, secret_std=1.0, secret_count=40,
        secret_test_count=40, cover_separation=4.0, cover_std=1.3,
        cover_count=50, angle=math.pi / 2, seed=seed,
    )


def test_criterion_5_solver_contracts():
    with criterion(5, "solver contracts and brute-force optimality bounds", 300.0):
        # contracts: 25 seeded runs per solver on the n=100, m=10 family
        B = 80
        for seed in range(25):
            secret, pool, _ = generate(_family_100(seed))
            det = DetectorConfig.from_pool(pool)
            kernel = PoolKernel(pool, det)
            rng = RngState(seed)
            reports = []
            reports.append(solve_uniform(
                pool, secret, 10, LEARNER, det, SolverBudget(max_trainings=B),
                rng.child(0), kernel=kernel,
            ))
            reports.append(solve_beam(
                pool, secret, 10, LEARNER, det,
                SolverBudget(max_trainings=B, restarts=2, beam_width=4,
                             neighbors_per_state=6),
                rng.child(1), kernel=kernel,
            ))
            seed_set = sample_subset(pool, 10, rng.child(2))
            reports.append(solve_nlp(
                pool, secret, 10, LEARNER, det, seed_set,
                NlpOptions(max_trainings=B),
            ))
            for report in reports:
                verdict = psi(pool, report.best, det)
                assert verdict.psi < 0, report.solver_name
                assert report.trainings_used <= B, report.solver_name
                risks = [r for _, r in report.trajectory]
                assert all(a >= b for a, b in zip(risks, risks[1:]))
                counts = [c for c, _ in report.trajectory]
                assert counts == sorted(counts)

        # brute-forceable instance: n=8, m=3, every subset feasible
        pool = gaussian_task(101, 4, separation=2.0, std=1.5)
        secret = gaussian_task(103, 6, separation=4.0, std=1.0, role="secret_set")
        det = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, det)
        for combo in itertools.combinations(range(8), 3):
            assert kernel.feasible(combo)
        optimum, _ = exhaustive_best(pool, secret, 3, LEARNER)

        hits = 0
        for seed in range(100):
            report = solve_uniform(
                pool, secret, 3, LEARNER, det, SolverBudget(max_trainings=500),
                RngState(60_000 + seed), dedup=True, kernel=kernel,
            )
            hits += report.best.cached_risk <= optimum + 1e-12
        assert hits >= 99, f"uniform hit the optimum in only {hits}/100 seeds"

        for seed in range(25):
            rng_seed = 70_000 + seed
            init_only = solve_beam(
                pool, secret, 3, LEARNER, det,
                SolverBudget(max_trainings=40, beam_width=5,
                             neighbors_per_state=0),
                RngState(rng_seed), kernel=kernel,
            )
            full = solve_beam(
                pool, secret, 3, LEARNER, det,
                SolverBudget(max_trainings=40, beam_width=5,
                             neighbors_per_state=6),
                RngState(rng_seed), kernel=kernel,
            )
            assert full.best.cached_risk >= optimum - 1e-12
            assert full.best.cached_risk <= init_only.best.cached_risk + 1e-12

            seed_set = sample_subset(pool, 3, RngState(80_000 + seed))
            seed_risk = subset_risk(pool, seed_set.indices, secret, LEARNER)
            nlp = solve_nlp(pool, secret, 3, LEARNER, det, seed_set,
                            NlpOptions(max_trainings=100))
            assert nlp.best.cached_risk >= optimum - 1e-9
            assert nlp.best.cached_risk <= seed_risk + 1e-9


def test_criterion_6_rounding_guarantee():
    with criterion(6, "rounding: m+1 candidates, seed kept, never worse", 120.0):
        m = 8
        for seed in range(50):
            spec = SyntheticSpec(
                dim=2, secret_separation=6.0, secret_std=1.0, secret_count=30,
                secret_test_count=20, cover_separation=4.0, cover_std=1.3,
                cover_count=30, angle=math.pi / 2, seed=900 + seed,
            )
            secret, pool, _ = generate(spec)  # n = 60
            det = DetectorConfig.from_pool(pool)
            seed_set = sample_subset(pool, m, RngState(seed).child(9))
            seed_risk = subset_risk(pool, seed_set.indices, secret, LEARNER)
            report = solve_nlp(pool, secret, m, LEARNER, det, seed_set,
                               NlpOptions(max_trainings=60))

            assert report.best.cached_risk <= seed_risk + 1e-9
            candidates = [tuple(c) for c in report.diagnostics["candidates"]]
            assert len(candidates) == m + 1
            assert seed_set.indices in candidates
            b = np.asarray(report.diagnostics["b"])
            top_m = tuple(sorted(
                sorted(range(len(pool)), key=lambda i: (-b[i], i))[:m]
            ))
            assert top_m in candidates
            # construction invariant, independent of the solver run
            assert candidates == rounding_candidates(
                b, seed_set.indices, len(pool), m
            )


def _solver_runs(seed):
    """One acceptance-family seed: all three solvers plus both baselines."""
    secret, cover, test = generate(acceptance_spec(seed))
    det = DetectorConfig.from_pool(cover)
    kernel = PoolKernel(cover, det)
    rng = RngState(seed)
    selection = solve_uniform(
        cover, secret, 20, LEARNER, det, SolverBudget(max_trainings=60),
        rng.child(0), kernel=kernel,
    )
    reports = {
        "uniform": solve_uniform(
            cover, secret, 20, LEARNER, det, SolverBudget(max_trainings=300),
            rng.child(1), kernel=kernel,
        ),
        "beam": solve_beam(
            cover, secret, 20, LEARNER, det,
            SolverBudget(max_trainings=300, restarts=2, beam_width=4,
                         neighbors_per_state=8),
            rng.child(2), kernel=kernel,
        ),
        "nlp": solve_nlp(
            cover, secret, 20, LEARNER, det, selection.best,
            NlpOptions(max_trainings=300),
        ),
    }
    errors = {}
    for name, report in reports.items():
        verdict = psi(cover, report.best, det)
        assert verdict.psi < 0, f"{name} delivered a flagged set (seed {seed})"
        theta = _train_subset(cover, report.best.indices)
        errors[name] = float(
            np.mean(np.where(test.X @ theta.theta >= 0, 1, -1) != test.y)
        )
    errors["random"] = random_baseline(cover, test, 20, 20, LEARNER,
                                       rng.child(3))[0]
    errors["oracle"] = oracle_baseline(secret, test, LEARNER)
    return errors


def test_criterion_7_end_to_end_camouflage():
    with criterion(7, "50-seed ordering oracle <= solver <= random, gap >= 0.10", 600.0):
        sums = {k: 0.0 for k in ("uniform", "beam", "nlp", "random", "oracle")}
        for seed in range(50):
            for key, value in _solver_runs(seed).items():
                sums[key] += value
        means = {k: v / 50 for k, v in sums.items()}
        print("  means:", {k: round(v, 4) for k, v in means.items()})
        for name in ("uniform", "beam", "nlp"):
            assert means["oracle"] <= means[name], (name, means)
            assert means[name] <= means["random"], (name, means)
            assert means["random"] - means[name] >= 0.10, (name, means)


def test_criterion_8_determinism_from_manifest(tmp_path):
    with criterion(8, "manifest replay reproduces result.json byte-identically", 120.0):
        spec = SyntheticSpec(
            dim=2, secret_separation=6.0, secret_std=1.0, secret_count=30,
            secret_test_count=30, cover_separation=4.0, cover_std=1.3,
            cover_count=40, angle=math.pi / 2, seed=77,
        )
        secret, cover, test = generate(spec)
        save_dataset(secret, tmp_path / "secret.csv")
        save_dataset(cover, tmp_path / "cover.csv")
        save_dataset(test, tmp_path / "secret_test.csv")
        for solver in ("uniform", "beam", "nlp"):
            out = tmp_path / solver
            cfg = ExperimentConfig(
                secret_path=str(tmp_path / "secret.csv"),
                cover_paths=(str(tmp_path / "cover.csv"),),
                m=8,
                solver=solver,
                budget=SolverBudget(max_trainings=40, restarts=1, beam_width=3,
                                    neighbors_per_state=4),
                learner=LEARNER,
                test_fraction=None,
                test_path=str(tmp_path / "secret_test.csv"),
                selection_budget=20,
                random_trials=5,
                seed=31,
                out_dir=str(out),
            )
            run_experiment(cfg)
            rerun_from_manifest(out / "manifest.json", tmp_path / f"{solver}_replay")
            original = (out / "result.json").read_bytes()
            replay = (tmp_path / f"{solver}_replay" / "result.json").read_bytes()
            assert original == replay, solver
