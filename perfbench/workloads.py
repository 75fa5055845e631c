"""The benchmark's workloads: inputs made from a seed, the operation each
one times, and the checks each operation's output must pass.

accept-run  one acceptance-family seed (n=200, m=20, d=2, two cover
            candidates) through `run_experiment` with each solver
beam-tight  one library `solve_beam` on a wide pool (n=1000, d=20, m=100)
            whose detector is tightened so the constraint binds
nlp-large   one `run_experiment` with the nlp solver on large pools
            (n=3000, d=2, m=50, two cover candidates)

A round is the fixed list of operations a workload repeats; every run
attempts whole rounds, and every round repeats the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import covertrain
import covertrain.data as data
import covertrain.harness as harness
import covertrain.solvers as solvers
from covertrain import (
    DetectorConfig, ExperimentConfig, LearnerConfig, PoolKernel, RngState,
    SolverBudget, SyntheticSpec, acceptance_spec, generate, mmd_threshold,
    save_dataset,
)

import checks

LEARNER = LearnerConfig()

# Seed offset of each further cover candidate of a data seed.
SECOND_COVER = 10 ** 9


def data_seed(seed: int, i: int) -> int:
    """Synthetic-data seed of the i-th input of a run with workload seed
    `seed`; distinct runs get disjoint inputs for i < 1000."""
    return 1000 * seed + i


@dataclass
class Figures:
    """What one checked operation contributes to the end-to-end metrics."""

    trainings: int
    secret_risk: float
    test_loss: float
    errors: dict  # name -> (oracle, solver, random) test error, accept-run only


class _Pool:
    """One cover pool as the checks see it: its arrays and the textbook
    detector, built on first use."""

    def __init__(self, dataset):
        self.X = np.asarray(dataset.X)
        self.y = np.asarray(dataset.y)
        self._detector = None

    def detector(self, det: dict) -> checks.TextbookDetector:
        if self._detector is None:
            checks.check_calibration(det["sigma"], det["label_scale_c"],
                                     self.X, self.y)
            self._detector = checks.TextbookDetector(
                self.X, self.y, det["sigma"], det["label_scale_c"],
                det["alpha"], det["kernel_bound"])
        return self._detector


class _Task:
    """One synthetic task's files and, after set-up, its loaded datasets."""

    def __init__(self, workdir: Path, tag: str, covers: int):
        self.secret_path = workdir / f"{tag}-secret.csv"
        self.test_path = workdir / f"{tag}-test.csv"
        self.cover_paths = tuple(workdir / f"{tag}-cover{j}.csv"
                                 for j in range(covers))
        self.oracle_error = None

    def write(self, spec: SyntheticSpec) -> None:
        secret, cover, test = generate(spec)
        save_dataset(secret, self.secret_path)
        save_dataset(test, self.test_path)
        save_dataset(cover, self.cover_paths[0])
        for j, path in enumerate(self.cover_paths[1:], start=1):
            other = replace(spec, seed=spec.seed + j * SECOND_COVER)
            save_dataset(generate(other)[1], path)

    def load(self) -> None:
        self.secret = data.load_dataset(self.secret_path, role="secret_set")
        self.test = data.load_dataset(self.test_path, role="test_set")
        self.covers = [data.load_dataset(p) for p in self.cover_paths]
        self.pools = [_Pool(c) for c in self.covers]

    def oracle(self) -> float:
        """Test error of an independent fit on the secret training set."""
        if self.oracle_error is None:
            theta = checks.fit_logistic(self.secret.X, self.secret.y, LEARNER.lam)
            self.oracle_error = checks.error_rate(theta, self.test.X, self.test.y)
        return self.oracle_error


class Workload:
    """Inputs from the workload seed, set-up, and the round's operations."""

    round_size: int
    budget = SolverBudget(max_trainings=300, restarts=2, beam_width=4,
                          neighbors_per_state=8)

    def __init__(self, seed: int, workdir: Path, tasks: int, covers: int):
        self.workdir = workdir
        self.tasks = [_Task(workdir, f"t{i}", covers) for i in range(tasks)]
        self.seeds = [data_seed(seed, i) for i in range(tasks)]

    def spec(self, seed: int) -> SyntheticSpec:
        raise NotImplementedError

    def write_inputs(self) -> None:
        for task, seed in zip(self.tasks, self.seeds):
            task.write(self.spec(seed))

    def setup(self) -> None:
        for task in self.tasks:
            task.load()

    def check_round(self, figures: list[Figures]) -> None:
        """Checks on a whole round's figures; none by default."""

    def replay(self) -> None:
        """Checks made once, after the last round; none by default."""


class HarnessWorkload(Workload):
    """Operations that each run `run_experiment` once per config, on their
    own task with two cover candidates."""

    solver_names: tuple[str, ...]
    m: int
    selection_budget: int

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir, tasks=self.round_size, covers=2)

    def config(self, i: int, solver: str) -> ExperimentConfig:
        task = self.tasks[i]
        return ExperimentConfig(
            secret_path=str(task.secret_path),
            cover_paths=tuple(str(p) for p in task.cover_paths),
            m=self.m,
            solver=solver,
            budget=self.budget,
            learner=LEARNER,
            test_fraction=None,
            test_path=str(task.test_path),
            selection_budget=self.selection_budget,
            random_trials=20,
            seed=self.seeds[i],
            out_dir=str(self.workdir / "out" / f"{i}-{solver}"),
        )

    def run(self, i: int):
        for solver in self.solver_names:
            harness.run_experiment(self.config(i, solver), dump_model=True)

    def check(self, i: int, _output) -> Figures:
        task = self.tasks[i]
        trainings, risks, losses, errors = 0, [], [], {}
        for solver in self.solver_names:
            out = Path(self.config(i, solver).out_dir)
            result = json.loads((out / "result.json").read_text())
            manifest = json.loads((out / "manifest.json").read_text())
            theta = np.asarray(json.loads((out / "model.json").read_text())["theta"])
            row, solve = result["row"], manifest["stages"]["solve"]
            pool = task.pools[row["cover_index"]]
            idx = np.asarray(result["chosen_indices"], dtype=np.int64)

            checks.check_passes_detector(
                pool.detector(manifest["detector"]), idx, result["psi"])
            checks.check_stationary(theta, pool.X[idx], pool.y[idx],
                                    LEARNER.lam, LEARNER.tol)
            risk = checks.check_risk(row["secret_risk"], theta,
                                     task.secret.X, task.secret.y)
            checks.check_risk(solve["best_risk"], theta,
                              task.secret.X, task.secret.y)
            checks.check_budget(result["trainings_used"],
                                self.budget.max_trainings)
            checks.check_trajectory(solve["trajectory"], solve["best_risk"])
            error = checks.error_rate(theta, task.test.X, task.test.y)
            if error != row["solver_error"]:
                raise checks.CheckError(
                    f"solver_error {row['solver_error']} != recomputed {error}")
            if solver == "nlp":
                seed_idx = manifest["stages"]["select_cover"]["seed_set"]
                seed_theta = checks.fit_logistic(
                    pool.X[seed_idx], pool.y[seed_idx], LEARNER.lam)
                checks.check_not_worse(
                    solve["best_risk"],
                    checks.logistic_risk(seed_theta, task.secret.X, task.secret.y))

            trainings += result["trainings_used"]
            risks.append(risk)
            losses.append(checks.logistic_risk(theta, task.test.X, task.test.y))
            errors[solver] = (task.oracle(), error, row["random_error_mean"])
        return Figures(trainings, float(np.mean(risks)), float(np.mean(losses)),
                       errors)

    def replay(self) -> None:
        """Rerun operation 0 from its manifests; result.json must match."""
        for solver in self.solver_names:
            out = Path(self.config(0, solver).out_dir)
            again = self.workdir / "replay" / solver
            harness.rerun_from_manifest(out / "manifest.json", again)
            checks.check_replay((out / "result.json").read_bytes(),
                                (again / "result.json").read_bytes())


class AcceptRun(HarnessWorkload):
    """Acceptance-criterion scale; most time is numpy call overhead on 2x2
    Newton solves and Dataset copies, detector work is negligible."""

    name = "accept-run"
    solver_names = ("uniform", "beam", "nlp")
    m = 20
    selection_budget = 120  # 60 per cover candidate, as in criterion 7
    round_size = 16

    def spec(self, seed: int) -> SyntheticSpec:
        return acceptance_spec(seed)

    def check_round(self, figures: list[Figures]) -> None:
        test_points = sum(len(task.test) for task in self.tasks)
        for solver in self.solver_names:
            oracle, solver_err, random = np.mean(
                [f.errors[solver] for f in figures], axis=0)
            checks.check_ordering(oracle, solver_err, random, solver,
                                  test_points)


class NlpLarge(HarnessWorkload):
    """The relaxed solver on large pools: O(n^2) Gram builds and weighted
    MMD calls dominate."""

    name = "nlp-large"
    solver_names = ("nlp",)
    m = 50
    selection_budget = 60
    round_size = 10

    def spec(self, seed: int) -> SyntheticSpec:
        # Overlapping secret classes: the risk floor they set keeps the
        # quality metrics steady across seeds, where a separable secret
        # task gives risks near 0 that vary by a third between seeds.
        return SyntheticSpec(dim=2, secret_separation=3.0, cover_count=1500,
                             secret_count=100, secret_test_count=200, seed=seed)


class BeamTight(Workload):
    """Library beam search with a detector that binds: swap-neighbour
    generation, O(m^2) feasibility checks (rejected ones too) and trainings
    on 100 x 20 subsets. The pools' kernels are built in set-up."""

    name = "beam-tight"
    m = 100
    pools = 8
    round_size = 32
    # Threshold lands at this quantile of the MMD of random m-subsets.
    quantile = 0.5
    quantile_draws = 400

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir, tasks=self.pools, covers=1)
        self.solve_seeds = [data_seed(seed, i) for i in range(self.round_size)]

    def spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(dim=20, cover_count=500, secret_count=100,
                             secret_test_count=200, seed=seed)

    def setup(self) -> None:
        super().setup()
        for task, seed in zip(self.tasks, self.seeds):
            task.det = self.tighten(task.covers[0], RngState(seed))
            task.kernel = PoolKernel(task.covers[0], task.det)

    def tighten(self, pool, rng: RngState) -> DetectorConfig:
        """Detector whose threshold is the `quantile` of the MMD of random
        m-subsets; the threshold scales as sqrt(kernel_bound)."""
        base = DetectorConfig.from_pool(pool)
        kernel = PoolKernel(pool, base)
        values = sorted(
            kernel.mmd_indices(covertrain.sample_subset(pool, self.m, rng).indices)
            for _ in range(self.quantile_draws)
        )
        target = values[int(self.quantile * (len(values) - 1))]
        bound = (target / mmd_threshold(len(pool), self.m, base)) ** 2
        return replace(base, kernel_bound=bound)

    def run(self, i: int):
        task = self.tasks[i % self.pools]
        return solvers.solve_beam(task.covers[0], task.secret, self.m, LEARNER,
                                  task.det, self.budget,
                                  RngState(self.solve_seeds[i]), kernel=task.kernel)

    def check(self, i: int, report) -> Figures:
        task = self.tasks[i % self.pools]
        pool = task.pools[0]
        idx = np.asarray(report.best.indices, dtype=np.int64)
        checks.check_passes_detector(pool.detector(task.det.to_dict()), idx,
                                     report.best.cached_psi)
        sub = covertrain.Dataset(pool.X[idx], pool.y[idx], role="training_set")
        theta = covertrain.train(
            covertrain.WeightedTrainingView(sub, np.ones(len(sub))), LEARNER
        ).theta
        checks.check_stationary(theta, pool.X[idx], pool.y[idx],
                                LEARNER.lam, LEARNER.tol)
        risk = checks.check_risk(report.best.cached_risk, theta,
                                 task.secret.X, task.secret.y)
        checks.check_budget(report.trainings_used, self.budget.max_trainings)
        checks.check_trajectory(report.trajectory, report.best.cached_risk)
        return Figures(report.trainings_used, risk,
                       checks.logistic_risk(theta, task.test.X, task.test.y), {})


WORKLOADS = {w.name: w for w in (AcceptRun, BeamTight, NlpLarge)}
