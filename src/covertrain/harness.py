"""End-to-end experiment protocol: cover-task selection, solver run,
baselines, and reproducible run manifests.

A run is fully determined by its config and seed. Everything written to
result.json is recomputable from the manifest alone; timings live only in
the manifest so result.json is byte-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    CandidateSet,
    DataError,
    Dataset,
    RngState,
    check_counts,
    checked_label_map,
    load_dataset,
    plain_numbers,
    sample_subset,
    split_train_test,
)
from .detector import DetectorConfig, PoolKernel, psi
from .learner import (
    LearnerConfig,
    ModelParams,
    WeightedTrainingView,
    empirical_risk,
    predict_error,
    subset_weights,
    train,
)
from .solvers import (
    SolverBudget,
    SolverError,
    SolverReport,
    nlp_least_trainings,
    solve_beam,
    solve_nlp,
    solve_uniform,
    train_subsets,
)

SOLVERS = ("uniform", "beam", "nlp")

# Config-file keys that differ from their ExperimentConfig field names.
_CONFIG_KEYS = {"secret_path": "secret", "cover_paths": "covers", "test_path": "test"}


class StageError(RuntimeError):
    """A pipeline stage failed; the partial manifest has been written."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ExperimentConfig:
    secret_path: str
    cover_paths: tuple[str, ...]
    m: int
    solver: str
    budget: SolverBudget
    learner: LearnerConfig = LearnerConfig()
    alpha: float = 0.05
    test_fraction: float | None = None
    test_path: str | None = None
    selection_budget: int = 100
    random_trials: int = 20
    seed: int = 0
    out_dir: str = "runs/out"
    label_map: dict | None = None
    add_bias: bool = False

    def __post_init__(self):
        plain_numbers(self)
        if self.solver not in SOLVERS:
            raise DataError(f"unknown solver {self.solver!r}")
        if not self.cover_paths:
            raise DataError("need at least one cover candidate")
        if (self.test_fraction is None) == (self.test_path is None):
            raise DataError("set exactly one of test_fraction / test_path")
        check_counts(self, m=1, selection_budget=1, random_trials=1)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise DataError(f"seed must be an integer, got {self.seed!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise DataError(f"alpha must be a number, got {self.alpha!r}")
        if not isinstance(self.add_bias, bool):
            raise DataError(f"add_bias must be true or false, got {self.add_bias!r}")
        if self.label_map is not None:
            object.__setattr__(self, "label_map", checked_label_map(self.label_map))

    def to_dict(self) -> dict:
        return {_CONFIG_KEYS.get(k, k): v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        kwargs = _fields_from(cls, obj, _CONFIG_KEYS)
        kwargs["cover_paths"] = tuple(kwargs["cover_paths"])
        kwargs["budget"] = SolverBudget(**_fields_from(SolverBudget, kwargs["budget"], {}))
        if "learner" in kwargs:
            kwargs["learner"] = LearnerConfig(
                **_fields_from(LearnerConfig, kwargs["learner"], {}))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _fields_from(cls, obj, keys: dict) -> dict:
    """Constructor arguments of dataclass `cls` from the mapping `obj`, whose
    keys are the field names or their renames in `keys`. Raises DataError
    naming every unknown key and every missing required key."""
    if not isinstance(obj, dict):
        raise DataError(f"{cls.__name__} config must be an object, got {obj!r}")
    names = {keys.get(f.name, f.name): f for f in fields(cls)}
    faults = [f"unknown key {k!r}" for k in obj if k not in names]
    faults += [f"missing key {k!r}" for k, f in names.items() if k not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if faults:
        raise DataError(f"{cls.__name__} config: " + ", ".join(faults))
    return {names[k].name: v for k, v in obj.items()}


@dataclass(frozen=True)
class EvaluationRow:
    """Headline numbers of one run: how the camouflaged set compares to the
    unoptimized sender and the detector-ignoring upper bound."""

    solver_error: float
    random_error_mean: float
    random_error_std: float
    oracle_error: float
    secret_risk: float
    cover_index: int
    cover_id: str

    def __post_init__(self):
        for name in ("solver_error", "random_error_mean", "oracle_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DataError(f"{name} must lie in [0, 1], got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


def select_cover_task(
    secret: Dataset,
    candidates: list[Dataset],
    m: int,
    per_candidate_budget: int,
    cfg: LearnerConfig,
    alpha: float,
    rng: RngState,
) -> tuple[int, CandidateSet, list[SolverReport], PoolKernel]:
    """Uniform-sampling sweep over candidate pools; the pool whose best
    subset attains the lowest secret-set risk wins (ties: first in config
    order). Each pool gets an independent child stream, and its detector is
    calibrated and its kernel built once. Returns the winner's index, best
    set, the reports of the feasible pools and the winner's kernel, whose
    `cfg` is the winner's detector."""
    if not candidates:
        raise DataError("need at least one cover candidate")
    reports: list[SolverReport] = []
    chosen = None
    chosen_risk = np.inf
    failures = 0
    for i, pool in enumerate(candidates):
        det = DetectorConfig.from_pool(pool, alpha=alpha)
        kernel = PoolKernel(pool, det)
        budget = SolverBudget(max_trainings=per_candidate_budget)
        try:
            report = solve_uniform(
                pool, secret, m, cfg, det, budget, rng.child(i), kernel=kernel
            )
        except SolverError:
            failures += 1
        else:
            reports.append(report)
            if report.best.cached_risk < chosen_risk:
                chosen_risk = report.best.cached_risk
                chosen = (i, report.best, kernel)
        # Only the winner's kernel may outlive its iteration, so at most two
        # are alive while the next one is built. A kernel stores an n x n
        # Gram matrix only below the detector's 16 MB cap; a larger pool's
        # kernel holds its points and row sums only.
        del kernel
    if chosen is None:
        raise SolverError(
            f"all {failures} candidate pools were infeasible for the detector"
        )
    return chosen[0], chosen[1], reports, chosen[2]


def random_baseline(
    pool: Dataset,
    secret_test: Dataset,
    m: int,
    trials: int,
    cfg: LearnerConfig,
    rng: RngState,
) -> tuple[float, float]:
    """Test error of the learner on uniform m-subsets, no detector filter
    (models a sender who does not optimize at all). Returns (mean, std)
    over trials; std is the population form, zero for a single trial."""
    if trials < 1:
        raise DataError("need at least one trial")
    subsets = [sample_subset(pool, m, rng).indices for _ in range(trials)]
    errors = [predict_error(ModelParams(theta), secret_test)
              for _, thetas in train_subsets(pool, subsets, cfg)
              for theta in thetas]
    return float(np.mean(errors)), float(np.std(errors))


def oracle_baseline(
    secret_train: Dataset, secret_test: Dataset, cfg: LearnerConfig
) -> float:
    """Test error when the learner trains directly on the secret set,
    ignoring the detector entirely."""
    view = WeightedTrainingView(secret_train, np.ones(len(secret_train)))
    return predict_error(train(view, cfg), secret_test)


def _json_dump(obj: dict, path: Path) -> None:
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def run_experiment(
    cfg: ExperimentConfig, dump_model: bool = False
) -> tuple[EvaluationRow, dict]:
    """Run the full protocol and write result.json / manifest.json /
    chosen_set.json under cfg.out_dir.

    Stages: load data, select the cover task by uniform sampling, run the
    configured solver on the chosen pool, re-verify the detector on the
    delivered set, then compute the evaluation row. Per-stage child seeds
    let any stage be replayed in isolation. On failure the partial manifest
    is still written and a StageError raised.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = RngState(cfg.seed)
    manifest: dict = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "stages": {},
        "timings": {},
    }
    stage = "load"
    t_start = time.monotonic()
    try:
        secret_full = load_dataset(
            cfg.secret_path, label_map=cfg.label_map, role="secret_set",
            add_bias=cfg.add_bias,
        )
        if cfg.test_path is not None:
            secret_train = secret_full
            secret_test = load_dataset(
                cfg.test_path, label_map=cfg.label_map, role="test_set",
                add_bias=cfg.add_bias,
            )
        else:
            secret_train, secret_test = split_train_test(
                secret_full, cfg.test_fraction, rng.child(0)
            )
        covers = [
            load_dataset(
                p, label_map=cfg.label_map, role="camouflage_pool",
                add_bias=cfg.add_bias,
            )
            for p in cfg.cover_paths
        ]
        others = list(zip(cfg.cover_paths, covers))
        if cfg.test_path is not None:
            others.append((cfg.test_path, secret_test))
        for path, data in others:
            if data.dimension != secret_full.dimension:
                raise DataError(
                    f"{path} has {data.dimension} features, the secret set "
                    f"{cfg.secret_path} has {secret_full.dimension}"
                )
        for i, pool in enumerate(covers):
            if cfg.m > len(pool):
                raise DataError(
                    f"m={cfg.m} exceeds pool size {len(pool)} ({cfg.cover_paths[i]})"
                )
        # Whichever pool wins, solve_nlp would reject a budget this small.
        if cfg.solver == "nlp":
            least = min(nlp_least_trainings(len(pool), cfg.m) for pool in covers)
            if cfg.budget.max_trainings < least:
                raise DataError(
                    f"max_trainings={cfg.budget.max_trainings} is below the "
                    f"{least} trainings the nlp solver needs on every cover "
                    f"pool at m={cfg.m}"
                )
        manifest["stages"]["load"] = {
            "secret_train": len(secret_train),
            "secret_test": len(secret_test),
            "cover_sizes": [len(p) for p in covers],
        }
        manifest["timings"]["load"] = time.monotonic() - t_start

        stage = "select_cover"
        t0 = time.monotonic()
        per_candidate = max(cfg.selection_budget // len(covers), 1)
        cover_index, seed_set, selection_reports, kernel = select_cover_task(
            secret_train, covers, cfg.m, per_candidate, cfg.learner,
            cfg.alpha, rng.child(1),
        )
        pool = covers[cover_index]
        det = kernel.cfg
        manifest["stages"]["select_cover"] = {
            "per_candidate_budget": per_candidate,
            "chosen_index": cover_index,
            "chosen_path": cfg.cover_paths[cover_index],
            "selection_risks": [r.best.cached_risk for r in selection_reports],
            "seed_set": list(seed_set.indices),
        }
        manifest["detector"] = {
            **det.to_dict(),
            "threshold": kernel.threshold(cfg.m),
        }
        manifest["timings"]["select_cover"] = time.monotonic() - t0

        stage = "solve"
        t0 = time.monotonic()
        problem = (pool, secret_train, cfg.m, cfg.learner, det)
        if cfg.solver == "nlp":
            report = solve_nlp(*problem, seed_set, cfg.budget, kernel=kernel)
        else:
            # looked up at call time, so the module's names can be wrapped
            solve = solve_uniform if cfg.solver == "uniform" else solve_beam
            report = solve(*problem, cfg.budget, rng.child(2), kernel=kernel)
        manifest["stages"]["solve"] = report.to_dict()
        manifest["timings"]["solve"] = time.monotonic() - t0

        stage = "verify"
        verdict = psi(pool, report.best, det)
        if verdict.suspicious:
            raise SolverError(
                f"delivered set flagged by detector (psi={verdict.psi:.3e})"
            )
        manifest["stages"]["verify"] = verdict.to_dict()

        stage = "evaluate"
        t0 = time.monotonic()
        chosen = subset_weights(len(pool), report.best.indices)
        theta = train(WeightedTrainingView(pool, chosen), cfg.learner)
        solver_error = predict_error(theta, secret_test)
        secret_risk = empirical_risk(theta, secret_train)
        rand_mean, rand_std = random_baseline(
            pool, secret_test, cfg.m, cfg.random_trials, cfg.learner,
            rng.child(3),
        )
        oracle_error = oracle_baseline(secret_train, secret_test, cfg.learner)
        row = EvaluationRow(
            solver_error=solver_error,
            random_error_mean=rand_mean,
            random_error_std=rand_std,
            oracle_error=oracle_error,
            secret_risk=secret_risk,
            cover_index=cover_index,
            cover_id=Path(cfg.cover_paths[cover_index]).name,
        )
        manifest["timings"]["evaluate"] = time.monotonic() - t0
    except Exception as exc:
        manifest["failed_stage"] = stage
        manifest["error"] = str(exc)
        _json_dump(manifest, out / "manifest.json")
        raise StageError(stage, exc) from exc

    result = {
        "row": row.to_dict(),
        "solver": cfg.solver,
        "m": cfg.m,
        "seed": cfg.seed,
        "chosen_indices": list(report.best.indices),
        "psi": verdict.psi,
        "mmd": verdict.mmd,
        "threshold": verdict.threshold,
        "trainings_used": report.trainings_used,
    }
    manifest["result"] = result
    manifest["timings"]["total"] = time.monotonic() - t_start
    _json_dump(result, out / "result.json")
    _json_dump(manifest, out / "manifest.json")
    _json_dump({"indices": list(report.best.indices)}, out / "chosen_set.json")
    if dump_model:
        _json_dump(theta.to_dict(), out / "model.json")
    return row, manifest


def rerun_from_manifest(manifest_path, out_dir) -> tuple[EvaluationRow, dict]:
    """Replay a run from its manifest's embedded config and seed, writing
    into a fresh directory. result.json must come out byte-identical."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    cfg = ExperimentConfig.from_dict(manifest["config"])
    cfg = replace(cfg, out_dir=str(out_dir))
    return run_experiment(cfg)
