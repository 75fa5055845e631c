"""Harness: cover selection, baselines, end-to-end runs, and manifests."""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import covertrain.harness as harness
import covertrain.solvers as solvers
from covertrain import (
    CandidateSet,
    DataError,
    Dataset,
    DetectorConfig,
    DetectorError,
    EvaluationRow,
    ExperimentConfig,
    LearnerConfig,
    PoolKernel,
    RngState,
    SolverBudget,
    SolverError,
    SolverReport,
    StageError,
    TrainingError,
    load_dataset,
    oracle_baseline,
    random_baseline,
    rerun_from_manifest,
    run_experiment,
    save_dataset,
)
from covertrain.harness import select_cover_task
from covertrain.synth import SyntheticSpec, generate

from conftest import gaussian_task, make_dataset


class TestSelectCoverTask:
    def test_single_candidate_chosen(self, learner_cfg):
        secret = gaussian_task(1, 10, role="secret_set")
        pool = gaussian_task(2, 10)
        idx, best, reports, _ = select_cover_task(
            secret, [pool], 4, 30, learner_cfg, 0.05, RngState(0)
        )
        assert idx == 0
        assert len(best) == 4
        assert len(reports) == 1
        assert reports[0].best.cached_risk == best.cached_risk

    def test_matching_pool_wins(self, learner_cfg):
        # candidate 1 shares the secret's separating axis; candidate 0's
        # labels run along the orthogonal axis and teach nothing
        secret = gaussian_task(3, 20, separation=5.0, axis=0, role="secret_set")
        matching = gaussian_task(4, 20, separation=5.0, axis=0)
        orthogonal = gaussian_task(5, 20, separation=5.0, axis=1)
        idx, best, _, _ = select_cover_task(
            secret, [orthogonal, matching], 6, 40, learner_cfg, 0.05, RngState(1)
        )
        assert idx == 1

    def test_tie_keeps_first(self, learner_cfg, monkeypatch):
        secret = gaussian_task(6, 10, role="secret_set")
        pool = gaussian_task(7, 10)

        def fake_solve(pool_, secret_, m, cfg, det, budget, rng, **kw):
            best = CandidateSet(tuple(range(m)), cached_risk=0.5, cached_psi=-1.0)
            return SolverReport(best, budget.max_trainings, 0, [(1, 0.5)],
                                "uniform", rng.seed)

        monkeypatch.setattr(harness, "solve_uniform", fake_solve)
        idx, _, _, _ = select_cover_task(
            secret, [pool, pool, pool], 4, 10, learner_cfg, 0.05, RngState(2)
        )
        assert idx == 0

    def test_infeasible_pool_is_skipped(self, learner_cfg, monkeypatch):
        secret = gaussian_task(6, 10, role="secret_set")
        pool = gaussian_task(7, 10)
        calls = []
        solve_uniform = harness.solve_uniform

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise SolverError("feasible region unreachable")
            return solve_uniform(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_uniform", first_fails)
        idx, _, reports, _ = select_cover_task(
            secret, [pool, pool], 4, 10, learner_cfg, 0.05, RngState(2)
        )
        assert len(calls) == 2
        assert idx == 1 and len(reports) == 1

    def test_every_pool_infeasible(self, learner_cfg, monkeypatch):
        secret = gaussian_task(6, 10, role="secret_set")
        pool = gaussian_task(7, 10)

        def fails(*args, **kwargs):
            raise SolverError("feasible region unreachable")

        monkeypatch.setattr(harness, "solve_uniform", fails)
        with pytest.raises(SolverError, match="all 2 candidate pools"):
            select_cover_task(secret, [pool, pool], 4, 10, learner_cfg, 0.05,
                              RngState(2))


class TestRandomBaseline:
    def test_single_trial_std_zero(self, learner_cfg):
        pool = gaussian_task(8, 10)
        test = gaussian_task(9, 10, role="test_set")
        mean, std = random_baseline(pool, test, 4, 1, learner_cfg, RngState(3))
        assert std == 0.0
        assert 0.0 <= mean <= 1.0

    def test_deterministic(self, learner_cfg):
        pool = gaussian_task(10, 10)
        test = gaussian_task(11, 10, role="test_set")
        a = random_baseline(pool, test, 4, 5, learner_cfg, RngState(4))
        b = random_baseline(pool, test, 4, 5, learner_cfg, RngState(4))
        assert a == b

    def test_chunked_batches_give_the_same_errors(self, learner_cfg, monkeypatch):
        pool = gaussian_task(10, 10)
        test = gaussian_task(11, 10, role="test_set")
        whole = random_baseline(pool, test, 4, 7, learner_cfg, RngState(4))
        monkeypatch.setattr(solvers, "BATCH_VALUES", 2 * 4 * pool.dimension)
        assert random_baseline(pool, test, 4, 7, learner_cfg, RngState(4)) == whole

    def test_empty_test_set_raises(self, learner_cfg):
        pool = gaussian_task(8, 10)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, int), role="test_set")
        with pytest.raises(DataError, match="empty"):
            random_baseline(pool, empty, 4, 3, learner_cfg, RngState(3))

    def test_uninformative_cover_near_chance(self, learner_cfg):
        # cover labels orthogonal to the secret axis: expected error 1/2,
        # with a 3-sigma band for the mean of 50 trials
        pool = gaussian_task(12, 50, separation=1.0, std=2.0, axis=1)
        test = gaussian_task(13, 100, separation=6.0, std=1.0, axis=0,
                             role="test_set")
        trials = 50
        mean, _ = random_baseline(pool, test, 10, trials, learner_cfg, RngState(5))
        assert abs(mean - 0.5) <= 3.0 * 0.5 / math.sqrt(trials)


class TestOracleBaseline:
    def test_separable_secret_near_zero(self, learner_cfg):
        secret = gaussian_task(14, 40, separation=6.0, std=1.0, role="secret_set")
        test = gaussian_task(15, 100, separation=6.0, std=1.0, role="test_set")
        assert oracle_baseline(secret, test, learner_cfg) <= 0.02

    def test_resubstitution_on_separable_data(self, learner_cfg):
        secret = gaussian_task(16, 20, separation=8.0, std=0.5, role="secret_set")
        assert oracle_baseline(secret, secret, learner_cfg) == 0.0

    def test_flipped_test_labels_antisymmetric(self, learner_cfg):
        secret = gaussian_task(17, 20, separation=6.0, role="secret_set")
        test = gaussian_task(18, 30, separation=6.0, role="test_set")
        err = oracle_baseline(secret, test, learner_cfg)
        flipped = Dataset(test.X, -test.y, role="test_set")
        assert oracle_baseline(secret, flipped, learner_cfg) == pytest.approx(
            1.0 - err, abs=1e-12
        )


def write_task_files(tmp_path, seed=0):
    spec = SyntheticSpec(
        dim=2, secret_separation=6.0, secret_std=1.0, secret_count=20,
        secret_test_count=40, cover_separation=1.0, cover_std=2.0,
        cover_count=30, angle=math.pi / 2, seed=seed,
    )
    secret, cover, test = generate(spec)
    paths = {}
    for name, ds in [("secret", secret), ("cover", cover), ("secret_test", test)]:
        p = tmp_path / f"{name}.csv"
        save_dataset(ds, p)
        paths[name] = str(p)
    return paths


def base_config(tmp_path, paths, solver="uniform", seed=7):
    return ExperimentConfig(
        secret_path=paths["secret"],
        cover_paths=(paths["cover"],),
        m=8,
        solver=solver,
        budget=SolverBudget(max_trainings=40, restarts=1, beam_width=3,
                            neighbors_per_state=4),
        learner=LearnerConfig(),
        alpha=0.05,
        test_fraction=None,
        test_path=paths["secret_test"],
        selection_budget=20,
        random_trials=5,
        seed=seed,
        out_dir=str(tmp_path / "out"),
    )


def config_entry(tmp_path, where):
    """The base config as a dict, with the dict and key that `where` names
    in it ("m", or "budget.restarts" for a key of the budget)."""
    paths = {"secret": "s.csv", "cover": "c.csv", "secret_test": "t.csv"}
    obj = base_config(tmp_path, paths).to_dict()
    *outer, key = where.split(".")
    target = obj
    for name in outer:
        target = target[name]
    return obj, target, key


class TestRunExperiment:
    @pytest.mark.parametrize("solver", ["uniform", "beam", "nlp"])
    def test_end_to_end_each_solver(self, tmp_path, solver):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, solver=solver)
        row, manifest = run_experiment(cfg)
        out = Path(cfg.out_dir)
        assert (out / "result.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "chosen_set.json").exists()
        assert manifest["result"]["psi"] < 0
        assert manifest["result"]["trainings_used"] <= 40 + 20  # solve + select
        assert 0.0 <= row.solver_error <= 1.0
        # manifest carries the frozen detector calibration
        assert manifest["detector"]["sigma"] > 0
        assert manifest["detector"]["label_scale_c"] >= 0

    @pytest.mark.parametrize("solver", ["uniform", "beam", "nlp"])
    def test_one_calibration_and_kernel_per_pool(self, tmp_path, monkeypatch,
                                                 solver):
        calls = {"from_pool": 0, "kernel": 0}
        from_pool = DetectorConfig.from_pool.__func__
        kernel_init = PoolKernel.__init__

        def counted_from_pool(cls, *args, **kwargs):
            calls["from_pool"] += 1
            return from_pool(cls, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            calls["kernel"] += 1
            kernel_init(self, *args, **kwargs)

        monkeypatch.setattr(DetectorConfig, "from_pool",
                            classmethod(counted_from_pool))
        monkeypatch.setattr(PoolKernel, "__init__", counted_init)
        paths = write_task_files(tmp_path)
        run_experiment(base_config(tmp_path, paths, solver=solver))
        assert calls == {"from_pool": 1, "kernel": 1}

    def test_solver_budget_respected_in_solve_stage(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, solver="nlp")
        _, manifest = run_experiment(cfg)
        assert manifest["stages"]["solve"]["trainings_used"] <= 40

    def test_same_seed_byte_identical_result(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg1 = base_config(tmp_path, paths, seed=11)
        cfg1 = replace(cfg1, out_dir=str(tmp_path / "a"))
        cfg2 = replace(cfg1, out_dir=str(tmp_path / "b"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        a = (tmp_path / "a" / "result.json").read_bytes()
        b = (tmp_path / "b" / "result.json").read_bytes()
        assert a == b

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, solver="beam", seed=13)
        run_experiment(cfg)
        rerun_from_manifest(
            Path(cfg.out_dir) / "manifest.json", tmp_path / "replay"
        )
        assert (Path(cfg.out_dir) / "result.json").read_bytes() == (
            tmp_path / "replay" / "result.json"
        ).read_bytes()

    def test_test_fraction_split_replays(self, tmp_path, monkeypatch):
        splits = []
        split_train_test = harness.split_train_test

        def counted(*args):
            splits.append(1)
            return split_train_test(*args)

        monkeypatch.setattr(harness, "split_train_test", counted)
        paths = write_task_files(tmp_path)
        cfg = replace(base_config(tmp_path, paths), test_fraction=0.75,
                      test_path=None)
        _, manifest = run_experiment(cfg)
        assert manifest["stages"]["load"]["secret_train"] == 30  # ceil(0.75 * 40)
        rerun_from_manifest(Path(cfg.out_dir) / "manifest.json", tmp_path / "replay")
        assert len(splits) == 2
        assert (Path(cfg.out_dir) / "result.json").read_bytes() == (
            tmp_path / "replay" / "result.json"
        ).read_bytes()

    def test_numpy_integer_config_writes_the_same_bytes(self, tmp_path):
        # numpy values ran every stage and then failed to serialise, with
        # result.json or manifest.json left unwritten
        paths = write_task_files(tmp_path)
        plain = replace(base_config(tmp_path, paths), out_dir=str(tmp_path / "a"))
        numpy_cfg = replace(
            plain, m=np.int64(8), seed=np.int64(7), random_trials=np.int32(5),
            budget=replace(plain.budget, max_trainings=np.int64(40)),
            out_dir=str(tmp_path / "b"),
        )
        run_experiment(plain)
        run_experiment(numpy_cfg)
        for name in ("result.json", "chosen_set.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text())
                for d in "ab")
        for manifest in (a, b):
            del manifest["timings"], manifest["config"]["out_dir"]
        assert a == b
        assert type(numpy_cfg.seed) is int
        assert type(numpy_cfg.budget.max_trainings) is int

    def test_numpy_label_map_writes_the_same_bytes(self, tmp_path):
        # numpy label values wrote result.json and then failed to serialise
        # manifest.json, leaving a half-written run
        paths = write_task_files(tmp_path)
        plain = replace(base_config(tmp_path, paths), out_dir=str(tmp_path / "a"),
                        label_map={"1": 1, "-1": -1})
        numpy_cfg = replace(plain, out_dir=str(tmp_path / "b"),
                            label_map={"1": np.int64(1), "-1": np.int32(-1)})
        run_experiment(plain)
        run_experiment(numpy_cfg)
        for name in ("result.json", "chosen_set.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text())
                for d in "ab")
        for manifest in (a, b):
            del manifest["timings"], manifest["config"]["out_dir"]
        assert a == b
        assert all(type(v) is int for v in numpy_cfg.label_map.values())

    def test_float32_config_runs_to_completion(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = replace(base_config(tmp_path, paths), alpha=np.float32(0.05),
                      test_fraction=np.float32(0.75), test_path=None)
        run_experiment(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == float(np.float32(0.05))
        assert (Path(cfg.out_dir) / "result.json").exists()

    def test_dump_model(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths)
        run_experiment(cfg, dump_model=True)
        model = json.loads((Path(cfg.out_dir) / "model.json").read_text())
        assert len(model["theta"]) == 2

    def test_failure_writes_partial_manifest(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths)
        cfg = replace(cfg, m=10_000)  # larger than the pool
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "load"
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["failed_stage"] == "load"
        assert "error" in manifest

    def test_missing_data_file_fails_at_load_with_a_data_error(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = replace(base_config(tmp_path, paths),
                      cover_paths=(str(tmp_path / "gone.csv"),))
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "load"
        assert isinstance(err.value.cause, DataError)
        assert "gone.csv" in str(err.value.cause)

    def test_out_dir_naming_a_file_is_a_data_error(self, tmp_path):
        # raised before any stage runs, so no stage is charged with it
        cfg = replace(base_config(tmp_path, write_task_files(tmp_path)),
                      out_dir=str(tmp_path / "afile"))
        (tmp_path / "afile").write_text("kept")
        with pytest.raises(DataError, match="cannot create output directory .*afile"):
            run_experiment(cfg)
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("text, message", [
        ("{not json", "manifest.json: not a readable JSON file"),
        ('{"seed": 7}', "manifest.json: manifest has no 'config'"),
        ("[1, 2]", "manifest.json: manifest has no 'config'"),
    ])
    def test_rerun_of_a_bad_manifest_is_a_data_error(self, tmp_path, text, message):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(DataError, match=message):
            rerun_from_manifest(tmp_path / "manifest.json", tmp_path / "replay")

    @pytest.mark.parametrize("role", ["cover", "secret_test"])
    def test_feature_count_mismatch_fails_at_load(self, tmp_path, role):
        # a 3-feature cover pool or test set beside a 2-feature secret set
        paths = write_task_files(tmp_path)
        data = load_dataset(paths[role])
        wide = np.hstack([data.X, np.ones((len(data), 1))])
        save_dataset(Dataset(wide, data.y, role=data.role), paths[role])
        cfg = base_config(tmp_path, paths)
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "load"
        assert isinstance(err.value.cause, DataError)
        assert str(err.value.cause) == (
            f"{paths[role]} has 3 features, the secret set {paths['secret']} has 2")
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["failed_stage"] == "load"

    def test_nlp_budget_below_rounding_fails_at_load(self, tmp_path):
        # m = 8 of a 30-point pool: one relaxed-phase training and 9 rounding
        # candidates, so solve_nlp needs 10
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, solver="nlp")
        cfg = replace(cfg, budget=replace(cfg.budget, max_trainings=9))
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "load"
        assert isinstance(err.value.cause, DataError)
        assert str(err.value.cause) == (
            "max_trainings=9 is below the 10 trainings the nlp solver needs "
            "on every cover pool at m=8")
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["failed_stage"] == "load"

    def test_nlp_budget_that_fits_one_pool_passes_load(self, tmp_path):
        # a 9-point second pool needs min(8, 1) + 2 = 3 trainings, so the
        # winning pool decides; here the small one wins and the run completes
        paths = write_task_files(tmp_path)
        small = tmp_path / "small.csv"
        save_dataset(load_dataset(paths["cover"]).subset(range(9)), small)
        cfg = base_config(tmp_path, paths, solver="nlp")
        cfg = replace(cfg, cover_paths=(paths["cover"], str(small)),
                      budget=replace(cfg.budget, max_trainings=9))
        row, _ = run_experiment(cfg)
        assert row.cover_index == 1

    def test_constant_feature_pool_fails_at_select_cover(self, tmp_path):
        paths = write_task_files(tmp_path)
        cover = load_dataset(paths["cover"])
        save_dataset(Dataset(np.full_like(cover.X, 0.5), cover.y, role=cover.role),
                     paths["cover"])
        cfg = base_config(tmp_path, paths)
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "select_cover"
        assert isinstance(err.value.cause, DetectorError)
        assert "degenerate pool" in str(err.value.cause)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["failed_stage"] == "select_cover"

    def test_zero_median_pool_fails_at_select_cover(self, tmp_path):
        # six copies of one point in class +1 and two of another in class -1:
        # most augmented distances are zero, so the median heuristic's
        # bandwidth is zero although some distances are not
        paths = write_task_files(tmp_path)
        X = [[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 2
        save_dataset(make_dataset(X, [1] * 6 + [-1] * 2), paths["cover"])
        cfg = base_config(tmp_path, paths)
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "select_cover"
        assert isinstance(err.value.cause, DetectorError)
        assert "degenerate pool (n=8)" in str(err.value.cause)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["failed_stage"] == "select_cover"

    def test_config_json_roundtrip(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, solver="beam")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_json(cfg_path)
        assert back == cfg

    @pytest.mark.parametrize("limit", ["NaN", "-1.0"])
    def test_config_rejects_bad_wall_clock_limit(self, tmp_path, limit):
        # json.loads parses NaN, which would switch the limit off
        paths = {"secret": "s.csv", "cover": "c.csv", "secret_test": "t.csv"}
        obj = base_config(tmp_path, paths).to_dict()
        obj["budget"] = json.loads(
            f'{{"max_trainings": 40, "wall_clock_limit": {limit}}}'
        )
        with pytest.raises(DataError, match="wall_clock_limit"):
            ExperimentConfig.from_dict(obj)
        obj["budget"]["wall_clock_limit"] = 0.0
        assert ExperimentConfig.from_dict(obj).budget.wall_clock_limit == 0.0

    @pytest.mark.parametrize("where, value", [
        ("m", 20.7),
        ("m", True),
        ("m", 8.0),
        ("selection_budget", 2.5),
        ("random_trials", "5"),
        ("budget.max_trainings", 2.5),
        ("budget.max_trainings", 2.0),
        ("budget.max_trainings", True),
        ("budget.restarts", 2.5),
        ("budget.beam_width", np.float64(3)),
        ("budget.neighbors_per_state", False),
        ("budget.neighbors_per_state", -1),
        ("learner.max_iter", 2.5),
        ("learner.max_iter", True),
        ("add_bias", "false"),
        ("seed", 7.9),
        ("seed", True),
        ("seed", "7"),
        ("alpha", "0.05"),
        ("alpha", True),
        ("label_map", {"1": 1.0, "-1": -1}),
        ("label_map", {"1": True, "-1": -1}),
        ("label_map", [["1", 1], ["-1", -1]]),
        # file labels are matched as text, so int keys failed the load
        # stage, while the manifest's string keys replayed to completion
        ("label_map", {1: 1, -1: -1}),
    ])
    def test_config_rejects_non_integer_counts(self, tmp_path, where, value):
        # counts, seed, alpha and flags are taken as given, never truncated
        # or coerced (seed 7.9 ran as seed 7)
        obj, target, key = config_entry(tmp_path, where)
        target[key] = value
        with pytest.raises(DataError, match=key):
            ExperimentConfig.from_dict(obj)

    @pytest.mark.parametrize("where, fault", [
        ("selection_budegt", "unknown"),
        ("budget.restart", "unknown"),
        ("learner.lambda", "unknown"),
        ("secret", "missing"),
        ("covers", "missing"),
        ("m", "missing"),
        ("solver", "missing"),
        ("budget", "missing"),
        ("budget.max_trainings", "missing"),
    ])
    def test_config_rejects_unknown_and_missing_keys(self, tmp_path, where, fault):
        # a misspelt key ran with the default, a missing one raised KeyError
        obj, target, key = config_entry(tmp_path, where)
        if fault == "unknown":
            target[key] = 10
        else:
            del target[key]
        with pytest.raises(DataError, match=f"{fault} key '{key}'"):
            ExperimentConfig.from_dict(obj)

    def test_config_needs_a_test_set(self, tmp_path):
        # one default for both entry points: neither `test` nor
        # `test_fraction` is an error, from Python and from a file
        paths = {"secret": "s.csv", "cover": "c.csv", "secret_test": "t.csv"}
        with pytest.raises(DataError, match="test_fraction"):
            ExperimentConfig(secret_path="s.csv", cover_paths=("c.csv",), m=8,
                             solver="uniform", budget=SolverBudget(max_trainings=40))
        obj = base_config(tmp_path, paths).to_dict()
        del obj["test"], obj["test_fraction"]
        with pytest.raises(DataError, match="test_fraction"):
            ExperimentConfig.from_dict(obj)
        obj["test_fraction"] = 0.75
        assert ExperimentConfig.from_dict(obj).test_fraction == 0.75

    def test_config_accepts_numpy_integers(self, tmp_path):
        paths = {"secret": "s.csv", "cover": "c.csv", "secret_test": "t.csv"}
        budget = SolverBudget(max_trainings=np.int64(40), restarts=np.int32(2),
                              beam_width=np.int8(3), neighbors_per_state=np.uint8(4))
        cfg = replace(base_config(tmp_path, paths), m=np.int64(8),
                      budget=budget, learner=LearnerConfig(max_iter=np.int64(50)),
                      seed=np.int64(-3), alpha=np.float64(0.1))
        assert cfg.m == 8 and cfg.budget.per_restart(1) == 20
        assert cfg.seed == -3  # negative seeds stay valid, in a file too
        obj = base_config(tmp_path, paths).to_dict()
        obj.update(seed=-3, alpha=1)
        assert ExperimentConfig.from_dict(obj).seed == -3

    def test_config_validation(self):
        with pytest.raises(DataError):
            ExperimentConfig(
                secret_path="s", cover_paths=(), m=2, solver="uniform",
                budget=SolverBudget(max_trainings=1),
            )
        with pytest.raises(DataError):
            ExperimentConfig(
                secret_path="s", cover_paths=("c",), m=2, solver="sgd",
                budget=SolverBudget(max_trainings=1),
            )
        with pytest.raises(DataError):
            EvaluationRow(
                solver_error=1.5, random_error_mean=0.5, random_error_std=0.0,
                oracle_error=0.0, secret_risk=0.6, cover_index=0, cover_id="c",
            )


_POOL_KINDS = ("plain", "one_class", "duplicated", "scaled_up", "scaled_down",
               "constant_column")


@st.composite
def _contract_runs(draw):
    """A tiny run: a pool of 4-30 points in 1-3 features, of one of the
    `_POOL_KINDS`, an 8-point secret set and test set, any m and solver."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(_POOL_KINDS))
    gen = RngState(draw(st.integers(0, 2**32 - 1))).generator
    X = gen.standard_normal((n, d))
    y = gen.choice([-1, 1], n)
    if kind == "one_class":
        y[:] = y[0]
    elif kind == "duplicated":  # a few distinct points, each repeated
        rows = gen.integers(0, max(1, n // 4), n)
        X, y = X[rows], y[rows]
    elif kind == "scaled_up":
        X *= 1e6
    elif kind == "scaled_down":
        X *= 1e-9
    elif kind == "constant_column":
        X[:, gen.integers(d)] = 0.5
    secret, test = (gaussian_task(int(gen.integers(2**31)), 4, dim=d, role=role)
                    for role in ("secret_set", "test_set"))
    budget = SolverBudget(max_trainings=draw(st.integers(1, 40)),
                          restarts=draw(st.integers(1, 2)),
                          beam_width=draw(st.integers(1, 3)),
                          neighbors_per_state=draw(st.integers(0, 3)))
    return {"cover": make_dataset(X, y), "secret": secret, "secret_test": test,
            "m": draw(st.integers(1, n)), "budget": budget,
            "solver": draw(st.sampled_from(harness.SOLVERS))}


class TestRunContract:
    """Every run ends one of two ways: it writes a result.json that its
    manifest replays byte for byte, or it raises StageError naming the
    failed stage, whose cause is one of the library's own errors."""

    @settings(deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_contract_runs())
    def test_run_replays_or_fails_at_a_stage(self, run):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = {}
            for name in ("secret", "cover", "secret_test"):
                paths[name] = str(tmp / f"{name}.csv")
                save_dataset(run[name], paths[name])
            cfg = replace(base_config(tmp, paths, solver=run["solver"]),
                          m=run["m"], budget=run["budget"],
                          selection_budget=4, random_trials=2)
            try:
                run_experiment(cfg)
            except StageError as err:
                assert isinstance(err.cause, (DataError, DetectorError,
                                              SolverError, TrainingError)), err
                manifest = json.loads((tmp / "out" / "manifest.json").read_text())
                assert manifest["failed_stage"] == err.stage
                return
            rerun_from_manifest(tmp / "out" / "manifest.json", tmp / "replay")
            assert (tmp / "out" / "result.json").read_bytes() == (
                tmp / "replay" / "result.json").read_bytes()
