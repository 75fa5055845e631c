"""CLI surfaces: synth emission, standalone detector checks, runs, replays."""

from __future__ import annotations

import json
from pathlib import Path

from click.testing import CliRunner

from covertrain import (
    RngState, SyntheticSpec, generate, load_dataset, sample_subset, save_dataset,
)
from covertrain.cli import main

from test_harness import base_config, write_task_files


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestSynthCommand:
    def test_emits_loadable_files(self, tmp_path):
        res = invoke("synth", "--out", tmp_path, "--seed", 3,
                     "--cover-count", 20, "--secret-count", 10,
                     "--secret-test-count", 10)
        assert res.exit_code == 0, res.output
        for name in ("secret.csv", "cover.csv", "secret_test.csv"):
            ds = load_dataset(tmp_path / name)
            assert ds.dimension == 2
        assert len(load_dataset(tmp_path / "cover.csv")) == 40

    def test_deterministic_output(self, tmp_path):
        invoke("synth", "--out", tmp_path / "a", "--seed", 5)
        invoke("synth", "--out", tmp_path / "b", "--seed", 5)
        for name in ("secret.csv", "cover.csv", "secret_test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        # options left out take SyntheticSpec's defaults
        res = invoke("synth", "--out", tmp_path / "cli", "--seed", 3, "--dim", 3)
        assert res.exit_code == 0, res.output
        expected = generate(SyntheticSpec(seed=3, dim=3))
        for name, ds in zip(("secret.csv", "cover.csv", "secret_test.csv"), expected):
            save_dataset(ds, tmp_path / name)
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


class TestMmdTestCommand:
    def test_subset_verdict_json(self, tmp_path):
        invoke("synth", "--out", tmp_path, "--seed", 1)
        pool = load_dataset(tmp_path / "cover.csv")
        idx = sample_subset(pool, 15, RngState(2)).indices
        cand = pool.subset(idx, role="test_set")
        save_dataset(cand, tmp_path / "cand.csv")
        res = invoke("mmd-test", tmp_path / "cover.csv", tmp_path / "cand.csv")
        assert res.exit_code == 0, res.output
        verdict = json.loads(res.output)
        assert set(verdict) == {"mmd", "threshold", "psi", "suspicious", "sigma", "c"}
        assert verdict["suspicious"] is False
        assert verdict["psi"] < 0

    def test_suspicious_sample_exits_nonzero(self, tmp_path):
        invoke("synth", "--out", tmp_path, "--seed", 1)
        pool = load_dataset(tmp_path / "cover.csv")
        shifted = pool.X + 100.0  # far from the pool distribution
        from covertrain import Dataset

        save_dataset(Dataset(shifted, pool.y, role="test_set"), tmp_path / "bad.csv")
        res = invoke("mmd-test", tmp_path / "cover.csv", tmp_path / "bad.csv")
        assert res.exit_code == 1
        assert json.loads(res.output)["suspicious"] is True

    def assert_bad_input(self, res, message):
        # exit 1 means "flagged", so bad input exits 2 with one stderr line
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr

    def test_malformed_candidate_is_bad_input(self, tmp_path):
        invoke("synth", "--out", tmp_path, "--seed", 1)
        (tmp_path / "cand.csv").write_text("f0,f1,label\n0.5,1.0,7\n")
        res = invoke("mmd-test", tmp_path / "cover.csv", tmp_path / "cand.csv")
        self.assert_bad_input(res, "cand.csv")

    def test_dimension_mismatch_is_bad_input(self, tmp_path):
        invoke("synth", "--out", tmp_path, "--seed", 1)
        invoke("synth", "--out", tmp_path / "wide", "--seed", 1, "--dim", 3)
        res = invoke("mmd-test", tmp_path / "cover.csv",
                     tmp_path / "wide" / "secret_test.csv")
        self.assert_bad_input(res, "pool has 2 features, sample has 3")

    def test_degenerate_pool_is_bad_input(self, tmp_path):
        from covertrain import Dataset

        invoke("synth", "--out", tmp_path, "--seed", 1)
        pool = load_dataset(tmp_path / "cover.csv")
        save_dataset(Dataset(0.0 * pool.X, pool.y), tmp_path / "flat.csv")
        res = invoke("mmd-test", tmp_path / "flat.csv", tmp_path / "cover.csv")
        self.assert_bad_input(res, "degenerate pool")


class TestRunAndRerun:
    def test_run_then_rerun_matches(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, solver="uniform", seed=21)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))

        res = invoke("run", "--config", cfg_path)
        assert res.exit_code == 0, res.output
        row = json.loads(res.output)
        assert 0.0 <= row["solver_error"] <= 1.0

        res2 = invoke("rerun", "--manifest", Path(cfg.out_dir) / "manifest.json",
                      "--out", tmp_path / "replay")
        assert res2.exit_code == 0, res2.output
        assert (Path(cfg.out_dir) / "result.json").read_bytes() == (
            tmp_path / "replay" / "result.json"
        ).read_bytes()

    def test_run_out_override_and_dump_model(self, tmp_path):
        paths = write_task_files(tmp_path)
        cfg = base_config(tmp_path, paths, seed=22)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "elsewhere"
        res = invoke("run", "--config", cfg_path, "--out", out, "--dump-model")
        assert res.exit_code == 0, res.output
        assert (out / "result.json").exists()
        assert (out / "model.json").exists()
