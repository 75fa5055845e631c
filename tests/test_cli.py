"""Public surfaces: synth emission, standalone detector checks, runs,
replays, each command's outcome on bad input, and the package's exports."""

from __future__ import annotations

import importlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import covertrain
from covertrain import (
    RngState, SyntheticSpec, generate, load_dataset, sample_subset, save_dataset,
)
from covertrain.cli import main

from test_harness import base_config, write_task_files


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_error_line(res, code, message):
    # the command's only output is one `Error: ...` line on stderr
    assert res.exit_code == code, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
    assert message in res.stderr


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

    def test_help_offers_one_option_per_spec_field(self):
        res = invoke("synth", "--help")
        assert res.exit_code == 0, res.output
        # each option's help, its continuation lines joined
        options = dict(re.findall(r"^  (--[a-z-]+)(.*(?:\n {4,}.*)*)",
                                  res.output, re.MULTILINE))
        spec = fields(SyntheticSpec)
        assert list(options) == (
            ["--out"] + ["--" + f.name.replace("_", "-") for f in spec] + ["--help"])
        for f in spec:
            shown = " ".join(options["--" + f.name.replace("_", "-")].split())
            assert shown.endswith(f"[default: {f.default}]"), shown
        assert "Radians between the two separating directions." in options["--angle"]


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
        assert_error_line(res, 2, message)

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

    @pytest.mark.parametrize("label_map, message", [
        ("{bad", "--label-map is not JSON"),
        ('{"a": 1, "b": "x"}', "label_map value for 'b' must be an integer"),
        ('{"a": 1.5, "b": -1}', "label_map value for 'a' must be an integer"),
        ('{"a": true, "b": -1}', "label_map value for 'a' must be an integer"),
    ])
    def test_bad_label_map_is_bad_input(self, tmp_path, label_map, message):
        # files whose labels are the map's names, and a candidate that passes
        # the detector under a valid map
        invoke("synth", "--out", tmp_path, "--seed", 1)
        header, *rows = (tmp_path / "cover.csv").read_text().splitlines()
        named = [row.rsplit(",", 1)[0] + (",a" if row.endswith(",1") else ",b")
                 for row in rows]
        for name, kept in (("pool.csv", named), ("cand.csv", named[::4])):
            (tmp_path / name).write_text("\n".join([header, *kept]) + "\n")
        args = ("mmd-test", tmp_path / "pool.csv", tmp_path / "cand.csv",
                "--label-map")
        assert invoke(*args, '{"a": 1, "b": -1}').exit_code == 0
        self.assert_bad_input(invoke(*args, label_map), message)

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


class TestErrorOutcome:
    """Input a command cannot use exits 2, and a run stage that fails exits
    1, each after one `Error: ...` line on stderr and no traceback."""

    def test_synth_bad_spec_is_bad_input(self, tmp_path):
        res = invoke("synth", "--out", tmp_path / "demo", "--dim", 1)
        assert_error_line(res, 2, "rotation needs at least two dimensions")
        assert not (tmp_path / "demo").exists()

    @pytest.mark.parametrize("drop, text, message", [
        (None, "{not json", "config.json: not a readable JSON file"),
        ("covers", None, "missing key 'covers'"),
    ])
    def test_run_bad_config_is_bad_input(self, tmp_path, drop, text, message):
        if text is None:
            cfg = base_config(tmp_path, write_task_files(tmp_path)).to_dict()
            del cfg[drop]
            text = json.dumps(cfg)
        (tmp_path / "config.json").write_text(text)
        res = invoke("run", "--config", tmp_path / "config.json")
        assert_error_line(res, 2, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"seed": 7}', "manifest.json: manifest has no 'config'"),
        ("{not json", "manifest.json: not a readable JSON file"),
    ])
    def test_rerun_bad_manifest_is_bad_input(self, tmp_path, text, message):
        (tmp_path / "manifest.json").write_text(text)
        res = invoke("rerun", "--manifest", tmp_path / "manifest.json",
                     "--out", tmp_path / "replay")
        assert_error_line(res, 2, message)

    def test_synth_out_naming_a_file_is_bad_input(self, tmp_path):
        (tmp_path / "afile").write_text("kept")
        res = invoke("synth", "--out", tmp_path / "afile")
        assert_error_line(res, 2, f"cannot create output directory {tmp_path / 'afile'}")
        assert (tmp_path / "afile").read_text() == "kept"

    def test_run_out_naming_a_file_is_bad_input(self, tmp_path):
        cfg = base_config(tmp_path, write_task_files(tmp_path))
        (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()))
        (tmp_path / "afile").write_text("kept")
        res = invoke("run", "--config", tmp_path / "config.json",
                     "--out", tmp_path / "afile")
        assert_error_line(res, 2, f"cannot create output directory {tmp_path / 'afile'}")
        assert (tmp_path / "afile").read_text() == "kept"

    def test_rerun_out_naming_a_file_is_bad_input(self, tmp_path):
        cfg = base_config(tmp_path, write_task_files(tmp_path))
        (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()))
        assert invoke("run", "--config", tmp_path / "config.json").exit_code == 0
        (tmp_path / "afile").write_text("kept")
        res = invoke("rerun", "--manifest", tmp_path / "out" / "manifest.json",
                     "--out", tmp_path / "afile" / "replay")
        assert_error_line(res, 2, "cannot create output directory")
        assert (tmp_path / "afile").read_text() == "kept"

    def test_run_stage_failure_exits_1(self, tmp_path):
        cfg = replace(base_config(tmp_path, write_task_files(tmp_path)), m=10_000)
        (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()))
        res = invoke("run", "--config", tmp_path / "config.json")
        assert_error_line(res, 1, "Error: stage 'load' failed: m=10000 exceeds pool size")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "load"

    def test_rerun_stage_failure_exits_1(self, tmp_path):
        paths = write_task_files(tmp_path)
        (tmp_path / "config.json").write_text(
            json.dumps(base_config(tmp_path, paths).to_dict()))
        assert invoke("run", "--config", tmp_path / "config.json").exit_code == 0
        Path(paths["cover"]).unlink()
        res = invoke("rerun", "--manifest", tmp_path / "out" / "manifest.json",
                     "--out", tmp_path / "replay")
        assert_error_line(res, 1, "Error: stage 'load' failed: cannot read")
        manifest = json.loads((tmp_path / "replay" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "load"


@pytest.mark.parametrize("module, name", [
    ("covertrain.data", "split_train_test"),
    ("covertrain.harness", "select_cover_task"),
    ("covertrain.learner", "predict_error"),
    ("covertrain.solvers", "FEASIBILITY_SLACK"),
    ("covertrain.solvers", "project_capped_simplex"),
])
def test_module_name_is_not_a_package_export(module, name):
    # the package exports what README, the benchmark and the CLI import
    # from it; these are imported from their modules
    assert hasattr(importlib.import_module(module), name)
    assert not hasattr(covertrain, name)
