"""Command-line interface: experiment runs, standalone detector checks,
synthetic data generation, and manifest replays."""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

import click

from .data import DataError, load_dataset, make_output_dir, save_dataset
from .detector import DetectorConfig, DetectorError, detect
from .harness import ExperimentConfig, StageError, run_experiment, rerun_from_manifest
from .synth import SyntheticSpec, generate


@click.group()
def main():
    """Build cover-task training subsets that pass an MMD two-sample
    detector while teaching a hidden binary task.

    Every command exits 2 on input it cannot use, and `run` and `rerun`
    exit 1 when a stage of the run fails, each after one `Error: ...` line
    on stderr."""


@contextmanager
def _one_error_line():
    """Ends the command with one `Error: ...` line on stderr: exit 2 for
    input it cannot use (`DataError`, `DetectorError`), exit 1 for a run
    stage that failed (`StageError`, whose partial manifest is written)."""
    try:
        yield
    except StageError as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(1)
    except (DataError, DetectorError) as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(2)


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, help="Override the config's output directory.")
@click.option("--dump-model", is_flag=True, help="Also write model.json for the delivered set.")
def run_cmd(config_path, out_dir, dump_model):
    """Run a full experiment from a JSON config."""
    with _one_error_line():
        cfg = ExperimentConfig.from_json(config_path)
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
        row, _ = run_experiment(cfg, dump_model=dump_model)
    click.echo(json.dumps(row.to_dict(), sort_keys=True, indent=2))


@main.command("mmd-test")
@click.argument("pool_path", type=click.Path(exists=True))
@click.argument("candidate_path", type=click.Path(exists=True))
@click.option("--alpha", default=0.05, show_default=True)
@click.option("--label-map", "label_map_json", default=None,
              help="JSON object mapping label names to -1/+1.")
def mmd_test_cmd(pool_path, candidate_path, alpha, label_map_json):
    """Two-sample test of CANDIDATE against POOL; prints a JSON verdict.

    The kernel bandwidth and label scale are calibrated on the pool only.
    Exits 0 when the candidate passes, 1 when the detector flags it and 2 on
    bad input (a malformed file or label map, a degenerate pool, differing
    feature counts), after one `Error: ...` line on stderr.
    """
    with _one_error_line():
        try:
            label_map = json.loads(label_map_json) if label_map_json else None
        except json.JSONDecodeError as exc:
            raise DataError(f"--label-map is not JSON: {exc}") from None
        pool = load_dataset(pool_path, label_map=label_map, role="camouflage_pool")
        cand = load_dataset(candidate_path, label_map=label_map, role="test_set")
        cfg = DetectorConfig.from_pool(pool, alpha=alpha)
        verdict = detect(pool, cand, cfg)
    click.echo(json.dumps(
        {**verdict.to_dict(), "sigma": cfg.sigma, "c": cfg.label_scale_c},
        sort_keys=True, indent=2,
    ))
    sys.exit(1 if verdict.suspicious else 0)


def _spec_options(command):
    """One option per `SyntheticSpec` field, in field order, with the
    field's name, type and default and the `help` in its metadata."""
    for f in reversed(fields(SyntheticSpec)):
        command = click.option(
            "--" + f.name.replace("_", "-"), type=type(f.default),
            default=f.default, show_default=True, help=f.metadata.get("help"),
        )(command)
    return command


@main.command("synth")
@click.option("--out", "out_dir", required=True, type=click.Path())
@_spec_options
def synth_cmd(out_dir, **spec):
    """Emit secret.csv, cover.csv and secret_test.csv for a synthetic task pair."""
    with _one_error_line():
        secret, cover, secret_test = generate(SyntheticSpec(**spec))
        out = make_output_dir(out_dir)
    save_dataset(secret, out / "secret.csv")
    save_dataset(cover, out / "cover.csv")
    save_dataset(secret_test, out / "secret_test.csv")
    click.echo(f"wrote secret.csv, cover.csv, secret_test.csv to {out}")


@main.command("rerun")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def rerun_cmd(manifest_path, out_dir):
    """Replay a run from its manifest into a fresh directory."""
    with _one_error_line():
        row, _ = rerun_from_manifest(manifest_path, out_dir)
    click.echo(json.dumps(row.to_dict(), sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
