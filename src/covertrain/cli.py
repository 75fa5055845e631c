"""Command-line interface: experiment runs, standalone detector checks,
synthetic data generation, and manifest replays."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .data import DataError, load_dataset, save_dataset
from .detector import DetectorConfig, DetectorError, detect
from .harness import ExperimentConfig, run_experiment, rerun_from_manifest
from .synth import SyntheticSpec, generate


@click.group()
def main():
    """Build cover-task training subsets that pass an MMD two-sample
    detector while teaching a hidden binary task."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, help="Override the config's output directory.")
@click.option("--dump-model", is_flag=True, help="Also write model.json for the delivered set.")
def run_cmd(config_path, out_dir, dump_model):
    """Run a full experiment from a JSON config."""
    cfg = ExperimentConfig.from_json(config_path)
    if out_dir is not None:
        from dataclasses import replace

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
    try:
        label_map = json.loads(label_map_json) if label_map_json else None
        pool = load_dataset(pool_path, label_map=label_map, role="camouflage_pool")
        cand = load_dataset(candidate_path, label_map=label_map, role="test_set")
        cfg = DetectorConfig.from_pool(pool, alpha=alpha)
        verdict = detect(pool, cand, cfg)
    except json.JSONDecodeError as exc:
        click.echo(f"Error: --label-map is not JSON: {exc}", err=True)
        sys.exit(2)
    except (DataError, DetectorError) as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps(
        {**verdict.to_dict(), "sigma": cfg.sigma, "c": cfg.label_scale_c},
        sort_keys=True, indent=2,
    ))
    sys.exit(1 if verdict.suspicious else 0)


_SPEC = SyntheticSpec()


@main.command("synth")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=_SPEC.seed, show_default=True)
@click.option("--dim", default=_SPEC.dim, show_default=True)
@click.option("--secret-separation", default=_SPEC.secret_separation, show_default=True)
@click.option("--secret-std", default=_SPEC.secret_std, show_default=True)
@click.option("--secret-count", default=_SPEC.secret_count, show_default=True)
@click.option("--secret-test-count", default=_SPEC.secret_test_count, show_default=True)
@click.option("--cover-separation", default=_SPEC.cover_separation, show_default=True)
@click.option("--cover-std", default=_SPEC.cover_std, show_default=True)
@click.option("--cover-count", default=_SPEC.cover_count, show_default=True)
@click.option("--angle", default=_SPEC.angle, show_default=True,
              help="Radians between the two separating directions.")
def synth_cmd(out_dir, **spec):
    """Emit secret.csv, cover.csv and secret_test.csv for a synthetic task pair."""
    secret, cover, secret_test = generate(SyntheticSpec(**spec))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(secret, out / "secret.csv")
    save_dataset(cover, out / "cover.csv")
    save_dataset(secret_test, out / "secret_test.csv")
    click.echo(f"wrote secret.csv, cover.csv, secret_test.csv to {out}")


@main.command("rerun")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def rerun_cmd(manifest_path, out_dir):
    """Replay a run from its manifest into a fresh directory."""
    row, _ = rerun_from_manifest(manifest_path, out_dir)
    click.echo(json.dumps(row.to_dict(), sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
