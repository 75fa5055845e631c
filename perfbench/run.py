"""Closed-loop benchmark of covertrain: one process, one operation at a time.

Run from the repository root:

    python3 perfbench/run.py --workload accept-run --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones from
traced rounds, which alternate with untraced rounds so the tracing overhead
is measured in the same run. See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; child processes inherit this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

# Set-up is repeated in this many fresh processes; setup_s is their median.
SETUP_REPEATS = 3

# Floor of the per-operation tolerance when spans are matched to wall time.
SPAN_TOLERANCE_FLOOR = 1e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="set up on existing inputs and exit (set-up timing)")
    return parser.parse_args(argv)


def import_program():
    """Import covertrain from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import covertrain
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import covertrain from {src}: {exc}")
    if Path(covertrain.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: covertrain imported from {covertrain.__file__}, "
                 f"not from {src}")


def measure_setup(args, workdir: Path) -> float:
    """Median wall time of SETUP_REPEATS fresh processes that start Python,
    import the program and do the workload's set-up on the written inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only", str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads  # like checks and spans, it imports covertrain


    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        cls(args.seed, Path(args.setup_only)).setup()
        return 0

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Measurement:
    """What the timed rounds of one run produced."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    plain_times: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # (wall, first span, last span)
    trainings: int = 0  # charged by the untraced operations
    reference: dict = field(default_factory=dict)  # op -> round-0 figures
    problems: list = field(default_factory=list)


def run(args, cls, workdir: Path) -> int:
    import spans

    workload = cls(args.seed, workdir)
    workload.write_inputs()
    setup_s = None if args.trace else measure_setup(args, workdir)

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    workload.setup()
    setup_range = (0, len(tracer.spans))
    tracer.uninstall()

    result = measure(args, workload, tracer)
    if not result.plain_times or not result.reference or (
            args.trace and not result.traced):
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(result, tracer, setup_range)
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(WORK_DIR / f"trace-{args.workload}.json")
    else:
        metrics = end_to_end_metrics(result, setup_s)

    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result.problems,
                      "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


def measure(args, workload, tracer) -> Measurement:
    """Run whole rounds while at least half of the next one fits in
    --seconds, so a run measures about --seconds whatever its round length,
    and check each round's outputs after it, untimed.

    With tracing, operations alternate between untraced and traced, and the
    alternation flips every round; a traced run makes at least two rounds,
    so every operation runs both ways in the same stretch of time.
    """
    import checks

    res = Measurement()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outputs = []
        for i in range(workload.round_size):
            tracing = bool(args.trace) and (res.rounds + i) % 2 == 1
            if tracing:
                tracer.install()
            res.attempted += 1
            first = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                out = workload.run(i)
                wall = time.perf_counter() - t0
            except Exception:
                res.failed += 1
                tracer.reset_stack()
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                tracer.uninstall()
            if tracing:
                res.traced.append((wall, first, len(tracer.spans)))
            else:
                res.plain_times.append(wall)
            outputs.append((i, out, tracing))

        figures = []
        for i, out, tracing in outputs:
            try:
                fig = workload.check(i, out)
            except checks.CheckError as exc:
                res.problems.append(f"operation {i}: {exc}")
                continue
            figures.append(fig)
            if not tracing:
                res.trainings += fig.trainings
            key = (fig.secret_risk, fig.test_loss, fig.trainings)
            if res.rounds == 0:
                res.reference[i] = key
            elif key != res.reference.get(i, key):
                res.problems.append(f"operation {i}: output differs from round 0")
        if res.rounds == 0:
            try:
                workload.check_round(figures)
            except checks.CheckError as exc:
                res.problems.append(str(exc))
        res.rounds += 1
        round_time = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start
        if (elapsed + round_time / 2 > args.seconds
                and (res.rounds >= 2 or not args.trace)):
            break

    try:
        workload.replay()
    except checks.CheckError as exc:
        res.problems.append(f"replay: {exc}")
    return res


def end_to_end_metrics(res: Measurement, setup_s: float) -> dict:
    figures = res.reference.values()
    return {
        "op_s": metric(statistics.median(res.plain_times), "s"),
        "trainings_per_s": metric(res.trainings / sum(res.plain_times), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "secret_risk": metric(statistics.fmean(r for r, _, _ in figures), "nats"),
        "test_loss": metric(statistics.fmean(t for _, t, _ in figures), "nats"),
    }


def layer_metrics(res: Measurement, tracer, setup_range) -> dict:
    """Per-layer figures of the traced rounds, the tracing overhead, and the
    check that each traced operation's spans account for its wall time."""
    import checks
    import spans

    traced_op_s = statistics.median(w for w, _, _ in res.traced)
    plain_op_s = statistics.median(res.plain_times)
    overhead = traced_op_s - plain_op_s
    for n, (wall, first, last) in enumerate(res.traced):
        try:
            checks.check_span_sum(
                wall, spans.top_level_seconds(tracer.spans, first, last),
                max(overhead, SPAN_TOLERANCE_FLOOR))
        except checks.CheckError as exc:
            res.problems.append(f"traced operation {n}: {exc}")
    layer = spans.layer_metrics(
        tracer.spans, [(f, l) for _, f, l in res.traced], setup_range)
    metrics = {name: metric(value, spans.unit(name))
               for name, value in layer.items()}
    metrics["trace.op_s"] = metric(traced_op_s, "s")
    metrics["trace.untraced_op_s"] = metric(plain_op_s, "s")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
