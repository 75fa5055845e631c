"""Spans at the boundaries between covertrain's layers, recorded from outside.

The tracer replaces the names a layer calls through (for example
`covertrain.solvers.train`, which is the learner as the solvers see it) with
wrappers that record one span per call: name, start, end and parent span.
Spans stay in memory; `write` saves them when the benchmark ends. Nothing in
the package is edited, and `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import covertrain.data as data
import covertrain.detector as detector
import covertrain.harness as harness
import covertrain.solvers as solvers

# (owner, attribute, span name). Module attributes are the names callers
# look up at call time; class attributes cover every caller of a method.
_BOUNDARIES = [
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "select_cover_task", "harness.select_cover"),
    (harness, "load_dataset", "data.load_dataset"),
    (data, "load_dataset", "data.load_dataset"),
    (data.Dataset, "subset", "data.subset"),
    (solvers, "sample_subset", "data.sample_subset"),
    (harness, "sample_subset", "data.sample_subset"),
    (solvers, "train", "learner.train"),
    (harness, "train", "learner.train"),
    (solvers, "risk_gradient_wrt_weights", "learner.risk_gradient"),
    (detector.PoolKernel, "__init__", "detector.kernel_build"),
    (detector.PoolKernel, "feasible", "detector.feasible"),
    (detector.PoolKernel, "weighted", "detector.weighted"),
    (detector.PoolKernel, "weighted_grad", "detector.weighted_grad"),
    (detector, "detect", "detector.detect"),
    (detector, "gram", "detector.gram"),
    (solvers, "neighbors", "solvers.neighbors"),
    (solvers, "project_capped_simplex", "solvers.project"),
    (solvers, "round_relaxed", "solvers.round"),
    (solvers, "solve_beam", "solvers.solve"),
    (harness, "solve_uniform", "solvers.solve"),
    (harness, "solve_beam", "solvers.solve"),
    (harness, "solve_nlp", "solvers.solve"),
]

# Call counts and total span time per operation for these spans.
LAYER_SPANS = [
    "data.load_dataset", "data.subset", "data.sample_subset",
    "learner.train", "learner.risk_gradient",
    "detector.calibrate", "detector.kernel_build", "detector.feasible",
    "detector.detect", "detector.weighted", "detector.weighted_grad",
    "detector.gram",
    "solvers.neighbors", "solvers.project", "solvers.round",
]

# Set-up spans reported as totals over the benchmark's set-up.
SETUP_SPANS = ["data.load_dataset", "detector.calibrate", "detector.kernel_build"]

HARNESS_STAGES = ["select_cover", "solve", "verify", "evaluate"]


class Tracer:
    """Records spans as (name, parent, start_ns, end_ns, result).

    `result` is kept only for feasibility checks, whose False answers are
    the solvers' rejected proposals.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter_ns(), 0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, result=None) -> None:
        """Close span `sid` and any span still open inside it."""
        now = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][3] = now
            if top == sid:
                self.spans[sid][4] = result
                return

    def _wrap(self, name: str, fn):
        keep = name == "detector.feasible"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid, result if keep else None)

        return traced

    def _verify_then_evaluate(self, fn):
        """The harness's verify stage is its `psi` call; its evaluate stage
        runs from the end of verify to the construction of the
        EvaluationRow, so the evaluate span opens when verify returns."""
        verify = self._wrap("harness.verify", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = verify(*args, **kwargs)
            self._open("harness.evaluate")
            return result

        return traced

    def _evaluation_row(self, cls):
        def traced(*args, **kwargs):
            row = cls(*args, **kwargs)
            if self._stack and self.spans[self._stack[-1]][0] == "harness.evaluate":
                self._close(self._stack[-1])
            return row

        return traced

    def reset_stack(self) -> None:
        """Close every open span at the current time, after a failed call."""
        while self._stack:
            self._close(self._stack[-1])

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name in _BOUNDARIES:
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        calibrate = detector.DetectorConfig.__dict__["from_pool"].__func__
        self._set(detector.DetectorConfig, "from_pool",
                  classmethod(self._wrap("detector.calibrate", calibrate)))
        self._set(harness, "psi", self._verify_then_evaluate(harness.psi))
        self._set(harness, "EvaluationRow",
                  self._evaluation_row(harness.EvaluationRow))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------

    def write(self, path) -> None:
        """Save every span as one JSON list [name, parent, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s[:4] for s in self.spans], fh, separators=(",", ":"))


def _seconds(span) -> float:
    return (span[3] - span[2]) * 1e-9


def self_times(spans, first: int, last: int) -> list[float]:
    """Self time of spans[first:last]: duration minus child durations."""
    out = [_seconds(s) for s in spans[first:last]]
    for s in spans[first:last]:
        if s[1] >= first:
            out[s[1] - first] -= _seconds(s)
    return out


def top_level_seconds(spans, first: int, last: int) -> float:
    """Time covered by the spans of spans[first:last] that have no parent;
    equal to the sum of all their self times."""
    return sum(_seconds(s) for s in spans[first:last] if s[1] == -1)


def unit(name: str) -> str:
    """Unit of a per-layer metric name."""
    if name.endswith((".calls", ".rejections")):
        return "count"
    if name.endswith(".trainings_per_check"):
        return "ratio"
    return "s"


def layer_metrics(spans, op_ranges, setup_range) -> dict[str, float]:
    """Per-layer figures, each per traced operation unless it is a set-up
    total: calls and seconds per boundary, harness stage times, solver
    self time, rejected proposals and trainings per feasibility check."""
    ops = len(op_ranges)
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    stage: dict[str, float] = defaultdict(float)
    harness_self = solve_self = 0.0
    rejections = solver_trainings = 0
    for first, last in op_ranges:
        selfs = self_times(spans, first, last)
        for k in range(first, last):
            name, parent = spans[k][0], spans[k][1]
            dur = _seconds(spans[k])
            calls[name] += 1
            secs[name] += dur
            parent_name = spans[parent][0] if parent >= first else None
            if name == "harness.run_experiment":
                harness_self += selfs[k - first]
            elif name == "solvers.solve":
                solve_self += selfs[k - first]
                if parent_name == "harness.run_experiment":
                    stage["solve"] += dur
            elif name.startswith("harness."):
                stage[name.split(".", 1)[1]] += dur
            elif name == "detector.feasible" and spans[k][4] is False:
                rejections += 1
            elif name == "learner.train" and _under(spans, k, first, "solvers.solve"):
                solver_trainings += 1
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.s"] = secs[name] / ops
    for name in HARNESS_STAGES:
        out[f"harness.{name}.s"] = stage[name] / ops
    out["harness.self_s"] = harness_self / ops
    out["solvers.solve.self_s"] = solve_self / ops
    out["solvers.rejections"] = rejections / ops
    checks = calls["detector.feasible"]
    out["solvers.trainings_per_check"] = solver_trainings / checks if checks else 0.0
    first, last = setup_range
    for name in SETUP_SPANS:
        out[f"setup.{name}.s"] = float(sum(
            _seconds(s) for s in spans[first:last] if s[0] == name))
    return out


def _under(spans, k: int, first: int, name: str) -> bool:
    parent = spans[k][1]
    while parent >= first:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False
