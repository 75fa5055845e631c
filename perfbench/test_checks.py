"""Tests of the benchmark's output checks: the independent computations
agree with covertrain on random inputs, and each check rejects a corrupted
result. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import numpy as np
import pytest

import covertrain
from covertrain import (
    Dataset, DetectorConfig, LearnerConfig, RngState, SolverBudget,
    WeightedTrainingView, acceptance_spec, detect, generate, solve_beam, train,
)

import checks
import spans

LEARNER = LearnerConfig()


def random_pool(seed, n, d):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d)) * gen.uniform(0.5, 3.0, size=d)
    y = np.where(gen.random(n) < 0.5, 1, -1)
    y[:2] = (1, -1)  # both classes present
    return Dataset(X, y)


def textbook(pool, det):
    return checks.TextbookDetector(pool.X, pool.y, det.sigma, det.label_scale_c,
                                   det.alpha, det.kernel_bound)


@pytest.mark.parametrize("seed,n,d,m", [(0, 30, 2, 5), (1, 80, 5, 17),
                                        (2, 150, 1, 40), (3, 300, 20, 9)])
def test_textbook_mmd_matches_detect(seed, n, d, m):
    pool = random_pool(seed, n, d)
    det = DetectorConfig.from_pool(pool, alpha=0.1)
    sigma, c = checks.calibration(pool.X, pool.y)
    assert sigma == pytest.approx(det.sigma, rel=1e-12)
    assert c == pytest.approx(det.label_scale_c, rel=1e-12)
    reference = textbook(pool, det)
    gen = np.random.default_rng(seed + 100)
    for _ in range(5):
        idx = np.sort(gen.choice(n, size=m, replace=False))
        verdict = detect(pool, pool.subset(idx), det)
        assert reference.mmd(idx) == pytest.approx(verdict.mmd, abs=1e-12)
        assert reference.psi(idx) == pytest.approx(verdict.psi, abs=1e-12)
    assert checks.threshold(n, m, det.alpha, 1.0) == pytest.approx(
        covertrain.mmd_threshold(n, m, det), rel=1e-15)


def test_check_calibration_rejects_wrong_sigma():
    pool = random_pool(4, 40, 3)
    det = DetectorConfig.from_pool(pool)
    checks.check_calibration(det.sigma, det.label_scale_c, pool.X, pool.y)
    with pytest.raises(checks.CheckError):
        checks.check_calibration(det.sigma * 1.01, det.label_scale_c,
                                 pool.X, pool.y)


def flagged_instance():
    """A pool, a tight detector and a one-class subset it flags."""
    _, pool, _ = generate(acceptance_spec(3))
    base = DetectorConfig.from_pool(pool)
    det = DetectorConfig(base.alpha, base.sigma, base.label_scale_c,
                         kernel_bound=1e-4)
    flagged = np.flatnonzero(pool.y == 1)[:20]
    assert detect(pool, pool.subset(flagged), det).suspicious
    return pool, det, flagged


def test_check_passes_detector_rejects_flagged_subset():
    pool, det, flagged = flagged_instance()
    with pytest.raises(checks.CheckError, match="flagged"):
        checks.check_passes_detector(textbook(pool, det), flagged)


def test_check_passes_detector_rejects_wrong_reported_psi():
    pool = random_pool(5, 60, 2)
    det = DetectorConfig.from_pool(pool)
    idx = np.arange(0, 60, 3)
    true_psi = detect(pool, pool.subset(idx), det).psi
    assert checks.check_passes_detector(textbook(pool, det), idx, true_psi) < 0
    with pytest.raises(checks.CheckError, match="reported psi"):
        checks.check_passes_detector(textbook(pool, det), idx, true_psi + 1e-6)


def test_fit_logistic_matches_train():
    pool = random_pool(6, 50, 4)
    theta = train(WeightedTrainingView(pool, np.ones(len(pool))), LEARNER).theta
    ours = checks.fit_logistic(pool.X, pool.y, LEARNER.lam)
    assert np.max(np.abs(ours - theta)) < 1e-8


def test_check_stationary_rejects_perturbed_model():
    pool = random_pool(7, 40, 3)
    theta = train(WeightedTrainingView(pool, np.ones(len(pool))), LEARNER).theta
    checks.check_stationary(theta, pool.X, pool.y, LEARNER.lam, LEARNER.tol)
    with pytest.raises(checks.CheckError, match="stationarity"):
        checks.check_stationary(theta + 1e-4, pool.X, pool.y,
                                LEARNER.lam, LEARNER.tol)


def test_check_risk_rejects_wrong_risk():
    secret, pool, _ = generate(acceptance_spec(8))
    theta = train(WeightedTrainingView(pool, np.ones(len(pool))), LEARNER)
    reported = covertrain.empirical_risk(theta, secret)
    assert checks.check_risk(reported, theta.theta, secret.X, secret.y) == \
        pytest.approx(reported, abs=1e-15)
    with pytest.raises(checks.CheckError, match="risk"):
        checks.check_risk(reported * 1.001, theta.theta, secret.X, secret.y)


def test_check_budget_rejects_over_budget_count():
    checks.check_budget(300, 300)
    for used in (301, 0):
        with pytest.raises(checks.CheckError):
            checks.check_budget(used, 300)


def test_check_trajectory():
    secret, pool, _ = generate(acceptance_spec(9))
    det = DetectorConfig.from_pool(pool)
    report = solve_beam(pool, secret, 20, LEARNER, det,
                        SolverBudget(max_trainings=40, beam_width=2,
                                     neighbors_per_state=4), RngState(0))
    checks.check_trajectory(report.trajectory, report.best.cached_risk)
    rising = report.trajectory + [(report.trainings_used, 1.0)]
    bad = [
        ([], report.best.cached_risk),
        (rising, 1.0),
        (report.trajectory, report.best.cached_risk - 1e-3),
        (list(reversed(report.trajectory)) + report.trajectory[-1:],
         report.best.cached_risk),
    ]
    for trajectory, best in bad:
        with pytest.raises(checks.CheckError):
            checks.check_trajectory(trajectory, best)


def test_check_not_worse_rejects_worse_result():
    checks.check_not_worse(0.5, 0.5)
    with pytest.raises(checks.CheckError):
        checks.check_not_worse(0.5 + 1e-6, 0.5)


def test_check_ordering():
    checks.check_ordering(0.0, 0.02, 0.15, "beam", 3200)
    # one test point better than the oracle is within the slack
    checks.check_ordering(12 / 3200, 11 / 3200, 0.48, "nlp", 3200)
    for values in [(0.03, 0.02, 0.15), (0.0, 0.2, 0.15), (0.01, 0.002, 0.4)]:
        with pytest.raises(checks.CheckError):
            checks.check_ordering(*values, "beam", 3200)


def test_check_replay_rejects_changed_bytes():
    checks.check_replay(b'{"psi": -0.1}\n', b'{"psi": -0.1}\n')
    with pytest.raises(checks.CheckError):
        checks.check_replay(b'{"psi": -0.1}\n', b'{"psi": -0.2}\n')


def test_check_span_sum():
    checks.check_span_sum(1.0, 0.9995, 1e-3)
    for attributed in (0.99, 1.001):
        with pytest.raises(checks.CheckError):
            checks.check_span_sum(1.0, attributed, 1e-3)


def test_tracer_spans_nest_and_uninstall_restores():
    secret, pool, _ = generate(acceptance_spec(10))
    originals = [covertrain.solvers.train, covertrain.detector.PoolKernel.feasible,
                 covertrain.detector.DetectorConfig.from_pool]
    tracer = spans.Tracer()
    tracer.install()
    try:
        det = DetectorConfig.from_pool(pool)
        covertrain.solvers.solve_beam(
            pool, secret, 20, LEARNER, det,
            SolverBudget(max_trainings=20, beam_width=2, neighbors_per_state=4),
            RngState(1))
    finally:
        tracer.uninstall()
    assert [covertrain.solvers.train, covertrain.detector.PoolKernel.feasible,
            covertrain.detector.DetectorConfig.from_pool] == originals

    names = [s[0] for s in tracer.spans]
    assert names[0] == "detector.calibrate"
    assert names.count("learner.train") == 20
    total = len(tracer.spans)
    selfs = spans.self_times(tracer.spans, 0, total)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(
        spans.top_level_seconds(tracer.spans, 0, total), abs=1e-9)
    for name, parent, start, end, _ in tracer.spans:
        if parent >= 0:
            assert tracer.spans[parent][2] <= start <= end <= tracer.spans[parent][3]
    layer = spans.layer_metrics(tracer.spans, [(1, total)], (0, 1))
    assert layer["learner.train.calls"] == 20
    assert layer["setup.detector.calibrate.s"] > 0
    assert 0 < layer["solvers.trainings_per_check"] <= 1

