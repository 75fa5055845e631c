"""covertrain: construct cover-task training subsets that pass an MMD
two-sample detector while teaching a hidden binary classification task."""

from .data import (
    CandidateSet,
    DataError,
    Dataset,
    RngState,
    load_dataset,
    sample_subset,
    save_dataset,
)
from .detector import (
    DetectionVerdict,
    DetectorConfig,
    DetectorError,
    PoolKernel,
    augment,
    detect,
    gram,
    mmd,
    mmd_threshold,
    psi,
    weighted_mmd,
)
from .harness import (
    EvaluationRow,
    ExperimentConfig,
    StageError,
    oracle_baseline,
    random_baseline,
    rerun_from_manifest,
    run_experiment,
)
from .learner import (
    LearnerConfig,
    ModelParams,
    TrainingError,
    WeightedTrainingView,
    empirical_risk,
    loss_gradients,
    risk_gradient_wrt_weights,
    stationarity_residual,
    train,
)
from .solvers import (
    NlpOptions,
    SolverBudget,
    SolverError,
    SolverReport,
    neighbors,
    rounding_candidates,
    solve_beam,
    solve_nlp,
    solve_uniform,
)
from .synth import SyntheticSpec, acceptance_spec, generate

__version__ = "0.1.0"
