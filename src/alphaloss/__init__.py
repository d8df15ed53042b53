"""Tunable alpha-loss family for binary classification."""

__version__ = "0.3.7"

from .losses import (
    Alpha,
    alpha_loss,
    check_belief,
    check_label,
    check_margin,
    check_posterior,
    conditional_risk,
    logit,
    margin_alpha_loss,
    margin_alpha_loss_d1,
    margin_alpha_loss_d2,
    margin_alpha_loss_d3,
    margin_losses,
    min_conditional_risk,
    optimal_classifier,
    second_deriv_sign_change,
    sigmoid,
)
from .calibration import (
    CALIBRATION_TOL,
    CalibrationReport,
    calibration_sweep,
    calibration_workspace,
    check_calibration_at,
)
from .logreg import (
    BallSolution,
    LabeledDataset,
    LinearModel,
    SeededStart,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    empirical_gradient,
    empirical_risk,
    evaluate,
    risk_and_accuracy,
    sample_loss,
    solve_on_ball,
    train,
)
from .landscape import (
    AssumptionReport,
    GenerationFailed,
    RiskGapRecord,
    RiskGapResult,
    SymmetricDataSpec,
    check_assumptions,
    generate_symmetric_dataset,
    hoeffding_epsilon,
    log_log_slope,
    median_gaps,
    morse_epsilon,
    risk_gap_experiment,
)
from .mnist import (
    BinaryTaskSplit,
    IdxFormatError,
    InsufficientClassError,
    build_binary_task,
    load_idx_images,
    load_idx_labels,
    load_mnist_dir,
    read_idx_bytes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
