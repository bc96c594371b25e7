"""Zero-velocity-aided inertial navigation with an adaptive stance detector."""

from .core import (
    ImuSample,
    ImuWindow,
    NoiseModel,
    Recording,
    validate_stream,
)
from .detectors import LogLikelihoodRatio, are_log_lr, shoe_log_lr
from .gaitsim import (
    GaitProfile,
    LabeledRecording,
    extract_calibration_sets,
    fast_profile,
    make_corpus,
    normal_profile,
    simulate,
)
from .ins import (
    NavCovariance,
    NavState,
    ProcessNoise,
    RunReport,
    align_from_standstill,
    propagate,
    run_pipeline,
    xi,
    zupt_update,
)
from .threshold import (
    LossParams,
    PriorParams,
    ThresholdParams,
    calibrate,
    hypothesis_prior,
    log_threshold,
    loss_factor,
)

__version__ = "0.1.0"

__all__ = [
    "ImuSample",
    "ImuWindow",
    "NoiseModel",
    "Recording",
    "validate_stream",
    "LogLikelihoodRatio",
    "shoe_log_lr",
    "are_log_lr",
    "LossParams",
    "PriorParams",
    "ThresholdParams",
    "loss_factor",
    "hypothesis_prior",
    "log_threshold",
    "calibrate",
    "NavState",
    "NavCovariance",
    "ProcessNoise",
    "RunReport",
    "align_from_standstill",
    "propagate",
    "zupt_update",
    "xi",
    "run_pipeline",
    "GaitProfile",
    "LabeledRecording",
    "simulate",
    "normal_profile",
    "fast_profile",
    "extract_calibration_sets",
    "make_corpus",
    "__version__",
]
