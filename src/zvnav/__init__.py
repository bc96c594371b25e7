"""Zero-velocity-aided inertial navigation with an adaptive stance detector."""

from .core import (
    NoiseModel,
    Recording,
    validate_stream,
)
from .detectors import are_log_lr, shoe_log_lr
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
    RunReport,
    align_from_standstill,
    run_pipeline,
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
    "NoiseModel",
    "Recording",
    "validate_stream",
    "shoe_log_lr",
    "are_log_lr",
    "LossParams",
    "PriorParams",
    "ThresholdParams",
    "loss_factor",
    "hypothesis_prior",
    "log_threshold",
    "calibrate",
    "RunReport",
    "align_from_standstill",
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
