"""Momentum correlations of entangled Gaussian electron pairs."""

from .correlation import (
    CorrelationCurve,
    accidental_intensity,
    coincidence_intensity,
    correlation_R,
    correlation_curve,
)
from .data import (
    Dataset,
    load_dataset,
    save_curve,
    save_dataset,
    save_fit_result,
)
from .errors import (
    DataFormatError,
    DegenerateChannelError,
    InsufficientDataError,
    InsufficientSensitivityError,
    NonConvergenceError,
    PairCorrError,
    ToleranceNotMetError,
    UndefinedMetricError,
    UnsupportedMethodError,
)
from .fitting import (
    FitConfig,
    FitResult,
    approximation_error,
    fit,
    synthesize,
)
from .model import (
    ModelParams,
    SpinChannel,
    coordinate_uncertainty,
    mixture_density,
    mixture_marginal,
    pair_amplitude,
)
from .oracle import (
    OracleResult,
    QuadratureSpec,
    intensity_cor_oracle,
    intensity_uncor_oracle,
    phi_norm_oracle,
    rho_single,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CorrelationCurve",
    "Dataset",
    "FitConfig",
    "FitResult",
    "ModelParams",
    "OracleResult",
    "QuadratureSpec",
    "SpinChannel",
    "accidental_intensity",
    "approximation_error",
    "coincidence_intensity",
    "coordinate_uncertainty",
    "correlation_R",
    "correlation_curve",
    "fit",
    "intensity_cor_oracle",
    "intensity_uncor_oracle",
    "load_dataset",
    "mixture_density",
    "mixture_marginal",
    "pair_amplitude",
    "phi_norm_oracle",
    "rho_single",
    "save_curve",
    "save_dataset",
    "save_fit_result",
    "synthesize",
    "PairCorrError",
    "DataFormatError",
    "DegenerateChannelError",
    "InsufficientDataError",
    "InsufficientSensitivityError",
    "NonConvergenceError",
    "ToleranceNotMetError",
    "UndefinedMetricError",
    "UnsupportedMethodError",
]
