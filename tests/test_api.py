"""The public surface: pinned so that a name cannot be added or come back unnoticed."""

import importlib

import paircorr

PUBLIC = [
    "CorrelationCurve",
    "DataFormatError",
    "Dataset",
    "DegenerateChannelError",
    "FitConfig",
    "FitResult",
    "InsufficientDataError",
    "InsufficientSensitivityError",
    "ModelParams",
    "NonConvergenceError",
    "OracleResult",
    "PairCorrError",
    "QuadratureSpec",
    "SpinChannel",
    "ToleranceNotMetError",
    "UndefinedMetricError",
    "UnsupportedMethodError",
    "__version__",
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
]

# every submodule with an __all__ (errors.py exports its classes without one)
SUBMODULES = ("_stable", "cli", "correlation", "data", "fitting", "model", "oracle")

# the submodules whose every export the package re-exports
REEXPORTED = ("correlation", "data", "fitting", "model", "oracle")

# per-channel copies of the mixture API (a pure channel is f = 0 or 1),
# a second coincidence-oracle entry point and input form, and private
# building blocks
REMOVED = (
    "ChannelCrossSection",
    "general_channel_integral",
    "overlap_j",
    "pair_norm_oracle",
    "rho_marginal",
    "two_particle_density",
    "wavepacket_amplitude",
)


def test_public_surface():
    assert sorted(paircorr.__all__) == PUBLIC
    for name in paircorr.__all__:
        assert hasattr(paircorr, name), name


def test_submodule_exports_resolve():
    for sub in SUBMODULES:
        module = importlib.import_module(f"paircorr.{sub}")
        for name in module.__all__:
            assert hasattr(module, name), f"paircorr.{sub}.{name}"


def test_submodule_exports_are_public():
    for sub in REEXPORTED:
        module = importlib.import_module(f"paircorr.{sub}")
        assert set(module.__all__) <= set(paircorr.__all__), sub


def test_removed_names_stay_removed():
    for sub in SUBMODULES:
        module = importlib.import_module(f"paircorr.{sub}")
        assert not set(REMOVED) & set(module.__all__), sub
    for name in REMOVED:
        assert name not in paircorr.__all__
        assert not hasattr(paircorr, name), name
