"""The public surface: pinned so that a name cannot be added or come back unnoticed."""

import ast
import importlib
import importlib.util
import pathlib

import paircorr

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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


def _traced_names():
    """{(module, name)} that perfbench/tracing.py replaces by name (its WRAPPED), loaded from the file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, name) for module, name, _, _ in tracing.WRAPPED}


def test_module_imports_are_used():
    # no linter runs on the package: a name imported at module level must
    # be used, re-exported in __all__, or on a line marked "noqa: F401",
    # and then one that the benchmark's tracer wraps in that module
    traced = _traced_names()
    for path in sorted(pathlib.Path(paircorr.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        name = "paircorr" if path.stem == "__init__" else f"paircorr.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            noqa = any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if noqa:
                    assert (name, bound) in traced, f"{path.name}: {bound} marked noqa but not traced"
                else:
                    assert bound in used or bound in exported, f"{path.name}: {bound} unused"


# private names that only tests load: correlation._regimes labels which
# regime of the bracket kernel serves each point, for the seam tests
TEST_ONLY = {("correlation", "_regimes")}


def test_private_names_are_used():
    # a module-level private function, class or constant must be loaded
    # somewhere in the package, so that a removed code path leaves none behind
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(pathlib.Path(paircorr.__file__).parent.glob("*.py"))
    }
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and (stem, name) not in TEST_ONLY:
                    assert name in loaded, f"{stem}.{name} is never loaded"
