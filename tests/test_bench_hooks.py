"""The names the benchmark's traced run wraps must exist in the package.

perfbench/tracing.py replaces functions by name (``WRAPPED``) in the
modules that call them; a refactor that drops or stops calling one of
them would break the traced run, not the test suite, without this check.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import paircorr.correlation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracing = _tracing()
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
    # the kernel still calls some of the wrapped _stable primitives by
    # these names, so the traced run records spans for that layer
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        paircorr.correlation.correlation_R(np.linspace(0.0, 1.0, 5), 0.22, 0.5, 0.022)
    assert any(name.startswith("_stable.") for name in tracer.names)
