"""The benchmark must keep running on the package.

perfbench/tracing.py replaces functions by name (``WRAPPED``) in the
modules that call them; a refactor that drops or stops calling one of
them would break the traced run, not the test suite, without this check.
The benchmark's own self-test runs here too, so a change that breaks a
workload or one of its checks fails locally.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import paircorr.correlation
import paircorr.oracle
from paircorr.model import ModelParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_uncor_oracle_records_marginal_points():
    # model.marginal_ns_per_point divides the marginal's time by the
    # points it was called on: the accidental integrand evaluates the
    # marginal at p1 and at p2 once per sample, through the name the
    # tracer wraps and with (m, 3) arguments
    tracing = _tracing()
    tracer = tracing.Tracer()
    params = ModelParams(sigma=0.5, p_split=(0.3, -0.1, 0.7), triplet_fraction=0.3)
    spec = paircorr.oracle.QuadratureSpec(
        sample_count=3 * paircorr.oracle._BLOCK + 5, target_rel_tol=0.5
    )
    with tracing.instrument(tracer):
        result = paircorr.oracle.intensity_uncor_oracle(1.2, params, spec)
    table = tracing.SpanTable(tracer)
    marginal = table.ids("model.mixture_marginal")
    assert len(marginal) > 0
    assert int(table.points[marginal].sum()) == 2 * result.samples_used


def test_benchmark_selftest_passes():
    # every workload runs to its end at tiny sizes and every benchmark
    # check accepts a right answer and rejects a wrong one
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "\n0 failure(s)" in proc.stdout
