"""Per-layer metrics of a traced run, computed from its spans.

Span names come from ``tracing.WRAPPED`` and from the benchmark's own
operation spans (``op.<kind>``) and pass spans (``pass.traced``,
``probe.<workload>``, ``oracle.threads1``, ``oracle.threadsN``). The
README says which end-to-end metric each of these should move, and on
which workload.
"""

from __future__ import annotations

import numpy as np

from tracing import SpanTable


def _attr_sum(t: SpanTable, ids, key):
    return sum(t.attrs.get(int(i), {}).get(key, 0) for i in ids)


def _ids_of(t: SpanTable, *names, within=None):
    return np.concatenate([t.ids(n, within) for n in names])


def layer_metrics(t: SpanTable, walls):
    """Every per-layer metric; ``walls`` holds the oracle passes' wall time per call."""
    m = {}

    # fitting: one CLI operation = argparse + load_dataset + fit + save_fit_result
    ops = t.ids("op.fit")
    fits = t.ids("fitting.fit")
    calls = t.ids("fitting.correlation_R")
    n_fits = len(fits)
    fit_s = t.total(fits) / n_fits
    model_s = t.total(calls) / n_fits
    m["cli.overhead_s"] = float(np.mean([t.self_time(o, "fitting.fit") for o in ops]))
    m["fitting.fit_s"] = fit_s
    m["fitting.model_s_per_fit"] = model_s
    m["fitting.self_s_per_fit"] = float(np.mean([t.self_time(f, "fitting.correlation_R") for f in fits]))
    m["fitting.model_share"] = model_s / fit_s
    m["fitting.model_calls_per_fit"] = len(calls) / n_fits
    m["fitting.model_points_per_fit"] = float(t.points[calls].sum()) / n_fits
    m["correlation.R_us_per_call"] = 1e6 * t.total(calls) / len(calls)

    # closed forms on large grids
    curve_r = t.ids("correlation.correlation_R")
    m["correlation.R_ns_per_point"] = 1e9 * t.total(curve_r) / float(t.points[curve_r].sum())
    intensity_ops = _ids_of(t, "op.curve.I_cor", "op.curve.I_unc")
    m["correlation.intensity_ns_per_point"] = 1e9 * t.total(intensity_ops) / _attr_sum(t, intensity_ops, "points")

    # _stable primitives as called from paircorr.correlation
    stable = np.concatenate([t.ids(n) for n in t.names if n.startswith("_stable.")])
    in_fit = np.isin(t.parent[stable], calls)
    m["stable.calls_per_R_call"] = int(in_fit.sum()) / len(calls)
    curve_ops = _ids_of(t, "op.curve.R", "op.curve.I_cor", "op.curve.I_unc")
    rest = stable[~in_fit]
    in_curve = rest[t.under(rest, curve_ops)]
    m["stable.share_of_correlation"] = t.total(in_curve) / t.total(curve_ops)

    # oracles: per-sample costs at one thread, outcomes at NPROC threads
    one = t.ids("oracle.threads1")
    many = t.ids("oracle.threadsN")
    cor1 = t.ids("op.oracle.cor", one)
    unc1 = t.ids("op.oracle.uncor", one)
    marginal = t.ids("model.mixture_marginal", one)
    m["model.marginal_ns_per_point"] = 1e9 * t.total(marginal) / float(t.points[marginal].sum())
    m["model.marginal_share_of_uncor"] = t.total(marginal) / t.total(unc1)
    m["oracle.cor_ns_per_sample"] = 1e9 * t.total(cor1) / _attr_sum(t, cor1, "samples")
    m["oracle.uncor_ns_per_sample"] = 1e9 * t.total(unc1) / _attr_sum(t, unc1, "samples")
    m["oracle.samples_per_call"] = _attr_sum(t, np.concatenate([cor1, unc1]), "samples") / (len(cor1) + len(unc1))
    m["oracle.thread_speedup"] = walls["threads1"] / walls["threadsN"]
    outcomes = _ids_of(t, "op.oracle.cor", "op.oracle.uncor", within=many)
    met = _attr_sum(t, outcomes, "met")
    m["oracle.calls"] = len(outcomes)
    m["oracle.calls_met"] = met
    m["oracle.tolerance_met_ratio"] = met / len(outcomes)
    return m
