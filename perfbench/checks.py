"""Correctness checks of the benchmark's workloads, run outside the timed region.

Each check returns a list of problems (empty when it passes). The closed
forms are compared with the mpmath transcription in ``reference.py``, not
with stored output of the program. ``selftest.py`` shows that each check
rejects a deliberately wrong answer.
"""

from __future__ import annotations

import statistics

import numpy as np

import reference

# The package's tests bound the closed forms at 5e-12 (relative for the
# intensities, relative to 1 + |R| for R, which crosses zero).
CLOSED_TOL = 5e-12
# I_cor / I_unc carries the error of both intensities.
IDENTITY_TOL = 2 * CLOSED_TOL
SMALLEST_NORMAL = 2.2250738585072014e-308
FIT_KEYS = {"sigma", "f", "p_tilde", "approx_error_pct", "converged", "residuals"}
# acceptance-f recovery gate
SIGMA_REL_GATE = 0.15
F_ABS_GATE = 0.15


def _close_r(got, want):
    return abs(got - want) <= CLOSED_TOL * (1.0 + abs(want))


def _close_intensity(got, want):
    if abs(want) < SMALLEST_NORMAL:
        return abs(got) < SMALLEST_NORMAL
    return abs(got - want) <= CLOSED_TOL * abs(want)


def check_fit(payload, data, truth):
    """One ``paircorr fit`` JSON against its dataset and generating truth.

    ``data`` is (delta_p, r, sigma_r); ``truth`` is (sigma, f, p_tilde).
    The residuals must equal the reference model minus the data at the
    fitted parameters, and the weighted cost there must not exceed the
    cost at the truth (both with the reference model).
    """
    problems = []
    keys = set(payload)
    if keys != FIT_KEYS:
        return [f"fit JSON keys {sorted(keys)} differ from {sorted(FIT_KEYS)}"]
    dp, r, sigma_r = data
    sigma, f, p_tilde = payload["sigma"], payload["f"], payload["p_tilde"]
    residuals = payload["residuals"]
    if len(residuals) != len(dp):
        return [f"{len(residuals)} residuals for {len(dp)} points"]
    cost_fit = cost_truth = 0.0
    for x, obs, sr, res in zip(dp, r, sigma_r, residuals):
        model = reference.correlation_R(x, sigma, f, p_tilde)
        want = float(model - obs)
        if abs(res - want) > CLOSED_TOL * (1.0 + abs(float(model)) + abs(obs)):
            problems.append(f"residual at dp={x!r}: {res!r} != reference {want!r}")
        at_truth = reference.correlation_R(x, *truth)
        cost_fit += float((model - obs) ** 2) / (sr * sr)
        cost_truth += float((at_truth - obs) ** 2) / (sr * sr)
    if not cost_fit <= cost_truth * (1.0 + 1e-9):
        problems.append(f"cost at the fit {cost_fit:.6g} exceeds cost at the truth {cost_truth:.6g}")
    return problems


def check_recovery(fits_by_width):
    """Acceptance-f gate on batch medians: sigma within 15 %, f within 0.15."""
    problems = []
    for sigma, fits in fits_by_width.items():
        med_sigma = statistics.median(p["sigma"] for p in fits)
        med_f = statistics.median(p["f"] for p in fits)
        if abs(med_sigma - sigma) >= SIGMA_REL_GATE * sigma:
            problems.append(f"sigma={sigma}: median fitted sigma {med_sigma:.4g} off by >= 15 %")
        if abs(med_f - 0.5) >= F_ABS_GATE:
            problems.append(f"sigma={sigma}: median fitted f {med_f:.4g} off by >= 0.15")
    return problems


def check_curve(params, dp, r, icor, iunc, sample):
    """R and both intensities on one grid.

    Every point: R finite and >= -1, and I_cor / I_unc - 1 = R wherever
    both intensities are normal floats. Points in ``sample``: all three
    values against the reference.
    """
    sigma, f, split = params
    problems = []
    r, icor, iunc = (np.asarray(a, dtype=float) for a in (r, icor, iunc))
    bad = np.flatnonzero(~(np.isfinite(r) & (r >= -1.0)))
    if bad.size:
        problems.append(f"{params}: R not finite or below -1 at {bad.size} points, first dp={dp[bad[0]]!r}")
    normal = (icor >= SMALLEST_NORMAL) & (iunc >= SMALLEST_NORMAL)
    dev = np.abs(icor[normal] / iunc[normal] - 1.0 - r[normal]) / (1.0 + np.abs(r[normal]))
    worst = float(dev.max()) if dev.size else 0.0
    if not worst <= IDENTITY_TOL:
        problems.append(f"{params}: I_cor/I_unc - 1 differs from R by {worst:.3e} relative")
    for i in sample:
        want_c, want_u, want_r = reference.intensities(dp[i], sigma, f, split)
        for what, got, want, close in (
            ("R", r[i], want_r, _close_r),
            ("I_cor", icor[i], want_c, _close_intensity),
            ("I_unc", iunc[i], want_u, _close_intensity),
        ):
            if not close(float(got), float(want)):
                problems.append(f"{params}: {what}(dp={dp[i]!r}) = {got!r}, reference {float(want)!r}")
    return problems


def row_passes(closed, value, est_error, met, tol):
    """The ``paircorr oracle-check`` row rule."""
    return met and abs(closed - value) <= max(tol * abs(closed), 3.0 * est_error)


def check_closed(params, dp, kind, closed):
    """The closed-form intensity an oracle row is judged against."""
    cor, unc, _ = reference.intensities(dp, *params)
    want = float(cor if kind == "oracle.cor" else unc)
    if _close_intensity(closed, want):
        return []
    return [f"{params}: closed {kind}(dp={dp!r}) = {closed!r}, reference {want!r}"]


def check_identical(label, first, second):
    """Oracle (value, est_error, samples) tuples must agree bit for bit."""
    problems = []
    for i, (a, b) in enumerate(zip(first, second)):
        if a != b:
            problems.append(f"{label}: operation {i} gave {a!r} and {b!r}")
    if len(first) != len(second):
        problems.append(f"{label}: {len(first)} and {len(second)} results")
    return problems
