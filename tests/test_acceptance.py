"""Acceptance checks, one per shipped guarantee.

Each test prints exactly one verdict line of the form

    ACCEPTANCE (x) name: PASS/FAIL (details)

before asserting, so a plain ``pytest tests/test_acceptance.py -v -s``
doubles as the sign-off report. Tolerances are pinned here on purpose;
loosening one is a contract change, not a test fix.

The final check is advisory and runs only when PAIRCORR_MEASURED_DATA
points at a digitized dataset; it is skipped otherwise.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from paircorr import (
    FitConfig,
    ModelParams,
    NonConvergenceError,
    QuadratureSpec,
    SpinChannel,
    accidental_intensity,
    coincidence_intensity,
    correlation_R,
    fit,
    intensity_cor_oracle,
    intensity_uncor_oracle,
    load_dataset,
    mixture_density,
    pair_amplitude,
    phi_norm_oracle,
    synthesize,
)

# a pure channel is the mixture at f = 0 (singlet) or f = 1 (triplet)
PURE_F = {SpinChannel.SINGLET: 0.0, SpinChannel.TRIPLET: 1.0}


def _verdict(letter, name, ok, detail):
    print(f"ACCEPTANCE ({letter}) {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"({letter}) {name}: {detail}"


def test_a_pair_normalization():
    # 9 parameter points, both channels, quadrature and Monte Carlo
    t0 = time.perf_counter()
    quad = QuadratureSpec(method="tensor-quadrature", nodes_per_axis=48)
    # 3 sigma * SE <= 3e-3 * value, i.e. the oracle itself enforces
    # est_error <= 1e-3 on a unit-normalized integral; the near-degenerate
    # triplet points need the full two million samples to get there
    mc = QuadratureSpec(method="monte-carlo", sample_count=1 << 21, target_rel_tol=3e-3)
    worst_quad = worst_mc = worst_se = 0.0
    for sigma in (0.22, 0.5, 1.0):
        for ratio in (0.5, 1.0, 3.0):
            params = ModelParams(
                sigma=sigma,
                p_split=(0.0, 0.0, ratio * sigma),
                p_total=(0.1, -0.2, 0.3),
            )
            for f in PURE_F.values():
                pure = dataclasses.replace(params, triplet_fraction=f)
                rq = phi_norm_oracle(pure, quad)
                worst_quad = max(worst_quad, abs(rq.value - 1.0))
                rm = phi_norm_oracle(pure, mc)
                worst_mc = max(
                    worst_mc, abs(rm.value - 1.0) / max(3.0 * rm.est_error, 1e-300)
                )
                worst_se = max(worst_se, rm.est_error)
    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-8 and worst_mc <= 1.0 and worst_se <= 1e-3 and elapsed < 60.0
    _verdict(
        "a",
        "pair-density normalization",
        ok,
        f"quad |1-v| {worst_quad:.1e} <= 1e-8, mc |1-v|/3se {worst_mc:.2f} <= 1, "
        f"se {worst_se:.1e} <= 1e-3, {elapsed:.0f}s < 60s",
    )


def test_b_closed_forms_vs_oracles():
    # 36 combinations at the default two million samples per integral;
    # target_rel_tol is opened wide so the explicit comparison below,
    # not the oracle's internal gate, decides
    t0 = time.perf_counter()
    spec = QuadratureSpec(method="monte-carlo", sample_count=2_000_000, target_rel_tol=1.0)
    worst = 0.0
    for sigma in (0.22, 1.0):
        for split_ratio in (0.5, 2.0):
            split = split_ratio * sigma
            for f in (0.0, 0.5, 1.0):
                params = ModelParams(
                    sigma=sigma, p_split=(0.0, 0.0, split), triplet_fraction=f
                )
                for dp_ratio in (0.5, 1.5, 3.0):
                    dp = dp_ratio * sigma
                    want_c = float(coincidence_intensity(dp, sigma, f, split))
                    want_u = float(accidental_intensity(dp, sigma, f, split))
                    got_c = intensity_cor_oracle(dp, params, spec).value
                    got_u = intensity_uncor_oracle(dp, params, spec).value
                    worst = max(
                        worst,
                        abs(got_c - want_c) / want_c,
                        abs(got_u - want_u) / want_u,
                    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 600.0
    _verdict(
        "b",
        "closed intensities vs integration oracles",
        ok,
        f"36 combos, worst rel {worst:.1e} <= 1e-3, {elapsed:.0f}s < 600s",
    )


def test_c_analytic_limits():
    # triplet curve pinned to -1 at vanishing momentum difference
    worst_r1 = 0.0
    for sigma in (0.22, 0.5, 1.0):
        for split in (sigma, 3.0 * sigma):
            for dp in (0.0, 1e-6):
                worst_r1 = max(worst_r1, abs(float(correlation_R(dp, sigma, 1.0, split)) + 1.0))
    # degenerate splitting: the singlet curve vanishes identically
    dp = np.linspace(0.0, 4.0, 200)
    worst_r0 = float(np.max(np.abs(correlation_R(dp, 0.5, 0.0, 0.0))))
    # mixture endpoints reduce to the pure curves f = 0 and f = 1
    grid = np.linspace(0.0, 6.0, 200)
    ends = correlation_R(grid, 0.5, np.array([[1e-14], [1.0 - 1e-14]]), 0.7)
    worst_end = max(
        float(np.max(np.abs(ends[0] - correlation_R(grid, 0.5, 0.0, 0.7)))),
        float(np.max(np.abs(ends[1] - correlation_R(grid, 0.5, 1.0, 0.7)))),
    )
    ok = worst_r1 <= 1e-10 and worst_r0 <= 1e-12 and worst_end <= 1e-12
    _verdict(
        "c",
        "analytic limits",
        ok,
        f"|R1(dp->0)+1| {worst_r1:.1e} <= 1e-10, |R0(split=0)| {worst_r0:.1e} <= 1e-12, "
        f"endpoint diff {worst_end:.1e} <= 1e-12",
    )


def _sign_runs(r):
    signs = np.sign(r[np.abs(r) > 1e-13])
    runs = [signs[0]]
    for s in signs[1:]:
        if s != runs[-1]:
            runs.append(s)
    return runs


def test_d_mixture_curve_shape():
    # small-splitting mixtures: dip, hump, then negative tail, with a
    # grid-stable maximum location
    sigma = 0.22
    split = 0.1 * sigma
    ok = True
    details = []
    for f in (0.5, 0.75, 1.0):
        locs = []
        for n in (2000, 4000):
            dp = np.linspace(10.0 / n, 10.0, n)
            r = np.atleast_1d(correlation_R(dp, sigma, f, split))
            if _sign_runs(r) != [-1.0, 1.0, -1.0]:
                ok = False
                details.append(f"f={f}: sign runs {_sign_runs(r)}")
            locs.append(float(dp[np.argmax(r)]))
        shift = abs(locs[1] - locs[0]) / locs[0]
        if shift >= 0.02:
            ok = False
        details.append(f"f={f}: max at {locs[1] / sigma:.2f} sigma, grid shift {shift:.1e}")
    _verdict("d", "mixture curve shape", ok, "; ".join(details))


def test_e_frame_independence_and_time_invariance():
    # identical seeds make the two oracle runs share every sample, so
    # the only difference is the total-momentum shift in the integrand
    spec = QuadratureSpec(method="monte-carlo", sample_count=1 << 18, target_rel_tol=1.0)
    ratios = []
    for p_total in ((0.0, 0.0, 0.0), (2.0, -1.0, 3.0)):
        params = ModelParams(
            sigma=0.5, p_split=(0.0, 0.0, 0.7), p_total=p_total, triplet_fraction=0.4
        )
        cor = intensity_cor_oracle(1.1, params, spec)
        unc = intensity_uncor_oracle(1.1, params, spec)
        ratios.append(cor.value / unc.value - 1.0)
    diff_p = abs(ratios[0] - ratios[1]) / (1.0 + abs(ratios[0]))
    # free evolution only rotates the phases; the density cannot move
    params = ModelParams(sigma=0.5, p_split=(0.3, -0.1, 0.7), p_total=(0.2, 0.0, -0.4))
    p1 = np.array([0.4, 0.1, -0.2])
    p2 = np.array([-0.1, 0.3, 0.5])
    worst_t = 0.0
    for channel, f in PURE_F.items():
        want = float(mixture_density(p1, p2, dataclasses.replace(params, triplet_fraction=f)))
        for t in (0.0, 1.0, 100.0):
            got = float(np.abs(pair_amplitude(p1, p2, params, channel, t)) ** 2)
            worst_t = max(worst_t, abs(got - want) / want)
    ok = diff_p <= 1e-12 and worst_t <= 5e-13
    _verdict(
        "e",
        "frame independence and time invariance",
        ok,
        f"R(P=0) vs R(P=(2,-1,3)) diff {diff_p:.1e} <= 1e-12, "
        f"density drift over t {worst_t:.1e} <= 5e-13",
    )


def test_f_fit_recovery():
    # 20 noisy synthetic datasets per truth width, default fit config
    t0 = time.perf_counter()
    ok = True
    details = []
    for idx, sigma in enumerate((0.22, 0.39, 0.55)):
        truth = ModelParams(sigma=sigma, p_split=0.1 * sigma, triplet_fraction=0.5)
        grid = np.linspace(0.1 * sigma, 5.0 * sigma, 30)
        got_sigma = []
        got_f = []
        for rep in range(20):
            data = synthesize(truth, grid, noise_rel=0.10, rng_seed=1000 * idx + rep)
            try:
                result = fit(data, FitConfig())
            except NonConvergenceError as exc:
                result = exc.result
            got_sigma.append(result.sigma)
            got_f.append(result.f)
        med_sigma = float(np.median(got_sigma))
        med_f = float(np.median(got_f))
        rel = abs(med_sigma - sigma) / sigma
        err_f = abs(med_f - 0.5)
        if rel >= 0.15 or err_f >= 0.15:
            ok = False
        details.append(f"sigma={sigma}: med {med_sigma:.3f} ({rel:.1%}), f {med_f:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(
        "f",
        "parameter recovery from noisy synthetics",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s < 300s",
    )


def _naive_intensities(dp, sigma, f, split):
    """Textbook transcription of the intensity formulas in raw float64.

    Mirrors the package's construction of (delta, y, z) bit for bit and
    then evaluates sinh and the Gaussian factors directly, grouping each
    product large-first so no intermediate leaves the double range.
    Representable for z up to about 700; the stable code must agree
    wherever this one is finite.
    """
    delta = (split / (2.0 * sigma)) ** 2
    y = dp / sigma
    z = math.sqrt(delta) * y
    e0 = math.exp(-0.25 * y * y)
    j2 = math.exp(-delta)
    s = math.sinh(z) / z
    sh = math.sinh(0.5 * z) / z
    j2s = j2 * s
    j52sh = j2**1.25 * sh
    cor = (1.0 - f) * (e0 * j2s + e0 * j2) / (1.0 + j2)
    if f:
        cor += f * (e0 * j2s - e0 * j2) / (1.0 - j2)
    na = 1.0 + 2.0 * j2 * j2 + j2s + 8.0 * j52sh
    nb = 1.0 + 2.0 * j2 * j2 + j2s - 8.0 * j52sh
    nc = 1.0 - 2.0 * j2 * j2 + j2s
    unc = (1.0 - f) ** 2 * (e0 * na) / (1.0 + j2) ** 2
    if f:
        unc += f * f * (e0 * nb) / (1.0 - j2) ** 2
        unc += 2.0 * f * (1.0 - f) * (e0 * nc) / ((1.0 + j2) * (1.0 - j2))
    pref = dp * dp / (2.0 * math.sqrt(math.pi) * sigma**3)
    return pref * cor, 0.5 * pref * unc, 2.0 * cor / unc - 1.0


def test_g_large_argument_identity():
    # the log-space reorganization must reproduce the raw sinh forms to
    # rounding wherever the raw forms stay inside double range
    worst = 0.0
    for delta, z in ((196.0, 700.0), (100.0, 400.0), (25.0, 100.0), (4.0, 50.0), (625.0, 690.0)):
        sigma = 1.0
        split = 2.0 * math.sqrt(delta)
        dp = 2.0 * z / split
        for f in (0.0, 0.3, 1.0):
            nc, nu, nr = _naive_intensities(dp, sigma, f, split)
            pc = float(coincidence_intensity(dp, sigma, f, split))
            pu = float(accidental_intensity(dp, sigma, f, split))
            pr = float(correlation_R(dp, sigma, f, split))
            worst = max(
                worst,
                abs(pc - nc) / nc if nc else abs(pc),
                abs(pu - nu) / nu,
                abs(pr - nr) / (1.0 + abs(nr)),
            )
    # the two ingredient identities on their own, across the z range
    worst_forms = 0.0
    for z in np.geomspace(1e-3, 700.0, 40):
        d = 0.25 * z
        grouped = math.exp(-z) * (math.exp(-d) * (math.sinh(z) / z))
        combined = math.exp(z - z - d) * -math.expm1(-2.0 * z) / (2.0 * z)
        worst_forms = max(worst_forms, abs(grouped - combined) / combined)
        quotient = (z / math.sinh(z)) / math.exp(-z)
        shifted = -2.0 * z * math.exp(z - z) / math.expm1(-2.0 * z)
        worst_forms = max(worst_forms, abs(quotient - shifted) / shifted)
    ok = worst <= 1e-12 and worst_forms <= 1e-12
    _verdict(
        "g",
        "large-argument evaluation identity",
        ok,
        f"intensity/R diff {worst:.1e} <= 1e-12 up to z=700, "
        f"ingredient forms {worst_forms:.1e} <= 1e-12",
    )


def test_h_measured_data_fit():
    # advisory: digitization quality dominates, so this only runs when a
    # dataset is supplied via the environment
    path = os.environ.get("PAIRCORR_MEASURED_DATA")
    if not path:
        print(
            "ACCEPTANCE (h) measured-data fit: SKIP (set PAIRCORR_MEASURED_DATA "
            "to a dataset CSV to enable)"
        )
        pytest.skip("no measured dataset supplied")
    data = load_dataset(path)
    try:
        result = fit(data, FitConfig())
    except NonConvergenceError as exc:
        result = exc.result
    ok = 0.15 <= result.sigma <= 0.30 and result.approx_error_pct <= 25.0
    _verdict(
        "h",
        "measured-data fit",
        ok,
        f"sigma {result.sigma:.3f} in [0.15, 0.30], "
        f"approx error {result.approx_error_pct:.1f}% <= 25%",
    )
