"""Closed-form intensities and correlation function.

The shipped formulas are rearranged for numerical stability, so every
test here compares them against a straightforward 50-digit mpmath
transcription of the raw expressions, across the full parameter domain
including each internal switch point.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paircorr.correlation
import paircorr.model
from paircorr._stable import inv_sinhc, x_over_expm1
from paircorr.correlation import (
    _BLOCK,
    CorrelationCurve,
    _per_point,
    accidental_intensity,
    coincidence_intensity,
    correlation_R,
    correlation_curve,
)

mpmath.mp.dps = 50


def _mp_reference(dp, sigma, f, split):
    """(I_cor, I_unc, R) from the raw formulas, 50-digit arithmetic.

    Requires split > 0 whenever f > 0; the split = 0 limit is exercised
    separately via a vanishingly small splitting.
    """
    dp, sigma, f, split = (mpmath.mpf(repr(float(v))) for v in (dp, sigma, f, split))
    j2 = mpmath.e ** (-(split**2) / (4 * sigma**2))
    j4 = j2 * j2
    j52 = j2 ** mpmath.mpf("1.25")  # J^{5/2} = (J^2)^{5/4}
    z = split * dp / (2 * sigma**2)
    s_fac = mpmath.sinh(z) / z if z != 0 else mpmath.mpf(1)
    half = mpmath.sinh(z / 2) / z if z != 0 else mpmath.mpf("0.5")
    env = mpmath.e ** (-(dp**2) / (4 * sigma**2))
    pref_c = dp * dp * env / (2 * mpmath.sqrt(mpmath.pi) * sigma**3)
    pref_u = dp * dp * env / (4 * mpmath.sqrt(mpmath.pi) * sigma**3)

    bracket_c = mpmath.mpf(0)
    bracket_u = mpmath.mpf(0)
    if f < 1:
        bracket_c += (1 - f) * (s_fac + 1) / (1 + j2)
        bracket_u += (1 - f) ** 2 * (1 + 2 * j4 + j2 * s_fac + 8 * j52 * half) / (1 + j2) ** 2
    if f > 0:
        bracket_c += f * (s_fac - 1) / (1 - j2)
        bracket_u += f * f * (1 + 2 * j4 + j2 * s_fac - 8 * j52 * half) / (1 - j2) ** 2
    if 0 < f < 1:
        bracket_u += 2 * f * (1 - f) * (1 - 2 * j4 + j2 * s_fac) / ((1 + j2) * (1 - j2))

    icor = pref_c * j2 * bracket_c
    iunc = pref_u * bracket_u
    # the ratio with dp^2 and the envelope cancelled, so that it is
    # defined at dp = 0 as well
    return icor, iunc, 2 * j2 * bracket_c / bracket_u - 1


def _scan_points():
    """(sigma, p_tilde, f, dp) covering all regimes and switch seams."""
    pts = []
    for sigma in (0.22, 1.0):
        for ratio in (0.01, 0.5, 1.0, 3.0):
            for ydp in (1e-6, 0.05, 0.3, 1.0, 3.0, 8.0, 20.0):
                for f in (0.0, 0.3, 1.0):
                    pts.append((sigma, ratio * sigma, f, ydp * sigma))
    # seams, at sigma = 1: z = p_tilde * dp / 2, delta = p_tilde^2 / 4
    seams = []
    for dlt, zz in [
        (9e-5, 0.049), (9e-5, 0.051), (1.1e-4, 0.049), (1.1e-4, 0.051),
        (0.01, 0.499), (0.01, 0.501),   # sinh(z)/z - 1 series switch
        (1.0, 1.74), (1.0, 1.76),       # z-only bracket switch
        (4.0, 2.98), (4.0, 3.02),       # grouped/plain switch, T = 2.5
        (25.0, 100.0),                  # large z, moderate delta
        (196.0, 700.0),                 # extreme corner
    ]:
        p_tilde = 2.0 * math.sqrt(dlt)
        dp = 2.0 * zz / p_tilde
        for f in (0.0, 0.3, 1.0):
            seams.append((1.0, p_tilde, f, dp))
    # saturated rows, d > 700: J^2 sinh(z)/z underflows while
    # z/sinh(z) / J^2 overflows, from contact out to y = dp/sigma = 60
    for dlt in (701.0, 900.0):
        for ydp in (0.0, 1e-6, 0.5, 3.0, 20.0, 60.0):
            for f in (0.0, 0.3, 1.0):
                seams.append((1.0, 2.0 * math.sqrt(dlt), f, ydp))
    return pts + seams


def test_closed_forms_match_reference():
    worst = 0.0
    for sigma, p_tilde, f, dp in _scan_points():
        icor_ref, iunc_ref, r_ref = _mp_reference(dp, sigma, f, p_tilde)
        icor = float(coincidence_intensity(dp, sigma, f, p_tilde))
        iunc = float(accidental_intensity(dp, sigma, f, p_tilde))
        r = float(correlation_R(dp, sigma, f, p_tilde))
        for got, want in ((icor, icor_ref), (iunc, iunc_ref)):
            want = float(want)
            err = abs(got - want) / abs(want) if want != 0.0 else abs(got)
            worst = max(worst, err)
        # R crosses zero, so its natural error scale is that of the
        # intensity ratio R + 1, not of R itself
        want = float(r_ref)
        worst = max(worst, abs(r - want) / (1.0 + abs(want)))
    assert worst < 5e-12, f"worst relative error {worst:.3e}"


# the curve-sweep benchmark regimes with d <= 700: (sigma, p_tilde, f, top
# of the grid in units of sigma)
_SWEEP_REGIMES = [
    (0.3, 1e-160, 1.0, 12.0),
    (0.5, 0.005, 0.5, 10.0),
    (0.22, 0.022, 0.5, 10.0),
    (0.5, 0.05, 0.0, 10.0),
    (0.2, 0.6, 1.0, 20.0),
    (1.0, 4.0, 0.3, 30.0),
]


@pytest.mark.parametrize("sigma, p_tilde, f, top", _SWEEP_REGIMES)
def test_intensity_ratio_is_R(sigma, p_tilde, f, top):
    # the intensities are the brackets of R times one envelope, so their
    # ratio reproduces R to rounding wherever both are normal floats
    dp = np.linspace(0.0, top * sigma, 20001)[1:]
    r = correlation_R(dp, sigma, f, p_tilde)
    icor = coincidence_intensity(dp, sigma, f, p_tilde)
    iunc = accidental_intensity(dp, sigma, f, p_tilde)
    normal = (icor >= np.finfo(float).tiny) & (iunc >= np.finfo(float).tiny)
    assert normal.sum() > dp.size // 2
    dev = np.abs(icor[normal] / iunc[normal] - 1.0 - r[normal]) / (1.0 + np.abs(r[normal]))
    assert dev.max() <= 1e-14, f"worst deviation {dev.max():.3e}"


def test_zero_split_limit_matches_reference():
    # the delta = 0 code path must agree with the analytic limit. A
    # splitting of 1e-8 leaves limit corrections O(delta) ~ 2.5e-17
    # while the O(delta^2) bracket cancellation (~1e-34) still fits
    # comfortably inside 60-digit arithmetic.
    with mpmath.workdps(60):
        for f in (0.3, 0.5, 1.0):
            for ydp in (0.05, 1.0, 3.0, 6.0):
                _, _, r_ref = _mp_reference(ydp, 1.0, f, mpmath.mpf("1e-8"))
                r = float(correlation_R(ydp, 1.0, f, 0.0))
                assert abs(r - float(r_ref)) < 1e-11 * (1.0 + abs(float(r_ref)))


# Reference values, frozen from a 50-digit evaluation of the raw
# formulas at dp = 1, sigma = 0.5, f = 0.5, split = 0.5.
FROZEN_ICOR = 0.65138859612360380
FROZEN_IUNC = 0.73926938836860190
FROZEN_R = -0.11887519438473013


def test_frozen_values():
    assert float(coincidence_intensity(1.0, 0.5, 0.5, 0.5)) == pytest.approx(FROZEN_ICOR, rel=1e-13)
    assert float(accidental_intensity(1.0, 0.5, 0.5, 0.5)) == pytest.approx(FROZEN_IUNC, rel=1e-13)
    assert float(correlation_R(1.0, 0.5, 0.5, 0.5)) == pytest.approx(FROZEN_R, rel=1e-13)


def test_pure_triplet_contact_limit():
    # antisymmetry forbids dp = 0 pairs: R(0) = -1 exactly at f = 1, any split
    for split in (0.1, 0.5, 2.0):
        assert float(correlation_R(0.0, 0.5, 1.0, split)) == -1.0
    # and exactly -1 in the zero-split limit curve as well
    assert float(correlation_R(0.0, 0.5, 1.0, 0.0)) == -1.0


def test_pure_singlet_zero_split_is_flat():
    # indistinguishable packets: event mixing reproduces the coincidence
    # spectrum and R vanishes identically
    dp = np.linspace(0.0, 10.0, 200)
    np.testing.assert_array_equal(correlation_R(dp, 0.5, 0.0, 0.0), np.zeros_like(dp))


def test_endpoint_fractions_match_pure_curves():
    # the pure curves are f = 0 and f = 1; a batched f column reproduces
    # them bitwise, and the mixture approaches them continuously
    dp = np.linspace(0.0, 8.0, 50)
    pure = [correlation_R(dp, 0.7, f, 0.9) for f in (0.0, 1.0)]
    batched = correlation_R(dp, 0.7, np.array([[0.0], [0.5], [1.0]]), 0.9)
    np.testing.assert_array_equal(batched[0], pure[0])
    np.testing.assert_array_equal(batched[2], pure[1])
    np.testing.assert_allclose(correlation_R(dp, 0.7, 1e-9, 0.9), pure[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(correlation_R(dp, 0.7, 1.0 - 1e-9, 0.9), pure[1], rtol=0, atol=1e-8)


def test_singlet_contact_value_at_half_overlap():
    # frozen from the 50-digit limit dp -> 0 of R0 at J = 1/2
    split = 2.0 * math.sqrt(math.log(4.0))  # J^2 = 1/4 at sigma = 1
    assert float(correlation_R(0.0, 1.0, 0.0, split)) == pytest.approx(
        -0.39964654488678429, rel=1e-13
    )


# Zero-splitting limit curves R(y), y = dp/sigma. Contact values are
# exact rationals; peak locations and heights are frozen 50-digit values.
LIMIT_CURVE = {
    0.5: (-19.0 / 51.0, 4.82260071711, 0.335866659400),
    0.75: (-123.0 / 187.0, 4.20820555567, 0.395059204330),
    1.0: (-1.0, 3.85128510684, 0.467965571173),
}


@pytest.mark.parametrize("f", sorted(LIMIT_CURVE))
def test_zero_split_limit_curve(f):
    contact, y_peak, r_peak = LIMIT_CURVE[f]
    assert float(correlation_R(0.0, 1.0, f, 0.0)) == pytest.approx(contact, rel=1e-14)
    assert float(correlation_R(y_peak, 1.0, f, 0.0)) == pytest.approx(r_peak, rel=1e-11)
    # y_peak is a genuine local maximum
    r0 = float(correlation_R(y_peak, 1.0, f, 0.0))
    assert r0 > float(correlation_R(y_peak - 0.01, 1.0, f, 0.0))
    assert r0 > float(correlation_R(y_peak + 0.01, 1.0, f, 0.0))


def test_large_dp_asymptote():
    # for z >> 1 the ratio approaches 2 / [(1-f)/(1+J^2) + f/(1-J^2)] - 1;
    # the slowest correction decays like e^{-z/2}, so z = 120 is ample
    sigma, split = 1.0, 1.0
    j2 = math.exp(-split**2 / (4.0 * sigma**2))
    for f in (0.0, 0.4, 1.0):
        want = 2.0 / ((1.0 - f) / (1.0 + j2) + f / (1.0 - j2)) - 1.0
        got = float(correlation_R(240.0, sigma, f, split))
        assert got == pytest.approx(want, rel=1e-10)


def test_intensities_integrate_to_pair_count():
    # integral of either intensity over dp equals n_pairs
    dp = np.linspace(0.0, 14.0, 40001)
    for sigma, f, split, n in [(0.5, 0.5, 0.5, 1.0), (0.22, 0.75, 0.022, 3.0)]:
        ic = coincidence_intensity(dp, sigma, f, split, n_pairs=n)
        iu = accidental_intensity(dp, sigma, f, split, n_pairs=n)
        assert np.trapezoid(ic, dp) == pytest.approx(n, rel=1e-8)
        assert np.trapezoid(iu, dp) == pytest.approx(n, rel=1e-8)


def test_intensity_scales_with_n_pairs():
    dp = np.linspace(0.1, 6.0, 20)
    one = coincidence_intensity(dp, 0.5, 0.3, 0.4, n_pairs=1.0)
    ten = coincidence_intensity(dp, 0.5, 0.3, 0.4, n_pairs=10.0)
    np.testing.assert_allclose(ten, 10.0 * one, rtol=1e-15)


def test_n_pairs_validation():
    for fn in (coincidence_intensity, accidental_intensity):
        for bad in (np.nan, np.inf, -3.0):
            with pytest.raises(ValueError, match="n_pairs"):
                fn(0.3, 0.22, 0.5, 0.022, n_pairs=bad)
        assert float(fn(0.3, 0.22, 0.5, 0.022, n_pairs=0.0)) == 0.0


def test_intensities_vanish_at_contact():
    assert float(coincidence_intensity(0.0, 0.5, 0.5, 0.5)) == 0.0
    assert float(accidental_intensity(0.0, 0.5, 0.5, 0.5)) == 0.0


def test_vector_split_uses_magnitude():
    v = np.array([0.3, 0.0, 0.4])
    a = correlation_R(1.0, 0.5, 0.5, v)
    b = correlation_R(1.0, 0.5, 0.5, 0.5)
    assert float(a) == pytest.approx(float(b), rel=1e-15)


def test_parameter_batch_matches_scalar_calls():
    # one (m, 1) column per parameter evaluates m curves in one call;
    # rows span every regime (d = p_tilde^2 / 4 sigma^2): tiny-d (d = 0
    # exactly and subnormal d), series, grouped, plain and saturated
    # (d = 900), each at f = 0, an interior f and f = 1
    regimes = [
        (0.3, 0.0), (0.3, 1e-160), (0.5, 0.005), (0.22, 0.022), (0.2, 0.6), (1.0, 4.0), (0.1, 6.0)
    ]
    rows = [(sigma, f, split) for sigma, split in regimes for f in (0.0, 0.3, 1.0)]
    sigma, f, split = (np.array(col)[:, None] for col in zip(*rows))
    dp = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 40)])
    batch = correlation_R(dp, sigma, f, split)
    assert batch.shape == (len(rows), dp.size)
    for row, (s, fr, sp) in zip(batch, rows):
        want = correlation_R(dp, s, fr, sp)
        assert np.all(np.abs(row - want) <= 1e-14 * (1.0 + np.abs(want)))
        # the per-point constants come from the same scalar code, so
        # the rows agree bit for bit
        np.testing.assert_array_equal(row, want)
    # a batch whose rows all share one regime takes no per-row split
    for k in range(0, len(rows), 3):
        np.testing.assert_array_equal(
            correlation_R(dp, sigma[k : k + 3], f[k : k + 3], split[k : k + 3]), batch[k : k + 3]
        )
    # a per-row grid, and a split column against scalar sigma and f
    grids = dp[None, :] * sigma
    np.testing.assert_array_equal(
        correlation_R(grids, sigma, f, split),
        [correlation_R(g, s, fr, sp) for g, (s, fr, sp) in zip(grids, rows)],
    )
    np.testing.assert_array_equal(
        correlation_R(dp, 0.5, 0.3, split),
        [correlation_R(dp, 0.5, 0.3, sp) for sp in split[:, 0]],
    )
    assert correlation_R(dp, np.empty((0, 1)), 0.3, 0.1).shape == (0, dp.size)


# (sigma, p_tilde) of each kernel regime: tiny-d (d = 0 and subnormal
# d), series, grouped, plain beyond a grouped core, saturated (d = 900)
_REGIMES = [(0.3, 0.0), (0.3, 1e-160), (0.5, 0.005), (0.22, 0.022), (0.2, 0.6), (0.1, 6.0)]
_CLOSED_FORMS = (correlation_R, coincidence_intensity, accidental_intensity)


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [_BLOCK - 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7])
def test_blocked_grids_match_per_slice_calls(n):
    # grids longer than two blocks run through the kernel block by block;
    # each point must come out as it does from a call on its block alone
    cuts = range(0, n, _BLOCK)
    for sigma, split in _REGIMES:
        dp = sigma * np.linspace(0.0, 12.0, n)
        for f in (0.0, 0.3, 1.0):
            for fn in _CLOSED_FORMS:
                want = np.concatenate([fn(dp[lo : lo + _BLOCK], sigma, f, split) for lo in cuts])
                _assert_same_bytes(fn(dp, sigma, f, split), want)
    # per-point parameters along the blocked axis are cut with the grid
    sigmas = np.linspace(0.1, 2.0, n)
    want = np.concatenate([correlation_R(0.4, sigmas[lo : lo + _BLOCK], 0.3, 0.1) for lo in cuts])
    _assert_same_bytes(correlation_R(0.4, sigmas, 0.3, 0.1), want)


def test_blocked_batch_and_scalar_calls():
    n = 2 * _BLOCK + 1
    rows = [(0.22, 0.0, 0.022), (0.2, 0.3, 0.6), (0.1, 1.0, 6.0)]
    sigma, f, split = (np.array(col)[:, None] for col in zip(*rows))
    dp = np.linspace(0.0, 6.0, n)
    batch = correlation_R(dp, sigma, f, split)
    assert batch.shape == (3, n)
    grids = correlation_R(dp * sigma, sigma, f, split)
    for k, (s, fr, sp) in enumerate(rows):
        _assert_same_bytes(batch[k], correlation_R(dp, s, fr, sp))
        _assert_same_bytes(grids[k], correlation_R(dp * s, s, fr, sp))
    # a 0-d dp gives a float equal to the one-point grid's value
    for sigma, split in _REGIMES:
        for fn in _CLOSED_FORMS:
            scalar = fn(0.7 * sigma, sigma, 0.3, split)
            assert isinstance(scalar, float)
            _assert_same_bytes(scalar, fn(np.array([0.7 * sigma]), sigma, 0.3, split)[0])


# all seven curve-sweep benchmark points, the saturated one (d = 900) too
_SWEEP = _SWEEP_REGIMES + [(0.1, 6.0, 0.3, 60.0)]


def test_intensities_match_the_two_half_kernel(monkeypatch):
    # each intensity builds only the half of the kernel it returns; it
    # must come out byte-equal to that half of the kernel that builds both
    kernel = paircorr.correlation._mixture

    def both_halves(dp, sigma, f, split, scale, finish, halves=("num", "den")):
        def pick(dp, num, den):
            return finish(dp, *(dict(num=num, den=den)[h] for h in halves))

        return kernel(dp, sigma, f, split, scale, pick)

    n = 2 * _BLOCK + 3  # long enough for the blocked path
    calls = [
        (fn, (sigma * np.linspace(0.0, top, n), sigma, f, split), n_pairs)
        for sigma, split, f, top in _SWEEP
        for fn in (coincidence_intensity, accidental_intensity)
        for n_pairs in (0.0, 1.0, 30.0)
    ]
    alone = [fn(*args, n_pairs=n_pairs) for fn, args, n_pairs in calls]
    monkeypatch.setattr(paircorr.correlation, "_mixture", both_halves)
    for (fn, args, n_pairs), got in zip(calls, alone):
        _assert_same_bytes(got, fn(*args, n_pairs=n_pairs))


def test_coincidence_intensity_builds_no_event_mixed_bracket(monkeypatch):
    # sech(z/2) enters only the event-mixed brackets
    def refuse(x):
        raise RuntimeError("sech called")

    monkeypatch.setattr(paircorr.correlation, "sech", refuse)
    for sigma, split, f, top in _SWEEP:
        dp = sigma * np.linspace(0.0, top, 30)
        assert np.all(np.isfinite(coincidence_intensity(dp, sigma, f, split)))
        with pytest.raises(RuntimeError, match="sech"):
            accidental_intensity(dp, sigma, f, split)


# (sigma, p_tilde, top, others): on linspace(0, top) every point selects
# one form of the N_B bracket, the grouped one with the series of
# sinh(z)/z - 1 (z < 0.5) and of Z(z) (z < 1.75), or the series at the
# origin (d <= 1e-4, z <= 0.05); the ``others`` sit in other regimes
# (between the seams, and in the plain form)
_ONE_FORM = [
    (0.22, 0.022, 1.8, (5.0, 10.0, 30.0)),
    (0.5, 0.005, 4.0, (10.0, 100.0, 600.0)),
]


@pytest.mark.parametrize("sigma, split, top, others", _ONE_FORM)
def test_one_form_grids_match_mixed_grids(sigma, split, top, others):
    # where every point selects a form, the kernel runs it on the whole
    # grid; in a grid that mixes regimes it runs it on the points it
    # selects: each point must come out the same either way
    dp = np.linspace(0.0, top, 30)
    d = (split / sigma) ** 2 / 4.0
    z_top = np.sqrt(d) * top / (0.9 * sigma)  # the batch below goes down to 0.9 sigma
    assert (d <= 1e-4 and z_top <= 0.05) or (d > 1e-4 and z_top < 0.5)
    mixed = np.concatenate([others, dp])
    for f in (0.0, 0.3, 1.0):
        for fn in _CLOSED_FORMS:
            _assert_same_bytes(fn(dp, sigma, f, split), fn(mixed, sigma, f, split)[len(others) :])
            _assert_same_bytes(fn(dp[-1:], sigma, f, split), fn(mixed, sigma, f, split)[-1:])
    # an (m, 30) batch as the fitter makes it: p_tilde a fixed share of
    # sigma, f over [0, 1] ends included
    sigmas = sigma * np.linspace(0.9, 1.1, 12)[:, None]
    fs = np.linspace(0.0, 1.0, 12)[:, None]
    splits = split / sigma * sigmas
    _assert_same_bytes(
        correlation_R(dp, sigmas, fs, splits),
        correlation_R(mixed, sigmas, fs, splits)[:, len(others) :],
    )


def test_per_point_terms_match_scalar_terms():
    # a batched call takes each parameter point's constants from the
    # same libm arithmetic as a one-parameter call; (1 - f)^2 is where
    # a vector x * x would differ (about 1 f in 1,000)
    rng = np.random.default_rng(5)
    f = rng.random((20_000, 1))
    q = np.repeat(rng.uniform(0.0, 3.0, 40), 500)[:, None]
    batch = _per_point(q, f)
    alone = [_per_point(qi, fi) for qi, fi in zip(q[:, 0].tolist(), f[:, 0].tolist())]
    for k, column in enumerate(batch):
        assert column.shape == (20_000, 1)
        _assert_same_bytes(column[:, 0], np.array([terms[k] for terms in alone]))


_SHARED_Z = [0.0, 5e-324, 1e-300, 2.0**-55, 2.0**-54, 1e-8, np.nextafter(0.5, 0.0), 0.5,
             np.nextafter(0.5, 1.0), 1.75, 20.0, 354.5, 709.8, 710.0, 1e300, np.inf]


def test_shared_exponentials_match_the_primitives():
    # the kernel forms inv_sinhc(z) and the envelope's x / expm1(x) at
    # x = -2z from one e^{-z} and one expm1(-2z): both must equal the
    # standalone primitives bit for bit, on whole arrays (with and
    # without the expm1 shortcut) and on single points; sech(z/2) the
    # kernel takes from sech itself
    z = np.array(_SHARED_Z)
    for zs in (z, z[z < 2.0**-54], *(np.float64(v) for v in z)):
        got_z, x, em, inv_s = paircorr.correlation._z_terms(1.0, zs)
        _assert_same_bytes(got_z, zs)
        _assert_same_bytes(inv_s, inv_sinhc(zs))
        _assert_same_bytes(paircorr.correlation._ratio(x, em), x_over_expm1(-2.0 * zs))
    # at d = 0, 0 * inf leaves NaN in z, whose sign inv_sinhc sets itself
    with np.errstate(invalid="ignore"):
        for y in (np.array([0.0, 1.0, np.inf, 2.0] * 5), np.float64(np.inf)):
            got_z, x, em, inv_s = paircorr.correlation._z_terms(0.0, y)
            _assert_same_bytes(inv_s, inv_sinhc(got_z))
            _assert_same_bytes(paircorr.correlation._ratio(x, em), x_over_expm1(-2.0 * got_z))


def test_input_validation():
    with pytest.raises(ValueError):
        correlation_R(1.0, -0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        correlation_R(1.0, 0.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        correlation_R(-1.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        coincidence_intensity(np.array([1.0, np.nan]), 0.5, 0.5, 0.5)
    # array-valued parameters are checked elementwise
    with pytest.raises(ValueError):
        correlation_R(1.0, np.array([[0.5], [0.0]]), 0.5, 0.5)
    with pytest.raises(ValueError):
        correlation_R(1.0, 0.5, np.array([[0.5], [np.nan]]), 0.5)
    with pytest.raises(ValueError):
        correlation_R(1.0, 0.5, 0.5, np.array([[0.5], [-0.1]]))
    # the intensities take one parameter point
    with pytest.raises(ValueError):
        coincidence_intensity(1.0, np.array([[0.5], [0.6]]), 0.5, 0.5)


@given(
    dp=st.floats(min_value=0.0, max_value=60.0),
    sigma=st.floats(min_value=0.05, max_value=5.0),
    f=st.floats(min_value=0.0, max_value=1.0),
    split=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=80, deadline=None)
def test_correlation_bounded_below(dp, sigma, f, split):
    r = float(correlation_R(dp, sigma, f, split))
    assert math.isfinite(r)
    assert r >= -1.0
    assert float(coincidence_intensity(dp, sigma, f, split)) >= 0.0
    assert float(accidental_intensity(dp, sigma, f, split)) >= 0.0


def test_extreme_corners_stay_finite():
    # subnormal d = (split / (2 sigma))^2: 1 - J^2 squares to zero in
    # float, and an underflowed f^2 would turn an inf bracket into nan
    for dp in (0.0, 0.5, 10.0, 60.0):
        for f in (0.0, 1e-200, 0.3, 1.0):
            for split in (1e-160, 3.0):
                for sigma in (0.05, 1.0):
                    r = float(correlation_R(dp, sigma, f, split))
                    assert math.isfinite(r) and r >= -1.0
                    assert math.isfinite(
                        float(coincidence_intensity(dp, sigma, f, split))
                    )
                    assert math.isfinite(
                        float(accidental_intensity(dp, sigma, f, split))
                    )
    # near degeneracy the subnormal-split curve agrees with the exact
    # zero-split limit
    dp = np.linspace(0.0, 6.0, 31)
    np.testing.assert_allclose(
        correlation_R(dp, 0.5, 0.3, 1e-160),
        correlation_R(dp, 0.5, 0.3, 0.0),
        rtol=1e-9,
        atol=1e-12,
    )


def test_curve_bundles_parameters():
    dp = np.linspace(0.0, 5.0, 11)
    curve = correlation_curve(dp, 0.5, 0.25, 0.3)
    assert isinstance(curve, CorrelationCurve)
    np.testing.assert_array_equal(curve.delta_p, dp)
    np.testing.assert_array_equal(curve.r, correlation_R(dp, 0.5, 0.25, 0.3))
    assert curve.sigma == 0.5
    assert curve.triplet_fraction == 0.25
    assert curve.momentum_split == 0.3
    with pytest.raises(ValueError):
        CorrelationCurve(np.zeros(3), np.zeros(4), 0.5, 0.25, 0.3)


def test_curve_validates_once(monkeypatch):
    # correlation_R checks sigma, f, the split and dp; the curve makes
    # no second pass over them and returns correlation_R's values
    names = []
    checked = paircorr.model._checked
    monkeypatch.setattr(
        paircorr.model, "_checked", lambda name, *rest: names.append(name) or checked(name, *rest)
    )
    dp = np.linspace(0.0, 5.0, 11)
    split = (0.1, -0.2, 0.3)
    curve = correlation_curve(dp, 0.5, 0.25, split)
    assert sorted(names) == ["delta_p", "momentum_split", "sigma", "triplet_fraction"]
    assert curve.r.tobytes() == correlation_R(dp, 0.5, 0.25, split).tobytes()
    assert curve.momentum_split == float(np.linalg.norm(split))
    with pytest.raises(ValueError, match="scalars"):
        correlation_curve(dp, np.array([0.5, 0.6]), 0.25, 0.3)
    with pytest.raises(ValueError, match="scalars"):
        correlation_curve(dp, 0.5, 0.25, np.array([0.3, 0.4]))
    with pytest.raises(ValueError):
        correlation_curve(dp, -0.5, 0.25, 0.3)
