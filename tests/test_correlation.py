"""Closed-form intensities and correlation function.

The shipped formulas are rearranged for numerical stability, so every
test here compares them against a straightforward 50-digit mpmath
transcription of the raw expressions, across the full parameter domain
including each internal switch point.
"""

import math
import sys
import warnings

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
    _FACTORED,
    _PLAIN,
    _SATURATED,
    _TINY,
    CorrelationCurve,
    _mix,
    _per_point,
    _regimes,
    _split_terms,
    accidental_intensity,
    coincidence_intensity,
    correlation_R,
    correlation_curve,
)

mpmath.mp.dps = 50


def _mp_reference(dp, sigma, f, split):
    """(I_cor, I_unc, R) from the raw formulas, 50-digit arithmetic at d >= 1.

    Requires split > 0 whenever f > 0; the split = 0 limit is exercised
    separately via a vanishingly small splitting. The triplet brackets
    cancel to O(d^2) at d = (split / sigma)^2 / 4 < 1, so below it the
    working precision grows by twice the digits d takes off; d is formed
    in mpmath, where it cannot underflow.
    """
    dp, sigma, f, split = (mpmath.mpf(repr(float(v))) for v in (dp, sigma, f, split))
    d = (split / sigma) ** 2 / 4
    extra = 2 * int(mpmath.ceil(-mpmath.log10(d))) if 0 < d < 1 else 0
    with mpmath.extradps(extra):
        j2 = mpmath.e ** -d
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
        (4.0, 2.98), (4.0, 3.02),       # factored/plain switch, T = 2.5
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
    # tiny splittings: the factored form at small d (1e-20, 1e-80), the
    # tiny-d form at subnormal d (1e-160) and d = 0 after underflow (1e-300)
    for ratio in (1e-20, 1e-80, 1e-160, 1e-300):
        for sigma in (0.22, 1.0):
            for ydp in (1e-6, 0.3, 1.0, 3.0, 8.0, 20.0):
                for f in (0.0, 0.3, 1.0):
                    seams.append((sigma, ratio * sigma, f, ydp * sigma))
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
    assert worst < 5e-14, f"worst relative error {worst:.3e}"


def _seam_points():
    """(sigma, p_tilde, f, dp grid) rows: d log-spaced over [1e-6, 1e-2], z over [1e-3, 1].

    The grid covers where z^2 is comparable to d for every d near 1e-4,
    with f in {0.5, 1}; a last row holds (p_tilde = 0.020976, dp = 1.0541).
    """
    z = np.geomspace(1e-3, 1.0, 25)
    rows = []
    for dlt in np.geomspace(1e-6, 1e-2, 25):
        p_tilde = 2.0 * math.sqrt(dlt)
        for f in (0.5, 1.0):
            rows.append((1.0, p_tilde, f, 2.0 * z / p_tilde))
    rows.append((1.0, 0.020976, 1.0, np.array([1.0541])))
    return rows


def test_seam_scan_matches_reference():
    # the triplet event-mixed bracket takes one form for every d below
    # the plain switch, so no d or z in this region may sit on a seam.
    # The intensities also carry e^{-y^2/4}, whose exponent rounds at
    # 2^-53 of y^2/4 before exp: the allowance grows with y^2 (at
    # y = 51, e^{-650}, it is 2.9e-13) and leaves 5e-14 at small y
    worst = 0.0
    for sigma, p_tilde, f, dp in _seam_points():
        got = (
            coincidence_intensity(dp, sigma, f, p_tilde),
            accidental_intensity(dp, sigma, f, p_tilde),
            correlation_R(dp, sigma, f, p_tilde),
        )
        for k, x in enumerate(dp):
            icor_ref, iunc_ref, r_ref = _mp_reference(x, sigma, f, p_tilde)
            allowance = 2.0**-53 * (x / sigma) ** 2
            for got_k, want in ((got[0][k], icor_ref), (got[1][k], iunc_ref)):
                want = float(want)
                err = abs(got_k - want) / abs(want) if want != 0.0 else abs(got_k)
                worst = max(worst, err - allowance)
            want = float(r_ref)
            worst = max(worst, abs(got[2][k] - want) / (1.0 + abs(want)))
    assert worst < 5e-14, f"worst relative error {worst:.3e}"


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
    # the intensities are per emitted pair: each integrates over dp to 1
    dp = np.linspace(0.0, 14.0, 40001)
    for sigma, f, split in [(0.5, 0.5, 0.5), (0.22, 0.75, 0.022)]:
        ic = coincidence_intensity(dp, sigma, f, split)
        iu = accidental_intensity(dp, sigma, f, split)
        assert np.trapezoid(ic, dp) == pytest.approx(1.0, rel=1e-8)
        assert np.trapezoid(iu, dp) == pytest.approx(1.0, rel=1e-8)


def test_intensities_vanish_at_contact():
    assert float(coincidence_intensity(0.0, 0.5, 0.5, 0.5)) == 0.0
    assert float(accidental_intensity(0.0, 0.5, 0.5, 0.5)) == 0.0


def test_three_splits_are_three_magnitudes():
    # a shape-(3,) split array holds three magnitudes, as any other
    # array does, never one vector: each value is its own scalar call
    splits = [0.01, 0.02, 0.03]
    for fn in _CLOSED_FORMS:
        for sigma in (0.2, [0.2] * 3):
            got = fn(0.1, sigma, 0.5, splits)
            assert got.shape == (3,)
            _assert_same_bytes(got, [fn(0.1, 0.2, 0.5, s) for s in splits])
    assert len(set(correlation_R(0.1, 0.2, 0.5, splits).tolist())) == 3


def test_parameter_batch_matches_scalar_calls():
    # one (m, 1) column per parameter evaluates m curves in one call;
    # rows span every regime (d = p_tilde^2 / 4 sigma^2): factored at
    # tiny d (d = 0 exactly and subnormal d) and at d = 2.5e-5 and
    # 0.0025, plain beyond a factored core, and saturated (d = 900),
    # each at f = 0, an interior f and f = 1
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


# (sigma, p_tilde) of each kernel regime: factored at tiny d (d = 0
# and subnormal d) and at d = 2.5e-5 and 0.0025, plain beyond a
# factored core, saturated (d = 900)
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
        def pick(dp, sigma, num, den):
            return finish(dp, sigma, *(dict(num=num, den=den)[h] for h in halves))

        return kernel(dp, sigma, f, split, scale, pick)

    n = 2 * _BLOCK + 3  # long enough for the blocked path
    calls = [
        (fn, (sigma * np.linspace(0.0, top, n), sigma, f, split))
        for sigma, split, f, top in _SWEEP
        for fn in (coincidence_intensity, accidental_intensity)
    ]
    alone = [fn(*args) for fn, args in calls]
    monkeypatch.setattr(paircorr.correlation, "_mixture", both_halves)
    for (fn, args), got in zip(calls, alone):
        _assert_same_bytes(got, fn(*args))


@pytest.mark.parametrize("n", [30, 20_000])
def test_intensities_take_parameter_arrays(n):
    # the intensities broadcast parameter arrays as R does: with (m, 1)
    # columns over the curve-sweep regimes, on one shared grid and on
    # per-row grids, each row equals its one-parameter call bit for bit
    sigma, split, f, top = (np.array(col)[:, None] for col in zip(*_SWEEP))
    x = np.linspace(0.0, 1.0, n)
    for fn in (coincidence_intensity, accidental_intensity):
        for dp in (x * 12.0, x * top * sigma):
            batch = fn(dp, sigma, f, split)
            assert batch.shape == (len(_SWEEP), n)
            for k, (s, sp, fr, _) in enumerate(_SWEEP):
                _assert_same_bytes(batch[k], fn(np.broadcast_to(dp, batch.shape)[k], s, fr, sp))
    # sigma along the grid, cut with it per block: each point is its
    # one-point call, normalization sigma^3 included
    picks = np.unique(np.linspace(0, n - 1, 30).astype(int))
    for s, sp, fr, top in _SWEEP:
        sigmas = s * np.linspace(0.8, 1.25, n)
        dp = x * top * s
        for fn in (coincidence_intensity, accidental_intensity):
            got = fn(dp, sigmas, fr, sp)[picks]
            _assert_same_bytes(got, [fn(dp[i], sigmas[i], fr, sp) for i in picks.tolist()])


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
# one form of the N_B bracket, the factored one with the series of A
# (z < 0.5) and of Zq (z < 1.75); the ``others`` sit in other regimes
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
    assert z_top < 0.5
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
    # same libm arithmetic as a one-parameter call, and _mix each f
    # weight; (1 - f)^2 is where a vector x * x would differ (about 1 f
    # in 1,000)
    rng = np.random.default_rng(5)
    f = rng.random((20_000, 1))
    q = np.repeat(rng.uniform(0.0, 3.0, 40), 500)[:, None]
    # rows at q = 0, at subnormal q and at subnormal d = q^2/4, where
    # the split terms take their d -> 0 limits
    f = np.concatenate([f, rng.random((20, 1))])
    q = np.concatenate([q, np.repeat([0.0, 5e-324, 1e-310, 1e-160], 5)[:, None]])
    batch = _per_point(q)
    alone = [_per_point(qi) for qi in q[:, 0].tolist()]
    for k, column in enumerate(batch):
        assert column.shape == (20_020, 1)
        _assert_same_bytes(column[:, 0], np.array([terms[k] for terms in alone]))
    # a unit bracket picks one weight out of its half: 1 - f and f of
    # num, (1 - f)^2, f^2 and 2 f (1 - f) of den
    for half, size in (("num", 2), ("den", 3)):
        for k in range(size):
            unit = (tuple(float(j == k) for j in range(size)),)
            weight = _mix((half,), f, unit, False)[0]
            assert weight.shape == (20_020, 1)
            alone = [_mix((half,), fi, unit, False)[0] for fi in f[:, 0].tolist()]
            _assert_same_bytes(weight[:, 0], np.array(alone))


def _with_warnings(call, *args):
    """call(*args) and the set of (category, message) of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call(*args)
    return out, {(w.category, str(w.message)) for w in caught}


def _row_calls(dp, sigma, f, split):
    """correlation_R one (sigma, f, split) at a time, stacked as (m, k, N), with the warnings of all."""
    calls = [
        _with_warnings(correlation_R, dp, s, fr, sp)
        for s, sp in zip(sigma.ravel().tolist(), split.ravel().tolist())
        for fr in f.ravel().tolist()
    ]
    rows = np.array([r for r, _ in calls]).reshape(sigma.shape[0], f.shape[1], -1)
    return rows, set().union(*(w for _, w in calls))


def test_f_axis_matches_scalar_calls():
    # sigma and split as (m, 1, 1) columns and f as a (1, k, 1) axis:
    # the kernel runs once per row and f enters only the mix, yet every
    # point equals the one-parameter call, in bytes and in warnings. The
    # rows hold d = 0, subnormal d and d = 900, where eds and so bu0,
    # bu1 and buc are inf: at f = 0 and f = 1 the terms whose weight is 0
    # must stay out of den, not turn it into 0 * inf = nan
    dp = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 29), [1e300]])
    sigma, split = (np.array(col)[:, None, None] for col in zip(*_REGIMES))
    f = np.array([0.0, 1e-300, 0.3, 1.0])[None, :, None]
    got, got_warnings = _with_warnings(correlation_R, dp, sigma, f, split)
    want, want_warnings = _row_calls(dp, sigma, f, split)
    _assert_same_bytes(got, want)
    assert got_warnings == want_warnings
    # at d = 900 den is inf, and R has pinned to -1 at f = 0 and f = 1
    with np.errstate(over="ignore"):
        den = paircorr.correlation._mixture(
            dp[:5], 0.1, 0.5, 6.0, paircorr.correlation._ratio_scale, lambda dp, sigma, num, den: den
        )
    assert np.all(np.isinf(den))
    assert np.all(got[-1, [0, -1], :5] == -1.0)
    # rows sharing one split ratio (0.1 sigma / sigma is exactly 0.1 at
    # powers of two) take scalar split terms; rows at the three ratios
    # that 0.1 sigma / sigma rounds to over the profile grid take per-row ones
    shared = 2.0 ** np.arange(-5.0, 2.0)[:, None, None]
    spread = np.geomspace(0.05, 2.0, 61)[:, None, None]
    assert np.unique(0.1 * shared / shared).size == 1
    assert np.unique(0.1 * spread / spread).size == 3
    assert all(isinstance(t, float) for t in _per_point(0.1 * shared / shared))
    f = np.linspace(0.0, 1.0, 11)[None, :, None]
    dp = np.linspace(0.0, 6.0, 30)
    for sigma in (shared, spread):
        got, got_warnings = _with_warnings(correlation_R, dp * sigma, sigma, f, 0.1 * sigma)
        rows = [_with_warnings(correlation_R, dp * s, s, f, 0.1 * s) for s in sigma[:, 0, 0].tolist()]
        _assert_same_bytes(got, np.concatenate([r for r, _ in rows]))
        assert got_warnings == set().union(*(w for _, w in rows))
        want, _ = _row_calls(dp * sigma[:1], sigma[:1], f, 0.1 * sigma[:1])
        _assert_same_bytes(got[:1], want)
    # empty batches keep their shapes
    dp = np.linspace(0.0, 1.0, 5)
    for sigma_shape, f_shape, shape in [
        ((0, 1), (), (0, 5)),
        ((3, 0, 1), (1, 1, 1), (3, 0, 5)),
        ((3, 1, 1), (1, 0, 1), (3, 0, 5)),
        ((0, 1, 1), (1, 4, 1), (0, 4, 5)),
    ]:
        sigma = np.full(sigma_shape, 0.3)
        assert correlation_R(dp, sigma, np.full(f_shape, 0.5), 0.1 * sigma).shape == shape


def test_regime_labels_cover_the_seam_scan(monkeypatch):
    # _regimes labels each point from the kernel's own switches: a
    # one-point R call runs the factored N_B exactly where the label is
    # _FACTORED and the saturated eds exactly where it is _SATURATED. The
    # reference scan's points, with rows at d = 0 and subnormal d, carry
    # every label; _PLAIN | _TINY needs z past the plain switch at
    # subnormal d, or NaN z (0 * inf) at d = 0
    served = []
    for name in ("_nb_factored", "_eds_saturated"):
        real = getattr(paircorr.correlation, name)
        monkeypatch.setattr(
            paircorr.correlation, name, lambda *a, name=name, real=real: served.append(name) or real(*a)
        )
    points = [(sigma, split, dp) for sigma, split, _, dp in _scan_points()]
    points += [(0.3, split, dp) for split in (0.0, 1e-160) for dp in (0.0, 0.3, 1e300)]
    points += [(1e-10, 0.0, 1e300)]
    labels = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma, split, dp in points:
            label = int(_regimes(dp, sigma, split))
            labels.add(label)
            served.clear()
            correlation_R(np.array([dp]), sigma, 0.5, split)
            form = label & ~_TINY
            assert ("_nb_factored" in served) == (form == _FACTORED), (sigma, split, dp)
            assert ("_eds_saturated" in served) == (form == _SATURATED), (sigma, split, dp)
            assert bool(label & _TINY) == ((split / sigma) ** 2 / 4.0 < sys.float_info.min)
    assert labels == {_FACTORED, _PLAIN, _SATURATED, _FACTORED | _TINY, _PLAIN | _TINY}
    # a label per point of the broadcast, as small ints
    grid = _regimes(np.linspace(0.0, 30.0, 7), np.array([[0.1], [1.0]]), 4.0)
    assert grid.shape == (2, 7) and grid.dtype == np.int8


def _split_reference(d):
    """k1, k2, C and (d / (1 - J^2))^2 / J^2 of the factored N_B at d, in mpmath.

    c(d) cancels its O(d) terms, so the working precision grows with
    the digits d takes off.
    """
    if d == 0.0:
        return [mpmath.mpf(4), mpmath.mpf(-5), mpmath.mpf(11) / 8, mpmath.mpf(1)]
    d = mpmath.mpf(d)
    with mpmath.workdps(60 + int(-mpmath.log10(d)) if d < 1 else 60):
        em2, em1, em54 = (mpmath.expm1(-a * d) for a in (2, 1, mpmath.mpf(5) / 4))
        return [
            +(-2 * em2 / d),
            +(4 * em54 / d),
            +((2 * em2 + em1 - 4 * em54) / d**2),
            +((d / -em1) ** 2 * mpmath.e**d),
        ]


def test_split_terms_match_reference():
    # the factored N_B's per-split scalars at d = 0, at subnormal d
    # (where 1.25 d rounds), around 2^-20 and on both sides of d = 0.2,
    # where C leaves its series, and where J^2 and (d / (1 - J^2))^2 / J^2
    # leave the float range (the last is inf)
    ds = [0.0, 5e-324, 1e-310, 1e-160, np.nextafter(2.0**-20, 0.0), 2.0**-20, np.nextafter(2.0**-20, 1.0),
          np.nextafter(0.2, 0.0), 0.2, np.nextafter(0.2, 1.0), 1.0, 10.0, 700.0, 746.0, 1e4]
    seen = []
    for d in ds:
        terms = _split_terms(2.0 * math.sqrt(d))
        seen.append(terms[0])
        for k, (got, want) in enumerate(zip(terms[5:], _split_reference(terms[0]))):
            want = float(want)
            if math.isinf(want):
                assert got == want, (d, k)
                continue
            # C loses up to ~20x to cancellation just above d = 0.2
            tol = 2e-15 if k == 2 else 4e-16
            assert abs(got - want) <= tol * abs(want), (d, k, got, want)
    assert any(0.18 < d < 0.2 for d in seen) and any(0.2 <= d < 0.22 for d in seen)


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
    # the intensities broadcast parameter arrays, each value checked
    for fn in (coincidence_intensity, accidental_intensity):
        got = fn(1.0, np.array([[0.5], [0.6]]), 0.5, 0.5)
        assert got.shape == (2, 1)
        _assert_same_bytes(got[:, 0], [fn(1.0, s, 0.5, 0.5) for s in (0.5, 0.6)])
        with pytest.raises(ValueError):
            fn(1.0, 0.5, 0.5, np.array([[0.5], [-0.1]]))


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


def test_overflowing_y_keeps_its_limits():
    # at zero, subnormal and tiny normal d, y = dp/sigma can be so large
    # that y^4 overflows while z stays below the plain switch: the
    # event-mixed y^4 term then dominates and R takes its limit -1, and
    # the accidental intensity, whose envelope has underflowed, is 0
    cases = [(split, dp) for split in (0.0, 5e-324, 1e-310, 1e-300) for dp in (1e100, 1.3e154)]
    cases += [(split, 1e100) for split in (3e-154, 1e-150)]
    with np.errstate(over="ignore"):  # y^2 and y^4 overflow on the way
        for split, dp in cases:
            for f in (0.3, 1.0):
                assert float(correlation_R(dp, 1.0, f, split)) == -1.0, (split, dp, f)
    # y^4 overflows at d = 2.25e-308, z = 1.95, where the envelope is 0
    for f in (0.0, 0.3, 1.0):
        assert float(accidental_intensity(1.3e154, 1.0, f, 3e-154)) == 0.0


def test_huge_split_ratio_is_refused():
    # past split/sigma = sqrt(largest double), ~1.34e154, d = (split/sigma)^2/4
    # overflows: every entry point raises ValueError, for one parameter
    # point and for a row of a batched call, and so for inf (1e200/1e-200)
    limit = math.sqrt(sys.float_info.max)
    for sigma, split in ((1.0, math.nextafter(limit, math.inf)), (1e-3, 1e200), (1e-200, 1e200)):
        for entry in (correlation_R, coincidence_intensity, accidental_intensity):
            with pytest.raises(ValueError, match="square overflows"):
                entry(1.0, sigma, 0.5, split)
    with pytest.raises(ValueError, match="square overflows"):
        correlation_R(1.0, np.array([[1.0], [1e-3]]), 0.5, np.array([[0.1], [1e200]]))
    # at the limit itself the closed forms still answer, as they did
    # before the check
    assert float(correlation_R(1.0, 1.0, 0.5, limit)) == -1.0
    assert float(coincidence_intensity(1.0, 1.0, 0.5, limit)) == 0.0
    assert float(accidental_intensity(1.0, 1.0, 0.5, limit)) == 0.1098478223669306


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
    split = paircorr.model.ModelParams(0.5, (0.1, -0.2, 0.3)).split_magnitude
    names = []
    checked = paircorr.model._checked
    monkeypatch.setattr(
        paircorr.model, "_checked", lambda name, *rest: names.append(name) or checked(name, *rest)
    )
    dp = np.linspace(0.0, 5.0, 11)
    curve = correlation_curve(dp, 0.5, 0.25, split)
    assert sorted(names) == ["delta_p", "momentum_split", "sigma", "triplet_fraction"]
    assert curve.r.tobytes() == correlation_R(dp, 0.5, 0.25, split).tobytes()
    assert curve.momentum_split == split
    # a vector is three magnitudes, which the curve's scalar rule refuses
    with pytest.raises(ValueError, match="scalars"):
        correlation_curve(dp, 0.5, 0.25, (0.1, -0.2, 0.3))
    with pytest.raises(ValueError, match="scalars"):
        correlation_curve(dp, np.array([0.5, 0.6]), 0.25, 0.3)
    with pytest.raises(ValueError, match="scalars"):
        correlation_curve(dp, 0.5, 0.25, np.array([0.3, 0.4]))
    with pytest.raises(ValueError):
        correlation_curve(dp, -0.5, 0.25, 0.3)
