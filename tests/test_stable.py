"""Accuracy of the cancellation-free helper functions.

Each helper is compared against a 50-digit mpmath evaluation on scans
that straddle its internal switch points, where cancellation or
overflow would first show up.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paircorr._stable
from paircorr._stable import (
    inv_sinhc,
    one_minus_inv_sinhc,
    sech,
    sinhc_m1,
    x_over_expm1,
)

mpmath.mp.dps = 50


def _scan_grid(zmax):
    seams = []
    for seam in (0.5,):
        seams += [seam * (1.0 - 1e-9), seam, seam * (1.0 + 1e-9)]
    return np.concatenate([[0.0], np.geomspace(1e-300, zmax, 161), seams])


def _worst_rel(fn, ref, grid):
    worst = 0.0
    for x in grid:
        want = ref(x)
        got = float(fn(x))
        if want == 0.0:
            assert got == 0.0
            continue
        worst = max(worst, abs(got - want) / abs(want))
    return worst


def test_inv_sinhc_accuracy():
    def ref(z):
        if z == 0.0:
            return 1.0
        z = mpmath.mpf(z)
        return float(z / mpmath.sinh(z))

    assert _worst_rel(inv_sinhc, ref, _scan_grid(700.0)) < 3e-14


def test_sinhc_m1_accuracy():
    def ref(z):
        if z == 0.0:
            return 0.0
        # the result underflows toward z^2/6; 50 digits cannot hold
        # 1 + 1e-300 so give the reference far more working precision
        with mpmath.workdps(400):
            z = mpmath.mpf(z)
            return float(mpmath.sinh(z) / z - 1)

    # direct branch overflows past ~710 by design; stay below
    assert _worst_rel(sinhc_m1, ref, _scan_grid(705.0)) < 1e-13


def test_one_minus_inv_sinhc_accuracy():
    def ref(z):
        if z == 0.0:
            return 0.0
        with mpmath.workdps(400):
            z = mpmath.mpf(z)
            return float(1 - z / mpmath.sinh(z))

    assert _worst_rel(one_minus_inv_sinhc, ref, _scan_grid(700.0)) < 1e-13


def test_sech_accuracy():
    def ref(x):
        return float(mpmath.sech(mpmath.mpf(x)))

    assert _worst_rel(sech, ref, _scan_grid(700.0)) < 3e-14


def test_x_over_expm1_accuracy():
    def ref(x):
        if x == 0.0:
            return 1.0
        x = mpmath.mpf(x)
        return float(x / mpmath.expm1(x))

    grid = np.concatenate([-_scan_grid(50.0), _scan_grid(700.0)])
    assert _worst_rel(x_over_expm1, ref, grid) < 3e-14


def test_no_overflow_at_extremes():
    big = np.array([700.0, 705.0])
    assert np.all(np.isfinite(inv_sinhc(big)))
    assert np.all(np.isfinite(one_minus_inv_sinhc(big)))
    assert np.all(np.isfinite(sech(big)))
    assert np.all(np.isfinite(x_over_expm1(big)))
    assert np.all(np.isfinite(x_over_expm1(-big)))


def test_exact_limits_at_zero():
    assert float(inv_sinhc(0.0)) == 1.0
    assert float(sinhc_m1(0.0)) == 0.0
    assert float(one_minus_inv_sinhc(0.0)) == 0.0
    assert float(sech(0.0)) == 1.0
    assert float(x_over_expm1(0.0)) == 1.0


def test_shapes_preserved():
    z = np.linspace(0.0, 3.0, 7).reshape(7, 1)
    for fn in (inv_sinhc, sinhc_m1, one_minus_inv_sinhc, sech, x_over_expm1):
        assert fn(z).shape == (7, 1)
        assert np.ndim(fn(0.3)) == 0


@given(st.floats(min_value=0.0, max_value=700.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_inv_sinhc_properties(z):
    v = float(inv_sinhc(z))
    w = float(one_minus_inv_sinhc(z))
    assert 0.0 < v <= 1.0
    # w is strictly below 1 mathematically but rounds to 1.0 once
    # inv_sinhc drops under one ulp, around z ~ 690
    assert 0.0 <= w <= 1.0
    # the two are computed along different paths but must stay consistent
    assert abs(v + w - 1.0) < 5e-14
    # both are even
    assert float(inv_sinhc(-z)) == v


def test_inv_sinhc_stays_in_range_on_a_scan():
    # z/sinh(z) is in (0, 1]; 2z e^{-z} / (1 - e^{-2z}) rounded to
    # 1 + 2^-52 on 2,856 of these points, all in [3.5e-16, 1.5e-8],
    # before inv_sinhc was held at 1
    z = np.geomspace(1e-300, 700.0, 2_000_000)
    v = inv_sinhc(z)
    assert np.all((0.0 < v) & (v <= 1.0))
    assert float(inv_sinhc(1.0466851349270204e-10)) == 1.0


@given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_x_over_expm1_reflection(x):
    # x/(e^x - 1) satisfies f(-x) = f(x) + x
    a = float(x_over_expm1(x))
    b = float(x_over_expm1(-x))
    assert b - a == pytest.approx(x, rel=1e-12, abs=1e-12)


def _unshortcut_inv_sinhc(z):
    z = np.abs(np.asarray(z, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.minimum(-2.0 * z * np.exp(-z) / np.expm1(-2.0 * z), 1.0)
    return np.where(z == 0.0, 1.0, val)[()]


def _unshortcut_x_over_expm1(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = x / np.expm1(x)
    return np.where(x == 0.0, 1.0, val)[()]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def test_expm1_shortcut_is_bitwise():
    # below 2^-54 expm1(x) rounds to x, so inv_sinhc and x_over_expm1
    # skip np.expm1 when their whole argument is that small; no bit may
    # change. inv_sinhc(z) takes expm1 of -2z.
    bound = 2.0**-54
    tiny = np.geomspace(5e-324, bound, 20_001)[:-1]
    cases = (
        (inv_sinhc, _unshortcut_inv_sinhc, tiny / 2.0, -2.0),
        (x_over_expm1, _unshortcut_x_over_expm1, np.concatenate([-tiny, tiny]), 1.0),
    )
    for fn, plain, grid, scale in cases:
        arg = scale * grid  # the dense grid takes the shortcut
        assert paircorr._stable._expm1(arg) is arg
        assert _same_bytes(fn(grid), plain(grid))
        for x in grid[::50].tolist():
            assert _same_bytes(fn(x), plain(x)), x
        straddle = 2.0 ** np.linspace(-60.0, -48.0, 97)  # 2^-54 is its 49th point
        for x in (straddle, -straddle, np.empty(0), np.array(1e-300), np.float64(-3e-20)):
            assert _same_bytes(fn(x), plain(x)), x
