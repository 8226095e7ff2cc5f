"""Cancellation-free special functions used by the correlation formulas.

All functions accept scalars or numpy arrays and never overflow for
non-negative arguments: growing exponentials are rewritten in terms of
exp(-x) and expm1 before they are combined. Accuracy targets are a few
ulp away from switch points and <= ~1e-13 relative at the worst seam,
verified against 50-digit references in the test suite.

Below 2^-54 in magnitude, x^2/2 is under half an ulp of x, so expm1(x)
rounds to x itself. inv_sinhc and x_over_expm1 skip np.expm1 when their
whole argument is that small (every z at tiny splitting), where it takes
~20 times as long as on ordinary arguments; no bit of the result changes.
On one number the check is a plain comparison, not an array reduction.

inv_sinhc(z) and x_over_expm1(x) at x = -2z are both a ratio over the
same expm1(-2z), filled in with 1 at 0; each is built by ``_ratio``. The
closed-form kernel computes x = -2z and expm1(x) once per block and
builds both ratios from them with ``_ratio`` too, so its values are
these functions' values bit for bit. Likewise it takes sinhc_m1's
series, ``_sinhc_m1_series``, directly on the points below 0.5 that it
selects.
"""

import numpy as np

__all__ = ["inv_sinhc", "sinhc_m1", "one_minus_inv_sinhc", "sech", "x_over_expm1"]

_EXPM1_IDENTITY = 2.0**-54


def _expm1(x):
    """np.expm1(x), or x itself when every |x| is below 2^-54, where the two are equal.

    ``x`` is a numpy array or scalar.
    """
    if x.ndim:
        small = np.abs(x).max(initial=0.0) < _EXPM1_IDENTITY
    else:  # a reduction costs microseconds on one number
        small = abs(float(x)) < _EXPM1_IDENTITY
    return x if small else np.expm1(x)


def _ratio(x, em, factor=None):
    """x factor / em, or 1 where x = 0: inv_sinhc and x_over_expm1 on em = expm1(x)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = x / em if factor is None else x * factor / em
    if x.all():  # no 0 to fill in (one pass, against two for the fill)
        return val[()]
    return np.where(x == 0.0, 1.0, val)[()]


def inv_sinhc(z):
    """z / sinh(z), the reciprocal of the hyperbolic sinc function.

    Evaluated as 2 z exp(-z) / (1 - exp(-2z)) so it decays to zero for
    large z instead of overflowing. Defined as 1 at z = 0. Even in z.
    """
    z = np.abs(np.asarray(z, dtype=float))
    x = -2.0 * z
    return _ratio(x, _expm1(x), np.exp(-z))


def sinhc_m1(z):
    """sinh(z)/z - 1 without cancellation near z = 0.

    Uses the Taylor series below |z| = 0.5 (truncation < 1e-19 relative)
    and the direct expression above. The direct branch overflows past
    z ~ 710, as sinh itself does; callers needing large z should work
    with inv_sinhc or one_minus_inv_sinhc instead.
    """
    z = np.abs(np.asarray(z, dtype=float))
    ser = _sinhc_m1_series(z * z)
    if np.any(z >= 0.5):  # the direct form runs only when some z needs it
        with np.errstate(over="ignore", invalid="ignore"):
            ser = np.where(z < 0.5, ser, np.sinh(z) / z - 1.0)
    return ser[()]


def _sinhc_m1_series(z2):
    """sinh(z)/z - 1 from z2 = z^2 by its Taylor series, the form sinhc_m1 takes below z = 0.5."""
    # ratios of consecutive series terms: (2k)(2k+1) for k = 1..8
    tail = 1.0
    for fac in (272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
        step = z2 / fac  # 1 + z2 / fac * tail, in place
        step *= tail
        step += 1.0
        tail = step
    return z2 / 6.0 * tail


def one_minus_inv_sinhc(z):
    """1 - z/sinh(z), accurate for all z >= 0 and free of overflow.

    For z < 0.5 the difference is formed as inv_sinhc(z) * (sinh(z)/z - 1)
    which shares no leading digits; above, the direct subtraction loses
    at most ~25 ulp.
    """
    z = np.abs(np.asarray(z, dtype=float))
    inv = inv_sinhc(z)
    small = inv * sinhc_m1(np.where(z < 0.5, z, 0.0))
    return np.where(z < 0.5, small, 1.0 - inv)[()]


def sech(x):
    """1 / cosh(x), evaluated as 2 exp(-|x|) / (1 + exp(-2|x|))."""
    x = np.abs(np.asarray(x, dtype=float))
    return (2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x)))[()]


def x_over_expm1(x):
    """x / (exp(x) - 1), with the removable singularity at 0 filled in."""
    x = np.asarray(x, dtype=float)
    return _ratio(x, _expm1(x))
