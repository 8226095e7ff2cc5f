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
these functions' values bit for bit. The kernel's
A(z) = (1 - inv_sinhc(z)) / z^2 is inv_sinhc(z) times the series of
(sinh(z)/z - 1) / z^2 that sinhc_m1 takes below 0.5, ``_SINHC_M1_COEFS``
by ``_horner``.
"""

import math

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
    """x factor / em, or 1 where x = 0: inv_sinhc and x_over_expm1 on em = expm1(x).

    With a factor, the ratio is inv_sinhc's z / sinh(z) <= 1, and it is
    held there: 2z e^{-z} / (1 - e^{-2z}) rounds to 1 + 2^-52 at some z
    in [3.5e-16, 1.5e-8], where the exact value, 1 - z^2/6, rounds to 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        val = x / em if factor is None else np.minimum(x * factor / em, 1.0)
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
    z2 = z * z
    ser = z2 * _horner(_SINHC_M1_COEFS, z2)
    if np.any(z >= 0.5):  # the direct form runs only when some z needs it
        with np.errstate(over="ignore", invalid="ignore"):
            ser = np.where(z < 0.5, ser, np.sinh(z) / z - 1.0)
    return ser[()]


def _horner(coefs, x):
    """Evaluate sum coefs[k] x^k with ascending coefficients (at least two)."""
    acc = coefs[-1] * x + coefs[-2]
    for c in coefs[-3::-1]:  # in place: no temporary per step
        acc *= x
        acc += c
    return acc


# (sinh(z)/z - 1) / z^2 = sum_k z^{2k} / (2k+3)!, k = 0..7 (truncation < 1e-19 below z = 0.5)
_SINHC_M1_COEFS = tuple(1.0 / math.factorial(2 * k + 3) for k in range(8))


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
