"""Arbitrary-precision reference for the closed forms, written apart from paircorr.

The raw formulas for I_cor, I_unc and R = I_cor / I_unc - 1 are transcribed
directly in mpmath, with none of the package's cancellation-free rewrites.
The working precision grows with the cancellation the raw brackets suffer
at small splitting (1 - J^2 ~ d and the triplet event-mixed bracket ~ d^2),
so even a subnormal d is evaluated to at least 30 correct digits.
"""

import math

import mpmath

BASE_DIGITS = 40


def _digits(sigma, split):
    d = (split / sigma) ** 2 / 4.0
    if d >= 1.0:
        return BASE_DIGITS
    if d == 0.0:
        raise ValueError("the raw formulas need a nonzero splitting")
    # the O(d^2) bracket loses 2 |log10 d| digits to cancellation
    return BASE_DIGITS + 2 * math.ceil(-math.log10(d))


def intensities(dp, sigma, f, split):
    """(I_cor, I_unc, R) as mpf values, for n_pairs = 1."""
    with mpmath.workdps(_digits(sigma, split)):
        dp, sigma, f, split = (mpmath.mpf(float(v)) for v in (dp, sigma, f, split))
        j2 = mpmath.exp(-(split**2) / (4 * sigma**2))
        j4 = j2 * j2
        j52 = mpmath.exp(-5 * split**2 / (16 * sigma**2))
        z = split * dp / (2 * sigma**2)
        sinhc = mpmath.sinh(z) / z if z != 0 else mpmath.mpf(1)
        half = mpmath.sinh(z / 2) / z if z != 0 else mpmath.mpf("0.5")
        env = mpmath.exp(-(dp**2) / (4 * sigma**2))
        pref = dp * dp * env / (mpmath.sqrt(mpmath.pi) * sigma**3)
        cor = mpmath.mpf(0)
        unc = mpmath.mpf(0)
        if f < 1:
            cor += (1 - f) * (sinhc + 1) / (1 + j2)
            unc += (1 - f) ** 2 * (1 + 2 * j4 + j2 * sinhc + 8 * j52 * half) / (1 + j2) ** 2
        if f > 0:
            cor += f * (sinhc - 1) / (1 - j2)
            unc += f * f * (1 + 2 * j4 + j2 * sinhc - 8 * j52 * half) / (1 - j2) ** 2
        if 0 < f < 1:
            unc += 2 * f * (1 - f) * (1 - 2 * j4 + j2 * sinhc) / ((1 + j2) * (1 - j2))
        icor = pref / 2 * j2 * cor
        iunc = pref / 4 * unc
        return +icor, +iunc, icor / iunc - 1


def correlation_R(dp, sigma, f, split):
    return intensities(dp, sigma, f, split)[2]
