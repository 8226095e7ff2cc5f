"""Coincidence and event-mixed pair intensities and their correlation ratio.

For a mixture of symmetric ("singlet", weight 1 - f) and antisymmetric
("triplet", weight f) Gaussian pair states, the distribution of the
relative momentum magnitude dp = |p1 - p2| has closed forms for both the
true coincidence intensity and the accidental (event-mixed) intensity
built from products of single-particle spectra. The correlation function

    R(dp) = I_cor(dp) / I_unc(dp) - 1

depends on three physical parameters only: the packet width sigma, the
triplet fraction f and the magnitude s of the splitting momentum between
the two packet centers. It is independent of the total pair momentum,
which is why none of the functions here accept one. Angular integrals
use the plain (unnormalized) solid-angle measure, total 4 pi; every
closed form below is validated against brute-force integration of the
model densities in the oracle test suite.

Numerics
--------
With d = s^2/(4 sigma^2) and z = s dp / (2 sigma^2), the raw formulas
contain sinh(z)/z factors that overflow for large z and brackets that
cancel to O(d^2) for small splitting. Internally the ratio's numerator
is reduced by sinh(z)/z and its denominator by J^2 sinh(z)/z, built
from cancellation-free primitives, so R stays finite even where J^2 or
z/sinh(z) underflow on their own; the one genuinely cancelling bracket
(the triplet event-mixed term) switches to a bivariate series in
(d, y^2), y = dp/sigma, below d = 1e-4, z = 0.05. Worst-case relative
error of the assembled forms is a few 1e-12 over the full parameter
domain (measured against 50-digit references in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import inv_sinhc, one_minus_inv_sinhc, sech, sinhc_m1, x_over_expm1

__all__ = [
    "coincidence_intensity",
    "accidental_intensity",
    "correlation_R",
    "correlation_R0",
    "correlation_R1",
    "correlation_curve",
    "CorrelationCurve",
]

_SQRT_PI = math.sqrt(math.pi)

# The triplet event-mixed bracket
#   N_B(d, z) = 1 + 2 e^{-2d} + e^{-d} sinh(z)/z - 8 e^{-5d/4} sinh(z/2)/z
# vanishes to second order at the origin. Below the switch point it is
# evaluated as d^2 [P0(y^2) + d P1(y^2) + d^2 P2(y^2)] with y^2 = z^2/d;
# coefficients are exact rationals of the Taylor expansion.
_NB_P0 = (660.0 / 480.0, 20.0 / 480.0, 3.0 / 480.0)
_NB_P1 = (-41160.0 / 26880.0, -1260.0 / 26880.0, -154.0 / 26880.0, 5.0 / 26880.0)
_NB_P2 = (
    2498160.0 / 2580480.0,
    68320.0 / 2580480.0,
    6552.0 / 2580480.0,
    -472.0 / 2580480.0,
    7.0 / 2580480.0,
)
_SERIES_DELTA = 1e-4
_SERIES_Z = 0.05
# Below the smallest normal double, 1 - J^2 (= d to first order) keeps
# only the handful of bits a subnormal can hold, so ratios against it
# wobble at the 1e-4 level; the exact d -> 0 limit is closer than that
# by hundreds of orders of magnitude.
_TINY_DELTA = 2.2250738585072014e-308

# z-only part of N_B: Z(z) = 3 + sinh(z)/z - 8 sinh(z/2)/z
#                          = sum_{k>=2} (1 - 4^{1-k}) z^{2k} / (2k+1)!
_Z_COEFS = tuple(
    (1.0 - 4.0 ** (1 - k)) / float(math.factorial(2 * k + 1)) for k in range(2, 10)
)
_Z_SWITCH = 1.75
# Past d/4 + z/2 = _PLAIN_SWITCH the grouped expm1 form of N_B loses the
# surviving e^{-d} piece to rounding; there the plain combination of
# decaying exponentials is cancellation-free (its one subtracted term is
# at most 8 e^{-(d/4 + z/2)} ~ 0.66 of the positive part) and exact.
_PLAIN_SWITCH = 2.5


def _horner(coefs, x):
    """Evaluate sum coefs[k] x^k with ascending coefficients."""
    acc = np.zeros_like(x) + coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * x + c
    return acc


def _nb_series(delta, y2):
    """N_B / d^2 from the bivariate Taylor expansion (series region only)."""
    return (
        _horner(_NB_P0, y2)
        + delta * _horner(_NB_P1, y2)
        + delta * delta * _horner(_NB_P2, y2)
    )


def _zfun(z):
    """Z(z) = 3 + sinh(z)/z - 8 sinh(z/2)/z, cancellation-free.

    Series below z = 1.75 (truncation ~1e-14 relative at the seam),
    direct above. Callers mask z to the grouped region (z < 5), so
    the direct branch never overflows.
    """
    z = np.asarray(z, dtype=float)
    z2 = z * z
    ser = z2 * z2 * _horner(_Z_COEFS, z2)
    zc = np.where(z < _Z_SWITCH, 1.0, z)  # keep sinh off the dead branch
    with np.errstate(over="ignore"):
        direct = 3.0 + np.sinh(zc) / zc - 8.0 * np.sinh(0.5 * zc) / zc
    return np.where(z < _Z_SWITCH, ser, direct)


def _mix_core(z, inv_s, sh):
    """inv_sinhc(z) * Z(z), stable at both ends.

    For small z the product of the Z series with inv_sinhc keeps full
    accuracy. For large z the algebraic identity
    inv_sinhc * Z = 3 inv_sinhc + 1 - 4 sech(z/2) takes over; its mild
    cancellation near the seam costs a few 1e-14.
    """
    z = np.asarray(z, dtype=float)
    small = inv_s * _zfun(np.where(z < _Z_SWITCH, z, 0.0))
    large = 3.0 * inv_s + 1.0 - 4.0 * sh
    return np.where(z < _Z_SWITCH, small, large)


def _check_physical(sigma, triplet_fraction, momentum_split):
    """Validated (sigma, f, s): floats, or float arrays when any is an array.

    A shape-(3,) momentum_split is a vector and contributes its
    magnitude; any other array holds split magnitudes that broadcast
    with sigma and f.
    """
    sigma = np.asarray(sigma, dtype=float)
    f = np.asarray(triplet_fraction, dtype=float)
    split = np.asarray(momentum_split, dtype=float)
    s = np.linalg.norm(split) if split.shape == (3,) else split
    if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not np.all((f >= 0.0) & (f <= 1.0)):
        raise ValueError(f"triplet_fraction must lie in [0, 1], got {f}")
    if not np.all(np.isfinite(s) & (s >= 0.0)):
        raise ValueError(f"momentum_split must be finite and >= 0, got {s}")
    if sigma.ndim == f.ndim == np.ndim(s) == 0:
        return float(sigma), float(f), float(s)
    return sigma, f, s


def _check_scalar_physical(sigma, triplet_fraction, momentum_split):
    """_check_physical for the entry points that take one parameter point."""
    checked = _check_physical(sigma, triplet_fraction, momentum_split)
    if any(np.ndim(v) for v in checked):
        raise ValueError(
            "sigma, triplet_fraction and the split magnitude must be scalars here;"
            " correlation_R takes arrays of them"
        )
    return checked


def _check_delta_p(delta_p):
    dp = np.asarray(delta_p, dtype=float)
    if not np.all(np.isfinite(dp)) or np.any(dp < 0.0):
        raise ValueError("delta_p values must be finite and >= 0")
    return dp


def _check_n_pairs(n_pairs):
    n = float(n_pairs)
    if not math.isfinite(n) or n < 0.0:
        raise ValueError(f"n_pairs must be finite and >= 0, got {n}")
    return n


def _point_terms(q, f):
    """Scalars of one parameter point, from q = split/sigma and f.

    Returns d = q^2/4, J^2 = e^{-d}, J^4, J^{1/2} = e^{-d/4}, 1 - J^2,
    e^{-2d} - 1, e^{-5d/4} - 1 and the denominator weights (1 - f)^2,
    f^2 and 2 f (1 - f).
    """
    delta = q**2 / 4.0
    return (
        delta,
        math.exp(-delta),
        math.exp(-2.0 * delta),
        math.exp(-0.25 * delta),
        -math.expm1(-delta),  # 1 - J^2, exactly 0 at d = 0
        math.expm1(-2.0 * delta),
        math.expm1(-1.25 * delta),
        (1.0 - f) ** 2,
        f * f,
        2.0 * f * (1.0 - f),
    )


_point_terms_each = np.frompyfunc(_point_terms, 2, 10)


def _per_point(q, f):
    """_point_terms of every parameter point of the broadcast q and f.

    NumPy's vector exp and power may differ from libm in the last bit;
    taking the per-point scalars from libm keeps each row of a batched
    call bitwise equal to the one-parameter call. Scalars come back as
    floats, arrays as float arrays of the broadcast shape.
    """
    return tuple(
        np.asarray(t, dtype=float) if np.ndim(t) else t for t in _point_terms_each(q, f)
    )


def _by_rows(mask, when_true, when_false, *args):
    """when_true's arrays where mask holds and when_false's elsewhere.

    ``mask`` is per parameter point and the args broadcast against it.
    Each form sees only the elements it serves, so it is computed only
    on the rows that need it; a mask that is all true or all false
    (every one-parameter call) passes the args through untouched.
    """
    if np.all(mask):
        return when_true(*args)
    if not np.any(mask):
        return when_false(*args)
    shape = np.broadcast_shapes(np.shape(mask), *(np.shape(a) for a in args))
    pick = np.broadcast_to(mask, shape)
    full = [np.broadcast_to(a, shape) for a in args]
    parts = zip(when_true(*(a[pick] for a in full)), when_false(*(a[~pick] for a in full)))
    out = []
    for yes, no in parts:
        merged = np.empty(shape)
        merged[pick] = yes
        merged[~pick] = no
        out.append(merged)
    return tuple(out)


def _reduced_brackets(delta, y, j2, j4, jh, om, em2, em54):
    """Brackets of the intensity formulas as they enter the ratio R.

    Returns (bc0, bc1, bu0, bu1, buc): the singlet and triplet
    coincidence brackets divided by sinh(z)/z, and the three event-mixed
    brackets (singlet^2, triplet^2, cross) divided by J^2 sinh(z)/z, so
    that R = 2 num/den - 1 directly. Reducing the denominator by the
    extra J^2 keeps the ratio well defined even where J^2 or z/sinh(z)
    underflow on their own: the lone growing factor e^{d - z} appears
    explicitly, and where it overflows the true R has already pinned to
    -1, which the inf propagates to exactly.

    ``delta`` and the exponentials of it (``_point_terms``) are scalars
    or arrays per parameter point; ``y`` has the full broadcast shape.
    The tiny-d, series and saturated forms run only on the rows whose d
    selects them.
    """
    return _by_rows(delta < _TINY_DELTA, _tiny_brackets, _brackets, delta, y, j2, j4, jh, om, em2, em54)


def _tiny_brackets(delta, y, j2, j4, jh, om, em2, em54):
    """The d -> 0 limits, for d below the smallest normal double."""
    z = np.sqrt(delta) * y
    inv_s = inv_sinhc(z)
    op = 1.0 + j2
    y2 = y * y
    bc0 = (1.0 + inv_s) / op
    bc1 = y2 / 6.0
    bu0 = (3.0 * inv_s + 1.0 + 4.0 * sech(0.5 * z)) / (op * op)
    bu1 = inv_s * _nb_series(0.0, y2)
    buc = (3.0 + y2 / 6.0) / 2.0
    return bc0, bc1, bu0, bu1, buc


def _brackets(delta, y, j2, j4, jh, om, em2, em54):
    """The brackets wherever d is at least the smallest normal double."""
    z = np.sqrt(delta) * y
    inv_s = inv_sinhc(z)
    sh = sech(0.5 * z)
    op = 1.0 + j2
    bc0 = (1.0 + inv_s) / op
    (eds,) = _by_rows(delta <= 700.0, _eds_plain, _eds_saturated, delta, z, inv_s, j2)
    bu0 = ((1.0 + 2.0 * j4) * eds + 1.0 + 4.0 * jh * sh) / (op * op)

    bc1 = one_minus_inv_sinhc(z) / om
    # N_B * inv_sinhc / J^2 in three regimes: grouped expm1 form while
    # the bracket still cancels (there d < 10, so dividing by j2 is
    # harmless), plain exponentials once nothing cancels, series at the
    # origin.
    grouped_mask = 0.25 * delta + 0.5 * z < _PLAIN_SWITCH
    zg = np.where(grouped_mask, z, 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # where the mask discards the grouped form, j2 may have
        # underflowed to 0 and the staged quotient may overflow; the
        # inf/nan never survives the where
        grouped = (
            _mix_core(zg, inv_sinhc(zg), sech(0.5 * zg))
            + 2.0 * inv_sinhc(zg) * em2
            - om
            - 4.0 * em54 * sech(0.5 * zg)
        ) / j2
        plain = (1.0 + 2.0 * j4) * eds + 1.0 - 4.0 * jh * sh
        # divide by om twice, not by om * om: for subnormal d the square
        # underflows to zero while the staged quotient stays exact
        direct = np.where(grouped_mask, grouped, plain) / om / om
    (bu1,) = _by_rows(
        delta <= _SERIES_DELTA, _bu1_series, _bu1_direct, direct, delta, y, z, inv_s, j2
    )
    # the cross bracket's constant part factors exactly:
    # (1 - J^4) - J^2 (1 - J^2) = (1 - J^2)(1 + 2 J^2), cancelling om
    buc = ((1.0 + 2.0 * j2) * eds + bc1) / op
    return bc0, bc1, bu0, bu1, buc


def _eds_plain(delta, z, inv_s, j2):
    """inv_sinhc(z) / J^2 while J^2 is a normal float (d <= 700)."""
    return (inv_s / j2,)


def _eds_saturated(delta, z, inv_s, j2):
    """inv_sinhc(z) / J^2 past d = 700, with the exponentials combined.

    e^{d - z} saturating to inf is the intended limit.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        safe = np.where(z == 0.0, 1.0, z)
        eds = np.where(
            z == 0.0,
            np.exp(delta),
            -2.0 * safe * np.exp(delta - safe) / np.expm1(-2.0 * safe),
        )
    return (eds,)


def _bu1_series(direct, delta, y, z, inv_s, j2):
    """Triplet event-mixed bracket with the series at small (d, z)."""
    ratio = x_over_expm1(-delta)  # d / (1 - J^2)
    ser = inv_s * _nb_series(delta, y * y) * ratio * ratio / j2
    return (np.where(z <= _SERIES_Z, ser, direct),)


def _bu1_direct(direct, delta, y, z, inv_s, j2):
    return (direct,)


def correlation_R(delta_p, sigma, triplet_fraction, momentum_split):
    """Correlation function R(dp) of the singlet/triplet mixture.

    Parameters
    ----------
    delta_p : array_like
        Relative momentum magnitudes |p1 - p2|, >= 0 (a.u.).
    sigma : float or array_like
        Wavepacket momentum width (a.u.).
    triplet_fraction : float or array_like
        Weight f of the antisymmetric channel, in [0, 1].
    momentum_split : float, 3-vector or array_like
        Splitting momentum between the packet centers; only its
        magnitude matters here. A shape-(3,) array is one vector; any
        other array holds magnitudes.

    Array-valued parameters broadcast against delta_p, so an (m, 1)
    column of each with an n-point grid evaluates m curves in one call;
    each row equals the one-parameter call bit for bit.

    Returns
    -------
    ndarray or float
        R evaluated elementwise, >= -1 everywhere. At dp = 0 and at
        zero splitting the analytic limits are returned (the pure
        triplet gives exactly -1 at dp = 0; a pure singlet with zero
        splitting gives exactly 0).
    """
    sigma, f, split = _check_physical(sigma, triplet_fraction, momentum_split)
    dp = _check_delta_p(delta_p)
    delta, j2, j4, jh, om, em2, em54, w0, w1, w2 = _per_point(split / sigma, f)
    y = dp / sigma
    y = np.broadcast_to(y, np.broadcast_shapes(y.shape, np.shape(delta)))
    bc0, bc1, bu0, bu1, buc = _reduced_brackets(delta, y, j2, j4, jh, om, em2, em54)
    num = (1.0 - f) * bc0 + f * bc1
    # brackets may be inf for enormous splitting; sum only terms whose
    # weight is nonzero (f*f can underflow) so 0 * inf cannot poison it
    den = 0.0
    for coef, bracket in ((w0, bu0), (w1, bu1), (w2, buc)):
        live = coef != 0.0
        if np.all(live):
            den = den + coef * bracket
        elif np.any(live):
            with np.errstate(invalid="ignore"):
                den = den + np.where(live, coef * bracket, 0.0)
    return (2.0 * num / den - 1.0)[()]


def correlation_R0(delta_p, sigma, momentum_split):
    """Pure singlet correlation function (triplet_fraction = 0)."""
    return correlation_R(delta_p, sigma, 0.0, momentum_split)


def correlation_R1(delta_p, sigma, momentum_split):
    """Pure triplet correlation function (triplet_fraction = 1)."""
    return correlation_R(delta_p, sigma, 1.0, momentum_split)


def _intensity_pieces(delta, y):
    """Exponential-weighted brackets entering the absolute intensities.

    Every returned array is a bounded combination of decaying
    exponentials; sinh factors appear only through the identity
    E J^2 sinh(z)/z = e^{z - y^2/4 - d} (1 - e^{-2z}) / (2 z),
    which keeps the large-z regime finite.
    """
    y = np.asarray(y, dtype=float)
    y2 = y * y
    z = math.sqrt(delta) * y
    op = 1.0 + math.exp(-delta)
    om = -math.expm1(-delta)

    e0 = np.exp(-0.25 * y2)
    ej2 = np.exp(-0.25 * y2 - delta)
    ej4 = np.exp(-0.25 * y2 - 2.0 * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = np.where(
            z == 0.0,
            ej2,
            np.exp(z - 0.25 * y2 - delta) * -np.expm1(-2.0 * z) / (2.0 * z),
        )
        g12 = np.where(
            z == 0.0,
            0.5 * np.exp(-0.25 * y2 - 1.25 * delta),
            np.exp(0.5 * z - 0.25 * y2 - 1.25 * delta) * -np.expm1(-z) / (2.0 * z),
        )

    icor0 = (g1 + ej2) / op
    iu00 = (e0 + 2.0 * ej4 + g1 + 8.0 * g12) / (op * op)

    if delta < _TINY_DELTA:
        icor1 = e0 * y2 / 6.0
        iu11 = e0 * _nb_series(0.0, y2)
        iu01 = e0 * (3.0 + y2 / 6.0) / 2.0
        return icor0, icor1, iu00, iu11, iu01

    minus_term = np.where(z < 0.5, ej2 * sinhc_m1(np.minimum(z, 0.5)), g1 - ej2)
    icor1 = minus_term / om

    # Triplet event-mixed bracket, same three regimes as the ratio path:
    # series at small (d, z), grouped expm1 form while the bracket
    # cancels, plain combination of decaying exponentials beyond.
    grouped_mask = 0.25 * delta + 0.5 * z < _PLAIN_SWITCH
    zg = np.where(grouped_mask, z, 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # staged / om / om quotients survive subnormal d, where om * om
        # would underflow; whichever branch still overflows is the one
        # the masks discard, so the inf never reaches a result
        grouped = e0 * (
            _zfun(zg)
            + 2.0 * math.expm1(-2.0 * delta)
            + math.expm1(-delta) * (1.0 + sinhc_m1(zg))
            - 8.0 * math.expm1(-1.25 * delta) * _half_sinhc(zg)
        ) / om / om
        plain = (e0 + 2.0 * ej4 + g1 - 8.0 * g12) / om / om
        direct = np.where(grouped_mask, grouped, plain)
    if delta <= _SERIES_DELTA:
        ratio = x_over_expm1(-delta)
        ser = e0 * _nb_series(delta, y2) * ratio * ratio
        iu11 = np.where(z <= _SERIES_Z, ser, direct)
    else:
        iu11 = direct

    # cross term via the exact factorization
    # E (1 - J^4) + E J^2 (1 - J^2) = om (E op + E J^2), cancelling om
    iu01 = e0 + (ej2 + icor1) / op
    return icor0, icor1, iu00, iu11, iu01


def _half_sinhc(z):
    """sinh(z/2)/z with the z = 0 limit 1/2; callers keep z < 5."""
    z = np.asarray(z, dtype=float)
    zc = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 0.5, np.sinh(0.5 * zc) / zc)


def coincidence_intensity(delta_p, sigma, triplet_fraction, momentum_split, n_pairs=1.0):
    """True pair-coincidence intensity at relative momentum dp.

    Integrates the mixture pair density over all orientations of the
    relative momentum (full 4 pi) and over the absolute momentum scale,
    leaving a function of dp alone. Scales linearly with ``n_pairs``,
    which must be finite and >= 0.

    Returns values in (pair count) / (a.u. momentum) such that the
    integral over dp counts detected pairs.
    """
    sigma, f, split = _check_scalar_physical(sigma, triplet_fraction, momentum_split)
    n_pairs = _check_n_pairs(n_pairs)
    dp = _check_delta_p(delta_p)
    y = dp / sigma
    delta = (split / sigma) ** 2 / 4.0
    icor0, icor1, _, _, _ = _intensity_pieces(delta, y)
    pref = n_pairs * dp * dp / (2.0 * _SQRT_PI * sigma**3)
    return (pref * ((1.0 - f) * icor0 + f * icor1))[()]


def accidental_intensity(delta_p, sigma, triplet_fraction, momentum_split, n_pairs=1.0):
    """Event-mixed (accidental) pair intensity at relative momentum dp.

    Built from products of independently drawn single-particle spectra
    of the same mixture; this is the uncorrelated reference against
    which R is defined. Scales linearly with ``n_pairs``, which must be
    finite and >= 0.
    """
    sigma, f, split = _check_scalar_physical(sigma, triplet_fraction, momentum_split)
    n_pairs = _check_n_pairs(n_pairs)
    dp = _check_delta_p(delta_p)
    y = dp / sigma
    delta = (split / sigma) ** 2 / 4.0
    _, _, iu00, iu11, iu01 = _intensity_pieces(delta, y)
    pref = n_pairs * dp * dp / (4.0 * _SQRT_PI * sigma**3)
    mix = (1.0 - f) ** 2 * iu00 + f * f * iu11 + 2.0 * f * (1.0 - f) * iu01
    return (pref * mix)[()]


@dataclass(frozen=True)
class CorrelationCurve:
    """A sampled correlation function R(dp) with its model parameters."""

    delta_p: np.ndarray
    r: np.ndarray
    sigma: float
    triplet_fraction: float
    momentum_split: float

    def __post_init__(self):
        object.__setattr__(self, "delta_p", np.asarray(self.delta_p, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if self.delta_p.shape != self.r.shape:
            raise ValueError("delta_p and r must have matching shapes")


def correlation_curve(delta_p, sigma, triplet_fraction, momentum_split):
    """Evaluate R on a grid and bundle the result with its parameters."""
    sigma_v, f, split = _check_scalar_physical(sigma, triplet_fraction, momentum_split)
    dp = np.atleast_1d(_check_delta_p(delta_p))
    r = np.atleast_1d(correlation_R(dp, sigma_v, f, split))
    return CorrelationCurve(dp, r, sigma_v, f, split)
