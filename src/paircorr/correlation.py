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
With d = s^2/(4 sigma^2), z = s dp / (2 sigma^2) and y = dp/sigma, the
raw formulas contain sinh(z)/z factors that overflow for large z and
brackets that cancel to O(d^2) for small splitting. One bracket kernel
serves every entry point. It builds the brackets of R from
cancellation-free primitives, with the ratio's numerator reduced by
sinh(z)/z and its denominator by J^2 sinh(z)/z, so R stays finite even
where J^2 or z/sinh(z) underflow on their own; the one genuinely
cancelling bracket (the triplet event-mixed term) switches to a
bivariate series in (d, y^2) below d = 1e-4, z = 0.05. The intensities
are the same brackets times the envelope g1 = e^{-y^2/4} J^2 sinh(z)/z.
The event-mixed brackets carry a term eds = z/sinh(z) / J^2, and g1 eds
is e^{-y^2/4} exactly; the kernel takes that product as one factor
instead of multiplying g1 by eds, because past d = 700 g1 underflows
while eds overflows. Each form runs only on the points it serves (a
form that serves every point, as in each of the fitter's calls, runs on
the whole grid without gathering them), and grids longer than two
blocks pass through the kernel _BLOCK (8192) points at a time, so its
temporaries stay in cache; none of this changes any point's arithmetic.
Worst-case relative error of the assembled forms is a few 1e-12 over
the full parameter domain (measured against 50-digit references in the
tests).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._stable import inv_sinhc, sech, sinhc_m1, x_over_expm1
from ._stable import one_minus_inv_sinhc  # noqa: F401  # wrapped by name in perfbench/tracing.py
from .model import _fraction, _nonnegative, _positive

__all__ = [
    "coincidence_intensity",
    "accidental_intensity",
    "correlation_R",
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
# Points per kernel call along the dp axis of long grids: a block's float
# temporaries fit a 2 MiB L2 cache (best of a sweep over 2k-32k points).
_BLOCK = 8192


def _horner(coefs, x):
    """Evaluate sum coefs[k] x^k with ascending coefficients."""
    acc = coefs[-1]
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
    """Z(z) = 3 + sinh(z)/z - 8 sinh(z/2)/z by its series (z < 1.75; ~1e-14 at the seam)."""
    z2 = z * z
    return z2 * z2 * _horner(_Z_COEFS, z2)


def _mix_core(z, inv_s, sh):
    """inv_sinhc(z) * Z(z), stable at both ends.

    For small z the product of the Z series with inv_sinhc keeps full
    accuracy. For large z the algebraic identity
    inv_sinhc * Z = 3 inv_sinhc + 1 - 4 sech(z/2) takes over; its mild
    cancellation near the seam costs a few 1e-14.
    """
    large = 3.0 * inv_s + 1.0 - 4.0 * sh
    return _fill(large, z < _Z_SWITCH, lambda zs, i: i * _zfun(zs), z, inv_s)


def _check_physical(sigma, triplet_fraction, momentum_split):
    """Validated (sigma, f, s), each a float, or a float array where given as one.

    A shape-(3,) momentum_split is a vector and contributes its
    magnitude; any other array holds split magnitudes that broadcast
    with sigma and f.
    """
    return (
        _positive("sigma", sigma),
        _fraction("triplet_fraction", triplet_fraction),
        _nonnegative("momentum_split", _split_magnitude(momentum_split)),
    )


def _split_magnitude(momentum_split):
    """The magnitude of a shape-(3,) momentum_split; any other value holds magnitudes."""
    split = np.asarray(momentum_split, dtype=float)
    return np.linalg.norm(split) if split.shape == (3,) else split


def _check_scalar_physical(sigma, triplet_fraction, momentum_split, n_pairs):
    """_check_physical and n_pairs for the entry points that take one parameter point."""
    checked = _check_physical(sigma, triplet_fraction, momentum_split)
    checked += (_nonnegative("n_pairs", n_pairs),)
    if any(np.ndim(v) for v in checked):
        raise ValueError("parameters must be scalars here; correlation_R takes arrays of them")
    return checked


def _check_delta_p(delta_p):
    return np.asarray(_nonnegative("delta_p", delta_p), dtype=float)


def _split_terms(q):
    """Scalars of one split-to-width ratio q = split/sigma.

    Returns d = q^2/4, J^2 = e^{-d}, J^4, J^{1/2} = e^{-d/4}, 1 - J^2,
    e^{-2d} - 1 and e^{-5d/4} - 1.
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
    )


def _per_point(q, f):
    """_split_terms of q, then the denominator weights (1 - f)^2, f^2, 2 f (1 - f).

    NumPy's vector exp and expm1 may differ from libm in the last bit, so
    the split terms come from libm, once per distinct q (a fit with
    p_tilde tied to 0.1 sigma has only a few). The weights are exact
    products but for (1 - f)^2: libm pow and x * x disagree in the last
    bit on about 1 f in 1,000, and float_power, unlike power, calls
    pow. Either way each row of a batched call is bitwise equal to the
    one-parameter call. Scalars come back as floats, arrays as float
    arrays of the shape of q (split terms) or f (weights).
    """
    if np.ndim(q):
        distinct, where = np.unique(q.ravel(), return_inverse=True)
        table = np.array([_split_terms(v) for v in distinct.tolist()]).reshape(-1, 7)
        terms = tuple(np.take(table.T, where.reshape(q.shape), axis=1))
    else:
        terms = _split_terms(q)
    if np.ndim(f):
        return terms + (np.float_power(1.0 - f, 2.0), f * f, 2.0 * f * (1.0 - f))
    return terms + ((1.0 - f) ** 2, f * f, 2.0 * f * (1.0 - f))


def _at(mask, *args):
    """Each arg at the points where the full-shape ``mask`` holds; scalars pass through."""
    # broadcast_to costs microseconds, so only per-parameter-point arrays take it
    full = [a if np.shape(a) in ((), mask.shape) else np.broadcast_to(a, mask.shape) for a in args]
    return [a[mask] if np.ndim(a) else a for a in full]


def _fill(out, mask, form, *args):
    """out, with form(*args) written where mask holds; form sees only those points."""
    if np.ndim(out) == 0:  # a one-point call runs on scalars
        return form(*args) if mask else out
    hits = np.count_nonzero(mask)
    if hits == mask.size:
        # every point selects the form (each of the fitter's calls does):
        # the args broadcast as they are, with no gather or scatter
        out[...] = form(*args)
    elif hits:
        out[mask] = form(*_at(mask, *args))
    return out


def _by_rows(mask, when_true, when_false, *args):
    """when_true's arrays where mask holds and when_false's elsewhere.

    ``mask`` is per parameter point and the args broadcast against it.
    Each form sees only the elements it serves, so it is computed only
    on the rows that need it; a mask that is all true or all false
    (every one-parameter call) passes the args through untouched.
    """
    hits = np.count_nonzero(mask)
    if hits == np.size(mask):
        return when_true(*args)
    if not hits:
        return when_false(*args)
    shape = np.broadcast_shapes(np.shape(mask), *(np.shape(a) for a in args))
    pick = np.broadcast_to(mask, shape)
    out = []
    for yes, no in zip(when_true(*_at(pick, *args)), when_false(*_at(~pick, *args))):
        merged = np.empty(shape)
        merged[pick] = yes
        merged[~pick] = no
        out.append(merged)
    return tuple(out)


def _reduced_brackets(delta, y, j2, j4, jh, om, em2, em54, scale):
    """Brackets of the intensity formulas, times the factor ``scale`` picks.

    Returns (bc0, bc1, bu0, bu1, buc): the singlet and triplet
    coincidence brackets divided by sinh(z)/z, and the three event-mixed
    brackets (singlet^2, triplet^2, cross) divided by J^2 sinh(z)/z,
    each multiplied by the g of ``scale`` (``_ratio_scale`` or
    ``_intensity_scale``). With g = 1 they enter R = 2 num/den - 1
    directly. Reducing the denominator by the extra J^2 keeps the ratio
    well defined even where J^2 or z/sinh(z) underflow on their own: the
    lone growing factor e^{d - z} appears explicitly, and where it
    overflows the true R has already pinned to -1, which the inf
    propagates to exactly.

    ``delta`` and the exponentials of it (``_split_terms``) are scalars
    or arrays per parameter point; ``y`` has the full broadcast shape.
    The tiny-d, series and saturated forms run only on the rows whose d
    selects them.
    """
    return _by_rows(
        delta < _TINY_DELTA,
        functools.partial(_tiny_brackets, scale),
        functools.partial(_brackets, scale),
        delta, y, j2, j4, jh, om, em2, em54,
    )


def _ratio_scale(delta, y, z, inv_s, j2):
    """(g, g * eds) = (1, eds), eds = inv_sinhc(z) / J^2: the brackets R uses."""
    return (1.0,) + _by_rows(delta <= 700.0, _eds_plain, _eds_saturated, delta, z, inv_s, j2)


def _intensity_scale(delta, y, z, inv_s, j2):
    """(g1, g1 * eds): the envelope g1 = e^{-y^2/4} J^2 sinh(z)/z and e^{-y^2/4}.

    Times g1 the brackets are the intensity pieces. g1 is evaluated as
    e^{z - y^2/4 - d} (1 - e^{-2z}) / (2z), and g1 * eds exactly as
    e^{-y^2/4}, so past d = 700, where g1 underflows and eds overflows,
    the eds terms keep their value instead of turning into 0 * inf.
    """
    w = 0.25 * y * y
    return np.exp(z - w - delta) / x_over_expm1(-2.0 * z), np.exp(-w)


def _tiny_brackets(scale, delta, y, j2, j4, jh, om, em2, em54):
    """The d -> 0 limits, for d below the smallest normal double."""
    z = np.sqrt(delta) * y
    inv_s = inv_sinhc(z)
    g, ge = scale(delta, y, z, inv_s, j2)
    op = 1.0 + j2
    y2 = y * y
    bc0 = (1.0 + inv_s) / op * g
    bc1 = y2 / 6.0 * g
    bu0 = (3.0 * ge + g + 4.0 * sech(0.5 * z) * g) / (op * op)
    bu1 = inv_s * _nb_series(0.0, y2) * g
    buc = (3.0 * g + bc1) / 2.0
    return bc0, bc1, bu0, bu1, buc


def _brackets(scale, delta, y, j2, j4, jh, om, em2, em54):
    """The brackets wherever d is at least the smallest normal double.

    Every eds term is written with ge = g * eds, never as g times eds.
    """
    z = np.sqrt(delta) * y
    inv_s = inv_sinhc(z)
    sh = sech(0.5 * z)
    g, ge = scale(delta, y, z, inv_s, j2)
    op = 1.0 + j2
    bc0 = (1.0 + inv_s) / op * g
    # bu0 and the plain form of N_B below share these two terms
    ends = (1.0 + 2.0 * j4) * ge + g
    mid = 4.0 * jh * sh * g
    bu0 = (ends + mid) / (op * op)

    # 1 - inv_sinhc(z), through the series of sinh(z)/z - 1 below z = 0.5
    bc1 = _fill(1.0 - inv_s, z < 0.5, lambda zs, i: i * sinhc_m1(zs), z, inv_s) / om * g
    # N_B * inv_sinhc / J^2 in three regimes, each evaluated only on its
    # points: series at the origin, grouped expm1 form while the bracket
    # still cancels, plain exponentials once nothing cancels.
    series = (delta <= _SERIES_DELTA) & (z <= _SERIES_Z)
    grouped = (0.25 * delta + 0.5 * z < _PLAIN_SWITCH) & ~series
    bu1 = _fill(ends - mid, grouped, _nb_grouped, z, inv_s, sh, g, om, em2, em54, j2)
    # divide by om twice, not by om * om: for subnormal d the square
    # underflows to zero while the staged quotient stays exact
    bu1 = _fill(bu1 / om / om, series, _nb_at_origin, delta, y, inv_s, j2, g)
    # the cross bracket's constant part factors exactly:
    # (1 - J^4) - J^2 (1 - J^2) = (1 - J^2)(1 + 2 J^2), cancelling om
    buc = ((1.0 + 2.0 * j2) * ge + bc1) / op
    return bc0, bc1, bu0, bu1, buc


def _nb_grouped(z, inv_s, sh, g, om, em2, em54, j2):
    """N_B * inv_sinhc / J^2 times g in the grouped expm1 form (d < 10, z < 5)."""
    return (_mix_core(z, inv_s, sh) + 2.0 * inv_s * em2 - om - 4.0 * em54 * sh) / j2 * g


def _nb_at_origin(delta, y, inv_s, j2, g):
    """The triplet event-mixed bracket times g from the series at small (d, z)."""
    ratio = x_over_expm1(-delta)  # d / (1 - J^2)
    return inv_s * _nb_series(delta, y * y) * ratio * ratio / j2 * g


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


def _mixture(dp, sigma, f, split, scale):
    """(num, den): the singlet/triplet mixtures of the scaled brackets.

    num weighs the coincidence brackets by 1 - f and f, den the
    event-mixed ones by (1 - f)^2, f^2 and 2 f (1 - f). Grids longer than
    two blocks go through the kernel _BLOCK points at a time along the
    last axis; each point's arithmetic is the same either way.
    """
    terms = (f,) + _per_point(split / sigma, f)
    y = dp / sigma
    y = np.broadcast_to(y, np.broadcast_shapes(np.shape(y), np.shape(terms[1]), np.shape(f)))
    n = y.shape[-1] if y.ndim else 1
    if n <= 2 * _BLOCK:
        return _mixture_block(scale, y, *terms)
    num, den = np.empty(y.shape), np.empty(y.shape)
    for lo in range(0, n, _BLOCK):
        cut = np.s_[..., lo : lo + _BLOCK]
        parts = (t[cut] if np.shape(t)[-1:] == (n,) else t for t in terms)
        num[cut], den[cut] = _mixture_block(scale, y[cut], *parts)
    return num, den


def _mixture_block(scale, y, f, delta, j2, j4, jh, om, em2, em54, w0, w1, w2):
    """_mixture on one block of y, with f and the _per_point terms cut to match."""
    bc0, bc1, bu0, bu1, buc = _reduced_brackets(delta, y, j2, j4, jh, om, em2, em54, scale)
    num = (1.0 - f) * bc0 + f * bc1
    # brackets may be inf for enormous splitting; sum only terms whose
    # weight is nonzero (f*f can underflow) so 0 * inf cannot poison it
    den = 0.0
    for coef, bracket in ((w0, bu0), (w1, bu1), (w2, buc)):
        live = np.count_nonzero(coef)
        if live == np.size(coef):
            den = den + coef * bracket
        elif live:
            with np.errstate(invalid="ignore"):
                den = den + np.where(coef != 0.0, coef * bracket, 0.0)
    return num, den


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
    num, den = _mixture(_check_delta_p(delta_p), sigma, f, split, _ratio_scale)
    return (2.0 * num / den - 1.0)[()]


def coincidence_intensity(delta_p, sigma, triplet_fraction, momentum_split, n_pairs=1.0):
    """True pair-coincidence intensity at relative momentum dp.

    Integrates the mixture pair density over all orientations of the
    relative momentum (full 4 pi) and over the absolute momentum scale,
    leaving a function of dp alone. Scales linearly with ``n_pairs``,
    which must be finite and >= 0.

    Returns values in (pair count) / (a.u. momentum) such that the
    integral over dp counts detected pairs.
    """
    sigma, f, split, n_pairs = _check_scalar_physical(
        sigma, triplet_fraction, momentum_split, n_pairs
    )
    dp = _check_delta_p(delta_p)
    num, _ = _mixture(dp, sigma, f, split, _intensity_scale)
    pref = n_pairs * dp * dp / (2.0 * _SQRT_PI * sigma**3)
    return (pref * num)[()]


def accidental_intensity(delta_p, sigma, triplet_fraction, momentum_split, n_pairs=1.0):
    """Event-mixed (accidental) pair intensity at relative momentum dp.

    Built from products of independently drawn single-particle spectra
    of the same mixture; this is the uncorrelated reference against
    which R is defined. Scales linearly with ``n_pairs``, which must be
    finite and >= 0.
    """
    sigma, f, split, n_pairs = _check_scalar_physical(
        sigma, triplet_fraction, momentum_split, n_pairs
    )
    dp = _check_delta_p(delta_p)
    _, den = _mixture(dp, sigma, f, split, _intensity_scale)
    pref = n_pairs * dp * dp / (4.0 * _SQRT_PI * sigma**3)
    return (pref * den)[()]


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
    """Evaluate R on a grid and bundle the result with its (validated) parameters."""
    params = (sigma, triplet_fraction, _split_magnitude(momentum_split))
    if any(np.ndim(v) for v in params):
        raise ValueError("parameters must be scalars here; correlation_R takes arrays of them")
    r = np.atleast_1d(correlation_R(delta_p, sigma, triplet_fraction, momentum_split))
    dp = np.atleast_1d(np.asarray(delta_p, dtype=float))
    return CorrelationCurve(dp, r, *(float(v) for v in params))
