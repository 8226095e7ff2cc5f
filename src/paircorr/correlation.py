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
serves every entry point, in two parts: the coincidence brackets, whose
mixture is the ratio's numerator, and the event-mixed brackets, whose
mixture is its denominator. Each entry point builds only the brackets
behind what it returns: correlation_R both parts, coincidence_intensity
the coincidence part alone, and accidental_intensity the event-mixed
part plus the one coincidence bracket (the triplet one) that its cross
term holds. The brackets come from cancellation-free primitives, with
the numerator reduced by sinh(z)/z and the denominator by
J^2 sinh(z)/z, so R stays finite even where J^2 or z/sinh(z) underflow
on their own; the one genuinely cancelling bracket (the triplet
event-mixed term) switches to a bivariate series in (d, y^2) below
d = 1e-4, z = 0.05. At tiny d (below the smallest normal double, where
1 - J^2 is subnormal or 0) the same brackets take their d -> 0 limits:
the series at d = 0, and y^2/6 for the triplet coincidence bracket. The
intensities are the same brackets times the envelope
g1 = e^{-y^2/4} J^2 sinh(z)/z. The event-mixed brackets carry a term
eds = z/sinh(z) / J^2, and g1 eds is e^{-y^2/4} exactly; the kernel
takes that product as one factor, because past d = 700 g1 underflows
while eds overflows. One selector, _fill, picks every form, from a mask
with one flag per point or per parameter row; each form runs only on
the points it serves (a form that serves every point, as in each of the
fitter's calls, runs on the whole grid without gathering them). Each
entry point runs whole per block: on grids longer than two blocks,
y = dp/sigma, the brackets and the entry point's finishing step
(2 num/den - 1 for R, n_pairs dp^2 times a constant times its half for
an intensity) go _BLOCK points at a time into one output array, so the
temporaries stay in cache and none is grid-sized. Per block, e^{-z} and
expm1(-2z) are computed once, and inv_sinhc(z) and the envelope's
x/expm1(x) at x = -2z are both formed from them; sech(z/2), which only
the event-mixed brackets take, comes from sech itself. A block drops
each array once it is dead and makes no placeholder for a form that
serves every point, which keeps its heap peak near the size of a
1e5-point output (at most ~1 MB). glibc returns the heap top to the
system once it exceeds twice the largest freed mmapped chunk (there,
the output's size); below that, what a call frees stays mapped for the
next call instead of being faulted back in. None of this changes any
point's arithmetic.
Worst-case relative error of the assembled forms is a few 1e-12 over
the full parameter domain (measured against 50-digit references in the
tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import _expm1, _ratio, _sinhc_m1_series, inv_sinhc, sech, x_over_expm1
from ._stable import one_minus_inv_sinhc, sinhc_m1  # noqa: F401  # wrapped by name in perfbench/tracing.py
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
# The block bounds fix the sign of the NaN that R takes at zero splitting
# where dp/sigma overflows, so a new size changes those bytes.
_BLOCK = 8192


def _horner(coefs, x):
    """Evaluate sum coefs[k] x^k with ascending coefficients (at least two)."""
    acc = coefs[-1] * x + coefs[-2]
    for c in coefs[-3::-1]:  # in place: no temporary per step
        acc *= x
        acc += c
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
    series = _horner(_Z_COEFS, z2)
    return z2 * z2 * series


def _mix_core(z, inv_s, sh):
    """inv_sinhc(z) * Z(z), stable at both ends.

    For small z the product of the Z series with inv_sinhc keeps full
    accuracy. For large z the algebraic identity
    inv_sinhc * Z = 3 inv_sinhc + 1 - 4 sech(z/2) takes over; its mild
    cancellation near the seam costs a few 1e-14.
    """
    small = z < _Z_SWITCH
    core = _fill(z.shape, ~small, lambda i, sh: 3.0 * i + 1.0 - 4.0 * sh, inv_s, sh)
    return _fill(core, small, lambda zs, i: i * _zfun(zs), z, inv_s)


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
    e^{-2d} - 1 and e^{-5d/4} - 1, then where the N_B series serves: the
    d it runs at and the largest z it takes (-inf, so none, past
    d = 1e-4). At tiny d it takes every z and runs at d = 0, where its d
    terms are below rounding anyway, so its arithmetic stays off subnormals.
    """
    delta = q**2 / 4.0
    tiny = delta < _TINY_DELTA
    return (
        delta,
        math.exp(-delta),
        math.exp(-2.0 * delta),
        math.exp(-0.25 * delta),
        -math.expm1(-delta),  # 1 - J^2, exactly 0 at d = 0
        math.expm1(-2.0 * delta),
        math.expm1(-1.25 * delta),
        0.0 if tiny else delta,
        math.inf if tiny else _SERIES_Z if delta <= _SERIES_DELTA else -math.inf,
    )


def _per_point(q, f):
    """_split_terms of q, then the denominator weights (1 - f)^2, f^2, 2 f (1 - f).

    NumPy's vector exp and expm1 may differ from libm in the last bit, so
    the split terms come from libm, once per distinct q (a fit with
    p_tilde tied to 0.1 sigma has only a few). The weights are exact
    products but for (1 - f)^2: libm pow and x * x disagree in the last
    bit on about 1 f in 1,000, and float_power, unlike power, calls
    pow for scalars and arrays alike. So each row of a batched call is
    bitwise equal to the one-parameter call. Scalars come back as
    floats, arrays as float arrays of the shape of q (split terms) or f
    (weights).
    """
    if np.ndim(q):
        distinct, where = np.unique(q.ravel(), return_inverse=True)
        table = np.array([_split_terms(v) for v in distinct.tolist()]).reshape(-1, 9)
        terms = tuple(np.take(table.T, where.reshape(q.shape), axis=1))
    else:
        terms = _split_terms(q)
    return terms + (np.float_power(1.0 - f, 2.0), f * f, 2.0 * f * (1.0 - f))


def _fill(out, mask, form, *args):
    """out, with form(*args) written where mask holds; form sees only those points.

    ``mask`` has one flag per point of ``out`` or one per parameter row
    (any shape that broadcasts against ``out``). Where it holds
    everywhere, form's own full-shape result comes back in place of out.
    ``out`` may be a shape instead, for the first of two fills whose
    masks split the points: the array is made only if this form serves
    some points but not all, so a form that serves every point leaves
    no unused array alive while it runs.
    """
    if not getattr(mask, "ndim", 0):  # one flag: every point or none
        return form(*args) if mask else out
    hits = np.count_nonzero(mask)
    if hits == mask.size:
        # every point selects the form (each of the fitter's calls does):
        # the args broadcast as they are, with no gather or scatter
        return form(*args)
    if hits:
        out = np.empty(out) if isinstance(out, tuple) else out
        # broadcast_to costs microseconds, so only per-row masks and args take it
        grow = lambda a: a if np.shape(a) == out.shape else np.broadcast_to(a, out.shape)  # noqa: E731
        mask = grow(mask)
        out[mask] = form(*(grow(a)[mask] if np.ndim(a) else a for a in args))
    return out


def _ratio_scale(delta, y, z, inv_s, j2, x, em, mixed):
    """(g, g * eds) = (1, eds), eds = inv_sinhc(z) / J^2: the brackets R uses.

    eds enters only the event-mixed brackets, so it is None unless ``mixed``.
    """
    if not mixed:
        return 1.0, None
    eds = _fill(z.shape, delta <= 700.0, np.divide, inv_s, j2)
    return 1.0, _fill(eds, delta > 700.0, _eds_saturated, delta, z)


def _intensity_scale(delta, y, z, inv_s, j2, x, em, mixed):
    """(g1, g1 * eds): the envelope g1 = e^{-y^2/4} J^2 sinh(z)/z and e^{-y^2/4}.

    Times g1 the brackets are the intensity pieces. g1 is evaluated as
    e^{z - y^2/4 - d} (1 - e^{-2z}) / (2z), and g1 * eds exactly as
    e^{-y^2/4}, so past d = 700, where g1 underflows and eds overflows,
    the eds terms keep their value instead of turning into 0 * inf.
    (2z) / (1 - e^{-2z}) is x_over_expm1(x) at x = -2z, formed from the
    block's x and em = expm1(x). g1 * eds enters only the event-mixed
    brackets, so it is None unless ``mixed``.
    """
    w = 0.25 * y * y
    return np.exp(z - w - delta) / _ratio(x, em), (np.exp(-w) if mixed else None)


def _bc1(delta, y, z, inv_s, om, g):
    """The triplet coincidence bracket (1 - inv_sinhc(z)) / (1 - J^2), times g.

    At tiny d, where 1 - J^2 is subnormal or 0, it takes its d -> 0
    limit y^2/6. num weighs it by f, and den's cross bracket holds it.
    """
    bc1 = _fill(z.shape, delta >= _TINY_DELTA, _bc1_over_om, z, inv_s, om, g)
    return _fill(bc1, delta < _TINY_DELTA, lambda y, g: y * y / 6.0 * g, y, g)


def _bc1_over_om(z, inv_s, om, g):
    """(1 - inv_sinhc(z)) / (1 - J^2) times g, through the series of sinh(z)/z - 1 below z = 0.5."""
    return _fill(1.0 - inv_s, z < 0.5, lambda zs, i: i * _sinhc_m1_series(zs * zs), z, inv_s) / om * g


def _event_mixed(g, ge, bc1, delta, y, z, inv_s, j2, j4, jh, om, em2, em54, d_ser, z_ser, w0, w1, w2):
    """den: the event-mixed brackets weighed by (1 - f)^2, f^2 and 2 f (1 - f).

    The brackets (singlet^2 bu0, triplet^2 bu1, cross buc) are divided
    by J^2 sinh(z)/z and multiplied by the g of the scale; every eds
    term is written with ge = g * eds, never as g times eds.
    """
    sh = sech(0.5 * z)
    op = 1.0 + j2
    # bu0 and the plain form of N_B below share these two terms
    ends = (1.0 + 2.0 * j4) * ge + g
    mid = 4.0 * jh * sh * g
    # each bracket joins den as soon as it is built, in the order bu0,
    # bu1, buc, so that few block-sized arrays are alive at once
    den = _weighed(0.0, w0, (ends + mid) / (op * op))
    # N_B * inv_sinhc / (J^2 (1 - J^2)^2): the series at the origin and
    # at every tiny d, the exponential forms elsewhere
    series = z <= z_ser
    bu1 = _fill(z.shape, ~series, _nb_away, delta, z, inv_s, sh, g, om, em2, em54, j2, ends, mid)
    del sh, ends, mid
    den = _weighed(den, w1, _fill(bu1, series, _nb_at_origin, d_ser, y, inv_s, j2, g))
    del bu1
    # the cross bracket's constant part factors exactly:
    # (1 - J^4) - J^2 (1 - J^2) = (1 - J^2)(1 + 2 J^2), cancelling om
    return _weighed(den, w2, ((1.0 + 2.0 * j2) * ge + bc1) / op)


def _weighed(den, coef, bracket):
    """den + coef * bracket, summing only where coef is nonzero.

    Brackets may be inf for enormous splitting and f*f can underflow, so
    a term whose weight is 0 stays out of den rather than let 0 * inf
    poison it.
    """
    live = np.count_nonzero(coef)
    if live == np.size(coef):
        return den + coef * bracket
    if live:
        with np.errstate(invalid="ignore"):
            return den + np.where(coef != 0.0, coef * bracket, 0.0)
    return den


def _nb_away(delta, z, inv_s, sh, g, om, em2, em54, j2, ends, mid):
    """N_B * inv_sinhc / (J^2 (1 - J^2)^2) times g off the origin, grouped or plain."""
    near = 0.25 * delta + 0.5 * z < _PLAIN_SWITCH
    # divide by om twice, not by om * om: for d below ~1e-154 the square
    # underflows to zero while the staged quotient stays exact
    bu1 = _fill(z.shape, ~near, lambda e, m, om: (e - m) / om / om, ends, mid, om)
    return _fill(bu1, near, _nb_grouped, z, inv_s, sh, g, om, em2, em54, j2)


def _nb_grouped(z, inv_s, sh, g, om, em2, em54, j2):
    """The same bracket in the grouped expm1 form."""
    core = _mix_core(z, inv_s, sh) + 2.0 * inv_s * em2 - om - 4.0 * em54 * sh
    return core / j2 * g / om / om


def _nb_at_origin(delta, y, inv_s, j2, g):
    """The same bracket from the series at small (d, z)."""
    ratio = x_over_expm1(-delta)  # d / (1 - J^2)
    return inv_s * _nb_series(delta, y * y) * ratio * ratio / j2 * g


def _eds_saturated(delta, z):
    """inv_sinhc(z) / J^2 past d = 700, with the exponentials combined.

    e^{d - z} saturating to inf is the intended limit.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        safe = np.where(z == 0.0, 1.0, z)
        grown = -2.0 * safe * np.exp(delta - safe) / np.expm1(-2.0 * safe)
        return np.where(z == 0.0, np.exp(delta), grown)


def _mixture(dp, sigma, f, split, scale, finish, halves=("num", "den")):
    """finish(dp, *h) for the halves h named in ``halves``, of (num, den), in that order.

    num weighs the coincidence brackets by 1 - f and f, den the
    event-mixed ones by (1 - f)^2, f^2 and 2 f (1 - f); the kernel
    builds only the brackets behind the halves asked for. ``finish`` is
    the entry point's per-point step from the halves to its result.
    Grids longer than two blocks go through y = dp/sigma, the kernel and
    finish _BLOCK points at a time along the last axis, into one output
    array; each point's arithmetic is the same either way.
    """
    terms = (f,) + _per_point(split / sigma, f)
    shape = np.broadcast_shapes(np.shape(dp), np.shape(sigma), np.shape(terms[1]), np.shape(f))
    n = shape[-1] if shape else 1
    if n <= 2 * _BLOCK:
        y = np.broadcast_to(dp / sigma, shape)
        return finish(dp, *_mixture_block(scale, halves, y, *terms))
    out = np.empty(shape)
    args = (dp, sigma) + terms
    # which arguments run along the grid, and so are cut per block
    along = [np.shape(a)[-1:] == (n,) for a in args]
    for lo in range(0, n, _BLOCK):
        cut = np.s_[..., lo : lo + _BLOCK]
        dp_cut, sigma_cut, *parts = (a[cut] if c else a for a, c in zip(args, along))
        y = dp_cut / sigma_cut
        block = out[cut]
        if y.shape != block.shape:
            y = np.broadcast_to(y, block.shape)
        block[...] = finish(dp_cut, *_mixture_block(scale, halves, y, *parts))
    return out


def _z_terms(delta, y):
    """z = sqrt(d) y, x = -2z, em = expm1(x) and inv_sinhc(z), on one e^{-z} and one expm1(-2z).

    inv_sinhc(z) and the intensity envelope's x_over_expm1(x) are both
    ``_ratio``s over em, as in ``_stable``, so each equals that function
    bit for bit. At d = 0, z holds NaN (0 * inf) where y overflowed, and
    inv_sinhc, which takes |z| first, runs whole: the sign of that NaN
    follows its own arithmetic.
    """
    z = np.sqrt(delta) * y
    x = -2.0 * z
    em = _expm1(x)
    inv_s = _ratio(x, em, np.exp(-z)) if np.all(delta) else inv_sinhc(z)
    return z, x, em, inv_s


def _mixture_block(scale, halves, y, f, delta, j2, j4, jh, om, em2, em54, d_ser, z_ser, w0, w1, w2):
    """The halves of _mixture on one block of y, with f and the _per_point terms cut to match.

    The brackets of num are the singlet and triplet coincidence brackets
    divided by sinh(z)/z, those of den the event-mixed ones divided by
    J^2 sinh(z)/z, each multiplied by the g of ``scale``
    (``_ratio_scale`` or ``_intensity_scale``). With g = 1 they enter
    R = 2 num/den - 1 directly. Reducing the denominator by the extra
    J^2 keeps the ratio well defined even where J^2 or z/sinh(z)
    underflow on their own: the lone growing factor e^{d - z} appears
    explicitly, and where it overflows the true R has already pinned to
    -1, which the inf propagates to exactly.

    ``delta`` and the rest of ``_split_terms`` are scalars or arrays per
    parameter point; ``y`` has the full broadcast shape.
    """
    z, x, em, inv_s = _z_terms(delta, y)
    g, ge = scale(delta, y, z, inv_s, j2, x, em, "den" in halves)
    del x, em  # dead from here; see the heap note in the module docstring
    bc1 = _bc1(delta, y, z, inv_s, om, g)
    # den first, so that num is not alive while den's larger set of
    # brackets is
    if "den" in halves:
        den = _event_mixed(g, ge, bc1, delta, y, z, inv_s, j2, j4, jh, om, em2, em54, d_ser, z_ser, w0, w1, w2)
        del ge
    if "num" in halves:
        num = (1.0 - f) * ((1.0 + inv_s) / (1.0 + j2) * g) + f * bc1
    return tuple(num if h == "num" else den for h in halves)


def _finish_R(dp, num, den):
    """R from the halves of one block."""
    return 2.0 * num / den - 1.0


def _finish_intensity(n_pairs, norm):
    """An intensity's per-point step: n_pairs dp^2 / norm times the half it returns."""
    return lambda dp, half: n_pairs * dp * dp / norm * half


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
    return _mixture(_check_delta_p(delta_p), sigma, f, split, _ratio_scale, _finish_R)[()]


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
    finish = _finish_intensity(n_pairs, 2.0 * _SQRT_PI * sigma**3)
    return _mixture(_check_delta_p(delta_p), sigma, f, split, _intensity_scale, finish, ("num",))[()]


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
    finish = _finish_intensity(n_pairs, 4.0 * _SQRT_PI * sigma**3)
    return _mixture(_check_delta_p(delta_p), sigma, f, split, _intensity_scale, finish, ("den",))[()]


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
