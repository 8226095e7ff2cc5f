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
serves every entry point. It returns five brackets, none of which
depends on f: the singlet and triplet coincidence brackets bc0 and bc1,
and the event-mixed ones bu0 (singlet squared), bu1 (triplet squared)
and buc (cross). f enters only afterwards, when the brackets are mixed
into the ratio's numerator and denominator,

    num = (1 - f) bc0 + f bc1,
    den = (1 - f)^2 bu0 + f^2 bu1 + 2 f (1 - f) buc,   R = 2 num/den - 1,

where a den term whose weight is 0 is left out, so that an inf bracket
cannot turn den into nan. The kernel runs on the broadcast of
(dp, sigma, split) alone, so a call with an f axis of its own pays for
the brackets once and for the mix once per f. Each entry point builds
only the brackets behind what it returns: correlation_R all five,
coincidence_intensity bc0 and bc1, and accidental_intensity the three
event-mixed ones plus bc1, which buc holds. The brackets come from
cancellation-free primitives, the coincidence ones reduced by
sinh(z)/z and the event-mixed ones by J^2 sinh(z)/z, so R stays finite
even where J^2 or z/sinh(z) underflow on their own. The one genuinely
cancelling bracket, bu1, takes one factored form below
d/4 + z/2 = 2.5, exact for every d from 0 up (see N_B below), and the
plain sum of decaying exponentials past it. At tiny d (below the
smallest normal double, where 1 - J^2 is subnormal or 0) bc1 takes its
exact form A(z) y^2 with d / (1 - J^2) at its limit 1. _regimes labels
each point with the form that serves it. The intensities are the same
brackets times the envelope g1 = e^{-y^2/4} J^2 sinh(z)/z. The
event-mixed brackets carry a term eds = z/sinh(z) / J^2, and g1 eds is
e^{-y^2/4} exactly; the kernel takes that product as one factor,
because past d = 700 (_SATURATED_DELTA) g1 underflows while eds
overflows. One selector, _fill, picks every form, from a mask with one
flag per point or per parameter row; each form runs only on the points
it serves (a form that serves every point, as in each of the fitter's
calls, runs on the whole grid without gathering them). Parameter rows
that share one split ratio share one set of split terms, taken as
scalars, with no per-row mask. Each entry point runs whole per block:
on grids longer than two blocks, y = dp/sigma, the brackets, the mix
and the entry point's finishing step (2 num/den - 1 for R, dp^2 / (c
sigma^3) times its half for an intensity, on the block's sigma) go
_BLOCK points at a time into one output array, so the temporaries stay
in cache and none is grid-sized. Per block, e^{-z} and expm1(-2z) are
computed once, and inv_sinhc(z) and the envelope's x/expm1(x) at
x = -2z are both formed from them; sech(z/2), which only the event-mixed
brackets take, comes from sech itself. A block drops each array once
it is dead, builds bu1's factored form (its largest set of
temporaries) before any other event-mixed bracket, mixes into the
brackets in place where they have the output's shape, and makes no
placeholder for a form that serves every point, which keeps its heap
peak near the size of a 1e5-point output (at most ~1 MB). glibc
returns the heap top to the system once it exceeds twice the largest
freed mmapped chunk (there, the output's size); below that, what a
call frees stays mapped for the next call instead of being faulted
back in. None of this changes any point's arithmetic.
Against 50-digit references (in the tests), R is within 5e-15 relative
to 1 + R below the plain switch, and the tests' full scan reads 4e-14
at worst, at a d = 701 row. The intensities add the rounding of their
envelope's exponent y^2/4 before exp, about 2^-52 y^2/4 relative.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from ._stable import _SINHC_M1_COEFS, _expm1, _horner, _ratio, inv_sinhc, sech
from ._stable import one_minus_inv_sinhc, sinhc_m1, x_over_expm1  # noqa: F401  # wrapped by name in perfbench/tracing.py
from .model import _fraction, _nonnegative, _positive

__all__ = [
    "coincidence_intensity",
    "accidental_intensity",
    "correlation_R",
    "correlation_curve",
    "CorrelationCurve",
]

_SQRT_PI = math.sqrt(math.pi)

# Below the smallest normal double, 1 - J^2 (= d to first order) keeps
# only the handful of bits a subnormal can hold, so ratios against it
# wobble at the 1e-4 level; the exact d -> 0 limit is closer than that
# by hundreds of orders of magnitude.
_TINY_DELTA = 2.2250738585072014e-308

# The triplet event-mixed bracket
#   N_B(d, z) = 1 + 2 e^{-2d} + e^{-d} sinh(z)/z - 8 e^{-5d/4} sinh(z/2)/z
# vanishes to second order at the origin. Below the plain switch it is
# taken in a factored form that holds exactly for every d >= 0:
#   N_B inv_sinhc / d^2 = y^2 (y^2 Zq(z) + k1 A(z) + k2 B(z)) + C(d)
# with y^2 = z^2/d, A = (1 - inv_sinhc)/z^2, B = (1 - sech(z/2))/z^2,
# Zq = inv_sinhc Z(z)/z^4, k1 = -2 (e^{-2d} - 1)/d, k2 = 4 (e^{-5d/4} - 1)/d
# and C = c(d)/d^2, c(d) = 2 expm1(-2d) + expm1(-d) - 4 expm1(-5d/4).
# k1, k2 and C are per-split scalars. Of the rest, only k1 A + k2 B
# cancels, ~16x, and never dominates the sum; A loses ~25 ulp just
# above z = 0.5, and Zq ~1e-14 at its z = 1.75 seam.
# z-only part of N_B: Z(z) = 3 + sinh(z)/z - 8 sinh(z/2)/z
#                          = sum_{k>=2} (1 - 4^{1-k}) z^{2k} / (2k+1)!
_Z_COEFS = tuple((1.0 - 4.0 ** (1 - k)) / float(math.factorial(2 * k + 1)) for k in range(2, 10))
_Z_SWITCH = 1.75
# C = c(d)/d^2 = sum_{n>=2} (-1)^n (2^{n+1} + 1 - 5^n/4^{n-1}) d^{n-2} / n!,
# the form C takes below d = 0.2 (truncation < 1e-19); past it c(d),
# which cancels its O(d) terms, loses at most ~20x to rounding
_C_COEFS = tuple((-1) ** n * (2.0 ** (n + 1) + 1.0 - 5.0**n / 4.0 ** (n - 1)) / math.factorial(n) for n in range(2, 17))
# The series of A and Zq take z^2 of z clamped to at least 2^-30, which
# keeps them off subnormal z^2 (~40x slower); exact in those series alone
_Z_FLOOR = 2.0**-30
_SERIES_FLAT = 2.0**-26
# Past d/4 + z/2 = _PLAIN_SWITCH the plain combination of decaying
# exponentials is cancellation-free (its one subtracted term is at most
# 8 e^{-(d/4 + z/2)} ~ 0.66 of the positive part) and exact.
_PLAIN_SWITCH = 2.5
# Points per kernel call along the dp axis of long grids: a block's float
# temporaries fit a 2 MiB L2 cache (best of a sweep over 2k-32k points).
# The block bounds fix the sign of the NaN that R takes at zero splitting
# where dp/sigma overflows, so a new size changes those bytes.
_BLOCK = 8192
# Past this d, the saturated regime: J^2 sinh(z)/z underflows while eds
# overflows, so eds comes from _eds_saturated, with the exponentials
# combined, and the intensities take g1 * eds as e^{-y^2/4} whole.
_SATURATED_DELTA = 700.0
# The largest split/sigma whose square is finite; _split_terms refuses more.
_MAX_SPLIT_RATIO = math.sqrt(sys.float_info.max)


def _check_physical(sigma, triplet_fraction, momentum_split):
    """Validated (sigma, f, s), each a float, or a float array where given as one."""
    return (
        _positive("sigma", sigma),
        _fraction("triplet_fraction", triplet_fraction),
        _nonnegative("momentum_split", momentum_split),
    )


def _scalars(*params):
    """params, refused where one is an array: correlation_curve's rule."""
    if any(np.ndim(v) for v in params):
        raise ValueError("parameters must be scalars here; correlation_R takes arrays of them")
    return params


def _check_delta_p(delta_p):
    return np.asarray(_nonnegative("delta_p", delta_p), dtype=float)


def _split_terms(q):
    """Scalars of one split-to-width ratio q = split/sigma.

    Returns d = q^2/4, J^2 = e^{-d}, J^4, J^{1/2} = e^{-d/4}, 1 - J^2,
    then the factored N_B's k1, k2, C and (d/(1 - J^2))^2 / J^2, each
    at its d -> 0 limit where d is 0, the last inf where J^2 underflows.
    k1 and k2 are ratios over the rounded arguments of their expm1, as
    1.25 d rounds at subnormal d. Raises ValueError for q above
    _MAX_SPLIT_RATIO (~1.34e154), where q^2 overflows, and for q = inf.
    """
    if not q <= _MAX_SPLIT_RATIO:
        raise ValueError(
            f"momentum_split / sigma must be at most {_MAX_SPLIT_RATIO:.4g}, where its"
            f" square overflows; got {q:g}"
        )
    delta = q**2 / 4.0
    j2 = math.exp(-delta)
    om = -math.expm1(-delta)  # 1 - J^2, exactly 0 at d = 0
    x2, x54 = -2.0 * delta, -1.25 * delta
    em2, em54 = math.expm1(x2), math.expm1(x54)
    c = _horner(_C_COEFS, delta) if delta < 0.2 else (2.0 * em2 - om - 4.0 * em54) / delta / delta
    k1 = 4.0 * (em2 / x2 if delta else 1.0)  # -2 (e^{-2d} - 1) / d
    k2 = -5.0 * (em54 / x54 if delta else 1.0)  # 4 (e^{-5d/4} - 1) / d
    ratio = delta / om if delta else 1.0  # d / (1 - J^2)
    fac = ratio * ratio / j2 if j2 else math.inf
    return delta, j2, math.exp(-2.0 * delta), math.exp(-0.25 * delta), om, k1, k2, c, fac


def _per_point(q):
    """_split_terms of q, per parameter point; f enters only in _mix.

    NumPy's vector exp and expm1 may differ from libm in the last bit, so
    the split terms come from libm, once per distinct q (a fit with
    p_tilde tied to 0.1 sigma has at most three, the values 0.1 sigma /
    sigma rounds to). Where every q of a batched call is one value, as
    in most of the fitter's calls, the split terms come back as floats,
    so the kernel takes no per-row broadcasts or masks; an empty q gives
    empty arrays. Each row of a batched call so takes the split terms of
    the one-parameter call, bit for bit. A scalar q gives floats, an
    array q float arrays of its shape.
    """
    if not np.ndim(q):
        return _split_terms(q)
    if q.size and (q == q.flat[0]).all():
        return _split_terms(q.flat[0].item())
    distinct, where = np.unique(q.ravel(), return_inverse=True)
    table = np.array([_split_terms(v) for v in distinct.tolist()]).reshape(-1, 9)
    return tuple(np.take(table.T, where.reshape(q.shape), axis=1))


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

    Only correlation_R takes this scale, and it always builds den, so
    ``mixed`` holds on every call.
    """
    eds = _fill(z.shape, delta <= _SATURATED_DELTA, np.divide, inv_s, j2)
    return 1.0, _fill(eds, delta > _SATURATED_DELTA, _eds_saturated, delta, z)


def _intensity_scale(delta, y, z, inv_s, j2, x, em, mixed):
    """(g1, g1 * eds): the envelope g1 = e^{-y^2/4} J^2 sinh(z)/z and e^{-y^2/4}.

    Times g1 the brackets are the intensity pieces. g1 is evaluated as
    e^{z - y^2/4 - d} (1 - e^{-2z}) / (2z), and g1 * eds exactly as
    e^{-y^2/4}, so past d = _SATURATED_DELTA, where g1 underflows and
    eds overflows, the eds terms keep their value instead of turning
    into 0 * inf.
    (2z) / (1 - e^{-2z}) is x_over_expm1(x) at x = -2z, formed from the
    block's x and em = expm1(x). g1 * eds enters only the event-mixed
    brackets, so it is None unless ``mixed``.
    """
    w = 0.25 * y * y
    return np.exp(z - w - delta) / _ratio(x, em), (np.exp(-w) if mixed else None)


def _bc1(delta, y, z, inv_s, om, g, a, small):
    """The triplet coincidence bracket (1 - inv_sinhc(z)) / (1 - J^2), times g.

    ``a`` holds A(z) on the ``small`` points, z < 0.5. At tiny d, where
    1 - J^2 is subnormal or 0, the bracket is A(z) y^2 g, its exact form
    with d / (1 - J^2) at its limit 1. num weighs it by f, and den's
    cross bracket holds it.
    """
    bc1 = _fill(z.shape, delta >= _TINY_DELTA, _bc1_over_om, z, inv_s, om, g, a, small)
    return _fill(bc1, delta < _TINY_DELTA, lambda z, i, y, g: _a(z, i) * (y * g) * y, z, inv_s, y, g)


def _bc1_over_om(z, inv_s, om, g, a, small):
    """(1 - inv_sinhc(z)) / (1 - J^2) times g; below z = 0.5 as A z (z / (1 - J^2)), exact where z^2 underflows."""
    return _fill((1.0 - inv_s) / om, small, lambda a, z, om: a * z * (z / om), a, z, om) * g


def _a(z, inv_s):
    """A(z) = (1 - inv_sinhc(z)) / z^2; below z = 0.5 from the series of sinh(z)/z - 1."""
    small = z < 0.5
    a = _fill(z.shape, ~small, lambda z, i: (1.0 - i) / (z * z), z, inv_s)
    return _fill(a, small, lambda z, i: _series(_SINHC_M1_COEFS, z, i), z, inv_s)


def _series(coefs, z, inv_s):
    """inv_s times sum_k coefs[k] z^{2k}, on z^2 of z clamped to at least _Z_FLOOR.

    Below z = 2^-26 each term past the first is under half an ulp of it
    (for the series of A and Zq), so where all of z lies there (every
    point at tiny d) the sum is coefs[0] bit for bit, without Horner steps.
    """
    if (z.max(initial=0.0) if z.ndim else float(z)) < _SERIES_FLAT:
        return inv_s * coefs[0]
    z2 = np.maximum(z, _Z_FLOOR)
    z2 *= z2
    return inv_s * _horner(coefs, z2)


def _event_mixed(g, ge, bc1, a, near, y, z, inv_s, j2, j4, jh, om, k1, k2, c, fac):
    """The event-mixed brackets (singlet^2 bu0, triplet^2 bu1, cross buc).

    Each is divided by J^2 sinh(z)/z and multiplied by the g of the
    scale; every eds term is written with ge = g * eds, never as g
    times eds.
    """
    sh = sech(0.5 * z)
    # N_B * inv_sinhc / (J^2 (1 - J^2)^2): the factored form on the near
    # points, below the plain switch, at every d. It takes the most
    # temporaries, so it runs first, while no other bracket is alive
    bu1 = _fill(z.shape, near, _nb_factored, y, z, inv_s, sh, a, g, k1, k2, c, fac)
    # bu0 and the plain form of N_B share these two terms
    ends = (1.0 + 2.0 * j4) * ge + g
    mid = 4.0 * jh * sh * g
    del sh
    # divide by om twice, not by om * om: for d below ~1e-154 the square
    # underflows to zero while the staged quotient stays exact
    bu1 = _fill(bu1, ~near, lambda e, m, om: (e - m) / om / om, ends, mid, om)
    op = 1.0 + j2
    bu0 = (ends + mid) / (op * op)
    del ends, mid
    # the cross bracket's constant part factors exactly:
    # (1 - J^4) - J^2 (1 - J^2) = (1 - J^2)(1 + 2 J^2), cancelling om
    return bu0, bu1, ((1.0 + 2.0 * j2) * ge + bc1) / op


def _nb_factored(y, z, inv_s, sh, a, g, k1, k2, c, fac):
    """The same bracket in the factored form, [y^2 (y^2 Zq + k1 A + k2 B) + C] fac, times g.

    The sum is nested in y^2 as written: k1 A + k2 B turns negative
    near z = 3, so y^4 Zq + y^2 (k1 A + k2 B) would be inf - inf where
    y^2 Zq overflows. g enters with the first y, so that where the
    envelope underflows the bracket is 0, not 0 * inf.
    B = (1 - sech(z/2)) / z^2 is taken as sech(z/2)^4 / (4 inv_s^2 (1 + sech(z/2))).
    """
    small = z < _Z_SWITCH
    # Zq = inv_sinhc Z / z^4: by the Z series below 1.75, above it from
    # inv_sinhc Z = 3 inv_sinhc + 1 - 4 sech(z/2)
    zq = _fill(z.shape, ~small, lambda i, sh, z: (3.0 * i + 1.0 - 4.0 * sh) / (z * z) ** 2, inv_s, sh, z)
    zq = _fill(zq, small, lambda i, z: _series(_Z_COEFS, z, i), inv_s, z)
    b = (sh * sh / inv_s) ** 2 / (4.0 * (1.0 + sh))
    return ((y * g) * y * (y * y * zq + (k1 * a + k2 * b)) + c * g) * fac


def _eds_saturated(delta, z):
    """inv_sinhc(z) / J^2 past d = _SATURATED_DELTA, with the exponentials combined.

    e^{d - z} saturating to inf is the intended limit.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        safe = np.where(z == 0.0, 1.0, z)
        grown = -2.0 * safe * np.exp(delta - safe) / np.expm1(-2.0 * safe)
        return np.where(z == 0.0, np.exp(delta), grown)


def _mixture(dp, sigma, f, split, scale, finish, halves=("num", "den")):
    """finish(y, sigma, *h), y = dp/sigma, for the halves h named in ``halves``, of (num, den), in that order.

    The kernel builds only the brackets behind the halves asked for, on
    the broadcast of (dp, sigma, split) alone: no bracket depends on f.
    _mix then weighs them into the halves on the full shape, and
    ``finish``, the entry point's per-point step, takes the halves to its
    result. So an f axis of its own costs the kernel nothing.
    Grids longer than two blocks go through y = dp/sigma, the kernel, the
    mix and finish _BLOCK points at a time along the last axis, into one
    output array; each point's arithmetic is the same either way.
    """
    q = split / sigma
    terms = _per_point(q)
    # the brackets' shape, and the output's
    inner = np.broadcast_shapes(np.shape(dp), np.shape(sigma), np.shape(q))
    shape = inner if isinstance(f, float) else np.broadcast_shapes(inner, f.shape)
    # each bracket is a fresh array of the output's shape: mix in place
    in_place = bool(inner) and inner == shape
    n = shape[-1] if shape else 1
    if n <= 2 * _BLOCK:
        y = np.broadcast_to(dp / sigma, inner)
        return finish(y, sigma, *_mix(halves, f, _mixture_block(scale, halves, y, *terms), in_place))
    out = np.empty(shape)
    args = (dp, sigma, f, *terms)
    # which arguments run along the grid, and so are cut per block
    along = [np.shape(a)[-1:] == (n,) for a in args]
    for lo in range(0, n, _BLOCK):
        cut = np.s_[..., lo : lo + _BLOCK]
        dp_cut, sigma_cut, f_cut, *terms_cut = (a[cut] if c else a for a, c in zip(args, along))
        width = out[cut].shape[-1:] if inner[-1:] == (n,) else inner[-1:]
        y = np.broadcast_to(dp_cut / sigma_cut, inner[:-1] + width)
        # no name for the brackets or the halves, which would keep them
        # alive into the next block
        out[cut] = finish(y, sigma_cut, *_mix(halves, f_cut, _mixture_block(scale, halves, y, *terms_cut), in_place))
    return out


# _mix's product and sum, each written into its second operand
_INTO_SECOND = (lambda a, b: np.multiply(a, b, b), lambda a, b: np.add(a, b, b))


def _mix(halves, f, brackets, in_place):
    """The halves from the brackets of _mixture_block, weighed by f: the one place f enters.

    num = (1 - f) bc0 + f bc1 and den = (1 - f)^2 bu0 + f^2 bu1 +
    2 f (1 - f) buc, each summed in that order; den's weights are formed
    only where den is built. They are exact products but for (1 - f)^2:
    libm pow and x * x disagree in the last bit on about 1 f in 1,000,
    and float_power, unlike power, calls pow for scalars and arrays
    alike, so each row of a batched call is bitwise equal to the
    one-parameter call. A den term whose weight is 0 stays out of den:
    brackets may be inf for enormous splitting and f*f can underflow,
    and 0 * inf would poison it. With ``in_place`` (the brackets are
    arrays of the output's shape, which nothing else holds) each product
    and sum is written into its second operand, a bracket the mix
    consumes, so the mix makes no new array; otherwise they are plain
    operators, which keep NumPy's scalar warnings on 0-d values.
    """
    mul, add = _INTO_SECOND if in_place else (operator.mul, operator.add)
    mixed = []
    for half, b in zip(halves, brackets):
        if half == "num":
            mixed.append(add(mul(1.0 - f, b[0]), mul(f, b[1])))
            continue
        den = 0.0
        for coef, bracket in zip((np.float_power(1.0 - f, 2.0), f * f, 2.0 * f * (1.0 - f)), b):
            if isinstance(coef, float):  # one weight: the term is all in or all out
                live, size = coef != 0.0, 1
            else:
                live, size = np.count_nonzero(coef), coef.size
            if live == size:
                den = add(den, mul(coef, bracket))
            elif live:
                with np.errstate(invalid="ignore"):
                    den = den + np.where(coef != 0.0, coef * bracket, 0.0)
        mixed.append(den)
    return mixed


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


def _mixture_block(scale, halves, y, delta, j2, j4, jh, om, k1, k2, c, fac):
    """The brackets behind the halves of _mixture on one block of y, with the _split_terms cut to match.

    For each half named in ``halves`` a tuple: (bc0, bc1), the singlet
    and triplet coincidence brackets divided by sinh(z)/z, for num;
    (bu0, bu1, buc), the event-mixed ones divided by J^2 sinh(z)/z, for
    den. Each is multiplied by the g of ``scale`` (``_ratio_scale`` or
    ``_intensity_scale``). With g = 1 their mixtures enter
    R = 2 num/den - 1 directly. Reducing the denominator by the extra
    J^2 keeps the ratio well defined even where J^2 or z/sinh(z)
    underflow on their own: the lone growing factor e^{d - z} appears
    explicitly, and where it overflows the true R has already pinned to
    -1, which the inf propagates to exactly.

    ``delta`` and the rest of ``_split_terms`` are scalars or arrays per
    parameter point; ``y`` has the brackets' broadcast shape.
    """
    z, x, em, inv_s = _z_terms(delta, y)
    g, ge = scale(delta, y, z, inv_s, j2, x, em, "den" in halves)
    del x, em  # dead from here; see the heap note in the module docstring
    small = z < 0.5
    # the points of den that the factored form of N_B serves
    near = _near(delta, z) if "den" in halves else None
    # A(z) only where it is taken: by bc1 below z = 0.5 and by the factored N_B
    a = _fill(z.shape, small if near is None else small | near, _a, z, inv_s)
    bc1 = _bc1(delta, y, z, inv_s, om, g, a, small)
    brackets = {}
    if "den" in halves:
        brackets["den"] = _event_mixed(g, ge, bc1, a, near, y, z, inv_s, j2, j4, jh, om, k1, k2, c, fac)
    del ge, a, small, near
    if "num" in halves:
        bc0 = 1.0 + inv_s
        bc0 /= 1.0 + j2
        bc0 *= g
        brackets["num"] = (bc0, bc1)
    return tuple(brackets[h] for h in halves)


def _near(delta, z):
    """Where the factored form of N_B serves: below d/4 + z/2 = _PLAIN_SWITCH."""
    return z < 2.0 * _PLAIN_SWITCH - 0.5 * delta


# Labels of _regimes: the form that serves a point, plus a flag where bc1
# takes its tiny-d form
_FACTORED, _PLAIN, _SATURATED, _TINY = 0, 1, 2, 4


def _regimes(delta_p, sigma, split):
    """A small-int label per point of the broadcast of (delta_p, sigma, split): which regime serves it.

    _FACTORED where the factored N_B serves (``_near``), _SATURATED past
    d = _SATURATED_DELTA, where eds takes its saturated form, and
    _PLAIN elsewhere; _TINY is added where d is below _TINY_DELTA and
    bc1 takes its exact tiny-d form. The labels come from the kernel's
    own switches and its z = sqrt(d) dp/sigma. No entry point calls
    this, so it costs them nothing.
    """
    sigma, _, split = _check_physical(sigma, 0.0, split)
    delta = _per_point(split / sigma)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # z is inf or NaN where y overflows, as in the kernel
        z = np.sqrt(delta) * (_check_delta_p(delta_p) / sigma)
    form = np.where(delta > _SATURATED_DELTA, _SATURATED, np.where(_near(delta, z), _FACTORED, _PLAIN))
    return (form + np.where(delta < _TINY_DELTA, _TINY, 0)).astype(np.int8)


def _finish_R(y, sigma, num, den):
    """R from the halves of one block."""
    return 2.0 * num / den - 1.0


def _finish_intensity(factor):
    """An intensity's per-point step, dp^2 half / (factor sqrt(pi) sigma^3), without dp^2 or sigma^3 to overflow."""
    return lambda y, sigma, half: y * half * y / (factor * _SQRT_PI * sigma)


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
    momentum_split : float or array_like
        Magnitude |s| of the splitting momentum between the packet
        centers, >= 0; an array holds one magnitude per element. Pass
        ``ModelParams.split_magnitude`` for a vector.

    Array-valued parameters broadcast against delta_p, so an (m, 1)
    column of each with an n-point grid evaluates m curves in one call;
    each row equals the one-parameter call bit for bit. Only the mix of
    the brackets depends on f, so f on an axis of its own, e.g. sigma
    and momentum_split as (m, 1, 1) columns and f as a (1, k, 1) axis,
    runs the bracket kernel on m rows and costs k times only the mix.
    Rows that share one split ratio momentum_split / sigma share one set
    of split terms.

    Returns
    -------
    ndarray or float
        R evaluated elementwise, >= -1 everywhere. At dp = 0 and at
        zero splitting the analytic limits are returned (the pure
        triplet gives exactly -1 at dp = 0; a pure singlet with zero
        splitting gives exactly 0).

    Raises
    ------
    ValueError
        For a parameter out of its range, and where momentum_split /
        sigma exceeds sqrt of the largest double, ~1.34e154 (or is
        inf): d = (split/sigma)^2/4 overflows there. The intensities
        refuse the same points, and take and broadcast the same
        parameter arrays.
    """
    sigma, f, split = _check_physical(sigma, triplet_fraction, momentum_split)
    return _mixture(_check_delta_p(delta_p), sigma, f, split, _ratio_scale, _finish_R)[()]


def coincidence_intensity(delta_p, sigma, triplet_fraction, momentum_split):
    """True pair-coincidence intensity at relative momentum dp, per emitted pair.

    Integrates the mixture pair density over all orientations of the
    relative momentum (full 4 pi) and over the absolute momentum scale,
    leaving a function of dp alone, whose integral over dp is 1.
    Parameters and their arrays are those of correlation_R.
    """
    sigma, f, split = _check_physical(sigma, triplet_fraction, momentum_split)
    return _mixture(_check_delta_p(delta_p), sigma, f, split, _intensity_scale, _finish_intensity(2.0), ("num",))[()]


def accidental_intensity(delta_p, sigma, triplet_fraction, momentum_split):
    """Event-mixed (accidental) pair intensity at relative momentum dp, per emitted pair.

    Built from products of independently drawn single-particle spectra
    of the same mixture; this is the uncorrelated reference against
    which R is defined. Its integral over dp is 1. Parameters and their
    arrays are those of correlation_R.
    """
    sigma, f, split = _check_physical(sigma, triplet_fraction, momentum_split)
    return _mixture(_check_delta_p(delta_p), sigma, f, split, _intensity_scale, _finish_intensity(4.0), ("den",))[()]


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
    """Evaluate R on a grid and bundle the result with its (validated) parameters.

    correlation_R validates every value; this adds only the rule that
    the parameters are scalars.
    """
    params = _scalars(sigma, triplet_fraction, momentum_split)
    r = np.atleast_1d(correlation_R(delta_p, sigma, triplet_fraction, momentum_split))
    dp = np.atleast_1d(np.asarray(delta_p, dtype=float))
    return CorrelationCurve(dp, r, *(float(v) for v in params))
