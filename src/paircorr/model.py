"""Entangled two-electron momentum states built from Gaussian wavepackets.

A pair is emitted with total momentum P shared between two free-particle
Gaussian wavepackets whose centers are split by a relative momentum s:
one packet sits at (P + s)/2, the other at (P - s)/2, both with momentum
width sigma. The two-particle state is the symmetrized (spatially
symmetric, "singlet") or antisymmetrized ("triplet") combination. Units
are Hartree atomic units (hbar = m_e = 1) throughout.

The momentum-space pair density is stationary: the free-evolution phases
of the two exchange contributions cancel identically, which the test
suite checks by comparing |amplitude|^2 at several times against the
closed-form density. The coordinate-space width does spread with time;
``coordinate_uncertainty`` gives it.

Both densities take momenta of shape (..., 3), refuse any other last
axis, and share one exchange form: with a and b a density's two
exponents, lo = min(a, b) and x = e^{-|a - b|}, each channel is
e^{-2 lo} [(1 +/- x)^2 -/+ 2 (1 - k) x], with k = 1 for the pair density
(e^{-A/2} +/- e^{-B/2})^2 and k = J, the packets' overlap, for the
single-particle marginal g1 + g2 +/- 2 J sqrt(g1 g2).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError

__all__ = [
    "SpinChannel",
    "ModelParams",
    "pair_amplitude",
    "mixture_density",
    "mixture_marginal",
    "coordinate_uncertainty",
]

# Below this splitting-to-width ratio the antisymmetric combination is
# treated as vanishing and triplet states are refused.
DEGENERACY_RATIO = 1e-6


class SpinChannel(enum.Enum):
    """Exchange symmetry of the momentum-space pair state."""

    SINGLET = "singlet"  # symmetric combination, + sign
    TRIPLET = "triplet"  # antisymmetric combination, - sign

    @property
    def sign(self) -> float:
        return 1.0 if self is SpinChannel.SINGLET else -1.0


def _checked(name, value, ok, rule, each=None):
    """value as a float, or a float array for array input, once it passes.

    ok(lo, hi) tests the least and the greatest value, found in two
    reductions: a NaN makes both NaN, which fails every comparison, and
    an empty array (lo = inf, hi = -inf) passes. ``each``, where given,
    tests every value as well.
    """
    v = np.asarray(value, dtype=float)
    if v.ndim:
        lo, hi = v.min(initial=np.inf), v.max(initial=-np.inf)
    else:  # a reduction costs microseconds on one number
        lo = hi = float(v)
    if not ok(lo, hi) or (each is not None and not each(v).all()):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return float(v) if v.ndim == 0 else v


def _positive(name, value):
    return _checked(name, value, lambda lo, hi: lo > 0.0 and hi < np.inf, "positive and finite")


def _nonnegative(name, value):
    return _checked(name, value, lambda lo, hi: lo >= 0.0 and hi < np.inf, "finite and >= 0")


def _fraction(name, value):
    return _checked(name, value, lambda lo, hi: lo >= 0.0 and hi <= 1.0, "in [0, 1]")


def _whole(name, value, minimum):
    """value as an int once it is a whole number >= minimum; _set_scalars refuses arrays."""
    ok = lambda lo, hi: lo >= minimum and hi < np.inf  # noqa: E731
    v = _checked(name, value, ok, f"a whole number >= {minimum}", lambda v: v == np.floor(v))
    return v if np.ndim(v) else int(value)


def _set_scalars(obj, **checked):
    """Store checked values on the frozen dataclass obj; arrays are refused."""
    for name, value in checked.items():
        if np.ndim(value):
            raise ValueError(f"{name} must be a scalar, got {value!r}")
        object.__setattr__(obj, name, value)


def _as_vec3(value, name: str) -> tuple[float, float, float]:
    """Coerce a finite scalar (interpreted as +z magnitude) or 3-sequence to a tuple."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.array([0.0, 0.0, arr])
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a finite scalar or length-3 vector, got {value!r}")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class ModelParams:
    """Static parameters of one emission channel.

    Parameters
    ----------
    sigma : float
        Momentum width of each single-particle wavepacket, > 0 (a.u.).
    p_split : float or sequence of 3 floats
        Splitting momentum s between the two packet centers. A bare
        scalar is placed along +z.
    p_total : sequence of 3 floats, optional
        Total pair momentum P. Defaults to zero. Correlation
        observables are independent of it; densities are not.
    triplet_fraction : float, optional
        Probability f that an emitted pair is in the triplet channel,
        in [0, 1]. Defaults to 0 (pure singlet).
    """

    sigma: float
    p_split: tuple[float, float, float] = (0.0, 0.0, 0.0)
    p_total: tuple[float, float, float] = (0.0, 0.0, 0.0)
    triplet_fraction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p_split", _as_vec3(self.p_split, "p_split"))
        object.__setattr__(self, "p_total", _as_vec3(self.p_total, "p_total"))
        _set_scalars(
            self,
            sigma=_positive("sigma", self.sigma),
            triplet_fraction=_fraction("triplet_fraction", self.triplet_fraction),
        )

    # The per-parameter scalars below are cached properties: each takes
    # microseconds to form, and the oracles evaluate the densities block
    # by block. They live in the instance __dict__, not in fields, so
    # repr, equality and hashing ignore them.

    @functools.cached_property
    def split_magnitude(self) -> float:
        return float(np.linalg.norm(self.p_split))

    @functools.cached_property
    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Wavepacket centers ((P + s)/2, (P - s)/2) as read-only arrays."""
        p = np.asarray(self.p_total)
        s = np.asarray(self.p_split)
        centers = (p + s) / 2.0, (p - s) / 2.0
        for c in centers:
            c.flags.writeable = False
        return centers

    def overlap(self) -> float:
        """Overlap magnitude J = exp(-s^2 / (8 sigma^2)) of the two packets."""
        split, sigma = self.split_magnitude, self.sigma
        return float(np.exp(-(split * split) / (8.0 * sigma * sigma)))

    def is_degenerate(self) -> bool:
        return self.split_magnitude < DEGENERACY_RATIO * self.sigma

    @functools.cached_property
    def _channel_norms(self) -> dict:
        """{channel: its normalization 2 (1 +/- J^2)}.

        The triplet value is formed through expm1 rather than from the
        rounded overlap: near the degeneracy threshold 1 - J^2 is ~1e-12
        and subtracting a float J^2 from 1 would cost six digits.
        """
        j = self.overlap()
        arg = self.split_magnitude**2 / (4.0 * self.sigma**2)
        return {
            SpinChannel.SINGLET: 2.0 * (1.0 + j * j),
            SpinChannel.TRIPLET: -2.0 * float(np.expm1(-arg)),
        }


def coordinate_uncertainty(sigma, t=0.0):
    """Position-space width of one wavepacket after free evolution.

    Starts at the minimum-uncertainty value 1/(2 sigma) and spreads as
    sqrt(1 + 4 sigma^4 t^2) / (2 sigma). sigma must be positive and t finite.
    """
    sigma = np.asarray(_positive("sigma", sigma))
    t = np.asarray(_checked("t", t, lambda lo, hi: -np.inf < lo and hi < np.inf, "finite"))
    return np.sqrt(1.0 + 4.0 * sigma**4 * t * t) / (2.0 * sigma)


def _wavepacket(p, center, sigma, t=0.0):
    """Free Gaussian wavepacket at (..., 3) momenta p; t enters only through exp(-i p^2 t / 2)."""
    p = np.asarray(p, dtype=float)
    d2 = np.sum((p - np.asarray(center, dtype=float)) ** 2, axis=-1)
    p2 = np.sum(p * p, axis=-1)
    mag = (2.0 * np.pi * sigma * sigma) ** (-0.75) * np.exp(-d2 / (4.0 * sigma * sigma))
    return mag * np.exp(-0.5j * p2 * t)


def _require_nondegenerate(params: ModelParams, channel: SpinChannel):
    if channel is SpinChannel.TRIPLET and params.is_degenerate():
        raise DegenerateChannelError(
            "triplet pair state is degenerate: |p_split| = "
            f"{params.split_magnitude:g} < {DEGENERACY_RATIO:g} * sigma"
        )


def pair_amplitude(p1, p2, params: ModelParams, channel: SpinChannel, t=0.0):
    """Normalized symmetrized two-particle amplitude.

    (phi_a(p1) phi_b(p2) +/- phi_a(p2) phi_b(p1)) / sqrt(2 (1 +/- J^2))
    with the sign set by the channel. Raises DegenerateChannelError for
    a triplet with vanishing splitting momentum.

    The densities' independent reference: it works in absolute
    coordinates and subtracts the direct and exchanged products, so it
    keeps the rounding losses they avoid at small splitting and large P.
    """
    _require_nondegenerate(params, channel)
    c1, c2 = params.centers
    s = channel.sign
    direct = _wavepacket(p1, c1, params.sigma, t) * _wavepacket(p2, c2, params.sigma, t)
    exchanged = _wavepacket(p2, c1, params.sigma, t) * _wavepacket(p1, c2, params.sigma, t)
    return (direct + s * exchanged) / np.sqrt(params._channel_norms[channel])


def _components(p):
    """The (3, ...) component-first view of (..., 3) momenta; any other last axis is refused.

    A transpose, not np.moveaxis: the oracles call this once per block,
    and np.moveaxis costs several times as much a call.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (3,):
        raise ValueError(f"momenta must have shape (..., 3), got shape {p.shape}")
    return p.transpose(-1, *range(p.ndim - 1))


def _out(work, name):
    """The row called name of a Monte-Carlo worker's workspace, or None without one.

    As the out= of a ufunc, None makes a fresh result, so a core written
    with out=_out(work, ...) allocates when work is None and writes into
    reused rows of the current block length (oracle._Workspace.take) when
    it is given; the arithmetic is the same either way.
    """
    return None if work is None else work.take(name)


def _sq_dist(p, c, work=None, name="sq"):
    """|p - c|^2 of component-first p and c (c may lack trailing axes), summed as np.sum does.

    Row by row: each squared difference is added in place to the first,
    so no (3, ...) temporary is made. Augmented assignment keeps 0-d
    results working: on a NumPy scalar it rebinds instead of writing.
    The sum lands in work's row called name.
    """
    c = np.reshape(c, np.shape(c) + (1,) * (np.ndim(p) - np.ndim(c)))
    total = np.subtract(p[0], c[0], out=_out(work, name))
    total *= total
    for k in (1, 2):
        d = np.subtract(p[k], c[k], out=_out(work, "tmp"))
        d *= d
        total += d
    return total


def _channel_weights(f: float):
    """(weight, channel) pairs of the singlet/triplet mixture with weight 1 - f and f.

    A channel of weight zero is left out, so f = 0 and f = 1 give the
    pure channels exactly and a degenerate triplet is never touched.
    """
    pairs = ((1.0 - f, SpinChannel.SINGLET), (f, SpinChannel.TRIPLET))
    return [(w, channel) for w, channel in pairs if w != 0.0]


def _mixed(density, params: ModelParams):
    """Sum of weight * density(channel) over the mixture's channels.

    Each density(channel) is its own array, fresh or a workspace row of
    its channel, so the sum is formed in place in the first.
    """
    (w, channel), *rest = _channel_weights(params.triplet_fraction)
    total = density(channel)
    total *= w
    for w, channel in rest:
        part = density(channel)
        part *= w
        total += part
    return total


def _exchange(a, b, scale, one_minus_k, params: ModelParams, work=None):
    """The mixture of the exchange form (module docstring) times scale / norm over its channels.

    a and b are the exponents, both spent. The triplet's 1 - x goes through
    expm1 and the singlet takes away at most half its square, so neither
    cancels. Rows: the singlet b's, the triplet "sq", the cross term "tmp".
    """
    lo = np.minimum(a, b, out=_out(work, "lo"))
    lo *= -2.0
    a -= b
    base, gap = np.exp(lo, out=_out(work, "lo")), np.abs(a, out=_out(work, "a"))

    def density(channel: SpinChannel):
        _require_nondegenerate(params, channel)
        sign, row = channel.sign, _out(work, "b" if channel is SpinChannel.SINGLET else "sq")
        comb = (np.exp if sign > 0 else np.expm1)(np.negative(gap, out=row), out=row)
        if one_minus_k:  # x is the exp, or 1 + the expm1
            cross = np.add(comb, float(sign < 0), out=_out(work, "tmp"))
            cross *= -2.0 * sign * one_minus_k
        if sign > 0:
            comb += 1.0
        comb **= 2
        if one_minus_k:
            comb += cross
        comb *= base
        comb *= scale
        comb /= params._channel_norms[channel]
        return comb

    return _mixed(density, params)


def mixture_density(p1, p2, params: ModelParams, _work=None):
    """Incoherent singlet/triplet mixture of the pair densities |Psi(p1, p2)|^2.

    p1 and p2 have shape (..., 3) and broadcast together. Each channel
    is the exchange form at k = 1 on the direct and exchanged exponents
    A/2 and B/2, times (2 pi sigma^2)^-3 / (2 (1 +/- J^2)).
    ``params.triplet_fraction`` f weights the triplet channel; f = 0 and
    f = 1 are the pure channels, exactly. Any f > 0 requires a
    non-degenerate triplet state. Time independent: the free-evolution
    phases of the direct and exchanged terms cancel. Symmetric under
    p1 <-> p2 for every f. ``_work`` is private to the Monte-Carlo
    oracles: given their workspace, the result and every temporary are
    reused rows of it, valid until its next use.
    """
    c1, c2 = params.centers
    p1, p2 = _components(p1), _components(p2)
    sig2 = params.sigma * params.sigma
    # p1 and p2 broadcast in the sum, so it is written through out=
    a = np.add(_sq_dist(p1, c1, _work, "a"), _sq_dist(p2, c2, _work), out=_out(_work, "a"))
    a /= 4.0 * sig2
    b = np.add(_sq_dist(p1, c2, _work, "b"), _sq_dist(p2, c1, _work), out=_out(_work, "b"))
    b /= 4.0 * sig2
    return _exchange(a, b, (2.0 * np.pi * sig2) ** (-3.0), 0.0, params, _work)


def mixture_marginal(p, params: ModelParams, _work=None):
    """Single-particle momentum density at (..., 3) momenta p: the mixture's
    pair density integrated over the partner momentum.

    Each channel is the exchange form at k = J on the exponents e1 and
    e2 of the packet envelopes sqrt(g_i), times
    (2 pi sigma^2)^-1.5 / (2 (1 +/- J^2)). f = 0 and f = 1 are the pure
    singlet and triplet marginals, exactly. ``_work`` is private to the
    Monte-Carlo oracles, as in mixture_density.
    """
    c1, c2 = params.centers
    p = _components(p)
    sig2 = params.sigma * params.sigma
    e1 = _sq_dist(p, c1, _work, "a")  # exponent of sqrt(g1)
    e1 /= 4.0 * sig2
    e2 = _sq_dist(p, c2, _work, "b")
    e2 /= 4.0 * sig2
    one_minus_j = -np.expm1(-params.split_magnitude**2 / (8.0 * sig2))
    return _exchange(e1, e2, (2.0 * np.pi * sig2) ** (-1.5), one_minus_j, params, _work)
