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
"""

from __future__ import annotations

import enum
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
    n_pairs : float, optional
        Total pair yield scaling the mixture density and both
        intensities; an arbitrary positive cross-section scale.
    """

    sigma: float
    p_split: tuple[float, float, float] = (0.0, 0.0, 0.0)
    p_total: tuple[float, float, float] = (0.0, 0.0, 0.0)
    triplet_fraction: float = 0.0
    n_pairs: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p_split", _as_vec3(self.p_split, "p_split"))
        object.__setattr__(self, "p_total", _as_vec3(self.p_total, "p_total"))
        _set_scalars(
            self,
            sigma=_positive("sigma", self.sigma),
            triplet_fraction=_fraction("triplet_fraction", self.triplet_fraction),
            n_pairs=_positive("n_pairs", self.n_pairs),
        )

    @property
    def split_magnitude(self) -> float:
        return float(np.linalg.norm(self.p_split))

    @property
    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Wavepacket centers ((P + s)/2, (P - s)/2) as arrays."""
        p = np.asarray(self.p_total)
        s = np.asarray(self.p_split)
        return (p + s) / 2.0, (p - s) / 2.0

    def overlap(self) -> float:
        """Overlap magnitude J = exp(-s^2 / (8 sigma^2)) of the two packets."""
        split, sigma = self.split_magnitude, self.sigma
        return float(np.exp(-(split * split) / (8.0 * sigma * sigma)))

    def is_degenerate(self) -> bool:
        return self.split_magnitude < DEGENERACY_RATIO * self.sigma


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


def _channel_norm(params: ModelParams, sign: float) -> float:
    """Normalization 2 (1 + sign * J^2) of one channel.

    The triplet value is formed through expm1 rather than from the
    rounded overlap: near the degeneracy threshold 1 - J^2 is ~1e-12
    and subtracting a float J^2 from 1 would cost six digits.
    """
    if sign > 0:
        j = params.overlap()
        return 2.0 * (1.0 + j * j)
    arg = params.split_magnitude**2 / (4.0 * params.sigma**2)
    return -2.0 * float(np.expm1(-arg))


def pair_amplitude(p1, p2, params: ModelParams, channel: SpinChannel, t=0.0):
    """Normalized symmetrized two-particle amplitude.

    (phi_a(p1) phi_b(p2) +/- phi_a(p2) phi_b(p1)) / sqrt(2 (1 +/- J^2))
    with the sign set by the channel. Raises DegenerateChannelError for
    a triplet with vanishing splitting momentum.
    """
    _require_nondegenerate(params, channel)
    c1, c2 = params.centers
    s = channel.sign
    direct = _wavepacket(p1, c1, params.sigma, t) * _wavepacket(p2, c2, params.sigma, t)
    exchanged = _wavepacket(p2, c1, params.sigma, t) * _wavepacket(p1, c2, params.sigma, t)
    return (direct + s * exchanged) / np.sqrt(_channel_norm(params, s))


def _components(p):
    """The (3, ...) component-first view of (..., 3) momenta."""
    return np.moveaxis(np.asarray(p, dtype=float), -1, 0)


def _sq_dist(p, c):
    """|p - c|^2 of component-first p and c (c may lack trailing axes), summed as np.sum does."""
    d = p - np.reshape(c, np.shape(c) + (1,) * (np.ndim(p) - np.ndim(c)))
    d = d * d
    return d[0] + d[1] + d[2]


def _pair_density_kernel(p1, p2, c1, c2, sigma, sign):
    """Unnormalized pair density (e^{-A/2} +/- e^{-B/2})^2 (2 pi sigma^2)^-3.

    A/2 and B/2 are the direct and exchanged Gaussian exponents. The
    antisymmetric difference is written through expm1 so it stays
    accurate when the two exponents nearly coincide. Component-wise:
    p1, p2, c1 and c2 are component-first, (3, ...) with p[k] the k-th
    component, and broadcast together as _sq_dist does.
    """
    return _exchange_combination(*_exchange_exponents(p1, p2, c1, c2, sigma), sigma, sign)


def _exchange_exponents(p1, p2, c1, c2, sigma):
    """(e^{-2 lo}, gap) of the exponents A/2 and B/2: lo the smaller, gap |A/2 - B/2|.

    They do not depend on the channel, so channels that share their
    packets share them.
    """
    sig2 = sigma * sigma
    a2 = (_sq_dist(p1, c1) + _sq_dist(p2, c2)) / (4.0 * sig2)
    b2 = (_sq_dist(p1, c2) + _sq_dist(p2, c1)) / (4.0 * sig2)
    lo = np.minimum(a2, b2)
    gap = np.abs(a2 - b2)
    return np.exp(-2.0 * lo), gap


def _exchange_combination(base, gap, sigma, sign):
    """The pair-density kernel of one channel from its _exchange_exponents."""
    sig2 = sigma * sigma
    if sign > 0:
        comb = base * (1.0 + np.exp(-gap)) ** 2
    else:
        comb = base * np.expm1(-gap) ** 2
    return comb * (2.0 * np.pi * sig2) ** (-3.0)


def _pair_density(p1, p2, params: ModelParams, channel: SpinChannel):
    """Joint momentum density |Psi(p1, p2)|^2 of one spin channel at (..., 3) momenta."""
    _require_nondegenerate(params, channel)
    c1, c2 = params.centers
    s = channel.sign
    kern = _pair_density_kernel(_components(p1), _components(p2), c1, c2, params.sigma, s)
    return kern / _channel_norm(params, s)


def _channel_weights(f: float):
    """(weight, channel) pairs of the singlet/triplet mixture with weight 1 - f and f.

    A channel of weight zero is left out, so f = 0 and f = 1 give the
    pure channels exactly and a degenerate triplet is never touched.
    """
    pairs = ((1.0 - f, SpinChannel.SINGLET), (f, SpinChannel.TRIPLET))
    return [(w, channel) for w, channel in pairs if w != 0.0]


def _mixed(density, params: ModelParams):
    """Sum of weight * density(channel) over the mixture's channels."""
    first, *rest = (w * density(c) for w, c in _channel_weights(params.triplet_fraction))
    return sum(rest, first)


def mixture_density(p1, p2, params: ModelParams):
    """Incoherent singlet/triplet mixture of the pair densities |Psi(p1, p2)|^2.

    p1 and p2 have shape (..., 3) and broadcast together.
    ``params.triplet_fraction`` f weights the triplet channel; f = 0 and
    f = 1 are the pure channels, exactly. Any f > 0 requires a
    non-degenerate triplet state. Time independent: the free-evolution
    phases of the direct and exchanged terms cancel. Symmetric under
    p1 <-> p2 for every f.
    """
    return _mixed(lambda channel: _pair_density(p1, p2, params, channel), params)


def _marginal(p, params: ModelParams):
    """channel -> its single-particle density at component-first p, sharing e1, e2, cross.

    Closed form: [g1 + g2 +/- 2 J sqrt(g1 g2)] / (2 (1 +/- J^2)) times
    the Gaussian normalization, with g_i the squared packet envelopes.
    The triplet numerator is assembled from two non-negative pieces,
    (sqrt(g1) - sqrt(g2))^2 + 2 (1 - J) sqrt(g1 g2), so no cancellation
    occurs for small splitting.
    """
    c1, c2 = params.centers
    sig2 = params.sigma**2
    e1 = _sq_dist(p, c1) / (4.0 * sig2)  # exponent of sqrt(g1)
    e2 = _sq_dist(p, c2) / (4.0 * sig2)
    cross = np.exp(-(e1 + e2))  # sqrt(g1 g2)

    def rho(channel: SpinChannel):
        _require_nondegenerate(params, channel)
        if channel is SpinChannel.SINGLET:
            num = np.exp(-2.0 * e1) + np.exp(-2.0 * e2) + 2.0 * params.overlap() * cross
        else:
            lo = np.minimum(e1, e2)
            diff2 = (np.exp(-lo) * np.expm1(-np.abs(e1 - e2))) ** 2
            one_minus_j = -np.expm1(-params.split_magnitude**2 / (8.0 * sig2))
            num = diff2 + 2.0 * one_minus_j * cross
        norm = (2.0 * np.pi * sig2) ** (-1.5) / _channel_norm(params, channel.sign)
        return norm * num

    return rho


def mixture_marginal(p, params: ModelParams):
    """Single-particle momentum density at (..., 3) momenta p: the mixture's
    pair density integrated over the partner momentum.

    f = 0 and f = 1 are the pure singlet and triplet marginals, exactly.
    """
    return _mixed(_marginal(_components(p), params), params)
