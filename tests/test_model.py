"""Pair-state construction: densities, marginals, overlap, spreading."""

import dataclasses
import hashlib
import math

import mpmath
import numpy as np
import pytest

from paircorr.errors import DegenerateChannelError
from paircorr.model import (
    DEGENERACY_RATIO,
    ModelParams,
    SpinChannel,
    _fraction,
    _nonnegative,
    _positive,
    _sq_dists,
    _whole,
    coordinate_uncertainty,
    mixture_density,
    mixture_marginal,
    pair_amplitude,
)
from paircorr.oracle import _Workspace

mpmath.mp.dps = 50

PARAMS = ModelParams(
    sigma=0.5,
    p_split=(0.3, -0.1, 0.7),
    p_total=(0.2, 0.0, -0.4),
    triplet_fraction=0.3,
)


# a pure channel is the mixture at f = 0 (singlet) or f = 1 (triplet)
PURE_F = {SpinChannel.SINGLET: 0.0, SpinChannel.TRIPLET: 1.0}

# how near a density must stay to the same density by another rounding:
# an ulp or two of an exponent of size ~20 moves it by ~20 ulps, 4e-15
_NEAR = 1e-13


def _with_f(f, params=PARAMS):
    return dataclasses.replace(params, triplet_fraction=f)


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=1.0, size=(n, 3)), rng.normal(scale=1.0, size=(n, 3))


def test_density_is_time_independent():
    # |Psi|^2 from the explicit amplitude must match the closed-form
    # density at any evolution time: the free phases cancel exactly.
    p1, p2 = _random_points(60, 7)
    for channel, f in PURE_F.items():
        dens = mixture_density(p1, p2, _with_f(f))
        for t in (0.0, 1.0, 100.0):
            amp = pair_amplitude(p1, p2, PARAMS, channel, t=t)
            np.testing.assert_allclose(np.abs(amp) ** 2, dens, rtol=5e-13)


def test_density_exchange_symmetric():
    p1, p2 = _random_points(60, 11)
    for f in (0.0, 0.3, 1.0):
        a = mixture_density(p1, p2, _with_f(f))
        b = mixture_density(p2, p1, _with_f(f))
        np.testing.assert_array_equal(a, b)


def test_density_nonnegative():
    p1, p2 = _random_points(200, 13)
    for f in (0.0, 0.3, 1.0):
        assert np.all(mixture_density(p1, p2, _with_f(f)) >= 0.0)


def test_triplet_vanishes_on_diagonal():
    p1, _ = _random_points(20, 17)
    dens = mixture_density(p1, p1, _with_f(1.0))
    # p1 = p2 makes the antisymmetric combination vanish identically
    np.testing.assert_array_equal(dens, np.zeros(len(p1)))


def test_degenerate_triplet_refused():
    degen = ModelParams(sigma=1.0)
    assert degen.is_degenerate()
    p1, p2 = _random_points(4, 19)
    with pytest.raises(DegenerateChannelError):
        mixture_density(p1, p2, _with_f(1.0, degen))
    with pytest.raises(DegenerateChannelError):
        pair_amplitude(p1, p2, degen, SpinChannel.TRIPLET)
    with pytest.raises(DegenerateChannelError):
        mixture_density(p1, p2, _with_f(0.5, degen))
    # the singlet channel is fine at zero splitting
    assert np.all(np.isfinite(mixture_density(p1, p2, degen)))
    # barely above the threshold the triplet is accepted
    ok = ModelParams(sigma=1.0, p_split=2.0 * DEGENERACY_RATIO, triplet_fraction=1.0)
    assert not ok.is_degenerate()
    assert np.all(np.isfinite(mixture_density(p1, p2, ok)))


def test_mixture_density_is_convex_combination():
    p1, p2 = _random_points(30, 23)
    s = mixture_density(p1, p2, _with_f(0.0))
    t = mixture_density(p1, p2, _with_f(1.0))
    np.testing.assert_array_equal(mixture_density(p1, p2, _with_f(0.3)), 0.7 * s + 0.3 * t)
    # PARAMS carries f = 0.3
    np.testing.assert_array_equal(mixture_density(p1, p2, PARAMS), 0.7 * s + 0.3 * t)
    with pytest.raises(ValueError):
        _with_f(1.5)


def test_wavepacket_magnitude():
    # |phi|^2 is the normalized Gaussian (2 pi sigma^2)^{-3/2} e^{-d^2/(2 sigma^2)};
    # at zero splitting the singlet amplitude is the product phi(p1) phi(p2)
    # of two packets at the same center, so with p2 on the center
    # |amplitude|^2 = |phi(p1)|^2 (2 pi sigma^2)^{-3/2}
    sigma = 0.7
    center = np.array([0.1, -0.2, 0.3])
    params = ModelParams(sigma=sigma, p_total=2.0 * center)
    p, _ = _random_points(40, 29)
    amp = pair_amplitude(p, center, params, SpinChannel.SINGLET, t=3.0)
    d2 = np.sum((p - center) ** 2, axis=-1)
    norm = (2.0 * np.pi * sigma * sigma) ** -1.5
    want = norm * np.exp(-d2 / (2.0 * sigma * sigma)) * norm
    np.testing.assert_allclose(np.abs(amp) ** 2, want, rtol=1e-13)


def test_overlap_values():
    assert ModelParams(sigma=0.8).overlap() == 1.0
    # s^2 = 8 sigma^2 ln 2 gives overlap exactly 1/2
    sigma = 0.6
    split = math.sqrt(8.0 * sigma * sigma * math.log(2.0))
    params = ModelParams(sigma=sigma, p_split=split)
    assert params.overlap() == pytest.approx(0.5, rel=1e-15)
    # the split enters through its magnitude only
    tilted = ModelParams(sigma=sigma, p_split=(0.0, -split, 0.0))
    assert tilted.overlap() == params.overlap()


def test_coordinate_uncertainty():
    assert coordinate_uncertainty(1.0) == pytest.approx(0.5, rel=1e-15)
    assert coordinate_uncertainty(2.0, 0.0) == pytest.approx(0.25, rel=1e-15)
    # sigma = 1, t = 1: sqrt(1 + 4) / 2
    assert coordinate_uncertainty(1.0, 1.0) == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-15)
    # spreading is monotone in |t|
    ts = np.linspace(0.0, 10.0, 11)
    widths = coordinate_uncertainty(0.5, ts)
    assert widths.shape == ts.shape
    assert np.all(np.diff(widths) > 0.0)
    # sigma is a width and t a time: both are refused rather than
    # turned into a negative or infinite width
    for sigma, t in ((-1.0, 0.0), (0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            coordinate_uncertainty(sigma, t)
    with pytest.raises(ValueError):
        coordinate_uncertainty(0.5, np.array([0.0, np.inf]))


def test_marginal_zero_split_is_single_gaussian():
    # at s = 0 the singlet marginal collapses to one packet's density
    params = ModelParams(sigma=0.4, p_total=(0.6, -0.2, 0.1))
    p, _ = _random_points(50, 31)
    rho = mixture_marginal(p, params)
    sig2 = params.sigma**2
    d2 = np.sum((p - np.asarray(params.p_total) / 2.0) ** 2, axis=-1)
    want = (2.0 * np.pi * sig2) ** -1.5 * np.exp(-d2 / (2.0 * sig2))
    np.testing.assert_allclose(rho, want, rtol=1e-13)


def _mp_marginal(p, params, sign):
    """50-digit reference for the single-particle marginal."""
    c1, c2 = params.centers
    sig2 = mpmath.mpf(params.sigma) ** 2
    e1 = sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(p, c1)) / (4 * sig2)
    e2 = sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(p, c2)) / (4 * sig2)
    j = mpmath.e ** (-mpmath.mpf(params.split_magnitude) ** 2 / (8 * sig2))
    num = mpmath.e ** (-2 * e1) + mpmath.e ** (-2 * e2) + 2 * sign * j * mpmath.e ** (-e1 - e2)
    norm = (2 * mpmath.pi * sig2) ** mpmath.mpf("-1.5") / (2 * (1 + sign * j * j))
    return float(norm * num)


@pytest.mark.parametrize("split", [1e-6, 1e-5, 0.01, 0.5, 3.0, 10.0])
def test_marginal_matches_reference(split):
    # the triplet marginal divides a cancelling numerator by a cancelling
    # normalization; it must survive splittings all the way down to the
    # degeneracy threshold. At split = 1e-5 the exponent difference
    # e1 - e2 ~ 1e-5 is itself formed from O(1) exponents, which floors
    # the achievable accuracy near 1e-11; the tolerance reflects that.
    # split = 1e-6 sits near the degeneracy threshold, and split = 10 at
    # split/sigma = 20, where the overlap J ~ e^-50 leaves the squares alone.
    rel = 1e-9 if split < 1e-3 else 5e-12
    params = ModelParams(sigma=0.5, p_split=split, p_total=(0.1, 0.2, -0.3))
    pts = [(0.05, 0.1, -0.15), (0.0, 0.0, 0.0), (0.3, -0.4, 0.8)]
    for p in pts:
        for f, sign in ((0.0, 1), (1.0, -1)):
            got = float(mixture_marginal(np.array(p), _with_f(f, params)))
            want = _mp_marginal(p, params, sign)
            assert got == pytest.approx(want, rel=rel)


def test_mixture_marginal_is_convex_combination():
    p, _ = _random_points(25, 37)
    s = mixture_marginal(p, _with_f(0.0))
    t = mixture_marginal(p, _with_f(1.0))
    np.testing.assert_array_equal(mixture_marginal(p, _with_f(0.25)), 0.75 * s + 0.25 * t)
    np.testing.assert_array_equal(mixture_marginal(p, PARAMS), 0.7 * s + 0.3 * t)


def _sq_dist(p, c):
    """|p - c|^2 of component-first p, its squared components added in x, y, z order."""
    c = np.reshape(c, np.shape(c) + (1,) * (np.ndim(p) - np.ndim(c)))
    total = (p[0] - c[0]) * (p[0] - c[0])
    for k in (1, 2):
        total = total + (p[k] - c[k]) * (p[k] - c[k])
    return total


def _divided_densities(grid, point, params):
    """The pair density at (grid, point) and the marginal at grid, formed as they were
    before the stacked distances: distances to the absolute centres, exponents divided
    by 4 sigma^2, and each channel multiplied by its scale, then divided by its norm."""
    c1, c2 = params.centers
    p, q = grid.transpose(2, 0, 1), point
    sig2 = params.sigma**2
    ok = [(1.0 - params.triplet_fraction, 1.0), (params.triplet_fraction, -1.0)]

    def exchange(a, b, scale, one_minus_k):
        base, gap = np.exp(-2.0 * np.minimum(a, b)), np.abs(a - b)
        total = 0.0
        for w, sign in ((w, sign) for w, sign in ok if w != 0.0):
            comb = np.exp(-gap) if sign > 0 else np.expm1(-gap)
            cross = (comb + float(sign < 0)) * (-2.0 * sign * one_minus_k)
            comb = (comb + 1.0 if sign > 0 else comb) ** 2
            if one_minus_k:
                comb = comb + cross
            norm = params._channel_norms[SpinChannel.SINGLET if sign > 0 else SpinChannel.TRIPLET]
            total = total + comb * base * scale / norm * w
        return total

    a = (_sq_dist(p, c1) + _sq_dist(q, c2)) / (4.0 * sig2)
    b = (_sq_dist(p, c2) + _sq_dist(q, c1)) / (4.0 * sig2)
    pair = exchange(a, b, (2.0 * np.pi * sig2) ** -3.0, 0.0)
    e1, e2 = _sq_dist(p, c1) / (4.0 * sig2), _sq_dist(p, c2) / (4.0 * sig2)
    one_minus_j = -np.expm1(-params.split_magnitude**2 / (8.0 * sig2))
    return pair, exchange(e1, e2, (2.0 * np.pi * sig2) ** -1.5, one_minus_j)


def test_densities_are_frozen():
    # sha256 prefixes of the output bytes pin every bit, for a (4, 5, 3)
    # grid broadcast against one (3,) point either way: the densities
    # must add each squared distance in the order of a length-3 sum
    rng = np.random.default_rng(7)
    grid = rng.normal(scale=0.6, size=(4, 5, 3))
    point = np.array([0.25, -0.4, 0.15])

    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]

    # pure channels (f = 0 singlet, f = 1 triplet) of the pair density
    # and of the marginal, and the marginal of one mixture, at a total
    # momentum off zero and at P = 0, as (pin, old pin). The pins moved
    # when the densities came to multiply by 1/(4 sigma^2), to scale each
    # channel by one factor and to work on offsets from P/2. The old pins
    # hash _divided_densities, the arithmetic from before, bit for bit,
    # and the densities stay within rounding of it
    pins = {
        (0.1, 0.2, -0.3): (
            {0.0: ("41552dbb8f95f085", "d930783b71f8c311"), 1.0: ("a74995b1646f52bc", "e9a22be4938e425b")},
            {
                0.0: ("447d87f06bce88eb", "6d5beb444f764c87"),
                1.0: ("eb6f4148f4ba82a9", "7a9958cc285ac6d0"),
                0.3: ("fba0c1d258aff652", "c9fdbf3efcfff9fa"),
            },
        ),
        (0.0, 0.0, 0.0): (
            {0.0: ("76da94360acaf4d7", "de6bf7597467e848"), 1.0: ("b33aeec77659723d", "284d46ded3ff5b83")},
            {
                0.0: ("3c3c31734f31413f", "297b6f60eab7646f"),
                1.0: ("d9fccbb72b519580", "ed8fda4c53107c94"),
                0.3: ("1982046dfb3abe15", "d691ee915d0fc39d"),
            },
        ),
    }
    for total, (pair, mix) in pins.items():
        for f, (want, old) in mix.items():
            params = ModelParams(
                sigma=0.5,
                p_split=(0.3, -0.1, 0.7),
                p_total=total,
                triplet_fraction=f,
            )
            divided_pair, divided = _divided_densities(grid, point, params)
            if f in pair:
                dens = mixture_density(grid, point, params)
                assert digest(dens) == pair[f][0]
                assert digest(mixture_density(point, grid, params)) == pair[f][0]
                assert digest(divided_pair) == pair[f][1]
                np.testing.assert_allclose(dens, divided_pair, rtol=_NEAR, atol=0.0)
            marginal = mixture_marginal(grid, params)
            assert marginal.shape == (4, 5)
            assert digest(marginal) == want
            assert digest(divided) == old
            np.testing.assert_allclose(marginal, divided, rtol=_NEAR, atol=0.0)


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("split", [(0.0, 0.0, 0.7), (0.3, -0.1, 0.7), (0.3, 0.0, 0.7), (0.0, 0.0, 0.0)])
def test_sq_dists_are_the_sums_to_each_centre(split):
    # the stack is |p - c1|^2 and |p - c2|^2 at P = 0, bit for bit, with
    # a component shared by both centres squared once: on the axis, off
    # it, with one component shared between two apart, and at s = 0;
    # with and without a workspace, at the quadrature's (n, 1) x (1, n)
    # shapes, and through -0.0, infinities and NaN
    params = ModelParams(sigma=0.5, p_split=split)
    c1, c2 = params.centers
    half = params._halves[1]
    rng = np.random.default_rng(41)
    p = rng.normal(size=(3, 64))
    p[:, :6] = [[-0.0, 0.0, np.inf, -np.inf, np.nan, 1.0]] * 3
    p[1, 6:9] = (-0.0, np.inf, np.nan)
    work = _Workspace(64, 64)
    for got in (_sq_dists(p, half), _sq_dists(p, half, work, "sq")):
        assert got.shape == (2, 64)
        assert _bits(got[0]) == _bits(_sq_dist(p, c1))
        assert _bits(got[1]) == _bits(_sq_dist(p, c2))
    assert np.shares_memory(got, work.take("sq", 2))
    for shape in ((3, 16, 1), (3, 1, 16), (3,)):
        q = p[:, 6 : 6 + math.prod(shape[1:])].reshape(shape)
        got = _sq_dists(q, half)
        assert got.shape == (2,) + shape[1:]
        assert _bits(got[0]) == _bits(_sq_dist(q, c1)) and _bits(got[1]) == _bits(_sq_dist(q, c2))


def test_densities_work_on_offsets_from_half_the_total_momentum():
    # the densities see p and the centres (P +/- s)/2 only through p - P/2
    # and +/- s/2, and take those offsets before any distance, so at a
    # large P each equals its P = 0 value at p - P/2, bit for bit; formed
    # in absolute coordinates the marginal missed by up to 1.2e-5 at 1e12
    off = np.array([[0.1, 0.05, -0.2], [0.3, -0.25, 0.4], [-0.6, 0.1, 0.05]])
    for size in (1e4, 1e8, 1e12):
        total = size * np.array([1.0, 0.0, 1.0])
        far = ModelParams(sigma=0.5, p_split=(0.3, -0.1, 0.7), p_total=total, triplet_fraction=0.3)
        near = dataclasses.replace(far, p_total=(0.0, 0.0, 0.0))
        p = total / 2.0 + off
        q = total / 2.0 + off[::-1]
        shifted_p, shifted_q = p - total / 2.0, q - total / 2.0
        assert _bits(mixture_marginal(p, far)) == _bits(mixture_marginal(shifted_p, near))
        assert _bits(mixture_density(p, q, far)) == _bits(mixture_density(shifted_p, shifted_q, near))
        assert np.all(mixture_marginal(p, far) > 0.0)


def test_densities_refuse_momenta_not_of_three_components():
    # a last axis of 4 was read as its first three components, and one
    # of 2 raised IndexError; a scalar has no last axis at all
    params = ModelParams(sigma=0.5, p_split=(0.3, -0.1, 0.7), triplet_fraction=0.3)
    good = np.array([0.1, 0.2, 0.3])
    for bad in ([0.1, 0.2, 0.3, 99.0], [0.1, 0.2], np.zeros((4, 2)), 0.5):
        with pytest.raises(ValueError, match=r"\(\.\.\., 3\)"):
            mixture_marginal(bad, params)
        with pytest.raises(ValueError, match=r"\(\.\.\., 3\)"):
            mixture_density(bad, good, params)
        with pytest.raises(ValueError, match=r"\(\.\.\., 3\)"):
            mixture_density(good, bad, params)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma=0.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=-1.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, triplet_fraction=1.5)
    # densities are per emitted pair: there is no pair-count scale
    with pytest.raises(TypeError):
        ModelParams(sigma=1.0, n_pairs=1.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, p_split=(1.0, 2.0))
    # non-finite vectors and numbers, and array-valued scalar fields
    for bad in (
        dict(sigma=np.nan),
        dict(sigma=np.inf),
        dict(sigma=np.array([0.5, 0.6])),
        dict(sigma=1.0, p_split=np.nan),
        dict(sigma=1.0, p_split=(0.0, np.inf, 0.0)),
        dict(sigma=1.0, p_total=(np.nan, 0.0, 0.0)),
        dict(sigma=1.0, p_total=np.inf),
        dict(sigma=1.0, triplet_fraction=np.nan),
        dict(sigma=1.0, triplet_fraction=np.array([0.2, 0.4])),
    ):
        with pytest.raises(ValueError):
            ModelParams(**bad)


_RULES = {
    _positive: "positive and finite",
    _nonnegative: "finite and >= 0",
    _fraction: "in [0, 1]",
}
# value -> (_positive, _nonnegative, _fraction) accepts it
_VERDICTS = [
    (0.5, (True, True, True)),
    (1.0, (True, True, True)),
    (0.0, (False, True, True)),
    (-0.0, (False, True, True)),
    (5e-324, (True, True, True)),
    (-5e-324, (False, False, False)),
    (1.0 + 2.0**-52, (True, True, False)),
    (1.7e308, (True, True, False)),
    (np.nan, (False, False, False)),
    (np.inf, (False, False, False)),
    (-np.inf, (False, False, False)),
    (np.float64(-0.0), (False, True, True)),
    (np.array(0.25), (True, True, True)),
    (np.array(np.nan), (False, False, False)),
    (np.array([]), (True, True, True)),
    (np.zeros((0, 3)), (True, True, True)),
    (np.array([0.2, 0.9]), (True, True, True)),
    (np.array([-0.0, 0.5]), (False, True, True)),
    (np.array([0.5, np.nan]), (False, False, False)),
    (np.array([np.nan, np.inf]), (False, False, False)),
    (np.array([0.5, np.inf]), (False, False, False)),
    (np.array([-np.inf, 0.5]), (False, False, False)),
    (np.array([[0.5, 2.0], [3.0, 0.1]]), (True, True, False)),
]


@pytest.mark.parametrize("value, verdicts", _VERDICTS)
def test_range_validators(value, verdicts):
    # each validator checks an array by its least and greatest value; NaN
    # and infinities fail, -0.0 counts as >= 0, and an empty array passes
    for (check, rule), accepts in zip(_RULES.items(), verdicts):
        if accepts:
            got = check("x", value)
            if np.ndim(value):
                assert isinstance(got, np.ndarray) and got.dtype == float
                assert got.tobytes() == np.asarray(value, dtype=float).tobytes()
            else:
                assert isinstance(got, float)
                assert np.asarray(got).tobytes() == np.asarray(value, dtype=float).tobytes()
        else:
            with pytest.raises(ValueError) as err:
                check("x", value)
            assert str(err.value) == f"x must be {rule}, got {value}"


def test_whole_validator():
    assert _whole("n", 3, 1) == 3 and isinstance(_whole("n", 3.0, 1), int)
    assert _whole("n", np.array([]), 1).shape == (0,)
    np.testing.assert_array_equal(_whole("n", np.array([0.0, 4.0]), 0), [0.0, 4.0])
    for bad, minimum in ((2.5, 0), (0, 1), (np.nan, 0), (np.inf, 0), (-np.inf, 0), (np.array([1.0, 1.5]), 0)):
        with pytest.raises(ValueError, match=f"n must be a whole number >= {minimum}, got"):
            _whole("n", bad, minimum)


def test_params_vector_coercion():
    # a bare scalar splitting is placed along +z
    params = ModelParams(sigma=1.0, p_split=0.8)
    assert params.p_split == (0.0, 0.0, 0.8)
    assert params.split_magnitude == pytest.approx(0.8, rel=1e-15)
    c1, c2 = params.centers
    np.testing.assert_allclose(c1, [0.0, 0.0, 0.4])
    np.testing.assert_allclose(c2, [0.0, 0.0, -0.4])


def test_cached_scalars_stay_out_of_equality():
    # split_magnitude, centers and the channel norms are formed once per
    # parameter set; the cache is no field, so a used instance still
    # equals, hashes and prints as a fresh one, and its centers are
    # read-only, so no caller can change them for the next
    used = ModelParams(0.5, (0.3, -0.1, 0.7), (0.1, 0.2, -0.3), triplet_fraction=0.4)
    mixture_density(np.zeros(3), np.ones(3), used)
    mixture_marginal(np.zeros(3), used)
    fresh = ModelParams(0.5, (0.3, -0.1, 0.7), (0.1, 0.2, -0.3), triplet_fraction=0.4)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used.centers is used.centers
    for c in used.centers:
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 1.0
