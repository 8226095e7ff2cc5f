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
    _whole,
    coordinate_uncertainty,
    mixture_density,
    mixture_marginal,
    pair_amplitude,
)

mpmath.mp.dps = 50

PARAMS = ModelParams(
    sigma=0.5,
    p_split=(0.3, -0.1, 0.7),
    p_total=(0.2, 0.0, -0.4),
    triplet_fraction=0.3,
)


# a pure channel is the mixture at f = 0 (singlet) or f = 1 (triplet)
PURE_F = {SpinChannel.SINGLET: 0.0, SpinChannel.TRIPLET: 1.0}


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


@pytest.mark.parametrize("split", [1e-5, 0.01, 0.5, 3.0])
def test_marginal_matches_reference(split):
    # the triplet marginal divides a cancelling numerator by a cancelling
    # normalization; it must survive splittings all the way down to the
    # degeneracy threshold. At split = 1e-5 the exponent difference
    # e1 - e2 ~ 1e-5 is itself formed from O(1) exponents, which floors
    # the achievable accuracy near 1e-11; the tolerance reflects that.
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
    # and of the marginal, and the marginal of one mixture
    pair = {0.0: "d930783b71f8c311", 1.0: "e9a22be4938e425b"}
    rho = {0.0: "13ae51df20d6ebde", 1.0: "f487fddeb5f282cf"}
    mix = {**rho, 0.3: "67298e2b91bcee4b"}
    for f, want in mix.items():
        params = ModelParams(
            sigma=0.5,
            p_split=(0.3, -0.1, 0.7),
            p_total=(0.1, 0.2, -0.3),
            triplet_fraction=f,
            n_pairs=2.5,
        )
        if f in pair:
            assert digest(mixture_density(grid, point, params)) == pair[f]
            assert digest(mixture_density(point, grid, params)) == pair[f]
        assert mixture_marginal(grid, params).shape == (4, 5)
        assert digest(mixture_marginal(grid, params)) == want


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma=0.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=-1.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, triplet_fraction=1.5)
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, n_pairs=0.0)
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
        dict(sigma=1.0, n_pairs=np.inf),
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
