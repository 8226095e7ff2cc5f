"""Least-squares parameter recovery, fit guards, synthetic data."""

import itertools
import warnings

import numpy as np
import pytest

import paircorr.fitting
from paircorr.correlation import correlation_R
from paircorr.data import Dataset
from paircorr.errors import (
    InsufficientDataError,
    InsufficientSensitivityError,
    NonConvergenceError,
    UndefinedMetricError,
)
from paircorr.fitting import FitConfig, _bounds_arrays, _profile_starts, _sigma_range, fit, synthesize, approximation_error
from paircorr.model import ModelParams

TRUTH = ModelParams(sigma=0.22, p_split=0.022, triplet_fraction=0.5)
GRID = np.linspace(0.02, 1.1, 30)


def test_noiseless_recovery():
    # default config: sigma and f free, p_tilde tied to 0.1 sigma, which
    # matches how TRUTH was built
    data = synthesize(TRUTH, GRID)
    res = fit(data)
    assert res.converged
    assert abs(res.sigma - 0.22) / 0.22 < 1e-4
    assert abs(res.f - 0.5) < 1e-3
    assert res.objective < 1e-18
    assert sorted(res.estimates) == ["f", "sigma"]


def test_noiseless_single_parameter():
    data = synthesize(TRUTH, GRID)
    cfg = FitConfig(free=("sigma",), f=0.5, p_tilde=0.022, multistart_count=8)
    res = fit(data, cfg)
    assert abs(res.sigma - 0.22) / 0.22 < 1e-6
    assert res.objective < 1e-20


def test_noisy_recovery_is_reasonable():
    data = synthesize(TRUTH, GRID, noise_rel=0.10, rng_seed=7)
    res = fit(data)
    assert abs(res.sigma - 0.22) / 0.22 < 0.15
    assert abs(res.f - 0.5) < 0.15


def test_fit_is_deterministic():
    data = synthesize(TRUTH, GRID, noise_rel=0.05, rng_seed=11)
    assert fit(data) == fit(data)


def test_objective_trace_never_increases():
    data = synthesize(TRUTH, GRID, noise_rel=0.05, rng_seed=11)
    res = fit(data)
    trace = np.asarray(res.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert res.objective == trace[-1]
    assert 0 <= res.start_index < 16


def test_bounds_are_respected():
    # the optimum sigma = 0.22 lies outside the box, so the estimate
    # must park on the nearest bound
    data = synthesize(TRUTH, GRID)
    cfg = FitConfig(
        free=("sigma",), f=0.5, p_tilde=0.022, sigma_bounds=(0.6, 2.0), multistart_count=4
    )
    res = fit(data, cfg)
    assert res.sigma == 0.6
    assert res.converged


def test_insufficient_data_raises():
    with pytest.raises(InsufficientDataError):
        fit(Dataset(delta_p=(0.1, 0.2, 0.3), r=(0.1, 0.2, 0.1)))


def test_insensitive_configuration_raises():
    # f = 0 with p_tilde = 0 predicts R identically zero: no sigma
    # information in the data, whatever it looks like
    data = Dataset(
        delta_p=tuple(np.linspace(0.05, 1.0, 8)),
        r=tuple(0.1 * np.sin(np.arange(8) + 1.0)),
    )
    cfg = FitConfig(free=("sigma",), f=0.0, p_tilde=0.0, multistart_count=4)
    with pytest.raises(InsufficientSensitivityError):
        fit(data, cfg)


def test_nonconvergence_carries_best_effort():
    data = synthesize(TRUTH, GRID, noise_rel=0.10, rng_seed=7)
    cfg = FitConfig(multistart_count=1, max_iterations=1)
    with pytest.raises(NonConvergenceError) as excinfo:
        fit(data, cfg)
    best = excinfo.value.result
    assert best is not None
    assert not best.converged
    assert best.iterations == 1


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(free=("sigma", "sigma"))
    with pytest.raises(ValueError):
        FitConfig(free=("mass",))
    with pytest.raises(ValueError):
        FitConfig(free=())
    with pytest.raises(ValueError):
        FitConfig(sigma_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        FitConfig(f_bounds=(0.0, 1.5))
    with pytest.raises(ValueError):
        FitConfig(f=1.2)
    with pytest.raises(ValueError):
        FitConfig(multistart_count=0)
    # every fit is deterministic with no seed, and a seed is refused
    with pytest.raises(TypeError):
        FitConfig(rng_seed=0)
    for bad in (
        dict(sigma=np.nan),
        dict(sigma=np.inf),
        dict(f=np.nan),
        dict(p_tilde=np.nan),
        dict(p_tilde=np.inf),
        dict(p_tilde=-0.1),
        dict(sigma=np.array([0.5, 0.6])),
        # counts are whole numbers, refused rather than failing later
        # inside fit()
        dict(multistart_count=2.5),
        dict(max_iterations=2.5),
        dict(multistart_count=np.nan),
        dict(max_iterations=np.inf),
    ):
        with pytest.raises(ValueError):
            FitConfig(**bad)


def test_bounds_must_be_ordered():
    with pytest.raises(ValueError, match="ordered pair"):
        FitConfig(sigma_bounds=(2.0, 1.0))


def test_offset_data_approximation_error():
    # a constant offset c on otherwise perfect data gives exactly
    # 100 * sqrt(n c^2 / sum r^2) with uniform weights
    clean = synthesize(TRUTH, GRID)
    c = 0.05
    shifted = Dataset(delta_p=clean.delta_p, r=tuple(v + c for v in clean.r))
    robs = np.asarray(shifted.r)
    want = 100.0 * np.sqrt(len(shifted) * c * c / np.sum(robs * robs))
    got = approximation_error(shifted, TRUTH)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_approximation_error_undefined_for_zero_data():
    zeros = Dataset(delta_p=(0.1, 0.2), r=(0.0, 0.0))
    with pytest.raises(UndefinedMetricError):
        approximation_error(zeros, TRUTH)


def test_synthesize_noise_statistics():
    grid = np.linspace(0.01, 1.3, 1000)
    noise_rel = 0.08
    data = synthesize(TRUTH, grid, noise_rel=noise_rel, rng_seed=3)
    r_true = correlation_R(grid, TRUTH.sigma, TRUTH.triplet_fraction, TRUTH.split_magnitude)
    # multiplicative noise: (r/r_true - 1)/noise_rel recovers unit normals
    xi = (np.asarray(data.r) - r_true) / (r_true * noise_rel)
    assert abs(xi.std() - 1.0) < 0.1
    assert abs(xi.mean()) < 0.1
    # per-point uncertainty: noise_rel * |R| floored at 5% of the peak
    peak = np.max(np.abs(r_true))
    want = noise_rel * np.maximum(np.abs(r_true), 0.05 * peak)
    np.testing.assert_array_equal(np.asarray(data.sigma_r), want)
    assert data.label == "synthetic"


def test_synthesize_noise_free_is_exact():
    data = synthesize(TRUTH, GRID)
    r_true = correlation_R(GRID, TRUTH.sigma, TRUTH.triplet_fraction, TRUTH.split_magnitude)
    assert data.sigma_r is None
    np.testing.assert_array_equal(np.asarray(data.r), r_true)


def test_synthesize_seeding():
    a = synthesize(TRUTH, GRID, noise_rel=0.05, rng_seed=3)
    b = synthesize(TRUTH, GRID, noise_rel=0.05, rng_seed=3)
    c = synthesize(TRUTH, GRID, noise_rel=0.05, rng_seed=4)
    assert a == b
    assert a.r != c.r
    # a bad noise level is refused up front, not as a DataFormatError
    # from the noisy Dataset it would build
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            synthesize(TRUTH, GRID, noise_rel=bad)


# (sigma, noise seed) -> (sigma, f, objective), recorded from the serial
# per-start fitter on the acceptance-f datasets (f = 0.5, p_tilde =
# 0.1 sigma, 30 points on linspace(0.1 sigma, 5 sigma), 10 % noise).
# start_index is not pinned: several starts reach the same minimum and
# the winner among them turns on last-ulp differences in cost.
FROZEN_FITS = {
    (0.22, 0): (0.22001012136122466, 0.4943487953948979, 19.628457970936577),
    (0.39, 1011): (0.3906669746332832, 0.5063679708370914, 34.54115946015821),
    (0.55, 2016): (0.5488097954216121, 0.4907619813287965, 17.583196395237316),
}


def _acceptance_data(sigma, seed):
    truth = ModelParams(sigma=sigma, p_split=0.1 * sigma, triplet_fraction=0.5)
    grid = np.linspace(0.1 * sigma, 5.0 * sigma, 30)
    return synthesize(truth, grid, noise_rel=0.10, rng_seed=seed)


@pytest.mark.parametrize("key", sorted(FROZEN_FITS))
def test_frozen_fits(key):
    res = fit(_acceptance_data(*key))
    want = FROZEN_FITS[key]
    np.testing.assert_allclose((res.sigma, res.f, res.objective), want, rtol=1e-8, atol=0.0)


def _latin_starts(config: FitConfig, seed=0):
    """Latin-hypercube starts, one row per start: the reference the profile starts answer to.

    fit() drew its starts this way when p_tilde was free, from
    np.random.default_rng(seed): sigma log-uniform over _sigma_range,
    f uniform over its bounds and p_tilde uniform over [0, 2] clipped
    to its bounds, or over the bounds where the two do not meet.
    """
    rng = np.random.default_rng(seed)
    m = config.multistart_count
    columns = []
    for name in config.free:
        strata = (rng.permutation(m) + rng.random(m)) / m
        if name == "sigma":
            lo, hi = _sigma_range(config)
            columns.append(np.exp(np.log(lo) + strata * (np.log(hi) - np.log(lo))))
        elif name == "f":
            lo, hi = config.f_bounds
            columns.append(lo + strata * (hi - lo))
        else:
            lo, hi = config.p_tilde_bounds
            if lo < 2.0:
                hi = min(hi, 2.0)
            columns.append(lo + strata * (hi - lo))
    return np.stack(columns, axis=1)


def test_starts_converge_with_few_model_calls(monkeypatch):
    # On this dataset one of the two profile starts and eight of the 16
    # Latin-hypercube starts reach f = 0, and one Latin-hypercube start
    # reaches the lower sigma bound. Clipping a step solved for the free
    # system crawled along those bounds for all max_iterations (7,124
    # model calls per fit); holding the pinned parameter fixed lets
    # every start stop.
    data = _acceptance_data(0.55, 5)
    calls = []
    captured = []
    real_model = paircorr.fitting.correlation_R
    real_lm = paircorr.fitting._lm_lockstep

    def counted(*args):
        calls.append(np.shape(args[0]))
        return real_model(*args)

    def recorded(*args):
        out = real_lm(*args)
        captured.append((args, out))
        return out

    monkeypatch.setattr(paircorr.fitting, "correlation_R", counted)
    monkeypatch.setattr(paircorr.fitting, "_lm_lockstep", recorded)
    res = fit(data)
    (evaluate, _, lo, hi, config), (theta, _, converged, iterations, _, _) = captured[0]
    assert np.any(theta[:, 1] == 0.0)
    assert np.all(converged)
    assert np.all(iterations < config.max_iterations)
    assert res.converged
    # the profile grid is one call; then each round evaluates the damping
    # chains' trial points together with their Jacobian probes, and the
    # winner's curve from its accepted round serves both the residuals
    # and the approximation error
    assert len(calls) == res.model_calls <= 8

    calls.clear()
    starts = _latin_starts(config)
    theta, _, converged, iterations, _, _ = real_lm(evaluate, starts, lo, hi, config)
    assert np.sum(theta[:, 1] == 0.0) == 8
    assert np.sum(theta[:, 0] == lo[0]) == 1
    assert np.all(converged)
    assert np.all(iterations < config.max_iterations)
    assert len(calls) <= 27


# (sigma, noise seed, p_tilde tied, fixed at 0.1 sigma or free) -> the
# winner's sigma, f and objective as float.hex, its iterations and its
# objective trace, recorded from the lockstep fitter that evaluated one
# trial point per start and round: a change to how the rounds are
# batched must leave every accepted step bit for bit where it was. The
# p_tilde-free rows were recorded again when their starts moved from a
# Latin hypercube to the profile grid: each objective fell (by 9e-15,
# 1.4e-10 and 6e-15 relative), and the model calls went 254 -> 103,
# 255 -> 159 and 251 -> 20. They were recorded again when a free
# p_tilde began to descend in w = p_tilde^2: the objectives moved by
# +1.3e-15, -1.2e-15 and +2.6e-15 relative, and the model calls went
# 103 -> 9, 159 -> 8 and 20 -> 20.
EXACT_FITS = {
    (0.22, 0, "tied"): (
        "0x1.c294aaa2409d1p-3 0x1.fa3692178eb82p-2 0x1.3a0e29f20822fp+4",
        12,
        """
        0x1.521844b09bb40p+11 0x1.4f30f1ece08f7p+11 0x1.42cfa6d64cbacp+11
        0x1.30bf844fe79eep+11 0x1.a8d213451e6efp+10 0x1.082b465cfc762p+9
        0x1.855d3630cfec0p+5 0x1.3cecd16026e4ap+4 0x1.3a0ef9a790045p+4
        0x1.3a0e29f9d39cfp+4 0x1.3a0e29f2082e2p+4 0x1.3a0e29f20822fp+4
        """,
    ),
    (0.22, 0, "fixed"): (
        "0x1.c294af0007332p-3 0x1.fa369d36ab83fp-2 0x1.3a0e280cc21b3p+4",
        10,
        """
        0x1.4115993cb89acp+11 0x1.3809aef4eeb38p+11 0x1.18fb86057026ep+11
        0x1.8ccc3f018f0cbp+10 0x1.5370312ce8cefp+8 0x1.13fc26cf27268p+5
        0x1.3a1849d7a8665p+4 0x1.3a0e282a125e6p+4 0x1.3a0e280cc2258p+4
        0x1.3a0e280cc21b3p+4
        """,
    ),
    (0.22, 0, "free"): (
        "0x1.c2bc4674b1e15p-3 0x1.faff70494910bp-2 0x1.39cba24cf375ap+4",
        5,
        """
        0x1.c35855dfbe25ep+4 0x1.3ac6f2b4c4c17p+4 0x1.39cba2b524379p+4
        0x1.39cba24cf37e7p+4 0x1.39cba24cf375ap+4
        """,
    ),
    (0.39, 1011, "tied"): (
        "0x1.900b00def8426p-2 0x1.0342a9a566010p-1 0x1.14544b693d460p+5",
        5,
        """
        0x1.4ce4c77c1f15ap+7 0x1.14753190e1c09p+5 0x1.14544b6a0a3b3p+5
        0x1.14544b693d466p+5 0x1.14544b693d460p+5
        """,
    ),
    (0.39, 1011, "fixed"): (
        "0x1.900b2961b94b7p-2 0x1.03430975602b8p-1 0x1.1453d1b34b2e0p+5",
        12,
        """
        0x1.53d878e6bbfabp+11 0x1.5398ffef8c17ap+11 0x1.3cd39b8fd8bd2p+11
        0x1.0c40a410b6699p+11 0x1.51ce64f4c0f82p+10 0x1.5f734b87649bdp+8
        0x1.9b8c4b7b52a23p+5 0x1.1552efc725cd8p+5 0x1.145424818bb5dp+5
        0x1.1453d1b79b896p+5 0x1.1453d1b34b3bfp+5 0x1.1453d1b34b2e0p+5
        """,
    ),
    (0.39, 1011, "free"): (
        "0x1.902df9d2dea2cp-2 0x1.03a4718d05bd8p-1 0x1.13cffbfb245bap+5",
        7,
        """
        0x1.5c28a86ee933dp+6 0x1.2d172a62448acp+5 0x1.252a77bcebd63p+5
        0x1.13d08130ce718p+5 0x1.13cffbfb265e2p+5 0x1.13cffbfb245fbp+5
        0x1.13cffbfb245bap+5
        """,
    ),
    (0.55, 2016, "tied"): (
        "0x1.18fd98f65d8dfp-1 0x1.f68a4f108c188p-2 0x1.1954c5be4d12ep+4",
        4,
        """
        0x1.312f233340f5ep+4 0x1.1955a82af3cdcp+4 0x1.1954c5be51026p+4
        0x1.1954c5be4d12ep+4
        """,
    ),
    (0.55, 2016, "fixed"): (
        "0x1.18fd7e0fe6952p-1 0x1.f6896fdfe60e4p-2 0x1.1954df8ccddbcp+4",
        11,
        """
        0x1.39ed645c1d031p+11 0x1.24924e168adf1p+11 0x1.1772bbc26ae7ep+11
        0x1.64fa8328d43ffp+10 0x1.64b9e883ae5d6p+8 0x1.0de409616731ap+5
        0x1.1a3a810bfbf03p+4 0x1.19550406ae0a6p+4 0x1.1954df8d83172p+4
        0x1.1954df8ccddfdp+4 0x1.1954df8ccddbcp+4
        """,
    ),
    (0.55, 2016, "free"): (
        "0x1.19120bd7c3ac9p-1 0x1.f731511bd6d7ap-2 0x1.194b39d40890ep+4",
        9,
        """
        0x1.2c983c2a492fcp+4 0x1.194bcda85b1dfp+4 0x1.194b39d41abfep+4
        0x1.194b39d409fc0p+4 0x1.194b39d408dc7p+4 0x1.194b39d4089b3p+4
        0x1.194b39d408985p+4 0x1.194b39d408930p+4 0x1.194b39d40890ep+4
        """,
    ),
}


@pytest.mark.parametrize("key", sorted(EXACT_FITS))
def test_exact_fit_path(key):
    sigma, seed, kind = key
    config = {
        "tied": FitConfig(),
        "fixed": FitConfig(p_tilde=0.1 * sigma),
        "free": FitConfig(free=("sigma", "f", "p_tilde")),
    }[kind]
    res = fit(_acceptance_data(sigma, seed), config)
    estimates, iterations, trace = EXACT_FITS[key]
    assert " ".join(v.hex() for v in (res.sigma, res.f, res.objective)) == estimates
    assert res.iterations == iterations
    assert tuple(v.hex() for v in res.objective_trace) == tuple(trace.split())


def _noisy_case(rng, kind):
    """A noisy dataset with random truth and design, and a config of the given kind."""
    sigma = float(np.exp(rng.uniform(np.log(0.08), np.log(1.2))))
    f = float(rng.uniform(0.05, 0.95))
    p_tilde = float(rng.uniform(0.02, 0.5)) * sigma
    grid = np.linspace(0.1 * sigma, rng.uniform(2.0, 8.0) * sigma, rng.integers(8, 61))
    truth = ModelParams(sigma=sigma, p_split=p_tilde, triplet_fraction=f)
    with warnings.catch_warnings():
        # noise may push R below -1, which Dataset keeps with a warning
        warnings.simplefilter("ignore", UserWarning)
        data = synthesize(
            truth, grid, noise_rel=rng.uniform(0.05, 0.3), rng_seed=int(rng.integers(1 << 30))
        )
    config = {
        "tied": FitConfig(),
        "fixed": FitConfig(p_tilde=p_tilde),
        "sigma": FitConfig(free=("sigma",), f=f, p_tilde=p_tilde),
        "f": FitConfig(free=("f",), sigma=sigma, p_tilde=p_tilde),
        "free": FitConfig(free=("sigma", "f", "p_tilde")),
    }[kind]
    return data, config


def test_profile_starts_reach_the_latin_hypercube_optimum(monkeypatch):
    # With p_tilde not free, fit seeds the descents from one grid call
    # instead of 16 Latin-hypercube starts. On noisy data the grid must
    # find the basin those starts find: the (61, 11) grid meets this
    # bound on every case, a (5, 3) or (11, 3) grid misses on some.
    captured = []
    real_lm = paircorr.fitting._lm_lockstep

    def recorded(*args):
        captured.append(args)
        return real_lm(*args)

    monkeypatch.setattr(paircorr.fitting, "_lm_lockstep", recorded)
    rng = np.random.default_rng(2024)
    for i in range(100):
        data, config = _noisy_case(rng, ("tied", "fixed", "sigma", "f")[i % 4])
        captured.clear()
        res = fit(data, config)
        evaluate, _, lo, hi, _ = captured[0]
        latin = real_lm(evaluate, _latin_starts(config), lo, hi, config)[1].min()
        assert res.objective <= latin * (1.0 + 1e-9), (i, config.free)


def _free_cases(seed, count):
    """p_tilde-free datasets: _noisy_case draws alternating with the acceptance-f design.

    The odd ones take sigma log-uniform over [0.08, 1.2], p_tilde = q
    sigma with q cycling through 0.1, 1 and 2 (p_tilde barely matters
    at 0.1), and f = 0.5 or 0.9, on 30 points over [0.1, 5] sigma with
    10 % noise.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2 == 0:
            yield _noisy_case(rng, "free")[0]
            continue
        j = i // 2
        sigma = float(np.exp(rng.uniform(np.log(0.08), np.log(1.2))))
        truth = ModelParams(sigma, (0.1, 1.0, 2.0)[j % 3] * sigma, triplet_fraction=(0.5, 0.9)[j // 3 % 2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            yield synthesize(
                truth, np.linspace(0.1 * sigma, 5.0 * sigma, 30), noise_rel=0.10,
                rng_seed=int(rng.integers(1 << 30)),
            )


# The objective of fit() from 16 Latin-hypercube starts (_latin_starts,
# seed 0) with p_tilde free, on each of _free_cases(2024, 100).
LATIN_OPTIMA = (
    66.14609394438963, 37.94139235532237, 9.041150877912399, 33.13313023340088,
    16.53993793608998, 30.274212860564916, 12.21264323876155, 27.70146095604063,
    20.99847945837519, 41.55711173196306, 54.528391104080896, 33.8386878048474,
    11.033142455740848, 37.1436490438467, 22.298269311734806, 14.221309258867041,
    28.969646326681527, 20.321124337451877, 48.672992535564504, 18.60105833976719,
    47.75851833888231, 37.95176351569699, 24.392649710134613, 22.18279232399725,
    64.81781326683728, 23.33001917742689, 41.257941403232245, 25.393150025095338,
    28.17680971014558, 17.275286289293092, 44.06123698235739, 24.40188881979465,
    53.26421776023305, 28.29713850638001, 13.041836646208889, 22.60205527758967,
    61.51268558350391, 26.410688453862228, 8.271937102589991, 32.04092218081447,
    46.691379652974206, 29.835860534088773, 29.12597352927379, 18.388343559736594,
    4.721399815592122, 11.830901599881287, 61.62611508306841, 24.750424245617424,
    36.91891360687862, 30.543346624646894, 13.094478568570247, 21.412288921838442,
    5.573977342862147, 26.549063802840173, 28.09354232761019, 24.6594133428235,
    31.74915352750036, 22.164543759915503, 40.55822314192092, 29.158930735672737,
    13.342240975890764, 41.59906100183844, 21.280919401687143, 28.458263321349186,
    62.0786448967717, 25.60344906821606, 38.668457049321574, 30.87816151353745,
    34.39686107987513, 20.31065051595021, 73.9828084976968, 34.21456480806725,
    41.19655177549116, 15.527099987617731, 22.048906317766317, 18.563264101478833,
    16.94331152010623, 29.361487472219554, 42.37534558570132, 35.59151323085299,
    23.779890756677837, 27.731678666013433, 19.95349138684513, 17.149919892233726,
    30.38092059906061, 32.01113017943845, 12.915265307977027, 31.108087983863037,
    26.9484622973171, 38.531493020334864, 9.912255419981603, 26.05167103252129,
    20.922829543490938, 18.020618032376902, 11.658040845425543, 31.865672725112724,
    42.05230386347982, 30.333786735685823, 60.67357446465031, 33.41127635053474,
)


def test_p_tilde_free_profile_starts_reach_the_latin_hypercube_optimum(monkeypatch):
    # With p_tilde free, the starts come from the same grid call, with a
    # q = p_tilde / sigma axis; they must find the basin the Latin
    # hypercube found, to 1e-6. The grid ends more than 1e-12 lower on 6
    # of these 100, and median model calls per fit fell from 252 to 24.
    # Since p_tilde descends in w = p_tilde^2, no start stalls near
    # p_tilde = 0 until max_iterations (16 of these fits had one that
    # did), and the median fell to 15.
    captured = []
    real_lm = paircorr.fitting._lm_lockstep

    def recorded(*args):
        out = real_lm(*args)
        captured.append((args, out))
        return out

    monkeypatch.setattr(paircorr.fitting, "_lm_lockstep", recorded)
    config = FitConfig(free=("sigma", "f", "p_tilde"))
    for i, data in enumerate(_free_cases(2024, len(LATIN_OPTIMA))):
        captured.clear()
        assert fit(data, config).objective <= LATIN_OPTIMA[i] * (1.0 + 1e-6), i
        (evaluate, _, lo, hi, _), (_, _, _, iterations, _, _) = captured[0]
        assert np.all(iterations < config.max_iterations), i
        if i == 0:
            # the table is the reference's: one of its fits, again, to the
            # last bits that inv_sinhc's clamp at 1 moved near p_tilde = 0;
            # its starts' p_tilde column is squared into w
            starts = _latin_starts(config)
            starts[:, 2] **= 2
            latin = real_lm(evaluate, starts, lo, hi, config)[1].min()
            assert latin == pytest.approx(LATIN_OPTIMA[0], rel=1e-12, abs=0.0)


def test_model_calls_counts_every_model_call(monkeypatch):
    calls = []
    real_model = paircorr.fitting.correlation_R

    def counted(*args):
        calls.append(np.shape(args[0]))
        return real_model(*args)

    monkeypatch.setattr(paircorr.fitting, "correlation_R", counted)
    data = _acceptance_data(0.39, 1011)
    for config in (
        FitConfig(),
        FitConfig(free=("sigma", "f", "p_tilde"), multistart_count=6),
        FitConfig(max_iterations=1),
    ):
        calls.clear()
        try:
            res = fit(data, config)
        except NonConvergenceError as exc:
            res = exc.result
        assert res.model_calls == len(calls)
        # first the profile grid: one 3-d call whose dp is an
        # (m_sigma m_q, 1, N) broadcast, so that the kernel runs once per
        # (sigma, q), with one q unless p_tilde is free; then one batched
        # call per round and none at the winner
        profile = [shape for shape in calls if len(shape) == 3]
        ratios = 24 if "p_tilde" in config.free else 1
        assert profile == [calls[0]] == [(61 * ratios, 1, len(data))]
        assert all(len(shape) == 2 for shape in calls[len(profile) :])
    assert not res.converged


def test_each_start_runs_as_if_alone(monkeypatch):
    # lockstep batching must not couple the starts: every start's
    # outcome equals a descent of that start on its own, bit for bit
    captured = []
    real_lm = paircorr.fitting._lm_lockstep

    def recorded(*args):
        captured.append(args)
        return real_lm(*args)

    monkeypatch.setattr(paircorr.fitting, "_lm_lockstep", recorded)
    data = _acceptance_data(0.55, 5)
    fit(data)
    fit(data, FitConfig(free=("sigma", "f", "p_tilde"), multistart_count=6))
    for evaluate, starts, lo, hi, config in captured:
        together = real_lm(evaluate, starts, lo, hi, config)
        for i in range(starts.shape[0]):
            alone = real_lm(evaluate, starts[i : i + 1], lo, hi, config)
            for got, want in zip(together[:5], alone[:5]):
                np.testing.assert_array_equal(got[i], want[0])
            assert together[5][i] == alone[5][0]


def test_clip_matches_numpy():
    # the lockstep clips its steps on Python floats, and must order NaN,
    # infinities and signed zeros exactly as np.clip does with array
    # bounds (scalar bounds order signed zeros the other way)
    values = [-0.0, 0.0, 5e-324, 0.5, 1.0, -1.0, 2.0, np.nan, np.inf, -np.inf]
    for x, lo, hi in itertools.product(values, repeat=3):
        for size in (1, 17):
            want = np.clip(np.full(size, x), np.full(size, lo), np.full(size, hi)).tolist()
            assert [repr(paircorr.fitting._clip(x, lo, hi))] * size == [repr(v) for v in want]


@pytest.mark.parametrize("sigma, bounds", [(5.0, (3.0, 10.0)), (0.02, (1e-3, 0.04))])
def test_sigma_starts_when_the_bounds_miss_the_start_range(monkeypatch, sigma, bounds):
    # sigma starts are sought over [0.05, 2] clipped to the bounds; where
    # the two do not meet, over the bounds themselves, never over an
    # inverted interval whose starts all clip to one bound
    captured = []
    real_lm = paircorr.fitting._lm_lockstep

    def recorded(*args):
        captured.append(args[1])
        return real_lm(*args)

    monkeypatch.setattr(paircorr.fitting, "_lm_lockstep", recorded)
    lo, hi = _sigma_range(FitConfig(sigma_bounds=bounds))
    assert bounds[0] <= lo < hi <= bounds[1]
    data = _acceptance_data(sigma, 3)
    for free in (("sigma", "f"), ("sigma", "f", "p_tilde")):
        config = FitConfig(free=free, sigma_bounds=bounds)
        res = fit(data, config)
        starts = captured[-1]
        assert np.all((bounds[0] <= starts[:, 0]) & (starts[:, 0] <= bounds[1]))
        # with p_tilde free, one sigma may start at several q
        assert len(np.unique(starts, axis=0)) == len(starts) <= config.multistart_count
        if "p_tilde" not in free:
            assert len(np.unique(starts[:, 0])) == len(starts)
        assert abs(res.sigma - sigma) / sigma < 0.15
        assert abs(res.f - 0.5) < 0.15


@pytest.mark.parametrize("bounds", [(2.0, 10.0), (3.0, 10.0), (2.5, 2.6)])
def test_p_tilde_starts_when_the_bounds_miss_the_start_range(bounds):
    # p_tilde starts are q sigma clipped to the bounds, never outside
    # them, and a start the clip repeats runs once
    config = FitConfig(free=("sigma", "f", "p_tilde"), p_tilde_bounds=bounds)
    data = _acceptance_data(0.55, 3)
    dp, r = np.asarray(data.delta_p), np.asarray(data.r)

    def model(grid, sigma, f, p_tilde):
        return correlation_R(grid, sigma, f, p_tilde) - r, None

    starts = _profile_starts(model, dp, *_bounds_arrays(config), config)
    # the starts hold a free p_tilde as w = p_tilde^2
    p_tilde = np.sqrt(starts[:, 2])
    assert np.all((bounds[0] <= p_tilde) & (p_tilde <= bounds[1]))
    assert len(np.unique(starts, axis=0)) == len(starts) <= config.multistart_count
