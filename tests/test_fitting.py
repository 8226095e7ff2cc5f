"""Least-squares parameter recovery, fit guards, synthetic data."""

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
from paircorr.fitting import FitConfig, _latin_starts, _sigma_range, fit, synthesize, approximation_error
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
    cfg = FitConfig(multistart_count=1, max_iterations=1, step_tol=1e-14)
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
    with pytest.raises(ValueError):
        FitConfig(rng_seed=-1)
    for bad in (
        dict(sigma=np.nan),
        dict(sigma=np.inf),
        dict(f=np.nan),
        dict(p_tilde=np.nan),
        dict(p_tilde=np.inf),
        dict(p_tilde=-0.1),
        dict(step_tol=np.nan),
        dict(step_tol=0.0),
        dict(residual_tol=np.nan),
        dict(sigma=np.array([0.5, 0.6])),
        # counts and the seed are whole numbers, refused rather than
        # failing later inside fit()
        dict(multistart_count=2.5),
        dict(max_iterations=2.5),
        dict(rng_seed=1.5),
        dict(multistart_count=np.nan),
        dict(max_iterations=np.inf),
        dict(rng_seed=np.array([1, 2])),
    ):
        with pytest.raises(ValueError):
            FitConfig(**bad)


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
    r_true = correlation_R(grid, TRUTH.sigma, TRUTH.triplet_fraction, TRUTH.p_split)
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
    r_true = correlation_R(GRID, TRUTH.sigma, TRUTH.triplet_fraction, TRUTH.p_split)
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
    # the profile grid is one call; then each round evaluates the trial
    # points together with their Jacobian probes, and the winner's curve
    # serves both the residuals and the approximation error
    assert len(calls) == res.model_calls <= 10

    calls.clear()
    starts = _latin_starts(config, np.random.default_rng(config.rng_seed))
    theta, _, converged, iterations, _, _ = real_lm(evaluate, starts, lo, hi, config)
    assert np.sum(theta[:, 1] == 0.0) == 8
    assert np.sum(theta[:, 0] == lo[0]) == 1
    assert np.all(converged)
    assert np.all(iterations < config.max_iterations)
    assert len(calls) <= 44


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
        starts = _latin_starts(config, np.random.default_rng(config.rng_seed))
        latin = real_lm(evaluate, starts, lo, hi, config)[1].min()
        assert res.objective <= latin * (1.0 + 1e-9), (i, config.free)


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
        # with p_tilde tied, first the profile grid: one 3-d call whose
        # dp is an (m_sigma, 1, N) broadcast, so that the kernel runs once
        # per sigma; then one batched call per round, then one at the winner
        profile = [shape for shape in calls if len(shape) == 3]
        if "p_tilde" in config.free:
            assert profile == []
        else:
            assert profile == [calls[0]] == [(61, 1, len(data))]
        assert calls[-1] == (len(data),)
        assert all(len(shape) == 2 for shape in calls[len(profile) : -1])
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
        starts = captured[-1][:, 0]
        assert np.all((bounds[0] <= starts) & (starts <= bounds[1]))
        assert len(np.unique(starts)) == len(starts)
        if "p_tilde" in free:
            assert len(starts) == config.multistart_count
        assert abs(res.sigma - sigma) / sigma < 0.15
        assert abs(res.f - 0.5) < 0.15
