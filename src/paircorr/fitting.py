"""Least-squares estimation of (sigma, f, p_tilde) from measured curves.

The model curve R(dp; sigma, f, p_tilde) is fitted to digitized
correlation data by weighted least squares. The optimizer is a small
bounded Levenberg-Marquardt loop with forward-difference Jacobians,
started from a Latin-hypercube set of initial points because the
objective is multimodal when sigma and f are both free. The starts run
in lockstep: each round evaluates every running start's trial point
together with its forward-difference probes in one parameter-batched
correlation_R call, so an accepted trial has its next Jacobian at once,
and solves all their damped systems in one stacked solve. A parameter
pinned on a bound whose step points out of the box is held fixed for
that step, so a start parked on a bound still converges in the other
parameters instead of crawling. Each start follows the same path it
would alone, and everything is deterministic for a fixed rng_seed.

The quality-of-fit number reported alongside the estimates is

    approx_error_pct = 100 * sqrt( sum w (R_model - r)^2 / sum w r^2 ),

the weighted rms misfit normalized by the weighted rms of the data.
Published "error of approximation" percentages rarely state their
convention, so fitted values are comparable to, not necessarily equal
to, quoted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import correlation_R
from .data import Dataset
from .errors import (
    InsufficientDataError,
    InsufficientSensitivityError,
    NonConvergenceError,
    UndefinedMetricError,
)
from .model import ModelParams, _fraction, _nonnegative, _positive, _set_scalars, _whole

__all__ = [
    "FitConfig",
    "FitResult",
    "fit",
    "approximation_error",
    "synthesize",
]

_PARAM_NAMES = ("sigma", "f", "p_tilde")
# A start whose best model curve never leaves this relative magnitude
# is sitting on the zero-correlation ridge and carries no information
# about the free parameters.
_SENSITIVITY_FLOOR = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Free parameters, fixed values, bounds, and optimizer knobs.

    Parameters
    ----------
    free : tuple of str
        Subset of ("sigma", "f", "p_tilde") to estimate.
    sigma, f : float
        Values used when the parameter is not free.
    p_tilde : float or None
        Value used when p_tilde is not free; None ties it to
        0.1 * sigma of the current trial point (the small-splitting
        regime, where curve shapes barely depend on it).
    sigma_bounds, f_bounds, p_tilde_bounds : (float, float)
        Box constraints applied to both starts and steps.
    multistart_count : int
        Latin-hypercube starting points; sigma starts are log-uniform
        over [0.05, 2] a.u. clipped to its bounds.
    max_iterations : int
        Levenberg-Marquardt iterations per start.
    step_tol : float
        Convergence declared when the proposed step falls below
        step_tol * (1 + |theta|).
    residual_tol : float
        Convergence declared when the objective falls to or below this.
    rng_seed : int
        Seed for the start layout; fixed seed reproduces the fit.
    """

    free: tuple = ("sigma", "f")
    sigma: float = 0.5
    f: float = 0.5
    p_tilde: float | None = None
    sigma_bounds: tuple = (1e-3, 10.0)
    f_bounds: tuple = (0.0, 1.0)
    p_tilde_bounds: tuple = (0.0, 10.0)
    multistart_count: int = 16
    max_iterations: int = 200
    step_tol: float = 1e-10
    residual_tol: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        free = tuple(self.free)
        if not free:
            raise ValueError("at least one free parameter is required")
        if len(set(free)) != len(free):
            raise ValueError(f"duplicate free parameters in {free}")
        for name in free:
            if name not in _PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}; choose from {_PARAM_NAMES}")
        object.__setattr__(self, "free", free)
        for name, check in (
            ("sigma_bounds", _positive),
            ("f_bounds", _fraction),
            ("p_tilde_bounds", _nonnegative),
        ):
            lo, hi = check(name, getattr(self, name))
            if not lo < hi:
                raise ValueError(f"{name} must be an ordered pair, got ({lo}, {hi})")
        _set_scalars(
            self,
            sigma=_positive("fixed sigma", self.sigma),
            f=_fraction("fixed f", self.f),
            step_tol=_positive("step_tol", self.step_tol),
            residual_tol=_nonnegative("residual_tol", self.residual_tol),
            multistart_count=_whole("multistart_count", self.multistart_count, 1),
            max_iterations=_whole("max_iterations", self.max_iterations, 1),
            rng_seed=_whole("rng_seed", self.rng_seed, 0),
        )
        if self.p_tilde is not None:
            _set_scalars(self, p_tilde=_nonnegative("fixed p_tilde", self.p_tilde))


@dataclass(frozen=True)
class FitResult:
    """Estimates and diagnostics of one fit.

    sigma/f/p_tilde are the fully resolved model parameters (fitted,
    fixed, or tied); ``estimates`` holds just the free ones.
    ``residuals`` are unweighted model-minus-data values per point, and
    ``objective_trace`` is the accepted-step objective sequence of the
    winning start (non-increasing by construction). ``model_calls``
    counts the correlation_R calls the fit made, the final evaluation at
    the winner included.
    """

    sigma: float
    f: float
    p_tilde: float
    estimates: dict
    approx_error_pct: float
    residuals: tuple
    converged: bool
    iterations: int
    objective: float
    objective_trace: tuple
    start_index: int
    model_calls: int


def _resolve(theta, config: FitConfig):
    """Full (sigma, f, p_tilde) from a (k, n_free) stack of free vectors.

    Free parameters come back as (k, 1) columns and fixed ones as
    floats, ready to broadcast against a delta_p grid.
    """
    values = {name: theta[:, j : j + 1] for j, name in enumerate(config.free)}
    sigma = values.get("sigma", config.sigma)
    f = values.get("f", config.f)
    if "p_tilde" in values:
        p_tilde = values["p_tilde"]
    elif config.p_tilde is None:
        p_tilde = 0.1 * sigma
    else:
        p_tilde = config.p_tilde
    return sigma, f, p_tilde


def _bounds_arrays(config: FitConfig):
    table = {
        "sigma": config.sigma_bounds,
        "f": config.f_bounds,
        "p_tilde": config.p_tilde_bounds,
    }
    lo = np.array([table[name][0] for name in config.free])
    hi = np.array([table[name][1] for name in config.free])
    return lo, hi


def _latin_starts(config: FitConfig, rng: np.random.Generator):
    """Latin-hypercube start matrix, one row per start."""
    m = config.multistart_count
    columns = []
    for name in config.free:
        strata = (rng.permutation(m) + rng.random(m)) / m
        if name == "sigma":
            lo = max(config.sigma_bounds[0], 0.05)
            hi = min(config.sigma_bounds[1], 2.0)
            columns.append(np.exp(np.log(lo) + strata * (np.log(hi) - np.log(lo))))
        elif name == "f":
            lo, hi = config.f_bounds
            columns.append(lo + strata * (hi - lo))
        else:
            lo = config.p_tilde_bounds[0]
            hi = min(config.p_tilde_bounds[1], 2.0)
            columns.append(lo + strata * (hi - lo))
    return np.stack(columns, axis=1)


def _lm_lockstep(evaluate, theta0, lo, hi, config: FitConfig):
    """Bounded Levenberg-Marquardt descents from every start, in lockstep.

    ``evaluate`` maps a (k, n) stack of parameter vectors to their
    (k, N) weighted residuals and (k,) model scales max |R_model| with
    one model call. Each round makes one such call, covering every
    running start's pending point (the start itself in the first round,
    its trial point after that) together with the point's n
    forward-difference probes (stepping backward at upper bounds). A
    trial that lowers the objective is accepted, and its probes give the
    start's next Jacobian in the same round; a rejected trial's probes
    are dropped. One stacked solve then gives the damped steps
    (Marquardt's diagonal scaling, damping cut by 3 on success and
    raised 4x on failure). A parameter that sits on a bound while its
    step points out of the box is held fixed for that step, and the
    system is solved in the others. A start drops out once it converges
    or reaches max_iterations.

    Returns per-start arrays (theta, cost, converged, iterations,
    model_scale) and the accepted-step objective trace of each start.
    """
    theta = np.clip(theta0, lo, hi)
    count, n = theta.shape
    trial = theta.copy()
    scale = cost = None  # set by the first round
    traces = [[] for _ in range(count)]
    lam = np.full(count, 1e-3)
    iterations = np.zeros(count, dtype=int)
    rejected = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    jtj = np.zeros((count, n, n))
    grad = np.zeros((count, n))
    diag = np.zeros((count, n))
    it = np.arange(count)  # starts whose trial point the next round evaluates
    while it.size:
        base = trial[it]
        h = 1e-6 * (np.abs(base) + 1e-3)
        up = base + h
        shifted = np.clip(np.where(up > hi, base - h, up), lo, hi)
        step = shifted - base
        pi, pk = np.nonzero(step)
        probes = base[pi]
        probes[np.arange(pi.size), pk] = shifted[pi, pk]
        r_all, s_all = evaluate(np.concatenate([base, probes]))
        r_trial, s_trial = r_all[: it.size], s_all[: it.size]
        c_trial = (r_trial * r_trial).sum(axis=1)

        # trial points: accept on descent, otherwise raise the damping;
        # the first round accepts the starts themselves
        first = cost is None
        if first:
            scale, cost = np.empty(count), np.empty(count)
            better = np.ones(count, dtype=bool)
        else:
            better = c_trial < cost[it]
        acc, rej = it[better], it[~better]
        theta[acc] = trial[acc]
        cost[acc] = c_trial[better]
        scale[acc] = s_trial[better]
        for i, c in zip(acc.tolist(), cost[acc].tolist()):
            traces[i].append(c)
        if not first:
            lam[acc] = np.maximum(lam[acc] / 3.0, 1e-12)
        lam[rej] = np.minimum(lam[rej] * 4.0, 1e12)
        rejected[rej] += 1
        converged[acc] = cost[acc] <= config.residual_tol
        # damping exhausted without descent: a stationary point
        converged[rej] = rejected[rej] >= 30

        # Jacobians of the accepted starts that go on, from their probes;
        # a probe the box pinned stays a zero column
        go = better & ~converged[it] & (iterations[it] < config.max_iterations)
        ip = it[go]
        jac = np.zeros((it.size, r_all.shape[1], n))
        jac[pi, :, pk] = (r_all[it.size :] - r_trial[pi]) / step[pi, pk][:, None]
        jac = jac[go]
        jac_t = jac.transpose(0, 2, 1)
        jtj[ip] = square = jac_t @ jac
        grad[ip] = (jac_t @ r_trial[go][:, :, None])[:, :, 0]
        d = np.diagonal(square, axis1=1, axis2=2)
        diag[ip] = np.maximum(d, 1e-14 * np.maximum(d.max(axis=1), 1.0)[:, None])
        iterations[ip] += 1
        rejected[ip] = 0

        solve = np.concatenate([ip, rej[~converged[rej]]])
        if not solve.size:
            break
        # J^T J plus a positive diagonal is positive definite, so no
        # system here is singular
        a = jtj[solve]
        # a fresh array, so the reshape is a view and the slice its diagonals
        a.reshape(solve.size, n * n)[:, :: n + 1] += lam[solve, None] * diag[solve]
        b = -grad[solve]
        delta = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        at = theta[solve]
        held = ((at <= lo) & (delta < 0.0)) | ((at >= hi) & (delta > 0.0))
        rows = np.flatnonzero(held.any(axis=1))
        if rows.size:
            # unit rows and columns with a zero right-hand side pin the
            # held parameters; the others get the reduced solve
            a_red, b_red, h_red = a[rows], b[rows], held[rows]
            a_red[h_red[:, :, None] | h_red[:, None, :]] = 0.0
            hr, hk = np.nonzero(h_red)
            a_red[hr, hk, hk] = 1.0
            b_red[h_red] = 0.0
            delta[rows] = np.linalg.solve(a_red, b_red[:, :, None])[:, :, 0]
        stepped = np.clip(at + delta, lo, hi)
        trial[solve] = stepped
        moved = np.abs(stepped - at).max(axis=1)
        small = moved <= config.step_tol * (1.0 + np.abs(at).max(axis=1))
        converged[solve[small]] = True
        it = solve[~small]
    return theta, cost, converged, iterations, scale, traces


def fit(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Weighted least-squares fit of the correlation model to a dataset.

    Runs ``config.multistart_count`` Levenberg-Marquardt descents from
    a Latin-hypercube of starting points and returns the best final
    objective (ties broken by start index).

    Raises
    ------
    InsufficientDataError
        Fewer than two points per free parameter.
    InsufficientSensitivityError
        Every start ended on the zero-correlation ridge (e.g. f and
        p_tilde both fixed at 0), so the data cannot constrain the
        free parameters.
    NonConvergenceError
        No start converged; the best-effort FitResult is attached to
        the exception's ``result`` attribute.
    """
    n_free = len(config.free)
    if len(data) < 2 * n_free:
        raise InsufficientDataError(
            f"{len(data)} points cannot constrain {n_free} free parameter(s);"
            f" need at least {2 * n_free}"
        )
    dp = np.asarray(data.delta_p)
    robs = np.asarray(data.r)
    w = data.weights()
    sqrt_w = np.sqrt(w)
    data_scale = float(np.max(np.abs(robs)))
    calls = 0

    def evaluate(thetas):
        nonlocal calls
        calls += 1
        grid = np.broadcast_to(dp, (thetas.shape[0], dp.size))
        r_model = correlation_R(grid, *_resolve(thetas, config))
        return sqrt_w * (r_model - robs), np.abs(r_model).max(axis=1)

    lo, hi = _bounds_arrays(config)
    rng = np.random.default_rng(config.rng_seed)
    starts = _latin_starts(config, rng)
    thetas, costs, converged, iterations, scales, traces = _lm_lockstep(
        evaluate, starts, lo, hi, config
    )
    if np.all(scales <= _SENSITIVITY_FLOOR * (1.0 + data_scale)):
        raise InsufficientSensitivityError(
            "the model curve is identically negligible at every multistart"
            " optimum; the free parameters are not identifiable from this"
            " configuration (is the correlation switched off, f = 0 with"
            " p_tilde = 0?)"
        )
    best_index = int(np.argmin(costs))  # first minimum: ties go to the lower index
    theta = thetas[best_index]
    sigma, f, p_tilde = (float(np.ravel(v)[0]) for v in _resolve(theta[None], config))
    r_model = correlation_R(dp, sigma, f, p_tilde)
    result = FitResult(
        sigma=sigma,
        f=f,
        p_tilde=p_tilde,
        estimates={name: float(v) for name, v in zip(config.free, theta)},
        approx_error_pct=_approx_error_pct(w, robs, r_model),
        residuals=tuple(float(v) for v in (r_model - robs)),
        converged=bool(converged[best_index]),
        iterations=int(iterations[best_index]),
        objective=float(costs[best_index]),
        objective_trace=tuple(traces[best_index]),
        start_index=best_index,
        model_calls=calls + 1,
    )
    if not converged.any():
        raise NonConvergenceError(
            f"no start converged within {config.max_iterations} iterations",
            result=result,
        )
    return result


def approximation_error(data: Dataset, params: ModelParams) -> float:
    """Weighted rms misfit of the model against the data, in percent.

    100 * sqrt( sum w (R_model - r)^2 / sum w r^2 ); raises
    UndefinedMetricError when the data r-values are identically zero.
    """
    r_model = correlation_R(
        np.asarray(data.delta_p), params.sigma, params.triplet_fraction, params.p_split
    )
    return _approx_error_pct(data.weights(), np.asarray(data.r), r_model)


def _approx_error_pct(w, robs, r_model):
    """approximation_error's percentage for weights w, data robs and model values r_model."""
    denom = float(np.sum(w * robs * robs))
    if denom == 0.0:
        raise UndefinedMetricError(
            "approximation error is undefined for identically zero data"
        )
    return 100.0 * math.sqrt(float(np.sum(w * (r_model - robs) ** 2)) / denom)


def synthesize(params: ModelParams, grid, noise_rel: float = 0.0, rng_seed: int = 0) -> Dataset:
    """Model curve on a grid with multiplicative Gaussian noise.

    r_i = R(dp_i) * (1 + noise_rel * xi_i) with standard-normal xi,
    deterministic per seed. For noise_rel > 0 the per-point
    uncertainties are noise_rel * |R| with a floor of 5% of the curve's
    peak magnitude so near-zero crossings don't get infinite weight.
    """
    noise_rel = _nonnegative("noise_rel", noise_rel)
    dp = np.asarray(grid, dtype=float)
    r_true = np.atleast_1d(
        correlation_R(dp, params.sigma, params.triplet_fraction, params.p_split)
    )
    rng = np.random.default_rng(rng_seed)
    noise = rng.standard_normal(r_true.shape)
    r = r_true * (1.0 + noise_rel * noise)
    peak = float(np.max(np.abs(r_true)))
    if noise_rel > 0.0 and peak > 0.0:
        sigma_r = tuple(float(v) for v in noise_rel * np.maximum(np.abs(r_true), 0.05 * peak))
    else:
        sigma_r = None
    return Dataset(
        tuple(float(v) for v in np.atleast_1d(dp)),
        tuple(float(v) for v in r),
        sigma_r,
        label="synthetic",
    )
