"""Least-squares estimation of (sigma, f, p_tilde) from measured curves.

The model curve R(dp; sigma, f, p_tilde) is fitted to digitized
correlation data by weighted least squares. The optimizer is a small
bounded Levenberg-Marquardt loop with forward-difference Jacobians,
run from several starts because the objective is multimodal when
sigma and f are both free. R depends on (sigma, p_tilde) only through
dp/sigma and q = p_tilde/sigma, so one model call on a grid of sigma,
q and f covers the start space: it gives the chi^2 profile over
(sigma, q), the minimum over f at each point, and the local minima of
that profile along sigma are the starts. With p_tilde tied or fixed
the q axis has one value. The call puts f on an axis of its own, so
the closed-form kernel runs once per (sigma, q) and f costs only the
mix of its brackets. A free p_tilde descends in w = p_tilde^2: R is
even in p_tilde, so dR/dp_tilde vanishes at p_tilde = 0, where a
descent in p_tilde stalls, while dR/dw does not. The starts run
in lockstep, one parameter-batched correlation_R call per round. From
one Jacobian a descent tries trial points at growing damping until one
lowers the objective; a round evaluates the first few of those trials
for every running start at once, each with its forward-difference
probes, so the first trial that descends has its next Jacobian at once
and a run of rejections costs one round instead of one each. All the
damped systems of a round go to one stacked solve. A parameter pinned
on a bound whose step points out of the box is held fixed for that
step, so a start parked on a bound still converges in the other
parameters instead of crawling. Each start follows the same path it
would alone, bit for bit, and everything is deterministic, with no
seed. The winner's model curve comes from the round that accepted it,
so a fit makes no call beyond its rounds.

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
# The (sigma, q = p_tilde / sigma, f) grid that seeds every fit: enough
# points that every basin of the chi^2 profile holds a grid point, as
# tests/test_fitting.py checks against stratified random starts. q runs
# from where R barely sees p_tilde to past the data's width. q = 0 is
# left out: R is even in p_tilde, so a descent started there cannot
# leave it. With p_tilde free, 2-d minima of the profile (4 or 8
# neighbours) gave too few starts, some of which stalled at p_tilde = 0
# above the random starts' optimum; the minima along sigma at each q
# met that optimum to 1e-9 on 400 noisy datasets.
_PROFILE_SIGMAS = 61
_PROFILE_FRACTIONS = 11
_PROFILE_RATIOS = np.geomspace(0.02, 4.0, 24)
# Rungs of a damping chain evaluated per round, after an accepted step
# and after a round without descent. A rung adds n + 1 rows to the
# round's call, cheap beside the call itself; on fit-batch-style fits
# deeper chains (2/8, 3/6, 4/4) saved calls but no time.
_CHAIN_RUNGS = 2
_CHAIN_RUNGS_REJECTED = 4
# A start converges once its proposed step falls below
# _STEP_TOL * (1 + |theta|).
_STEP_TOL = 1e-10


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
        At most this many LM descents, from the lowest local minima of
        the chi^2 profile on a fixed grid. sigma starts are sought over
        [0.05, 2] a.u. clipped to its bounds, or over the bounds where
        the two do not meet (log-spaced); with p_tilde free, p_tilde
        starts at fixed multiples 0.02 to 4 of sigma, clipped to its
        bounds.
    max_iterations : int
        Levenberg-Marquardt iterations per start. A start also converges
        once its proposed step falls below a fixed relative tolerance,
        1e-10 * (1 + |theta|).
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
            multistart_count=_whole("multistart_count", self.multistart_count, 1),
            max_iterations=_whole("max_iterations", self.max_iterations, 1),
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
    counts the correlation_R calls the fit made: the profile grid call,
    if any, and one per lockstep round.
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

    Free parameters (p_tilde as sqrt(w)) come back as (k, 1) columns and
    fixed ones as floats, ready to broadcast against a delta_p grid.
    """
    values = {name: theta[:, j : j + 1] for j, name in enumerate(config.free)}
    sigma = values.get("sigma", config.sigma)
    f = values.get("f", config.f)
    if "p_tilde" in values:
        p_tilde = np.sqrt(values["p_tilde"])
    elif config.p_tilde is None:
        p_tilde = 0.1 * sigma
    else:
        p_tilde = config.p_tilde
    return sigma, f, p_tilde


def _bounds_arrays(config: FitConfig):
    """Box bounds of the free vectors, which hold a free p_tilde as w = p_tilde^2 (module docstring)."""
    table = {
        "sigma": config.sigma_bounds,
        "f": config.f_bounds,
        "p_tilde": tuple(b * b for b in config.p_tilde_bounds),
    }
    lo = np.array([table[name][0] for name in config.free])
    hi = np.array([table[name][1] for name in config.free])
    return lo, hi


def _sigma_range(config: FitConfig):
    """Where sigma starts are sought: [0.05, 2] a.u. clipped to its bounds, or the bounds where the two do not meet."""
    lo, hi = config.sigma_bounds
    if lo >= 2.0 or hi <= 0.05:
        return lo, hi
    return max(lo, 0.05), min(hi, 2.0)


def _profile_starts(model, dp, lo, hi, config: FitConfig):
    """Starts at the local minima of the chi^2 profile along sigma, lowest first.

    One ``model`` call covers the grid, clipped to the box:
    _PROFILE_SIGMAS log-spaced sigmas over _sigma_range, the ratios
    q = p_tilde / sigma of _PROFILE_RATIOS, with p_tilde = q sigma
    clipped to p_tilde_bounds, and _PROFILE_FRACTIONS values of f over
    f_bounds. A fixed parameter's axis is its one value, and so is the
    q axis when p_tilde is not free. The call takes dp as an
    (m_sigma m_q, 1, N) broadcast, sigma and p_tilde as (m_sigma m_q,
    1, 1) columns and f as a (1, m_f, 1) axis, so the kernel runs once
    per (sigma, q) and f enters only its final mix. The profile is the
    minimum over f at each (sigma, q), and each of its local minima
    along sigma at one q becomes a start: at most multistart_count
    distinct ones, lowest first, with a free p_tilde as w = p_tilde^2.
    """
    axes = {
        "sigma": np.geomspace(*_sigma_range(config), _PROFILE_SIGMAS),
        "f": np.linspace(*config.f_bounds, _PROFILE_FRACTIONS),
    }
    for j, name in enumerate(config.free):
        if name in axes:
            axes[name] = np.clip(axes[name], lo[j], hi[j])
    sigma = axes["sigma"] if "sigma" in config.free else np.array([config.sigma])
    f = axes["f"] if "f" in config.free else np.array([config.f])
    # p_tilde at each (sigma, q)
    if "p_tilde" in config.free:
        p_tilde = np.clip(np.outer(sigma, _PROFILE_RATIOS), *config.p_tilde_bounds)
    elif config.p_tilde is None:
        p_tilde = 0.1 * sigma[:, None]
    else:
        p_tilde = np.full((len(sigma), 1), config.p_tilde)
    ratios = p_tilde.shape[1]
    sigma, f, p_tilde = np.repeat(sigma, ratios)[:, None, None], f[None, :, None], p_tilde.reshape(-1, 1, 1)
    # only the residuals: the grid's model curves are not kept
    r = model(np.broadcast_to(dp, (len(sigma), 1, dp.size)), sigma, f, p_tilde)[0]
    r *= r
    cost = r.sum(axis=-1)
    best = cost.argmin(axis=1)
    profile = cost[np.arange(len(cost)), best].reshape(-1, ratios)
    # the last point of a flat stretch counts, so a flat profile has a minimum
    edge = np.full((1, ratios), np.inf)
    left = np.concatenate([edge, profile[:-1]])
    right = np.concatenate([profile[1:], edge])
    minima = np.flatnonzero((profile <= left) & (profile < right))
    minima = minima[np.argsort(profile.ravel()[minima], kind="stable")]
    chosen = {"sigma": sigma[minima, 0, 0], "f": f[0, best[minima], 0], "p_tilde": p_tilde[minima, 0, 0] ** 2}
    # a p_tilde clipped to its bounds can repeat a start: the first runs
    starts = list(dict.fromkeys(zip(*(chosen[name].tolist() for name in config.free))))
    return np.array(starts[: config.multistart_count]).reshape(-1, len(config.free))


def _clip(x, lo, hi):
    """np.clip of one float, NaN and signed zeros included."""
    if not (x != x or x > lo):
        x = lo
    if not (x != x or x < hi):
        x = hi
    return x


def _lm_lockstep(evaluate, theta0, lo, hi, config: FitConfig):
    """Bounded Levenberg-Marquardt descents from every start, in lockstep.

    ``evaluate`` maps a (k, n) stack of parameter vectors to their
    (k, N) weighted residuals and (k, N) model curves with one model
    call. A start's damping chain is the run of trial points that a
    descent on its own would try from one Jacobian: rung j solves the
    same damped system with lambda_j = min(lambda * 4**j, 1e12)
    (Marquardt's diagonal scaling). Each round makes one call, covering
    the pending rungs of every running start (the start itself in the
    first round), each with its n forward-difference probes (stepping
    backward at upper bounds). A start takes the first rung that lowers
    its objective, and that rung's probes give its next Jacobian in the
    same round; the rungs before it count as rejections (damping raised
    4x each), and the accepted rung's damping is cut by 3. A chain holds
    _CHAIN_RUNGS rungs, or _CHAIN_RUNGS_REJECTED after a round without
    descent, stops before the first rung whose step falls below
    _STEP_TOL (a negligible first step means convergence), and ends at
    the 30th rejection in a row. A parameter that sits on a bound while
    its step points out of the box is held fixed for that step, and the
    system is solved in the others. A start drops out once it converges
    or reaches max_iterations. All damped systems of a round go to one
    stacked solve. Each start follows the path of a descent on its own,
    bit for bit, in fewer rounds; the small per-start arithmetic runs on
    Python floats, which round exactly as NumPy's float64 does.

    Returns per-start arrays (theta, cost, converged, iterations,
    model), with ``model`` the model curve at theta, and the
    accepted-step objective trace of each start.
    """
    count, n = theta0.shape
    lo_hi = list(zip(lo.tolist(), hi.tolist()))
    theta = np.clip(theta0, lo, hi).tolist()
    cost = [0.0] * count
    lam = [1e-3] * count
    iterations = [0] * count
    rejected = [0] * count
    converged = [False] * count
    traces = [[] for _ in range(count)]
    model = [None] * count
    # each start's damped system from its last Jacobian: [J^T J | -J^T r | Marquardt diagonal]
    system = np.empty((count, n, n + 2))
    # pending chains: (start, first point, rungs, cut short by a negligible step)
    chains = [(i, i, 1, False) for i in range(count)]
    points = theta
    first = True
    while chains:
        # every point with its probes, each moving one coordinate
        batch, steps = [], []
        for point in points:
            batch += point
            step = []
            for k, (x, (lb, ub)) in enumerate(zip(point, lo_hi)):
                h = 1e-6 * (abs(x) + 1e-3)
                shifted = x + h
                if shifted > ub:
                    # backward from an upper bound, and nowhere in a box narrower than h
                    shifted = _clip(x - h, lb, ub)
                batch += point[:k] + [shifted] + point[k + 1 :]
                step.append(shifted - x)
            steps.append(step)
        res, curves = evaluate(np.array(batch).reshape(-1, n))
        res = res.reshape(len(points), n + 1, -1)
        at_point = res[:, 0]
        c_trial = (at_point * at_point).sum(axis=1).tolist()

        # each start takes its chain's first rung that lowers the
        # objective; the first round accepts the starts themselves
        fresh, fresh_rows, solve = [], [], []
        for i, row, rungs, cut in chains:
            for r in range(row, row + rungs):
                c = c_trial[r]
                if first or c < cost[i]:
                    break
                lam[i] = min(lam[i] * 4.0, 1e12)
                rejected[i] += 1
            else:
                # no descent: a stationary point once the damping is
                # exhausted or the next step is negligible
                if rejected[i] >= 30 or cut:
                    converged[i] = True
                else:
                    solve.append((i, min(_CHAIN_RUNGS_REJECTED, 30 - rejected[i])))
                continue
            theta[i] = points[r]
            model[i] = curves[r * (n + 1)]
            cost[i] = c
            traces[i].append(c)
            if not first:
                lam[i] = max(lam[i] / 3.0, 1e-12)
            if iterations[i] < config.max_iterations:
                iterations[i] += 1
                rejected[i] = 0
                fresh.append(i)
                fresh_rows.append(r)
                solve.append((i, _CHAIN_RUNGS))
        first = False

        if fresh:
            # Jacobians of the accepted starts that go on, from their
            # probes; a probe the box pinned leaves a zero column
            probed = res[fresh_rows]
            shift = np.array([steps[r] for r in fresh_rows])
            jac = np.empty((len(fresh), probed.shape[2], n))
            jac_t = jac.transpose(0, 2, 1)
            np.subtract(probed[:, 1:], probed[:, :1], out=jac_t)
            stuck = shift == 0.0
            shift[stuck] = np.inf
            jac_t /= shift[:, :, None]
            jac_t[stuck] = 0.0
            square = jac_t @ jac
            d = np.diagonal(square, axis1=1, axis2=2)
            floor = 1e-14 * np.maximum(d.max(axis=1), 1.0)
            system[fresh] = np.concatenate(
                (square, -(jac_t @ probed[:, 0, :, None]), np.maximum(d, floor[:, None])[:, :, None]),
                axis=2,
            )
        if not solve:
            break

        # every rung of every chain in one stacked solve; J^T J plus a
        # positive diagonal is positive definite, so no system is singular
        owner, damping = [], []
        for i, rungs in solve:
            owner += [i] * rungs
            rung = lam[i]
            for _ in range(rungs):
                damping.append(rung)
                rung = min(rung * 4.0, 1e12)
        damped = system[owner]
        # a fresh array, so the reshape is a view and the slice the diagonals of J^T J
        damped.reshape(len(owner), -1)[:, :: n + 3] += np.array(damping)[:, None] * damped[:, :, n + 1]
        a, b = damped[:, :, :n], damped[:, :, n]
        delta = np.linalg.solve(a, b[:, :, None])[:, :, 0].tolist()
        held = [
            [(x <= lb and dx < 0.0) or (x >= ub and dx > 0.0) for x, dx, (lb, ub) in zip(theta[i], dx_row, lo_hi)]
            for i, dx_row in zip(owner, delta)
        ]
        held_rows = [r for r, h in enumerate(held) if any(h)]
        if held_rows:
            # unit rows and columns with a zero right-hand side pin the
            # held parameters; the others get the reduced solve
            a_red, b_red = a[held_rows], b[held_rows]
            h_red = np.array([held[r] for r in held_rows])
            a_red[h_red[:, :, None] | h_red[:, None, :]] = 0.0
            hr, hk = np.nonzero(h_red)
            a_red[hr, hk, hk] = 1.0
            b_red[h_red] = 0.0
            reduced = np.linalg.solve(a_red, b_red[:, :, None])[:, :, 0].tolist()
            for r, dx_row in zip(held_rows, reduced):
                delta[r] = dx_row

        # a chain stops before its first negligible step; a negligible
        # first step means the start has converged
        chains, points = [], []
        r = 0
        for i, rungs in solve:
            at = theta[i]
            limit = _STEP_TOL * (1.0 + max(map(abs, at)))
            m = 0
            for dx_row in delta[r : r + rungs]:
                stepped = [_clip(x + dx, lb, ub) for x, dx, (lb, ub) in zip(at, dx_row, lo_hi)]
                if all(abs(y - x) <= limit for y, x in zip(stepped, at)):
                    break
                points.append(stepped)
                m += 1
            if m:
                chains.append((i, len(points) - m, m, m < rungs))
            else:
                converged[i] = True
            r += rungs
    return np.array(theta), np.array(cost), np.array(converged), np.array(iterations), np.array(model), traces


def fit(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Weighted least-squares fit of the correlation model to a dataset.

    Runs at most ``config.multistart_count`` Levenberg-Marquardt
    descents, from the local minima of the chi^2 profile on a fixed
    grid, and returns the best final objective (ties broken by start
    index). The same data and config give the same result.

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

    def model(grid, sigma, f, p_tilde):
        nonlocal calls
        calls += 1
        r_model = correlation_R(grid, sigma, f, p_tilde)
        res = r_model - robs
        res *= sqrt_w
        return res, r_model

    def evaluate(thetas):
        return model(np.broadcast_to(dp, (thetas.shape[0], dp.size)), *_resolve(thetas, config))

    lo, hi = _bounds_arrays(config)
    starts = _profile_starts(model, dp, lo, hi, config)
    thetas, costs, converged, iterations, curves, traces = _lm_lockstep(
        evaluate, starts, lo, hi, config
    )
    if np.all(np.abs(curves).max(axis=1) <= _SENSITIVITY_FLOOR * (1.0 + data_scale)):
        raise InsufficientSensitivityError(
            "the model curve is identically negligible at every multistart"
            " optimum; the free parameters are not identifiable from this"
            " configuration (is the correlation switched off, f = 0 with"
            " p_tilde = 0?)"
        )
    best_index = int(np.argmin(costs))  # first minimum: ties go to the lower index
    theta = thetas[best_index]
    resolved = dict(zip(_PARAM_NAMES, (float(np.ravel(v)[0]) for v in _resolve(theta[None], config))))
    # a row of a parameter-batched call equals the one-parameter call
    r_model = curves[best_index]
    result = FitResult(
        **resolved,
        estimates={name: resolved[name] for name in config.free},
        approx_error_pct=_approx_error_pct(w, robs, r_model),
        residuals=tuple(float(v) for v in (r_model - robs)),
        converged=bool(converged[best_index]),
        iterations=int(iterations[best_index]),
        objective=float(costs[best_index]),
        objective_trace=tuple(traces[best_index]),
        start_index=best_index,
        model_calls=calls,
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
        np.asarray(data.delta_p), params.sigma, params.triplet_fraction, params.split_magnitude
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
        correlation_R(dp, params.sigma, params.triplet_fraction, params.split_magnitude)
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
