"""Brute-force integration of the pair model, used to validate closed forms.

Everything the closed-form module computes analytically is recomputed
here by direct numerical integration of the two-particle densities:

* the mixture's yield normalization, the integral of its pair density
  (singlet and triplet weighted by 1 - f and f), by Gauss-Legendre
  quadrature along the splitting in p1 and p2 or by importance-sampled
  Monte Carlo;
* the single-particle density rho(p) = integral of the pair density over
  the partner momentum, by Gauss-Legendre quadrature along the splitting;
* the coincidence intensity, the 5-d integral
  (dp)^2 * int d^3p1 dOmega  Phi(p1, p1 + dp*n) of the mixture, and
  the accidental (event-mixed) intensity with integrand
  rho(p1) rho(p1 + dp*n) / N, both by Monte Carlo.

The Monte-Carlo design exploits the model's structure. A norm or an
intensity integrates over every p1 and p2 (or detector direction n), so
it depends on neither the total momentum P nor the direction of the
splitting s: every oracle but rho_single puts s along +z and P at 0
(_on_axis). For a fixed n every term of the pair density then has the
same Gaussian profile in p1, centred at -dp*n/2 with covariance
sigma^2/2, so the p1 integral is exact: the density at that centre over
the Gaussian's peak value. What is left depends on n only through its
polar cosine u, so the azimuth is exact too (a factor 2 pi), and the
coincidence oracle samples u alone. The accidental integrand's p1
centres all lie on the line through -dp*n/2 along z, so p1 across z is
exact as well (a factor pi sigma^2): that oracle samples u and t, p1's
offset along z, and it too takes the azimuth at 0. u is drawn from a
mixture of a uniform density and cosh-tilted densities matched to the
exp(z u) factors of the integrand, with stratified inversion per chunk,
so the realized error falls much faster than the reported
(conservative) 1/sqrt(N) standard error.

Sampling is chunked and streamed. A chunk draws from its own seed
(spawned from the spec's rng_seed), block by block: PCG64's jump-ahead
starts each stream at its own offset, and at most one normal stream is
drawn, last, so each block gets exactly the values a whole-chunk draw
would give, and a thread holds one block's draws and one chunk's
weights at a time. The chunk sums its weights once and math.fsum adds
the chunk sums, so neither block size nor thread count changes a bit.
Chunks run in a pool of PAIRCORR_THREADS workers.

Each worker of a call takes one workspace (_Workspace) for the length
of the call: the chunk's weights, the draw rows, which the generators
fill in place, and every (m,) and (3, m) temporary of a block, the
model's density temporaries included (mixture_density and
mixture_marginal write into it when handed it). Every block of every
chunk reuses those rows, so no block allocates: ~256 KiB temporaries
made and freed per block would be handed back to the kernel by glibc
and faulted in again by the next block. A (3, m) quantity
is a stack of contiguous component rows, finished with in-place
ufuncs; each element still takes the same floating-point operations
in the same order as with fresh arrays. The stratified
polar variable is non-decreasing within a chunk, so each proposal
branch is a slice cut by searchsorted, not a boolean mask.
"""

from __future__ import annotations

import math
import os
import queue
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ToleranceNotMetError,
    UnsupportedMethodError,
)
from .model import (
    ModelParams,
    _channel_weights,
    _nonnegative,
    _positive,
    _require_nondegenerate,
    _set_scalars,
    _sq_dist,
    _whole,
    mixture_marginal,
    mixture_density,
)

__all__ = [
    "QuadratureSpec",
    "OracleResult",
    "phi_norm_oracle",
    "rho_single",
    "intensity_cor_oracle",
    "intensity_uncor_oracle",
]

_CHUNK = 1 << 18
# Samples per block of a chunk: smaller blocks stay in cache but pay
# NumPy's per-call cost (and, threaded, a lock handover) more often.
_BLOCK = 1 << 15
# Below this z the cosh-tilted polar density is indistinguishable from
# uniform; sampler and density must switch together.
_TINY_Z = 1e-8

_METHODS = ("monte-carlo", "tensor-quadrature")


@dataclass(frozen=True)
class QuadratureSpec:
    """How an oracle integral should be evaluated.

    Parameters
    ----------
    method : str
        "monte-carlo" or "tensor-quadrature". Not every operation
        supports both; unsupported combinations raise
        UnsupportedMethodError rather than silently substituting.
    sample_count : int
        Monte-Carlo samples per integral.
    nodes_per_axis : int
        Gauss-Legendre nodes along the splitting, per momentum, for
        quadrature; the error estimate compares against a run at half
        the nodes.
    rng_seed : int
        Seed; identical specs give bit-identical results.
    target_rel_tol : float
        Relative accuracy the caller needs. Monte-Carlo results whose
        3*SE exceeds it (and tensor results whose refinement delta
        exceeds it) raise ToleranceNotMetError carrying the estimate.
    """

    method: str = "monte-carlo"
    sample_count: int = 2_000_000
    nodes_per_axis: int = 64
    rng_seed: int = 0
    target_rel_tol: float = 1e-3

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        _set_scalars(
            self,
            sample_count=_whole("sample_count", self.sample_count, 1),
            nodes_per_axis=_whole("nodes_per_axis", self.nodes_per_axis, 8),
            rng_seed=_whole("rng_seed", self.rng_seed, 0),
            target_rel_tol=_positive("target_rel_tol", self.target_rel_tol),
        )


@dataclass(frozen=True)
class OracleResult:
    """A numerical integral with its error estimate.

    est_error is one standard error for Monte Carlo and the last
    refinement delta for quadrature; comparisons against closed forms
    should use max(analytic_tol * |closed|, 3 * est_error). samples_used
    counts the Monte-Carlo samples drawn, sample_count per integral, or
    the density calls of both quadrature runs, n^2 + (n/2)^2 for the norm
    and n + n/2 for rho_single. chunks counts the Monte-Carlo chunks
    those samples drew (0 for quadrature and at delta_p = 0), threads is
    the worker count they ran on, and elapsed_s
    is the call's wall time. These three describe how the number was
    made, not the number, so equality ignores them.
    """

    value: float
    est_error: float
    samples_used: int
    chunks: int = field(default=0, compare=False)
    threads: int = field(default=1, compare=False)
    elapsed_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.est_error < 0.0:
            raise ValueError("est_error must be >= 0")


def _thread_count() -> int:
    raw = os.environ.get("PAIRCORR_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"PAIRCORR_THREADS must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"PAIRCORR_THREADS must be a positive integer, got {raw!r}")
    return n


# ---------------------------------------------------------------------------
# shared Monte-Carlo machinery


class _Workspace:
    """The reused arrays of one worker for the length of one _mc_sum call.

    weights holds a chunk's weights. take(name) hands out the row called
    name, a C-contiguous (m,) array of the current block length m, and
    take(name, rows) a (rows, m) one; each name keeps one buffer of
    ``block`` samples per row, made on its first use. A caller owns a
    name only until the next block, or until a callee that writes it
    runs; the row "tmp" is scratch that no function holds across a call
    of another. The views of the current length are kept until resize
    changes it: a block takes ~50 rows, and slicing each anew cost as
    much as a ufunc call on it, time held under the interpreter lock.
    """

    def __init__(self, block, chunk):
        self.weights = np.empty(chunk)
        self.m = self._block = block
        self._buffers = {}
        self._views = {}

    def resize(self, m):
        if m != self.m:
            self.m = m
            self._views.clear()

    def take(self, name, rows=0, dtype=float):
        view = self._views.get(name)
        if view is None:
            buf = self._buffers.get(name)
            if buf is None:
                buf = self._buffers[name] = np.empty(max(rows, 1) * self._block, dtype)
            view = buf[: max(rows, 1) * self.m]
            self._views[name] = view = view.reshape(rows, self.m) if rows else view
        return view


def _streams(seed, count, kinds, work):
    """One chunk's draws, made and handed out block by block.

    Yields (block slice, draws): the block's samples of each stream in
    ``kinds``, a tuple naming them. "uniform" is count doubles; "strata"
    is one stratified uniform per stratum of [0, 1), non-decreasing in
    the sample index; "normal1" is count standard normals and "normal6"
    (count, 6) of them. Every stream is drawn block by block, and the
    block size changes no value. The draws of every block are filled
    into the same rows of the workspace ``work`` (Generator out=), so
    they are valid only until the next block.

    All streams run on PCG64(seed): stream k starts at output k * count,
    on a generator of its own advanced there. A uniform double takes
    exactly one 64-bit output, so the uniform streams never overlap. A
    normal takes a varying number of outputs, so no stream can start
    where a normal stream ends: at most one normal stream is drawn, and
    it comes last.
    """

    def generator(start):
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.bit_generator.advance(start)
        return rng

    sources = [generator(k * count) for k in range(len(kinds))]
    block = min(_BLOCK, count)
    work.resize(block)
    if "strata" in kinds:
        # the strata offsets lo + i of the current block, whole numbers
        # formed exactly: 0, 1, ... by a cumulative sum, then a block on
        index = work.take("index")
        index.fill(1.0)
        index[0] = 0.0
        np.cumsum(index, out=index)
    for lo in range(0, count, block):
        m = min(block, count - lo)
        work.resize(m)
        draws = []
        for k, (kind, source) in enumerate(zip(kinds, sources)):
            if kind == "normal6":
                x = source.standard_normal((m, 6), out=work.take(f"draw{k}", 6).reshape(m, 6))
            elif kind == "normal1":
                x = source.standard_normal(m, out=work.take(f"draw{k}"))
            else:
                x = source.random(m, out=work.take(f"draw{k}"))
                if kind == "strata":
                    x += index[:m]
                    x /= count
            draws.append(x)
        if "strata" in kinds:
            index += block
        yield slice(lo, lo + m), draws


def _mc_sum(total: int, seed_seq: np.random.SeedSequence, kinds, block_fn):
    """Mean, SE, samples, chunks and threads of the weights w over fixed-size chunks.

    A chunk streams its draws of ``kinds`` (see _streams) from its own
    seed, and block_fn(work, out, *draws) writes each block's w into
    out, a slice of the chunk's weights, taking every other array from
    work. A worker takes one _Workspace for the whole call and reuses it
    for every block of every chunk it runs, so no block allocates.

    Each chunk, holding its w whole, sums w and then the squared
    deviations of w about its own mean; the chunks are combined in chunk
    order by M2 = sum M2_c + sum n_c (mean_c - mean)^2, each sum by
    math.fsum. No step subtracts two near-equal sums of squares, so the
    SE stays a spread where the weights barely vary. It is never below
    one machine epsilon of the mean: weights that do not vary at all
    still carry their rounding. The chunk layout and seeds depend only
    on (total, seed_seq), so neither the block size nor the thread
    count changes a bit.
    """
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    counts = [_CHUNK] * (n_chunks - 1) + [total - _CHUNK * (n_chunks - 1)]
    # workspaces between chunks: at most one is made per concurrent worker
    idle = queue.SimpleQueue()

    def chunk_sums(seed, count):
        try:
            work = idle.get_nowait()
        except queue.Empty:
            work = _Workspace(min(_BLOCK, counts[0]), counts[0])
        w = work.weights[:count]
        for block, draws in _streams(seed, count, kinds, work):
            block_fn(work, w[block], *draws)
        s1 = float(np.sum(w))
        w -= s1 / count
        w *= w
        m2 = float(np.sum(w))
        idle.put(work)
        return s1, m2

    threads = _thread_count()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        sums = list(pool.map(chunk_sums, seed_seq.spawn(n_chunks), counts))
    mean = math.fsum(s1 for s1, _ in sums) / total
    within = math.fsum(m2 for _, m2 in sums)
    between = math.fsum(n * (s1 / n - mean) ** 2 for n, (s1, _) in zip(counts, sums))
    variance = (within + between) / total
    se = max(math.sqrt(variance / total), sys.float_info.epsilon * abs(mean))
    return mean, se, total, n_chunks, threads


def _finish(
    spec: QuadratureSpec, what: str, started, value, est, used, chunks=0, threads=1
) -> OracleResult:
    """The result, or ToleranceNotMetError carrying it when it misses the target.

    Monte Carlo is held to 3 * SE, quadrature to its refinement delta.
    started is the call's time.perf_counter() reading at entry.
    """
    elapsed = time.perf_counter() - started
    result = OracleResult(float(value), float(est), int(used), chunks, threads, elapsed)
    mc = spec.method == "monte-carlo"
    spread = 3.0 * est if mc else est
    if spread > spec.target_rel_tol * abs(value):
        raise ToleranceNotMetError(
            f"{what}: {'3*SE' if mc else 'refinement delta'} {spread:.3e} exceeds"
            f" {spec.target_rel_tol:g} * |{value:.6e}|; increase"
            f" {'sample_count' if mc else 'nodes_per_axis'}",
            result=result,
        )
    return result


def _intensity_delta_p(delta_p, spec: QuadratureSpec) -> float:
    """delta_p of a 5-d intensity integral, checked along with the method."""
    if spec.method != "monte-carlo":
        raise UnsupportedMethodError(
            "the 5-d intensity integrals support method='monte-carlo' only"
        )
    return _nonnegative("delta_p", float(delta_p))


def _sample_cosh_tilt(xi, z, out):
    """Invert the CDF of z*cosh(z*u)/(2 sinh z) on [-1, 1] into out, overwriting xi.

    The first bit of xi picks the exp(+z u) or exp(-z u) half; the rest
    inverts the exponential tilt through log/expm1-safe algebra. Falls
    back to uniform below _TINY_Z. xi must be non-decreasing, so the
    exp(+z u) half is the slice xi < 0.5.
    """
    if z < _TINY_Z:
        np.multiply(xi, 2.0, out=out)
        out -= 1.0
        return
    half = np.searchsorted(xi, 0.5)
    eta = xi
    eta *= 2.0
    eta[half:] -= 1.0
    np.clip(eta, 0.0, 1.0, out=eta)
    u = np.subtract(1.0, eta, out=out)
    u *= np.exp(-2.0 * z)
    u += eta
    np.log(u, out=u)
    u /= z
    u += 1.0
    np.negative(u[half:], out=u[half:])
    np.clip(u, -1.0, 1.0, out=u)


def _cosh_tilt_pdf(u, z, out, tmp):
    """Density z*cosh(z*u)/(2 sinh z) on [-1, 1], stable at any z >= 0, in out (tmp is scratch)."""
    if z < _TINY_Z:
        return 0.5
    val = np.subtract(u, 1.0, out=out)
    val *= z
    np.exp(val, out=val)
    minus = np.add(u, 1.0, out=tmp)
    minus *= -z
    val += np.exp(minus, out=minus)
    val *= z
    val /= -2.0 * np.expm1(-2.0 * z)
    return val


# Polar proposals: u uniform for v < 1/2, then per (lo, hi, factor) the
# cosh tilt at factor * z for lo <= v < hi. The event-mixed integrand
# carries exp(z u), exp(z u / 2) and flat angular factors (center
# offsets of s, s/2 and 0), the coincidence one only exp(z u). The
# tilts tile [1/2, 1) in order, which _tilt_sample's slices rely on.
_COR_TILTS = ((0.5, 1.0, 1.0),)
_UNC_TILTS = ((0.5, 0.75, 0.5), (0.75, 1.0, 1.0))


def _tilt_sample(v, z, tilts, work):
    """Polar cosines of the proposal at non-decreasing v, as a "strata" stream gives it.

    Sorted v makes each branch a slice, cut by searchsorted at 1/2 and
    at each tilt's hi; every branch runs on its own samples only. The
    last tilt runs to the end, so it also takes a v that rounded to 1.
    The cosines land in work's row "u", whose length must be len(v).
    """
    edges = np.searchsorted(v, [0.5] + [hi for _, hi, _ in tilts[:-1]]).tolist() + [len(v)]
    u = work.take("u")
    low = u[: edges[0]]
    np.multiply(4.0, v[: edges[0]], out=low)
    low -= 1.0
    np.clip(low, -1.0, 1.0, out=low)
    xi_row = work.take("tmp")
    for (lo, hi, factor), start, stop in zip(tilts, edges, edges[1:]):
        branch = slice(start, stop)
        xi = np.subtract(v[branch], lo, out=xi_row[branch])
        xi /= hi - lo
        np.clip(xi, 0.0, 1.0, out=xi)
        _sample_cosh_tilt(xi, factor * z, u[branch])
    return u


def _tilt_pdf(u, z, tilts, work):
    """Density of the proposal at u; each tilt has weight hi - lo.

    The parts alternate between work's rows "tilt0" and "tilt1", so the
    density lands in one of them.
    """
    total = 0.25
    for i, (lo, hi, factor) in enumerate(tilts):
        part = _cosh_tilt_pdf(u, factor * z, work.take(f"tilt{i % 2}"), work.take("tmp"))
        part *= hi - lo
        part += total
        total = part
    return total


def _on_axis(params: ModelParams) -> ModelParams:
    """params with |s| along +z and P = 0, once a degenerate triplet of nonzero weight is refused.

    A norm or an intensity integrates over every p1 and every p2 (or
    direction of q), so it depends on neither P nor the direction of s.
    """
    for _, channel in _channel_weights(params.triplet_fraction):
        _require_nondegenerate(params, channel)
    split = (0.0, 0.0, params.split_magnitude)
    return replace(params, p_split=split, p_total=(0.0, 0.0, 0.0))


def _direction(length, u, work):
    """length times unit vectors at polar cosine u about +z, azimuth 0, in work's (3, m) rows "q"."""
    out = work.take("q", 3)
    # sin(theta), formed in the x row
    sin_theta = np.multiply(u, u, out=out[0])
    np.subtract(1.0, sin_theta, out=sin_theta)
    np.clip(sin_theta, 0.0, None, out=sin_theta)
    np.sqrt(sin_theta, out=sin_theta)
    sin_theta *= length
    out[1].fill(0.0)
    np.multiply(u, length, out=out[2])
    return out


# ---------------------------------------------------------------------------
# coincidence intensity (5-d: p1 and the detector direction)


def intensity_cor_oracle(delta_p, params: ModelParams, spec: QuadratureSpec) -> OracleResult:
    """Coincidence intensity of the mixture by Monte-Carlo integration of the 5-d integral.

    Evaluates (dp)^2 * int d^3p1 dOmega Phi(p1, p1 + dp*n) with the
    unnormalized solid-angle measure (int dOmega = 4 pi), the same
    convention the closed form uses.

    Only the polar cosine u is sampled, from the "strata" stream; p1 and
    the azimuth are integrated exactly, with s along +z and P = 0
    (_on_axis), which leave the intensity unchanged. At a fixed detector
    direction q = dp*n every exchange term of the pair density is the
    same Gaussian in p1, centred at -q/2 with covariance sigma^2/2, so
    the density's ratio to that Gaussian does not depend on p1 and the
    p1 integral is the density at the centre, p1 = -q/2 and
    p2 = p1 + q, over the Gaussian's peak density. That value depends
    on q only through |q| and q_z, so the azimuth about z contributes a
    factor 2 pi, and q is taken in the x-z plane. A degenerate triplet
    of nonzero weight is refused before any draw.
    """
    started = time.perf_counter()
    delta_p = _intensity_delta_p(delta_p, spec)
    if delta_p == 0.0:
        return _finish(spec, "intensity_cor_oracle", started, 0.0, 0.0, 0)
    params = _on_axis(params)
    sigma = params.sigma
    z = params.split_magnitude * delta_p / (2.0 * sigma * sigma)
    # the p1 Gaussian's peak density
    pdf_norm = (math.pi * sigma * sigma) ** -1.5

    def block(work, out, v):
        u = _tilt_sample(v, z, _COR_TILTS, work)
        # p1 = -q/2, then p2 = p1 + q, written over q
        q = _direction(delta_p, u, work)
        p1 = np.multiply(q, -0.5, out=work.take("p1", 3))
        q += p1
        # the density takes (m, 3) momenta: transposed views of the component rows
        total = mixture_density(p1.T, q.T, params, work)
        den = _tilt_pdf(u, z, _COR_TILTS, work)
        den *= pdf_norm
        total *= delta_p * delta_p * 2.0 * math.pi
        np.divide(total, den, out=out)

    # the first child of rng_seed, not rng_seed itself: the pinned results drew from it
    seed = np.random.SeedSequence(spec.rng_seed).spawn(1)[0]
    run = _mc_sum(spec.sample_count, seed, ("strata",), block)
    return _finish(spec, "intensity_cor_oracle", started, *run)


# ---------------------------------------------------------------------------
# accidental (event-mixed) intensity


def intensity_uncor_oracle(delta_p, params: ModelParams, spec: QuadratureSpec) -> OracleResult:
    """Accidental intensity (dp)^2 int d^3p1 dOmega rho(p1) rho(p1+dp*n), per emitted pair.

    The mixture is taken with s along +z and P = 0 (_on_axis), which
    leave the intensity unchanged. rho, the closed-form single-particle
    marginal (validated by rho_single), is then a sum of Gaussians of
    covariance sigma^2 centred on the z axis, so each term of
    rho(p1) rho(p1 + q) is a Gaussian in p1 of covariance sigma^2/2
    centred on the line through -q/2 along z, and p1 across z integrates
    exactly: pi sigma^2 times the integrand at p1 = -q/2 + t z^. t is
    drawn from normals at -|s|/2, 0 and +|s|/2 of weights 1/4, 1/2 and
    1/4 and variance 0.75 sigma^2, u from the "strata" stream. The rest
    depends on q only through |q| and q_z: the azimuth gives a factor
    2 pi, and q is taken in the x-z plane. A degenerate triplet of
    nonzero weight is refused before any draw.
    """
    started = time.perf_counter()
    delta_p = _intensity_delta_p(delta_p, spec)
    if delta_p == 0.0:
        return _finish(spec, "intensity_uncor_oracle", started, 0.0, 0.0, 0)
    params = _on_axis(params)
    sigma = params.sigma
    split = params.split_magnitude
    z = split * delta_p / (2.0 * sigma * sigma)
    # the proposal for t: its centres, weights, spread and peak density
    offsets = np.array([-0.5 * split, 0.0, 0.5 * split])
    var = 0.75 * sigma * sigma
    spread = math.sqrt(var)
    pdf_norm = (2.0 * math.pi * var) ** -0.5
    # the exact p1 integral across s and the azimuth's 2 pi
    scale = math.pi * sigma * sigma * delta_p * delta_p * 2.0 * math.pi

    def block(work, out, v, pick, xi):
        u = _tilt_sample(v, z, _UNC_TILTS, work)
        q = _direction(delta_p, u, work)
        # the proposal's component, by its weights 1/4, 1/2, 1/4
        comp = np.greater_equal(pick, 0.25, out=work.take("comp", dtype=np.intp))
        comp += np.greater_equal(pick, 0.75, out=work.take("above", dtype=bool))
        t = np.take(offsets, comp, out=work.take("t"), mode="clip")
        t += np.multiply(xi, spread, out=work.take("tmp"))
        # the proposal density of t; the parts alternate between rows "prop0" and "prop1"
        den = 0.0
        for i, (offset, weight) in enumerate(zip(offsets, (0.25, 0.5, 0.25))):
            part = np.subtract(t, offset, out=work.take(f"prop{i % 2}"))
            part *= part
            part /= -2.0 * var
            np.exp(part, out=part)
            part *= weight * pdf_norm
            part += den
            den = part
        # p1 = -q/2 + t along the splitting
        p1 = np.multiply(q, -0.5, out=work.take("p1", 3))
        p1[2] += t
        # the marginal takes (m, 3) momenta: transposed views of the
        # component rows; its result is a workspace row that the next
        # call reuses, so the first is copied into out by the product
        rho = np.multiply(mixture_marginal(p1.T, params, work), scale, out=out)
        q += p1
        rho *= mixture_marginal(q.T, params, work)
        den *= _tilt_pdf(u, z, _UNC_TILTS, work)
        rho /= den

    kinds = ("strata", "uniform", "normal1")
    run = _mc_sum(spec.sample_count, np.random.SeedSequence(spec.rng_seed), kinds, block)
    return _finish(spec, "intensity_uncor_oracle", started, *run)


# ---------------------------------------------------------------------------
# normalization and marginal checks


def _line_rule(params: ModelParams, n: int):
    """n Gauss-Legendre nodes, as (n, 3) points at P = 0, and weights along s^ (z^ at s = 0).

    The line runs over [-|s|/2 - 8 sigma, |s|/2 + 8 sigma]: both centres
    +/- s/2 with 8 sigma to spare.
    """
    split = params.split_magnitude
    axis = np.asarray(params.p_split) / split if split else np.array([0.0, 0.0, 1.0])
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * split + 8.0 * params.sigma
    return half * x[:, None] * axis, half * w


def _pair_norm_value(params: ModelParams, n: int) -> float:
    """The on-axis norm by the n-node line rule in p1 and in p2 (see phi_norm_oracle)."""
    line, w = _line_rule(params, n)
    dens = mixture_density(line[:, None], line[None], params)
    return (2.0 * math.pi * params.sigma**2) ** 2 * float(w @ dens @ w)


def phi_norm_oracle(params: ModelParams, spec: QuadratureSpec) -> OracleResult:
    """Check that the mixture's pair density, per emitted pair, integrates to 1.

    Its singlet and triplet pair densities are weighted by 1 - f and f,
    so f = 0 or 1 checks that one pure channel's pair density
    integrates to 1. The norm, like an intensity, depends on neither P
    nor the direction of s, so it is taken on the axis (_on_axis), and a
    degenerate triplet of nonzero weight is refused before any work.

    tensor-quadrature sums the mixture density on the line rule along z
    in p1 and in p2: every exchange term has the same Gaussian across the
    axis in p1 and in p2, so those integrals are exact, a factor
    (2 pi sigma^2)^2. monte-carlo samples the
    two-centre product proposal from one (m, 6) normal stream,
    p1 = sigma xi[:, :3] + c z^ and p2 = sigma xi[:, 3:] - c z^, with c
    the z centre of p1 that a uniform picks (c2 = -c1 on the axis), and
    weighs each draw by the mixture density once: the SE is that of the
    mixture's joint weight, and samples_used counts sample_count once.
    """
    started = time.perf_counter()
    params = _on_axis(params)
    if spec.method == "tensor-quadrature":
        n = spec.nodes_per_axis
        coarse = _pair_norm_value(params, n // 2)
        fine = _pair_norm_value(params, n)
        value, est, *counts = fine, abs(fine - coarse), n * n + (n // 2) ** 2
    else:
        c1, c2 = params.centers
        sigma = params.sigma
        pdf_norm = (2.0 * math.pi * sigma * sigma) ** -1.5
        # the z centres of p1, indexed by swap: c1 and c2
        ends = np.array([c1[2], c2[2]])

        def gauss(p, c, work, name):
            g = _sq_dist(p, c, work, name)
            np.negative(g, out=g)
            g /= 2.0 * sigma * sigma
            np.exp(g, out=g)
            g *= pdf_norm
            return g

        def block(work, out, swap, xi):
            p1 = np.multiply(xi[:, :3].T, sigma, out=work.take("p1", 3))
            p2 = np.multiply(xi[:, 3:].T, sigma, out=work.take("p2", 3))
            pick = np.less(swap, 0.5, out=work.take("pick", dtype=np.intp))
            center = np.take(ends, pick, out=work.take("tmp"), mode="clip")
            p1[2] += center
            p2[2] -= center
            pdf = gauss(p1, c1, work, "gauss0")
            pdf *= gauss(p2, c2, work, "gauss1")
            cross = gauss(p1, c2, work, "gauss1")
            cross *= gauss(p2, c1, work, "gauss2")
            pdf += cross
            pdf *= 0.5
            dens = mixture_density(p1.T, p2.T, params, work)
            np.divide(dens, pdf, out=out)

        seed = np.random.SeedSequence(spec.rng_seed)
        value, est, *counts = _mc_sum(spec.sample_count, seed, ("uniform", "normal6"), block)
    return _finish(spec, "phi_norm_oracle", started, value, est, *counts)


def _rho_single_value(p, params: ModelParams, n: int) -> float:
    """rho at p by the n-node line rule in the partner, at P = 0 (see rho_single)."""
    line, w = _line_rule(params, n)
    return 2.0 * math.pi * params.sigma**2 * float(w @ mixture_density(p, line, params))


def rho_single(p, params: ModelParams, spec: QuadratureSpec) -> OracleResult:
    """Single-particle density at p, per emitted pair: the pair density integrated over the partner.

    Tensor quadrature only, at one finite 3-vector p. The densities see
    p and the centres (P +/- s)/2 only through their offsets from P/2,
    so the rule is built at P = 0 on p - P/2, and its nodes do not round
    at the size of P. There every exchange term has the same Gaussian in
    the partner across the splitting, so that integral is exact, a
    factor 2 pi sigma^2, and the mixture density is summed on the line
    rule along s^ (z^ at zero splitting).
    """
    started = time.perf_counter()
    if spec.method != "tensor-quadrature":
        raise UnsupportedMethodError("rho_single supports method='tensor-quadrature' only")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or not np.isfinite(p).all():
        raise ValueError(f"p must be a finite 3-vector, got {p!r}")
    p = p - 0.5 * np.asarray(params.p_total)
    params = replace(params, p_total=(0.0, 0.0, 0.0))
    n = spec.nodes_per_axis
    coarse = _rho_single_value(p, params, n // 2)
    fine = _rho_single_value(p, params, n)
    used = n + n // 2
    return _finish(spec, "rho_single", started, fine, abs(fine - coarse), used)
