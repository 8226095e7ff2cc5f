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
  rho(p1) rho(p1 + dp*n) / N, both by stratified Monte Carlo.

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
offset along z, and it too takes the azimuth at 0.

Both intensity oracles draw uniformly, two samples per equal cell. A
chunk of n samples cuts its domain into n/2 equal cells and puts sample
i in cell floor(i/2): u in [-1, 1] for the coincidence, and for the
accidental n/1024 u-rows by _COLUMNS t-columns over u in [-1, 1] and
t in [-h, h], with h = |s|/2 + 8 sigma as for the line rule. Every
Monte-Carlo oracle reports the SE sqrt(sum_k (w_2k - w_2k+1)^2) / N
over the adjacent pairs of each chunk. For two draws per equal cell
that is the unbiased variance estimate of the stratified mean (Owen,
Monte Carlo theory, methods and examples, ch. 8); for the pair norm's
iid draws it is the unbiased iid one.

Sampling is chunked and streamed. A chunk holds whole cells and draws
from its own seed (spawned from the spec's rng_seed), block by block:
PCG64's jump-ahead starts each stream at its own offset, and at most
one normal stream is drawn, last, so each block gets exactly the values
a whole-chunk draw would give, and a thread holds one block's draws and
one chunk's weights at a time. The chunk sums its weights once, then
its squared pair differences, and math.fsum adds the chunk sums, so
neither block size nor thread count changes a bit. Chunks run in a pool
of PAIRCORR_THREADS workers.

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
in the same order as with fresh arrays.
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
# t-columns of the accidental's cells. Over 24 rows at 2M samples the
# worst 3*SE/value (sigma 0.5, p_tilde 2, f 1, dp 4 sigma) read 8.4e-4,
# 4.3e-4, 2.3e-4, 2.1e-4, 3.7e-4 and 7.3e-4 at 64, 128, ..., 2,048
# columns: past 512 the u-rows grow too coarse for the exp(z u) factors.
_COLUMNS = 512

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
        Monte-Carlo samples per integral. The last chunk is rounded up
        to whole cells: to an even count for the coincidence intensity
        and the norm, and to whole 1,024-sample rows for the accidental
        intensity.
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
    counts the Monte-Carlo samples drawn, sample_count per integral
    rounded up to whole cells (see QuadratureSpec), or the density calls
    of both quadrature runs, n^2 + (n/2)^2 for the norm and n + n/2 for
    rho_single. chunks counts the Monte-Carlo chunks those samples drew
    (0 for quadrature and at delta_p = 0), threads is the worker count
    they ran on, and elapsed_s is the call's wall time. These three
    describe how the number was made, not the number, so equality
    ignores them.
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
        self._halves = None

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

    def cells(self, lo):
        """Row "cell": the cell floor(i / 2), formed exactly, of each sample i = lo, lo + 1, ... of the block."""
        if self._halves is None:
            self._halves = np.arange(self._block, dtype=float)
            self._halves *= 0.5
        cell = np.add(self._halves[: self.m], 0.5 * lo, out=self.take("cell"))
        return np.floor(cell, out=cell)


def _streams(seed, count, kinds, work):
    """One chunk's draws, made and handed out block by block.

    Yields (block slice, draws): the block's samples of each stream in
    ``kinds``, a tuple naming them. "uniform" is count doubles in
    [0, 1), "normal6" (count, 6) standard normals. Every stream is drawn
    block by block, and the block size changes no value. The draws of
    every block are filled into the same rows of the workspace ``work``
    (Generator out=), so they are valid only until the next block.

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
    for lo in range(0, count, block):
        m = min(block, count - lo)
        work.resize(m)
        draws = []
        for k, (kind, source) in enumerate(zip(kinds, sources)):
            if kind == "normal6":
                x = source.standard_normal((m, 6), out=work.take(f"draw{k}", 6).reshape(m, 6))
            else:
                x = source.random(m, out=work.take(f"draw{k}"))
            draws.append(x)
        yield slice(lo, lo + m), draws


def _mc_sum(total: int, seed_seq: np.random.SeedSequence, kinds, block_fn, multiple=2):
    """Mean, SE, samples, chunks and threads of the weights w over fixed-size chunks.

    A chunk holds _CHUNK samples, the last one the rest rounded up to a
    multiple of ``multiple``, so that it holds whole cells. It streams
    its draws of ``kinds`` (see _streams) from its own seed, and
    block_fn(work, out, lo, count, *draws) writes the w of its samples
    lo, lo + 1, ... into out, a slice of the chunk's weights, taking
    every other array from work: one _Workspace per worker for the whole
    call, so no block allocates.

    Each chunk sums w, then the squares of its adjacent pair differences,
    formed in place. The mean is the fsum of the chunk sums over N, the
    samples drawn, and the SE sqrt(fsum of the squared differences) / N,
    never below one machine epsilon of the mean: weights that do not
    vary still carry their rounding. The chunk layout and seeds depend
    only on (total, seed_seq, multiple), so neither the block size nor
    the thread count changes a bit.
    """
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    last = total - _CHUNK * (n_chunks - 1)
    counts = [_CHUNK] * (n_chunks - 1) + [-(-last // multiple) * multiple]
    # workspaces between chunks: at most one is made per concurrent worker
    idle = queue.SimpleQueue()

    def chunk_sums(seed, count):
        try:
            work = idle.get_nowait()
        except queue.Empty:
            work = _Workspace(min(_BLOCK, counts[0]), counts[0])
        w = work.weights[:count]
        for block, draws in _streams(seed, count, kinds, work):
            block_fn(work, w[block], block.start, count, *draws)
        s1 = float(np.sum(w))
        diff = w[::2]
        diff -= w[1::2]
        diff *= diff
        s2 = float(np.sum(diff))
        idle.put(work)
        return s1, s2

    threads = _thread_count()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        sums = list(pool.map(chunk_sums, seed_seq.spawn(n_chunks), counts))
    used = sum(counts)
    mean = math.fsum(s1 for s1, _ in sums) / used
    se = max(math.sqrt(math.fsum(s2 for _, s2 in sums)) / used, sys.float_info.epsilon * abs(mean))
    return mean, se, used, n_chunks, threads


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

    Only the polar cosine u is sampled, uniformly, two samples per equal
    cell of [-1, 1]; p1 and the azimuth are integrated exactly, with s
    along +z and P = 0 (_on_axis), which leave the intensity unchanged.
    At a fixed detector direction q = dp*n every exchange term of the
    pair density is the same Gaussian in p1, centred at -q/2 with
    covariance sigma^2/2, so the density's ratio to that Gaussian does
    not depend on p1 and the p1 integral is the density at the centre,
    p1 = -q/2 and p2 = p1 + q, over the Gaussian's peak density. That
    value depends on q only through |q| and q_z, so the azimuth about z
    contributes a factor 2 pi, and q is taken in the x-z plane. A
    weight is 2 * 2 pi dp^2 times that value, 2 being the length of the
    u range. A degenerate triplet of nonzero weight is refused before
    any draw.
    """
    started = time.perf_counter()
    delta_p = _intensity_delta_p(delta_p, spec)
    if delta_p == 0.0:
        return _finish(spec, "intensity_cor_oracle", started, 0.0, 0.0, 0)
    params = _on_axis(params)
    # the u range, the azimuth and the p1 Gaussian's peak density
    scale = 2.0 * 2.0 * math.pi * delta_p * delta_p / (math.pi * params.sigma**2) ** -1.5

    def block(work, out, lo, count, x):
        # u in cell floor(i/2) of count/2 equal cells, drawn over its uniform
        u = np.add(work.cells(lo), x, out=x)
        u *= 4.0 / count
        u -= 1.0
        # p1 = -q/2, then p2 = p1 + q, written over q
        q = _direction(delta_p, u, work)
        p1 = np.multiply(q, -0.5, out=work.take("p1", 3))
        q += p1
        # the density takes (m, 3) momenta: transposed views of the component rows
        np.multiply(mixture_density(p1.T, q.T, params, work), scale, out=out)

    # the first child of rng_seed, not rng_seed itself: the pinned results drew from it
    seed = np.random.SeedSequence(spec.rng_seed).spawn(1)[0]
    run = _mc_sum(spec.sample_count, seed, ("uniform",), block)
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
    exactly: pi sigma^2 times the integrand at p1 = -q/2 + t z^. Those
    centres lie within |s|/2 of -q/2, so t covers [-h, h] with
    h = |s|/2 + 8 sigma, as the line rule does. u and t are drawn
    uniformly, two samples per equal cell of a grid of u-rows by
    _COLUMNS t-columns over [-1, 1] x [-h, h]. The rest depends on q
    only through |q| and q_z: the azimuth gives a factor 2 pi, and q is
    taken in the x-z plane. A weight is pi sigma^2 2 pi dp^2 4h times
    the integrand, 4h being the area of the (u, t) range. A degenerate
    triplet of nonzero weight is refused before any draw.
    """
    started = time.perf_counter()
    delta_p = _intensity_delta_p(delta_p, spec)
    if delta_p == 0.0:
        return _finish(spec, "intensity_uncor_oracle", started, 0.0, 0.0, 0)
    params = _on_axis(params)
    half = _half_line(params)
    # the exact p1 integral across s, the azimuth's 2 pi and the (u, t) area
    scale = math.pi * params.sigma**2 * 2.0 * math.pi * delta_p * delta_p * 4.0 * half

    def block(work, out, lo, count, xu, xt):
        # cell c = floor(i/2) of count/2: u-row floor(c / _COLUMNS) of
        # count / (2 _COLUMNS), t-column c mod _COLUMNS, all formed exactly
        col = work.cells(lo)
        col /= _COLUMNS
        u = np.floor(col, out=work.take("u"))
        col -= u
        col *= _COLUMNS
        u += xu
        u *= 4.0 * _COLUMNS / count
        u -= 1.0
        t = np.add(col, xt, out=xt)
        t *= 2.0 * half / _COLUMNS
        t -= half
        # p1 = -q/2 + t along the splitting
        q = _direction(delta_p, u, work)
        p1 = np.multiply(q, -0.5, out=work.take("p1", 3))
        p1[2] += t
        # the marginal takes (m, 3) momenta: transposed views of the
        # component rows; its result is a workspace row that the next
        # call reuses, so the first is copied into out by the product
        rho = np.multiply(mixture_marginal(p1.T, params, work), scale, out=out)
        q += p1
        rho *= mixture_marginal(q.T, params, work)

    seed = np.random.SeedSequence(spec.rng_seed)
    run = _mc_sum(spec.sample_count, seed, ("uniform", "uniform"), block, 2 * _COLUMNS)
    return _finish(spec, "intensity_uncor_oracle", started, *run)


# ---------------------------------------------------------------------------
# normalization and marginal checks


def _half_line(params: ModelParams) -> float:
    """Half the length of the line along s through P/2 that covers both centres +/- s/2 with 8 sigma to spare."""
    return 0.5 * params.split_magnitude + 8.0 * params.sigma


def _line_rule(params: ModelParams, n: int):
    """n Gauss-Legendre nodes, as (n, 3) points at P = 0, and weights along s^ (z^ at s = 0).

    The line runs over [-h, h], h = _half_line(params).
    """
    split = params.split_magnitude
    axis = np.asarray(params.p_split) / split if split else np.array([0.0, 0.0, 1.0])
    x, w = np.polynomial.legendre.leggauss(n)
    half = _half_line(params)
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

        def block(work, out, lo, count, swap, xi):
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
