"""Brute-force integration oracles: norms, marginals, intensities."""

import dataclasses
import math
import platform
import resource
import tracemalloc

import numpy as np
import pytest

import paircorr.oracle
from paircorr.errors import (
    DegenerateChannelError,
    ToleranceNotMetError,
    UnsupportedMethodError,
)
from paircorr.model import ModelParams, mixture_density, mixture_marginal
from paircorr.correlation import accidental_intensity, coincidence_intensity
from paircorr.oracle import (
    _BLOCK,
    _CHUNK,
    _Workspace,
    _direction,
    _on_axis,
    OracleResult,
    QuadratureSpec,
    intensity_cor_oracle,
    intensity_uncor_oracle,
    phi_norm_oracle,
    rho_single,
)

PARAMS = ModelParams(
    sigma=0.5,
    p_split=(0.3, -0.1, 0.7),
    p_total=(0.2, 0.0, -0.4),
    triplet_fraction=0.3,
)

QUAD = QuadratureSpec(method="tensor-quadrature", nodes_per_axis=48)


def _pure(params, f):
    """One pure channel of params: singlet at f = 0, triplet at f = 1."""
    return dataclasses.replace(params, triplet_fraction=f)


def _mc(samples, seed=0):
    # loose target: these tests compare against 3 * est_error themselves,
    # so a tolerance failure inside the oracle would only hide the data
    return QuadratureSpec(sample_count=samples, rng_seed=seed, target_rel_tol=0.5)


def test_pair_norm_quadrature():
    for f in (0.0, 1.0):
        res = phi_norm_oracle(_pure(PARAMS, f), QUAD)
        assert abs(res.value - 1.0) < 1e-8
        assert res.est_error < 1e-4
        assert res.samples_used > 0


def test_pair_norm_monte_carlo():
    for f in (0.0, 1.0):
        res = phi_norm_oracle(_pure(PARAMS, f), _mc(1 << 19))
        assert abs(res.value - 1.0) <= 3.0 * res.est_error
        assert 0.0 < res.est_error < 1e-2


def test_phi_norm_counts_pairs():
    # per emitted pair: the mixture's norm is 1
    res = phi_norm_oracle(PARAMS, QUAD)
    assert abs(res.value - 1.0) < 1e-7
    res = phi_norm_oracle(PARAMS, _mc(1 << 19))
    assert abs(res.value - 1.0) <= 3.0 * res.est_error


def test_phi_norm_integrates_the_mixture_once():
    # the mixture's norm is one run over one set of draws: it reports
    # sample_count, and its value is the f-weighted pure runs of the
    # same seed, which draw the same samples
    spec = _mc(1 << 16, seed=4)
    mixed = phi_norm_oracle(PARAMS, spec)
    assert mixed.samples_used == spec.sample_count
    f = PARAMS.triplet_fraction
    singlet, triplet = (phi_norm_oracle(_pure(PARAMS, g), spec).value for g in (0.0, 1.0))
    weighed = (1.0 - f) * singlet + f * triplet
    assert abs(mixed.value - weighed) <= 1e-12 * weighed
    # by quadrature, one run at n and one at n/2 nodes, each evaluating
    # the density on the square of its line rule in p1 and p2
    n = QUAD.nodes_per_axis
    assert phi_norm_oracle(PARAMS, QUAD).samples_used == n * n + (n // 2) ** 2


def test_oracle_result_refuses_negative_error():
    with pytest.raises(ValueError, match="est_error"):
        OracleResult(1.0, -1.0, 1)


def test_results_report_chunks_and_threads(monkeypatch):
    # chunks add up over the runs behind a result, threads is the worker
    # count they ran on; neither takes part in equality
    monkeypatch.setenv("PAIRCORR_THREADS", "2")
    spec = _mc(_CHUNK + 7)
    for res in (
        intensity_cor_oracle(1.2, PARAMS, spec),
        intensity_uncor_oracle(1.2, PARAMS, spec),
        phi_norm_oracle(PARAMS, spec),
    ):
        assert (res.chunks, res.threads) == (2, 2)
        assert res.elapsed_s > 0.0
    for res in (phi_norm_oracle(PARAMS, QUAD), intensity_cor_oracle(0.0, PARAMS, spec)):
        assert (res.chunks, res.threads) == (0, 1)
    with pytest.raises(ToleranceNotMetError) as excinfo:
        intensity_uncor_oracle(1.2, PARAMS, QuadratureSpec(sample_count=4096, target_rel_tol=1e-6))
    assert (excinfo.value.result.chunks, excinfo.value.result.threads) == (1, 2)
    described = OracleResult(1.0, 0.5, 3, chunks=2, threads=4, elapsed_s=1.0)
    assert described == OracleResult(1.0, 0.5, 3)


def test_draws_stream_block_by_block(monkeypatch):
    # a chunk holds one block of draws at a time, not its whole draws:
    # at one thread a chunk-sized call peaks near one chunk of weights
    # (2 MiB) plus a block's working set, which its workspace keeps for
    # the call. Measured 5.52 MiB (coincidence, which draws only the
    # polar variable), 5.78 MiB (accidental, which draws the polar
    # variable and p1 along s only; 7.61 MiB with importance-sampled
    # proposals, 9.1 MiB when it drew p1 whole) and 6.03 MiB (Monte-Carlo
    # pair norm, which draws both momenta along s only; 7.28 MiB when it
    # drew them whole from a normal proposal). Each bound adds 25 %,
    # below the 12 MiB whole-chunk draws alone would take and the
    # 13.0 MiB the norm took with its first momentum drawn whole.
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    spec = _mc(_CHUNK)
    runs = (
        (intensity_cor_oracle, 6.9),
        (intensity_uncor_oracle, 7.5),
        (lambda dp, params, spec: phi_norm_oracle(params, spec), 7.5),
    )
    for oracle, bound_mib in runs:
        oracle(1.2, PARAMS, _mc(1024))  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            oracle(1.2, PARAMS, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, (bound_mib, peak / 2**20)


def test_rho_single_matches_marginal():
    # the partner integral of the pair density must reproduce the
    # closed-form single-particle density
    for p in ((0.4, -0.2, 0.1), (0.0, 0.0, 0.0), (-0.6, 0.3, 0.9)):
        res = rho_single(np.array(p), PARAMS, QUAD)
        want = float(mixture_marginal(np.array(p), PARAMS))
        assert abs(res.value - want) < 1e-10 * want


def test_rho_single_at_large_total_momentum():
    # rho_single integrates at P = 0 on the offset p - P/2, so its nodes
    # do not round at the size of P: at P = 1e12 (1, 0, 1) it stays within
    # 1e-13 of the P = 0 marginal at the offset (it read 2.2e-9 at 1e8 and
    # 5.3e-6 at 1e12 with its nodes around the centres at P). The
    # closed-form marginal at p itself rounds there (1.2e-5 at 1e12).
    params = ModelParams(0.5, (0.3, -0.1, 0.7), triplet_fraction=0.3)
    for total in (1e4, 1e8, 1e12):
        half = np.array([total, 0.0, total]) / 2.0
        p = half + np.array([0.1, 0.05, -0.2])
        want = float(mixture_marginal(p - half, params))
        far = dataclasses.replace(params, p_total=tuple(2.0 * half))
        assert abs(rho_single(p, far, QUAD).value - want) <= 1e-13 * want, total


def test_rho_single_at_zero_splitting():
    # with no splitting to run along, the line rule runs along z
    params = ModelParams(0.5, 0.0, p_total=(1.0, 2.0, 3.0))
    p = np.array([0.3, 1.2, 1.1])
    want = float(mixture_marginal(p, params))
    assert abs(rho_single(p, params, QUAD).value - want) <= 1e-13 * want


def test_rho_single_takes_one_finite_vector():
    # a NaN or inf returned a NaN result that counted as meeting its
    # tolerance, and a scalar was integrated at (p, p, p)
    for bad in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), 5.0, np.zeros((2, 3))):
        with pytest.raises(ValueError, match="finite 3-vector"):
            rho_single(bad, PARAMS, QUAD)


def test_method_restrictions():
    with pytest.raises(UnsupportedMethodError):
        intensity_cor_oracle(1.0, PARAMS, QUAD)
    with pytest.raises(UnsupportedMethodError):
        intensity_uncor_oracle(1.0, PARAMS, QUAD)
    with pytest.raises(UnsupportedMethodError):
        rho_single(np.zeros(3), PARAMS, _mc(1024))


def test_results_are_deterministic(monkeypatch):
    # a partial last chunk that ends in a partial block
    spec = _mc(_CHUNK + _BLOCK + 7)
    runs = {
        "cor": lambda: intensity_cor_oracle(1.2, PARAMS, spec),
        "uncor": lambda: intensity_uncor_oracle(1.2, PARAMS, spec),
        "norm": lambda: phi_norm_oracle(PARAMS, spec),
    }
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    first = {name: run() for name, run in runs.items()}
    assert {name: run() for name, run in runs.items()} == first
    # chunk seeds, whole-chunk weight sums and the ordered fsum reduction
    # make the result independent of the thread count, bit for bit
    monkeypatch.setenv("PAIRCORR_THREADS", "3")
    assert {name: run() for name, run in runs.items()} == first


def test_results_are_block_size_independent(monkeypatch):
    # a chunk makes its draws whole and sums its weights once, so the
    # block size, like the thread count, changes no bit: a partial last
    # chunk that ends in a partial block, through blocks of 4099 samples
    # (odd, so blocks split cells) and of a whole chunk
    spec = _mc(_CHUNK + _BLOCK + 7)
    runs = {
        "cor": lambda: intensity_cor_oracle(1.2, PARAMS, spec),
        "uncor": lambda: intensity_uncor_oracle(1.2, PARAMS, spec),
        "norm": lambda: phi_norm_oracle(PARAMS, spec),
    }
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    default = {name: run() for name, run in runs.items()}
    for block in (4099, _CHUNK):
        monkeypatch.setattr(paircorr.oracle, "_BLOCK", block)
        assert {name: run() for name, run in runs.items()} == default, block


def _address(a):
    return a.__array_interface__["data"][0]


def test_blocks_reuse_one_workspace(monkeypatch):
    # at one thread, a call of a chunk and a half runs both chunks on one
    # workspace: every block fills the same draw rows, the second chunk's
    # weights land where the first chunk's did, and the densities come
    # back in the same rows block after block
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    seen, results = [], []
    mc_sum = paircorr.oracle._mc_sum

    def spy(total, seed_seq, streams, block_fn, *multiple):
        def block(work, out, lo, count, *draws):
            seen.append((_address(out), tuple(_address(d) for d in draws)))
            block_fn(work, out, lo, count, *draws)

        return mc_sum(total, seed_seq, streams, block, *multiple)

    def recorded(density):
        def run(*args):
            result = density(*args)
            results.append(_address(result))
            return result

        return run

    monkeypatch.setattr(paircorr.oracle, "_mc_sum", spy)
    monkeypatch.setattr(paircorr.oracle, "mixture_density", recorded(mixture_density))
    monkeypatch.setattr(paircorr.oracle, "mixture_marginal", recorded(mixture_marginal))
    spec = _mc(_CHUNK + _CHUNK // 2)
    n = _CHUNK // _BLOCK
    for run in (
        lambda: intensity_cor_oracle(1.2, PARAMS, spec),
        lambda: intensity_uncor_oracle(1.2, PARAMS, spec),
        lambda: phi_norm_oracle(PARAMS, spec),
    ):
        seen.clear()
        results.clear()
        run()
        assert len(seen) == n + n // 2
        outs, draws = zip(*seen)
        assert len(set(draws)) == 1
        assert list(outs[:n]) == [outs[0] + 8 * _BLOCK * j for j in range(n)]
        assert outs[n:] == outs[: n // 2]
        assert len(results) in (len(seen), 2 * len(seen)) and len(set(results)) == 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
def test_blocks_do_not_page_fault(monkeypatch):
    # a block allocates nothing, so after a warm-up a call faults in at
    # most its workspace (~5.5 MiB, ~1.4k pages): at 4 chunks this read 1
    # minor fault inside the full test run and ~1.2k in a fresh process.
    # Densities' temporaries made and freed per block read about the
    # same (~1.5k fresh), as glibc keeps them on its heap
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    spec = _mc(4 * _CHUNK)
    intensity_uncor_oracle(1.2, PARAMS, spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    intensity_uncor_oracle(1.2, PARAMS, spec)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 10_000, faults


def test_error_estimate_scales_like_sqrt_n():
    # whole chunks are independent replicates, so 16 of them cut the SE
    # by about 4; within one chunk the cells shrink as the samples grow,
    # and the SE falls faster (by 14.5 from 2^16 to 2^20 samples)
    coarse = phi_norm_oracle(_pure(PARAMS, 0.0), _mc(_CHUNK))
    fine = phi_norm_oracle(_pure(PARAMS, 0.0), _mc(16 * _CHUNK))
    ratio = coarse.est_error / fine.est_error
    assert 2.5 < ratio < 6.5  # 16x the samples, expect about 4


def test_independent_seeds_agree():
    a = intensity_uncor_oracle(1.2, PARAMS, _mc(1 << 18, seed=0))
    b = intensity_uncor_oracle(1.2, PARAMS, _mc(1 << 18, seed=1))
    assert a.value != b.value
    assert abs(a.value - b.value) <= 3.0 * (a.est_error + b.est_error)


def test_mixture_channels_share_draws():
    # singlet and triplet run on one set of draws, so the mixture counts
    # sample_count samples and agrees with its pure channels, weighed by
    # 1 - f and f, run one at a time
    spec = _mc(1 << 18)
    f = PARAMS.triplet_fraction
    both = intensity_cor_oracle(1.2, PARAMS, spec)
    singlet, triplet = (intensity_cor_oracle(1.2, _pure(PARAMS, g), spec) for g in (0.0, 1.0))
    assert both.samples_used == spec.sample_count
    budget = 3.0 * (both.est_error + (1.0 - f) * singlet.est_error + f * triplet.est_error)
    assert abs(both.value - (1.0 - f) * singlet.value - f * triplet.value) <= budget


def test_oracles_integrate_mixture_density(monkeypatch):
    # the coincidence oracle and the Monte-Carlo pair norm weigh their
    # draws by model.mixture_density alone: doubling it doubles value and
    # est_error exactly, through the sums, fsum and sqrt
    spec = _mc(_CHUNK + _BLOCK + 7)
    runs = (
        lambda: intensity_cor_oracle(1.2, PARAMS, spec),
        lambda: phi_norm_oracle(PARAMS, spec),
    )
    plain = [run() for run in runs]
    monkeypatch.setattr(paircorr.oracle, "mixture_density", lambda *a: 2.0 * mixture_density(*a))
    for run, res in zip(runs, plain):
        doubled = run()
        assert (doubled.value, doubled.est_error) == (2.0 * res.value, 2.0 * res.est_error)


def test_mixture_is_thread_count_independent(monkeypatch):
    spec = _mc(_CHUNK + _BLOCK + 7)
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    one = intensity_cor_oracle(0.9, PARAMS, spec)
    monkeypatch.setenv("PAIRCORR_THREADS", "2")
    assert intensity_cor_oracle(0.9, PARAMS, spec) == one


def test_se_is_the_spread_of_weights_that_barely_vary(monkeypatch):
    # the paper's singlet (sigma = 0.22, p_tilde = 0.022), whose weights
    # vary by ~1e-5 of their mean at these dp, and by far less within a
    # cell. The SE must be the spread of the pairs drawn,
    # sqrt(fsum of (w_2k - w_2k+1)^2) / N, above zero: the iid SE of
    # these weights is ~5e4 times larger, and a one-pass s2/N - mean^2
    # rounded to 0.0 where the weights barely vary
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    weights = []
    mc_sum = paircorr.oracle._mc_sum

    def gathered(total, seed_seq, streams, block_fn, *multiple):
        def block(work, out, *args):
            block_fn(work, out, *args)
            weights.append(out.copy())

        return mc_sum(total, seed_seq, streams, block, *multiple)

    monkeypatch.setattr(paircorr.oracle, "_mc_sum", gathered)
    singlet = ModelParams(0.22, 0.022)
    for dp in (0.055, 0.11):
        weights.clear()
        res = intensity_cor_oracle(dp, singlet, QuadratureSpec(rng_seed=5, target_rel_tol=0.5))
        w = np.concatenate(weights)
        assert w.size == res.samples_used == 2_000_000
        mean = math.fsum(w) / w.size
        se = math.sqrt(math.fsum((w[0::2] - w[1::2]) ** 2)) / w.size
        assert abs(res.value - mean) <= 1e-14 * mean
        assert 0.0 < se
        assert abs(res.est_error - se) <= 1e-9 * se, (dp, res.est_error, se)


def _redrawn(res, old):
    # another estimate of the same integral from as many samples: within 3 joint SE of the old pin
    assert res.samples_used == old.samples_used
    assert abs(res.value - old.value) <= 3.0 * (res.est_error + old.est_error), (res, old)


def _same_accidental(res, old, dp, params):
    # an estimate of the same integral by a sampler of smaller variance:
    # within 3 joint SE of the old pin, a smaller SE, and within 3 SE of the closed form
    _redrawn(res, old)
    assert res.est_error < old.est_error, (res, old)
    closed = accidental_intensity(dp, params.sigma, params.triplet_fraction, params.split_magnitude)
    assert abs(res.value - closed) <= 3.0 * res.est_error, (res, closed)


def _near(res, old):
    # the same draws weighed by densities that round differently: within
    # 1e-13 of the old value and 1e-9 of its SE, which sums the squares of
    # pair differences as small as 1e-8 of the weights
    assert res.samples_used == old.samples_used
    assert abs(res.value - old.value) <= 1e-13 * abs(old.value), (res, old)
    assert abs(res.est_error - old.est_error) <= 1e-9 * old.est_error, (res, old)


def _per_pair(pin, count):
    """A pin recorded when the oracles scaled by a pair count, here count, taken per emitted pair."""
    return OracleResult(pin.value / count, pin.est_error / count, pin.samples_used)


def test_frozen_oracle_outputs():
    # (value, est_error, samples_used) pinned bit for bit: a restructured
    # sampler must keep the draws and the arithmetic. The intensity pins
    # moved when both oracles came to draw uniformly, two samples per
    # equal cell, with the SE of the pair differences. Every
    # earlier intensity pin (some per pair count: 1.8, 2 for PARAMS and
    # 2.5) is another estimate of the same integral, and stays as a
    # cross-check within 3 joint SE; the accidental's, from samplers of
    # larger variance, also with a larger SE. The pins moved in their
    # last bits again when the model densities came to form their
    # distances as stacks, multiply by 1/(4 sigma^2) and scale each
    # channel by one factor: the pins from just before stay as _near
    # cross-checks of the same draws
    spec = _mc(1 << 18)
    point = ModelParams(0.6, (0.2, 0.1, -0.5), (0.1, 0, 0.2), triplet_fraction=1.0)
    single = intensity_cor_oracle(0.9, point, spec)
    assert single == OracleResult(0.20812098301703308, 6.35454890670495e-09, 262144)
    _near(single, OracleResult(0.2081209830170331, 6.354548906704598e-09, 262144))
    _redrawn(single, OracleResult(0.20812097352042475, 0.000350089812087222, 262144))
    for old in (
        OracleResult(0.37461775233676453, 0.0006301616617569996, 262144),
        OracleResult(0.3746177523367646, 0.0006301616617569996, 262144),
        OracleResult(0.3746177523367646, 0.0006301616617569997, 262144),
        OracleResult(0.37461775233676486, 0.000630161661757, 262144),
    ):
        _redrawn(single, _per_pair(old, 1.8))
    closed = coincidence_intensity(0.9, point.sigma, point.triplet_fraction, point.split_magnitude)
    assert abs(single.value - closed) <= 3.0 * single.est_error
    accidental = intensity_uncor_oracle(1.2, PARAMS, spec)
    assert accidental == OracleResult(0.7361326930468254, 2.672124087351299e-05, 262144)
    _near(accidental, OracleResult(0.7361326930468254, 2.6721240873512986e-05, 262144))
    _same_accidental(accidental, OracleResult(0.7364237462166631, 0.00024709450355522806, 262144), 1.2, PARAMS)
    for old in (
        OracleResult(1.4728474924333261, 0.0004941890071104561, 262144),
        OracleResult(1.4728886000427193, 0.0011448225065081464, 262144),
        OracleResult(1.4728886000427193, 0.0011448225065081468, 262144),
        OracleResult(1.47115023682443, 0.0011432407007761398, 262144),
    ):
        _same_accidental(accidental, _per_pair(old, 2.0), 1.2, PARAMS)
    # a split and a total momentum with every frame component nonzero
    full = ModelParams(
        sigma=0.5,
        p_split=(0.3, -0.1, 0.7),
        p_total=(0.1, 0.2, -0.3),
        triplet_fraction=0.7,
    )
    # the mixture's singlet and triplet share one set of draws, weighed
    # by mixture_density; the pins from when the oracle weighed them
    # itself, and from when each channel drew its own, stay as cross-checks
    mixed = intensity_cor_oracle(0.9, full, spec)
    assert mixed == OracleResult(0.4526396957972041, 9.130054056301958e-09, 262144)
    _near(mixed, OracleResult(0.4526396957972041, 9.130054056301898e-09, 262144))
    _redrawn(mixed, OracleResult(0.45263968128873444, 0.00038753846827109046, 262144))
    for old in (
        OracleResult(1.131599203221836, 0.0009688461706777262, 262144),
        OracleResult(1.1315992032218358, 0.0009688461706777262, 262144),
        OracleResult(1.1315992032218358, 0.0009688461706777263, 262144),
        OracleResult(1.131599203221836, 0.0009688461706777258, 262144),
        OracleResult(1.1315992032218363, 0.0009688461706777268, 262144),
    ):
        _redrawn(mixed, _per_pair(old, 2.5))
    closed = coincidence_intensity(0.9, full.sigma, full.triplet_fraction, full.split_magnitude)
    assert abs(mixed.value - closed) <= 3.0 * mixed.est_error
    separate = _per_pair(OracleResult(1.1315991582933402, 0.0009515730609372622, 524288), 2.5)
    assert abs(mixed.value - separate.value) <= 3.0 * (mixed.est_error + separate.est_error)
    accidental = intensity_uncor_oracle(0.9, full, spec)
    assert accidental == OracleResult(0.641457885959489, 1.7738630360305534e-05, 262144)
    _near(accidental, OracleResult(0.641457885959489, 1.773863036030553e-05, 262144))
    for old in (
        OracleResult(0.6410568976607152, 0.00026523178989521797, 262144),
        OracleResult(0.6410568976607153, 0.000265231789895218, 262144),
    ):
        _same_accidental(accidental, old, 0.9, full)
    for old in (
        OracleResult(1.6026422441517882, 0.0006630794747380451, 262144),
        OracleResult(1.6026422441517882, 0.000663079474738045, 262144),
        OracleResult(1.6046135886591082, 0.001311789928758929, 262144),
        OracleResult(1.6046135886591082, 0.0013117899287589277, 262144),
        OracleResult(1.60234510201822, 0.0013118720030790413, 262144),
    ):
        _same_accidental(accidental, _per_pair(old, 2.5), 0.9, full)
    # the norm draws (t1, t2) on the splitting axis, two per equal cell
    # of u-rows by _COLUMNS t-columns, and its pins moved. Every earlier
    # pin is another draw of the same integral and stays within 3 joint
    # SE of the pin: those from the two-centre normal proposal (with the
    # pair-difference and the iid SE), from when its second momentum
    # drew on a generator of its own (with the two-pass and the one-pass
    # SE), and from when it followed the first on one generator. The pin
    # must hold the norm of 1
    norms = (
        (0.0, OracleResult(0.9999954659954083, 0.00011502208580498867, 262144),
         (OracleResult(1.0001121512967923, 0.0003758550094204861, 262144),
          OracleResult(1.0001121512967923, 0.00037532681114451445, 262144),
          OracleResult(1.0000650943960032, 0.00037566448838518125, 262144),
          OracleResult(1.0000650943960032, 0.0003756644883851808, 262144),
          OracleResult(1.0004253803940717, 0.00037574767872306804, 262144))),
        (1.0, OracleResult(0.9998925336531057, 0.00015232509248064722, 262144),
         (OracleResult(0.999608861358007, 0.001310831191221545, 262144),
          OracleResult(0.9996088613580071, 0.0013089890479536914, 262144),
          OracleResult(0.9997729769125979, 0.001310166730433736, 262144),
          OracleResult(0.9997729769125979, 0.0013101667304337363, 262144),
          OracleResult(0.9985164441747301, 0.0013104568648924454, 262144))),
    )
    for f, pin, olds in norms:
        res = phi_norm_oracle(_pure(full, f), spec)
        assert res == pin
        assert abs(pin.value - 1.0) <= 3.0 * pin.est_error
        for old in olds:
            _redrawn(pin, old)


def test_on_axis_results_are_pinned():
    # a splitting along z at P = 0 is already on the axis the intensity
    # oracles work on: the README example at dp = sigma, and the paper's
    # singlet. The pins moved when the oracles came to draw two samples
    # per equal cell; the pins from before stay as cross-checks within 3
    # joint SE. They moved in their last bits when the model densities
    # came to form their distances as stacks; the pins from just before
    # stay as _near cross-checks
    spec = _mc(1 << 18)
    readme = ModelParams(0.5, 0.05, triplet_fraction=0.3)
    coincidence = intensity_cor_oracle(0.5, readme, spec)
    assert coincidence == OracleResult(0.32919829799134015, 6.565379698722949e-10, 262144)
    _near(coincidence, OracleResult(0.32919829799134015, 6.565379698723291e-10, 262144))
    _redrawn(coincidence, OracleResult(0.3291982970226356, 3.832789738193624e-05, 262144))
    accidental = intensity_uncor_oracle(0.5, readme, spec)
    assert accidental == OracleResult(0.3893519383361032, 1.358879792744961e-05, 262144)
    _near(accidental, OracleResult(0.38935193833610315, 1.3588797927449608e-05, 262144))
    for old in (
        OracleResult(0.38941416786867966, 5.5217292969693186e-05, 262144),
        OracleResult(0.3894141678686798, 5.52172929696932e-05, 262144),
    ):
        _same_accidental(accidental, old, 0.5, readme)
    paper = ModelParams(0.22, 0.022)
    coincidence = intensity_cor_oracle(0.22, paper, spec)
    assert coincidence == OracleResult(0.9975761079486876, 6.199131594503188e-12, 262144)
    _near(coincidence, OracleResult(0.9975761079486878, 6.199131594633802e-12, 262144))
    _redrawn(coincidence, OracleResult(0.9975761079500554, 7.56089411616813e-11, 262144))


def test_quadrature_norm_is_pinned_on_the_axis():
    # a splitting along z at P = 0 is already on the axis the norm works
    # on: the README example keeps its nodes and arithmetic bit for bit.
    # The pin moved when the norm became a line-rule sum of the density
    # itself; the value from before, by per-axis Gaussian products, is a
    # cross-check
    readme = ModelParams(0.5, 0.05, triplet_fraction=0.3)
    res = phi_norm_oracle(readme, QUAD)
    assert res == OracleResult(0.9999999999999731, 8.996887237433526e-07, 2880)
    assert abs(res.value - 0.9999999999999596) <= 1e-13


def test_quadrature_norm_at_the_degeneracy_edge():
    # near split = 1e-6 sigma the per-axis products and 2 (1 - J^2) both
    # cancelled: a pure triplet read 1 + 4.3e-4 with est_error 0 at 64
    # nodes, and missed its tolerance at 48 nodes and at sigma = 0.22
    for sigma in (0.22, 1.0):
        for ratio in (1.0001e-6, 1e-5):
            params = ModelParams(sigma, ratio * sigma, triplet_fraction=1.0)
            for n in (48, 64):
                spec = dataclasses.replace(QUAD, nodes_per_axis=n)
                res = phi_norm_oracle(params, spec)
                assert abs(res.value - 1.0) <= 1e-9, (sigma, ratio, n, res)


def test_norm_at_large_total_momentum():
    # the norm drops P, as the intensity oracles do: at P = 1e12 (1, 0, 1)
    # both methods return their P = 0 results bit for bit, and the
    # quadrature holds the norm of 1 to 1e-13 (it read 1 - 3.3e-5 at
    # P = 1e12 when its nodes were spread around the centres at P)
    params = ModelParams(0.5, (0.3, -0.1, 0.7), triplet_fraction=0.3)
    for total in (0.0, 1e8, 1e12):
        far = dataclasses.replace(params, p_total=(total, 0.0, total))
        for spec in (QUAD, _mc(1 << 16)):
            assert phi_norm_oracle(far, spec) == phi_norm_oracle(params, spec), (total, spec.method)
        assert abs(phi_norm_oracle(far, QUAD).value - 1.0) <= 1e-13, total


def _rotation_onto_z(axis, rng):
    """A proper rotation R with R axis^ = z^, about a random azimuth."""
    e3 = np.asarray(axis) / np.linalg.norm(axis)
    e1 = rng.standard_normal(3)
    e1 -= (e1 @ e3) * e3
    e1 /= np.linalg.norm(e1)
    return np.array([e1, np.cross(e3, e1), e3])


def test_densities_are_invariant_on_the_splitting_axis():
    # the intensity oracles integrate _on_axis(params), s along +z and
    # P = 0, in place of params; that is the same integral only while
    # both densities at params equal those at _on_axis(params) on the
    # momenta shifted by -P/2 and rotated s^ onto z^. The pair density
    # is held to 1e-13 of the singlet's at the same momenta where that
    # is larger: near the triplet's node (e^{-A/2} - e^{-B/2})^2 cancels,
    # and an ulp of a rotated momentum moves it by more than 1e-13 of
    # itself (5.6e-13 at one of the 256 pure-triplet pairs here)
    rng = np.random.default_rng(30)
    for f in (0.0, 0.4, 1.0):
        params = ModelParams(0.5, (0.3, -0.1, 0.7), (0.1, 0.2, -0.3), triplet_fraction=f)
        axis = _on_axis(params)
        assert axis.p_split == (0.0, 0.0, params.split_magnitude) and axis.p_total == (0.0, 0.0, 0.0)
        singlet = dataclasses.replace(params, triplet_fraction=0.0)
        half = np.asarray(params.p_total) / 2.0
        for _ in range(4):
            rot = _rotation_onto_z(params.p_split, rng)
            np.testing.assert_allclose(rot @ params.p_split, [0.0, 0.0, params.split_magnitude], atol=1e-15)
            p1, p2 = half + 0.6 * rng.standard_normal((2, 64, 3))
            on1, on2 = ((p - half) @ rot.T for p in (p1, p2))
            want = mixture_density(p1, p2, params)
            scale = np.maximum(want, mixture_density(p1, p2, singlet))
            gap = np.abs(mixture_density(on1, on2, axis) - want)
            assert np.all(gap <= 1e-13 * scale), (f, np.max(gap / want))
            np.testing.assert_allclose(
                mixture_marginal(on1, axis), mixture_marginal(p1, params), rtol=1e-13, atol=0.0,
                err_msg=f"f={f}",
            )


def test_intensities_at_large_total_momentum():
    # the intensity oracles drop P, so P = 1e8 (1, 0, 1) costs no digits:
    # its results are those at P = 0, bit for bit
    params = ModelParams(0.5, (0.3, -0.1, 0.7), triplet_fraction=0.3)
    far = dataclasses.replace(params, p_total=(1e8, 0.0, 1e8))
    for oracle in (intensity_cor_oracle, intensity_uncor_oracle):
        assert oracle(0.9, far, _mc(1 << 16)) == oracle(0.9, params, _mc(1 << 16)), oracle


def test_density_over_the_p1_proposal_depends_on_u_alone():
    # the coincidence oracle samples only the polar cosine u and takes p1
    # at the centre of its Gaussian proposal, (P - q)/2 with covariance
    # sigma^2/2 (-q/2 on its axis, at P = 0), and the azimuth phi at 0;
    # that is exact only while the 6-d pair density over the proposal is
    # the same at every p1 and phi
    sigma, dp = 0.5, 0.9
    p_split, p_total = np.array([0.3, -0.1, 0.7]), np.array([0.1, 0.2, -0.3])
    e3 = p_split / np.linalg.norm(p_split)
    e1 = np.cross([1.0, 0.0, 0.0], e3)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    rng = np.random.default_rng(8)
    for f in (0.0, 1.0, 0.4):
        params = ModelParams(sigma, p_split, p_total, triplet_fraction=f)
        for u in (-0.9, -0.4, 0.25, 0.7, 0.99):
            x = np.vstack([np.zeros(3), rng.standard_normal((64, 3))])
            phi = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * np.pi, 64)])
            sin_theta = math.sqrt(1.0 - u * u)
            q = dp * (sin_theta * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2) + u * e3)
            p1 = (p_total - q) / 2.0 + sigma / math.sqrt(2.0) * x
            proposal = (math.pi * sigma * sigma) ** -1.5 * np.exp(-0.5 * np.sum(x * x, axis=1))
            ratio = mixture_density(p1, p1 + q, params) / proposal
            assert ratio[0] > 0.0
            np.testing.assert_allclose(ratio[1:], ratio[0], rtol=1e-13, atol=0.0, err_msg=f"f={f}, u={u}")


def _on_the_line(dp, u, ts, phi=(0.0,)):
    """q at polar cosine u and each azimuth phi about z, and the accidental
    oracle's p1 = -q/2 + t z^ for each t in ts, as (n, 3) rows, one per (phi, t)."""
    n = len(phi) * len(ts)
    q = _direction(dp, np.full(n, u), _Workspace(n, 0)).T.copy()
    # q, in the x-z plane, rotated about z through each phi, each for every t
    angle = np.repeat(phi, len(ts))
    q[:, 1] = q[:, 0] * np.sin(angle)
    q[:, 0] *= np.cos(angle)
    p1 = q * -0.5
    p1[:, 2] += np.tile(ts, len(phi))
    return q, p1


def _line_cases():
    # the oracle's mixture for an off-axis s and P (_on_axis), every
    # channel mix, five polar cosines and five t
    for f in (0.0, 0.4, 1.0):
        params = ModelParams(0.5, (0.3, -0.1, 0.7), (0.1, 0.2, -0.3), triplet_fraction=f)
        for u in (-0.9, -0.4, 0.25, 0.7, 0.99):
            yield _on_axis(params), u, np.array([-0.6, -0.15, 0.0, 0.35, 0.8])


def _across(x, y):
    """Momenta x x^ + y y^ across the splitting axis z, as (n, 3) rows."""
    return np.stack([x, y, np.zeros_like(x)], axis=-1)


def test_accidental_integrand_is_gaussian_across_s():
    # the accidental oracle integrates p1 across s exactly; that holds
    # only while rho(p1 + x) rho(p1 + x + q) exp(|x|^2 / sigma^2) is the
    # same at every x across s, for p1 on the oracle's line
    dp, rng = 0.9, np.random.default_rng(27)
    for params, u, ts in _line_cases():
        sigma = params.sigma
        x = np.vstack([np.zeros(2), rng.standard_normal((32, 2))]) * sigma
        x = _across(x[:, 0], x[:, 1])
        q, p1 = _on_the_line(dp, u, ts)
        at = p1[:, None, :] + x
        value = mixture_marginal(at, params) * mixture_marginal(at + q[:, None, :], params)
        value *= np.exp(np.sum(x * x, axis=1) / (sigma * sigma))
        assert np.all(value[:, 0] > 0.0)
        np.testing.assert_allclose(
            value, np.broadcast_to(value[:, :1], value.shape), rtol=1e-13, atol=0.0,
            err_msg=f"{params}, u={u}",
        )


def test_accidental_integral_across_s_is_pi_sigma_squared_times_the_line():
    # a 12 x 12 Gauss-Hermite rule across s, exact for a Gaussian of
    # covariance sigma^2/2 centred on the line, against the oracle's
    # factor pi sigma^2 times the integrand on the line
    dp = 0.9
    nodes, weights = np.polynomial.hermite.hermgauss(12)
    a, b = (g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
    rule = np.outer(weights, weights).ravel() * np.exp(a * a + b * b)
    for params, u, ts in _line_cases():
        sigma = params.sigma
        x = sigma * _across(a, b)
        q, p1 = _on_the_line(dp, u, ts)
        on_line = mixture_marginal(p1, params) * mixture_marginal(p1 + q, params)
        at = p1[:, None, :] + x
        across = mixture_marginal(at, params) * mixture_marginal(at + q[:, None, :], params)
        integral = sigma * sigma * (across @ rule)
        np.testing.assert_allclose(
            integral, math.pi * sigma * sigma * on_line, rtol=1e-13, atol=0.0, err_msg=f"{params}, u={u}"
        )


def test_accidental_weight_is_azimuth_invariant():
    # the accidental oracle takes the azimuth phi at 0; that is exact only
    # while rotating q about z, the splitting axis, with p1 on the
    # oracle's line, leaves the weight unchanged. Its other factors, the
    # densities of t and u, do not depend on phi, so rho(p1) rho(p1 + q)
    # must not
    dp, rng = 0.9, np.random.default_rng(24)
    phi = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * np.pi, 32)])
    for params, u, ts in _line_cases():
        q, p1 = _on_the_line(dp, u, ts, phi)
        weight = mixture_marginal(p1, params) * mixture_marginal(p1 + q, params)
        weight = weight.reshape(len(phi), len(ts))
        assert np.all(weight[0] > 0.0)
        np.testing.assert_allclose(
            weight[1:], np.broadcast_to(weight[0], weight[1:].shape), rtol=1e-13, atol=0.0,
            err_msg=f"{params}, u={u}",
        )


def _norm_cases():
    # the norm's mixture for an off-axis s and P (_on_axis) at every
    # channel mix, and five (t1, t2) on the axis, off the triplet's node
    # t1 = t2, as (5, 1, 3) momenta p1 and p2
    ts = np.array([[-0.9, 0.4], [-0.2, 0.0], [0.0, 0.35], [0.35, -0.6], [0.8, 0.1]])
    p1, p2 = (t[:, None, None] * np.array([0.0, 0.0, 1.0]) for t in ts.T)
    for f in (0.0, 0.3, 1.0):
        params = ModelParams(0.5, (0.3, -0.1, 0.7), (0.1, 0.2, -0.3), triplet_fraction=f)
        yield _on_axis(params), p1, p2


def test_norm_integrand_is_gaussian_across_the_axis():
    # the pair norm samples p1 and p2 along z alone; that holds only while
    # Phi(t1 z^ + x1, t2 z^ + x2) exp((|x1|^2 + |x2|^2) / (2 sigma^2)) is
    # the same at every x1 and x2 across z
    rng = np.random.default_rng(38)
    for params, p1, p2 in _norm_cases():
        sigma = params.sigma
        x = np.vstack([np.zeros(4), rng.standard_normal((32, 4))]) * sigma
        value = mixture_density(p1 + _across(x[:, 0], x[:, 1]), p2 + _across(x[:, 2], x[:, 3]), params)
        value *= np.exp(np.sum(x * x, axis=1) / (2.0 * sigma * sigma))
        assert np.all(value[:, 0] > 0.0)
        np.testing.assert_allclose(
            value, np.broadcast_to(value[:, :1], value.shape), rtol=1e-13, atol=0.0, err_msg=f"{params}"
        )


def test_norm_integral_across_the_axis_is_two_pi_sigma_squared_squared_times_the_axis():
    # a 6-node Gauss-Hermite rule in each of the four coordinates across
    # z, exact for a Gaussian of covariance sigma^2 in each, against the
    # norm's factor (2 pi sigma^2)^2 times the density on the axis
    nodes, weights = np.polynomial.hermite.hermgauss(6)
    y = np.stack([g.ravel() for g in np.meshgrid(*[nodes] * 4, indexing="ij")], axis=1)
    rule = np.einsum("i,j,k,l->ijkl", *[weights] * 4).ravel() * np.exp(np.sum(y * y, axis=1))
    for params, p1, p2 in _norm_cases():
        sigma = params.sigma
        x = math.sqrt(2.0) * sigma * y
        across = mixture_density(p1 + _across(x[:, 0], x[:, 1]), p2 + _across(x[:, 2], x[:, 3]), params)
        integral = 4.0 * sigma**4 * (across @ rule)
        on_axis = mixture_density(p1, p2, params)[:, 0]
        np.testing.assert_allclose(
            integral, (2.0 * math.pi * sigma * sigma) ** 2 * on_axis, rtol=1e-13, atol=0.0, err_msg=f"{params}"
        )


# the README example (f = 0.3), the paper's singlet and triplet (sigma =
# 0.22, p_tilde = 0.022), an off-axis split and total at f = 0.7, and a
# wide split at z = |s| dp / (2 sigma^2) = 8
_HONESTY_CASES = (
    (ModelParams(0.5, 0.05, triplet_fraction=0.3), 1.0),
    (ModelParams(0.22, 0.022), 0.22),
    (ModelParams(0.22, 0.022, triplet_fraction=1.0), 0.22),
    (ModelParams(0.5, (0.3, -0.1, 0.7), (0.1, 0.2, -0.3), triplet_fraction=0.7), 0.9),
    (ModelParams(0.5, 2.0, triplet_fraction=1.0), 2.0),
)


def _se_is_honest(oracle, closed_form):
    # 40 seeds per case at 2^17 samples: z = (value - closed form) / SE
    # must be within 3 on >= 99 % of the draws and within 5 on all, and
    # spread by 0.5 to 1.5 in every case. The lower bound catches an
    # overstated SE: an iid SE of importance-sampled coincidence draws
    # gave sd(z) ~ 0
    z = []
    for params, dp in _HONESTY_CASES:
        closed = closed_form(dp, params.sigma, params.triplet_fraction, params.split_magnitude)
        runs = [oracle(dp, params, _mc(1 << 17, seed)) for seed in range(40)]
        case = np.array([(res.value - closed) / res.est_error for res in runs])
        assert 0.5 <= np.std(case) <= 1.5, (params, dp, np.std(case))
        z.extend(case)
    z = np.abs(z)
    assert np.mean(z <= 3.0) >= 0.99 and z.max() <= 5.0, np.sort(z)[-6:]


def test_accidental_se_is_honest():
    _se_is_honest(intensity_uncor_oracle, accidental_intensity)


def test_coincidence_se_is_honest():
    _se_is_honest(intensity_cor_oracle, coincidence_intensity)


def test_norm_se_is_honest():
    # the norm takes no dp, and integrates to 1
    _se_is_honest(lambda dp, params, spec: phi_norm_oracle(params, spec), lambda *args: 1.0)


def test_zero_weight_channel_is_skipped():
    # a pure singlet at zero splitting, where the triplet of weight
    # f = 0 is degenerate: it is never touched, and the singlet runs
    singlet = ModelParams(sigma=0.4, triplet_fraction=0.0)
    res = intensity_cor_oracle(0.9, singlet, _mc(1 << 18))
    closed = coincidence_intensity(0.9, singlet.sigma, 0.0, 0.0)
    assert abs(res.value - closed) <= 3.0 * res.est_error


def test_zero_separation_is_exactly_zero():
    for oracle in (intensity_cor_oracle, intensity_uncor_oracle):
        res = oracle(0.0, PARAMS, _mc(1024))
        assert res == OracleResult(0.0, 0.0, 0)


def test_tolerance_failure_carries_partial_result():
    spec = QuadratureSpec(sample_count=4096, target_rel_tol=1e-6)
    with pytest.raises(ToleranceNotMetError) as excinfo:
        intensity_uncor_oracle(1.2, PARAMS, spec)
    partial = excinfo.value.result
    assert partial.samples_used == 4096
    assert partial.est_error > 0.0
    assert abs(partial.value - 0.735) < 0.1  # the estimate itself is sound


def test_degenerate_triplet_is_refused():
    bad = ModelParams(sigma=0.5, triplet_fraction=0.5)
    with pytest.raises(DegenerateChannelError):
        intensity_uncor_oracle(1.0, bad, _mc(1024))
    with pytest.raises(DegenerateChannelError):
        phi_norm_oracle(bad, _mc(1024))
    with pytest.raises(DegenerateChannelError):
        phi_norm_oracle(_pure(bad, 1.0), _mc(1024))
    # the coincidence oracle refuses the zero-split mixture, and a pure
    # triplet at a splitting just under the threshold
    bare = ModelParams(0.5, (0, 0, 4e-7), triplet_fraction=1.0)
    for params in (bad, bare):
        with pytest.raises(DegenerateChannelError):
            intensity_cor_oracle(1.0, params, _mc(4096))


def test_degenerate_triplet_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a degenerate triplet must be refused before any draw")

    monkeypatch.setattr(paircorr.oracle, "_mc_sum", no_draws)
    bad = ModelParams(0.5, triplet_fraction=0.5)
    for oracle in (intensity_cor_oracle, intensity_uncor_oracle):
        with pytest.raises(DegenerateChannelError):
            oracle(1.0, bad, _mc(1024))
    for spec in (_mc(1024), QUAD):
        with pytest.raises(DegenerateChannelError):
            phi_norm_oracle(bad, spec)


def test_degenerate_triplet_in_group_is_refused():
    # at zero splitting the triplet shares draws with the singlet in one
    # mixture, and is refused at any nonzero weight, however small
    for f in (1e-3, 0.5, 0.999):
        mixed = ModelParams(sigma=0.5, p_split=(0.0, 0.0, 0.0), triplet_fraction=f)
        with pytest.raises(DegenerateChannelError):
            intensity_cor_oracle(1.0, mixed, _mc(4096))


def test_oracles_match_closed_forms():
    spec = _mc(1 << 19)
    for dp in (0.6, 1.2):
        cor = intensity_cor_oracle(dp, PARAMS, spec)
        want = coincidence_intensity(dp, PARAMS.sigma, PARAMS.triplet_fraction, PARAMS.split_magnitude)
        assert abs(cor.value - want) <= max(3.0 * cor.est_error, 1e-6 * want)
        unc = intensity_uncor_oracle(dp, PARAMS, spec)
        want = accidental_intensity(dp, PARAMS.sigma, PARAMS.triplet_fraction, PARAMS.split_magnitude)
        assert abs(unc.value - want) <= 3.0 * unc.est_error


def test_spec_and_channel_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(method="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(sample_count=0)
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_axis=4)
    with pytest.raises(ValueError):
        QuadratureSpec(target_rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rng_seed=-1)
    # counts and seeds are whole numbers; a fraction is refused, not truncated
    for bad in (
        dict(sample_count=2.7),
        dict(nodes_per_axis=16.5),
        dict(rng_seed=1.5),
        dict(sample_count=np.nan),
        dict(sample_count=np.inf),
        dict(rng_seed=np.array([1, 2])),
    ):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    assert QuadratureSpec(sample_count=np.int64(4096), rng_seed=2.0).rng_seed == 2
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_tol=tol)
    with pytest.raises(ValueError):
        intensity_cor_oracle(-1.0, PARAMS, _mc(1024))
    # non-finite inputs are refused up front instead of yielding nan
    for dp in (np.nan, np.inf):
        with pytest.raises(ValueError):
            intensity_cor_oracle(dp, PARAMS, _mc(1024))
        with pytest.raises(ValueError):
            intensity_uncor_oracle(dp, PARAMS, _mc(1024))


def test_thread_env_validation(monkeypatch):
    for raw in ("0", "junk"):
        monkeypatch.setenv("PAIRCORR_THREADS", raw)
        with pytest.raises(ValueError):
            intensity_cor_oracle(1.0, PARAMS, _mc(1024))
