"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload to its end, traced, at tiny sizes, and shows that each
correctness check accepts a right answer and rejects a deliberately wrong
one. Exits 1 if any part does not hold.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import paircorr  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from run import LAYER_UNITS  # noqa: E402

failures = []


def expect(condition, what):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def workloads_run_to_their_end():
    for name in ("fit-batch", "curve-sweep", "oracle-verify"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", "3",
             "--seconds", "0", "--trace", "1", "--tiny"],
            stdout=subprocess.PIPE, text=True, timeout=300,
        )
        expect(proc.returncode == 0, f"{name}: tiny traced run exits 0")
        if proc.returncode != 0:
            continue
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(report["problems"] == [], f"{name}: no check fails ({report['problems'][:3]})")
        expect(report["attempted"] >= 1, f"{name}: operations were attempted")
        layers = report["layers"]
        missing = [k for k in LAYER_UNITS if not math.isfinite(layers.get(k, math.nan))]
        expect(not missing, f"{name}: every per-layer metric is reported ({missing})")


def fit_checks_reject_wrong_answers():
    truth = (0.22, 0.5, 0.022)
    dp = list(np.linspace(0.022, 1.1, 30))
    clean = [float(reference.correlation_R(x, *truth)) for x in dp]
    noise = np.random.default_rng(0).standard_normal(30)
    r = [v * (1.0 + 0.1 * e) for v, e in zip(clean, noise)]
    sigma_r = [0.1 * max(abs(v), 0.05 * max(map(abs, clean))) for v in clean]
    data = (dp, r, sigma_r)
    result = paircorr.fit(paircorr.Dataset(tuple(dp), tuple(r), tuple(sigma_r)))

    def payload(sigma, f, p_tilde, residuals=None):
        if residuals is None:
            residuals = [float(reference.correlation_R(x, sigma, f, p_tilde)) - v for x, v in zip(dp, r)]
        return {"sigma": sigma, "f": f, "p_tilde": p_tilde, "approx_error_pct": 1.0,
                "converged": True, "residuals": residuals}

    good = payload(result.sigma, result.f, result.p_tilde, list(result.residuals))
    expect(checks.check_fit(good, data, truth) == [], "check_fit accepts the package's fit")
    bent = list(result.residuals)
    bent[7] += 1e-9
    expect(checks.check_fit(dict(good, residuals=bent), data, truth) != [], "check_fit rejects a perturbed residual")
    expect(checks.check_fit(dict(good, extra=1), data, truth) != [], "check_fit rejects an undocumented key")
    worse = payload(1.3 * truth[0], truth[1], 0.13 * truth[0])
    expect(checks.check_fit(worse, data, truth) != [], "check_fit rejects a fit costlier than the truth")
    fits = {0.22: [{"sigma": 0.22, "f": 0.5}] * 3}
    expect(checks.check_recovery(fits) == [], "check_recovery accepts the truth")
    expect(checks.check_recovery({0.22: [{"sigma": 0.26, "f": 0.5}]}) != [], "check_recovery rejects sigma off by 18 %")
    expect(checks.check_recovery({0.22: [{"sigma": 0.22, "f": 0.7}]}) != [], "check_recovery rejects f off by 0.2")


def curve_checks_reject_wrong_answers():
    params = (0.22, 0.5, 0.022)
    sigma, f, split = params
    dp = np.linspace(0.001, 2.2, 500)
    r = paircorr.correlation_R(dp, sigma, f, split)
    icor = paircorr.coincidence_intensity(dp, sigma, f, split)
    iunc = paircorr.accidental_intensity(dp, sigma, f, split)
    sample = [0, 100, 499]
    expect(checks.check_curve(params, dp, r, icor, iunc, sample) == [], "check_curve accepts the closed forms")
    bad_r = r.copy()
    bad_r[100] *= 1.0 + 1e-9
    expect(checks.check_curve(params, dp, bad_r, icor, iunc, sample) != [], "check_curve rejects a perturbed R")
    bad_r = r.copy()
    bad_r[250] = -1.01
    expect(checks.check_curve(params, dp, bad_r, icor, iunc, []) != [], "check_curve rejects R below -1")
    bad_c = icor.copy()
    bad_c[300] *= 1.0 + 1e-9
    expect(checks.check_curve(params, dp, r, bad_c, iunc, []) != [], "check_curve rejects I_cor/I_unc - 1 != R")
    expect(checks.check_curve(params, dp, r, iunc, icor, sample) != [], "check_curve rejects swapped intensities")


def oracle_checks_reject_wrong_answers():
    sigma, f, split = 0.5, 0.3, 0.05
    dp = 0.5
    closed_c = float(paircorr.coincidence_intensity(dp, sigma, f, split))
    closed_u = float(paircorr.accidental_intensity(dp, sigma, f, split))
    expect(checks.row_passes(closed_c, closed_c * (1 + 1e-4), 0.0, True, 1e-3), "row rule accepts a value within tolerance")
    expect(not checks.row_passes(closed_c, closed_u, 1e-6, True, 1e-3), "row rule rejects a swapped oracle value")
    expect(not checks.row_passes(closed_c, closed_c, 0.0, False, 1e-3), "row rule rejects an unmet tolerance")
    expect(checks.check_closed((sigma, f, split), dp, "oracle.uncor", closed_u) == [], "check_closed accepts the closed form")
    expect(checks.check_closed((sigma, f, split), dp, "oracle.cor", closed_c * (1 + 1e-9)) != [],
           "check_closed rejects a perturbed I_cor")
    one = [(closed_c, 1e-6, 2_000_000, True)]
    other = [(math.nextafter(closed_c, 1.0), 1e-6, 2_000_000, True)]
    expect(checks.check_identical("threads", one, list(one)) == [], "check_identical accepts equal results")
    expect(checks.check_identical("threads", one, other) != [], "check_identical rejects a one-ulp difference")


if __name__ == "__main__":
    fit_checks_reject_wrong_answers()
    curve_checks_reject_wrong_answers()
    oracle_checks_reject_wrong_answers()
    workloads_run_to_their_end()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
