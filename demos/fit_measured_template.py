"""Template for fitting a digitized measured correlation curve.

Point this script at a CSV of measured R(dp) values:

    python fit_measured_template.py my_points.csv

The expected format is a `delta_p,R` or `delta_p,R,sigma_R` header,
one point per line, atomic units, `#` comments allowed. Run without an
argument to have it write and fit a small self-generated stand-in so
the whole flow can be seen end to end.

Digitized points scraped off a published figure carry uncertainty that
usually dominates the statistical errors, so treat the fitted numbers
as a bracket, not a measurement.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from paircorr import (
    FitConfig,
    ModelParams,
    NonConvergenceError,
    fit,
    load_dataset,
    save_dataset,
    synthesize,
)


def stand_in_csv(directory: Path) -> Path:
    truth = ModelParams(sigma=0.22, p_split=0.022, triplet_fraction=0.6)
    grid = np.linspace(0.03, 1.1, 24)
    data = synthesize(truth, grid, noise_rel=0.12, rng_seed=5)
    path = directory / "stand_in.csv"
    save_dataset(path, data)
    print(f"no CSV given; wrote a stand-in with truth sigma=0.22, f=0.6 to {path}")
    return path


def main(argv):
    if len(argv) > 1:
        report(Path(argv[1]))
        return
    # the stand-in lives only as long as the run
    with tempfile.TemporaryDirectory() as tmp:
        report(stand_in_csv(Path(tmp)))


def report(path: Path):
    data = load_dataset(path)
    n = len(data.delta_p)
    print(f"loaded {n} points from {path}" + (f" ({data.label})" if data.label else ""))

    # widen the width bracket if your system is far from a light target
    config = FitConfig(free=("sigma", "f"), sigma_bounds=(0.05, 2.0))
    try:
        result = fit(data, config)
    except NonConvergenceError as exc:
        print("warning: fit did not converge, reporting the best effort")
        result = exc.result

    print()
    print(f"  sigma = {result.sigma:.3f} a.u.")
    print(f"  f     = {result.f:.3f}")
    print(f"  p~    = {result.p_tilde:.4f} a.u. (tied to 0.1 sigma)")
    print(f"  approximation error = {result.approx_error_pct:.1f}%")
    print(f"  converged = {result.converged} after {result.iterations} iterations")
    print()
    print("sanity checks worth doing on real data:")
    print("  - refit with f fixed at 0.5 and 1.0; sigma should move little")
    print("  - drop the first and last points; a stable sigma means the")
    print("    fit is not leaning on the digitization extremes")
    print("  - an approximation error above ~25% usually means the grid")
    print("    misses the negative dip below dp ~ 0.2 sigma")


if __name__ == "__main__":
    main(sys.argv)
