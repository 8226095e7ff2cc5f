"""Command-line front end.

Four subcommands cover the package's workflows:

* ``curve``        evaluate R(dp) on a grid and write it as CSV/JSON;
* ``fit``          least-squares fit of (sigma, f, p_tilde) to a dataset CSV;
* ``oracle-check`` compare the closed-form intensities against the
  brute-force integrals and write a pass/fail report;
* ``synth``        generate a synthetic noisy dataset for fit rehearsals.

All physical flags are in Hartree atomic units. Outputs are written
atomically and are byte-identical for identical flags and seeds.

Exit codes: 0 success, 1 numeric/domain failure, 2 usage or input
parsing failure, 3 fit did not converge (result file still written),
4 oracle verification failed.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .correlation import accidental_intensity, coincidence_intensity, correlation_curve
from .data import load_dataset, save_curve, save_dataset, save_fit_result, _atomic_write
from .errors import (
    DataFormatError,
    InsufficientDataError,
    NonConvergenceError,
    PairCorrError,
    ToleranceNotMetError,
)
from .fitting import FitConfig, fit, synthesize
from .model import ModelParams, _nonnegative
from .oracle import QuadratureSpec, intensity_cor_oracle, intensity_uncor_oracle

__all__ = ["main"]


def _grid_type(text: str) -> np.ndarray:
    """Parse a min:max:count grid flag into a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like MIN:MAX:COUNT, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like MIN:MAX:COUNT, got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0.0 or hi < lo or count < 1:
        raise argparse.ArgumentTypeError(
            f"grid needs 0 <= MIN <= MAX and COUNT >= 1, got {text!r}"
        )
    return np.linspace(lo, hi, count)


def _checked(cast, ok, expected):
    """argparse type: ``cast`` the flag, then require ``ok`` of the value."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_nonneg_float = _checked(float, lambda v: np.isfinite(v) and v >= 0.0, "a non-negative number")
_positive_float = _checked(float, lambda v: np.isfinite(v) and v > 0.0, "a positive number")
_nonneg_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")


def _free_list(text: str) -> tuple:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    try:
        FitConfig(free=names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _add_model_flags(sub):
    sub.add_argument("--sigma", type=float, required=True, help="momentum width sigma, a.u.")
    sub.add_argument("--f", type=float, default=0.5, help="triplet fraction f in [0, 1] (default 0.5)")
    sub.add_argument(
        "--p-tilde",
        type=float,
        default=None,
        help="splitting momentum p_tilde, a.u. (default 0.1 * sigma)",
    )


def _resolve_p_tilde(args) -> float:
    """The given p_tilde, checked here for every command that takes it, or 0.1 sigma."""
    return 0.1 * args.sigma if args.p_tilde is None else _nonnegative("p_tilde", args.p_tilde)


def _cmd_curve(args) -> int:
    p_tilde = _resolve_p_tilde(args)
    curve = correlation_curve(args.grid, args.sigma, args.f, p_tilde)
    save_curve(args.out, curve, fmt=args.format)
    print(f"wrote {len(curve.delta_p)} points to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    dataset = load_dataset(args.data)
    config = FitConfig(
        free=args.free,
        sigma=args.sigma,
        f=args.f,
        p_tilde=args.p_tilde,
        multistart_count=args.starts,
        max_iterations=args.max_iter,
    )
    try:
        result = fit(dataset, config)
    except NonConvergenceError as exc:
        save_fit_result(args.out, exc.result)
        print(f"fit did not converge: {exc}", file=sys.stderr)
        print(f"wrote best-effort result to {args.out}")
        return 3
    save_fit_result(args.out, result)
    free_txt = ", ".join(f"{k}={v:.6g}" for k, v in result.estimates.items())
    print(
        f"fitted {free_txt}; approx error {result.approx_error_pct:.2f}%;"
        f" wrote {args.out}"
    )
    return 0


_CHECK_HEADER = "delta_p,closed,oracle,err,pass,est_error,samples,chunks,threads,elapsed_s"


def _check_rows(grid, closed_fn, oracle_fn, tol):
    """One report row per grid point, and the number of rows that pass.

    A row passes only if the oracle reached the requested tolerance
    (otherwise its error bar is too wide to verify anything) and the
    closed form agrees within max(tol * |closed|, 3 * est_error).
    """
    rows = []
    passed = 0
    for dp in grid:
        closed = float(closed_fn(dp))
        met = True
        try:
            res = oracle_fn(dp)
        except ToleranceNotMetError as exc:
            res = exc.result
            met = False
        err_abs = abs(closed - res.value)
        rel = err_abs / abs(closed) if closed != 0.0 else err_abs
        ok = met and err_abs <= max(tol * abs(closed), 3.0 * res.est_error)
        passed += ok
        rows.append(
            f"{float(dp)!r},{closed!r},{res.value!r},{rel:.6e},{int(ok)},{res.est_error!r},"
            f"{res.samples_used},{res.chunks},{res.threads},{res.elapsed_s:.6f}"
        )
    return rows, passed


def _cmd_oracle_check(args) -> int:
    p_tilde = _resolve_p_tilde(args)
    params = ModelParams(args.sigma, p_tilde, triplet_fraction=args.f)
    spec = QuadratureSpec(
        sample_count=args.samples, rng_seed=args.seed, target_rel_tol=args.tol
    )
    grid = args.grid if args.grid is not None else args.sigma * np.array([0.5, 1.0, 2.0, 4.0])
    lines = ["# err is |closed - oracle| / |closed|; pass uses max(tol*|closed|, 3*est_error)"]
    passed = {}
    for name, closed, oracle in (
        ("coincidence", coincidence_intensity, intensity_cor_oracle),
        ("accidental", accidental_intensity, intensity_uncor_oracle),
    ):
        rows, passed[name] = _check_rows(
            grid,
            lambda dp: closed(dp, args.sigma, args.f, p_tilde),
            lambda dp: oracle(dp, params, spec),
            args.tol,
        )
        lines += [f"# {name}", _CHECK_HEADER, *rows]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    n = len(grid)
    for name, count in passed.items():
        print(f"{name + ':':12} {count}/{n} passed")
    print(f"wrote {args.out}")
    return 0 if all(count == n for count in passed.values()) else 4


def _cmd_synth(args) -> int:
    p_tilde = _resolve_p_tilde(args)
    params = ModelParams(args.sigma, p_tilde, triplet_fraction=args.f)
    dataset = synthesize(params, args.grid, noise_rel=args.noise, rng_seed=args.seed)
    save_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} points to {args.out}")
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paircorr",
        description="Two-electron momentum correlation model: curves, fits, and"
        " brute-force verification. All momenta in Hartree atomic units.",
    )
    parser.add_argument("--version", action="version", version=f"paircorr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    curve = subs.add_parser("curve", help="evaluate R(delta_p) on a grid")
    _add_model_flags(curve)
    curve.add_argument(
        "--grid",
        type=_grid_type,
        default="0.05:10.0:200",
        help="delta_p grid MIN:MAX:COUNT (default 0.05:10.0:200)",
    )
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.add_argument("--out", required=True, help="output file path")
    curve.set_defaults(func=_cmd_curve)

    fit_cmd = subs.add_parser("fit", help="least-squares fit to a dataset CSV")
    fit_cmd.add_argument("--data", required=True, help="dataset CSV (delta_p,R[,sigma_R])")
    fit_cmd.add_argument(
        "--free",
        type=_free_list,
        default=("sigma", "f"),
        help="comma list of free parameters (default sigma,f)",
    )
    fit_cmd.add_argument("--sigma", type=float, default=0.5, help="fixed sigma when not free")
    fit_cmd.add_argument("--f", type=float, default=0.5, help="fixed f when not free")
    fit_cmd.add_argument(
        "--p-tilde",
        type=float,
        default=None,
        help="fixed p_tilde when not free (default: tied to 0.1 * sigma)",
    )
    fit_cmd.add_argument(
        "--starts", type=_positive_int, default=16, help="at most this many LM descents (default 16)"
    )
    fit_cmd.add_argument("--max-iter", type=_positive_int, default=200)
    fit_cmd.add_argument("--out", required=True, help="output JSON path")
    fit_cmd.set_defaults(func=_cmd_fit)

    check = subs.add_parser(
        "oracle-check", help="verify closed-form intensities against brute force"
    )
    _add_model_flags(check)
    check.add_argument(
        "--grid",
        type=_grid_type,
        default=None,
        help="delta_p grid MIN:MAX:COUNT (default 0.5,1,2,4 times sigma)",
    )
    check.add_argument("--samples", type=_positive_int, default=2_000_000, help="Monte-Carlo samples per oracle call")
    check.add_argument("--seed", type=_nonneg_int, default=0)
    check.add_argument("--tol", type=_positive_float, default=1e-3, help="relative tolerance")
    check.add_argument("--out", required=True, help="output report CSV path")
    check.set_defaults(func=_cmd_oracle_check)

    synth = subs.add_parser("synth", help="generate a synthetic dataset")
    _add_model_flags(synth)
    synth.add_argument(
        "--grid",
        type=_grid_type,
        default="0.1:10.0:30",
        help="delta_p grid MIN:MAX:COUNT (default 0.1:10.0:30)",
    )
    synth.add_argument(
        "--noise", type=_nonneg_float, default=0.1, help="relative noise level (>= 0)"
    )
    synth.add_argument("--seed", type=_nonneg_int, default=0)
    synth.add_argument("--out", required=True, help="output dataset CSV path")
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PairCorrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
