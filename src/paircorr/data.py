"""Measured-curve datasets and the file formats the command line speaks.

A dataset is a list of (delta_p, R) points, optionally with a one-sigma
uncertainty per R value, as produced by digitizing a published
correlation curve. The CSV format is deliberately strict: a mandatory
header ``delta_p,R`` or ``delta_p,R,sigma_R``, comma separation, decimal
points, UTF-8, and ``#`` comment lines. Anything else is rejected with
the offending line number rather than guessed at. A leading UTF-8
byte-order mark, as spreadsheet exports write, is read past; writers
emit none.

All writers are atomic (temp file in the target directory, then
``os.replace``) and emit ``repr`` floats, so a rerun with identical
inputs produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

__all__ = [
    "Dataset",
    "load_dataset",
    "save_dataset",
    "save_curve",
    "save_fit_result",
]


@dataclass(frozen=True)
class Dataset:
    """Measured correlation points R(delta_p), sorted by delta_p.

    Parameters
    ----------
    delta_p : sequence of float
        Momentum differences, a.u., each finite and > 0. Stored sorted
        ascending; ties are rejected.
    r : sequence of float
        Measured correlation values. Values below -1 are physically
        impossible for the model but common in noisy data, so they only
        draw a warning.
    sigma_r : sequence of float or None
        Optional one-sigma uncertainties of ``r``, each finite and > 0.
    label : str
        Free-text tag (e.g. the collision system), carried through
        unchanged.
    """

    delta_p: tuple
    r: tuple
    sigma_r: tuple | None = None
    label: str = ""

    def __post_init__(self):
        dp = np.asarray(self.delta_p, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if dp.ndim != 1 or r.shape != dp.shape:
            raise DataFormatError(
                f"delta_p and r must be equal-length 1-d sequences, got {dp.shape} and {r.shape}"
            )
        if not np.all(np.isfinite(dp)) or not np.all(np.isfinite(r)):
            raise DataFormatError("dataset contains non-finite values")
        if np.any(dp <= 0.0):
            raise DataFormatError("delta_p values must be > 0")
        order = np.argsort(dp, kind="stable")
        dp = dp[order]
        r = r[order]
        if dp.size > 1 and np.any(np.diff(dp) == 0.0):
            raise DataFormatError("duplicate delta_p values")
        sr = self.sigma_r
        if sr is not None:
            sr = np.asarray(sr, dtype=float)
            if sr.shape != dp.shape:
                raise DataFormatError(
                    f"sigma_r length {sr.size} does not match {dp.size} points"
                )
            if not np.all(np.isfinite(sr)) or np.any(sr <= 0.0):
                raise DataFormatError("sigma_r values must be finite and > 0")
            sr = sr[order]
            object.__setattr__(self, "sigma_r", tuple(float(v) for v in sr))
        if np.any(r < -1.0):
            warnings.warn(
                "dataset contains R values below -1; keeping them (measurement noise)",
                stacklevel=2,
            )
        object.__setattr__(self, "delta_p", tuple(float(v) for v in dp))
        object.__setattr__(self, "r", tuple(float(v) for v in r))

    def __len__(self) -> int:
        return len(self.delta_p)

    def weights(self) -> np.ndarray:
        """Least-squares weights: 1/sigma_R^2 when given, else uniform."""
        if self.sigma_r is None:
            return np.ones(len(self.delta_p))
        return 1.0 / np.asarray(self.sigma_r) ** 2


_HEADERS = {
    ("delta_p", "R"): False,
    ("delta_p", "R", "sigma_R"): True,
}


def load_dataset(path) -> Dataset:
    """Read a dataset CSV (header ``delta_p,R[,sigma_R]``, ``#`` comments).

    The ``#`` lines before the header are the label, as save_dataset
    writes it: each loses its ``#`` and one space after it, and the lines
    are joined by newlines. Raises DataFormatError with the 1-based line
    number on any malformed content.
    """
    header = None
    has_sigma = False
    dp, r, sr, label = [], [], [], []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#") and header is None:
                label.append(raw.lstrip()[1:].rstrip("\n").removeprefix(" "))
            if not line or line.startswith("#"):
                continue
            fields = tuple(part.strip() for part in line.split(","))
            if header is None:
                if fields not in _HEADERS:
                    raise DataFormatError(
                        f"expected header 'delta_p,R' or 'delta_p,R,sigma_R', got {line!r}",
                        line=lineno,
                    )
                header = fields
                has_sigma = _HEADERS[fields]
                continue
            if len(fields) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} fields, got {len(fields)}", line=lineno
                )
            try:
                values = [float(part) for part in fields]
            except ValueError:
                raise DataFormatError(f"non-numeric field in {line!r}", line=lineno) from None
            if not all(map(math.isfinite, values)) or min(values[:1] + values[2:]) <= 0.0:
                raise DataFormatError(
                    f"values must be finite, delta_p and sigma_R > 0, got {line!r}", line=lineno
                )
            dp.append(values[0])
            r.append(values[1])
            if has_sigma:
                sr.append(values[2])
    if header is None:
        raise DataFormatError("no header line found")
    try:
        return Dataset(tuple(dp), tuple(r), tuple(sr) if has_sigma else None, "\n".join(label))
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _atomic_write(path, text: str):
    """Write text to path via a temp file so readers never see a partial file.

    The temp file is opened with mode 0o666, so the umask applies as for
    a plain open(); mkstemp's 0o600 would survive os.replace.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(path, dataset: Dataset):
    """Write a dataset back out in the CSV format load_dataset reads.

    Each line of the label, split at "\\n" alone, is one comment line. A
    label with a "\\r" is refused with ValueError: a text-mode reader ends
    a line there, so the file would not load.
    """
    if "\r" in dataset.label:
        raise ValueError(f"a dataset label must not contain '\\r', got {dataset.label!r}")
    columns = [dataset.delta_p, dataset.r] + ([] if dataset.sigma_r is None else [dataset.sigma_r])
    lines = [f"# {line}" for line in dataset.label.split("\n")] if dataset.label else []
    lines.append(",".join(("delta_p", "R", "sigma_R")[: len(columns)]))
    lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def save_curve(path, curve, fmt: str = "csv"):
    """Write a CorrelationCurve as ``delta_p,R`` CSV or as JSON."""
    if fmt == "csv":
        lines = ["delta_p,R"]
        for dp, r in zip(curve.delta_p, curve.r):
            lines.append(f"{float(dp)!r},{float(r)!r}")
        _atomic_write(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "sigma": curve.sigma,
            "f": curve.triplet_fraction,
            "p_tilde": curve.momentum_split,
            "delta_p": [float(v) for v in curve.delta_p],
            "r": [float(v) for v in curve.r],
        }
        _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    else:
        raise ValueError(f"unknown curve format {fmt!r}")


def save_fit_result(path, result):
    """Write a FitResult as JSON with a fixed, documented key set."""
    payload = {
        "sigma": result.sigma,
        "f": result.f,
        "p_tilde": result.p_tilde,
        "approx_error_pct": result.approx_error_pct,
        "converged": result.converged,
        "residuals": list(result.residuals),
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
