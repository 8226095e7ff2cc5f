"""Smoke test: every demo script runs to completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from paircorr import ModelParams

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, tmp_path):
    """Run a demo with cwd in tmp_path and its own empty TMPDIR; returns (process, TMPDIR)."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    return proc, tmpdir


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc, tmpdir = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    # fit_measured_template.py writes its stand-in CSV there; nothing may be left behind
    assert list(tmpdir.iterdir()) == []


def test_single_channel_overlaps(tmp_path):
    proc, _ = _run(ROOT / "demos" / "single_channel_structure.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"p~ = ([\d.]+) sigma: J = ([\d.]+)", proc.stdout)
    assert [ratio for ratio, _ in printed] == ["0.25", "0.50", "1.00", "2.00", "4.00"]
    for ratio, j in printed:
        want = ModelParams(sigma=0.5, p_split=float(ratio) * 0.5).overlap()
        assert j == f"{want:.6f}"
