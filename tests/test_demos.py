"""Smoke tests: every demo script and the README examples run against the source tree."""

import os
import re
import shlex
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


def _readme_block(heading, lang):
    """The first ```lang block under the README's ## heading."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path):
    # the Quick start, then the curve, synth and fit command lines in
    # order (fit reads what synth writes); oracle-check is left out, as
    # it takes seconds (test_cli runs the README's oracle-check)
    commands = [[sys.executable, "-c", _readme_block("Quick start", "python")]]
    for line in _readme_block("Command line", "sh").splitlines():
        args = shlex.split(line)
        assert args[0] == "paircorr", line
        if args[1] != "oracle-check":
            commands.append([sys.executable, "-m", "paircorr.cli", *args[1:]])
    assert [cmd[3] for cmd in commands[1:]] == ["curve", "synth", "fit"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cmd in commands:
        proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (cmd[1:], proc.stderr)
