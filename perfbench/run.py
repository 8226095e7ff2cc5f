"""Benchmark of paircorr: fit batch, large-grid curves and oracle verification.

    python3 perfbench/run.py --workload fit-batch --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py            # all three workloads, seed 0

Each workload runs in fresh processes of ``workloads.py``: four that only
set up, then one that sets up, measures and checks. ``setup_s`` is the
median over the five of the time from launching the process to the end of
its set-up. With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics of the traced run. Full results, with the steal time read from
/proc/stat over the run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-batch", "curve-sweep", "oracle-verify")
SETUP_RUNS = 5
# a run must end within 180 s; the children share this budget
BUDGET_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def steal_s():
    """Cumulative steal time of the machine, in seconds."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child(args, deadline):
    """Run workloads.py once; its report gains ``setup_s`` from launch to ready."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    launched = clock()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(deadline - launched, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: over the {BUDGET_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - launched
    return report


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed)]
    setups = [child(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
    main = child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(main)
    if trace:
        metrics = dict(main["layers"])
        metrics["paircorr.import_s"] = statistics.median(r["import_s"] for r in setups)
        metrics["bench.inputs_s"] = statistics.median(r["inputs_s"] for r in setups)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "throughput": len(main["times"]) / main["wall"],
            "latency_p50_s": statistics.median(main["times"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not main["problems"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, main, [r["setup_s"] for r in setups]


def describe(name, result, details):
    print(f"workload {name}: attempted {result['attempted']}, failed {result['failed']},"
          f" correct {str(result['correct']).lower()}")
    for key, metric in result["metrics"].items():
        print(f"  {key:38s} {metric['value']:.6g} {metric['unit']}")
    for problem in details["problems"][:20]:
        print(f"  check failed: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all three")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, and subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "paircorr" / "__init__.py").is_file():
        print(f"error: no paircorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    for name in names:
        start = clock()
        steal0 = steal_s()
        try:
            result, details, setups = run_workload(name, args.seed, args.seconds, args.trace, start + BUDGET_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        steal = steal_s() - steal0
        describe(name, result, details)
        print(f"  steal during the run: {steal:.2f} s; setup runs: "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
        record = {
            "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": details.get("numpy"),
            "steal_s": steal, "setup_runs_s": setups, "wall_s": clock() - start,
            "result": result, "details": details,
        }
        path = out_dir / f"result-{name}-{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        results[name] = result
    if args.workload:
        combined = results[args.workload]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
