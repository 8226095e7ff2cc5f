"""One benchmark workload, run in a fresh process: set-up, timed rounds, checks.

    python3 perfbench/workloads.py --workload fit-batch --seed 1 --seconds 5 --trace 0

``run.py`` starts this script and reads the JSON object it prints last.
Set-up covers the imports, the inputs and one untimed warm-up operation;
the process reports the monotonic clock when set-up ends. The timed phase
then runs whole rounds of the workload's fixed operations until at least
``--seconds`` have passed. Today one round is longer than the run length,
so every run does one round. Checks run after the timed phase. With
``--trace 1`` each operation runs untraced and then traced, and the run
reports the per-layer metrics instead (see ``traced_run`` and ``layers.py``).

``--setup-only`` stops after set-up; ``--tiny`` shrinks every workload for
``selftest.py``; ``--describe`` prints the make-up of the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def clock():
    """CLOCK_MONOTONIC, which run.py reads too, so times compare across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_t0 = clock()
import numpy as np  # noqa: E402

import paircorr  # noqa: E402
import paircorr.cli  # noqa: E402
from paircorr import ModelParams, QuadratureSpec, ToleranceNotMetError  # noqa: E402

IMPORT_S = clock() - _t0

NPROC = len(os.sched_getaffinity(0))
ORACLE_TOL = 1e-3


def derive_seed(*key):
    """A 32-bit seed for one input, fixed by the workload seed and the input's place."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# fit-batch


class FitBatch:
    """``paircorr fit`` on 30-point synthetic datasets at the acceptance-f truths."""

    name = "fit-batch"
    widths = (0.22, 0.39, 0.55)
    per_width = 8

    def __init__(self, seed, tiny, work):
        self.work = work / "fit"
        self.work.mkdir(parents=True, exist_ok=True)
        per_width = 1 if tiny else self.per_width
        # widths interleaved, so that a slow stretch of the machine does not
        # fall on one width and move the median fit time
        self.cases = [
            self._dataset(f"w{i}_{j}", sigma, derive_seed(seed, i, j))
            for j in range(per_width)
            for i, sigma in enumerate(self.widths)
        ]
        # the warm-up dataset does not depend on the seed, so set-up does
        # the same work in every run
        self.warm = self._dataset("warm", self.widths[0], 0)

    def _dataset(self, stem, sigma, noise_seed):
        truth = (sigma, 0.5, 0.1 * sigma)
        grid = np.linspace(0.1 * sigma, 5.0 * sigma, 30)
        data = paircorr.synthesize(
            ModelParams(sigma, truth[2], triplet_fraction=0.5), grid, noise_rel=0.1, rng_seed=noise_seed
        )
        csv = self.work / f"{stem}.csv"
        paircorr.save_dataset(csv, data)
        return {"csv": csv, "out": self.work / f"{stem}.json", "truth": truth}

    @staticmethod
    def _fit(case):
        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                return paircorr.cli.main(["fit", "--data", str(case["csv"]), "--out", str(case["out"])])

        return op

    def ops(self):
        return [("fit", self._fit(case)) for case in self.cases]

    def distinct(self):
        return len(self.cases)

    def probe_ops(self):
        return [("fit", self._fit(self.warm))]

    def failed(self, index, exit_code):
        return exit_code != 0

    def check(self, records):
        import checks

        problems = []
        by_width = {}
        for case, code in zip(self.cases, records):
            if code != 0:
                continue
            payload = json.loads(case["out"].read_text())
            problems += checks.check_fit(payload, _read_csv(case["csv"]), case["truth"])
            by_width.setdefault(case["truth"][0], []).append(payload)
        return problems + checks.check_recovery(by_width)


def _read_csv(path):
    """(delta_p, R, sigma_R) columns of a dataset CSV, read without paircorr."""
    rows = [
        [float(v) for v in line.split(",")]
        for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("delta_p")
    ]
    return tuple(list(col) for col in zip(*rows))


# ---------------------------------------------------------------------------
# curve-sweep

# Switch points of the closed-form kernel (paircorr.correlation), used
# only to describe which numerical regime each input point exercises.
_TINY_DELTA = 2.2250738585072014e-308
_SATURATED_DELTA = 700.0


def regime(dp, sigma, split):
    """Kernel branch serving each point: tiny-d, series, grouped, plain or saturated."""
    d = (split / sigma) ** 2 / 4.0
    z = np.sqrt(d) * np.asarray(dp) / sigma
    if d < _TINY_DELTA:
        return np.full(z.shape, "tiny-d")
    if d > _SATURATED_DELTA:
        return np.full(z.shape, "saturated")
    out = np.where(0.25 * d + 0.5 * z < 2.5, "grouped", "plain")
    if d <= 1e-4:
        out = np.where(z <= 0.05, "series", out)
    return out


class CurveSweep:
    """R, I_cor and I_unc on 1e5-point grids across every kernel regime."""

    name = "curve-sweep"
    # (sigma, p_tilde, f, top of the grid in units of sigma)
    points = (
        (0.3, 1e-160, 1.0, 12.0),  # tiny-d, pure triplet
        (0.5, 0.005, 0.5, 10.0),  # series
        (0.22, 0.022, 0.5, 10.0),  # grouped, the paper's regime
        (0.5, 0.05, 0.0, 10.0),  # grouped, pure singlet
        (0.2, 0.6, 1.0, 20.0),  # plain, pure triplet
        (1.0, 4.0, 0.3, 30.0),  # plain beyond a grouped core
        (0.1, 6.0, 0.3, 60.0),  # saturated, d = 900
    )
    grid_points = 100_000
    repeats = 24
    checked_points = 16

    def __init__(self, seed, tiny, work):
        n = 1_000 if tiny else self.grid_points
        self.repeats = 1 if tiny else self.repeats
        self.grids = []
        self.samples = []
        for k, (sigma, _, _, top) in enumerate(self.points):
            rng = np.random.default_rng(derive_seed(seed, k))
            # one point in each of n equal strata of (0, top * sigma]
            self.grids.append(sigma * top * (np.arange(n) + 1.0 - rng.random(n)) / n)
            self.samples.append(np.sort(rng.choice(n, self.checked_points, replace=False)))

    def _ops_at(self, k):
        sigma, split, f, _ = self.points[k]
        dp = self.grids[k]
        return [
            ("curve.R", lambda: paircorr.correlation_curve(dp, sigma, f, split).r),
            ("curve.I_cor", lambda: paircorr.coincidence_intensity(dp, sigma, f, split)),
            ("curve.I_unc", lambda: paircorr.accidental_intensity(dp, sigma, f, split)),
        ]

    def ops(self):
        one = [op for k in range(len(self.points)) for op in self._ops_at(k)]
        return one * self.repeats

    def distinct(self):
        """Operations before the round repeats itself; only their results are kept."""
        return 3 * len(self.points)

    def probe_ops(self):
        return self._ops_at(2)

    def failed(self, index, result):
        return isinstance(result, Exception)

    def check(self, records):
        import checks

        problems = []
        for k, (sigma, split, f, _) in enumerate(self.points):
            r, icor, iunc = records[3 * k : 3 * k + 3]
            if any(isinstance(v, Exception) for v in (r, icor, iunc)):
                continue
            problems += checks.check_curve((sigma, f, split), self.grids[k], r, icor, iunc, self.samples[k])
        return problems

    def makeup(self):
        """Share of the sweep's points served by each kernel regime."""
        labels = np.concatenate([regime(g, s, p) for g, (s, p, _, _) in zip(self.grids, self.points)])
        names, counts = np.unique(labels, return_counts=True)
        return {str(n): round(float(c) / labels.size, 4) for n, c in zip(names, counts)}


# ---------------------------------------------------------------------------
# oracle-verify


class OracleVerify:
    """Monte-Carlo oracles at the ``paircorr oracle-check`` defaults."""

    name = "oracle-verify"
    # (sigma, p_tilde, f, oracles): the README's oracle-check example, and a
    # pure singlet. The singlet's accidental calls are left out: 3*SE is
    # 0.93x the tolerance there and the realized error matches the SE, so
    # the row rule fails on some oracle seeds and not on others.
    params = (
        (0.5, 0.05, 0.3, ("cor", "uncor")),
        (0.22, 0.022, 0.0, ("cor",)),
    )
    multiples = (0.5, 1.0, 2.0, 4.0)
    samples = 2_000_000
    repeats = 2
    # Both README-example calls at 4 sigma fail the row rule on every oracle
    # seed tried: 3*SE is 1.01x (coincidence) and 1.07x (accidental) the
    # tolerance. They keep the oracle seed 0 whatever the workload seed, so
    # that they fail in every run.
    kept_failures = ((0, 4.0),)

    def __init__(self, seed, tiny, work):
        self.samples = 1 << 18 if tiny else self.samples
        self.repeats = 1 if tiny else self.repeats
        self.calls = []
        for i, (sigma, split, f, kinds) in enumerate(self.params):
            model = ModelParams(sigma, split, triplet_fraction=f)
            for j, m in enumerate(self.multiples):
                dp = m * sigma
                oracle_seed = 0 if (i, m) in self.kept_failures else derive_seed(seed, i, j)
                for kind in kinds:
                    closed = CLOSED_FORMS[kind](dp, sigma, f, split)
                    self.calls.append(
                        {"kind": "oracle." + kind, "oracle": ORACLES[kind], "dp": dp, "model": model,
                         "params": (sigma, f, split), "seed": oracle_seed, "closed": float(closed)}
                    )

    def _call(self, call):
        spec = QuadratureSpec(sample_count=self.samples, rng_seed=call["seed"], target_rel_tol=ORACLE_TOL)

        def op():
            try:
                res = call["oracle"](call["dp"], call["model"], spec)
                met = True
            except ToleranceNotMetError as exc:
                res, met = exc.result, False
            return (res.value, res.est_error, res.samples_used, met)

        return op

    def ops(self):
        return [(call["kind"], self._call(call)) for call in self.calls] * self.repeats

    def distinct(self):
        return len(self.calls)

    def probe_ops(self):
        """Both oracles on the README example at dp = sigma, fixed seed."""
        return [(c["kind"], self._call(dict(c, seed=0))) for c in self.calls[2:4]]

    def failed(self, index, result):
        import checks

        if isinstance(result, Exception):
            return True
        value, est_error, _, met = result
        closed = self.calls[index % len(self.calls)]["closed"]
        return not checks.row_passes(closed, value, est_error, met, ORACLE_TOL)

    def check(self, records):
        import checks

        problems = []
        for call in self.calls:
            problems += checks.check_closed(call["params"], call["dp"], call["kind"], call["closed"])
        return problems


ORACLES = {"cor": paircorr.intensity_cor_oracle, "uncor": paircorr.intensity_uncor_oracle}
CLOSED_FORMS = {"cor": paircorr.coincidence_intensity, "uncor": paircorr.accidental_intensity}


WORKLOADS = {w.name: w for w in (FitBatch, CurveSweep, OracleVerify)}


# ---------------------------------------------------------------------------
# timed phase


def run_rounds(ops, seconds, failed, keep=None, tracer=None, paired=False):
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    With a ``tracer`` each operation runs traced; with ``paired`` as well,
    each runs untraced first and then traced, so that the tracing overhead
    is measured on the same operations in the same state of the machine.
    Returns the untraced and traced times, the results of the first
    ``keep`` operations (default: one round), the attempted and failed
    counts and the wall time of the phase.
    """
    keep = len(ops) if keep is None else keep
    out = {"times": [], "traced_times": [], "first": [], "first_traced": [], "attempted": 0, "failed": 0}

    def once(index, op, times, results, traced):
        t = clock()
        result = _traced(op, ops[index][0], tracer) if traced else _guarded(op)
        times.append(clock() - t)
        out["attempted"] += 1
        out["failed"] += bool(failed(index, result))
        if len(times) <= keep:
            results.append(result)

    start = clock()
    while True:
        for index, (_, op) in enumerate(ops):
            if tracer is None or paired:
                once(index, op, out["times"], out["first"], False)
            if tracer is not None:
                once(index, op, out["traced_times"], out["first_traced"], True)
        if clock() - start >= seconds:
            break
    out["wall"] = clock() - start
    return out


def _guarded(op):
    try:
        return op()
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc()
        return exc


def _traced(op, kind, tracer):
    from tracing import instrument

    with instrument(tracer), tracer.span("op." + kind, op=True) as attrs:
        result = _guarded(op)
        if kind.startswith("oracle.") and not isinstance(result, Exception):
            attrs.update(samples=result[2], met=result[3])
        elif kind.startswith("curve."):
            attrs.update(points=int(np.size(result)))
    return result


def _never_failed(index, result):
    return False


@contextlib.contextmanager
def threads(n):
    saved = os.environ.get("PAIRCORR_THREADS")
    os.environ["PAIRCORR_THREADS"] = str(n)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["PAIRCORR_THREADS"]
        else:
            os.environ["PAIRCORR_THREADS"] = saved


def traced_run(workload, seed, tiny, seconds, work):
    """The traced run: paired passes of the workload, then probes of the others.

    The probes run the warm-up-sized operations of the other workloads,
    so that every traced run reports every per-layer metric. Oracle calls
    run at ``NPROC`` threads and again at one thread; their results must
    be bit-identical, traced or not.
    """
    import checks
    import layers
    from tracing import SpanTable, Tracer

    tracer = Tracer()
    walls, problems = {}, []

    def oracle_passes(ops, failed, secs, keep=None, paired=False):
        with threads(NPROC), tracer.span("oracle.threadsN"):
            many = run_rounds(ops, secs, failed, keep, tracer, paired)
        with threads(1), tracer.span("oracle.threads1"):
            one = run_rounds(ops, secs, failed, keep, tracer)
        walls["threadsN"] = sum(many["traced_times"]) / len(many["traced_times"])
        walls["threads1"] = sum(one["traced_times"]) / len(one["traced_times"])
        problems.extend(checks.check_identical("1 vs NPROC threads", one["first_traced"], many["first_traced"]))
        return [many, one]

    ops, keep = workload.ops(), workload.distinct()
    if isinstance(workload, OracleVerify):
        passes = oracle_passes(ops, workload.failed, seconds, keep, paired=True)
        problems += checks.check_identical("untraced vs traced", passes[0]["first"], passes[0]["first_traced"])
    else:
        with tracer.span("pass.traced"):
            passes = [run_rounds(ops, seconds, workload.failed, keep, tracer, paired=True)]
    for cls in WORKLOADS.values():
        if isinstance(workload, cls):
            continue
        other = cls(seed, tiny, work)
        if cls is OracleVerify:
            oracle_passes(other.probe_ops(), _never_failed, 0.0)
        else:
            with tracer.span("probe." + cls.name):
                run_rounds(other.probe_ops(), 0.0, _never_failed, tracer=tracer)
    metrics = layers.layer_metrics(SpanTable(tracer), walls)
    metrics["trace.overhead_share"] = sum(passes[0]["traced_times"]) / sum(passes[0]["times"]) - 1.0
    trace_file = HERE / "out" / f"trace-{workload.name}.npz"
    tracer.save(trace_file)
    return passes, metrics, problems, trace_file


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    if not Path(paircorr.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"paircorr imported from {paircorr.__file__}, not from this checkout's src/")
    if args.workload == "oracle-verify":
        os.environ["PAIRCORR_THREADS"] = str(NPROC)
    work = HERE / "out" / f"work-{args.workload}"
    t = clock()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, work)
    inputs_s = clock() - t
    if args.describe:
        print(json.dumps(workload.makeup() if hasattr(workload, "makeup") else {}))
        return 0
    workload.probe_ops()[0][1]()  # the warm-up operation, untimed
    ready = clock()
    report = {"ready": ready, "import_s": IMPORT_S, "inputs_s": inputs_s, "numpy": np.__version__}
    if not args.setup_only:
        if args.trace:
            passes, metrics, problems, trace_file = traced_run(workload, args.seed, args.tiny, args.seconds, work)
            metrics.update({"paircorr.import_s": IMPORT_S, "bench.inputs_s": inputs_s})
            report.update(layers=metrics, trace_file=str(trace_file))
        else:
            passes = [run_rounds(workload.ops(), args.seconds, workload.failed, workload.distinct())]
            problems = []
        report.update(times=passes[0]["times"], peak_rss_mb=peak_rss_mb(), wall=passes[0]["wall"])
        report["attempted"] = sum(p["attempted"] for p in passes)
        report["failed"] = sum(p["failed"] for p in passes)
        report["problems"] = problems + workload.check(passes[0]["first"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
