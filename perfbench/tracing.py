"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: ``instrument`` replaces a
public function in the module that calls it (``paircorr.cli.fit``,
``paircorr.fitting.correlation_R``, ...) with a wrapper that opens a span
around each call, so the program itself is not edited. A span has a name,
a start, an end and a parent; point counts are recorded on the same span.
Spans opened in a worker thread with no open span of their own take the
innermost operation span as parent. Everything stays in flat arrays until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module that makes the call, name bound there, span name, counts points)
WRAPPED = (
    ("paircorr.cli", "fit", "fitting.fit", False),
    ("paircorr.cli", "load_dataset", "data.load_dataset", False),
    ("paircorr.cli", "save_fit_result", "data.save_fit_result", False),
    ("paircorr.fitting", "correlation_R", "fitting.correlation_R", True),
    ("paircorr.correlation", "correlation_R", "correlation.correlation_R", True),
    ("paircorr.correlation", "inv_sinhc", "_stable.inv_sinhc", True),
    ("paircorr.correlation", "one_minus_inv_sinhc", "_stable.one_minus_inv_sinhc", True),
    ("paircorr.correlation", "sech", "_stable.sech", True),
    ("paircorr.correlation", "sinhc_m1", "_stable.sinhc_m1", True),
    ("paircorr.correlation", "x_over_expm1", "_stable.x_over_expm1", True),
    ("paircorr.oracle", "mixture_marginal", "model.mixture_marginal", True),
)


def _points(arg):
    """Number of evaluation points in a scalar, a grid or an (m, 3) array."""
    shape = np.shape(arg)
    if len(shape) == 2 and shape[-1] == 3:
        return shape[0]
    return math.prod(shape)


class Tracer:
    """Flat arrays of spans: name id, parent id, start, end and points."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.attrs: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops: list[int] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, points=0):
        stack = self._stack()
        parent = stack[-1] if stack else (self._ops[-1] if self._ops else -1)
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.points.append(points)
            self.start.append(time.perf_counter())
            self.end.append(float("nan"))
        stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name, op=False, **attrs):
        """Open a span; ``op=True`` makes it the parent of orphan thread spans."""
        sid = self._open(name)
        if op:
            self._ops.append(sid)
        try:
            yield attrs
        finally:
            self._close(sid)
            if op:
                self._ops.pop()
            if attrs:
                self.attrs[sid] = attrs

    def wrap(self, fn, name, count_points):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, _points(args[0]) if count_points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def arrays(self):
        """The spans as numpy arrays (names resolved separately via ``names``)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers of ``WRAPPED`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span_name, count_points in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span_name, count_points))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanTable:
    """Queries over a finished trace: selection by name, parent and ancestry."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.attrs = tracer.attrs
        self.name = a["name"]
        self.parent = a["parent"]
        self.start = a["start"]
        self.end = a["end"]
        self.points = a["points"]
        self.duration = self.end - self.start
        order = np.argsort(self.parent, kind="stable")
        self._child_order = order
        self._child_parent = self.parent[order]

    def ids(self, name, within=None):
        """Spans called ``name``, optionally only those under any span in ``within``."""
        nid = self.names.index(name) if name in self.names else -1
        sel = np.flatnonzero(self.name == nid)
        if within is None:
            return sel
        return sel[self.under(sel, within)]

    def under(self, ids, ancestors):
        """Mask over ``ids``: True where some ancestor is in ``ancestors``."""
        targets = set(int(a) for a in np.atleast_1d(ancestors))
        memo: dict[int, bool] = {}

        def walk(sid):
            path = []
            while sid >= 0 and sid not in memo:
                if sid in targets:
                    memo[sid] = True
                    break
                path.append(sid)
                sid = int(self.parent[sid])
            result = memo.get(sid, False) if sid >= 0 else False
            for p in path:
                memo[p] = result
            return result

        return np.array([walk(int(self.parent[i])) for i in ids], dtype=bool)

    def children(self, sid):
        lo = np.searchsorted(self._child_parent, sid, side="left")
        hi = np.searchsorted(self._child_parent, sid, side="right")
        return self._child_order[lo:hi]

    def self_time(self, sid, child_name=None):
        """Duration of ``sid`` minus the union of its (named) children's intervals."""
        kids = self.children(sid)
        if child_name is not None:
            nid = self.names.index(child_name) if child_name in self.names else -1
            kids = kids[self.name[kids] == nid]
        covered = 0.0
        reach = self.start[sid]
        for k in kids[np.argsort(self.start[kids])]:
            lo = max(self.start[k], reach)
            hi = min(self.end[k], self.end[sid])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return float(self.duration[sid] - covered)

    def total(self, ids):
        return float(np.sum(self.duration[ids]))
