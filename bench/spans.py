"""Span recorder for the traced pass: wraps kgpho's public functions from outside.

Every public function found in a kgpho module's namespace is replaced, for
the duration of ``instrument``, by a wrapper that records one span per call.
Wrapping happens at the name the caller looks the function up by: cli calls
``spectra.compute_level`` through the spectra module, spectra calls
``solve_kg_energy`` through its own globals, and oracle and wavefun call
``spectral_params`` through the names they imported from model, so each of
those namespace entries gets its own wrapper.  A span is named after the
module that defines the function (``model.spectral_params`` wherever it was
called from).  Private helpers are not wrapped; their time is the self time
of the public function that called them.

Spans stay in memory (``Recorder.spans``) until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    sid: int
    parent: int  # sid of the enclosing span, -1 for a root
    name: str
    start: int  # perf_counter_ns
    end: int
    command: int  # index of the benchmark command that caused it
    error: Optional[str] = None  # exception type name, when the call raised
    count: Optional[float] = None  # from COUNTERS: a work count, or the oracle deviation


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work done per call, taken from arguments or results at the layer boundary;
# for oracle_check the deviation, whose maximum is ``oracle.dev_max``.
COUNTERS = {
    "spectra.solve_kg_energy": lambda a, k, res: len(res),
    "oracle.discretize": lambda a, k, res: _arg(a, k, 2, "grid").n_points,
    "oracle.lowest_eigenvalues": lambda a, k, res: _arg(a, k, 0, "op").diag.shape[0],
    "oracle.oracle_check": lambda a, k, res: res.deviation,
    "wavefun.eval_radial": lambda a, k, res: getattr(_arg(a, k, 1, "r"), "size", 1),
    "specfun.laguerre": lambda a, k, res: (
        getattr(_arg(a, k, 2, "x"), "size", 1) * _arg(a, k, 0, "n")),
}


class Recorder:
    """Collects spans of wrapped calls, single-threaded."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._next = 0

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, self.command,
                                       error=type(exc).__name__))
                raise
            end = time.perf_counter_ns()
            self._stack.pop()
            count = counter(args, kwargs, result) if counter else None
            self.spans.append(Span(sid, parent, name, start, end, self.command, count=count))
            return result

        return traced


@contextlib.contextmanager
def instrument(recorder, modules):
    """Wrap every public kgpho function in ``modules``; restore on exit."""
    patched = []
    try:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith("kgpho.")):
                    name = obj.__module__.rsplit(".", 1)[1] + "." + obj.__name__
                    setattr(module, attr, recorder.wrap(name, obj))
                    patched.append((module, attr, obj))
        yield recorder
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{sid: duration minus the part of it that child spans cover}, in ns."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
            for s in spans}


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0
    count: float = 0.0
    count_max: float = 0.0


def summarize(spans):
    """Per span name: calls, inclusive and self time, errors and counts."""
    own = self_times(spans)
    stats = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_ns += s.end - s.start
        st.self_ns += own[s.sid]
        st.errors += s.error is not None
        if s.count is not None:
            st.count += s.count
            st.count_max = max(st.count_max, s.count)
    return stats
