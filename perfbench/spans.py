"""Spans recorded around calls into ugsolve's public functions.

A traced pass swaps each function in ``TRACED``, wherever a loaded ugsolve
module holds a reference to it, for a wrapper that records one span per call,
and restores the originals afterwards.  Calls the package makes between its
own modules (``ptas_solve`` -> ``voting_solve``, ``run_bench`` -> every
solver) therefore become child spans without any change to the package.
Spans stay in memory until the run writes its record.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb

# layer (= ugsolve module) -> public functions wrapped in a traced pass
TRACED = {
    "fileio": ("parse_instance", "serialize_instance", "serialize_assignment"),
    "core": ("violated_count", "to_square_instance"),
    "solvers": (
        "voting_solve",
        "pivot_best",
        "dense_voting",
        "randomized_voting",
        "pivot_random",
        "brute_force",
    ),
    "ptas": ("ptas_solve", "greedy_max"),
    "certify": ("inconsistent_triangles", "triangle_packing_lb"),
    "bench": ("run_bench",),
    "generators": ("planted", "noise_model", "sparsify_everywhere_dense"),
}


def _rounds(rep, g, *args, **kwargs):
    # pivot x pivot-label rounds: one label per pivot for cyclic instances
    return {"rounds": g.n * (1 if g.kind == "cyclic" else g.q)}


def _bench_rows(rows, *args, **kwargs):
    return {
        "rows": len(rows),
        "row_busy_s": sum(r.elapsed_ms or 0.0 for r in rows) / 1000.0,
        "error_rows": sum(1 for r in rows if r.error),
        "exact_rows": sum(1 for r in rows if r.opt_exact),
    }


# traced name -> work counts taken from (result, *call arguments)
WORK = {
    "fileio.parse_instance": lambda g, text: {"bytes": len(text.encode())},
    "core.violated_count": lambda bad, g, labels: {"edges": g.m},
    "solvers.voting_solve": _rounds,
    "solvers.pivot_best": _rounds,
    "solvers.brute_force": lambda rep, *a, **k: {"states": rep.extra["search_space"]},
    "ptas.ptas_solve": lambda rep, *a, **k: {
        "calls": 1,
        "greedy_wins": int(rep.extra["branch"] == "greedy"),
    },
    "certify.inconsistent_triangles": lambda count, g: {
        "triples": comb(g.n, 3),
        "inconsistent": count,
    },
    "certify.triangle_packing_lb": lambda cert, g, *a, **k: {
        "triples": comb(g.n, 3),
        "packed": cert.lower_bound,
    },
    "bench.run_bench": _bench_rows,
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: object  # "setup", or (pass index, operation index)
    thread: int
    start: float
    end: float = 0.0
    maxrss_kb: int = 0  # ru_maxrss high-water mark when the span ended
    error: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from the main thread and from worker threads.

    A worker thread's outermost span takes as parent the span open on the
    main thread at that moment (``run_bench`` for its pool), so thread-pool
    work nests under the call that started it.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        top = stack or self._main_stack
        parent = top[-1].sid if top else None
        with self._lock:
            s = Span(len(self.spans), name, parent, self.op, threading.get_ident(), 0.0)
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            s.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stack.pop()

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if work is not None:
                s.counts = work(result, *args, **kwargs)
            return result

        return traced


@contextmanager
def instrument(tracer):
    """Route every reference a loaded ugsolve module holds to a TRACED
    function through ``tracer`` until the block exits."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "ugsolve" or name.startswith("ugsolve.")
    ]
    patched = []
    try:
        for layer, names in TRACED.items():
            home = importlib.import_module(f"ugsolve.{layer}")
            for name in names:
                orig = getattr(home, name)
                wrapper = tracer.wrap(f"{layer}.{name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, orig))
        yield tracer
    finally:
        for m, attr, orig in reversed(patched):
            setattr(m, attr, orig)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans):
    """sid -> span duration minus the part of it that child spans cover
    (children on several threads may overlap; their union is subtracted)."""
    kids = children_of(spans)
    return {
        s.sid: (s.end - s.start)
        - union_length((max(c.start, s.start), min(c.end, s.end)) for c in kids[s.sid])
        for s in spans
    }


def layer_of(name):
    return name.split(".", 1)[0]
