"""One benchmark run of one workload: set-up, timed passes, output checks,
end-to-end and per-layer metrics, and the provenance of the run.

A pass applies every operation of the workload once, in order, from one
process (a closed loop: each call starts when the previous one returned).
A pass's wall time is the sum of its operations' call times; checks and
digests run between calls, outside the timed calls.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from spans import TRACED, Tracer, children_of, instrument, layer_of, self_times, union_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

DEFAULT_SEED = 0  # the seed whose answers digests.json pins
MIN_SETUPS = 5  # set-ups per untraced run, at least
# One cold set-up in a fresh interpreter; prints [import_s, build_s].
SETUP_PROBE = """
import json, sys, time
sys.path[:0] = ["src", "perfbench"]
t0 = time.perf_counter()
import ugsolve
import_s = time.perf_counter() - t0
import workloads
t0 = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]))
print(json.dumps([import_s, time.perf_counter() - t0]))
"""


@dataclass
class Pass:
    wall: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)  # label -> (violated, reference)
    digests: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)


def run_pass(wl, expect=None, tracer=None, index=0):
    """Apply every operation once; count a raise, a failed check or an answer
    whose digest differs from ``expect`` as a failed operation."""
    p = Pass()
    prior = {}
    for i, op in enumerate(wl.ops):
        p.attempted += 1
        if tracer is not None:
            tracer.op = (index, i)
        t0 = time.perf_counter()
        try:
            result = op.call(prior)
        except Exception as exc:  # a failing operation is counted, the run goes on
            p.wall += time.perf_counter() - t0
            p.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        p.wall += dt
        p.times[op.label] = dt
        prior[op.label] = result
        try:
            problems = op.check(result, prior)
            d = p.digests[op.label] = op.digest(result)
            val, ref = op.quality(result)
        except Exception:  # a check that cannot read the answer fails it
            p.failures.append(f"{op.label}: check raised\n{traceback.format_exc()}")
            continue
        if expect is not None and expect.get(op.label) != d:
            problems.append(f"answer digest {d} != stored {expect.get(op.label)}")
        if problems:
            p.failures.append(f"{op.label}: " + "; ".join(problems))
        p.quality[op.label] = (val, ref)
    return p


def stored_digests(name):
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(name, {})


def setup_time(name, seed, sizes):
    """(import_s, build_s) of one cold set-up: a fresh interpreter imports
    ugsolve, then builds the workload's instances."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, name, str(seed), json.dumps(sizes)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def measure(name, seed, seconds, trace, sizes=None):
    """Run one workload for about ``seconds`` seconds and return its record.

    The workload is built once in this process.  Untraced: run passes until
    they have taken ``seconds`` (at least one), and before each pass time a
    cold set-up in a fresh interpreter (at least MIN_SETUPS in all), so
    set-up samples spread over the run as pass samples do and leave this
    process's memory alone.  Traced: build under the tracer, then alternate
    a traced and an untraced pass (at least one of each); per-layer metrics
    come from the traced passes only, and their wall against the untraced
    passes gives the tracing overhead.  Answers are checked against stored
    digests only at the default seed and full size.
    """
    expect = stored_digests(name) if seed == DEFAULT_SEED and sizes is None else None
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.op = "setup"
        with instrument(tracer):
            wl = workloads.build(name, seed, sizes)
    else:
        wl = workloads.build(name, seed, sizes)

    # a traced run starts with a traced pass, so the spans show which call
    # first reached the process's peak RSS
    setups, untraced, traced = [], [], []  # setups: (import_s, build_s)
    spent = 0.0  # seconds in passes and their checks, set-ups excluded
    while True:
        index = len(untraced) + len(traced)
        if tracer is None:
            setups.append(setup_time(name, seed, sizes))
        t0 = time.perf_counter()
        if tracer is not None and len(traced) <= len(untraced):
            with instrument(tracer):
                traced.append(run_pass(wl, expect, tracer, index))
        else:
            untraced.append(run_pass(wl, expect, index=index))
        spent += time.perf_counter() - t0
        done = untraced and (traced or tracer is None)
        if done and spent >= seconds:
            break
    while tracer is None and len(setups) < MIN_SETUPS:
        setups.append(setup_time(name, seed, sizes))

    passes = untraced + traced
    record = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": [f for p in passes for f in p.failures][:50],
        "provenance": provenance(name, seed, trace, wl),
        "untraced_pass_s": [p.wall for p in untraced],
        "op_s": {op.label: [p.times.get(op.label) for p in untraced] for op in wl.ops},
        "op_quality": untraced[0].quality,
        "digests": untraced[0].digests,
    }
    if tracer is None:
        # answers repeat from pass to pass, so the first pass gives val_ratio
        scores = untraced[0].quality.values()
        record["setup_parts_s"] = [{"import": i, "build": b} for i, b in setups]
        record["values"] = {
            "wall_s": statistics.median(p.wall for p in untraced),
            "setup_s": statistics.median(i + b for i, b in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "val_ratio": _rate(sum(v for v, _ in scores), sum(r for _, r in scores)),
        }
    else:
        record["traced_pass_s"] = [p.wall for p in traced]
        record["values"], record["layers"] = layer_metrics(
            tracer.spans, len(traced),
            statistics.median(p.wall for p in traced),
            statistics.median(p.wall for p in untraced),
        )
        record["spans"] = [vars(s) for s in tracer.spans]
    return record


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, n_passes, traced_wall, untraced_wall):
    """Per-layer values from the spans of ``n_passes`` traced passes (set-up
    spans feed only generators.busy_s).  Times are per pass; a layer that a
    workload does not call reads 0."""
    own = self_times(spans)
    kids = children_of(spans)
    busy = defaultdict(float)
    work = defaultdict(lambda: defaultdict(float))
    top = defaultdict(lambda: defaultdict(float))  # counts of the workload's own calls
    setup_generators = 0.0
    for s in spans:
        if s.op == "setup":
            if layer_of(s.name) == "generators":
                setup_generators += own[s.sid]
            continue
        busy[s.name] += own[s.sid]
        for k, v in s.counts.items():
            work[s.name][k] += v
            if s.parent is None:
                top[s.name][k] += v

    v = {}
    for layer, names in TRACED.items():
        for fn in names:
            v[f"{layer}.{fn}.busy_s"] = busy[f"{layer}.{fn}"] / n_passes
    v["fileio.parse_instance.mb_per_s"] = _rate(
        work["fileio.parse_instance"]["bytes"] / 1e6, busy["fileio.parse_instance"])
    v["core.violated_count.edges_per_s"] = _rate(
        work["core.violated_count"]["edges"], busy["core.violated_count"])
    for fn in ("voting_solve", "pivot_best"):
        v[f"solvers.{fn}.rounds_per_s"] = _rate(
            work[f"solvers.{fn}"]["rounds"], busy[f"solvers.{fn}"])
    v["solvers.brute_force.states_per_s"] = _rate(
        work["solvers.brute_force"]["states"], busy["solvers.brute_force"])
    v["ptas.greedy_win_frac"] = _rate(
        work["ptas.ptas_solve"]["greedy_wins"], work["ptas.ptas_solve"]["calls"])
    certify = ("certify.inconsistent_triangles", "certify.triangle_packing_lb")
    v["certify.triples_per_s"] = _rate(
        sum(work[c]["triples"] for c in certify), sum(busy[c] for c in certify))
    v["certify.pack_yield"] = _rate(
        top["certify.triangle_packing_lb"]["packed"],
        top["certify.inconsistent_triangles"]["inconsistent"])

    bench_slots = idle = 0.0
    for s in spans:
        if s.name != "bench.run_bench" or s.op == "setup":
            continue
        by_thread = defaultdict(list)
        for c in kids[s.sid]:
            by_thread[c.thread].append((c.start, c.end))
        workers = max(1, len(by_thread))
        bench_slots += (s.end - s.start) * workers
        idle += (s.end - s.start) * workers - sum(map(union_length, by_thread.values()))
    bench = work["bench.run_bench"]
    v["bench.worker_util"] = _rate(bench["row_busy_s"], bench_slots)
    v["bench.worker_idle_s"] = idle / n_passes
    v["bench.exact_opt_frac"] = _rate(bench["exact_rows"], bench["rows"])
    v["bench.error_rows"] = bench["error_rows"] / n_passes
    v["generators.busy_s"] = setup_generators

    layers = defaultdict(float)
    for name, t in busy.items():
        layers[layer_of(name)] += t
    total = sum(layers.values())
    for layer in TRACED:
        v[f"{layer}.busy_frac"] = _rate(layers[layer], total)
    v["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    peak = max((s.maxrss_kb for s in spans), default=0)
    setter = next((s for s in spans if s.maxrss_kb == peak), None)
    detail = {
        "self_s_per_pass": {k: t / n_passes for k, t in sorted(layers.items())},
        "peak_rss_set_by": None if setter is None else f"{setter.name} (op {setter.op})",
    }
    return v, detail


def git_commit(root):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_threads():
    """Threads the BLAS numpy loaded will use, asked from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return {"count": fn(), "source": f"{lib.name}:{sym}"}
    return {"count": None, "source": "not found"}


def blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def provenance(name, seed, trace, wl):
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": workloads.nproc(),
        "run_bench_workers": wl.info.get("run_bench_workers"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "UGSOLVE_THREADS")},
        "ops": [{"label": op.label, "fn": op.fn, "sizes": op.sizes} for op in wl.ops],
    }


def write_record(record):
    prov = record["provenance"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path
