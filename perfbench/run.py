#!/usr/bin/env python3
"""Benchmark for ugsolve, run from the root of a checkout.

    python3 perfbench/run.py --workload allpivot --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One workload runs in this process and prints, as its last line, the JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
full record (provenance, per-operation times, spans) goes to
perfbench/out/.  ``--workload all`` runs each workload in a fresh process,
so peak RSS belongs to one workload, and prints every metric with its unit
and direction.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _specs(trace):
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


def import_ugsolve():
    """Import the package from this checkout's src/, and no other copy."""
    sys.path.insert(0, str(SRC))
    import ugsolve
    if not Path(ugsolve.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported ugsolve from {ugsolve.__file__}, not {SRC}")


def run_one(args):
    import_ugsolve()
    import harness

    record = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write_record(record)
    values = record["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _specs(args.trace)}
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    n = len(record["untraced_pass_s"])
    print(f"# {args.workload} seed={args.seed}: {n} untraced passes; record {path.relative_to(ROOT)}")
    for m in _specs(args.trace):
        print(f"{m['name']:40s} {_fmt(values[m['name']]):>14s} {m['unit']:8s} ({m['better']} is better)")
    print(f"{'fail_frac':40s} {_fmt(record['failed'] / record['attempted']):>14s} "
          f"{'ratio':8s} (lower is better)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    rows, correct = [], True
    for w in SPEC["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"error: workload {w['name']} exited {out.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        for line in lines:
            if line.startswith(("FAILED", "#")):
                print(line)
        for m in _specs(args.trace):
            rows.append((w["name"], m["name"], result["metrics"][m["name"]]["value"],
                         m["unit"], m["better"]))
        rows.append((w["name"], "fail_frac", result["failed"] / result["attempted"],
                     "ratio", "lower"))
    print(f"{'workload':12s} {'metric':40s} {'value':>14s} {'unit':8s} better")
    for w, name, value, unit, better in rows:
        print(f"{w:12s} {name:40s} {_fmt(value):>14s} {unit:8s} {better}")
    return 0 if correct else 1


def write_digests():
    """Store the answer digests of one pass of every workload at the default
    seed.  Only for a change that is meant to alter answers."""
    import_ugsolve()
    import harness

    table = {}
    for w in SPEC["workloads"]:
        wl = harness.workloads.build(w["name"], harness.DEFAULT_SEED)
        p = harness.run_pass(wl)
        if p.failures:
            raise SystemExit("error: not storing digests of failing answers:\n"
                             + "\n".join(p.failures))
        table[w["name"]] = p.digests
    harness.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true",
                   help="store the answer digests of the default seed and exit")
    args = p.parse_args(argv)
    if not (SRC / "ugsolve" / "__init__.py").is_file():
        print(f"error: no ugsolve sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.write_digests:
        return write_digests()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
