"""The three workloads: seeded instances and the fixed list of operations
each pass applies to them.

An operation is one top-level call into ugsolve's public API.  Building a
workload (``build``) generates and serializes its instances; that is the
set-up the benchmark times as ``setup_s``.  Operations look functions up on
the ``ugsolve`` package at call time, so a traced pass sees them through the
tracer's wrappers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import ugsolve as ug

import check

# Sizes the workloads run at.  TINY keeps every operation but shrinks every
# instance, for the benchmark's own tests.
FULL = {
    "allpivot": {
        "q": 5, "vote_ns": (300, 600), "pivot_n": 600, "perm": (200, 4),
        "dense": (300, 0.2), "ptas_n": 300, "square_n": 200,
    },
    "ingest": {
        "noise": (1000, 5, 0.05), "perm": (200, 4),
        "tri_cyclic": (300, 5), "tri_perm": (150, 4),
    },
    "exact-sweep": {
        "brute_cyclic": (8, 10), "brute_perm": (9, 5),
        "ns": (8, 10, 12), "qs": (3, 4), "frac": 0.1, "delta": 0.2,
    },
}
TINY = {
    "allpivot": {
        "q": 3, "vote_ns": (12, 16), "pivot_n": 16, "perm": (10, 3),
        "dense": (12, 0.2), "ptas_n": 12, "square_n": 10,
    },
    "ingest": {
        "noise": (24, 5, 0.05), "perm": (10, 3),
        "tri_cyclic": (15, 5), "tri_perm": (10, 3),
    },
    "exact-sweep": {
        "brute_cyclic": (5, 4), "brute_perm": (5, 3),
        "ns": (5, 6), "qs": (2, 3), "frac": 0.1, "delta": 0.2,
    },
}
WORKLOADS = tuple(FULL)

# Corrupted share of pairs in planted instances.  At 0.5% every instance
# still has pivots with no corrupted incident pair, so all-pivot answers do
# not jump between seeds and val_ratio stays steady.
PLANTED_FRACTION = 0.005
# Seeds per single-pivot randomized solver and parsed instance: one random
# pivot decides such an answer, so val_ratio averages several draws.
SOLVER_DRAWS = 8
BENCH_ALGORITHMS = ("pivot", "pivot-random", "voting", "rvoting", "greedy-max", "ptas")
BENCH_SEEDS = 6  # instances per run_bench cell
BRUTE_CORRUPTIONS = 3


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass
class Op:
    """One top-level call.  ``call`` receives the results of the pass's
    earlier operations, keyed by label; ``check`` returns problems with a
    result; ``quality`` gives (violated, reference) for val_ratio."""

    label: str
    fn: str  # traced name, "<layer>.<function>"
    call: Callable
    check: Callable
    digest: Callable
    sizes: dict
    quality: Callable = lambda result: (0, 0)


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    info: dict = field(default_factory=dict)  # recorded with the run, e.g. worker count


class _Streams:
    """Independent generator per instance, derived from the workload seed."""

    def __init__(self, seed):
        self.seed = seed
        self.count = 0

    def __call__(self):
        self.count += 1
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.count]))
        )

    def int(self):
        return int(self().integers(2**31))


def _planted(streams, n, q, kind="cyclic", k=None):
    m = n * (n - 1) // 2
    k = max(1, round(PLANTED_FRACTION * m)) if k is None else k
    return ug.planted(n, q, k, kind=kind, rng=streams())


def _sizes(g, **more):
    if hasattr(g, "delta"):
        more["delta"] = str(g.delta)
    return {"kind": g.kind, "n": g.n, "q": g.q, "m": g.m, **more}


def _report_op(label, fn, g, call, ref, verify=check.check_report):
    """An operation returning a SolveReport for ``g``; ``ref`` is the
    reference val_ratio divides by, or None to leave the answer out."""
    return Op(
        label=label, fn=fn, call=call,
        check=lambda rep, prior: verify(g, rep),
        digest=check.digest_report, sizes=_sizes(g),
        quality=lambda rep: (0, 0) if ref is None else (rep.violated, ref),
    )


def build_allpivot(seed, s):
    streams = _Streams(seed)
    q = s["q"]
    dense_n, delta = s["dense"]
    cyc = {n: _planted(streams, n, q)
           for n in sorted({*s["vote_ns"], s["pivot_n"], s["ptas_n"], dense_n})}
    perm = _planted(streams, *s["perm"], kind="perm")
    dense = ug.sparsify_everywhere_dense(cyc[dense_n].instance, delta, rng=streams())
    dense_ref = sum(1 for u, v in cyc[dense_n].corrupted if dense.present(u, v))
    square = _planted(streams, s["square_n"], q).instance
    ptas_seed = streams.int()

    ops = []
    for n in s["vote_ns"]:
        g = cyc[n].instance
        ops.append(_report_op(f"voting_solve cyclic n={n}", "solvers.voting_solve", g,
                              lambda prior, g=g: ug.voting_solve(g), cyc[n].num_corrupt))
    g = cyc[s["pivot_n"]].instance
    ops.append(_report_op(f"pivot_best cyclic n={g.n}", "solvers.pivot_best", g,
                          lambda prior, g=g: ug.pivot_best(g), cyc[g.n].num_corrupt))
    gp = perm.instance
    ops.append(_report_op(f"voting_solve perm n={gp.n}", "solvers.voting_solve", gp,
                          lambda prior: ug.voting_solve(gp), perm.num_corrupt))
    ops.append(_report_op(f"pivot_best perm n={gp.n}", "solvers.pivot_best", gp,
                          lambda prior: ug.pivot_best(gp), perm.num_corrupt))
    ops.append(_report_op(f"dense_voting cyclic n={dense_n} delta={delta}",
                          "solvers.dense_voting", dense,
                          lambda prior: ug.dense_voting(dense), dense_ref))
    gt = cyc[s["ptas_n"]].instance
    ops.append(_report_op(f"ptas_solve cyclic n={gt.n}", "ptas.ptas_solve", gt,
                          lambda prior: ug.ptas_solve(gt, ug.PtasConfig(tau=0.5, seed=ptas_seed)),
                          cyc[gt.n].num_corrupt, verify=check.check_ptas))
    ops.append(Op(
        label=f"to_square_instance cyclic n={square.n}", fn="core.to_square_instance",
        call=lambda prior: ug.to_square_instance(square),
        check=lambda sq, prior: check.check_square(sq, square),
        digest=check.digest_instance, sizes=_sizes(square),
    ))
    return Workload("allpivot", ops)


def build_ingest(seed, s):
    streams = _Streams(seed)
    n, q, p = s["noise"]
    noisy = ug.noise_model(n, q, p, rng=streams())
    perm = _planted(streams, *s["perm"], kind="perm")
    tri_sources = [_planted(streams, *s["tri_cyclic"]),
                   _planted(streams, *s["tri_perm"], kind="perm")]

    ops = []
    for planted, tag in ((noisy, "cyclic"), (perm, "perm")):
        g, ref = planted.instance, planted.num_corrupt
        text = ug.serialize_instance(g)
        name = f"{tag} n={g.n}"
        parse_label = f"parse_instance {name}"
        solver_seeds = [streams.int() for _ in range(SOLVER_DRAWS)]

        def parsed(prior, key=parse_label):
            return prior[key]

        ops.append(Op(
            label=parse_label, fn="fileio.parse_instance",
            call=lambda prior, text=text: ug.parse_instance(text),
            check=lambda got, prior, g=g: check.check_same_instance(got, g),
            digest=check.digest_instance, sizes=_sizes(g, bytes=len(text)),
        ))
        for draw, seed_ in enumerate(solver_seeds):
            ops.append(_report_op(f"randomized_voting {name} draw={draw}",
                                  "solvers.randomized_voting", g,
                                  lambda prior, parsed=parsed, s=seed_:
                                  ug.randomized_voting(parsed(prior), rng=s), ref))
            ops.append(_report_op(f"pivot_random {name} draw={draw}",
                                  "solvers.pivot_random", g,
                                  lambda prior, parsed=parsed, s=seed_:
                                  ug.pivot_random(parsed(prior), rng=s), ref))
        rv_label = f"randomized_voting {name} draw=0"
        ops.append(Op(
            label=f"violated_count {name}", fn="core.violated_count",
            call=lambda prior, parsed=parsed, rv=rv_label:
            ug.violated_count(parsed(prior), prior[rv].assignment),
            check=lambda bad, prior, g=g, rv=rv_label:
            [] if bad == check.recount(g, prior[rv].assignment) == prior[rv].violated
            else [f"violated_count {bad} disagrees with the recount or the report"],
            digest=check.digest, sizes=_sizes(g),
        ))
        ops.append(Op(
            label=f"serialize_instance {name}", fn="fileio.serialize_instance",
            call=lambda prior, parsed=parsed: ug.serialize_instance(parsed(prior)),
            check=lambda out, prior, text=text:
            [] if out == text else ["serialize(parse(text)) != text"],
            digest=check.digest, sizes=_sizes(g, bytes=len(text)),
        ))
        ops.append(Op(
            label=f"serialize_assignment {name}", fn="fileio.serialize_assignment",
            call=lambda prior, rv=rv_label: ug.serialize_assignment(prior[rv].assignment),
            check=lambda out, prior, rv=rv_label:
            check.check_assignment_text(out, prior[rv].assignment),
            digest=check.digest, sizes={"n": g.n},
        ))

    for planted in tri_sources:
        g = planted.instance
        name = f"{g.kind} n={g.n}"
        count_label = f"inconsistent_triangles {name}"
        pack_seed = streams.int()
        ops.append(Op(
            label=count_label, fn="certify.inconsistent_triangles",
            call=lambda prior, g=g: ug.inconsistent_triangles(g),
            check=lambda count, prior, g=g:
            [] if count == check.count_inconsistent(g)
            else [f"inconsistent_triangles {count} disagrees with the recount"],
            digest=check.digest, sizes=_sizes(g),
        ))
        ops.append(Op(
            label=f"triangle_packing_lb {name}", fn="certify.triangle_packing_lb",
            call=lambda prior, g=g, s=pack_seed: ug.triangle_packing_lb(g, rng=s),
            check=lambda cert, prior, g=g, r=planted.num_corrupt, c=count_label:
            check.check_packing(g, cert, r, prior.get(c)),
            digest=lambda cert: check.digest(cert.triangles),
            sizes=_sizes(g),
        ))
    return Workload("ingest", ops)


def build_exact_sweep(seed, s):
    streams = _Streams(seed)
    workers = nproc()
    brutes = [_planted(streams, *s["brute_cyclic"], k=BRUTE_CORRUPTIONS),
              _planted(streams, *s["brute_perm"], kind="perm", k=BRUTE_CORRUPTIONS)]
    ops = []
    for planted in brutes:
        g = planted.instance
        # the answer is OPT itself, so it has no reference to be compared with
        ops.append(_report_op(
            f"brute_force {g.kind} n={g.n} q={g.q}", "solvers.brute_force", g,
            lambda prior, g=g: ug.brute_force(g), None,
            verify=lambda g, rep, r=planted.num_corrupt: check.check_opt(g, rep, r),
        ))
        ops[-1].sizes["states"] = g.q ** (g.n - (g.kind == "cyclic"))

    bench_seeds = tuple(BENCH_SEEDS * seed + i for i in range(BENCH_SEEDS))
    grid = dict(ns=s["ns"], qs=s["qs"], corrupt_fracs=(s["frac"],), seeds=bench_seeds,
                threads=workers)
    sweeps = [
        ("run_bench complete", BENCH_ALGORITHMS, dict(grid)),
        ("run_bench dense", ("dense-voting",), dict(grid, deltas=(s["delta"],))),
    ]
    cells = len(s["ns"]) * len(s["qs"]) * len(bench_seeds)
    for label, algs, kwargs in sweeps:
        ops.append(Op(
            label=label, fn="bench.run_bench",
            call=lambda prior, algs=algs, kw=kwargs: ug.run_bench(algs, **kw),
            check=lambda rows, prior, e=cells * len(algs): check.check_rows(rows, e),
            digest=check.digest_rows,
            sizes={"ns": list(s["ns"]), "qs": list(s["qs"]), "seeds": list(bench_seeds),
                   "delta": kwargs.get("deltas", (0.0,))[0], "algorithms": list(algs),
                   "threads": workers},
            quality=lambda rows: (
                sum(r.val for r in rows if r.opt_exact and r.val is not None),
                sum(r.opt_or_lb for r in rows if r.opt_exact and r.val is not None),
            ),
        ))
    return Workload("exact-sweep", ops, {"run_bench_workers": workers})


BUILDERS = {
    "allpivot": build_allpivot,
    "ingest": build_ingest,
    "exact-sweep": build_exact_sweep,
}


def build(name, seed, sizes=None):
    return BUILDERS[name](seed, (sizes or FULL)[name])
