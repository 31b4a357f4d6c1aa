"""Command-line interface.

Subcommands: gen (instance generators), solve (run one algorithm), verify
(count violations of an assignment file), certify (triangle lower bound),
bench (CSV sweeps).  Exit codes: 0 success, 2 usage error, 3 parse/validation
error, 4 resource limit; ``verify --expect`` returns 1 on a value mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .bench import (
    ALGORITHMS,
    DEFAULT_BENCH_BRUTE_LIMIT,
    FAMILIES,
    run_algorithm,
    run_bench,
    write_csv,
)
from .certify import triangle_packing_lb
from .core import DenseInstance, violated_count
from .errors import ResourceLimitError, UgsolveError
from .fileio import (
    read_assignment,
    read_instance,
    read_instance_info,
    write_assignment,
    write_instance,
)
from .generators import (
    BlowupSpec,
    GadgetSpec,
    bipartite_gadget,
    blow_up,
    blow_up_star,
    noise_model,
    pad_to_ug,
    planted,
    random_signed_graph,
    reduce_mindisagree2,
    sparsify_everywhere_dense,
    tight_pivot_example,
)
from .ptas import DEFAULT_GREEDY_RESTARTS
from .solvers import BRUTE_FORCE_LIMIT


def _describe(g):
    dense = isinstance(g, DenseInstance)
    parts = [f"kind={g.kind}", f"n={g.n}", f"q={g.q}", f"m={g.m}",
             f"density={'dense' if dense else 'full'}"]
    if dense:
        parts.append(f"delta={float(g.delta):.4g}")
    return " ".join(parts)


def _finish_gen(args, inst, assignment=None, note=""):
    write_instance(inst, args.out)
    line = f"wrote {args.out}: {_describe(inst)}"
    if note:
        line += f" {note}"
    print(line)
    if assignment is not None and getattr(args, "assign_out", None):
        write_assignment(assignment, args.assign_out)
        print(f"wrote {args.assign_out}: assignment for {len(assignment)} vertices")
    return 0


def cmd_gen_planted(args):
    rep = planted(args.n, args.q, args.corrupt, kind=args.kind, rng=args.seed)
    return _finish_gen(args, rep.instance, rep.planted,
                       note=f"corruptions={rep.num_corrupt}")


def cmd_gen_noise(args):
    rep = noise_model(args.n, args.q, args.p_noise, rng=args.seed)
    return _finish_gen(args, rep.instance, rep.planted,
                       note=f"corruptions={rep.num_corrupt}")


def cmd_gen_tight(args):
    return _finish_gen(args, tight_pivot_example(args.n, args.q))


def cmd_gen_dense(args):
    rep = planted(args.n, args.q, args.corrupt, kind=args.kind, rng=args.seed)
    inst = sparsify_everywhere_dense(rep.instance, args.delta, rng=args.seed + 1)
    return _finish_gen(args, inst, rep.planted,
                       note=f"corruptions={rep.num_corrupt}")


def cmd_gen_gadget(args):
    spec = GadgetSpec(q=args.q, ell=args.ell, seed=args.seed, beta=args.beta,
                      max_attempts=args.max_attempts)
    gadget = bipartite_gadget(spec)
    note = (f"gadget attempts={gadget.attempts} mode={gadget.mode} "
            f"satisfied=[{gadget.min_satisfied},{gadget.max_satisfied}] "
            f"band=[{gadget.band_low:.2f},{gadget.band_high:.2f}]")
    return _finish_gen(args, gadget.to_instance(), note=note)


def cmd_gen_reduce_md2(args):
    h = random_signed_graph(args.n, args.p_minus, rng=args.seed)
    return _finish_gen(args, reduce_mindisagree2(h))


def cmd_gen_pad_ug(args):
    h = random_signed_graph(args.n, args.p_minus, rng=args.seed)
    inst, intended = pad_to_ug(h, args.q, args.pad_m)
    return _finish_gen(args, inst, intended,
                       note=f"intended_cost={violated_count(inst, intended)}")


def cmd_gen_blowup(args):
    rep = planted(args.n, args.q, args.corrupt, rng=args.seed)
    base = sparsify_everywhere_dense(rep.instance, args.delta, rng=args.seed + 1)
    spec = BlowupSpec(k=args.k, seed=args.seed)
    inst = blow_up_star(base, spec) if args.star else blow_up(base, spec)
    return _finish_gen(args, inst)


def _json_value(value):
    """JSON form of report metadata: numbers, flags and nested dicts (such
    as the phase timings) keep their type, anything else becomes text."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def cmd_solve(args):
    start = time.perf_counter()
    g, parser = read_instance_info(args.instance)
    parse_ms = (time.perf_counter() - start) * 1000.0
    rep = run_algorithm(
        args.alg, g, args.seed, tau=args.tau, brute_limit=args.limit,
        restarts=args.restarts,
    )
    if args.json:
        payload = {
            "algorithm": rep.algorithm,
            "val": rep.violated,
            "n": g.n,
            "q": g.q,
            "kind": g.kind,
            "m": g.m,
            "pivot": rep.pivot,
            "pivot_label": rep.pivot_label,
            "seed": rep.seed,
            "elapsed_ms": rep.elapsed * 1000.0,
            "parse_ms": parse_ms,
            "parser": parser,
            "extra": _json_value(rep.extra),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"instance: {_describe(g)}")
        print(f"algorithm: {rep.algorithm}")
        print(f"val: {rep.violated}")
        if rep.pivot is not None:
            label = "" if rep.pivot_label is None else f" pivot_label: {rep.pivot_label}"
            print(f"pivot: {rep.pivot}{label}")
        print(f"elapsed_ms: {rep.elapsed * 1000.0:.3f}")
    if args.assign_out:
        write_assignment(rep.assignment, args.assign_out)
        if not args.json:
            print(f"wrote {args.assign_out}")
    return 0


def cmd_verify(args):
    g = read_instance(args.instance)
    labels = read_assignment(args.assignment)
    val = violated_count(g, labels)
    print(f"violated: {val}")
    if args.expect is not None and val != args.expect:
        print(f"expected {args.expect}, got {val}", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args):
    if args.val is not None and args.val < 0:
        raise ValueError(f"--val must be >= 0, got {args.val}")
    g = read_instance(args.instance)
    cert = triangle_packing_lb(g, rng=args.seed)
    print(f"inconsistent_triangles: {cert.extra['inconsistent']}")
    print(f"packing_lower_bound: {cert.lower_bound}")
    if args.val is not None:
        if cert.lower_bound > 0:
            print(f"certified_ratio: {args.val / cert.lower_bound:.6g}")
        else:
            print("certified_ratio: n/a (lower bound is 0)")
    return 0


def cmd_bench(args):
    rows = run_bench(
        args.alg,
        ns=args.n,
        qs=args.q,
        deltas=args.delta,
        corrupt_fracs=args.corrupt_frac,
        seeds=args.seeds,
        family=args.family,
        brute_limit=args.brute_limit,
        threads=args.threads,
    )
    if args.out == "-":
        write_csv(rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = write_csv(rows, fh)
        print(f"wrote {count} rows to {args.out}")
    failures = sum(1 for r in rows if r.error)
    if failures:
        print(f"{failures} rows recorded errors", file=sys.stderr)
    return 0


def _add_gen_common(p, corrupt=False, assign=True):
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--q", type=int, required=True, help="label count")
    if corrupt:
        p.add_argument("--corrupt", type=int, default=0,
                       help="number of corrupted constraints (default 0)")
        p.add_argument("--kind", choices=("cyclic", "perm"), default="cyclic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="output instance path")
    if assign:
        p.add_argument("--assign-out", help="also write the planted/intended assignment")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ugsolve",
        description="Solvers, generators, and benchmarks for label-offset and "
        "permutation constraint games on complete and everywhere-dense graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instance files")
    gsub = gen.add_subparsers(dest="family", required=True)

    p = gsub.add_parser("planted", help="planted assignment with corrupted edges")
    _add_gen_common(p, corrupt=True)
    p.set_defaults(func=cmd_gen_planted)

    p = gsub.add_parser("noise", help="independent per-edge noise")
    _add_gen_common(p)
    p.add_argument("--p-noise", type=float, required=True)
    p.set_defaults(func=cmd_gen_noise)

    p = gsub.add_parser("tight", help="worst case for pivot propagation")
    _add_gen_common(p, assign=False)
    p.set_defaults(func=cmd_gen_tight)

    p = gsub.add_parser("dense", help="planted instance with edges removed")
    _add_gen_common(p, corrupt=True)
    p.add_argument("--delta", type=float, required=True,
                   help="density slack: degrees stay >= (1-delta)(n-1)")
    p.set_defaults(func=cmd_gen_dense)

    p = gsub.add_parser("gadget", help="band-validated bipartite offset gadget")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True, help="side size (> q, multiple of q)")
    p.add_argument("--beta", type=float, default=GadgetSpec.__dataclass_fields__["beta"].default)
    p.add_argument("--max-attempts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_gadget)

    p = gsub.add_parser("reduce-md2",
                        help="random signed graph encoded as a q=2 cyclic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-minus", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_reduce_md2)

    p = gsub.add_parser("pad-ug",
                        help="pad a random signed graph to a q-label permutation instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-minus", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--pad-m", type=int, required=True, help="vertices per padding block (even)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--assign-out", help="write the intended labeling")
    p.set_defaults(func=cmd_gen_pad_ug)

    p = gsub.add_parser("blowup", help="cloud blow-up of a sparsified planted instance")
    _add_gen_common(p, corrupt=True, assign=False)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="cloud size (multiple of q)")
    p.add_argument("--star", action="store_true",
                   help="keep absent pairs absent instead of gadget-filling them")
    p.set_defaults(func=cmd_gen_blowup)

    p = sub.add_parser("solve", help="run one algorithm on an instance file")
    p.add_argument("instance")
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--restarts", type=int, default=DEFAULT_GREEDY_RESTARTS)
    p.add_argument("--limit", type=int, default=BRUTE_FORCE_LIMIT,
                   help="brute-force search-space cap")
    p.add_argument("--assign-out", help="write the found assignment")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="count violations of an assignment file")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.add_argument("--expect", type=int, help="exit 1 unless violated equals this")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="inconsistent-triangle lower bound")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val", type=int,
                   help="also print the certified ratio val / lower bound")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bench", help="CSV benchmark sweep")
    p.add_argument("--alg", nargs="+", required=True, choices=ALGORITHMS)
    p.add_argument("--n", nargs="+", type=int, required=True)
    p.add_argument("--q", nargs="+", type=int, required=True)
    p.add_argument("--delta", nargs="+", type=float, default=[0.0])
    p.add_argument("--corrupt-frac", nargs="+", type=float, default=[0.0])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--family", choices=FAMILIES, default="planted")
    p.add_argument("--brute-limit", type=int, default=DEFAULT_BENCH_BRUTE_LIMIT)
    p.add_argument("--threads", type=int, default=None,
                   help="worker cap, default UGSOLVE_THREADS or CPU count; one thread meets it")
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UgsolveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
