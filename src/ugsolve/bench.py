"""Reproducible benchmark sweeps over generated instances.

A sweep is the cross product of (family, n, q, delta, corruption fraction)
cells with a list of seeds and algorithms; each (cell, seed) pair generates
one instance, every algorithm runs on it, and one CSV row per (cell, seed,
algorithm) comes out in deterministic order.  Per-cell RNG streams are spawned
from (seed, cell index), so no row depends on the rows before it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .certify import triangle_packing_lb
from .core import _seed, _spawn_int
from .errors import ResourceLimitError
from .generators import (
    noise_model,
    planted,
    sparsify_everywhere_dense,
    tight_pivot_example,
)
from .ptas import DEFAULT_GREEDY_RESTARTS, PtasConfig, greedy_max, ptas_solve
from .solvers import (
    BRUTE_FORCE_LIMIT,
    brute_force,
    dense_voting,
    pivot_best,
    pivot_random,
    randomized_voting,
    voting_solve,
)

__all__ = [
    "BenchRow",
    "CSV_HEADER",
    "ALGORITHMS",
    "FAMILIES",
    "run_algorithm",
    "run_bench",
    "write_csv",
    "resolve_threads",
]

CSV_HEADER = (
    "algorithm,n,q,delta,seed,corruptions,opt_or_lb,opt_exact,val,ratio,"
    "elapsed_ms,error"
)

# algorithm name -> solver, called with the instance and the keywords seed,
# tau, brute_limit and restarts; the CLI and the bench both dispatch here
SOLVERS = {
    "pivot": lambda g, **_: pivot_best(g),
    "pivot-random": lambda g, seed, **_: pivot_random(g, rng=seed),
    "voting": lambda g, **_: voting_solve(g),
    "rvoting": lambda g, seed, **_: randomized_voting(g, rng=seed),
    "dense-voting": lambda g, **_: dense_voting(g),
    "brute": lambda g, brute_limit, **_: brute_force(g, limit=brute_limit),
    "greedy-max": lambda g, seed, restarts, **_: greedy_max(g, rng=seed, restarts=restarts),
    "ptas": lambda g, seed, tau, restarts, **_: ptas_solve(
        g, PtasConfig(tau=tau, seed=seed, greedy_restarts=restarts)
    ),
}

ALGORITHMS = tuple(SOLVERS)

FAMILIES = ("planted", "noise", "tight")

DEFAULT_BENCH_BRUTE_LIMIT = 1_000_000


@dataclass
class BenchRow:
    """One benchmark measurement; ``opt_exact`` is True when opt_or_lb is the
    brute-force optimum and False when it is a packing lower bound."""

    algorithm: str
    n: int
    q: int
    delta: float
    seed: int
    corruptions: int | None = None
    opt_or_lb: int | None = None
    opt_exact: bool | None = None
    val: int | None = None
    ratio: float | None = None
    elapsed_ms: float | None = None
    error: str = ""


def resolve_threads(threads=None):
    """Worker cap: explicit argument, else UGSOLVE_THREADS, else CPU count
    (0 or unset mean auto); run_bench's one worker meets every cap."""
    if threads is None:
        raw = os.environ.get("UGSOLVE_THREADS", "0")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"UGSOLVE_THREADS must be an integer, got {raw!r}") from None
    if threads < 0:
        raise ValueError("thread count must be >= 0")
    return threads or (os.cpu_count() or 1)


def _spawned(seed, cell_index, lane):
    """Independent deterministic RNG stream for one (cell, seed) row group."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(cell_index, lane)))
    )


def _make_instance(family, n, q, delta, frac, seed, cell_index):
    if family == "planted":
        m = n * (n - 1) // 2
        k = round(frac * m)
        rep = planted(n, q, k, kind="cyclic", rng=_spawned(seed, cell_index, 0))
        inst, corr = rep.instance, rep.num_corrupt
    elif family == "noise":
        rep = noise_model(n, q, frac, rng=_spawned(seed, cell_index, 0))
        inst, corr = rep.instance, rep.num_corrupt
    elif family == "tight":
        inst, corr = tight_pivot_example(n, q), None
    else:
        raise ValueError(f"unknown family {family!r}")
    if delta:
        inst = sparsify_everywhere_dense(inst, delta, rng=_spawned(seed, cell_index, 1))
    return inst, corr


def run_algorithm(
    alg,
    g,
    seed=0,
    *,
    tau=0.5,
    brute_limit=BRUTE_FORCE_LIMIT,
    restarts=DEFAULT_GREEDY_RESTARTS,
):
    """Run the named algorithm on ``g``: ``seed`` drives the randomized
    solvers, ``tau`` the ptas regime check, ``brute_limit`` the brute-force
    search-space cap and ``restarts`` the greedy orders of greedy-max and
    ptas."""
    try:
        solve = SOLVERS[alg]
    except KeyError:
        raise ValueError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}") from None
    return solve(g, seed=seed, tau=tau, brute_limit=brute_limit, restarts=restarts)


def _ratio(val, ref):
    if ref is None:
        return None
    if ref > 0:
        return val / ref
    return 1.0 if val == 0 else None


def _cell_rows(family, n, q, delta, frac, seed, cell_index, algorithms, brute_limit):
    def row(alg, exc=None, **fields):
        error = "" if exc is None else f"{type(exc).__name__}: {exc}"
        return BenchRow(alg, n, q, delta, seed, **fields, error=error)

    try:
        inst, corr = _make_instance(family, n, q, delta, frac, seed, cell_index)
    except Exception as exc:
        return [row(alg, exc) for alg in algorithms]
    try:
        opt = brute_force(inst, limit=brute_limit).violated
        exact = True
    except ResourceLimitError:
        opt = triangle_packing_lb(inst, rng=_spawned(seed, cell_index, 2)).lower_bound
        exact = False
    known = dict(corruptions=corr, opt_or_lb=opt, opt_exact=exact)
    rows = []
    for alg_index, alg in enumerate(algorithms):
        solver_seed = _spawn_int(seed, cell_index, 10 + alg_index)
        try:
            rep = run_algorithm(alg, inst, solver_seed, brute_limit=brute_limit)
            rows.append(row(alg, val=rep.violated, ratio=_ratio(rep.violated, opt),
                            elapsed_ms=rep.elapsed * 1000.0, **known))
        except Exception as exc:
            rows.append(row(alg, exc, **known))
    return rows


def run_bench(
    algorithms,
    ns,
    qs,
    deltas=(0.0,),
    corrupt_fracs=(0.0,),
    seeds=(0,),
    *,
    family="planted",
    brute_limit=DEFAULT_BENCH_BRUTE_LIMIT,
    threads=None,
):
    """Run the sweep cell by cell on the calling thread and return rows in
    order: cells in product order over n, q, delta, fraction; then seeds; then algorithms."""
    algorithms = list(algorithms)
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    seeds = [_seed(seed) for seed in seeds]
    cells = list(product(ns, qs, deltas, corrupt_fracs))
    tasks = [
        (family, n, q, delta, frac, seed, cell_index, algorithms, brute_limit)
        for cell_index, (n, q, delta, frac) in enumerate(cells)
        for seed in seeds
    ]
    resolve_threads(threads)
    return [row for task in tasks for row in _cell_rows(*task)]


def _fmt(value, spec=None):
    if value is None:
        return ""
    if spec is not None:
        return format(value, spec)
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def write_csv(rows, fh):
    """Write the header and rows; returns the number of data rows written."""
    fh.write(CSV_HEADER + "\n")
    for r in rows:
        fields = [
            r.algorithm,
            str(r.n),
            str(r.q),
            format(r.delta, "g"),
            str(r.seed),
            _fmt(r.corruptions),
            _fmt(r.opt_or_lb),
            _fmt(r.opt_exact),
            _fmt(r.val),
            _fmt(r.ratio, ".6g"),
            _fmt(r.elapsed_ms, ".3f"),
            r.error.replace("\n", " ").replace(",", ";"),
        ]
        fh.write(",".join(fields) + "\n")
    return len(rows)
