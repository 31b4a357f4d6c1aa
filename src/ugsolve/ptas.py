"""Greedy complement solver and the min/max combination driver.

``greedy_max`` maximizes satisfied constraints vertex-by-vertex in a random
order; ``ptas_solve`` returns the better of the plurality-voting solver and
the greedy solver, with the regime diagnostics recorded in the report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import solvers
from .core import SolveReport, _pivot_labels, _violated_fast, as_generator
from .solvers import _require_complete, _violations, voting_solve

__all__ = ["PtasConfig", "greedy_max", "ptas_solve"]

DEFAULT_GREEDY_RESTARTS = 5


@dataclass
class PtasConfig:
    """Driver parameters: finite target relative error tau > 0, RNG seed,
    and the number of random greedy orders to try."""

    tau: float
    seed: int = 0
    greedy_restarts: int = DEFAULT_GREEDY_RESTARTS

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if self.greedy_restarts < 1:
            raise ValueError("greedy_restarts must be >= 1")


def _lockstep(g, orders, first):
    """Run one greedy sweep per row of ``orders`` together, sweep s starting
    with ``orders[s, 0]`` at label ``first[s]``; returns their (S, n) labels
    and their (S, n, q) int32 vote table.

    Each step places ``orders[:, i]`` at the first argmax of its row of the
    vote table, the smallest plurality label, then adds the row of labels
    its constraints force on every vertex with one fancy ``+=``; the (s, w)
    cells of one step are distinct, so the sum is exact.  The last step's
    votes are added too: then the table holds every vertex's vote counts,
    its own vote included, which is what solvers._violations scores."""
    S, n = orders.shape
    q = g.q
    sweeps = np.arange(S)
    votes = np.zeros((S * n, q), dtype=np.int32)  # row n * s + w
    flat = votes.reshape(-1)
    cells = q * (n * sweeps[:, None] + np.arange(n))  # offset of (s, w, 0)
    labels = np.empty((S, n), dtype=np.int64)
    for i in range(n):
        v = orders[:, i]
        a = first if i == 0 else votes[n * sweeps + v].argmax(axis=1)
        labels[sweeps, v] = a
        flat[cells + g.implied(v, a)] += 1
    return labels, votes.reshape(S, n, q)


def _sweep(g, order, first):
    """One greedy sweep whose votes are counted per step from the placed
    vertices: the path of a sweep whose own (n, q) vote table would pass
    ENTRY_CAP.  Ties go to the smallest label, as in _lockstep."""
    labels = np.zeros(g.n, dtype=np.int64)
    labels[order[0]] = first
    for i in range(1, g.n):
        v, placed = order[i], order[:i]
        forced = g.implied(placed, labels[placed], slice(v, v + 1))[:, 0]
        values, counts = np.unique(forced, return_counts=True)
        labels[v] = values[np.argmax(counts)]
    return labels


def greedy_max(g, rng=None, restarts=DEFAULT_GREEDY_RESTARTS):
    """Random-order greedy maximization of satisfied constraints on a complete
    instance, best of ``restarts`` independent orders.

    Each sweep places the vertices in its order, each at the plurality label
    among its constraints to already-placed vertices (ties toward the
    smaller label).  Cyclic instances start each sweep with label 0 (shifting
    a whole assignment never changes its cost); permutation instances try
    every label for the first vertex, since no single starting label is safe
    there.  The first strict minimum over the sweeps, restart-major and
    first-label-minor, wins.  Deterministic given (instance, seed, restarts).

    All S = restarts * |first labels| sweeps run in lockstep, as many at a
    time as keep their (sweeps, n, q) vote table within ENTRY_CAP entries; a
    sweep whose own table passes it runs alone and is scored by
    violated_count.  ``extra`` records the ``kernel`` (path ``lockstep`` or
    ``per-sweep``, the number of sweeps and the sweeps per vote table)
    and the seconds of its ``phases``: the ``sweeps`` and their scoring
    (``evaluate``)."""
    _require_complete(g, "greedy_max")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    gen = as_generator(rng)
    start = time.perf_counter()
    n, q = g.n, g.q
    per_order = len(_pivot_labels(g))
    orders = np.repeat([gen.permutation(n) for _ in range(restarts)], per_order, axis=0)
    first = np.tile(np.arange(per_order), restarts)
    S = len(orders)
    chunk = solvers.ENTRY_CAP // (n * q)
    step = max(chunk, 1)
    labels, bad = np.empty((S, n), dtype=np.int64), np.empty(S, dtype=np.int64)
    phases = {"sweeps": 0.0, "evaluate": 0.0}
    for lo in range(0, S, step):
        part = slice(lo, lo + step)
        t0 = time.perf_counter()
        if chunk:
            labels[part], votes = _lockstep(g, orders[part], first[part])
            t1 = time.perf_counter()
            bad[part] = _violations(g, labels[part], votes.transpose(0, 2, 1))
        else:
            labels[lo] = _sweep(g, orders[lo], first[lo])
            t1 = time.perf_counter()
            bad[lo] = _violated_fast(g, labels[lo])
        phases["sweeps"] += t1 - t0
        phases["evaluate"] += time.perf_counter() - t1
    best = int(np.argmin(bad))  # the first strict minimum
    kernel = {"path": "lockstep" if chunk else "per-sweep", "sweeps": S, "chunk": min(step, S)}
    return SolveReport(
        assignment=labels[best],
        violated=int(bad[best]),
        algorithm="greedy-max",
        seed=rng if isinstance(rng, (int, np.integer)) else None,
        elapsed=time.perf_counter() - start,
        extra={"restarts": restarts, "kernel": kernel, "phases": phases},
    )


def ptas_solve(g, cfg):
    """Run the voting solver and the greedy solver and return whichever
    violates fewer constraints (tie toward voting): the value is
    min(voting, greedy), whatever ``cfg.tau`` is.

    ``tau`` only sets the ``regime_ok`` diagnostic.  The report metadata
    keeps the voting branch's own metadata (``kernel`` and ``phases``, or
    ``fallback`` at n = 2) and adds both candidate values and the regime
    diagnostics: eps_hat = voting value / m, nu_hat = 2/(1 - 2*eps_hat), and
    regime_ok, whether the relative-error certificate
    2*nu_hat*(2+nu_hat)*eps_hat < tau holds (when it does, the voting value
    is already within (1+tau) of the optimum; otherwise the greedy branch
    covers the high-noise regime)."""
    _require_complete(g, "ptas_solve")
    start = time.perf_counter()
    vote = voting_solve(g)
    greedy = greedy_max(g, rng=cfg.seed, restarts=cfg.greedy_restarts)
    winner = vote if vote.violated <= greedy.violated else greedy
    elapsed = time.perf_counter() - start

    m = g.m
    eps_hat = Fraction(vote.violated, m) if m else Fraction(0)
    if 1 - 2 * eps_hat > 0:
        nu_hat = 2 / (1 - 2 * eps_hat)
        regime_ok = 2 * nu_hat * (2 + nu_hat) * eps_hat < Fraction(cfg.tau).limit_denominator(10**12)
    else:
        nu_hat = None
        regime_ok = False
    extra = {
        **vote.extra,
        "branch": "voting" if winner is vote else "greedy",
        "voting_val": vote.violated,
        "greedy_val": greedy.violated,
        "eps_hat": eps_hat,
        "nu_hat": nu_hat,
        "regime_ok": regime_ok,
        "tau": cfg.tau,
    }
    return replace(
        winner,
        algorithm="ptas",
        seed=cfg.seed,
        elapsed=elapsed,
        extra=extra,
    )
