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

from .core import SolveReport, _pivot_labels, as_generator, violated_count
from .solvers import _require_complete, voting_solve

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


def _greedy_pass(g, order, first_label):
    """One greedy sweep: assign ``order[0]`` the given label, then give each
    later vertex the plurality label among constraints to already-placed
    vertices (ties toward the smaller label)."""
    n, q = g.n, g.q
    labels = np.zeros(n, dtype=np.int64)
    labels[order[0]] = first_label
    for i in range(1, n):
        v = order[i]
        placed = order[:i]
        votes = g.implied(placed, labels[placed], slice(v, v + 1))[:, 0]
        labels[v] = np.argmax(np.bincount(votes, minlength=q))
    return labels


def greedy_max(g, rng=None, restarts=DEFAULT_GREEDY_RESTARTS):
    """Random-order greedy maximization of satisfied constraints on a complete
    instance, best of ``restarts`` independent orders.

    Cyclic instances start each sweep with label 0 (shifting a whole
    assignment never changes its cost); permutation instances try every label
    for the first vertex, since no single starting label is safe there.
    Deterministic given (instance, seed, restarts)."""
    _require_complete(g, "greedy_max")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    gen = as_generator(rng)
    start = time.perf_counter()
    first_labels = _pivot_labels(g)
    best_labels, best_val = None, None
    for _ in range(restarts):
        order = gen.permutation(g.n)
        for first in first_labels:
            labels = _greedy_pass(g, order, first)
            val = violated_count(g, labels)
            if best_val is None or val < best_val:
                best_labels, best_val = labels, val
    elapsed = time.perf_counter() - start
    return SolveReport(
        assignment=best_labels,
        violated=best_val,
        algorithm="greedy-max",
        seed=rng if isinstance(rng, (int, np.integer)) else None,
        elapsed=elapsed,
        extra={"restarts": restarts},
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
