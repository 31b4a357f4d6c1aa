"""Lower-bound certificates and closed-form quality guarantees.

A triangle whose three constraints cannot all hold simultaneously (for cyclic
constraints the offsets do not sum to zero; for bijections the cycle
composition has no fixed point) forces at least one violated edge in every
assignment, so any set of edge-disjoint such triangles lower-bounds the
optimum.  The bound helpers turn a known optimum (or lower bound) into the
guarantee the voting solvers satisfy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import _exact, _pivot_labels, as_generator
from .errors import OutOfRegimeError

__all__ = [
    "PackingCertificate",
    "GuaranteeBound",
    "inconsistent_triangles",
    "iter_inconsistent_triangles",
    "triangle_packing_lb",
    "voting_bound",
    "dense_voting_bound",
]


def _middle_masks(g):
    """Yield (v, B) for every middle vertex v, where B[u, j] (u < v) marks the
    triangle (u, v, v+1+j) as unsatisfiable with all three edges present.

    Give v a label c and its neighbors the labels its constraints force; the
    triangle is satisfiable exactly when, for some c, the edge between the
    two neighbors then holds.  Cyclic middles need only c = 0 (a global shift
    preserves every constraint).  The blocks hold each triangle once."""
    n = g.n
    present = g._present
    for v in range(1, n - 1):
        lo, hi = slice(0, v), slice(v + 1, None)
        bad = True
        for c in _pivot_labels(g):
            row = g.implied(slice(v, v + 1), np.array([c]))[0]
            bad = bad & (g.implied(lo, row[lo], hi) != row[hi])
        if present is not None:
            bad &= present[lo, hi] & present[lo, v][:, None] & present[v, hi]
        yield v, bad


def _listed(g):
    """Inconsistent triangles as int64 arrays (u, v, w) in lexicographic order."""
    n = g.n
    keys = [np.zeros(0, dtype=np.int64)]
    for v, bad in _middle_masks(g):
        us, js = np.nonzero(bad)
        keys.append((us * n + v) * n + (js + v + 1))
    uv, w = np.divmod(np.sort(np.concatenate(keys)), n)
    return (*np.divmod(uv, n), w)


def iter_inconsistent_triangles(g):
    """Yield all triangles (u < v < w, all edges present) whose constraints
    cannot be satisfied simultaneously, in lexicographic order."""
    yield from zip(*(a.tolist() for a in _listed(g)))


def inconsistent_triangles(g):
    """Count triangles whose constraints cannot be satisfied simultaneously.

    On complete cyclic instances this count is zero exactly when the instance
    is fully satisfiable.  For bijection constraints only one direction holds
    in general: a satisfiable instance has no unsatisfiable triangle, but an
    instance may be unsatisfiable even though every individual triangle admits
    a local solution.
    """
    return sum(int(np.count_nonzero(bad)) for _, bad in _middle_masks(g))


@dataclass
class PackingCertificate:
    """Edge-disjoint inconsistent triangles: a lower bound on the optimum.

    ``lower_bound`` equals len(triangles); every assignment violates at least
    one edge of each packed triangle and the triangles share no edges.
    ``extra`` tells how the packing was found: ``inconsistent`` (triangles
    listed), ``rounds`` (of the packing) and ``phases`` (seconds to ``list``
    and to ``pack``).  Equality ignores it.
    """

    triangles: list
    seed: int | None
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def lower_bound(self):
        return len(self.triangles)


def _first_fit(n, edges):
    """Triangles kept by first-fit, which walks the columns of ``edges`` (the
    three edge ids a*n + b, a < b, of one triangle per column) in order and
    keeps each triangle that shares no edge with a kept one; and the rounds
    taken.

    A round keeps every alive triangle that comes first among the alive ones
    on all three of its edges, then drops every alive triangle touching a
    kept edge.  Each earlier triangle on its edges is already dropped, so
    first-fit keeps it as well (Blelloch, Fineman and Shun, SPAA 2012)."""
    unset = edges.shape[1]
    alive = np.arange(unset)
    first = np.full(n * n, unset)
    used = np.zeros(n * n, dtype=bool)
    kept = [alive[:0]]
    rounds = 0
    while alive.size:
        rounds += 1
        np.minimum.at(first, edges.ravel(), np.tile(alive, 3))
        f = first[edges]
        win = (f[0] == alive) & (f[1] == alive) & (f[2] == alive)
        kept.append(alive[win])
        used[edges[:, win]] = True
        first[edges] = unset
        hit = used[edges]
        keep = ~(hit[0] | hit[1] | hit[2])
        alive, edges = alive[keep], edges[:, keep]
    return np.concatenate(kept), rounds


def triangle_packing_lb(g, rng=None):
    """Greedily pack edge-disjoint inconsistent triangles in a seeded random
    order and return the resulting certificate."""
    seed = rng if isinstance(rng, (int, np.integer)) else None
    gen = as_generator(rng)
    n = g.n
    t0 = time.perf_counter()
    u, v, w = _listed(g)
    t1 = time.perf_counter()
    # permutation(N) draws what shuffle draws on an N-list: the same order
    order = gen.permutation(len(u))
    up, vp, wp = u[order], v[order], w[order]
    kept, rounds = _first_fit(n, np.stack((up * n + vp, up * n + wp, vp * n + wp)))
    kept = np.sort(order[kept])
    packed = list(zip(u[kept].tolist(), v[kept].tolist(), w[kept].tolist()))
    extra = {
        "inconsistent": len(u),
        "rounds": rounds,
        "phases": {"list": t1 - t0, "pack": time.perf_counter() - t1},
    }
    return PackingCertificate(triangles=packed, seed=seed, extra=extra)


@dataclass
class GuaranteeBound:
    """Closed-form guarantee: excess = VAL - OPT is at most ``excess`` when the
    relevant voting solver runs on an instance with this OPT.  Exact rational."""

    opt_val: int
    n: int
    m: int
    delta: Fraction
    eps: Fraction
    nu: Fraction
    excess: Fraction

    @property
    def value(self):
        """Upper bound on achievable VAL: OPT + excess."""
        return self.opt_val + self.excess


def voting_bound(opt_val, n, m, eps_factor=1):
    """Guaranteed excess of best-pivot voting on a complete instance:

        VAL - OPT <= OPT * 2*e*nu*(2+nu) * (1 + 1/(n-1))

    with e = eps_factor * OPT/m and nu = 2/(1-2e).  eps_factor=1 is the
    all-pivots guarantee; eps_factor=2 is the single-random-pivot guarantee
    (holds with probability >= 1/2).  Requires e < 1/2.
    """
    opt_val = int(opt_val)
    if opt_val < 0 or m <= 0 or n < 2:
        raise ValueError("need opt_val >= 0, m > 0, n >= 2")
    e = Fraction(eps_factor) * Fraction(opt_val, m)
    if e >= Fraction(1, 2):
        raise OutOfRegimeError(
            f"effective violation rate {e} >= 1/2; no guarantee applies"
        )
    nu = 2 / (1 - 2 * e)
    excess = opt_val * 2 * e * nu * (2 + nu) * (1 + Fraction(1, n - 1))
    return GuaranteeBound(
        opt_val=opt_val, n=n, m=m, delta=Fraction(0), eps=e, nu=nu, excess=excess
    )


def dense_voting_bound(opt_val, n, m, delta):
    """Guaranteed excess of dense voting on an everywhere-(1-delta)-dense
    instance with m present edges:

        VAL - OPT <= OPT * 2*e*nu*(2+nu) / (1-delta) + e^2 * nu^2 * n

    with e = OPT/m and nu = 2/(1-2e-2*delta).  Requires 1-2e-2*delta > 0.
    """
    opt_val = int(opt_val)
    if opt_val < 0 or m <= 0 or n < 2:
        raise ValueError("need opt_val >= 0, m > 0, n >= 2")
    d = _exact(delta, "delta")
    if not 0 <= d < 1:
        raise ValueError("delta must lie in [0, 1)")
    e = Fraction(opt_val, m)
    if 1 - 2 * e - 2 * d <= 0:
        raise OutOfRegimeError(
            f"1 - 2*eps - 2*delta = {1 - 2 * e - 2 * d} <= 0; no guarantee applies"
        )
    nu = 2 / (1 - 2 * e - 2 * d)
    excess = opt_val * 2 * e * nu * (2 + nu) / (1 - d) + e * e * nu * nu * n
    return GuaranteeBound(opt_val=opt_val, n=n, m=m, delta=d, eps=e, nu=nu, excess=excess)
