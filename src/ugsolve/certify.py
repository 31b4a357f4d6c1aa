"""Lower-bound certificates and closed-form quality guarantees.

A triangle whose three constraints cannot all hold simultaneously (for cyclic
constraints the offsets do not sum to zero; for bijections the cycle
composition has no fixed point) forces at least one violated edge in every
assignment, so any set of edge-disjoint such triangles lower-bounds the
optimum.  The bound helpers turn a known optimum (or lower bound) into the
guarantee the voting solvers satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DenseInstance, _pivot_labels, as_generator
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


def _inconsistent_masks(g):
    """Yield (u, B) for every anchor u, where B[i, j] (i < j) marks the
    triangle (u, u+1+i, u+1+j) as unsatisfiable with all three edges present.

    Give u a label c and its neighbors the labels its constraints force; the
    triangle is satisfiable exactly when, for some c, the edge between the
    two neighbors then holds.  Cyclic anchors need only c = 0 (a global shift
    preserves every constraint)."""
    n = g.n
    present = g.present_matrix() if isinstance(g, DenseInstance) else None
    for u in range(n - 2):
        rest = slice(u + 1, None)
        bad = True
        for c in _pivot_labels(g):
            temp = g.implied(slice(u, u + 1), np.array([c]), rest)[0]
            bad = bad & (g.implied(rest, temp, rest) != temp)
        bad = np.triu(bad, k=1)
        if present is not None:
            pu = present[u, rest]
            bad &= present[rest, rest] & pu[:, None] & pu[None, :]
        yield u, bad


def iter_inconsistent_triangles(g):
    """Yield all triangles (u < v < w, all edges present) whose constraints
    cannot be satisfied simultaneously, in lexicographic order."""
    for u, bad in _inconsistent_masks(g):
        vs, ws = np.nonzero(bad)
        for v, w in zip((vs + u + 1).tolist(), (ws + u + 1).tolist()):
            yield (u, v, w)


def inconsistent_triangles(g):
    """Count triangles whose constraints cannot be satisfied simultaneously.

    On complete cyclic instances this count is zero exactly when the instance
    is fully satisfiable.  For bijection constraints only one direction holds
    in general: a satisfiable instance has no unsatisfiable triangle, but an
    instance may be unsatisfiable even though every individual triangle admits
    a local solution.
    """
    return sum(int(np.count_nonzero(bad)) for _, bad in _inconsistent_masks(g))


@dataclass
class PackingCertificate:
    """Edge-disjoint inconsistent triangles: a lower bound on the optimum.

    ``lower_bound`` equals len(triangles); every assignment violates at least
    one edge of each packed triangle and the triangles share no edges.
    """

    triangles: list
    seed: int | None

    @property
    def lower_bound(self):
        return len(self.triangles)


def triangle_packing_lb(g, rng=None):
    """Greedily pack edge-disjoint inconsistent triangles in a seeded random
    order and return the resulting certificate."""
    seed = rng if isinstance(rng, (int, np.integer)) else None
    gen = as_generator(rng)
    tris = list(iter_inconsistent_triangles(g))
    gen.shuffle(tris)
    n = g.n
    used = np.zeros((n, n), dtype=bool)
    packed = []
    for u, v, w in tris:
        if used[u, v] or used[u, w] or used[v, w]:
            continue
        used[u, v] = used[v, u] = True
        used[u, w] = used[w, u] = True
        used[v, w] = used[w, v] = True
        packed.append((u, v, w))
    packed.sort()
    return PackingCertificate(triangles=packed, seed=seed)


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
    d = Fraction(delta)
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
