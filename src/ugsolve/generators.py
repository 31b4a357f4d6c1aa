"""Instance generators and reductions.

Seeded and deterministic throughout: every function takes an int seed or a
numpy Generator and replays identically for equal inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

import numpy as np

from .core import (
    DenseInstance, LinEqInstance, UgInstance, _exact, _seed, _spawn_int, _tally, as_generator
)
from .errors import GadgetGenerationError
from .solvers import _digits, _require_complete, brute_force

__all__ = [
    "PlantedInstance",
    "planted",
    "noise_model",
    "tight_pivot_example",
    "sparsify_everywhere_dense",
    "SignedGraph",
    "random_signed_graph",
    "signed_cost",
    "brute_min_disagree2",
    "reduce_mindisagree2",
    "pad_to_ug",
    "GadgetSpec",
    "BipartiteGadget",
    "bipartite_gadget",
    "BlowupSpec",
    "blow_up",
    "blow_up_star",
    "DEFAULT_GADGET_BETA",
]


@dataclass
class PlantedInstance:
    """A generated instance together with its planted assignment and the list
    of corrupted pairs (u < v, lexicographic).  The planted assignment
    violates exactly the corrupted pairs."""

    instance: object
    planted: np.ndarray
    corrupted: list

    @property
    def num_corrupt(self):
        return len(self.corrupted)


def _conditioned_perms(q, xu, xv, gen):
    """Uniform bijections pi on [q] with pi[xu] = xv, one per row.

    Built as shift(xv) o sigma o shift(-xu) where sigma is a uniform
    permutation fixing 0; the map is a bijection onto the conditioned set.
    """
    k = len(xu)
    if q == 1:
        return np.zeros((k, 1), dtype=np.int64)
    sigma = np.empty((k, q), dtype=np.int64)
    sigma[:, 0] = 0
    sigma[:, 1:] = np.argsort(gen.random((k, q - 1)), axis=1) + 1
    j = np.arange(q)[None, :]
    idx = (j - xu[:, None]) % q
    return (np.take_along_axis(sigma, idx, axis=1) + xv[:, None]) % q


def planted(n, q, num_corrupt, kind="cyclic", rng=None):
    """Uniform planted assignment, constraints consistent with it, then
    ``num_corrupt`` distinct uniformly chosen pairs re-labeled with a
    uniformly chosen violating offset (cyclic) or bijection (perm)."""
    if kind not in ("cyclic", "perm"):
        raise ValueError(f"kind must be 'cyclic' or 'perm', got {kind!r}")
    m = n * (n - 1) // 2
    if not 0 <= num_corrupt <= m:
        raise ValueError(f"num_corrupt must lie in [0, {m}]")
    if q == 1 and num_corrupt > 0:
        raise ValueError("q = 1 admits no violating constraint to corrupt")
    gen = as_generator(rng)
    x = gen.integers(0, q, n)
    eu, ev = np.triu_indices(n, k=1)
    picked = np.sort(gen.choice(m, size=num_corrupt, replace=False))
    corrupted = [(int(eu[i]), int(ev[i])) for i in picked]
    if kind == "cyclic":
        upper = (x[:, None] - x[None, :]) % q
        if num_corrupt:
            shifts = gen.integers(1, q, size=num_corrupt)
            cu, cv = eu[picked], ev[picked]
            upper[cu, cv] = (upper[cu, cv] + shifts) % q
        inst = LinEqInstance(n, q, upper)
    else:
        tensor = np.tile(np.arange(q), (n, n, 1))
        tensor[eu, ev] = _conditioned_perms(q, x[eu], x[ev], gen)
        for u, v in corrupted:
            while True:
                p = gen.permutation(q)
                if p[x[u]] != x[v]:
                    tensor[u, v] = p
                    break
        inst = UgInstance(n, q, tensor)
    return PlantedInstance(instance=inst, planted=x, corrupted=corrupted)


def noise_model(n, q, p_noise, rng=None):
    """Cyclic instance from a uniform planted assignment where each pair is
    independently shifted by a uniform nonzero amount with probability
    ``p_noise``.  The corrupted list holds exactly the pairs that changed
    (at q = 1 no pair can change)."""
    if not 0 <= p_noise <= 1:
        raise ValueError("p_noise must lie in [0, 1]")
    gen = as_generator(rng)
    x = gen.integers(0, q, n)
    eu, ev = np.triu_indices(n, k=1)
    upper = (x[:, None] - x[None, :]) % q
    corrupted = []
    flips = gen.random(len(eu)) < p_noise
    if q > 1 and flips.any():
        idx = np.nonzero(flips)[0]
        shifts = gen.integers(1, q, size=len(idx))
        upper[eu[idx], ev[idx]] = (upper[eu[idx], ev[idx]] + shifts) % q
        corrupted = [(int(eu[i]), int(ev[i])) for i in idx]
    return PlantedInstance(
        instance=LinEqInstance(n, q, upper), planted=x, corrupted=corrupted
    )


def tight_pivot_example(n, q):
    """Worst case for pivot propagation: offset 1 on a directed Hamilton cycle
    (x_i - x_{i+1} = 1 around the cycle), offset 0 on every other pair.

    Labeling all vertices equally violates exactly the n cycle edges while
    every pivot propagation violates 3n-12 edges at q = 2 and 3n-9 at q >= 3,
    so the pivot-to-optimum ratio approaches 3 as n grows."""
    if n < 5:
        raise ValueError("the construction needs n >= 5")
    if q < 2:
        raise ValueError("the construction needs q >= 2")
    upper = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        upper[i, i + 1] = 1
    upper[0, n - 1] = q - 1  # wrap edge: x_{n-1} - x_0 = 1
    return LinEqInstance(n, q, upper)


def sparsify_everywhere_dense(g, delta, rng=None):
    """Remove uniformly random edges from a complete instance while keeping
    every degree at least ceil((1-delta)(n-1))."""
    _require_complete(g, "sparsify_everywhere_dense")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    gen = as_generator(rng)
    n = g.n
    floor = ceil((1 - _exact(delta, "delta")) * (n - 1))
    mask = ~np.eye(n, dtype=bool)
    deg = np.full(n, n - 1)
    eu, ev = np.triu_indices(n, k=1)
    order = gen.permutation(len(eu))
    for i in order:
        u, v = eu[i], ev[i]
        if deg[u] > floor and deg[v] > floor:
            mask[u, v] = mask[v, u] = False
            deg[u] -= 1
            deg[v] -= 1
    return DenseInstance(g, mask, max_delta=delta)


# ---------------------------------------------------------------------------
# correlation clustering (two clusters) and the padding reduction
# ---------------------------------------------------------------------------


@dataclass
class SignedGraph:
    """Complete graph with +1/-1 edge signs (signs[u, v] in {-1, +1}, symmetric,
    zero diagonal).  The two-cluster disagreement cost of a 0/1 clustering is
    the number of + edges across clusters plus the number of - edges within."""

    n: int
    signs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signs)
        if s.shape != (self.n, self.n):
            raise ValueError(f"signs must have shape ({self.n}, {self.n})")
        if not np.array_equal(s, s.T) or s.diagonal().any():
            raise ValueError("signs must be symmetric with zero diagonal")
        iu, iv = np.triu_indices(self.n, k=1)
        if not np.isin(s[iu, iv], (-1, 1)).all():
            raise ValueError("off-diagonal signs must be -1 or +1")
        self.signs = s


def random_signed_graph(n, p_minus, rng=None):
    """Each pair independently gets sign -1 with probability p_minus."""
    if not 0 <= p_minus <= 1:
        raise ValueError("p_minus must lie in [0, 1]")
    gen = as_generator(rng)
    iu, iv = np.triu_indices(n, k=1)
    s = np.zeros((n, n), dtype=np.int64)
    vals = np.where(gen.random(len(iu)) < p_minus, -1, 1)
    s[iu, iv] = vals
    s[iv, iu] = vals
    return SignedGraph(n=n, signs=s)


def signed_cost(h, clustering):
    """Two-cluster disagreement cost of a 0/1 clustering."""
    c = np.asarray(clustering)
    if c.shape != (h.n,) or not np.isin(c, (0, 1)).all():
        raise ValueError("clustering must be a 0/1 vector of length n")
    iu, iv = np.triu_indices(h.n, k=1)
    across = c[iu] != c[iv]
    plus = h.signs[iu, iv] == 1
    return int(np.count_nonzero(plus & across) + np.count_nonzero(~plus & ~across))


def brute_min_disagree2(h):
    """Exhaustive minimum two-cluster disagreement cost; returns
    (cost, clustering) with the lexicographically smallest optimal clustering.
    Complementing a clustering preserves cost, so vertex 0 stays in cluster 0:
    this is brute_force on reduce_mindisagree2(h), whose cyclic search keeps
    vertex 0 at label 0 (ResourceLimitError above its search-space limit)."""
    if h.n < 2:
        return 0, np.zeros(h.n, dtype=np.int64)
    rep = brute_force(reduce_mindisagree2(h))
    return rep.violated, rep.assignment


def reduce_mindisagree2(h):
    """Encode two-cluster correlation clustering as a q = 2 cyclic instance:
    a + edge becomes offset 0 (satisfied when labels agree), a - edge becomes
    offset 1 (satisfied when labels differ).  Costs carry over exactly."""
    upper = (np.asarray(h.signs) == -1).astype(np.int64)
    return LinEqInstance(h.n, 2, upper)


def _shift_perm(q, s):
    return (np.arange(q) + s) % q


def _derangement_fixing(q, i):
    """Cycle the labels other than i (in increasing order) one step forward;
    fixes i, moves every other label."""
    others = [l for l in range(q) if l != i]
    p = np.empty(q, dtype=np.int64)
    p[i] = i
    for t, l in enumerate(others):
        p[l] = others[(t + 1) % (q - 1)]
    return p


def pad_to_ug(h, q, M, clustering=None):
    """Pad a two-cluster clustering instance into a permutation instance over
    q >= 3 labels whose intended labeling costs exactly
    signed_cost + n*M*(q-2)/2.

    The construction keeps the n original vertices (labels 0/1 encode the
    clusters) and adds one block of M vertices per extra label i in {2..q-1},
    intended label i.  Block-internal constraints fix i and derange the rest;
    cross-block constraints are the label shift j-i; original-to-block
    constraints split evenly between shifts i and i-1 so each original vertex
    satisfies exactly half of them regardless of its cluster.

    ``clustering`` defaults to the optimal one (exhaustive search, so keep n
    small); returns (instance, intended_labeling).
    """
    if q < 3:
        raise ValueError("padding needs q >= 3")
    if M < 2 or M % 2:
        raise ValueError("M must be even and >= 2")
    if clustering is None:
        _, clustering = brute_min_disagree2(h)
    c = np.asarray(clustering)
    n = h.n
    N = n + (q - 2) * M
    start = {i: n + (i - 2) * M for i in range(2, q)}
    block = np.full(N, -1)
    for i in range(2, q):
        block[start[i] : start[i] + M] = i
    identity = np.arange(q)
    swap01 = identity.copy()
    swap01[[0, 1]] = swap01[[1, 0]]
    derange = {i: _derangement_fixing(q, i) for i in range(2, q)}
    tensor = np.tile(identity, (N, N, 1))
    for u in range(N):
        for v in range(u + 1, N):
            bu, bv = block[u], block[v]
            if bu == -1 and bv == -1:
                tensor[u, v] = identity if h.signs[u, v] == 1 else swap01
            elif bu == -1:
                half = v - start[bv] < M // 2
                tensor[u, v] = _shift_perm(q, bv if half else bv - 1)
            elif bu == bv:
                tensor[u, v] = derange[bu]
            else:
                tensor[u, v] = _shift_perm(q, bv - bu)
    intended = np.concatenate([c, block[n:]])
    return UgInstance(N, q, tensor), intended


# ---------------------------------------------------------------------------
# bipartite gadget and blow-up
# ---------------------------------------------------------------------------

# Calibrated on the exhaustive oracle at ell=6, q=3 over seeds 0..19: the
# smallest value on a 0.05 grid for which >= 90% of sampled offset tables have
# min/max satisfied counts inside ell^2/q +- beta*ell^1.5 (0.95 passes 17/20,
# 1.00 passes 19/20).  Implementation-defined, not a theory constant.
DEFAULT_GADGET_BETA = 1.00


@dataclass
class GadgetSpec:
    """Parameters for a random bipartite offset gadget on ell + ell vertices.

    Requires ell > q and q | ell.  ``beta`` scales the acceptance band
    ell^2/q +- beta*ell^1.5 on the satisfied-arc count over side labelings."""

    q: int
    ell: int
    seed: int = 0
    beta: float = DEFAULT_GADGET_BETA
    max_attempts: int = 20
    samples: int = 100_000

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.ell <= self.q or self.ell % self.q:
            raise ValueError("need ell > q and ell a multiple of q")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass
class BipartiteGadget:
    """ell x ell uniform offsets between a left and a right vertex block, plus
    the validation statistics that accepted them.

    Arc (i, j) carries offset offsets[i, j]: a labeling (a, b) of the two
    sides satisfies it iff a[i] - b[j] = offsets[i, j] (mod q).  The mean
    satisfied count over all labelings is exactly ell^2/q; min/max lie inside
    the accepted band.  ``mode`` records whether min/max are exact
    ("exhaustive", ell <= 8) or sampled."""

    q: int
    ell: int
    offsets: np.ndarray
    seed: int | None
    attempts: int
    mode: str
    min_satisfied: int
    max_satisfied: int
    mean: Fraction
    band_low: float
    band_high: float

    def to_instance(self):
        """The gadget as a dense cyclic instance on 2*ell vertices
        (left block first)."""
        ell = self.ell
        n = 2 * ell
        upper = np.zeros((n, n), dtype=np.int64)
        upper[:ell, ell:] = self.offsets
        present = np.zeros((n, n), dtype=bool)
        present[:ell, ell:] = True
        present[ell:, :ell] = True
        return DenseInstance(LinEqInstance(n, self.q, upper), present)


def _gadget_stats_exhaustive(offsets, q):
    """Exact min/max satisfied count over ALL q^(2*ell) side labelings.

    Right-side labels contribute independently per vertex, so for each left
    labeling the extremes are sums of per-right-vertex bucket extremes; the
    left side is enumerated outright."""
    ell = offsets.shape[0]
    total = q**ell
    lo, hi = None, None
    block = 1 << 14
    for start in range(0, total, block):
        A = _digits(np.arange(start, min(start + block, total), dtype=np.int64), [q] * ell)
        # want[s, i, j] = right label making arc (i, j) satisfied
        want = (A[:, :, None] - offsets[None, :, :]) % q
        t = _tally(want, q)  # t[s, j, a]: arcs into j satisfied at label a
        mins = t.min(axis=2).sum(axis=1)
        maxs = t.max(axis=2).sum(axis=1)
        lo = int(mins.min()) if lo is None else min(lo, int(mins.min()))
        hi = int(maxs.max()) if hi is None else max(hi, int(maxs.max()))
    return lo, hi


def _gadget_stats_sampled(offsets, q, samples, gen):
    ell = offsets.shape[0]
    lo, hi = None, None
    block = 4096
    done = 0
    while done < samples:
        b = min(block, samples - done)
        A = gen.integers(0, q, (b, ell))
        B = gen.integers(0, q, (b, ell))
        sat = (A[:, :, None] - B[:, None, :]) % q == offsets[None, :, :]
        counts = sat.sum(axis=(1, 2))
        lo = int(counts.min()) if lo is None else min(lo, int(counts.min()))
        hi = int(counts.max()) if hi is None else max(hi, int(counts.max()))
        done += b
    return lo, hi


def bipartite_gadget(spec):
    """Sample uniform bipartite offsets until the satisfied-count spread over
    side labelings fits the band ell^2/q +- beta*ell^1.5, validating
    exhaustively for ell <= 8 and by uniform sampling otherwise.  Raises
    GadgetGenerationError when max_attempts samples all miss the band."""
    gen = as_generator(spec.seed)
    q, ell = spec.q, spec.ell
    mean = Fraction(ell * ell, q)
    width = spec.beta * ell**1.5
    band_low = float(mean) - width
    band_high = float(mean) + width
    best = None
    for attempt in range(1, spec.max_attempts + 1):
        offsets = gen.integers(0, q, (ell, ell))
        if ell <= 8:
            mode = "exhaustive"
            lo, hi = _gadget_stats_exhaustive(offsets, q)
        else:
            mode = "sampled"
            lo, hi = _gadget_stats_sampled(offsets, q, spec.samples, gen)
        gadget = BipartiteGadget(
            q=q,
            ell=ell,
            offsets=offsets,
            seed=spec.seed,
            attempts=attempt,
            mode=mode,
            min_satisfied=lo,
            max_satisfied=hi,
            mean=mean,
            band_low=band_low,
            band_high=band_high,
        )
        if band_low <= lo and hi <= band_high:
            return gadget
        spread = max(float(mean) - lo, hi - float(mean))
        if best is None or spread < best[0]:
            best = (spread, gadget)
    raise GadgetGenerationError(
        f"no offset sample met the band [{band_low:.2f}, {band_high:.2f}] in "
        f"{spec.max_attempts} attempts (best spread {best[0]:.2f})",
        best=best[1],
    )


@dataclass
class BlowupSpec:
    """Blow-up parameters: every base vertex becomes a cloud of k vertices.
    k must be a positive multiple of the instance's q (checked at use)."""

    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        _seed(self.seed)


def _blow_up_arrays(g, k):
    n, q = g.n, g.q
    N = n * k
    ones = np.ones((k, k), dtype=bool)
    present = np.kron(g.present_matrix() | np.eye(n, dtype=bool), ones)
    np.fill_diagonal(present, False)
    off = np.kron(g._table * g.present_matrix(), np.ones((k, k), dtype=np.int64))
    return N, q, off, present


def _check_blowup(g, spec):
    if not isinstance(g, DenseInstance):
        g = DenseInstance.wrap_complete(g)
    if g.kind != "cyclic":
        raise ValueError("blow-up is defined for cyclic instances")
    if spec.k % g.q:
        raise ValueError("k must be a multiple of q")
    return g


def blow_up_star(g, spec):
    """Replace each vertex of a cyclic dense instance by a cloud of k vertices:
    clouds are internally tied by offset 0, every present base edge is copied
    to all k*k cloud pairs, absent base pairs stay absent.  The optimum scales
    by exactly k^2."""
    g = _check_blowup(g, spec)
    N, q, off, present = _blow_up_arrays(g, spec.k)
    return DenseInstance(LinEqInstance(N, q, off), present)


def blow_up(g, spec):
    """Like blow_up_star, but each absent base pair is filled with an
    independently sampled band-validated bipartite gadget on k + k cloud
    vertices, producing a complete instance.  Needs k > q for the gadgets (only
    when the base has absent pairs); gadget failures propagate."""
    g = _check_blowup(g, spec)
    k = spec.k
    N, q, off, present = _blow_up_arrays(g, k)
    pres = g.present_matrix()
    idx = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if pres[u, v]:
                continue
            gadget = bipartite_gadget(GadgetSpec(q=q, ell=k, seed=_spawn_int(spec.seed, idx)))
            off[u * k : (u + 1) * k, v * k : (v + 1) * k] = gadget.offsets
            idx += 1
    return LinEqInstance(N, q, off)
