"""Instance types and basic operations.

Two constraint kinds over the label set [q] = {0, ..., q-1}:

* cyclic     -- each edge (u, v) with u < v carries an offset c, and an
                assignment x satisfies the edge iff x[u] - x[v] == c (mod q).
                The reverse orientation is the negation: offset(v, u) == -c mod q.
* perm       -- each edge carries a bijection pi on [q]; x satisfies the edge
                iff pi(x[u]) == x[v] for the stored orientation u -> v, and the
                reverse orientation is the inverse bijection.

Instances are immutable after construction (backing arrays are read-only), so
they can be shared freely across threads.  Only the u < v data is independent
state: the reverse orientation is derived at construction, which makes it
impossible to build an instance whose two orientations disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import MissingEdgeError

__all__ = [
    "LinEqInstance",
    "UgInstance",
    "DenseInstance",
    "SolveReport",
    "as_generator",
    "perm_compose",
    "perm_invert",
    "violated_count",
    "satisfied_count",
    "triangle_consistent",
    "to_square_instance",
]


def as_generator(rng=None):
    """Coerce an int seed / Generator / None into a numpy Generator.

    None means the fixed default seed 0: every entry point in this package is
    deterministic unless the caller supplies their own randomness.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.PCG64(_seed(0 if rng is None else rng)))


def _seed(seed):
    """``seed`` as an int; numpy seeds only from non-negative ones."""
    if int(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def _spawn_int(seed, *key):
    """An int seed of its own for the child ``key`` of ``seed``."""
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def _exact(x, name):
    """``x`` as a Fraction; a float reads as the decimal it prints as (0.3 is
    3/10, not the binary fraction nearest to it).  ``name`` is the parameter
    an infinite or NaN float is reported under."""
    if not isinstance(x, float):
        return Fraction(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return Fraction(str(x))


def _integers(values, what):
    """``values`` as an integer array; any other dtype is a ValueError (stored
    floats would truncate, Python ints past int64 overflow)."""
    a = np.asarray(values)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{what} must be integers")
    return a


def perm_compose(p, r):
    """Composition p after r: (p o r)(i) = p[r[i]]."""
    p = np.asarray(p)
    r = np.asarray(r)
    return p[r]


def perm_invert(p):
    """Inverse bijection along the last axis: perm_invert(p)[p[i]] = i, for
    one bijection or a stack of them."""
    p = np.asarray(p)
    inv = np.empty_like(p)
    np.put_along_axis(inv, p, np.arange(p.shape[-1]), axis=-1)
    return inv


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _CompleteInstance:
    """Shared body of the two complete-graph kinds.

    The constraints live in one table ``_table`` indexed [u, v]: (n, n)
    offsets for cyclic, (n, n, q) bijections for perm.  Only its u < v
    entries are independent state, given as a dict or an array (see the
    subclasses); the reverse orientation is derived from them.  A subclass
    supplies its blank table, its value check and its reverse.
    """

    _noun = None  # "offset" or "perm", in error messages
    _present = None  # mask of present pairs; None means every pair is present

    def __init__(self, n, q, values):
        n, q = int(n), int(q)
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        if q < 1:
            raise ValueError(f"label count must be >= 1, got q={q}")
        self.n, self.q = n, q
        table = self._blank(n, q)
        iu, iv = np.triu_indices(n, k=1)
        if isinstance(values, dict):
            if len(values) != len(iu):
                raise ValueError(f"expected {len(iu)} {self._noun}s, got {len(values)}")
            for u, v in values:
                if not (0 <= u < v < n):
                    raise ValueError(f"{self._noun} key ({u}, {v}) is not a pair with u < v")
            us, vs = zip(*values)
            table[us, vs] = _integers(list(values.values()), f"{self._noun}s")
        else:
            arr = np.asarray(values)
            if arr.shape != table.shape:
                raise ValueError(f"{self._noun} array must have shape {table.shape}")
            table[iu, iv] = _integers(arr, f"{self._noun}s")[iu, iv]
        fwd = table[iu, iv]
        self._check(fwd)
        table[iv, iu] = self._reverse(fwd)
        self._table, self._eu, self._ev = _read_only(table, iu, iv)

    @property
    def m(self):
        return len(self._eu)

    def edges(self):
        """Index arrays (u, v) of the pairs u < v in lexicographic order."""
        return self._eu, self._ev

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.n == other.n
            and self.q == other.q
            and np.array_equal(self._table, other._table)
        )

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, q={self.q})"


class LinEqInstance(_CompleteInstance):
    """Complete-graph instance with cyclic (offset) constraints.

    ``offsets`` may be a mapping {(u, v): c} covering every pair u < v, or an
    (n, n) integer array whose strict upper triangle holds the offsets (the
    rest of the array is ignored).
    """

    kind = "cyclic"
    _noun = "offset"

    def __init__(self, n, q, offsets):  # keeps the public keyword name
        super().__init__(n, q, offsets)

    @staticmethod
    def _blank(n, q):
        return np.zeros((n, n), dtype=np.int64)

    def _check(self, fwd):
        if fwd.min() < 0 or fwd.max() >= self.q:
            raise ValueError(f"offsets must lie in [0, {self.q})")

    def _reverse(self, fwd):
        # offset(v, u) = -offset(u, v) mod q, in place: fwd is not read again
        np.negative(fwd, out=fwd)
        fwd %= self.q
        return fwd

    def offset(self, u, v):
        """Offset for the ordered pair (u, v); offset(v, u) is its negation mod q."""
        if u == v:
            raise ValueError("no self-loop offsets")
        return int(self._table[u, v])

    def offset_matrix(self):
        """Read-only (n, n) matrix M with M[u, v] = offset(u, v)."""
        return self._table

    def implied(self, rows, labels, cols=slice(None)):
        """Labels the constraints force: entry [i, j] is the label cols[j]
        must take to satisfy its constraint with rows[i] when rows[i] takes
        labels[i].  ``rows`` is an index array or a slice, ``cols`` a slice;
        the diagonal (a vertex with itself) is the vertex's own label."""
        return (labels[:, None] - self._table[rows, cols]) % self.q


class UgInstance(_CompleteInstance):
    """Complete-graph instance with bijection (permutation) constraints.

    ``perms`` may be a mapping {(u, v): bijection} covering every pair u < v,
    or an (n, n, q) integer array whose [u, v] rows for u < v hold the
    bijections.  perm(v, u) is derived as the inverse of perm(u, v).
    """

    kind = "perm"
    _noun = "perm"

    def __init__(self, n, q, perms):  # keeps the public keyword name
        super().__init__(n, q, perms)

    @staticmethod
    def _blank(n, q):
        return np.tile(np.arange(q), (n, n, 1))

    def _check(self, fwd):
        if not (np.sort(fwd, axis=1) == np.arange(self.q)).all():
            raise ValueError(f"each perm must be a bijection on [0, {self.q})")

    # perm(v, u) = inverse of perm(u, v)
    _reverse = staticmethod(perm_invert)

    def perm(self, u, v):
        """Bijection for the ordered pair (u, v); perm(v, u) is its inverse."""
        if u == v:
            raise ValueError("no self-loop perms")
        return self._table[u, v]

    def perm_tensor(self):
        """Read-only (n, n, q) tensor T with T[u, v] = perm(u, v); diagonal is identity."""
        return self._table

    def implied(self, rows, labels, cols=slice(None)):
        """Labels the constraints force; see LinEqInstance.implied."""
        if isinstance(rows, slice):
            rows = np.arange(self.n)[rows]
        return self._table[rows, cols, labels]


class DenseInstance:
    """A not-necessarily-complete instance: a complete base plus an edge mask.

    ``present`` is an (n, n) boolean symmetric matrix with a False diagonal.
    Constraints of absent pairs are carried by the base but never evaluated.

    ``delta`` is the canonical density slack (n-1-min_degree)/(n-1), an exact
    Fraction derived from the actual degrees, so every vertex degree is
    >= ceil((1-delta)(n-1)) with equality somewhere.  Pass ``max_delta`` to
    additionally require delta <= max_delta.
    """

    def __init__(self, base, present, max_delta=None):
        if not isinstance(base, _CompleteInstance):
            raise ValueError(f"base must be a complete instance, got {type(base).__name__}")
        self.base = base
        # the base's table itself, read-only: absent pairs are masked by readers
        self.n, self.q, self.kind, self._table = base.n, base.q, base.kind, base._table
        n = base.n
        mask = np.asarray(present, dtype=bool)
        if mask.shape != (n, n):
            raise ValueError(f"present mask must have shape ({n}, {n})")
        if mask.diagonal().any():
            raise ValueError("present mask must have a False diagonal")
        if not np.array_equal(mask, mask.T):
            raise ValueError("present mask must be symmetric")
        degrees = mask.sum(axis=1)
        dmin = int(degrees.min())
        if dmin < 1:
            raise ValueError("every vertex needs degree >= 1 (density slack < 1)")
        self.delta = Fraction(n - 1 - dmin, n - 1)
        if max_delta is not None and self.delta > _exact(max_delta, "max_delta"):
            raise ValueError(
                f"minimum degree {dmin} gives density slack {self.delta}, "
                f"above the allowed {max_delta}"
            )
        self._present, self._degrees, self._eu, self._ev = _read_only(
            mask.copy(), degrees, *np.nonzero(np.triu(mask, k=1))
        )

    @classmethod
    def wrap_complete(cls, base):
        """View a complete instance as a dense instance with delta = 0."""
        mask = ~np.eye(base.n, dtype=bool)
        return cls(base, mask)

    # m and edges() read the present pairs
    m = _CompleteInstance.m
    edges = _CompleteInstance.edges

    def present(self, u, v):
        return bool(self._present[u, v])

    def present_matrix(self):
        return self._present

    def degrees(self):
        return self._degrees

    def implied(self, rows, labels, cols=slice(None)):
        """The base's implied labels, absent pairs included: callers mask
        them with the present mask."""
        return self.base.implied(rows, labels, cols)

    def __eq__(self, other):
        # equality looks only at structure that is semantically live:
        # absent-pair constraints in the base are ignored
        edges = self.edges()
        return (
            isinstance(other, DenseInstance)
            and self.n == other.n
            and self.q == other.q
            and self.kind == other.kind
            and np.array_equal(self._present, other._present)
            and np.array_equal(self._table[edges], other._table[edges])
        )

    def __repr__(self):
        return (
            f"DenseInstance(n={self.n}, q={self.q}, kind={self.kind!r}, "
            f"m={self.m}, delta={self.delta})"
        )


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``violated`` always equals violated_count(instance, assignment) and can be
    recomputed by the caller.  ``pivot``/``pivot_label`` are filled by
    pivot-based solvers, ``seed`` by randomized ones when a plain int seed was
    supplied, ``elapsed`` is wall-clock seconds, and ``extra`` carries
    algorithm-specific metadata.
    """

    assignment: np.ndarray
    violated: int
    algorithm: str
    pivot: int | None = None
    pivot_label: int | None = None
    seed: int | None = None
    elapsed: float = 0.0
    extra: dict = field(default_factory=dict)


def _as_labels(g, labels):
    a = np.asarray(labels)
    if a.shape != (g.n,):
        raise ValueError(f"assignment must have length n={g.n}, got shape {a.shape}")
    _integers(a, "assignment labels")
    if len(a) and (a.min() < 0 or a.max() >= g.q):
        raise ValueError(f"labels must lie in [0, {g.q})")
    return a.astype(np.int64, copy=False)


def violated_count(g, labels):
    """Number of constraints the assignment violates (absent pairs never count)."""
    a = _as_labels(g, labels)
    return _violated_fast(g, a)


def _violated_fast(g, a):
    # walk the upper triangle in row blocks: one pass over the constraints
    # instead of gathering m-length edge arrays
    present = g._present
    bad = 0
    for rows in _row_slices(g.n):
        cols = slice(rows.start, None)
        d = g.implied(rows, a[rows], cols) != a[None, cols]
        if present is not None:
            d &= present[rows, cols]
        bad += int(np.count_nonzero(np.triu(d, k=1)))
    return bad


def _row_slices(n):
    """Consecutive row slices covering 0..n-1, each of about 2**18 cells of
    an n-column table: one cache-sized slab per pass."""
    block = max(1, (1 << 18) // n)
    for start in range(0, n, block):
        yield slice(start, min(start + block, n))


def _tally(forced, width):
    """Histogram of forced labels: ``counts[b, v, a]`` is the number of k
    with ``forced[b, k, v] == a``, for labels a in [0, width).  ``forced``
    is offset in place, so callers pass an array of their own."""
    B, _, V = forced.shape
    forced += width * np.arange(B * V).reshape(B, 1, V)  # slot of (b, v)
    return np.bincount(forced.ravel(), minlength=B * V * width).reshape(B, V, width)


def _pivot_labels(g):
    """Labels a pivot must try.  A global label shift preserves every cyclic
    constraint, so a cyclic pivot at label 0 covers all its labels; a
    bijection pivot has to try each one."""
    return range(1) if g.kind == "cyclic" else range(g.q)


def satisfied_count(g, labels):
    """Number of constraints the assignment satisfies; violated + satisfied = m."""
    return g.m - violated_count(g, labels)


def triangle_consistent(g, u, v, w):
    """Whether the three constraints around {u, v, w} can all hold at once.

    For cyclic constraints the triangle is satisfiable exactly when
    offset(u,v) + offset(v,w) + offset(w,u) == 0 (mod q).  For bijections it
    is satisfiable exactly when the cycle composition
    perm(w,u) o perm(v,w) o perm(u,v) fixes at least one label: walking that
    label around the triangle satisfies all three edges, while a fixed-point
    free composition violates at least one edge under every labeling.
    On dense instances all three edges must be present.
    """
    if len({u, v, w}) != 3:
        raise ValueError("triangle vertices must be distinct")
    if g._present is not None:
        for a, b in ((u, v), (v, w), (w, u)):
            if not g._present[a, b]:
                raise MissingEdgeError(f"edge ({a}, {b}) is absent from the instance")
    T = g._table
    if g.kind == "cyclic":
        return int(T[u, v] + T[v, w] + T[w, u]) % g.q == 0
    comp = perm_compose(T[w, u], perm_compose(T[v, w], T[u, v]))
    return bool((comp == np.arange(g.q)).any())


def to_square_instance(g):
    """Replace each offset by the most common two-step offset through a third vertex.

    For every pair u < v the new offset is the mode over all other vertices w
    of offset(u, w) + offset(w, v) mod q, ties resolved toward the smallest
    offset value.  On instances that admit a perfect assignment this is the
    identity transform.
    """
    if not isinstance(g, LinEqInstance):
        raise ValueError("square transform is defined for complete cyclic instances")
    n, q = g.n, g.q
    if n < 3:
        raise ValueError("square transform needs n >= 3")
    # solvers builds on this module, so its candidate walk is imported at
    # call time
    from .solvers import _candidate_blocks, _voting_labels

    upper = np.zeros((n, n), dtype=np.int64)
    # voting from pivot v at label 0 counts, for every u, the two-step
    # offsets offset(u, w) + offset(w, v); below the pivot its labels are the
    # modes with the degenerate paths w == u and w == v left out
    for pivots, labels, temp, counts in _candidate_blocks(g):
        upper[:, pivots] = _voting_labels(counts, temp, pivots, labels, True).T
    return LinEqInstance(n, q, upper)
