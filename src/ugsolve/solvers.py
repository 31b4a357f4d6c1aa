"""Solvers: pivot propagation, plurality voting, their randomized and
dense-graph variants, and exhaustive search.

All solvers are deterministic functions of (instance,) or (instance, rng);
tie-breaks are fixed everywhere: candidate labels resolve toward the smallest
label, and pivot loops keep the first (smallest (pivot, label)) strict minimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import (
    DenseInstance,
    SolveReport,
    _as_labels,
    _pivot_labels,
    _row_slices,
    _tally,
    _violated_fast,
    as_generator,
)
from .errors import ResourceLimitError

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "pivot_assign",
    "pivot_best",
    "pivot_random",
    "voting_single",
    "voting_solve",
    "randomized_voting",
    "dense_voting",
    "brute_force",
    "FlipDiagnostics",
    "flip_diagnostics",
]

BRUTE_FORCE_LIMIT = 100_000_000

UNLABELED = -1  # sentinel in pivot_assign output on dense instances


def _require_complete(g, op):
    if isinstance(g, DenseInstance):
        raise ValueError(f"{op} works on complete instances; got a dense instance")


def _check_pivot(g, pivot, pivot_label):
    if not 0 <= pivot < g.n:
        raise ValueError(f"pivot must be in [0, {g.n})")
    if not 0 <= pivot_label < g.q:
        raise ValueError(f"pivot label must be in [0, {g.q})")


def pivot_assign(g, pivot, pivot_label=0):
    """Propagate the pivot's label along the pivot's own constraints.

    Every vertex adjacent to the pivot receives the unique label satisfying
    its constraint with the pivot; on dense instances, vertices not adjacent
    to the pivot receive the UNLABELED sentinel (understood by dense_voting).
    On complete instances the result is a full assignment.
    """
    _check_pivot(g, pivot, pivot_label)
    return _propagate(g, np.array([pivot]), np.array([pivot_label]))[0]


def _propagate(g, pivots, pivot_labels):
    """pivot_assign for a batch: row i propagates pivot_labels[i] from
    pivots[i]."""
    temp = g.implied(pivots, pivot_labels)
    if g._present is not None:
        reached = g._present[pivots]
        reached[np.arange(len(pivots)), pivots] = True
        temp[~reached] = UNLABELED
    return temp


# Tile sizes of the vote-count kernel: candidate assignments per block and
# voters per tile.  Its float32 transients take O(q * n * (CAND_BLOCK +
# VOTER_BLOCK)) memory, never a (nq)^2 matrix or a q * n^2 stack.
CAND_BLOCK = 64
VOTER_BLOCK = 128


def _vote_counts(g, X):
    """Two-step vote counts of a block of candidate assignments.

    ``X`` is an (r, n) label array, UNLABELED where a candidate leaves a
    vertex out.  Returns float32 R of shape (r, q, n) where R[i, a, v] counts
    the labeled vertices u that vote a for v: u's constraint with v maps
    X[i, u] to a, and (u, v) is present.  On complete instances u = v votes
    too (its vote lands on X[i, v]); on dense instances it does not.

    The counts are products of 0/1 tiles of the label-extended graph, whose
    row (u, c) marks the labels of v that satisfy (u, v) given x[u] = c.
    Cyclic: with E_j = [M == j], R[:, a] = sum_j X_{a+j} @ E_j, where X_c is
    the one-hot slice [X == c].  Permutation: the one-hot rows of X times the
    label-extended matrix.  Dense: absent pairs are zero blocks.

    The two layouts stay separate on purpose: the cyclic right tile is one
    one-hot slice per offset, q times smaller than the label-extended tile
    the permutation kind reads through ``implied``.
    """
    present = g._present
    n, q = g.n, g.q
    # each entry sums at most n products of 0/1 values, and float32 holds
    # every integer up to 2**24 exactly, so BLAS returns exact counts
    assert n < 2**24
    r = len(X)
    labels = np.arange(q)
    R = np.empty((r, q, n), dtype=np.float32)
    if g.kind == "cyclic":
        M = g._table
        # one-hot over 2q labels, so that labels a .. a+q-1 (mod q) are one
        # strided (r, q*n) view for every a
        left = (X[:, None, :] == np.tile(labels, 2)[None, :, None]).astype(np.float32)
        for start in range(0, n, VOTER_BLOCK):
            tile = slice(start, min(start + VOTER_BLOCK, n))
            right = M[None, :, tile] == labels[:, None, None]
            if present is not None:
                right &= present[None, :, tile]
            right = right.astype(np.float32).reshape(q * n, -1)
            for a in range(q):
                np.matmul(left[:, a : a + q].reshape(r, q * n), right, out=R[:, a, tile])
    else:
        left = (X[:, :, None] == labels).astype(np.float32).reshape(r, n * q)
        rows = np.repeat(np.arange(n), q)
        labs = np.tile(labels, n)
        for start in range(0, n, VOTER_BLOCK):
            tile = slice(start, min(start + VOTER_BLOCK, n))
            b = tile.stop - start
            # right[(u, c), (a, v)] = [perm(u, v) maps c to a]
            right = g.implied(rows, labs, tile)[:, None, :] == labels[:, None]
            if present is not None:
                right &= present[rows, None, tile]
            right = right.astype(np.float32).reshape(n * q, q * b)
            R[:, :, tile] = (left @ right).reshape(r, q, b)
    return R


def _voting_labels(counts, temp, pivots, pivot_labels, cyclic):
    """Voting labels from raw vote counts, the tie rules of every voting round.

    ``counts[i, a, v]`` holds the votes for label a at v given candidate i's
    propagated labels ``temp[i]`` (cyclic: with the pivot at label 0), and
    still includes v's own vote and the pivot's, which both land on
    temp[i, v]; they are taken out here (counts is modified).  Every vertex
    but the pivot takes its plurality label and the pivot keeps its label.

    Cyclic ties are resolved the way pivot propagation would read them off the
    squared instance, whose canonical u < v storage negates the two-step
    offset seen from the higher endpoint: vertices before the pivot take the
    smallest tied offset, vertices after it the tied offset with the smallest
    negation (0 when tied, otherwise the largest).  This makes
    voting_single(g, p, l) identical to
    pivot_assign(to_square_instance(g), p, l) on every complete cyclic
    instance, ties included.  Bijection ties go to the smallest label."""
    r, q, n = counts.shape
    rows = np.arange(r)
    cols = np.arange(n)[None, :]
    counts[rows[:, None], temp, cols] -= 2
    tied = counts == counts.max(axis=1, keepdims=True)
    final = tied.argmax(axis=1)  # first max = smallest label
    if cyclic:
        largest = q - 1 - tied[:, ::-1].argmax(axis=1)
        neg_pref = np.where(tied[:, 0], 0, largest)
        final = np.where(cols < pivots[:, None], final, neg_pref)
        final = (final + pivot_labels[:, None]) % q
    final[rows, pivots] = pivot_labels
    return final


def _violations(g, X, counts):
    """Violated constraints of each complete candidate row of ``X``, read off
    its vote counts: the quadratic form x^T L x of the label-extended graph
    counts every satisfied pair twice, plus each vertex's agreement with
    itself on complete instances."""
    agree = np.take_along_axis(counts, X[:, None, :], axis=1)[:, 0]
    agree = agree.astype(np.int64).sum(axis=1)
    self_votes = g.n if g._present is None else 0
    return g.m - (agree - self_votes) // 2


def _pivot_block(g):
    """Pivots per candidate block: CAND_BLOCK candidates, or one pivot's
    labels when it has more."""
    return max(1, CAND_BLOCK // len(_pivot_labels(g)))


def _candidate_blocks(g):
    """Walk every pivot (every pivot label for the permutation kind) through
    the vote-count kernel, _pivot_block(g) pivots at a time in (pivot, label)
    order: yields each block's (pivots, pivot_labels, temp, counts), its
    propagated assignments and their vote counts."""
    per_pivot = len(_pivot_labels(g))
    step = _pivot_block(g)
    for start in range(0, g.n, step):
        pivots = np.repeat(np.arange(start, min(start + step, g.n)), per_pivot)
        pivot_labels = np.tile(np.arange(per_pivot), len(pivots) // per_pivot)
        temp = _propagate(g, pivots, pivot_labels)
        yield pivots, pivot_labels, temp, _vote_counts(g, temp)


def _all_pivots(g, algorithm, select):
    """Best candidate of the candidate walk; the first strict minimum wins.

    ``select(pivots, pivot_labels, temp, counts)`` maps one block's
    propagated assignments and their vote counts to (assignments, violated
    counts).  The report's extra holds the kernel metadata and the seconds
    spent in the walk (``counts``) and in ``select``."""
    phases = {"counts": 0.0, "select": 0.0}
    best = None
    t0 = t1 = time.perf_counter()
    for pivots, pivot_labels, temp, counts in _candidate_blocks(g):
        t2 = time.perf_counter()
        assign, bad = select(pivots, pivot_labels, temp, counts)
        i = int(np.argmin(bad))
        if best is None or bad[i] < best[0]:
            best = (int(bad[i]), int(pivots[i]), int(pivot_labels[i]), assign[i].copy())
        phases["counts"] += t2 - t1
        t1 = time.perf_counter()
        phases["select"] += t1 - t2
    bad, p, l, a = best
    kernel = {
        "path": f"{g.kind}-{'complete' if g._present is None else 'dense'}",
        "dtype": "float32",
        "pivot_block": _pivot_block(g),
        "voter_block": VOTER_BLOCK,
    }
    return SolveReport(
        assignment=a,
        violated=bad,
        algorithm=algorithm,
        pivot=p,
        pivot_label=l,
        elapsed=time.perf_counter() - t0,
        extra={"kernel": kernel, "phases": phases},
    )


def pivot_best(g):
    """Run pivot propagation from every pivot (every pivot label for the
    permutation kind) and keep the assignment violating fewest constraints."""
    _require_complete(g, "pivot_best")
    return _all_pivots(
        g, "pivot", lambda pivots, labels, temp, counts: (temp, _violations(g, temp, counts))
    )


def pivot_random(g, rng=None):
    """Pivot propagation from one uniformly random pivot (the permutation kind
    still tries all labels for that pivot and keeps the best)."""
    _require_complete(g, "pivot_random")
    return _random_pivot(g, rng, "pivot-random", pivot_assign)


def _random_pivot(g, rng, algorithm, round_):
    """Draw one pivot, run ``round_(g, pivot, label)`` for every label in
    _pivot_labels(g) and keep the first strict minimum."""
    t0 = time.perf_counter()
    seed = rng if isinstance(rng, (int, np.integer)) else None
    p = int(as_generator(rng).integers(g.n))
    if g.n == 2 and round_ is _voting_final:
        return _pivot_fallback(g, algorithm, seed)
    best = None
    for l in _pivot_labels(g):
        a = round_(g, p, l)
        bad = _violated_fast(g, a)
        if best is None or bad < best[0]:
            best = (bad, l, a)
    bad, l, a = best
    return SolveReport(
        assignment=a,
        violated=bad,
        algorithm=algorithm,
        pivot=p,
        pivot_label=l,
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


def _pivot_fallback(g, algorithm, seed=None):
    """Voting needs a third vertex; the single edge of an n = 2 instance is
    solved exactly by pivot propagation instead."""
    return replace(pivot_best(g), algorithm=algorithm, seed=seed, extra={"fallback": "pivot"})


def _voting_final(g, pivot, pivot_label):
    """One voting round in O(n^2): propagate TEMP from the pivot, then every
    non-pivot vertex takes the plurality label among the votes of the other
    n-2 non-pivot vertices (vote of u for v = label making (u, v) satisfied
    given TEMP(u)); the pivot keeps its label.  Ties as in _voting_labels,
    whose cyclic rule reads the counts with the pivot at label 0."""
    n, q = g.n, g.q
    cyclic = g.kind == "cyclic"
    temp = _propagate(g, np.array([pivot]), np.array([0 if cyclic else pivot_label]))[0]
    counts = np.zeros((1, n, q), dtype=np.int64)
    for rows in _row_slices(n):
        # implied[u, v]: the vote of u for v
        counts += _tally(g.implied(rows, temp[rows])[None], q)
    return _voting_labels(
        counts.transpose(0, 2, 1), temp[None], np.array([pivot]), np.array([pivot_label]), cyclic
    )[0]


def voting_single(g, pivot, pivot_label=0):
    """Voting assignment for one fixed pivot (complete instance, n >= 3)."""
    _require_complete(g, "voting_single")
    if g.n < 3:
        raise ValueError("voting needs n >= 3 (no third vertex to vote)")
    _check_pivot(g, pivot, pivot_label)
    return _voting_final(g, pivot, pivot_label)


def voting_solve(g):
    """Voting from every pivot (every pivot label for the permutation kind),
    keeping the assignment violating fewest constraints.

    For n = 2 voting is undefined (no voters); the single-edge instance is
    solved exactly by pivot propagation instead.
    """
    _require_complete(g, "voting_solve")
    if g.n == 2:
        return _pivot_fallback(g, "voting")
    cyclic = g.kind == "cyclic"

    def select(pivots, labels, temp, counts):
        final = _voting_labels(counts, temp, pivots, labels, cyclic)
        return final, _violations(g, final, _vote_counts(g, final))

    return _all_pivots(g, "voting", select)


def randomized_voting(g, rng=None):
    """Voting from one uniformly random pivot (the permutation kind still
    tries all pivot labels for that pivot).  n = 2 falls back to pivot
    propagation, which is exact there."""
    _require_complete(g, "randomized_voting")
    return _random_pivot(g, rng, "rvoting", _voting_final)


def dense_voting(g):
    """Voting for everywhere-dense instances: best over all pivots (and all
    pivot labels for the permutation kind).

    In each round TEMP reaches the pivot and its neighbors; every
    TEMP-labeled vertex (including the pivot) votes for each of its present
    neighbors; a vertex with votes takes the plurality (ties to the smallest
    label), a vertex without votes keeps its TEMP label if any, else label 0.
    """
    if not isinstance(g, DenseInstance):
        g = DenseInstance.wrap_complete(g)
    if g.n < 3:
        raise ValueError("dense voting needs n >= 3")

    def select(pivots, labels, temp, counts):
        fallback = np.where(temp == UNLABELED, 0, temp)
        final = np.where(counts.any(axis=1), counts.argmax(axis=1), fallback)
        return final, _violations(g, final, _vote_counts(g, final))

    return _all_pivots(g, "dense-voting", select)


# Split exhaustive search: the labelings of the low block (the last vertices)
# are the columns of one block of satisfied counts, at most COL_CAP of them,
# and every transient table of a block of high-vertex labelings holds at most
# about ENTRY_CAP entries, whatever the size of the search space.
COL_CAP = 1 << 14
ENTRY_CAP = 1 << 20
# Survivor budget of the prefix search in front of it: it gives up once its
# survivors' vote table, survivors * n * q int32 entries, would pass this.
PREFIX_CAP = 1 << 20


def _digits(idx, radices):
    """Mixed-radix digits of the enumeration indices ``idx``, one column per
    radix, the last radix least significant."""
    out = np.zeros((len(idx), len(radices)), dtype=np.int64)
    rest = idx
    for j in range(len(radices) - 1, -1, -1):
        out[:, j] = rest % radices[j]
        rest = rest // radices[j]
    return out


def _forced(g, present, X, first, cols):
    """forced[i, u, c]: the label vertex cols.start + c must take to satisfy
    its constraint with vertex first + u at label X[i, u]; q where the pair
    is absent (and on the diagonal, which present never marks)."""
    r, w = X.shape
    rows = np.arange(first, first + w)
    F = g.implied(np.tile(rows, r), X.ravel(), cols).reshape(r, w, cols.stop - cols.start)
    return np.where(present[rows, cols], F, g.q)


def _satisfied(forced, X):
    """Satisfied pairs within the block of X's vertices, per row of X, from
    their forced labels (every pair is seen from both ends)."""
    return (forced == X[:, None, :]).sum(axis=(1, 2), dtype=np.int32) // 2


def _low_size(n, q, space):
    """Vertices in the low block: the last one, and more, short of all n,
    while their q^l labelings fit COL_CAP columns, their pair table fits
    ENTRY_CAP and one more vertex lowers the implied labels the search
    computes: q^l * l^2 for the low block's pair table plus (n - l) * n for
    the forced labels of each of the space / q^l rows."""
    def implied_count(l):
        return q**l * l * l + space // q**l * (n - l) * n

    l = 1
    while (l + 1 < n and q ** (l + 1) <= COL_CAP and q ** (l + 1) * (l + 1) ** 2 <= ENTRY_CAP
           and implied_count(l + 1) < implied_count(l)):
        l += 1
    return l


def _upper_bound(g):
    """Violations of some assignment, to prune the prefix search by: the
    voting value (dense voting on a dense instance), or m when n < 3."""
    if g.n < 3:
        return g.m
    return (voting_solve(g) if g._present is None else dense_voting(g)).violated


def _prefix_search(g, present, bound):
    """Level-wise search over the prefixes of brute_force's enumeration order.

    A prefix of k vertices survives while its lower bound is at most
    ``bound``: its violations, plus for each later vertex its fewest
    violations against the prefix over its q labels.  Every prefix of every
    assignment within ``bound`` survives, optima included, so the first full
    survivor with the fewest violations is the lexicographically smallest
    optimum.  ``votes[s, j, a]`` counts the prefix vertices whose constraint
    with vertex k + j holds when it takes label a; a child's bound is read
    off its parent's votes with one gather.

    Returns (assignment, violated, peak survivors), or (None, None, peak)
    once the survivors' vote table would pass PREFIX_CAP entries."""
    n, q = g.n, g.q
    # before[k, w]: present pairs between w and the vertices 0 .. k-1
    before = np.zeros((n, n), dtype=np.int64)
    np.cumsum(present[:-1], axis=0, out=before[1:])
    count = np.arange(max(n, q))
    inner = np.zeros(1, dtype=np.int64)  # violations inside each prefix
    votes = np.zeros((1, n, q), dtype=np.int32)
    trail = []  # per level: each survivor's parent survivor and its label
    peak = 1
    for k in range(n):
        labels = count[:len(_pivot_labels(g)) if k == 0 else q]
        value = inner[:, None] + before[k, k] - votes[:, 0, :len(labels)]  # (prefix, label)
        if k == n - 1:
            s, a = divmod(int(np.argmin(value)), len(labels))
            violated = int(value[s, a])
            assignment = np.empty(n, dtype=np.int64)
            assignment[k] = a
            for j in range(k - 1, -1, -1):
                parents, chosen = trail[j]
                assignment[j] = chosen[s]
                s = parents[s]
            return assignment, violated, peak
        later = count[:n - k - 1]
        # forced[a, j]: the label vertex k + 1 + j takes to agree with k at a
        forced = g.implied(np.full(len(labels), k), labels, slice(k + 1, n))
        pres = present[k, k + 1:]
        rest = votes[:, 1:]
        top = rest.max(axis=2)
        # a present later vertex gains a neighbour, and its fewest violations
        # stay put exactly where k's forced label is one of its top labels
        ties = (rest[:, later, forced] == top[:, None, :]) & pres
        fewest = (before[k + 1, k + 1:] - top).sum(axis=1)
        s, a = np.nonzero(value + fewest[:, None] - ties.sum(axis=2) <= bound)
        peak = max(peak, len(s))
        if len(s) * n * q > PREFIX_CAP:
            return None, None, peak
        trail.append((s, a))
        inner = value[s, a]
        votes = rest[s]
        # the (prefix, vertex) cells are distinct; absent pairs add 0
        votes[np.arange(len(s))[:, None], later, forced[a]] += pres


def brute_force(g, limit=BRUTE_FORCE_LIMIT):
    """Exhaustive search for an assignment with the minimum number of violated
    constraints; returns the lexicographically smallest optimal assignment.

    Vertex 0 ranges over _pivot_labels(g): a cyclic instance keeps it at label
    0 (global label shifts preserve every cyclic constraint), so the search
    space is q^(n-1); the permutation kind enumerates all q^n assignments.
    Raises ResourceLimitError if the search space exceeds ``limit``.

    The search first extends prefixes of the enumeration order one vertex at
    a time, pruned by the value of voting (see _prefix_search), while the
    survivors' (survivors, n, q) vote table stays within PREFIX_CAP entries.
    Past that budget it runs the split search below, whose answer is the
    same.

    The split search enumerates the high vertices 0..k-1 (rows) and the low
    block k..n-1 (columns).  The satisfied count of row h and column c is
    satHH[h] + satLL[c] + sum_j W[h, j, c_j], where W[h, j, a] counts the high
    vertices whose constraint forces label a on low vertex k + j: the product
    of W with the one-hot low labelings, summed by broadcasting one low vertex
    at a time into a block of rows.  When q exceeds COL_CAP the low block is
    the last vertex alone and its labels are taken COL_CAP at a time.  The
    smallest enumeration index among the maxima of all blocks is the answer,
    and the search stops after the first block of rows that satisfies every
    constraint.
    """
    n, q = g.n, g.q
    lead = len(_pivot_labels(g))
    free = n - 1 if lead == 1 else n
    space = lead * q ** (n - 1)
    if space > limit:
        raise ResourceLimitError(
            f"search space q^{free} = {space} exceeds limit {limit}"
        )
    # counts are summed in int32, and none exceeds m
    assert g.m < 2**31
    t0 = time.perf_counter()
    present = ~np.eye(n, dtype=bool) if g._present is None else g._present
    tried = n * q <= PREFIX_CAP
    bound = _upper_bound(g) if tried else None
    t1 = time.perf_counter()
    a, bad, peak = _prefix_search(g, present, bound) if tried else (None, None, 0)
    kernel = {"path": "prefix", "dtype": "int32", "survivors": peak, "bound": bound}
    build = t1 - t0
    if a is None:
        a, bad, split, split_build = _split_search(g, present, space)
        kernel.update(split)
        build += split_build
    elapsed = time.perf_counter() - t0
    return SolveReport(
        assignment=a,
        violated=bad,
        algorithm="brute",
        elapsed=elapsed,
        extra={
            "search_space": space,
            "kernel": kernel,
            "phases": {"build": build, "search": elapsed - build},
        },
    )


def _split_search(g, present, space):
    """The split search of brute_force: returns (assignment, violated, kernel
    metadata, seconds to build the low block's table)."""
    n, q = g.n, g.q
    t0 = time.perf_counter()
    radices = [len(_pivot_labels(g))] + [q] * (n - 1)
    l = _low_size(n, q, space)
    k = n - l
    # labels of each low vertex per column chunk: fewer than q only when q
    # exceeds COL_CAP, and then the low block is one vertex
    span = min(q, COL_CAP)
    if l > 1:
        low = _digits(np.arange(q**l), radices[k:])
        sat_low = _satisfied(_forced(g, present, low, k, slice(k, n)), low)
    else:
        sat_low = 0  # a single low vertex has no pairs of its own
    t1 = time.perf_counter()

    rows = space // q**l
    row_block = max(1, ENTRY_CAP // max(span**l, k * n, l * (span + 1)))
    best = (g.m + 1, 0)  # (violated, enumeration index)
    for start in range(0, rows, row_block):
        r = min(row_block, rows - start)
        high = _digits(np.arange(start, start + r), radices[:k])
        forced = _forced(g, present, high, 0, slice(0, n))
        sat_high = _satisfied(forced[:, :, :k], high)
        for c0 in range(0, q, span):
            w = min(span, q - c0)
            # w + 1 vote slots per (row, low vertex), the last one for labels
            # outside the chunk and for absent pairs
            votes = forced[:, :, k:] - c0
            votes[(votes < 0) | (votes > w)] = w
            W = _tally(votes, w + 1)[:, :, :w].astype(np.int32)
            sat = sat_high
            for j in range(l):
                sat = sat[..., None] + W[:, j].reshape((r,) + (1,) * j + (w,))
            sat = sat.reshape(r, w**l)
            sat += sat_low
            i = int(np.argmax(sat))
            h, c = divmod(i, w**l)
            best = min(best, (g.m - int(sat.flat[i]), (start + h) * q**l + c0 + c))
        if best[0] == 0:
            break
    best_bad, best_idx = best
    kernel = {"path": "split", "low_block": l, "row_block": row_block, "col_chunk": span**l}
    return _digits(np.array([best_idx]), radices)[0], best_bad, kernel, t1 - t0


@dataclass
class FlipDiagnostics:
    """White-box view of one voting round against a reference optimum.

    The analyzed pivot is the vertex with fewest optimum-violated ("red")
    incident edges, run with the optimum's own label for that pivot.  A vertex
    is "flippable" when its red degree reaches (n-1)/2 - eps*(n-1) (eps =
    optimum violations / m): only such vertices can end up with a label
    different from the optimum, and there are at most eps*nu*n of them
    (nu = 2/(1-2*eps)) whenever eps < 1/2.
    """

    pivot: int
    pivot_label: int
    pivot_red_degree: int
    opt_violated: int
    m: int
    eps: Fraction
    final: np.ndarray
    red_degrees: np.ndarray
    flippable: np.ndarray
    flipped: np.ndarray
    in_regime: bool

    @property
    def flippable_count(self):
        return int(self.flippable.sum())

    @property
    def flipped_count(self):
        return int(self.flipped.sum())

    @property
    def only_flippable_flipped(self):
        """No vertex below the flippable threshold changed label."""
        return bool(np.all(self.flippable | ~self.flipped))

    @property
    def flippable_count_bounded(self):
        """flippable_count <= eps*nu*n with nu = 2/(1-2*eps), i.e.
        f*(m - 2*OPT) <= 2*OPT*n, checked in exact integer arithmetic."""
        if not self.in_regime:
            return True
        n = len(self.final)
        return self.flippable_count * (self.m - 2 * self.opt_violated) <= 2 * self.opt_violated * n


def flip_diagnostics(g, optimum):
    """Diagnose one voting round of a complete instance against a reference
    optimum assignment (planted or brute-forced)."""
    _require_complete(g, "flip_diagnostics")
    if g.n < 3:
        raise ValueError("diagnostics need n >= 3")
    opt = _as_labels(g, optimum)
    n, m = g.n, g.m
    # a vertex's implied label for itself is its own, so the diagonal is clear
    red = (g.implied(slice(None), opt) != opt).sum(axis=1)
    pivot = int(np.argmin(red))
    label = int(opt[pivot])
    final = _voting_final(g, pivot, label)
    opt_v = int(red.sum()) // 2
    eps = Fraction(opt_v, m)
    # red >= (n-1)/2 - eps*(n-1), times 2m > 0
    flippable = 2 * m * red >= (n - 1) * (m - 2 * opt_v)
    flipped = final != opt
    in_regime = eps < Fraction(1, 2)
    return FlipDiagnostics(
        pivot=pivot,
        pivot_label=label,
        pivot_red_degree=int(red[pivot]),
        opt_violated=opt_v,
        m=m,
        eps=eps,
        final=final,
        red_degrees=red,
        flippable=flippable,
        flipped=flipped,
        in_regime=in_regime,
    )
