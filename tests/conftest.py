"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the library's vectorized kernels: they
re-derive violated counts and optima with plain Python loops so that library
bugs cannot cancel out in tests.  The per-pivot loop oracles further down run
one numpy bincount per pivot and share no code with the blocked vote-count
kernel they check, and the per-edge exhaustive search checks the
split-and-multiply brute_force and, through the signed-graph reduction,
brute_min_disagree2.  The triangle-certificate oracles keep the
smallest-vertex mask loop and the sequential shuffle-and-skip packing that
the middle-vertex masks and the round-based packing replaced.
"""

import itertools

import numpy as np
import pytest

from ugsolve.core import DenseInstance, LinEqInstance, UgInstance, violated_count


def violated_oracle(g, labels):
    """Loop-based violated-edge count."""
    base = g.base if isinstance(g, DenseInstance) else g
    labels = np.asarray(labels)
    count = 0
    eu, ev = g.edges()
    for u, v in zip(eu.tolist(), ev.tolist()):
        if base.kind == "cyclic":
            ok = (labels[u] - labels[v]) % g.q == base.offset(u, v)
        else:
            ok = base.perm(u, v)[labels[u]] == labels[v]
        if not ok:
            count += 1
    return count


def brute_oracle(g):
    """Exhaustive optimum over all q^n assignments (no symmetry shortcuts);
    returns (optimum, lexicographically smallest optimal assignment)."""
    n, q = g.n, g.q
    best_val, best = None, None
    for labels in itertools.product(range(q), repeat=n):
        val = violated_oracle(g, np.array(labels))
        if best_val is None or val < best_val:
            best_val, best = val, np.array(labels)
    return best_val, best


def signed_cost_oracle(h, clustering):
    """Loop-based two-cluster disagreement cost of a signed graph."""
    total = 0
    for u in range(h.n):
        for v in range(u + 1, h.n):
            across = clustering[u] != clustering[v]
            if h.signs[u, v] == 1:
                total += across
            else:
                total += not across
    return total


def min_disagree2_oracle(h):
    """Exhaustive minimum two-cluster disagreement over the 2^(n-1)
    clusterings with vertex 0 in cluster 0 (complementing a clustering keeps
    its cost); returns (cost, lexicographically smallest optimal clustering)."""
    return min(
        (signed_cost_oracle(h, (0,) + bits), (0,) + bits)
        for bits in itertools.product((0, 1), repeat=h.n - 1)
    )


def brute_force_loop_oracle(g):
    """Exhaustive search as one numpy pass over every labeling per edge, in
    blocks of 2^20 enumeration indices (vertex 0 at label 0 on cyclic
    instances, the last vertex least significant); returns (optimum,
    lexicographically smallest optimal assignment) and stops at the first
    block that reaches 0, like brute_force."""
    n, q = g.n, g.q
    base = g.base if isinstance(g, DenseInstance) else g
    cyclic = base.kind == "cyclic"
    free = n - 1 if cyclic else n
    space = q**free
    eu, ev = g.edges()
    if cyclic:
        off = base.offset_matrix()[eu, ev]
    else:
        pe = base.perm_tensor()[eu, ev]
    best_bad, best_idx = None, None
    for start in range(0, space, 1 << 20):
        idx = np.arange(start, min(start + (1 << 20), space), dtype=np.int64)
        labels = np.zeros((len(idx), n), dtype=np.int64)
        rest = idx
        for j in range(n - 1, n - 1 - free, -1):
            labels[:, j] = rest % q
            rest = rest // q
        bad = np.zeros(len(idx), dtype=np.int64)
        for e in range(len(eu)):
            if cyclic:
                bad += (labels[:, eu[e]] - labels[:, ev[e]]) % q != off[e]
            else:
                bad += pe[e][labels[:, eu[e]]] != labels[:, ev[e]]
        i = int(np.argmin(bad))
        if best_bad is None or bad[i] < best_bad:
            best_bad, best_idx = int(bad[i]), start + i
        if best_bad == 0:
            break
    a = np.zeros(n, dtype=np.int64)
    for j in range(n - 1, n - 1 - free, -1):
        a[j] = best_idx % q
        best_idx //= q
    return best_bad, a


# ---------------------------------------------------------------------------
# triangle-certificate loop oracles: masks anchored at the smallest vertex and
# the sequential shuffle-and-skip packing, checked against the middle-vertex
# masks and the round-based packing in test_certify.py
# ---------------------------------------------------------------------------


def inconsistent_masks_oracle(g):
    """Yield (u, B) for every anchor u, where B[i, j] (i < j) marks the
    triangle (u, u+1+i, u+1+j) as unsatisfiable with all three edges present:
    the full (n-u-1)^2 table of implied labels, cut to its upper half."""
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


def inconsistent_triangles_oracle(g):
    """Lexicographic list of the inconsistent triangles, one anchor at a time."""
    out = []
    for u, bad in inconsistent_masks_oracle(g):
        vs, ws = np.nonzero(bad)
        out.extend((u, v, w) for v, w in zip((vs + u + 1).tolist(), (ws + u + 1).tolist()))
    return out


def packing_loop_oracle(g, seed):
    """Shuffle the listed triangles with the seed's generator and keep each
    one whose three edges are still unused; the kept triangles, sorted."""
    tris = inconsistent_triangles_oracle(g)
    np.random.default_rng(seed).shuffle(tris)
    used = set()
    packed = []
    for u, v, w in tris:
        edges = {(u, v), (u, w), (v, w)}
        if used.isdisjoint(edges):
            used |= edges
            packed.append((u, v, w))
    return sorted(packed)


# ---------------------------------------------------------------------------
# per-pivot loop oracles: the all-pivot solvers as one bincount per pivot,
# checked against the blocked vote-count kernel in test_kernel.py
# ---------------------------------------------------------------------------


def _best_round(g, rounds):
    """First strict minimum over (pivot, label, assignment) rounds, as
    (violated, pivot, label, assignment)."""
    best = None
    for p, l, a in rounds:
        bad = violated_count(g, a)
        if best is None or bad < best[0]:
            best = (bad, p, l, a)
    return best


def _pivot_labels(g):
    return (0,) if g.kind == "cyclic" else range(g.q)


def voting_round_oracle(g, pivot, pivot_label):
    """One voting round on a complete instance, one bincount per pivot."""
    n, q = g.n, g.q
    rows = np.arange(n)
    if g.kind == "cyclic":
        M = g.offset_matrix()
        temp = M[:, pivot]  # pivot at label 0; the label shift happens last
        votes = (M + temp[None, :]) % q  # votes[v, u] = vote of u for v
        counts = np.bincount(
            (q * rows[:, None] + votes).ravel(), minlength=n * q
        ).reshape(n, q)
        # neither the vertex itself nor the pivot votes
        counts[rows, temp] -= 2
        final = np.argmax(counts, axis=1)  # first max = smallest offset
        largest = q - 1 - np.argmax(counts[:, ::-1], axis=1)
        neg_pref = np.where(counts[:, 0] == counts.max(axis=1), 0, largest)
        final = (np.where(rows < pivot, final, neg_pref) + pivot_label) % q
        final[pivot] = pivot_label
        return final
    temp = g.perm_tensor()[pivot, :, pivot_label]
    s = np.take_along_axis(g.perm_tensor(), temp[:, None, None], axis=2)[:, :, 0]
    votes = s.T  # votes[v, u] = vote of u for v
    counts = np.bincount(
        (q * rows[:, None] + votes).ravel(), minlength=n * q
    ).reshape(n, q)
    counts[rows, votes[rows, rows]] -= 1  # a vertex does not vote for itself
    counts[rows, votes[:, pivot]] -= 1  # the pivot does not vote
    final = np.argmax(counts, axis=1)  # first max = smallest label
    final[pivot] = pivot_label
    return final


def voting_solve_oracle(g):
    """All-pivot voting as a loop of voting rounds."""
    return _best_round(g, (
        (p, l, voting_round_oracle(g, p, l))
        for p in range(g.n) for l in _pivot_labels(g)
    ))


def dense_voting_round_oracle(g, pivot, pivot_label):
    """One dense voting round: TEMP reaches the pivot and its neighbors, every
    TEMP-labeled vertex votes for its present neighbors, a vertex without
    votes keeps its TEMP label if any, else label 0."""
    n, q = g.n, g.q
    base = g.base
    present = g.present_matrix()
    has = present[pivot].copy()
    has[pivot] = True
    if g.kind == "cyclic":
        temp = (base.offset_matrix()[:, pivot] + pivot_label) % q
        votes = (base.offset_matrix() + temp[None, :]) % q
    else:
        temp = base.perm_tensor()[pivot, :, pivot_label]
        s = np.take_along_axis(base.perm_tensor(), temp[:, None, None], axis=2)[:, :, 0]
        votes = s.T
    mask = present & has[None, :]
    rows, cols = np.nonzero(mask)
    counts = np.bincount(q * rows + votes[rows, cols], minlength=n * q).reshape(n, q)
    fallback = np.where(has, temp, 0)
    return np.where(mask.any(axis=1), np.argmax(counts, axis=1), fallback)


def dense_voting_oracle(g):
    """All-pivot dense voting as a loop of dense voting rounds."""
    if not isinstance(g, DenseInstance):
        g = DenseInstance.wrap_complete(g)
    return _best_round(g, (
        (p, l, dense_voting_round_oracle(g, p, l))
        for p in range(g.n) for l in _pivot_labels(g)
    ))


def pivot_best_oracle(g):
    """Pivot propagation from every pivot (and pivot label) in a loop."""
    if g.kind == "cyclic":
        M = g.offset_matrix()
        rounds = ((p, 0, M[:, p] % g.q) for p in range(g.n))
    else:
        P = g.perm_tensor()
        rounds = ((p, l, P[p, :, l]) for p in range(g.n) for l in range(g.q))
    return _best_round(g, rounds)


def vote_counts_oracle(g, X):
    """Raw vote counts of the candidate rows of ``X`` (UNLABELED = -1 where a
    row leaves a vertex out), one voter at a time: R[i, a, v] counts the
    labeled u with (u, v) present, or u == v on complete instances, whose
    constraint with v forces a when u takes X[i, u]."""
    dense = isinstance(g, DenseInstance)
    base = g.base if dense else g
    n, q = g.n, g.q
    R = np.zeros((len(X), q, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            if dense and not g.present(u, v):  # the diagonal is never present
                continue
            for i, c in enumerate(X[:, u]):
                if c < 0:
                    continue
                if u == v:
                    a = c
                elif base.kind == "cyclic":
                    a = (c - base.offset(u, v)) % q
                else:
                    a = base.perm(u, v)[c]
                R[i, a, v] += 1
    return R


def square_oracle(g):
    """to_square_instance with one bincount of two-step offsets per middle
    vertex w."""
    n, q = g.n, g.q
    C = g.offset_matrix()
    counts = np.zeros(n * n * q, dtype=np.int64)
    cell = q * np.arange(n * n)
    for w in range(n):
        t = (C[:, w][:, None] + C[w, :][None, :]) % q
        counts += np.bincount(cell + t.ravel(), minlength=n * n * q)
    counts = counts.reshape(n, n, q)
    iu, iv = np.triu_indices(n, k=1)
    # drop the degenerate paths w == u and w == v
    np.subtract.at(counts, (iu, iv, C[iu, iv]), 2)
    upper = np.zeros((n, n), dtype=np.int64)
    upper[iu, iv] = np.argmax(counts[iu, iv], axis=1)  # first max = smallest
    return LinEqInstance(n, q, upper)


def rand_lineq(rng, n, q):
    return LinEqInstance(n, q, np.triu(rng.integers(0, q, (n, n)), 1))


def rand_ug(rng, n, q):
    tensor = np.tile(np.arange(q), (n, n, 1))
    for u in range(n):
        for v in range(u + 1, n):
            tensor[u, v] = rng.permutation(q)
    return UgInstance(n, q, tensor)


def rand_instance(rng, n, q, kind):
    return rand_lineq(rng, n, q) if kind == "cyclic" else rand_ug(rng, n, q)


def rand_mask(rng, n, removals):
    """Symmetric present-mask with `removals` random edges dropped, keeping
    every degree >= 1."""
    mask = ~np.eye(n, dtype=bool)
    eu, ev = np.triu_indices(n, k=1)
    for i in rng.permutation(len(eu))[:removals]:
        u, v = eu[i], ev[i]
        trial = mask.copy()
        trial[u, v] = trial[v, u] = False
        if trial.sum(axis=1).min() >= 1:
            mask = trial
    return mask


def rand_dense(rng, n, q, kind, removals):
    return DenseInstance(rand_instance(rng, n, q, kind), rand_mask(rng, n, removals))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
