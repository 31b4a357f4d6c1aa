"""Output checks and answer digests.

Every recount here is written against the instance's raw constraint arrays
with numpy and shares no code with ugsolve's own counting, so a kernel that
miscounts cannot also fool its check.  Each ``check_*`` returns a list of
problems; an empty list means the answer passed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _base(g):
    return getattr(g, "base", g)


def _present(g):
    """Present-pair mask of a dense instance, None for a complete one."""
    return g.present_matrix() if hasattr(g, "present_matrix") else None


def recount(g, labels):
    """Violated constraints of ``labels``, from the full n x n pair matrix."""
    a = np.asarray(labels).astype(np.int64)
    base = _base(g)
    n = g.n
    if base.kind == "cyclic":
        bad = (a[:, None] - a[None, :]) % g.q != base.offset_matrix()
    else:
        rows = np.arange(n)
        # image of u's label under perm(u, v) must equal v's label
        bad = base.perm_tensor()[rows[:, None], rows[None, :], a[:, None]] != a[None, :]
    bad = np.triu(bad, 1)
    mask = _present(g)
    if mask is not None:
        bad &= mask
    return int(np.count_nonzero(bad))


def check_labels(g, labels):
    a = np.asarray(labels)
    if a.shape != (g.n,):
        return [f"assignment shape {a.shape}, expected ({g.n},)"]
    if not np.issubdtype(a.dtype, np.integer):
        return [f"assignment dtype {a.dtype} is not integer"]
    if a.size and (a.min() < 0 or a.max() >= g.q):
        return [f"labels outside [0, {g.q})"]
    return []


def check_report(g, rep):
    """A SolveReport's labels are valid and its ``violated`` is exact."""
    problems = check_labels(g, rep.assignment)
    if problems:
        return problems
    true = recount(g, rep.assignment)
    if rep.violated != true:
        problems.append(f"{rep.algorithm}: reported violated={rep.violated}, recount={true}")
    return problems


def check_ptas(g, rep):
    """ptas_solve returns min(voting, greedy) and reports it exactly."""
    problems = check_report(g, rep)
    best = min(rep.extra["voting_val"], rep.extra["greedy_val"])
    if rep.violated != best:
        problems.append(f"ptas val {rep.violated} != min(voting, greedy) = {best}")
    return problems


def check_opt(g, rep, planted_count):
    """An exhaustive-search answer: exact, and at most the planted corruption
    count, since the planted assignment violates only the corrupted pairs."""
    problems = check_report(g, rep)
    if rep.violated > planted_count:
        problems.append(f"OPT {rep.violated} above planted {planted_count}")
    return problems


def check_same_instance(got, want):
    """``got`` holds exactly the live constraints of ``want``."""
    if (type(got) is not type(want) or got.n != want.n or got.q != want.q
            or _base(got).kind != _base(want).kind):
        return [f"parsed {got!r}, expected {want!r}"]
    mask, want_mask = _present(got), _present(want)
    if want_mask is not None and not np.array_equal(mask, want_mask):
        return ["parsed edge set differs"]
    live = np.triu(np.ones((want.n, want.n), dtype=bool), 1)
    if want_mask is not None:
        live &= want_mask
    if _base(want).kind == "cyclic":
        same = np.array_equal(_base(got).offset_matrix()[live], _base(want).offset_matrix()[live])
    else:
        same = np.array_equal(_base(got).perm_tensor()[live], _base(want).perm_tensor()[live])
    return [] if same else ["parsed constraints differ"]


def inconsistent(g, tris):
    """Boolean per triangle (u, v, w): its three constraints admit no labeling."""
    t = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    u, v, w = t[:, 0], t[:, 1], t[:, 2]
    base = _base(g)
    if base.kind == "cyclic":
        C = base.offset_matrix()
        return (C[u, v] + C[v, w] + C[w, u]) % g.q != 0
    P = base.perm_tensor()
    # walk every start label u -> v -> w -> u; consistent iff one returns home
    walk = np.take_along_axis(P[v, w], P[u, v], axis=1)
    walk = np.take_along_axis(P[w, u], walk, axis=1)
    return ~(walk == np.arange(g.q)[None, :]).any(axis=1)


def count_inconsistent(g):
    """Inconsistent triangles of a complete instance, one anchor u at a time."""
    n = g.n
    total = 0
    for u in range(n - 2):
        v, w = np.triu_indices(n - u - 1, 1)
        tris = np.stack([np.full_like(v, u), v + u + 1, w + u + 1], axis=1)
        total += int(np.count_nonzero(inconsistent(g, tris)))
    return total


def square_offsets(g):
    """Squared offsets of a complete cyclic instance: for each pair the most
    common two-step offset C[u, w] + C[w, v] over third vertices w, ties to
    the smallest offset.  Counted as q^2 one-hot matrix products."""
    C, n, q = g.offset_matrix(), g.n, g.q
    onehot = [(C == a).astype(np.float64) for a in range(q)]
    counts = np.zeros((q, n, n))
    for a in range(q):
        for b in range(q):
            counts[(a + b) % q] += onehot[a] @ onehot[b]
    # w = u and w = v are not third vertices; both paths read offset(u, v)
    rows, cols = np.indices((n, n))
    counts[C, rows, cols] -= 2
    return counts.argmax(axis=0)


def check_square(sq, g):
    if (sq.kind, sq.n, sq.q) != (g.kind, g.n, g.q):
        return [f"square is {sq!r}, expected the shape of {g!r}"]
    upper = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    if not np.array_equal(sq.offset_matrix()[upper], square_offsets(g)[upper]):
        return ["squared offsets differ from the two-step mode"]
    return []


def check_packing(g, cert, planted_count, inconsistent_count=None):
    """Packed triangles are valid, edge-disjoint and inconsistent, and their
    number is at most the planted corruption count (every packed triangle
    holds a distinct corrupted edge) and the inconsistent-triangle count."""
    tris = [tuple(int(x) for x in t) for t in cert.triangles]
    problems = []
    if cert.lower_bound != len(tris):
        problems.append(f"lower_bound {cert.lower_bound} != {len(tris)} triangles")
    if any(len(set(t)) != 3 or min(t) < 0 or max(t) >= g.n for t in tris):
        return problems + ["packed triangle with repeated or out-of-range vertices"]
    edges = [tuple(sorted(e)) for u, v, w in tris for e in ((u, v), (v, w), (u, w))]
    if len(set(edges)) != len(edges):
        problems.append("packed triangles share an edge")
    mask = _present(g)
    if mask is not None and tris and not all(mask[a, b] for a, b in edges):
        problems.append("packed triangle uses an absent edge")
    if tris and not inconsistent(g, tris).all():
        problems.append("packed triangle is consistent")
    if len(tris) > planted_count:
        problems.append(f"packing LB {len(tris)} exceeds planted corruptions {planted_count}")
    if inconsistent_count is not None and len(tris) > inconsistent_count:
        problems.append(f"packing LB {len(tris)} exceeds {inconsistent_count} inconsistent triangles")
    return problems


def check_rows(rows, expected):
    """run_bench rows: the expected number, none failed, every val at least
    the row's OPT (or lower bound), every exact OPT or packing lower bound
    at most the planted corruption count."""
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for r in rows:
        tag = f"{r.algorithm} n={r.n} q={r.q} seed={r.seed}"
        if r.error or r.val is None or r.opt_or_lb is None:
            problems.append(f"{tag}: error row {r.error!r}")
        elif r.val < r.opt_or_lb:
            problems.append(f"{tag}: val {r.val} below OPT/LB {r.opt_or_lb}")
        elif r.corruptions is not None and r.opt_or_lb > r.corruptions:
            what = "OPT" if r.opt_exact else "packing LB"
            problems.append(f"{tag}: {what} {r.opt_or_lb} above planted {r.corruptions}")
    return problems


def check_assignment_text(text, labels):
    """serialize_assignment output, read back line by line."""
    lines = text.splitlines()
    want = ["ugassign 1"] + [f"{v} {int(x)}" for v, x in enumerate(labels)]
    return [] if lines == want else ["assignment text does not list the labels"]


def digest(*parts):
    """sha256 over a sequence of arrays and plain values."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=np.int64).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def digest_report(rep):
    return digest(np.asarray(rep.assignment), int(rep.violated), rep.pivot, rep.pivot_label)


def digest_instance(g):
    base = _base(g)
    arr = base.offset_matrix() if base.kind == "cyclic" else base.perm_tensor()
    mask = _present(g)
    return digest(base.kind, g.n, g.q, arr, np.zeros(0) if mask is None else mask)


def digest_rows(rows):
    """Every CSV field of every row except the timing ``elapsed_ms``."""
    return digest([
        (r.algorithm, r.n, r.q, format(r.delta, "g"), r.seed, r.corruptions,
         r.opt_or_lb, r.opt_exact, r.val,
         None if r.ratio is None else format(r.ratio, ".6g"), r.error)
        for r in rows
    ])
