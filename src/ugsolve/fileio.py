"""Line-based text formats for instances and assignments.

Instance file (UTF-8, '#' starts a comment, tokens whitespace-separated)::

    uginst 1
    mode cyclic        (or: mode perm)
    q 3
    n 5
    density full       (or: density dense)
    0 1 2              (cyclic: u v c, meaning x_u - x_v = c mod q)
    0 2 1 2 0          (perm:   u v p_0 ... p_{q-1}, x_v = p_{x_u})
    ...

Edges are listed with u < v; ``density full`` requires exactly n(n-1)/2 edge
lines, ``density dense`` lists the present edges only.  Assignment file::

    ugassign 1
    0 2
    1 0
    ...

Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .core import DenseInstance, LinEqInstance, UgInstance
from .errors import ParseError, ResourceLimitError

__all__ = [
    "serialize_instance",
    "parse_instance",
    "write_instance",
    "read_instance",
    "serialize_assignment",
    "parse_assignment",
    "write_assignment",
    "read_assignment",
]

INSTANCE_MAGIC = "uginst"
ASSIGNMENT_MAGIC = "ugassign"
FORMAT_VERSION = "1"


def serialize_instance(g):
    """Instance to text; inverse of parse_instance."""
    dense = isinstance(g, DenseInstance)
    base = g.base if dense else g
    lines = [
        f"{INSTANCE_MAGIC} {FORMAT_VERSION}",
        f"mode {base.kind}",
        f"q {g.q}",
        f"n {g.n}",
        f"density {'dense' if dense else 'full'}",
    ]
    eu, ev = g.edges()
    if base.kind == "cyclic":
        off = base.offset_matrix()
        for u, v in zip(eu.tolist(), ev.tolist()):
            lines.append(f"{u} {v} {off[u, v]}")
    else:
        tensor = base.perm_tensor()
        for u, v in zip(eu.tolist(), ev.tolist()):
            lines.append(f"{u} {v} " + " ".join(map(str, tensor[u, v].tolist())))
    return "\n".join(lines) + "\n"


def _tokens(text):
    """Yield (lineno, token_list) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _expect_header(tok, lineno, key, n_values=1):
    if len(tok) != 1 + n_values or tok[0] != key:
        raise ParseError(f"expected '{key} ...' header line, got {' '.join(tok)!r}",
                         lineno=lineno)
    return tok[1:]


def _parse_int(s, lineno, what):
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {s!r}", lineno=lineno) from None


def parse_instance(text):
    """Text to LinEqInstance / UgInstance (density full) or DenseInstance.

    Raises ParseError on malformed text (q must fit a 64-bit label), and
    ResourceLimitError when the header's n and q ask for arrays that cannot
    be allocated."""
    rows = _tokens(text)

    def next_line(what):
        try:
            return next(rows)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected {what}") from None

    lineno, tok = next_line("magic header")
    magic = _expect_header(tok, lineno, INSTANCE_MAGIC)
    if magic[0] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {magic[0]!r}", lineno=lineno)
    lineno, tok = next_line("mode header")
    (mode,) = _expect_header(tok, lineno, "mode")
    if mode not in ("cyclic", "perm"):
        raise ParseError(f"mode must be 'cyclic' or 'perm', got {mode!r}", lineno=lineno)
    lineno, tok = next_line("q header")
    q = _parse_int(_expect_header(tok, lineno, "q")[0], lineno, "q")
    if q < 1:
        raise ParseError("q must be >= 1", lineno=lineno)
    if q >= 2**63:
        raise ParseError("q must be below 2**63: labels are 64-bit integers",
                         lineno=lineno)
    lineno, tok = next_line("n header")
    n = _parse_int(_expect_header(tok, lineno, "n")[0], lineno, "n")
    if n < 2:
        raise ParseError("n must be >= 2", lineno=lineno)
    lineno, tok = next_line("density header")
    (density,) = _expect_header(tok, lineno, "density")
    if density not in ("full", "dense"):
        raise ParseError(f"density must be 'full' or 'dense', got {density!r}",
                         lineno=lineno)

    try:
        if mode == "cyclic":
            offsets = np.zeros((n, n), dtype=np.int64)
        else:
            tensor = np.tile(np.arange(q), (n, n, 1))
        present = np.zeros((n, n), dtype=bool)
    except (MemoryError, ValueError, OverflowError):
        # numpy refuses sizes beyond its index range with ValueError or
        # OverflowError instead of trying to allocate them
        raise ResourceLimitError(
            f"an instance with n={n}, q={q} does not fit in memory"
        ) from None
    want = 2 + (1 if mode == "cyclic" else q)
    for lineno, tok in rows:
        if len(tok) != want:
            raise ParseError(f"edge line needs {want} tokens, got {len(tok)}",
                             lineno=lineno)
        u = _parse_int(tok[0], lineno, "u")
        v = _parse_int(tok[1], lineno, "v")
        if not (0 <= u < v < n):
            raise ParseError(f"edge must satisfy 0 <= u < v < n, got ({u}, {v})",
                             lineno=lineno)
        if present[u, v]:
            raise ParseError(f"duplicate edge ({u}, {v})", lineno=lineno)
        present[u, v] = present[v, u] = True
        vals = [_parse_int(t, lineno, "constraint value") for t in tok[2:]]
        if any(not 0 <= x < q for x in vals):
            raise ParseError(f"constraint values must lie in [0, {q})", lineno=lineno)
        if mode == "cyclic":
            offsets[u, v] = vals[0]
        else:
            if sorted(vals) != list(range(q)):
                raise ParseError("permutation line is not a bijection", lineno=lineno)
            tensor[u, v] = vals

    m_full = n * (n - 1) // 2
    count = int(np.count_nonzero(np.triu(present, 1)))
    if density == "full" and count != m_full:
        raise ParseError(f"density full requires {m_full} edge lines, found {count}")
    try:
        base = LinEqInstance(n, q, offsets) if mode == "cyclic" else UgInstance(n, q, tensor)
        return base if density == "full" else DenseInstance(base, present)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_assignment(labels):
    """Assignment to text; inverse of parse_assignment."""
    a = np.asarray(labels)
    lines = [f"{ASSIGNMENT_MAGIC} {FORMAT_VERSION}"]
    lines.extend(f"{v} {int(a[v])}" for v in range(len(a)))
    return "\n".join(lines) + "\n"


def parse_assignment(text):
    """Text to a label vector; every vertex 0..n-1 must appear exactly once."""
    rows = _tokens(text)
    try:
        lineno, tok = next(rows)
    except StopIteration:
        raise ParseError("unexpected end of file, expected magic header") from None
    magic = _expect_header(tok, lineno, ASSIGNMENT_MAGIC)
    if magic[0] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {magic[0]!r}", lineno=lineno)
    seen = {}
    for lineno, tok in rows:
        if len(tok) != 2:
            raise ParseError(f"assignment line needs 2 tokens, got {len(tok)}",
                             lineno=lineno)
        v = _parse_int(tok[0], lineno, "vertex")
        lab = _parse_int(tok[1], lineno, "label")
        if v in seen:
            raise ParseError(f"duplicate vertex {v}", lineno=lineno)
        if lab < 0:
            raise ParseError("labels must be nonnegative", lineno=lineno)
        seen[v] = lab
    if not seen:
        raise ParseError("assignment lists no vertices")
    n = len(seen)
    if sorted(seen) != list(range(n)):
        missing = min(set(range(n)) - set(seen))
        raise ParseError(f"vertices must cover 0..{n - 1}; missing {missing}")
    return np.array([seen[v] for v in range(n)], dtype=np.int64)


def write_instance(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(g))


def read_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def write_assignment(labels, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_assignment(labels))


def read_assignment(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_assignment(fh.read())
