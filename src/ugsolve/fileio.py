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

Parsing and serialization round-trip exactly.  An instance file whose header
lines are plain (no comment, no blank line) and whose body holds only ASCII
digits, spaces and newlines is read by whole-array numpy passes; every other
one is read token by token, and both paths accept, reject and return the same.
Assignment files are read token by token: their n lines cost about 1% of
the n(n-1)/2-line instance parse that `verify` does first.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import DenseInstance, LinEqInstance, UgInstance, _integers
from .errors import ParseError, ResourceLimitError

__all__ = [
    "serialize_instance",
    "parse_instance",
    "parse_instance_info",
    "write_instance",
    "read_instance",
    "read_instance_info",
    "serialize_assignment",
    "parse_assignment",
    "write_assignment",
    "read_assignment",
]

INSTANCE_MAGIC = "uginst"
ASSIGNMENT_MAGIC = "ugassign"
FORMAT_VERSION = "1"

# bytes of a body the fast path reads; a token of at most 18 digits is below
# 10**18 < 2**63, so np.fromstring can neither overflow nor saturate on it
_FAST_BYTES = b"0123456789 \n"
_FAST_DIGITS = 18
# rows per '%' pass when writing edge lines: bounds the transient Python ints
_FORMAT_BLOCK = 1 << 14
_KINDS = {"cyclic": LinEqInstance, "perm": UgInstance}


def serialize_instance(g):
    """Instance to text; inverse of parse_instance."""
    lines = [
        f"{INSTANCE_MAGIC} {FORMAT_VERSION}",
        f"mode {g.kind}",
        f"q {g.q}",
        f"n {g.n}",
        f"density {'full' if g._present is None else 'dense'}",
    ]
    eu, ev = g.edges()
    values = g._table[eu, ev].reshape(g.m, -1)  # one offset, or q perm entries
    return "\n".join(lines) + "\n" + _format_rows(np.column_stack((eu, ev, values)))


def _format_rows(table):
    """One text line per row of a 2-D integer table, one '%' per block of
    _FORMAT_BLOCK rows."""
    line = " ".join(["%d"] * table.shape[1]) + "\n"
    blocks = (table[i:i + _FORMAT_BLOCK] for i in range(0, len(table), _FORMAT_BLOCK))
    return "".join((line * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def _tokens(text):
    """Yield (lineno, token_list) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _read_header(rows, key, what=None):
    """(lineno, value) of the next row of ``rows``, which must read ``key
    value``; at the end of the file, a ParseError expecting ``what``."""
    try:
        lineno, tok = next(rows)
    except StopIteration:
        what = what or f"{key} header"
        raise ParseError(f"unexpected end of file, expected {what}") from None
    if len(tok) != 2 or tok[0] != key:
        raise ParseError(f"expected '{key} ...' header line, got {' '.join(tok)!r}",
                         lineno=lineno)
    return lineno, tok[1]


def _read_magic(rows, magic):
    """Read the ``magic version`` line that opens every file."""
    lineno, version = _read_header(rows, magic, "magic header")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}", lineno=lineno)


def _parse_int(s, lineno, what):
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {s!r}", lineno=lineno) from None


def _plain_split(text, head_lines):
    """(head, body) split after the first head_lines newlines when _tokens
    reads those lines as rows 1..head_lines: no comment, no blank line and no
    line break but the newline.  None otherwise."""
    end = -1
    for _ in range(head_lines):
        end = text.find("\n", end + 1)
        if end < 0:
            return None
    head = text[:end]
    lines = head.splitlines()
    if len(lines) != head_lines or "#" in head or not all(map(str.strip, lines)):
        return None
    return head, text[end + 1:]


def _digit_table(body, width):
    """The body as an int64 (lines, width) table when it holds only ASCII
    digits, spaces and newlines, no token longer than _FAST_DIGITS and
    exactly ``width`` tokens on every line; None otherwise."""
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.translate(None, _FAST_BYTES) or not _rows_of(np.frombuffer(raw, np.uint8), width):
        return None
    return np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, width)


def _rows_of(byte, width):
    """Whether a body of digits, spaces and newlines has at least one token,
    none longer than _FAST_DIGITS and exactly ``width`` on every line.  Holds
    per-token positions only, no per-byte integers."""
    digit = np.zeros(len(byte) + 2, dtype=bool)  # padded: no token at either end
    digit[1:-1] = byte > ord(" ")
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    if len(starts) == 0:
        return False
    lengths = np.flatnonzero(digit[:-1] > digit[1:])
    del digit  # free each array once done: the body can be megabytes
    lengths -= starts
    if int(lengths.max()) > _FAST_DIGITS:
        return False
    del lengths
    # line k ends at newline k, or at the end of the body for a last line
    # without one; it holds exactly tokens k*width .. k*width + width - 1 iff
    # the last of them starts before its end and the next one after it
    ends = np.flatnonzero(byte == ord("\n"))
    if len(ends) == 0 or starts[-1] > ends[-1]:
        ends = np.append(ends, len(byte))
    return (len(starts) == width * len(ends)
            and bool((starts[width - 1::width] < ends).all())
            and bool((starts[width::width] > ends[:-1]).all()))


def _fill_edges(table, n, q, values, present):
    """Write valid edge rows ``u v value...`` into ``values`` (cyclic:
    offsets (n, n); perm: tensor (n, n, q)) and ``present``.  Returns False,
    with both arrays untouched, if any row is not a valid edge line."""
    u, v, vals = table[:, 0], table[:, 1], table[:, 2:]
    # the table holds no sign, so nothing in it is negative
    if not ((u < v) & (v < n)).all() or int(vals.max()) >= q:
        return False
    if values.ndim == 3 and not (np.sort(vals, axis=1) == np.arange(q)).all():
        return False
    present[u, v] = True
    if np.count_nonzero(present) != len(table):  # a repeated (u, v)
        present[u, v] = False
        return False
    present[v, u] = True
    values[u, v] = vals[:, 0] if values.ndim == 2 else vals
    return True


def parse_instance(text):
    """Text to LinEqInstance / UgInstance (density full) or DenseInstance.

    Raises ParseError on malformed text (q must fit a 64-bit label), and
    ResourceLimitError when the header's n and q ask for arrays that cannot
    be allocated."""
    return parse_instance_info(text)[0]


def parse_instance_info(text):
    """parse_instance, and which path read the edge lines: "fast" (whole-array
    numpy passes) or "reference" (token by token).  The fast path takes only
    files whose edge lines it can check exactly; it hands any other file, and
    any failing check, to the reference path, which raises the errors."""
    split = _plain_split(text, 5)
    rows = _tokens(text if split is None else split[0])
    _read_magic(rows, INSTANCE_MAGIC)
    lineno, mode = _read_header(rows, "mode")
    if mode not in _KINDS:
        raise ParseError(f"mode must be 'cyclic' or 'perm', got {mode!r}", lineno=lineno)
    lineno, q = _read_header(rows, "q")
    q = _parse_int(q, lineno, "q")
    if q < 1:
        raise ParseError("q must be >= 1", lineno=lineno)
    if q >= 2**63:
        raise ParseError("q must be below 2**63: labels are 64-bit integers",
                         lineno=lineno)
    lineno, n = _read_header(rows, "n")
    n = _parse_int(n, lineno, "n")
    if n < 2:
        raise ParseError("n must be >= 2", lineno=lineno)
    lineno, density = _read_header(rows, "density")
    if density not in ("full", "dense"):
        raise ParseError(f"density must be 'full' or 'dense', got {density!r}",
                         lineno=lineno)

    try:
        values = _KINDS[mode]._blank(n, q)
        present = np.zeros((n, n), dtype=bool)
    except (MemoryError, ValueError, OverflowError):
        # numpy refuses sizes beyond its index range with ValueError or
        # OverflowError instead of trying to allocate them
        raise ResourceLimitError(
            f"an instance with n={n}, q={q} does not fit in memory"
        ) from None
    want = 2 + (q if values.ndim == 3 else 1)
    table = None if split is None else _digit_table(split[1], want)
    parser = "reference"
    if table is not None and _fill_edges(table, n, q, values, present):
        parser, rows = "fast", ()
    elif split is not None:  # the header came from the head alone
        rows = itertools.islice(_tokens(text), 5, None)
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
        if values.ndim == 3 and sorted(vals) != list(range(q)):
            raise ParseError("permutation line is not a bijection", lineno=lineno)
        values[u, v] = vals if values.ndim == 3 else vals[0]

    m_full = n * (n - 1) // 2
    count = np.count_nonzero(present) // 2  # symmetric, with a clear diagonal
    if density == "full" and count != m_full:
        raise ParseError(f"density full requires {m_full} edge lines, found {count}")
    try:
        base = _KINDS[mode](n, q, values)
        return (base if density == "full" else DenseInstance(base, present)), parser
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_assignment(labels):
    """Assignment to text; inverse of parse_assignment, so labels are
    nonnegative integers."""
    a = _integers(labels, "assignment labels")
    if len(a) and a.min() < 0:
        raise ValueError("labels must be nonnegative")
    pairs = [0] * (2 * len(a))
    pairs[::2] = range(len(a))
    pairs[1::2] = a.tolist()
    return f"{ASSIGNMENT_MAGIC} {FORMAT_VERSION}\n" + ("%d %d\n" * len(a)) % tuple(pairs)


def parse_assignment(text):
    """Text to a label vector; every vertex 0..n-1 must appear exactly once."""
    rows = _tokens(text)
    _read_magic(rows, ASSIGNMENT_MAGIC)
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
        if lab >= 2**63:
            raise ParseError("labels must be below 2**63: labels are 64-bit integers",
                             lineno=lineno)
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
    return read_instance_info(path)[0]


def read_instance_info(path):
    """read_instance, and the parser path that ran; see parse_instance_info."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_info(fh.read())


def write_assignment(labels, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_assignment(labels))


def read_assignment(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_assignment(fh.read())
