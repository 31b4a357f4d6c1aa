import contextlib
import io
import itertools
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import rand_dense, rand_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsolve import fileio
from ugsolve.cli import main
from ugsolve.core import DenseInstance, LinEqInstance, UgInstance
from ugsolve.errors import ParseError, ResourceLimitError
from ugsolve.fileio import (
    _FORMAT_BLOCK,
    parse_assignment,
    parse_instance,
    parse_instance_info,
    read_assignment,
    read_instance,
    serialize_assignment,
    serialize_instance,
    write_assignment,
    write_instance,
)
from ugsolve.generators import planted

KINDS = ["cyclic", "perm"]


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_complete_round_trip_is_exact_and_stable(self, rng, kind):
        for _ in range(8):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, 6))
            g = rand_instance(rng, n, q, kind)
            text = serialize_instance(g)
            back = parse_instance(text)
            assert back == g
            assert serialize_instance(back) == text  # byte-identical second pass

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_round_trip(self, rng, kind):
        for _ in range(6):
            n = int(rng.integers(4, 9))
            d = rand_dense(rng, n, 3, kind, removals=n // 2)
            text = serialize_instance(d)
            back = parse_instance(text)
            assert isinstance(back, DenseInstance)
            assert back == d
            assert serialize_instance(back) == text

    @pytest.mark.parametrize("kind", KINDS)
    def test_edge_lines_spanning_format_blocks_match_one_shot(self, kind):
        g = planted(320, 3, 50, kind=kind, rng=1).instance
        assert g.m > 3 * _FORMAT_BLOCK
        eu, ev = g.edges()
        values = g.offset_matrix()[eu, ev][:, None] if kind == "cyclic" else g.perm_tensor()[eu, ev]
        table = np.column_stack((eu, ev, values))
        line = " ".join(["%d"] * table.shape[1]) + "\n"
        one_shot = (line * len(table)) % tuple(table.ravel().tolist())
        assert serialize_instance(g).split("density full\n")[1] == one_shot

    def test_full_density_types(self, rng):
        g = rand_instance(rng, 5, 3, "cyclic")
        assert isinstance(parse_instance(serialize_instance(g)), LinEqInstance)
        u = rand_instance(rng, 5, 3, "perm")
        assert isinstance(parse_instance(serialize_instance(u)), UgInstance)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# generated file\n"
            "uginst 1\n\n"
            "mode cyclic  # bijections not needed here\n"
            "q 2\n"
            "n 3\n"
            "density full\n"
            "0 1 1\n"
            "  0 2 0\n"
            "1 2 1\n"
        )
        g = parse_instance(text)
        assert g.offset(0, 1) == 1 and g.offset(0, 2) == 0 and g.offset(1, 2) == 1

    def test_file_round_trip(self, rng, tmp_path):
        g = rand_instance(rng, 6, 4, "perm")
        path = tmp_path / "inst.txt"
        write_instance(g, path)
        assert read_instance(path) == g


class TestInstanceParseErrors:
    def head(self, density="full", mode="cyclic", q=2, n=3):
        return f"uginst 1\nmode {mode}\nq {q}\nn {n}\ndensity {density}\n"

    def test_bad_magic_and_version(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("nope 1\n")
        with pytest.raises(ParseError, match="version"):
            parse_instance("uginst 2\nmode cyclic\nq 2\nn 3\ndensity full\n")

    def test_truncated_header(self):
        with pytest.raises(ParseError, match="end of file"):
            parse_instance("uginst 1\nmode cyclic\n")

    def test_bad_mode_q_n_density(self):
        with pytest.raises(ParseError, match="mode"):
            parse_instance("uginst 1\nmode funky\nq 2\nn 3\ndensity full\n")
        with pytest.raises(ParseError, match="q"):
            parse_instance("uginst 1\nmode cyclic\nq 0\nn 3\ndensity full\n")
        with pytest.raises(ParseError, match="n"):
            parse_instance("uginst 1\nmode cyclic\nq 2\nn 1\ndensity full\n")
        with pytest.raises(ParseError, match="density"):
            parse_instance("uginst 1\nmode cyclic\nq 2\nn 3\ndensity sparse\n")

    def test_edge_line_errors_carry_line_numbers(self):
        bad_tokens = self.head() + "0 1 1\n0 2\n"
        with pytest.raises(ParseError) as info:
            parse_instance(bad_tokens)
        assert info.value.lineno == 7

        bad_range = self.head() + "0 1 5\n"
        with pytest.raises(ParseError, match=r"\[0, 2\)"):
            parse_instance(bad_range)

        bad_order = self.head() + "1 0 1\n"
        with pytest.raises(ParseError, match="u < v"):
            parse_instance(bad_order)

        dup = self.head() + "0 1 1\n0 1 0\n0 2 0\n1 2 0\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance(dup)

    def test_non_bijection_rejected(self):
        text = self.head(mode="perm") + "0 1 0 0\n0 2 0 1\n1 2 0 1\n"
        with pytest.raises(ParseError, match="bijection"):
            parse_instance(text)

    def test_full_requires_every_edge(self):
        with pytest.raises(ParseError, match="3 edge lines"):
            parse_instance(self.head() + "0 1 1\n")

    def test_dense_degree_zero_rejected(self):
        # Vertex 2 has no present edge, which the instance type refuses.
        text = self.head(density="dense") + "0 1 1\n"
        with pytest.raises(ParseError, match="degree"):
            parse_instance(text)

    @pytest.mark.parametrize("mode,edge", [("cyclic", "0 1 2"), ("perm", "0 1 2 0 1")])
    def test_absurd_size_is_a_resource_limit(self, mode, edge):
        # allocation of the n x n (perm: n x n x q) arrays fails at once
        text = self.head(mode=mode, q=3, n=10**9) + edge + "\n"
        with pytest.raises(ResourceLimitError, match="n=1000000000, q=3"):
            parse_instance(text)

    @pytest.mark.parametrize("mode,q,n", [("cyclic", 3, 10**30), ("cyclic", 3, 2**62),
                                          ("perm", 3, 10**30)])
    def test_sizes_beyond_numpy_are_a_resource_limit(self, mode, q, n):
        # numpy refuses these shapes with ValueError or OverflowError
        with pytest.raises(ResourceLimitError, match=f"n={n}, q={q}"):
            parse_instance(self.head(mode=mode, q=q, n=n) + "0 1 0\n")

    def test_q_beyond_64_bits(self):
        edges = "0 1 2\n0 2 1\n1 2 5\n"
        with pytest.raises(ParseError, match="2\\*\\*63"):
            parse_instance(self.head(q=2**63, n=3) + edges)
        g = parse_instance(self.head(q=2**62, n=3) + edges)
        assert g.offset(1, 2) == 5

    def test_non_integer_tokens(self):
        with pytest.raises(ParseError, match="integer"):
            parse_instance(self.head() + "0 one 1\n")


class TestAssignmentRoundTrip:
    def test_round_trip(self, rng):
        labels = rng.integers(0, 7, 9)
        text = serialize_assignment(labels)
        back = parse_assignment(text)
        assert np.array_equal(back, labels)
        assert serialize_assignment(back) == text

    @pytest.mark.parametrize("labels, text", [
        ([0.6, 1.9], "assignment labels must be integers"),
        ([-1, 0], "labels must be nonnegative"),
        (np.array([2**63, 0], dtype=np.uint64), "labels must be below 2**63"),
    ])
    def test_unreadable_labels_are_not_written(self, labels, text):
        with pytest.raises(ValueError) as exc:
            serialize_assignment(labels)
        assert str(exc.value) == text

    def test_order_insensitive(self):
        text = "ugassign 1\n2 5\n0 1\n1 0\n"
        assert np.array_equal(parse_assignment(text), [1, 0, 5])

    def test_largest_label_round_trips(self):
        labels = np.array([2**63 - 1, 0], dtype=np.uint64)
        back = parse_assignment(serialize_assignment(labels))
        assert back.tolist() == [2**63 - 1, 0]

    def test_shuffled_order_round_trip(self, rng):
        labels = rng.integers(0, 2**63 - 1, 5000, dtype=np.int64, endpoint=True)
        lines = serialize_assignment(labels).splitlines()
        body = [lines[1:][i] for i in rng.permutation(5000)]
        back = parse_assignment("\n".join([lines[0], *body]) + "\n")
        assert back.dtype == np.int64 and np.array_equal(back, labels)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "assign.txt"
        write_assignment([2, 0, 1], path)
        assert np.array_equal(read_assignment(path), [2, 0, 1])


class TestAssignmentParseErrors:
    def test_bad_magic(self):
        with pytest.raises(ParseError, match="header"):
            parse_assignment("uginst 1\n0 0\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no vertices"):
            parse_assignment("ugassign 1\n")
        with pytest.raises(ParseError, match="end of file"):
            parse_assignment("")

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_assignment("ugassign 1\n0 1\n0 2\n")

    def test_missing_vertex(self):
        with pytest.raises(ParseError, match="missing 1"):
            parse_assignment("ugassign 1\n0 1\n2 0\n")

    def test_negative_label(self):
        with pytest.raises(ParseError, match="nonnegative"):
            parse_assignment("ugassign 1\n0 -1\n")

    def test_token_count(self):
        with pytest.raises(ParseError, match="2 tokens"):
            parse_assignment("ugassign 1\n0 1 2\n")

    def test_label_beyond_64_bits(self):
        with pytest.raises(ParseError, match=r"below 2\*\*63") as info:
            parse_assignment("ugassign 1\n0 99999999999999999999999\n1 0\n")
        assert info.value.lineno == 2
        top = 2**63 - 1
        assert parse_assignment(f"ugassign 1\n0 {top}\n1 0\n").tolist() == [top, 0]


# ---------------------------------------------------------------------------
# the whole-array path against the per-token reference path: same instance or
# same error (type, message, line number) on every body
# ---------------------------------------------------------------------------

def _outcome(parse, text):
    """(parse(text), None), or (None, the error's type, message and line)."""
    try:
        return parse(text), None
    except (ParseError, ResourceLimitError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "lineno", None))


def _reference(parse):
    """``parse`` forced onto the per-token path: with no plain header split,
    every file is read token by token."""
    def run(text):
        with mock.patch.object(fileio, "_plain_split", return_value=None):
            return parse(text)
    return run


def assert_instance_paths_agree(text, parser=None):
    """Both paths give the same instance or the same error, which is
    returned; ``parser`` names the path that must have run."""
    fast, fast_error = _outcome(parse_instance_info, text)
    ref, ref_error = _outcome(_reference(parse_instance_info), text)
    assert fast_error == ref_error
    if ref is not None:
        assert type(fast[0]) is type(ref[0]) and fast[0] == ref[0]
        assert ref[1] == "reference" and parser in (None, fast[1])
    return ref_error


CYC = "uginst 1\nmode cyclic\nq 5\nn 3\ndensity full\n"
PERM = "uginst 1\nmode perm\nq 3\nn 3\ndensity full\n"
DENSE = "uginst 1\nmode cyclic\nq 5\nn 4\ndensity dense\n"


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("text", [
        CYC + "0 1 1\n0 2 4\n1 2 0\n",
        CYC + "0 1 1\n0 2 4\n1 2 0",  # no final newline
        CYC + "  0   1 1 \n0 2  4\n1 2 0   \n  ",
        CYC + "1 2 0\n0 2 4\n0 1 1\n",
        CYC + "0 1 00001\n0 002 4\n1 2 0\n",
        PERM + "0 1 2 0 1\n0 2 0 1 2\n1 2 1 0 2\n",
        DENSE + "0 1 1\n2 3 4\n",
    ])
    def test_digit_bodies_take_the_fast_path(self, text):
        assert_instance_paths_agree(text, "fast")

    @pytest.mark.parametrize("text", [
        "# comment\n" + CYC + "0 1 1\n0 2 4\n1 2 0\n",
        CYC.replace("q 5", "q 5  # labels") + "0 1 1\n0 2 4\n1 2 0\n",
        CYC.replace("\nq", "\n\nq") + "0 1 1\n0 2 4\n1 2 0\n",
        CYC + "0 1 1  # note\n0 2 4\n1 2 0\n",
        CYC + "0 1 1\n\n0 2 4\n1 2 0\n",
        CYC + "0 1 1\n0 2 4\n1 2 0\n\n",
        CYC + "0 1 +3\n0 2 4\n1 2 0\n",
        CYC + "0 1 0_1\n0 2 4\n1 2 0\n",
        CYC.replace("q 5", "q 1_001") + "0 1 1_000\n0 2 4\n1 2 0\n",
        CYC + "0 1 \u0663\n0 2 4\n1 2 0\n",  # ARABIC-INDIC DIGIT THREE
        CYC + "0\t1\t1\n0 2 4\n1 2 0\n",
        (CYC + "0 1 1\n0 2 4\n1 2 0\n").replace("\n", "\r\n"),
        CYC + "0 1 0000000000000000001\n0 2 4\n1 2 0\n",  # 19 digits
        CYC + "0 0000000000000000002 4\n0 1 1\n1 2 0\n",
    ])
    def test_other_bodies_take_the_reference_path(self, text):
        assert_instance_paths_agree(text, "reference")

    @pytest.mark.parametrize("text", [
        CYC + "0 1\n1 0 2 4\n1 2 0\n",  # 2 + 4 tokens add up to 2 lines of 3
        CYC + "0 1 1 0 2\n4\n1 2 0\n",
        CYC + "0 1 1\n0 2 4\n",  # a missing line
        CYC + "0 1 1\n0 2 4\n1 2 0\n1 2 0\n",  # duplicate
        CYC + "0 1 1\n0 2 4\n1 2 0\n0 1 1\n",
        CYC + "0 1 9\n0 1 1\n0 2 4\n1 2 0\n",  # first copy out of range
        CYC + "1 0 1\n1 0 1\n0 2 4\n1 2 0\n",  # first copy u > v
        CYC + "0 1 1\n2 1 4\n1 2 0\n",
        CYC + "0 1 1\n0 3 4\n1 2 0\n",
        CYC + "0 0 1\n0 2 4\n1 2 0\n",
        CYC + "0 1 5\n0 2 4\n1 2 0\n",
        CYC + "0 1 -1\n0 2 4\n1 2 0\n",
        CYC + "0 1 x\n0 2 4\n1 2 0\n",
        CYC + "0 1 99999999999999999999\n0 2 4\n1 2 0\n",
        CYC + "0 1 1\n0 2 4\n1 2 0\n 0 1 0000000000000000000000001\n",
        CYC + "0 1 1\n0 2 4\n1 2 0\n1 2",
        CYC + "\n",
        CYC,
        PERM + "0 1 2 0 1\n0 2 0 0 2\n1 2 1 0 2\n",  # not a bijection
        PERM + "0 1 2 0 3\n0 2 0 1 2\n1 2 1 0 2\n",
        PERM + "0 1 2 0 1\n0 2 0 1 2\n1 2 1 0\n",
        DENSE + "0 1 1\n",  # degree zero
        DENSE + "0 1 1\n2 3 4\n0 1 1\n",
    ])
    def test_malformed_bodies_fail_alike(self, text):
        assert assert_instance_paths_agree(text)[0] is ParseError

    @pytest.mark.parametrize("mode,edge", [("cyclic", "0 1 2"), ("perm", "0 1 2 0 1")])
    def test_resource_limit_comes_first_on_both_paths(self, mode, edge):
        head = f"uginst 1\nmode {mode}\nq 3\nn {10**9}\ndensity full\n"
        for body in (edge + "\n", "1 0 x\n"):
            assert assert_instance_paths_agree(head + body)[0] is ResourceLimitError

    @pytest.mark.parametrize("kind", KINDS)
    def test_serialized_instances_take_the_fast_path(self, rng, kind):
        for _ in range(4):
            g = rand_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)), kind)
            assert parse_instance_info(serialize_instance(g))[1] == "fast"
            d = rand_dense(rng, 8, 3, kind, removals=4)
            back, parser = parse_instance_info(serialize_instance(d))
            assert back == d and parser == "fast"

    # outcomes recorded while assignment files still had a whole-array reader
    # beside the per-token one; both gave these, and the one reader keeps them
    @pytest.mark.parametrize("text,labels,error", [
        ("ugassign 1\n0 2\n1 0\n2 1\n", [2, 0, 1], None),
        ("ugassign 1\n2 1\n0 2\n1 0", [2, 0, 1], None),
        ("ugassign 1\n0 000002\n1 0\n", [2, 0], None),
        ("ugassign 1 # x\n0 2\n1 0\n", [2, 0], None),
        ("ugassign 1\n0 +2\n1 0\n", [2, 0], None),
        ("ugassign 1\n0 2\n\n1 0\n", [2, 0], None),
        ("ugassign 1\r\n0 2\r\n1 0\r\n", [2, 0], None),
        ("ugassign 1\n0 9223372036854775807\n1 0\n", [2**63 - 1, 0], None),
        ("ugassign 1\n0 9223372036854775808\n1 0\n", None,
         ("line 2: labels must be below 2**63: labels are 64-bit integers", 2)),
        ("ugassign 1\n0 99999999999999999999999\n1 -1\n", None,
         ("line 2: labels must be below 2**63: labels are 64-bit integers", 2)),
        ("ugassign 1\n0 1\n0 2\n", None, ("line 3: duplicate vertex 0", 3)),
        ("ugassign 1\n0 1\n2 0\n", None, ("vertices must cover 0..1; missing 1", None)),
        ("ugassign 1\n5 1\n", None, ("vertices must cover 0..0; missing 0", None)),
        ("ugassign 1\n0 -1\n", None, ("line 2: labels must be nonnegative", 2)),
        ("ugassign 1\n0 1 2\n", None,
         ("line 2: assignment line needs 2 tokens, got 3", 2)),
        ("ugassign 1\n0\n1 2 3\n", None,
         ("line 2: assignment line needs 2 tokens, got 1", 2)),
        ("ugassign 1\n0 x\n", None, ("line 2: label must be an integer, got 'x'", 2)),
        ("ugassign 1\n", None, ("assignment lists no vertices", None)),
        ("ugassign 1\n\n", None, ("assignment lists no vertices", None)),
        ("ugassign 2\n0 1\n", None, ("line 1: unsupported format version '2'", 1)),
        ("", None, ("unexpected end of file, expected magic header", None)),
    ])
    def test_assignment_paths_agree(self, text, labels, error):
        got, got_error = _outcome(parse_assignment, text)
        if error is None:
            assert got_error is None and got.dtype == np.int64
            assert got.tolist() == labels
        else:
            assert got_error == (ParseError, *error)


# ---------------------------------------------------------------------------
# properties: exact round trips, and every corrupted edge or header line is a
# ParseError (exit 3 from `ugsolve solve`)
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=80)


@st.composite
def instances(draw):
    """Small complete or dense instances of either kind, n <= 12, q <= 6."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 12))
    q = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "cyclic":
        g = LinEqInstance(n, q, {e: draw(st.integers(0, q - 1)) for e in pairs})
    else:
        g = UgInstance(n, q, {e: draw(st.permutations(range(q))) for e in pairs})
    if not draw(st.booleans()):
        return g
    mask = ~np.eye(n, dtype=bool)
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
        # drop the pair unless that leaves an endpoint without edges
        if mask[u].sum() > 1 and mask[v].sum() > 1:
            mask[u, v] = mask[v, u] = False
    return DenseInstance(g, mask)


# tokens int() refuses that hold no whitespace and no comment sign
def _not_an_int(s):
    try:
        int(s)
    except ValueError:
        return True
    return False


NON_INTEGERS = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
    min_size=1,
).filter(_not_an_int)


# single tokens: no whitespace, no comment sign
WORDS = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
    min_size=1,
)
HEADER_VALUES = {1: ("cyclic", "perm"), 4: ("full", "dense")}


def _corrupt_header(g, data):
    """Serialized g with one of its five header lines broken."""
    lines = serialize_instance(g).splitlines()
    i = data.draw(st.integers(0, 4))
    tok = lines[i].split()
    how = ["wrong key", "missing token", "extra token"]
    if i == 0:
        how.append("bad version")
    elif i in HEADER_VALUES:
        how.append("unknown value")
    else:
        how += ["non-integer", "non-positive"]
    how = data.draw(st.sampled_from(how))
    if how == "wrong key":  # on the first line: a bad magic
        tok[0] = data.draw(WORDS.filter(lambda s: s != tok[0]))
    elif how == "missing token":
        del tok[data.draw(st.integers(0, 1))]
    elif how == "extra token":
        tok.insert(data.draw(st.integers(0, 2)), data.draw(WORDS))
    elif how == "bad version":
        tok[1] = data.draw(WORDS.filter(lambda s: s != "1"))
    elif how == "unknown value":
        tok[1] = data.draw(WORDS.filter(lambda s: s not in HEADER_VALUES[i]))
    elif how == "non-integer":
        tok[1] = data.draw(NON_INTEGERS)
    else:  # q < 1 or n < 2
        tok[1] = str(data.draw(st.integers(max_value=i - 2)))
    lines[i] = " ".join(tok)
    return "\n".join(lines) + "\n"


class TestFormatProperties:
    @PROPERTY
    @given(instances())
    def test_round_trip(self, g):
        text = serialize_instance(g)
        back = parse_instance(text)
        assert type(back) is type(g) and back == g
        assert serialize_instance(back) == text

    @PROPERTY
    @given(instances(), st.data())
    def test_corrupted_edge_line_is_a_parse_error(self, g, data):
        lines = serialize_instance(g).splitlines()
        head, edges = lines[:5], lines[5:]
        i = data.draw(st.integers(0, len(edges) - 1))
        tok = edges[i].split()
        how = ["drop token", "extra token", "non-integer", "out of range",
               "swap endpoints", "duplicate line"]
        if not isinstance(g, DenseInstance):
            how.append("missing line")
        if g.kind == "perm" and g.q > 1:
            how.append("not a bijection")
        how = data.draw(st.sampled_from(how))
        j = data.draw(st.integers(0, len(tok) - 1))
        if how == "drop token":
            del tok[j]
        elif how == "extra token":
            tok.insert(j, "0")
        elif how == "non-integer":
            tok[j] = data.draw(NON_INTEGERS)
        elif how == "out of range":
            top = g.n if j < 2 else g.q
            bad = st.one_of(st.integers(max_value=-1), st.integers(min_value=top))
            tok[j] = str(data.draw(bad))
        elif how == "swap endpoints":
            tok[0], tok[1] = tok[1], tok[0]
        elif how == "not a bijection":
            a, b = data.draw(st.lists(st.integers(2, len(tok) - 1), min_size=2,
                                      max_size=2, unique=True))
            tok[a] = tok[b]
        edges[i] = " ".join(tok)
        if how == "duplicate line":
            edges.insert(i, edges[i])
        elif how == "missing line":
            del edges[i]
        with pytest.raises(ParseError):
            parse_instance("\n".join(head + edges) + "\n")

    @PROPERTY
    @given(instances(), st.data())
    def test_corrupted_header_line_is_a_parse_error(self, g, data):
        text = _corrupt_header(g, data)
        with pytest.raises(ParseError):
            parse_instance(text)

    @settings(PROPERTY, max_examples=30)
    @given(instances(), st.data())
    def test_solve_exits_3_on_a_corrupted_header(self, g, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_corrupt_header(g, data))
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(["solve", path, "--alg", "pivot"]) == 3
            assert err.getvalue().startswith("error:")

    @PROPERTY
    @given(instances(), st.data())
    def test_digit_edit_gives_the_reference_answer(self, g, data):
        # edits inside the fast path's alphabet reach its masks, not only its gate
        text = serialize_instance(g)
        i = data.draw(st.integers(text.index("density"), len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 12)))
        edit = data.draw(st.text("0123456789 \n", max_size=12))
        assert_instance_paths_agree(text[:i] + edit + text[j:])

    @PROPERTY
    @given(instances(), st.data())
    def test_arbitrary_edge_line_parses_or_is_a_parse_error(self, g, data):
        lines = serialize_instance(g).splitlines()
        i = data.draw(st.integers(5, len(lines) - 1))
        lines[i] = data.draw(st.text(max_size=30))
        try:
            parse_instance("\n".join(lines) + "\n")
        except ParseError:
            pass
