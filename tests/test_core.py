from fractions import Fraction

import numpy as np
import pytest
from conftest import rand_dense, rand_instance, rand_lineq, rand_ug, violated_oracle

from ugsolve.core import (
    DenseInstance,
    LinEqInstance,
    SolveReport,
    UgInstance,
    as_generator,
    perm_compose,
    perm_invert,
    satisfied_count,
    to_square_instance,
    triangle_consistent,
    violated_count,
)
from ugsolve.errors import MissingEdgeError
from ugsolve.generators import planted


class TestAsGenerator:
    def test_passthrough(self, rng):
        assert as_generator(rng) is rng

    def test_none_is_fixed_seed(self):
        a = as_generator(None).integers(0, 1 << 30, 8)
        b = as_generator(None).integers(0, 1 << 30, 8)
        c = as_generator(0).integers(0, 1 << 30, 8)
        assert (a == b).all() and (a == c).all()

    def test_int_seeds_differ(self):
        a = as_generator(1).integers(0, 1 << 30, 8)
        b = as_generator(2).integers(0, 1 << 30, 8)
        assert not (a == b).all()

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            as_generator(-1)


class TestPermHelpers:
    def test_compose_applies_right_first(self):
        p = np.array([1, 2, 0])
        r = np.array([2, 0, 1])
        got = perm_compose(p, r)
        assert [int(p[r[i]]) for i in range(3)] == got.tolist()

    def test_invert_round_trip(self, rng):
        for q in (1, 2, 5, 9):
            p = rng.permutation(q)
            assert (perm_compose(p, perm_invert(p)) == np.arange(q)).all()
            assert (perm_compose(perm_invert(p), p) == np.arange(q)).all()


class TestLinEqInstance:
    def test_dict_and_array_agree(self):
        d = {(0, 1): 1, (0, 2): 2, (1, 2): 0}
        arr = np.array([[0, 1, 2], [0, 0, 0], [0, 0, 0]])
        assert LinEqInstance(3, 3, d) == LinEqInstance(3, 3, arr)

    def test_reverse_orientation_is_negation(self, rng):
        g = rand_lineq(rng, 6, 5)
        for u in range(6):
            for v in range(6):
                if u != v:
                    assert g.offset(v, u) == (-g.offset(u, v)) % 5

    def test_lower_triangle_of_input_ignored(self):
        arr = np.array([[0, 1], [7, 0]])
        g = LinEqInstance(2, 3, arr)
        assert g.offset(0, 1) == 1 and g.offset(1, 0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LinEqInstance(1, 2, {})
        with pytest.raises(ValueError):
            LinEqInstance(2, 0, {(0, 1): 0})
        with pytest.raises(ValueError):
            LinEqInstance(3, 2, {(0, 1): 0})  # missing pairs
        with pytest.raises(ValueError):
            LinEqInstance(3, 2, {(0, 1): 0, (1, 0): 1, (1, 2): 0})
        with pytest.raises(ValueError):
            LinEqInstance(2, 2, {(0, 1): 5})
        with pytest.raises(ValueError):
            LinEqInstance(2, 2, np.zeros((3, 3), dtype=int))

    def test_immutable(self, rng):
        g = rand_lineq(rng, 4, 3)
        with pytest.raises(ValueError):
            g.offset_matrix()[0, 1] = 0

    def test_edges_lexicographic(self):
        g = LinEqInstance(4, 2, np.zeros((4, 4), dtype=int))
        eu, ev = g.edges()
        assert list(zip(eu.tolist(), ev.tolist())) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert g.m == 6

    def test_no_self_loop(self, rng):
        g = rand_lineq(rng, 4, 3)
        with pytest.raises(ValueError):
            g.offset(2, 2)


class TestUgInstance:
    def test_reverse_orientation_is_inverse(self, rng):
        g = rand_ug(rng, 5, 4)
        for u in range(5):
            for v in range(u + 1, 5):
                f = g.perm(u, v)
                b = g.perm(v, u)
                assert (perm_compose(b, f) == np.arange(4)).all()

    def test_dict_and_tensor_agree(self, rng):
        n, q = 4, 3
        d = {}
        tensor = np.tile(np.arange(q), (n, n, 1))
        for u in range(n):
            for v in range(u + 1, n):
                p = rng.permutation(q)
                d[(u, v)] = p
                tensor[u, v] = p
        assert UgInstance(n, q, d) == UgInstance(n, q, tensor)

    def test_diagonal_is_identity(self, rng):
        g = rand_ug(rng, 4, 3)
        assert (g.perm_tensor()[2, 2] == np.arange(3)).all()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            UgInstance(2, 3, {(0, 1): np.array([0, 0, 1])})
        with pytest.raises(ValueError):
            UgInstance(2, 3, {(0, 1): np.array([0, 1, 3])})

    def test_immutable(self, rng):
        g = rand_ug(rng, 4, 3)
        with pytest.raises(ValueError):
            g.perm_tensor()[0, 1, 0] = 0


class TestDenseInstance:
    def test_delta_is_canonical(self, rng):
        g = rand_lineq(rng, 9, 3)
        mask = ~np.eye(9, dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        mask[0, 2] = mask[2, 0] = False
        d = DenseInstance(g, mask)
        assert d.delta == 2 / 8 == 0.25
        assert d.degrees().min() == 6

    def test_max_delta_enforced(self, rng):
        g = rand_lineq(rng, 9, 3)
        mask = ~np.eye(9, dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        DenseInstance(g, mask, max_delta=0.2)
        with pytest.raises(ValueError):
            DenseInstance(g, mask, max_delta=0.1)

    def test_float_max_delta_reads_as_its_decimal(self, rng):
        # slack exactly 3/10, while the double nearest 0.3 lies just below it
        g = rand_lineq(rng, 11, 3)
        mask = ~np.eye(11, dtype=bool)
        mask[0, 1:4] = mask[1:4, 0] = False
        assert DenseInstance(g, mask, max_delta=0.3).delta == Fraction(3, 10)
        with pytest.raises(ValueError):
            DenseInstance(g, mask, max_delta=0.29)

    def test_wrap_complete(self, rng):
        d = DenseInstance.wrap_complete(rand_ug(rng, 5, 2))
        assert d.delta == 0 and d.m == 10

    def test_mask_validation(self, rng):
        g = rand_lineq(rng, 4, 2)
        bad = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError):
            DenseInstance(g, bad)  # diagonal True
        asym = ~np.eye(4, dtype=bool)
        asym[0, 1] = False
        with pytest.raises(ValueError):
            DenseInstance(g, asym)
        isolated = np.zeros((4, 4), dtype=bool)
        isolated[0, 1] = isolated[1, 0] = True
        isolated[2, 3] = isolated[3, 2] = True
        DenseInstance(g, isolated)  # degree 1 everywhere is fine
        isolated[2, 3] = isolated[3, 2] = False
        with pytest.raises(ValueError):
            DenseInstance(g, isolated)

    def test_equality_ignores_absent_constraints(self, rng):
        n, q = 5, 3
        a = rand_lineq(rng, n, q)
        mask = ~np.eye(n, dtype=bool)
        mask[0, 4] = mask[4, 0] = False
        other = a.offset_matrix().copy()
        other.flags.writeable = True
        other[0, 4] = (other[0, 4] + 1) % q  # touch only the absent pair
        b = LinEqInstance(n, q, np.triu(other, 1))
        assert DenseInstance(a, mask) == DenseInstance(b, mask)
        assert a != b


COMPLETE = [("cyclic", LinEqInstance, "offset"), ("perm", UgInstance, "perm")]


def _identity_table(kind, n, q):
    """A valid table of the kind: zero offsets, or identity bijections."""
    if kind == "cyclic":
        return np.zeros((n, n), dtype=np.int64)
    return np.tile(np.arange(q), (n, n, 1))


class TestCompleteInstance:
    """The constructor and methods both complete kinds share."""

    @pytest.mark.parametrize("kind, cls, noun", COMPLETE)
    def test_constructor_error_texts(self, kind, cls, noun):
        value = _identity_table(kind, 3, 2)[0, 1]
        cases = [
            ({(0, 1): value}, f"expected 3 {noun}s, got 1"),
            ({(0, 1): value, (1, 0): value, (1, 2): value},
             f"{noun} key (1, 0) is not a pair with u < v"),
            (_identity_table(kind, 4, 2), f"{noun} array must have shape "
             + ("(3, 3)" if kind == "cyclic" else "(3, 3, 2)")),
        ]
        for values, text in cases:
            with pytest.raises(ValueError) as exc:
                cls(3, 2, values)
            assert str(exc.value) == text

    @pytest.mark.parametrize("kind, cls, noun", COMPLETE)
    def test_non_integer_constraints_rejected(self, kind, cls, noun):
        # floats would be truncated on storage, ints past int64 overflow
        shape = _identity_table(kind, 2, 2).shape
        cases = [1.7, 2**70] if kind == "cyclic" else [[0.5, 1.2], [0, 2**70]]
        for value in cases:
            for values in ({(0, 1): value}, np.full(shape, value)):
                with pytest.raises(ValueError) as exc:
                    cls(2, 2, values)
                assert str(exc.value) == f"{noun}s must be integers"

    @pytest.mark.parametrize("kind, cls, noun", COMPLETE)
    def test_lower_triangle_and_diagonal_of_input_ignored(self, rng, kind, cls, noun):
        n, q = 5, 3
        g = rand_instance(rng, n, q, kind)
        table = g.offset_matrix() if kind == "cyclic" else g.perm_tensor()
        junk = table.copy()
        il, jl = np.tril_indices(n)
        junk[il, jl] = 7  # out of range, and not a bijection
        assert cls(n, q, junk) == g

    @pytest.mark.parametrize("kind, cls, noun", COMPLETE)
    def test_edges_lexicographic_and_m(self, kind, cls, noun):
        n = 5
        g = cls(n, 2, _identity_table(kind, n, 2))
        eu, ev = g.edges()
        pairs = list(zip(eu.tolist(), ev.tolist()))
        assert pairs == sorted((u, v) for u in range(n) for v in range(u + 1, n))
        assert g.m == len(pairs) == 10

    @pytest.mark.parametrize("kind, cls, noun", COMPLETE)
    def test_self_loop_accessor_raises(self, rng, kind, cls, noun):
        g = rand_instance(rng, 4, 3, kind)
        accessor = g.offset if kind == "cyclic" else g.perm
        with pytest.raises(ValueError) as exc:
            accessor(1, 1)
        assert str(exc.value) == f"no self-loop {noun}s"

    @pytest.mark.parametrize("kind, cls, noun", COMPLETE)
    def test_repr(self, kind, cls, noun):
        g = cls(3, 2, _identity_table(kind, 3, 2))
        assert repr(g) == f"{cls.__name__}(n=3, q=2)"

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_kinds_are_never_equal(self, q):
        a = LinEqInstance(3, q, _identity_table("cyclic", 3, q))
        b = UgInstance(3, q, _identity_table("perm", 3, q))
        assert a != b and b != a
        assert DenseInstance.wrap_complete(a) != DenseInstance.wrap_complete(b)

    def test_dense_perm_equality_ignores_absent_constraints(self, rng):
        n, q = 5, 3
        a = rand_ug(rng, n, q)
        mask = ~np.eye(n, dtype=bool)
        mask[1, 3] = mask[3, 1] = False
        other = a.perm_tensor().copy()
        other[1, 3] = np.roll(other[1, 3], 1)  # touch only the absent pair
        b = UgInstance(n, q, other)
        assert DenseInstance(a, mask) == DenseInstance(b, mask)
        assert a != b
        mask2 = mask.copy()
        mask2[1, 3] = mask2[3, 1] = True
        assert DenseInstance(a, mask2) != DenseInstance(b, mask2)


def implied_oracle(g, u, label, v):
    """Label v must take given u has ``label``, from the pairwise definitions;
    a vertex paired with itself keeps its label."""
    base = g.base if isinstance(g, DenseInstance) else g
    if u == v:
        return label
    if base.kind == "cyclic":
        return (label - base.offset(u, v)) % g.q
    return int(base.perm(u, v)[label])


class TestImplied:
    @pytest.mark.parametrize("kind", ["cyclic", "perm"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_pairwise_definitions(self, rng, kind, dense):
        for _ in range(6):
            n = int(rng.integers(4, 9))
            q = int(rng.integers(1, 6))
            if dense:
                g = rand_dense(rng, n, q, kind, removals=n // 2)
            else:
                g = rand_lineq(rng, n, q) if kind == "cyclic" else rand_ug(rng, n, q)
            v = int(rng.integers(n))
            for rows in (slice(None), slice(1, n - 1), rng.integers(0, n, 5)):
                row_ids = np.arange(n)[rows]
                labels = rng.integers(0, q, len(row_ids))
                for cols in (slice(None), slice(2, n), slice(v, v + 1)):
                    col_ids = np.arange(n)[cols]
                    got = g.implied(rows, labels, cols)
                    assert got.shape == (len(row_ids), len(col_ids))
                    want = [
                        [implied_oracle(g, u, int(l), w) for w in col_ids.tolist()]
                        for u, l in zip(row_ids.tolist(), labels)
                    ]
                    assert got.tolist() == want


class TestViolatedCount:
    @pytest.mark.parametrize("kind", ["cyclic", "perm"])
    def test_matches_loop_oracle(self, rng, kind):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(1, 5))
            g = rand_lineq(rng, n, q) if kind == "cyclic" else rand_ug(rng, n, q)
            labels = rng.integers(0, q, n)
            assert violated_count(g, labels) == violated_oracle(g, labels)
            assert satisfied_count(g, labels) == g.m - violated_oracle(g, labels)

    @pytest.mark.parametrize("kind", ["cyclic", "perm"])
    def test_dense_matches_loop_oracle(self, rng, kind):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            q = int(rng.integers(2, 4))
            d = rand_dense(rng, n, q, kind, removals=n // 2)
            labels = rng.integers(0, q, n)
            assert violated_count(d, labels) == violated_oracle(d, labels)

    def test_label_validation(self, rng):
        g = rand_lineq(rng, 4, 3)
        with pytest.raises(ValueError):
            violated_count(g, [0, 1, 2])  # wrong length
        with pytest.raises(ValueError):
            violated_count(g, [0, 1, 2, 3])  # out of range
        with pytest.raises(ValueError):
            violated_count(g, [0.5, 1, 2, 0])  # not integers

    def test_q1_always_satisfied(self, rng):
        g = rand_lineq(rng, 5, 1)
        assert violated_count(g, np.zeros(5, dtype=int)) == 0


class TestTriangleConsistent:
    def test_cyclic_definition(self, rng):
        g = rand_lineq(rng, 5, 4)
        M = g.offset_matrix()
        for (u, v, w) in [(0, 1, 2), (1, 3, 4), (0, 2, 4)]:
            expect = (int(M[u, v]) + int(M[v, w]) + int(M[w, u])) % 4 == 0
            assert triangle_consistent(g, u, v, w) == expect
            # orientation independent
            assert triangle_consistent(g, w, v, u) == expect

    def test_perm_matches_local_satisfiability(self, rng):
        # Oracle: try every labeling of the three vertices.
        for _ in range(20):
            q = int(rng.integers(2, 5))
            g = rand_ug(rng, 5, q)
            u, v, w = sorted(rng.choice(5, size=3, replace=False).tolist())
            satisfiable = any(
                g.perm(u, v)[a] == b and g.perm(v, w)[b] == c and g.perm(u, w)[a] == c
                for a in range(q)
                for b in range(q)
                for c in range(q)
            )
            assert triangle_consistent(g, u, v, w) == satisfiable

    def test_perm_fixed_point_without_identity(self):
        # The three compositions differ from the identity yet share a fixed
        # point, so the triangle still admits a satisfying labeling.
        swap12 = [0, 2, 1]
        g = UgInstance(3, 3, {(0, 1): swap12, (0, 2): swap12, (1, 2): swap12})
        comp = perm_compose(
            g.perm(2, 0), perm_compose(g.perm(1, 2), g.perm(0, 1))
        )
        assert not (comp == np.arange(3)).all()
        assert triangle_consistent(g, 0, 1, 2)
        assert violated_count(g, [0, 0, 0]) == 0

    def test_perm_fixed_point_free_is_inconsistent(self):
        # Identity on two edges and a cyclic shift on the third: the
        # composition is the shift, which moves every label.
        ident = [0, 1, 2]
        shift = [1, 2, 0]
        g = UgInstance(3, 3, {(0, 1): ident, (1, 2): ident, (0, 2): shift})
        assert not triangle_consistent(g, 0, 1, 2)
        assert min(
            violated_count(g, [a, b, c])
            for a in range(3)
            for b in range(3)
            for c in range(3)
        ) == 1

    def test_dense_missing_edge(self, rng):
        g = rand_lineq(rng, 4, 2)
        mask = ~np.eye(4, dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        d = DenseInstance(g, mask)
        with pytest.raises(MissingEdgeError):
            triangle_consistent(d, 0, 1, 2)
        triangle_consistent(d, 0, 2, 3)  # all present

    def test_distinct_vertices_required(self, rng):
        g = rand_lineq(rng, 4, 2)
        with pytest.raises(ValueError):
            triangle_consistent(g, 0, 0, 1)


class TestSquareTransform:
    def test_identity_on_satisfiable(self, rng):
        for trial in range(5):
            g = planted(7, 4, 0, rng=trial).instance
            assert to_square_instance(g) == g

    def test_mode_matches_loop_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            q = int(rng.integers(2, 5))
            g = rand_lineq(rng, n, q)
            sq = to_square_instance(g)
            M = g.offset_matrix()
            for u in range(n):
                for v in range(u + 1, n):
                    tally = [0] * q
                    for w in range(n):
                        if w in (u, v):
                            continue
                        tally[(int(M[u, w]) + int(M[w, v])) % q] += 1
                    best = max(range(q), key=lambda c: (tally[c], -c))
                    assert sq.offset(u, v) == best

    def test_rejects_other_inputs(self, rng):
        with pytest.raises(ValueError):
            to_square_instance(rand_ug(rng, 4, 2))
        with pytest.raises(ValueError):
            to_square_instance(LinEqInstance(2, 2, {(0, 1): 1}))
        with pytest.raises(ValueError):
            to_square_instance(DenseInstance.wrap_complete(rand_lineq(rng, 4, 2)))


def test_solve_report_defaults():
    rep = SolveReport(assignment=np.zeros(3, dtype=int), violated=0, algorithm="x")
    assert rep.pivot is None and rep.seed is None and rep.extra == {}
