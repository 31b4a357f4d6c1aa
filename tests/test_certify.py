import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    brute_oracle,
    inconsistent_triangles_oracle,
    packing_loop_oracle,
    rand_dense,
    rand_instance,
)

from ugsolve.certify import (
    PackingCertificate,
    dense_voting_bound,
    inconsistent_triangles,
    iter_inconsistent_triangles,
    triangle_packing_lb,
    voting_bound,
)
from ugsolve.core import DenseInstance, UgInstance, triangle_consistent
from ugsolve.errors import OutOfRegimeError
from ugsolve.generators import noise_model, planted

KINDS = ["cyclic", "perm"]


def triangle_oracle(g):
    n = g.n
    out = []
    for u, v, w in itertools.combinations(range(n), 3):
        if hasattr(g, "present"):
            if not (g.present(u, v) and g.present(v, w) and g.present(u, w)):
                continue
        if not triangle_consistent(g, u, v, w):
            out.append((u, v, w))
    return out


class TestInconsistentTriangles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_count_and_listing_match_oracle(self, rng, kind):
        for _ in range(10):
            n = int(rng.integers(3, 13))
            q = int(rng.integers(1, 6))
            g = rand_instance(rng, n, q, kind)
            expect = triangle_oracle(g)
            assert inconsistent_triangles(g) == len(expect)
            assert list(iter_inconsistent_triangles(g)) == expect

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_skips_absent_edges(self, rng, kind):
        for _ in range(6):
            n = int(rng.integers(4, 13))
            q = int(rng.integers(1, 6))
            d = rand_dense(rng, n, q, kind, removals=n // 2)
            expect = triangle_oracle(d)
            assert inconsistent_triangles(d) == len(expect)
            assert list(iter_inconsistent_triangles(d)) == expect

    @pytest.mark.parametrize("kind", KINDS)
    def test_satisfiable_has_zero_triangles(self, rng, kind):
        for seed in range(8):
            clean = planted(7, 3, 0, kind=kind, rng=seed).instance
            assert inconsistent_triangles(clean) == 0

    def test_zero_triangles_iff_satisfiable_cyclic(self):
        # For cyclic constraints the converse holds as well: offsets on a
        # complete graph are satisfiable exactly when every triangle sums to
        # zero, so a corrupted instance always exposes a bad triangle.
        for seed in range(8):
            dirty = planted(7, 3, 2, kind="cyclic", rng=seed).instance
            opt, _ = brute_oracle(dirty)
            assert (inconsistent_triangles(dirty) == 0) == (opt == 0)

    def test_perm_unsatisfiable_with_zero_triangles(self):
        # With bijections the converse can fail: every triangle here admits a
        # local solution, yet no single labeling satisfies all six edges.
        ident = [0, 1, 2]
        g = UgInstance(
            4,
            3,
            {
                (0, 1): ident,
                (0, 2): ident,
                (0, 3): ident,
                (1, 2): [0, 2, 1],
                (1, 3): [2, 1, 0],
                (2, 3): [1, 0, 2],
            },
        )
        assert inconsistent_triangles(g) == 0
        opt, _ = brute_oracle(g)
        assert opt >= 1


class TestTrianglePacking:
    @pytest.mark.parametrize("kind", KINDS)
    def test_packing_is_valid_and_below_optimum(self, rng, kind):
        for seed in range(10):
            n = int(rng.integers(4, 7))
            q = int(rng.integers(2, 4))
            g = rand_instance(rng, n, q, kind)
            cert = triangle_packing_lb(g, rng=seed)
            used = set()
            for (u, v, w) in cert.triangles:
                assert not triangle_consistent(g, u, v, w)
                for e in ((u, v), (v, w), (u, w)):
                    assert e not in used  # edge-disjoint
                    used.add(e)
            opt, _ = brute_oracle(g)
            assert cert.lower_bound == len(cert.triangles) <= opt

    def test_deterministic_given_seed(self, rng):
        g = rand_instance(rng, 7, 3, "cyclic")
        a = triangle_packing_lb(g, rng=4)
        b = triangle_packing_lb(g, rng=4)
        assert a.triangles == b.triangles and a.seed == 4

    def test_satisfiable_gives_zero(self):
        g = planted(8, 3, 0, rng=1).instance
        assert triangle_packing_lb(g, rng=0).lower_bound == 0

    def test_single_bad_triangle(self, rng):
        g = planted(3, 3, 1, rng=2).instance
        assert triangle_packing_lb(g, rng=0).lower_bound == 1


def _differential(g, seeds=(0, 1, 2)):
    """Count, listing and packings against the loop oracles; the largest
    number of packing rounds seen."""
    expect = inconsistent_triangles_oracle(g)
    assert inconsistent_triangles(g) == len(expect)
    assert list(iter_inconsistent_triangles(g)) == expect
    rounds = 0
    for seed in seeds:
        cert = triangle_packing_lb(g, rng=seed)
        assert cert.triangles == packing_loop_oracle(g, seed)
        assert cert.extra["inconsistent"] == len(expect)
        rounds = max(rounds, cert.extra["rounds"])
    return rounds


class TestAgainstLoopOracles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_complete(self, rng, kind):
        for n, q in ((5, 2), (12, 3), (25, 4), (30, 5)):
            _differential(rand_instance(rng, n, q, kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense(self, rng, kind):
        for n in (6, 15, 30):
            _differential(rand_dense(rng, n, 3, kind, removals=n * n // 8))

    @pytest.mark.parametrize("kind", KINDS)
    def test_q1_has_no_triangle(self, rng, kind):
        g = rand_instance(rng, 9, 1, kind)
        assert _differential(g) == 0
        assert triangle_packing_lb(g).triangles == []

    def test_planted(self):
        for kind, seed in (("cyclic", 1), ("perm", 2)):
            _differential(planted(40, 4, 30, kind=kind, rng=seed).instance)

    @pytest.mark.parametrize("n, q, p", [(40, 3, 0.45), (60, 5, 0.3)])
    def test_tie_heavy_noise_takes_many_rounds(self, n, q, p):
        g = noise_model(n, q, p, rng=0).instance
        assert _differential(g, seeds=(0, 1, 2, 3)) >= 5


class TestCertificateEdgeCases:
    @pytest.mark.parametrize("kind", KINDS)
    def test_two_vertices(self, rng, kind):
        g = rand_instance(rng, 2, 3, kind)
        for h in (g, DenseInstance.wrap_complete(g)):
            assert inconsistent_triangles(h) == 0
            assert list(iter_inconsistent_triangles(h)) == []
            cert = triangle_packing_lb(h, rng=3)
            assert cert.triangles == [] and cert.lower_bound == 0
            assert cert.extra["inconsistent"] == 0 and cert.extra["rounds"] == 0

    def test_listing_and_packing_hold_python_ints(self, rng):
        g = rand_instance(rng, 8, 3, "perm")
        for tris in (list(iter_inconsistent_triangles(g)), triangle_packing_lb(g).triangles):
            assert tris and all(type(x) is int for t in tris for x in t)

    def test_permutation_orders_like_shuffle(self):
        # the round-based packing reads its order from permutation(N); it
        # equals the packing of shuffle(list) only while the two agree
        for seed in range(5):
            for size in (0, 1, 2, 7, 100, 5000):
                items = list(range(size))
                np.random.default_rng(seed).shuffle(items)
                order = np.random.default_rng(seed).permutation(size)
                assert order.tolist() == items

    def test_extra_reports_phases_rounds_and_count(self, rng):
        g = rand_instance(rng, 10, 3, "cyclic")
        cert = triangle_packing_lb(g, rng=1)
        assert set(cert.extra) == {"phases", "rounds", "inconsistent"}
        assert set(cert.extra["phases"]) == {"list", "pack"}
        assert all(t >= 0 for t in cert.extra["phases"].values())
        assert cert.extra["rounds"] >= 1
        assert cert.extra["inconsistent"] == inconsistent_triangles(g)
        # equality ignores the timings
        assert cert == PackingCertificate(triangles=cert.triangles, seed=1)


class TestVotingBound:
    def test_exact_fraction_value(self):
        b = voting_bound(1, 11, 55)
        assert b.eps == Fraction(1, 55)
        assert b.nu == Fraction(110, 53)
        assert b.excess == Fraction(4752, 14045)
        assert b.value == 1 + Fraction(4752, 14045)

    def test_doubling_the_noise_rate(self):
        single = voting_bound(1, 11, 55, eps_factor=1)
        double = voting_bound(1, 11, 55, eps_factor=2)
        assert double.eps == 2 * single.eps
        assert double.excess > single.excess

    def test_zero_optimum_gives_zero_excess(self):
        b = voting_bound(0, 10, 45)
        assert b.excess == 0 and b.value == 0

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            voting_bound(28, 11, 55)  # eps >= 1/2
        with pytest.raises(OutOfRegimeError):
            voting_bound(14, 11, 55, eps_factor=2)

    def test_monotone_in_optimum(self):
        vals = [voting_bound(v, 20, 190).value for v in range(0, 40, 5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDenseVotingBound:
    def test_reduces_toward_voting_bound_at_zero_delta(self):
        v = voting_bound(2, 12, 66)
        d = dense_voting_bound(2, 12, 66, 0)
        assert d.nu == v.nu and d.eps == v.eps
        # same leading term plus the quadratic tail
        tail = 2 * d.eps**2 * d.nu**2 * 12
        lead = 2 * Fraction(2) * d.eps * d.nu * (2 + d.nu)
        assert d.excess == lead + tail / 2

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            dense_voting_bound(20, 11, 50, Fraction(1, 4))
        with pytest.raises(OutOfRegimeError):
            dense_voting_bound(1, 11, 50, Fraction(1, 2))
        # 1 - 2/5 - 2*3/10 is exactly 0; the double nearest 0.3 lies below 3/10
        with pytest.raises(OutOfRegimeError):
            dense_voting_bound(1, 11, 5, 0.3)
        assert dense_voting_bound(2, 12, 60, 0.1) == dense_voting_bound(2, 12, 60, Fraction(1, 10))

    def test_delta_increases_the_bound(self):
        a = dense_voting_bound(2, 12, 60, 0).value
        b = dense_voting_bound(2, 12, 60, Fraction(1, 10)).value
        c = dense_voting_bound(2, 12, 60, Fraction(1, 5)).value
        assert a < b < c
