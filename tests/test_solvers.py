import itertools

import numpy as np
import pytest
from conftest import (
    brute_oracle,
    dense_voting_round_oracle,
    rand_dense,
    rand_instance,
    rand_lineq,
    rand_ug,
    violated_oracle,
)

from ugsolve.core import DenseInstance, to_square_instance, violated_count
from ugsolve.errors import ResourceLimitError
from ugsolve.generators import planted, tight_pivot_example
from ugsolve.solvers import (
    UNLABELED,
    brute_force,
    dense_voting,
    flip_diagnostics,
    pivot_assign,
    pivot_best,
    pivot_random,
    randomized_voting,
    voting_single,
    voting_solve,
)

KINDS = ["cyclic", "perm"]


class TestPivotAssign:
    def test_cyclic_propagation(self, rng):
        g = rand_lineq(rng, 6, 4)
        a = pivot_assign(g, 2, 3)
        assert a[2] == 3
        for v in range(6):
            if v != 2:
                # the (v, pivot) constraint is satisfied by construction
                assert (a[v] - a[2]) % 4 == g.offset(v, 2)

    def test_perm_propagation(self, rng):
        g = rand_ug(rng, 6, 3)
        a = pivot_assign(g, 1, 2)
        assert a[1] == 2
        for v in range(6):
            if v != 1:
                assert g.perm(1, v)[2] == a[v]

    def test_dense_unreached_sentinel(self, rng):
        d = rand_dense(rng, 7, 3, "cyclic", removals=5)
        p = 0
        a = pivot_assign(d, p, 1)
        for v in range(7):
            if v == p:
                assert a[v] == 1
            elif d.present(p, v):
                assert a[v] != UNLABELED
            else:
                assert a[v] == UNLABELED

    def test_argument_validation(self, rng):
        g = rand_lineq(rng, 4, 3)
        with pytest.raises(ValueError):
            pivot_assign(g, 4, 0)
        with pytest.raises(ValueError):
            pivot_assign(g, 0, 3)


class TestPivotBest:
    @pytest.mark.parametrize("kind", KINDS)
    def test_is_minimum_over_pivots_and_labels(self, rng, kind):
        for _ in range(8):
            n = int(rng.integers(3, 8))
            q = int(rng.integers(1, 4))
            g = rand_instance(rng, n, q, kind)
            rep = pivot_best(g)
            candidates = []
            labels = range(q) if kind == "perm" else [0]
            for p in range(n):
                for l in labels:
                    candidates.append(
                        (violated_oracle(g, pivot_assign(g, p, l)), p, l)
                    )
            best = min(candidates)
            assert rep.violated == best[0]
            # smallest (pivot, label) among the winners
            assert (rep.pivot, rep.pivot_label) == min(
                (p, l) for v, p, l in candidates if v == best[0]
            )
            assert violated_oracle(g, rep.assignment) == rep.violated

    def test_cyclic_violations_count_bad_triangles_through_pivot(self, rng):
        # propagation satisfies every pivot edge, so a non-pivot edge (u, v)
        # fails exactly when the triangle (pivot, u, v) is inconsistent
        from ugsolve.core import triangle_consistent

        for _ in range(5):
            n = int(rng.integers(4, 8))
            g = rand_lineq(rng, n, 3)
            for p in range(n):
                a = pivot_assign(g, p, 0)
                tri = sum(
                    1
                    for u, v in itertools.combinations(range(n), 2)
                    if p not in (u, v) and not triangle_consistent(g, p, u, v)
                )
                assert violated_oracle(g, a) == tri

    def test_satisfiable_is_solved_exactly(self, rng):
        for kind in KINDS:
            g = planted(8, 3, 0, kind=kind, rng=5).instance
            assert pivot_best(g).violated == 0

    def test_rejects_dense(self, rng):
        with pytest.raises(ValueError):
            pivot_best(rand_dense(rng, 5, 2, "cyclic", removals=2))


class TestPivotRandom:
    def test_deterministic_given_seed(self, rng):
        g = rand_ug(rng, 7, 3)
        a = pivot_random(g, rng=5)
        b = pivot_random(g, rng=5)
        assert a.pivot == b.pivot and (a.assignment == b.assignment).all()
        assert a.seed == 5 and a.algorithm == "pivot-random"
        assert set(a.extra["phases"]) == {"round", "evaluate"}
        assert all(t >= 0 for t in a.extra["phases"].values())

    def test_result_matches_its_own_pivot(self, rng):
        for kind in KINDS:
            g = rand_instance(rng, 6, 3, kind)
            rep = pivot_random(g, rng=9)
            redo = pivot_assign(g, rep.pivot, rep.pivot_label)
            assert (rep.assignment == redo).all()
            assert rep.violated == violated_oracle(g, redo)

    def test_never_worse_than_worst_pivot(self, rng):
        g = rand_lineq(rng, 6, 3)
        worst = max(
            violated_oracle(g, pivot_assign(g, p, 0)) for p in range(6)
        )
        for seed in range(6):
            assert pivot_random(g, rng=seed).violated <= worst


def vote_oracle(g, pivot, pivot_label):
    """Loop re-derivation of one voting round."""
    n, q = g.n, g.q
    temp = pivot_assign(g, pivot, 0 if g.kind == "cyclic" else pivot_label)
    final = np.empty(n, dtype=int)
    final[pivot] = pivot_label
    for v in range(n):
        if v == pivot:
            continue
        tally = [0] * q
        for u in range(n):
            if u in (v, pivot):
                continue
            if g.kind == "cyclic":
                vote = (g.offset(v, u) + temp[u]) % q
            else:
                vote = int(g.perm(u, v)[temp[u]])
            tally[vote] += 1
        if g.kind == "cyclic":
            # tied two-step offsets resolve toward the squared instance's
            # canonical orientation: the smallest tied offset before the
            # pivot, the tied offset with the smallest negation after it
            tied = [c for c in range(q) if tally[c] == max(tally)]
            off = min(tied) if v < pivot else min(tied, key=lambda c: (q - c) % q)
            final[v] = (off + pivot_label) % q
        else:
            final[v] = max(range(q), key=lambda c: (tally[c], -c))
    return final


class TestVoting:
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_round_matches_loop_oracle(self, rng, kind):
        for _ in range(8):
            n = int(rng.integers(3, 8))
            q = int(rng.integers(1, 4))
            g = rand_instance(rng, n, q, kind)
            p = int(rng.integers(n))
            l = int(rng.integers(q))
            assert (voting_single(g, p, l) == vote_oracle(g, p, l)).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_is_minimum_over_rounds(self, rng, kind):
        for _ in range(6):
            n = int(rng.integers(3, 7))
            q = int(rng.integers(2, 4))
            g = rand_instance(rng, n, q, kind)
            rep = voting_solve(g)
            labels = range(q) if kind == "perm" else [0]
            best = min(
                violated_oracle(g, vote_oracle(g, p, l))
                for p in range(n)
                for l in labels
            )
            assert rep.violated == best
            assert violated_oracle(g, rep.assignment) == rep.violated

    def test_satisfiable_solved_exactly(self):
        for kind in KINDS:
            for seed in range(5):
                g = planted(9, 3, 0, kind=kind, rng=seed).instance
                assert voting_solve(g).violated == 0

    def test_equals_pivot_on_squared_instance(self, rng):
        # uniform offsets at q = 2 tie the plurality about a third of the
        # time, so this exercises the direction-aware tie resolution
        for n, q in [(6, 2)] * 20 + [(7, 3)] * 10:
            g = rand_lineq(rng, n, q)
            sq = to_square_instance(g)
            for p in range(n):
                for l in range(q):
                    assert (voting_single(g, p, l) == pivot_assign(sq, p, l)).all()

    def test_two_vertices_fall_back_to_pivot(self, rng):
        g = rand_lineq(rng, 2, 3)
        rep = voting_solve(g)
        assert rep.violated == 0 and rep.extra == {"fallback": "pivot"}
        with pytest.raises(ValueError):
            voting_single(g, 0, 0)

    def test_rejects_dense(self, rng):
        with pytest.raises(ValueError):
            voting_solve(rand_dense(rng, 5, 2, "cyclic", removals=2))


class TestRandomizedVoting:
    def test_deterministic_and_matches_fixed_pivot(self, rng):
        for kind in KINDS:
            g = rand_instance(rng, 7, 3, kind)
            rep = randomized_voting(g, rng=3)
            again = randomized_voting(g, rng=3)
            assert (rep.assignment == again.assignment).all()
            assert set(rep.extra["phases"]) == {"round", "evaluate"}
            assert all(t >= 0 for t in rep.extra["phases"].values())
            labels = range(3) if kind == "perm" else [0]
            best = min(
                (violated_oracle(g, vote_oracle(g, rep.pivot, l)), l)
                for l in labels
            )
            assert (rep.violated, rep.pivot_label) == best

    def test_satisfiable_solved_exactly(self):
        for kind in KINDS:
            g = planted(8, 4, 0, kind=kind, rng=2).instance
            for seed in range(5):
                assert randomized_voting(g, rng=seed).violated == 0

    def test_two_vertices_fall_back_to_pivot(self, rng):
        for kind in KINDS:
            g = rand_instance(rng, 2, 3, kind)
            gen, twin = np.random.default_rng(5), np.random.default_rng(5)
            rep = randomized_voting(g, rng=gen)
            assert rep.violated == 0 and rep.extra == {"fallback": "pivot"}
            assert rep.algorithm == "rvoting" and rep.seed is None
            # the pivot is drawn before the fallback, as at n >= 3
            twin.integers(2)
            assert gen.integers(1 << 30) == twin.integers(1 << 30)
            assert randomized_voting(g, rng=7).seed == 7


def dense_vote_oracle(g, pivot, pivot_label):
    n, q = g.n, g.q
    temp = pivot_assign(g, pivot, pivot_label)
    final = np.empty(n, dtype=int)
    for v in range(n):
        tally = [0] * q
        voters = 0
        for u in range(n):
            if u == v or temp[u] == UNLABELED or not g.present(u, v):
                continue
            voters += 1
            if g.kind == "cyclic":
                vote = (g.base.offset(v, u) + temp[u]) % q
            else:
                vote = int(g.base.perm(u, v)[temp[u]])
            tally[vote] += 1
        if voters:
            final[v] = max(range(q), key=lambda c: (tally[c], -c))
        else:
            final[v] = temp[v] if temp[v] != UNLABELED else 0
    return final


class TestDenseVoting:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_loop_oracle(self, rng, kind):
        for _ in range(8):
            n = int(rng.integers(4, 9))
            q = int(rng.integers(2, 4))
            d = rand_dense(rng, n, q, kind, removals=n)
            p = int(rng.integers(n))
            l = int(rng.integers(q))
            # the bincount round that test_kernel checks the kernel against
            assert (dense_voting_round_oracle(d, p, l) == dense_vote_oracle(d, p, l)).all()
            rep = dense_voting(d)
            assert (rep.assignment == dense_vote_oracle(d, rep.pivot, rep.pivot_label)).all()

    def test_exact_on_satisfiable_sparsified(self, rng):
        from ugsolve.generators import sparsify_everywhere_dense

        for kind in KINDS:
            for seed in range(5):
                base = planted(10, 3, 0, kind=kind, rng=seed).instance
                d = sparsify_everywhere_dense(base, 0.3, rng=seed)
                assert dense_voting(d).violated == 0

    def test_accepts_complete_input(self, rng):
        g = planted(7, 3, 0, rng=1).instance
        assert dense_voting(g).violated == 0

    def test_report_is_consistent(self, rng):
        d = rand_dense(rng, 7, 3, "cyclic", removals=4)
        rep = dense_voting(d)
        assert rep.violated == violated_oracle(d, rep.assignment)
        assert rep.algorithm == "dense-voting"


class TestBruteForce:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_exhaustive_oracle(self, rng, kind):
        for _ in range(8):
            n = int(rng.integers(2, 6))
            q = int(rng.integers(1, 4))
            g = rand_instance(rng, n, q, kind)
            opt, best = brute_oracle(g)
            rep = brute_force(g)
            assert rep.violated == opt
            assert (rep.assignment == best).all()  # lexicographically smallest

    def test_dense_matches_exhaustive_oracle(self, rng):
        for kind in KINDS:
            d = rand_dense(rng, 5, 3, kind, removals=3)
            opt, best = brute_oracle(d)
            rep = brute_force(d)
            assert rep.violated == opt
            assert (rep.assignment == best).all()

    def test_limit_enforced(self, rng):
        g = rand_lineq(rng, 12, 3)
        with pytest.raises(ResourceLimitError):
            brute_force(g, limit=1000)
        rep = brute_force(g, limit=3**11)
        assert rep.extra["search_space"] == 3**11

    def test_q1(self, rng):
        g = rand_lineq(rng, 5, 1)
        rep = brute_force(g)
        assert rep.violated == 0 and (rep.assignment == 0).all()


class TestTightExample:
    def test_pivot_value_closed_forms(self):
        for n in (5, 6, 8, 12):
            assert pivot_best(tight_pivot_example(n, 2)).violated == 3 * n - 12
            for q in (3, 5):
                assert pivot_best(tight_pivot_example(n, q)).violated == 3 * n - 9

    def test_all_equal_cost_is_n(self):
        for n, q in [(6, 2), (9, 3)]:
            g = tight_pivot_example(n, q)
            assert violated_count(g, np.zeros(n, dtype=int)) == n

    def test_all_equal_is_optimal_from_seven_vertices(self):
        for n, q in [(7, 2), (8, 2), (7, 3), (10, 3)]:
            assert brute_force(tight_pivot_example(n, q)).violated == n


class TestFlipDiagnostics:
    @pytest.mark.parametrize("kind", KINDS)
    def test_flip_count_bound_is_exact(self, rng, kind):
        for seed in range(12):
            n = int(rng.integers(5, 10))
            q = int(rng.integers(2, 4))
            k = int(rng.integers(0, n))
            g = planted(n, q, k, kind=kind, rng=seed).instance
            opt = brute_force(g).assignment
            diag = flip_diagnostics(g, opt)
            assert diag.opt_violated == violated_oracle(g, opt)
            assert int(diag.red_degrees.sum()) == 2 * diag.opt_violated
            for v in range(n):
                red = 0
                for u in range(n):
                    if u == v:
                        continue
                    if kind == "cyclic":
                        ok = (opt[u] - opt[v]) % q == g.offset(u, v)
                    else:
                        ok = g.perm(u, v)[opt[u]] == opt[v]
                    red += not ok
                assert diag.red_degrees[v] == red
            assert diag.flippable_count_bounded

    def test_low_corruption_flips_only_flippable(self):
        for seed in range(10):
            g = planted(12, 3, 2, rng=seed).instance
            opt = brute_force(g).assignment
            diag = flip_diagnostics(g, opt)
            assert diag.only_flippable_flipped

    def test_satisfiable_never_flips(self):
        for kind in KINDS:
            g = planted(9, 3, 0, kind=kind, rng=4).instance
            diag = flip_diagnostics(g, brute_force(g).assignment)
            assert diag.flipped_count == 0 and diag.eps == 0
