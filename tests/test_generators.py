import itertools
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from conftest import brute_oracle, min_disagree2_oracle, signed_cost_oracle, violated_oracle

from ugsolve.core import DenseInstance, LinEqInstance, UgInstance, violated_count
from ugsolve.errors import GadgetGenerationError
from ugsolve.generators import (
    BlowupSpec,
    GadgetSpec,
    bipartite_gadget,
    blow_up,
    blow_up_star,
    brute_min_disagree2,
    noise_model,
    pad_to_ug,
    planted,
    random_signed_graph,
    reduce_mindisagree2,
    signed_cost,
    sparsify_everywhere_dense,
    tight_pivot_example,
)

KINDS = ["cyclic", "perm"]


def violated_pairs(g, labels):
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.kind == "cyclic":
                ok = (labels[u] - labels[v]) % g.q == g.offset(u, v)
            else:
                ok = g.perm(u, v)[labels[u]] == labels[v]
            if not ok:
                out.append((u, v))
    return out


class TestPlanted:
    @pytest.mark.parametrize("kind", KINDS)
    def test_planted_labeling_violates_exactly_the_corrupted_pairs(self, kind):
        for seed, (n, q, k) in enumerate(
            [(5, 2, 0), (5, 3, 3), (7, 4, 5), (6, 2, 15), (8, 5, 1)]
        ):
            out = planted(n, q, k, kind=kind, rng=seed)
            assert out.num_corrupt == k == len(out.corrupted)
            assert out.corrupted == sorted(out.corrupted)
            assert len(set(out.corrupted)) == k
            assert violated_pairs(out.instance, out.planted) == out.corrupted

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_corruption_is_satisfiable(self, kind):
        for seed in range(4):
            out = planted(6, 3, 0, kind=kind, rng=seed)
            opt, _ = brute_oracle(out.instance)
            assert opt == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_optimum_at_most_corruptions(self, kind):
        for seed in range(4):
            out = planted(6, 3, 4, kind=kind, rng=seed)
            opt, _ = brute_oracle(out.instance)
            assert opt <= 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_given_seed(self, kind):
        a = planted(7, 3, 3, kind=kind, rng=11)
        b = planted(7, 3, 3, kind=kind, rng=11)
        assert a.instance == b.instance
        assert np.array_equal(a.planted, b.planted)
        assert a.corrupted == b.corrupted

    def test_kinds_produce_matching_types(self):
        assert isinstance(planted(5, 2, 0, rng=0).instance, LinEqInstance)
        assert isinstance(planted(5, 2, 0, kind="perm", rng=0).instance, UgInstance)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            planted(5, 2, 0, kind="other")
        with pytest.raises(ValueError):
            planted(5, 2, 11)  # m = 10
        with pytest.raises(ValueError):
            planted(5, 2, -1)
        with pytest.raises(ValueError):
            planted(5, 1, 1)  # q = 1 cannot be violated

    def test_q_one_trivial(self):
        out = planted(6, 1, 0, rng=3)
        assert violated_count(out.instance, np.zeros(6, dtype=int)) == 0


class TestNoiseModel:
    def test_corrupted_are_exactly_the_violated_pairs(self):
        for seed in range(5):
            out = noise_model(9, 4, 0.3, rng=seed)
            assert violated_pairs(out.instance, out.planted) == out.corrupted

    def test_extreme_rates(self):
        assert noise_model(8, 3, 0.0, rng=0).corrupted == []
        full = noise_model(8, 3, 1.0, rng=0)
        assert len(full.corrupted) == 8 * 7 // 2

    def test_q_one_never_corrupts(self):
        assert noise_model(8, 1, 1.0, rng=0).corrupted == []

    def test_deterministic_given_seed(self):
        a = noise_model(10, 3, 0.2, rng=7)
        b = noise_model(10, 3, 0.2, rng=7)
        assert a.instance == b.instance and a.corrupted == b.corrupted

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            noise_model(5, 2, -0.1)
        with pytest.raises(ValueError):
            noise_model(5, 2, 1.5)


class TestTightPivotExample:
    def test_structure(self):
        g = tight_pivot_example(6, 3)
        for i in range(5):
            assert g.offset(i, i + 1) == 1
        assert g.offset(0, 5) == 2  # wrap: x_5 - x_0 = 1
        assert g.offset(0, 2) == 0 and g.offset(1, 4) == 0

    def test_all_equal_labeling_violates_cycle_edges_only(self):
        for n, q in [(6, 2), (8, 3), (9, 5)]:
            g = tight_pivot_example(n, q)
            assert violated_pairs(g, [0] * n) == sorted(
                [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
            )

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            tight_pivot_example(4, 2)
        with pytest.raises(ValueError):
            tight_pivot_example(6, 1)


class TestSparsify:
    def test_degree_floor_holds(self, rng):
        for _ in range(6):
            n = int(rng.integers(6, 14))
            q = int(rng.integers(2, 5))
            delta = float(rng.uniform(0.05, 0.45))
            g = planted(n, q, 0, rng=int(rng.integers(1 << 30))).instance
            d = sparsify_everywhere_dense(g, delta, rng=int(rng.integers(1 << 30)))
            floor = ceil((1 - Fraction(delta)) * (n - 1))
            assert d.degrees().min() >= floor
            assert d.delta <= Fraction(delta)

    def test_removal_is_maximal(self):
        # When the floor is strictly below n-1 the greedy pass keeps deleting
        # until some endpoint of every remaining edge sits at the floor.
        g = planted(12, 3, 0, rng=0).instance
        d = sparsify_everywhere_dense(g, 0.3, rng=1)
        floor = ceil((1 - Fraction(3, 10)) * 11)
        assert d.degrees().min() == floor

    def test_float_delta_reads_as_its_decimal(self):
        # (1 - 0.3) * 10 is exactly 7; the double nearest 0.3 would give 8
        d = sparsify_everywhere_dense(planted(11, 3, 0).instance, 0.3)
        assert d.degrees().min() == 7 and d.delta == Fraction(3, 10)

    def test_present_edges_keep_their_offsets(self):
        g = planted(9, 4, 3, rng=2).instance
        d = sparsify_everywhere_dense(g, 0.25, rng=3)
        eu, ev = d.edges()
        for u, v in zip(eu.tolist(), ev.tolist()):
            assert d.base.offset(u, v) == g.offset(u, v)

    def test_delta_zero_keeps_everything(self):
        g = planted(7, 2, 0, rng=0).instance
        d = sparsify_everywhere_dense(g, 0.0, rng=0)
        assert len(d.edges()[0]) == 21

    def test_deterministic_given_seed(self):
        g = planted(10, 3, 0, rng=4).instance
        a = sparsify_everywhere_dense(g, 0.3, rng=9)
        b = sparsify_everywhere_dense(g, 0.3, rng=9)
        assert a == b

    def test_rejects_bad_input(self):
        g = planted(6, 2, 0, rng=0).instance
        with pytest.raises(ValueError):
            sparsify_everywhere_dense(g, 1.0)
        with pytest.raises(ValueError):
            sparsify_everywhere_dense(g, -0.1)
        d = sparsify_everywhere_dense(g, 0.2, rng=0)
        with pytest.raises(ValueError):
            sparsify_everywhere_dense(d, 0.2)


class TestSignedGraphs:
    def test_random_graph_shape_and_extremes(self):
        h = random_signed_graph(7, 0.4, rng=0)
        assert np.array_equal(h.signs, h.signs.T)
        assert not h.signs.diagonal().any()
        assert random_signed_graph(5, 0.0, rng=0).signs.sum() == 5 * 4  # all +1
        assert random_signed_graph(5, 1.0, rng=0).signs.sum() == -5 * 4

    def test_cost_matches_oracle(self, rng):
        h = random_signed_graph(6, 0.5, rng=1)
        for _ in range(10):
            c = rng.integers(0, 2, 6)
            assert signed_cost(h, c) == signed_cost_oracle(h, c)

    def test_brute_minimum_and_tie_break(self):
        for seed in range(6):
            h = random_signed_graph(6, 0.5, rng=seed)
            cost, c = brute_min_disagree2(h)
            assert c[0] == 0
            assert (cost, tuple(c)) == min_disagree2_oracle(h)

    def test_cost_validation(self):
        h = random_signed_graph(4, 0.5, rng=0)
        with pytest.raises(ValueError):
            signed_cost(h, [0, 1, 2, 0])
        with pytest.raises(ValueError):
            signed_cost(h, [0, 1])


class TestReduceMinDisagree2:
    def test_costs_carry_over_for_every_clustering(self):
        for seed in range(8):
            h = random_signed_graph(6, 0.5, rng=seed)
            g = reduce_mindisagree2(h)
            assert isinstance(g, LinEqInstance) and g.q == 2 and g.n == 6
            for bits in itertools.product((0, 1), repeat=6):
                assert violated_count(g, bits) == signed_cost(h, list(bits))

    def test_optima_agree(self):
        for seed in range(6):
            h = random_signed_graph(7, 0.4, rng=seed)
            opt, _ = brute_oracle(reduce_mindisagree2(h))
            assert opt == brute_min_disagree2(h)[0]


class TestPadToUg:
    @pytest.mark.parametrize("n,q,M", [(4, 3, 2), (4, 3, 4), (5, 4, 2), (3, 5, 2)])
    def test_intended_cost_formula(self, n, q, M):
        h = random_signed_graph(n, 0.5, rng=n + q + M)
        cost, c = brute_min_disagree2(h)
        g, intended = pad_to_ug(h, q, M)
        assert g.n == n + (q - 2) * M
        assert np.array_equal(intended[:n], c)
        for i in range(2, q):
            blockvals = intended[n + (i - 2) * M : n + (i - 1) * M]
            assert (blockvals == i).all()
        assert violated_count(g, intended) == cost + n * M * (q - 2) // 2

    def test_explicit_clustering(self):
        h = random_signed_graph(5, 0.5, rng=3)
        c = [0, 1, 1, 0, 1]
        g, intended = pad_to_ug(h, 3, 4, clustering=c)
        assert list(intended[:5]) == c
        assert violated_count(g, intended) == signed_cost(h, c) + 5 * 4 * 1 // 2

    def test_intended_cost_does_not_depend_on_cluster_sides(self):
        # Each original vertex satisfies exactly half of its block edges no
        # matter which cluster it lands in, so the padding adds a constant.
        h = random_signed_graph(4, 0.5, rng=9)
        for bits in itertools.product((0, 1), repeat=4):
            g, intended = pad_to_ug(h, 3, 2, clustering=list(bits))
            assert (
                violated_count(g, intended)
                == signed_cost(h, list(bits)) + 4 * 2 * 1 // 2
            )

    def test_rejects_bad_parameters(self):
        h = random_signed_graph(4, 0.5, rng=0)
        with pytest.raises(ValueError):
            pad_to_ug(h, 2, 2)
        with pytest.raises(ValueError):
            pad_to_ug(h, 3, 3)
        with pytest.raises(ValueError):
            pad_to_ug(h, 3, 0)


def gadget_count_oracle(offsets, q, a, b):
    ell = offsets.shape[0]
    return sum(
        (a[i] - b[j]) % q == offsets[i, j] for i in range(ell) for j in range(ell)
    )


class TestBipartiteGadget:
    @pytest.mark.parametrize("q,ell,seed", [(2, 4, 5), (3, 6, 0)])
    def test_small_stats_match_full_enumeration(self, q, ell, seed):
        gadget = bipartite_gadget(GadgetSpec(q=q, ell=ell, seed=seed))
        # every (left, right) labeling pair at once: [a, b, i, j] marks arc (i, j)
        A = np.array(list(itertools.product(range(q), repeat=ell)), dtype=np.int8)
        sat = (A[:, None, :, None] - A[None, :, None, :]) % q == gadget.offsets
        counts = sat.sum(axis=(2, 3))
        assert gadget.mode == "exhaustive"
        assert gadget.min_satisfied == counts.min()
        assert gadget.max_satisfied == counts.max()
        assert Fraction(int(counts.sum()), counts.size) == gadget.mean == Fraction(ell * ell, q)

    def test_accepted_stats_sit_inside_band(self):
        gadget = bipartite_gadget(GadgetSpec(q=3, ell=6, seed=0))
        assert gadget.band_low <= gadget.min_satisfied
        assert gadget.max_satisfied <= gadget.band_high
        assert gadget.band_low == 12.0 - 1.00 * 6**1.5
        assert gadget.attempts >= 1

    def test_to_instance_round_trip(self, rng):
        gadget = bipartite_gadget(GadgetSpec(q=3, ell=6, seed=1))
        inst = gadget.to_instance()
        assert inst.n == 12 and len(inst.edges()[0]) == 36
        for _ in range(5):
            a = rng.integers(0, 3, 6)
            b = rng.integers(0, 3, 6)
            sat = gadget_count_oracle(gadget.offsets, 3, a, b)
            assert violated_count(inst, np.concatenate([a, b])) == 36 - sat

    def test_sampled_mode_for_large_ell(self):
        gadget = bipartite_gadget(GadgetSpec(q=5, ell=10, seed=2, samples=400))
        assert gadget.mode == "sampled"
        assert gadget.min_satisfied <= float(gadget.mean) <= gadget.max_satisfied

    def test_narrow_band_exhausts_attempts(self):
        spec = GadgetSpec(q=3, ell=6, seed=0, beta=0.01, max_attempts=3)
        with pytest.raises(GadgetGenerationError) as info:
            bipartite_gadget(spec)
        best = info.value.best
        assert 1 <= best.attempts <= 3
        assert (
            best.max_satisfied > best.band_high
            or best.min_satisfied < best.band_low
        )

    def test_deterministic_given_seed(self):
        a = bipartite_gadget(GadgetSpec(q=3, ell=6, seed=4))
        b = bipartite_gadget(GadgetSpec(q=3, ell=6, seed=4))
        assert np.array_equal(a.offsets, b.offsets) and a.attempts == b.attempts

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GadgetSpec(q=3, ell=3)  # needs ell > q
        with pytest.raises(ValueError):
            GadgetSpec(q=3, ell=8)  # needs q | ell
        with pytest.raises(ValueError):
            GadgetSpec(q=2, ell=4, beta=0.0)

    @pytest.mark.parametrize("field", ["max_attempts", "samples"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_spec_rejects_non_positive_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            GadgetSpec(q=3, ell=9, **{field: value})


def lift(labels, k):
    return np.repeat(np.asarray(labels), k)


class TestBlowup:
    def test_star_value_identity_on_complete_base(self):
        for seed in range(3):
            base = planted(4, 2, 2, rng=seed).instance
            big = blow_up_star(base, BlowupSpec(k=2))
            assert big.n == 8
            for _ in range(5):
                x = np.random.default_rng(seed).integers(0, 2, 4)
                assert violated_count(big, lift(x, 2)) == 4 * violated_count(base, x)
            opt, _ = brute_oracle(base)
            opt_big, _ = brute_oracle(big)
            assert opt_big == 4 * opt

    def test_star_preserves_absent_pairs(self):
        base = planted(6, 2, 0, rng=1).instance
        dense = sparsify_everywhere_dense(base, 0.4, rng=2)
        big = blow_up_star(dense, BlowupSpec(k=2))
        base_present = int(np.count_nonzero(np.triu(dense.present_matrix(), k=1)))
        expect = 6 * 1 + base_present * 4  # cloud-internal pairs + lifted edges
        assert len(big.edges()[0]) == expect
        P = big.present_matrix()
        for u, v in itertools.combinations(range(6), 2):
            block = P[2 * u : 2 * u + 2, 2 * v : 2 * v + 2]
            assert block.all() == dense.present(u, v)
            assert block.any() == dense.present(u, v)

    def test_full_blowup_on_complete_base_matches_star(self):
        base = planted(5, 3, 2, rng=0).instance
        spec = BlowupSpec(k=3)
        star = blow_up_star(base, spec)
        full = blow_up(base, spec)
        assert isinstance(full, LinEqInstance)
        assert star == DenseInstance.wrap_complete(full)

    def test_full_blowup_fills_absent_pairs_with_seeded_gadgets(self):
        base = planted(4, 2, 0, rng=3).instance
        upper = np.zeros((4, 4), dtype=bool)
        upper[0, 1] = upper[1, 2] = upper[2, 3] = upper[0, 3] = upper[1, 3] = True
        present = upper | upper.T
        dense = DenseInstance(base, present)
        assert not dense.present(0, 2)
        spec = BlowupSpec(k=4, seed=17)
        full = blow_up(dense, spec)
        assert isinstance(full, LinEqInstance) and full.n == 16
        seed = int(
            np.random.SeedSequence(17, spawn_key=(0,)).generate_state(1, np.uint64)[0]
        )
        gadget = bipartite_gadget(GadgetSpec(q=2, ell=4, seed=seed))
        block = full.offset_matrix()[0:4, 8:12]
        assert np.array_equal(block, gadget.offsets)
        again = blow_up(dense, spec)
        assert full == again

    def test_rejects_bad_parameters(self):
        base = planted(4, 3, 0, rng=0).instance
        with pytest.raises(ValueError):
            blow_up_star(base, BlowupSpec(k=2))  # k not a multiple of q
        with pytest.raises(ValueError):
            BlowupSpec(k=0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            BlowupSpec(k=2, seed=-1)
        perm = planted(4, 2, 0, kind="perm", rng=0).instance
        with pytest.raises(ValueError):
            blow_up_star(perm, BlowupSpec(k=2))

    def test_gadget_fill_needs_room(self):
        # k = q leaves no valid gadget shape once a pair is absent.
        base = planted(5, 2, 0, rng=1).instance
        dense = sparsify_everywhere_dense(base, 0.4, rng=1)
        with pytest.raises(ValueError):
            blow_up(dense, BlowupSpec(k=2))
