import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import brute_oracle, greedy_max_loop_oracle, rand_instance, violated_oracle

from ugsolve import solvers
from ugsolve.core import LinEqInstance
from ugsolve.generators import noise_model, planted, sparsify_everywhere_dense
from ugsolve.ptas import DEFAULT_GREEDY_RESTARTS, PtasConfig, greedy_max, ptas_solve
from ugsolve.solvers import voting_solve

KINDS = ["cyclic", "perm"]


class TestPtasConfig:
    def test_defaults(self):
        cfg = PtasConfig(tau=0.5)
        assert cfg.seed == 0 and cfg.greedy_restarts == DEFAULT_GREEDY_RESTARTS

    def test_validation(self):
        with pytest.raises(ValueError):
            PtasConfig(tau=0.0)
        with pytest.raises(ValueError):
            PtasConfig(tau=-1.0)
        with pytest.raises(ValueError):
            PtasConfig(tau=0.5, greedy_restarts=0)

    def test_rejects_non_finite_tau(self):
        with pytest.raises(ValueError, match="tau must be finite"):
            PtasConfig(tau=math.inf)
        with pytest.raises(ValueError):
            PtasConfig(tau=math.nan)


class TestGreedyMax:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_on_satisfiable(self, kind):
        for seed in range(5):
            g = planted(8, 3, 0, kind=kind, rng=seed).instance
            report = greedy_max(g, rng=seed, restarts=1)
            assert report.violated == 0
            assert violated_oracle(g, report.assignment) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_reported_value_matches_assignment(self, rng, kind):
        for _ in range(8):
            n = int(rng.integers(4, 9))
            q = int(rng.integers(2, 5))
            g = rand_instance(rng, n, q, kind)
            report = greedy_max(g, rng=3)
            assert report.violated == violated_oracle(g, report.assignment)
            opt, _ = brute_oracle(g)
            assert report.violated >= opt

    def test_deterministic_given_seed(self, rng):
        g = rand_instance(rng, 9, 3, "cyclic")
        a = greedy_max(g, rng=5)
        b = greedy_max(g, rng=5)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.violated == b.violated and a.seed == 5

    def test_numpy_integer_seed(self, rng):
        g = rand_instance(rng, 9, 3, "perm")
        a = greedy_max(g, rng=np.int64(5))
        b = greedy_max(g, rng=5)
        assert a.seed == 5 and np.array_equal(a.assignment, b.assignment)
        assert a.assignment.dtype == np.int64

    def test_more_restarts_never_hurt_with_shared_seed(self, rng):
        # Restart r of the longer run replays restart r of the shorter one.
        g = rand_instance(rng, 10, 4, "perm")
        one = greedy_max(g, rng=2, restarts=1)
        many = greedy_max(g, rng=2, restarts=10)
        assert many.violated <= one.violated

    def test_metadata(self, rng):
        g = rand_instance(rng, 6, 2, "cyclic")
        report = greedy_max(g, rng=1, restarts=4)
        assert report.algorithm == "greedy-max"
        assert report.extra["restarts"] == 4
        assert report.extra["kernel"] == {"path": "lockstep", "sweeps": 4, "chunk": 4}
        assert set(report.extra["phases"]) == {"sweeps", "evaluate"}
        assert all(t >= 0 for t in report.extra["phases"].values())
        perm = greedy_max(rand_instance(rng, 6, 3, "perm"), rng=1, restarts=4)
        assert perm.extra["kernel"]["sweeps"] == 12

    def test_rejects_bad_input(self, rng):
        g = planted(6, 2, 0, rng=0).instance
        with pytest.raises(ValueError):
            greedy_max(sparsify_everywhere_dense(g, 0.2, rng=0))
        with pytest.raises(ValueError):
            greedy_max(g, restarts=0)


def _tie_heavy(kind, n, q, seed):
    """45% noise: many plurality ties along every sweep."""
    if kind == "cyclic":
        return noise_model(n, q, 0.45, rng=seed).instance
    return planted(n, q, round(0.45 * n * (n - 1) / 2), kind="perm", rng=seed).instance


def _same_as_loop(g, seed, restarts):
    report = greedy_max(g, rng=seed, restarts=restarts)
    bad, labels = greedy_max_loop_oracle(g, rng=seed, restarts=restarts)
    assert report.violated == bad == violated_oracle(g, labels)
    assert np.array_equal(report.assignment, labels)
    return report


class TestLockstepSweeps:
    """The lockstep sweeps against one Python step per vertex and sweep."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", (5, 12, 30, 50))
    def test_tie_heavy_matches_loop_oracle(self, kind, n):
        for q in (2, 3, 5, 7):
            for seed in range(3):
                g = _tie_heavy(kind, n, q, seed=100 * n + 10 * q + seed)
                report = _same_as_loop(g, seed, restarts=1 + 2 * seed)
                assert report.extra["kernel"]["path"] == "lockstep"

    @pytest.mark.parametrize("kind", KINDS)
    def test_chunks_within_entry_cap(self, monkeypatch, kind):
        # a cap of three sweeps' tables: 4 or 12 sweeps over several chunks
        n, q = 9, 3
        monkeypatch.setattr(solvers, "ENTRY_CAP", 3 * n * q + 1)
        for seed in range(4):
            report = _same_as_loop(_tie_heavy(kind, n, q, seed), seed, restarts=4)
            assert report.extra["kernel"]["chunk"] == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_table_above_cap_runs_sweeps_alone(self, monkeypatch, kind):
        n, q = 10, 4
        monkeypatch.setattr(solvers, "ENTRY_CAP", n * q - 1)
        for seed in range(3):
            report = _same_as_loop(_tie_heavy(kind, n, q, seed), seed, restarts=3)
            assert report.extra["kernel"]["path"] == "per-sweep"
            assert report.extra["kernel"]["chunk"] == 1

    def test_huge_label_count_allocates_little(self):
        # a (sweeps, n, q) table would take 5 * 6 * 10^6 int32 entries
        q, n = 10**6, 6
        g = LinEqInstance(n, q, np.triu(np.random.default_rng(0).integers(0, 3, (n, n)), 1))
        tracemalloc.start()
        try:
            report = greedy_max(g, rng=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.extra["kernel"]["path"] == "per-sweep"
        bad, labels = greedy_max_loop_oracle(g, rng=2)
        assert report.violated == bad and np.array_equal(report.assignment, labels)


class TestPtasSolve:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_on_satisfiable(self, kind):
        for seed in range(4):
            g = planted(7, 3, 0, kind=kind, rng=seed).instance
            report = ptas_solve(g, PtasConfig(tau=0.5, seed=seed))
            assert report.violated == 0
            assert report.extra["regime_ok"] is True

    @pytest.mark.parametrize("kind", KINDS)
    def test_returns_minimum_of_both_branches(self, rng, kind):
        for _ in range(6):
            n = int(rng.integers(5, 10))
            q = int(rng.integers(2, 4))
            g = rand_instance(rng, n, q, kind)
            cfg = PtasConfig(tau=0.5, seed=9, greedy_restarts=3)
            report = ptas_solve(g, cfg)
            vote = voting_solve(g)
            greedy = greedy_max(g, rng=9, restarts=3)
            assert report.extra["voting_val"] == vote.violated
            assert report.extra["greedy_val"] == greedy.violated
            assert report.violated == min(vote.violated, greedy.violated)
            assert violated_oracle(g, report.assignment) == report.violated
            expect_branch = "voting" if vote.violated <= greedy.violated else "greedy"
            assert report.extra["branch"] == expect_branch
            assert report.algorithm == "ptas" and report.seed == 9

    def test_regime_diagnostics(self, rng):
        g = planted(8, 3, 6, rng=4).instance
        report = ptas_solve(g, PtasConfig(tau=0.5, seed=0))
        m = 8 * 7 // 2
        eps = Fraction(report.extra["voting_val"], m)
        assert report.extra["eps_hat"] == eps
        assert report.extra["nu_hat"] == 2 / (1 - 2 * eps)
        # the voting branch's own metadata survives, whichever branch wins
        assert report.extra["kernel"]["path"] == "cyclic-complete"
        assert set(report.extra["phases"]) == {"counts", "select"}

    def test_tiny_tau_flags_out_of_regime(self):
        g = planted(8, 3, 6, rng=4).instance
        noisy = ptas_solve(g, PtasConfig(tau=1e-9, seed=0))
        assert noisy.violated > 0
        assert noisy.extra["regime_ok"] is False

    def test_rejects_dense(self):
        g = planted(7, 2, 0, rng=0).instance
        d = sparsify_everywhere_dense(g, 0.2, rng=0)
        with pytest.raises(ValueError):
            ptas_solve(d, PtasConfig(tau=0.5))

    @pytest.mark.parametrize("kind", KINDS)
    def test_quality_on_noisy_instances(self, kind):
        # Looser per-instance version of the aggregate quality target.
        over = 0
        for seed in range(30):
            g = planted(7, 3, 3, kind=kind, rng=seed).instance
            report = ptas_solve(g, PtasConfig(tau=0.5, seed=seed))
            opt, _ = brute_oracle(g)
            assert report.violated >= opt
            if opt and report.violated > 1.5 * opt:
                over += 1
        assert over <= 2
