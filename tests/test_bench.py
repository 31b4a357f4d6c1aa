import io
import threading

import pytest

from ugsolve import bench
from ugsolve.bench import (
    ALGORITHMS,
    CSV_HEADER,
    BenchRow,
    resolve_threads,
    run_algorithm,
    run_bench,
    write_csv,
)
from ugsolve.generators import planted
from ugsolve.ptas import PtasConfig, greedy_max, ptas_solve


class TestResolveThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_zero_means_auto(self):
        assert resolve_threads(0) >= 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("UGSOLVE_THREADS", "2")
        assert resolve_threads() == 2
        monkeypatch.setenv("UGSOLVE_THREADS", "0")
        assert resolve_threads() >= 1

    def test_bad_values(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_threads(-1)
        monkeypatch.setenv("UGSOLVE_THREADS", "many")
        with pytest.raises(ValueError):
            resolve_threads()


class TestRunAlgorithm:
    def test_every_name_dispatches(self):
        g = planted(7, 3, 2, rng=0).instance
        for alg in ALGORITHMS:
            assert run_algorithm(alg, g, 3).violated >= 0

    def test_options_reach_the_solver(self):
        g = planted(9, 3, 6, kind="perm", rng=1).instance
        rep = run_algorithm("greedy-max", g, 4, restarts=2)
        assert rep.extra["restarts"] == 2
        assert rep.violated == greedy_max(g, rng=4, restarts=2).violated
        rep = run_algorithm("ptas", g, 4, tau=0.25, restarts=2)
        want = ptas_solve(g, PtasConfig(tau=0.25, seed=4, greedy_restarts=2))
        # phase timings differ between runs; the rest must agree
        rep.extra.pop("phases"), want.extra.pop("phases")
        assert rep.extra == want.extra

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_algorithm("magic", planted(5, 2, 0, rng=0).instance)


class TestRunBench:
    def test_row_order_and_shape(self):
        rows = run_bench(
            ["pivot", "voting"],
            ns=[5, 6],
            qs=[2],
            corrupt_fracs=[0.0, 0.2],
            seeds=[0, 1],
            threads=1,
        )
        # cells in product order, then seeds, then algorithms
        assert len(rows) == 2 * 1 * 2 * 2 * 2
        key = [(r.n, r.q, r.delta, r.seed, r.algorithm) for r in rows]
        assert key[0] == (5, 2, 0.0, 0, "pivot")
        assert key[1] == (5, 2, 0.0, 0, "voting")
        assert key[2] == (5, 2, 0.0, 1, "pivot")
        assert key[-1] == (6, 2, 0.0, 1, "voting")

    def test_thread_count_does_not_change_results(self):
        kwargs = dict(
            ns=[5, 6],
            qs=[2, 3],
            corrupt_fracs=[0.2],
            seeds=[0, 1],
        )
        def strip_timing(rows):
            return [
                (
                    r.algorithm, r.n, r.q, r.delta, r.seed, r.corruptions,
                    r.opt_or_lb, r.opt_exact, r.val, r.ratio, r.error,
                )
                for r in rows
            ]

        serial = run_bench(["pivot", "rvoting", "ptas"], threads=1, **kwargs)
        parallel = run_bench(["pivot", "rvoting", "ptas"], threads=4, **kwargs)
        assert strip_timing(serial) == strip_timing(parallel)

    def test_cells_run_on_the_calling_thread(self, monkeypatch):
        # one worker meets every cap: under threads=4 every cell still runs
        # on the caller's thread, and no thread outlives the call
        idents = []
        cell_rows = bench._cell_rows

        def recording(*task):
            idents.append(threading.get_ident())
            return cell_rows(*task)

        monkeypatch.setattr(bench, "_cell_rows", recording)
        before = threading.active_count()
        rows = run_bench(["pivot", "rvoting"], ns=[5, 6], qs=[2], seeds=[0, 1], threads=4)
        assert len(rows) == 8
        assert idents == [threading.get_ident()] * 4
        assert threading.active_count() == before

    def test_bad_thread_cap_is_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(bench, "_cell_rows", lambda *task: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="thread count must be >= 0"):
            run_bench(["pivot"], ns=[5], qs=[2], threads=-1)
        monkeypatch.setenv("UGSOLVE_THREADS", "many")
        with pytest.raises(ValueError, match="UGSOLVE_THREADS must be an integer"):
            run_bench(["pivot"], ns=[5], qs=[2])

    def test_negative_seed_is_rejected_up_front(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run_bench(["pivot"], ns=[5], qs=[2], seeds=[0, -1], threads=1)

    def test_exact_optimum_when_brute_feasible(self):
        rows = run_bench(["pivot"], ns=[6], qs=[2], corrupt_fracs=[0.3], seeds=[0, 1, 2], threads=1)
        for r in rows:
            assert r.opt_exact is True
            assert r.error == ""
            assert r.ratio is not None
            assert r.val >= r.opt_or_lb

    def test_packing_fallback_when_brute_infeasible(self):
        rows = run_bench(
            ["voting"], ns=[40], qs=[3], corrupt_fracs=[0.1], seeds=[0],
            brute_limit=1000, threads=1,
        )
        (r,) = rows
        assert r.opt_exact is False
        assert r.opt_or_lb >= 0 and r.val is not None and r.error == ""

    def test_tight_family_values(self):
        rows = run_bench(["pivot"], ns=[10, 20], qs=[2], family="tight", threads=1)
        assert [r.val for r in rows] == [18, 48]
        assert all(r.corruptions is None for r in rows)

    def test_noise_family_records_corruptions(self):
        rows = run_bench(
            ["voting"], ns=[8], qs=[3], corrupt_fracs=[0.4], seeds=[0],
            family="noise", threads=1,
        )
        (r,) = rows
        assert r.corruptions is not None and 0 <= r.corruptions <= 28

    def test_dense_cells_run_dense_algorithms(self):
        rows = run_bench(
            ["dense-voting"], ns=[8], qs=[2], deltas=[0.25],
            corrupt_fracs=[0.1], seeds=[0], threads=1,
        )
        (r,) = rows
        assert r.error == "" and r.delta == 0.25 and r.val is not None

    def test_algorithm_errors_are_captured_per_row(self):
        # greedy-max refuses dense instances; the row records the error and
        # the sweep keeps going with the dense-capable solver.
        rows = run_bench(
            ["greedy-max", "dense-voting"], ns=[8], qs=[2], deltas=[0.25],
            corrupt_fracs=[0.0], seeds=[0], threads=1,
        )
        bad, good = rows
        assert bad.algorithm == "greedy-max"
        assert bad.val is None and "complete" in bad.error
        assert bad.error.startswith("ValueError: ")
        assert good.val == 0 and good.error == ""

    def test_generation_errors_are_captured_per_row(self):
        # q = 1 cannot be corrupted, so generation fails and every algorithm
        # row for that cell carries the message.
        rows = run_bench(
            ["pivot", "voting"], ns=[6], qs=[1], corrupt_fracs=[0.5], seeds=[0],
            threads=1,
        )
        assert len(rows) == 2
        for r in rows:
            assert r.val is None and "q = 1" in r.error
            assert r.error.startswith("ValueError: ")

    def test_ptas_rows_use_the_default_tau(self):
        # the sweep has no tau of its own: ptas rows match run_algorithm's
        # default, and the keyword is gone
        (row,) = run_bench(["ptas"], ns=[6], qs=[2], corrupt_fracs=[0.2], threads=1)
        assert row.error == "" and row.val is not None
        with pytest.raises(TypeError):
            run_bench(["ptas"], ns=[6], qs=[2], tau=0.5)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            run_bench(["magic"], ns=[5], qs=[2])
        with pytest.raises(ValueError):
            run_bench(["pivot"], ns=[5], qs=[2], family="adversarial")


class TestBenchRow:
    def test_fields_after_seed_default_to_empty(self):
        row = BenchRow("pivot", 5, 2, 0.0, 0)
        assert (row.corruptions, row.opt_or_lb, row.opt_exact) == (None, None, None)
        assert (row.val, row.ratio, row.elapsed_ms, row.error) == (None, None, None, "")


class TestWriteCsv:
    def test_header_and_formatting(self):
        rows = run_bench(["pivot"], ns=[5], qs=[2], corrupt_fracs=[0.2], seeds=[0], threads=1)
        buf = io.StringIO()
        assert write_csv(rows, buf) == 1
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "pivot" and fields[1] == "5" and fields[2] == "2"
        assert fields[7] == "1"  # opt_exact flag

    def test_error_rows_keep_csv_shape(self):
        row = BenchRow(
            algorithm="pivot",
            n=5,
            q=2,
            delta=0.0,
            seed=0,
            corruptions=None,
            opt_or_lb=None,
            opt_exact=None,
            val=None,
            ratio=None,
            elapsed_ms=None,
            error="bad, line\nsecond",
        )
        buf = io.StringIO()
        write_csv([row], buf)
        line = buf.getvalue().strip().split("\n")[1]
        assert line.count(",") == len(CSV_HEADER.split(",")) - 1
        assert "bad; line second" in line
