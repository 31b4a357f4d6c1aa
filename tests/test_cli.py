import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ugsolve import cli
from ugsolve.bench import CSV_HEADER
from ugsolve.certify import inconsistent_triangles, triangle_packing_lb
from ugsolve.cli import main
from ugsolve.core import DenseInstance, LinEqInstance, UgInstance, violated_count
from ugsolve.fileio import read_assignment, read_instance, write_assignment, write_instance
from ugsolve.generators import planted, tight_pivot_example


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_planted_writes_instance_and_assignment(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        assign = tmp_path / "a.txt"
        code, out, _ = run(
            capsys, "gen", "planted", "--n", "8", "--q", "3", "--corrupt", "4",
            "--seed", "7", "-o", str(inst), "--assign-out", str(assign),
        )
        assert code == 0
        assert "corruptions=4" in out
        g = read_instance(inst)
        labels = read_assignment(assign)
        assert isinstance(g, LinEqInstance) and g.n == 8 and g.q == 3
        assert violated_count(g, labels) == 4
        assert g == planted(8, 3, 4, rng=7).instance

    def test_planted_perm_kind(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "planted", "--n", "6", "--q", "2", "--kind", "perm",
            "-o", str(inst),
        )
        assert code == 0
        assert isinstance(read_instance(inst), UgInstance)

    def test_noise(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, out, _ = run(
            capsys, "gen", "noise", "--n", "9", "--q", "3", "--p-noise", "0.3",
            "--seed", "1", "-o", str(inst),
        )
        assert code == 0 and "corruptions=" in out
        assert read_instance(inst).n == 9

    def test_tight(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "tight", "--n", "10", "--q", "3", "-o", str(inst))
        assert code == 0
        assert read_instance(inst) == tight_pivot_example(10, 3)

    def test_dense(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, out, _ = run(
            capsys, "gen", "dense", "--n", "10", "--q", "2", "--delta", "0.3",
            "-o", str(inst),
        )
        assert code == 0 and "density=dense" in out
        assert isinstance(read_instance(inst), DenseInstance)

    def test_gadget(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, out, _ = run(
            capsys, "gen", "gadget", "--q", "3", "--ell", "6", "--seed", "0",
            "-o", str(inst),
        )
        assert code == 0 and "band=" in out
        g = read_instance(inst)
        assert g.n == 12 and isinstance(g, DenseInstance)

    def test_gadget_failure_exit_code(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, _, err = run(
            capsys, "gen", "gadget", "--q", "3", "--ell", "6", "--beta", "0.01",
            "--max-attempts", "2", "-o", str(inst),
        )
        assert code == 3 and "error:" in err
        assert not inst.exists()

    @pytest.mark.parametrize("attempts", ["0", "-2"])
    def test_gadget_rejects_non_positive_attempts(self, capsys, tmp_path, attempts):
        inst = tmp_path / "g.txt"
        code, out, err = run(
            capsys, "gen", "gadget", "--q", "3", "--ell", "6",
            "--max-attempts", attempts, "-o", str(inst),
        )
        assert (code, out) == (3, "")
        assert err == "error: max_attempts must be >= 1\n"
        assert not inst.exists()

    def test_reduce_md2(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "reduce-md2", "--n", "7", "--p-minus", "0.4", "-o", str(inst),
        )
        assert code == 0
        g = read_instance(inst)
        assert g.q == 2 and g.kind == "cyclic"

    def test_pad_ug(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        assign = tmp_path / "a.txt"
        code, out, _ = run(
            capsys, "gen", "pad-ug", "--n", "4", "--p-minus", "0.5", "--q", "3",
            "--pad-m", "2", "-o", str(inst), "--assign-out", str(assign),
        )
        assert code == 0 and "intended_cost=" in out
        g = read_instance(inst)
        labels = read_assignment(assign)
        assert g.kind == "perm" and g.n == 6
        cost = int(out.split("intended_cost=")[1].split()[0])
        assert violated_count(g, labels) == cost

    def test_blowup(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "blowup", "--n", "6", "--q", "2", "--delta", "0.4",
            "--k", "4", "-o", str(inst),
        )
        assert code == 0
        g = read_instance(inst)
        assert isinstance(g, LinEqInstance) and g.n == 24

    def test_blowup_star(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "blowup", "--n", "6", "--q", "2", "--delta", "0.4",
            "--k", "2", "--star", "-o", str(inst),
        )
        assert code == 0
        assert isinstance(read_instance(inst), DenseInstance)

    def test_validation_error_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "planted", "--n", "5", "--q", "2", "--corrupt", "99",
            "-o", str(tmp_path / "g.txt"),
        )
        assert code == 3 and "error:" in err

    def test_memory_error_exit_code(self, capsys, tmp_path, monkeypatch):
        # stands in for numpy refusing an allocation; no large array is made
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 372. TiB for an array")

        monkeypatch.setattr(cli, "planted", refuse)
        code, _, err = run(
            capsys, "gen", "planted", "--n", "10000000", "--q", "2",
            "-o", str(tmp_path / "g.txt"),
        )
        assert code == 4 and err.startswith("error: Unable to allocate")
        assert not (tmp_path / "g.txt").exists()


class TestSolve:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(planted(7, 3, 2, rng=5).instance, path)
        return path

    def test_human_output(self, capsys, instance_path):
        code, out, _ = run(capsys, "solve", str(instance_path), "--alg", "pivot")
        assert code == 0
        assert "algorithm: pivot" in out
        assert "val:" in out and "pivot:" in out

    def test_json_output_and_assignment(self, capsys, instance_path, tmp_path):
        assign = tmp_path / "a.txt"
        code, out, _ = run(
            capsys, "solve", str(instance_path), "--alg", "brute",
            "--json", "--assign-out", str(assign),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 7 and payload["q"] == 3 and payload["kind"] == "cyclic"
        g = read_instance(instance_path)
        labels = read_assignment(assign)
        assert violated_count(g, labels) == payload["val"]
        assert payload["parse_ms"] >= 0 and payload["parser"] == "fast"

    def test_json_names_the_reference_parser(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        write_instance(planted(5, 3, 1, rng=0).instance, inst)
        inst.write_text("# commented\n" + inst.read_text())
        code, out, _ = run(capsys, "solve", str(inst), "--alg", "pivot", "--json")
        assert code == 0 and json.loads(out)["parser"] == "reference"

    @pytest.mark.parametrize(
        "alg", ["pivot", "pivot-random", "voting", "rvoting", "dense-voting",
                "brute", "greedy-max", "ptas"],
    )
    def test_every_algorithm_runs(self, capsys, instance_path, alg):
        code, out, _ = run(capsys, "solve", str(instance_path), "--alg", alg, "--json")
        assert code == 0
        assert json.loads(out)["val"] >= 0

    def test_json_extra_keeps_numbers(self, capsys, instance_path):
        code, out, _ = run(capsys, "solve", str(instance_path), "--alg", "voting", "--json")
        extra = json.loads(out)["extra"]
        assert code == 0 and extra["kernel"]["dtype"] == "float32"
        assert all(isinstance(t, float) for t in extra["phases"].values())
        code, out, _ = run(capsys, "solve", str(instance_path), "--alg", "ptas", "--json")
        extra = json.loads(out)["extra"]
        assert isinstance(extra["voting_val"], int) and isinstance(extra["eps_hat"], str)

    def test_brute_json_reports_kernel_and_phases(self, capsys, instance_path):
        code, out, _ = run(capsys, "solve", str(instance_path), "--alg", "brute", "--json")
        extra = json.loads(out)["extra"]
        kernel = extra["kernel"]
        assert code == 0 and kernel["path"] == "split" and kernel["dtype"] == "int32"
        assert isinstance(kernel["low_block"], int) and isinstance(kernel["row_block"], int)
        assert extra["search_space"] == 3**6
        assert set(extra["phases"]) == {"build", "search"}
        assert all(isinstance(t, float) for t in extra["phases"].values())

    def test_ptas_json_keeps_voting_metadata(self, capsys, instance_path):
        code, out, _ = run(capsys, "solve", str(instance_path), "--alg", "ptas", "--json")
        extra = json.loads(out)["extra"]
        assert code == 0 and extra["kernel"]["path"] == "cyclic-complete"
        assert isinstance(extra["phases"]["counts"], float)

    def test_absurd_vertex_count_exit_code(self, capsys, tmp_path):
        # the n x n arrays of this header cannot be allocated at all
        path = tmp_path / "huge.txt"
        path.write_text("uginst 1\nmode cyclic\nq 3\nn 1000000000\ndensity full\n0 1 2\n")
        code, _, err = run(capsys, "solve", str(path), "--alg", "pivot")
        assert code == 4 and "n=1000000000, q=3" in err

    def test_ptas_infinite_tau_exit_code(self, capsys, instance_path):
        code, _, err = run(
            capsys, "solve", str(instance_path), "--alg", "ptas", "--tau", "inf",
        )
        assert code == 3 and err == "error: tau must be finite\n"

    def test_brute_limit_exit_code(self, capsys, instance_path):
        code, _, err = run(
            capsys, "solve", str(instance_path), "--alg", "brute", "--limit", "10",
        )
        assert code == 4 and "error:" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.txt"), "--alg", "pivot")
        assert code == 3 and "error:" in err

    def test_unknown_algorithm_is_usage_error(self, capsys, instance_path):
        code, _, _ = run(capsys, "solve", str(instance_path), "--alg", "magic")
        assert code == 2


class TestVerify:
    def test_counts_and_expectation(self, capsys, tmp_path):
        rep = planted(6, 3, 3, rng=2)
        inst = tmp_path / "g.txt"
        assign = tmp_path / "a.txt"
        write_instance(rep.instance, inst)
        write_assignment(rep.planted, assign)
        code, out, _ = run(capsys, "verify", str(inst), str(assign))
        assert code == 0 and "violated: 3" in out

        code, _, _ = run(capsys, "verify", str(inst), str(assign), "--expect", "3")
        assert code == 0

        code, _, err = run(capsys, "verify", str(inst), str(assign), "--expect", "0")
        assert code == 1 and "expected 0, got 3" in err

    def test_wrong_length_assignment(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        assign = tmp_path / "a.txt"
        write_instance(planted(6, 2, 0, rng=0).instance, inst)
        write_assignment([0, 1, 0], assign)
        code, _, err = run(capsys, "verify", str(inst), str(assign))
        assert code == 3 and "error:" in err

    def test_label_beyond_64_bits_exit_code(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        assign = tmp_path / "a.txt"
        write_instance(planted(2, 2, 0, rng=0).instance, inst)
        assign.write_text("ugassign 1\n0 99999999999999999999999\n1 0\n")
        code, _, err = run(capsys, "verify", str(inst), str(assign))
        assert code == 3 and err.startswith("error: line 2: labels must be below 2**63")


class TestCertify:
    def test_reports_count_and_bound(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        g = planted(7, 3, 2, rng=3).instance
        write_instance(g, inst)
        code, out, _ = run(capsys, "certify", str(inst), "--val", "4")
        assert code == 0
        assert "inconsistent_triangles:" in out
        assert "packing_lower_bound:" in out
        assert "certified_ratio:" in out
        assert f"inconsistent_triangles: {inconsistent_triangles(g)}\n" in out
        assert f"packing_lower_bound: {triangle_packing_lb(g, rng=0).lower_bound}\n" in out

    def test_negative_val_exit_code(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        write_instance(planted(7, 3, 2, rng=3).instance, inst)
        code, out, err = run(capsys, "certify", str(inst), "--val", "-3")
        assert (code, out) == (3, "")
        assert err == "error: --val must be >= 0, got -3\n"

    def test_zero_val_is_accepted(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        write_instance(planted(7, 3, 2, rng=3).instance, inst)
        code, out, _ = run(capsys, "certify", str(inst), "--val", "0")
        assert code == 0 and "certified_ratio: 0\n" in out

    def test_zero_bound_ratio_is_na(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        write_instance(planted(6, 3, 0, rng=0).instance, inst)
        code, out, _ = run(capsys, "certify", str(inst), "--val", "2")
        assert code == 0 and "n/a" in out


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--alg", "pivot", "voting", "--n", "5", "6",
            "--q", "2", "--corrupt-frac", "0.2", "--seeds", "0", "1",
            "--threads", "1", "--out", "-",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--alg", "brute", "--n", "5", "--q", "2",
            "--threads", "1", "--out", str(out_path),
        )
        assert code == 0 and "wrote 1 rows" in out
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 2

    def test_tau_is_not_a_bench_option(self, capsys):
        # tau reaches only ptas diagnostics that no CSV column holds
        code, out, err = run(
            capsys, "bench", "--alg", "ptas", "--n", "5", "--q", "2",
            "--tau", "0.5", "--out", "-",
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --tau 0.5" in err

    def test_error_rows_reported_on_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, err = run(
            capsys, "bench", "--alg", "greedy-max", "--n", "8", "--q", "2",
            "--delta", "0.25", "--threads", "1", "--out", str(out_path),
        )
        assert code == 0
        assert "1 rows recorded errors" in err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and "ugsolve" in out

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "{inst}", "--alg", "pivot-random", "--seed", "-1"],
        ["certify", "{inst}", "--seed", "-1"],
        ["gen", "planted", "--n", "5", "--q", "2", "--seed", "-1", "-o", "{out}"],
        ["bench", "--alg", "pivot", "--n", "5", "--q", "2", "--seeds", "-1", "--out", "-"],
    ])
    def test_negative_seed_exit_code(self, capsys, tmp_path, argv):
        inst, out = tmp_path / "g.txt", tmp_path / "out.txt"
        write_instance(planted(5, 2, 0, rng=0).instance, inst)
        code, stdout, err = run(capsys, *(a.format(inst=inst, out=out) for a in argv))
        assert (code, stdout, err) == (3, "", "error: seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_only_runtime_dependency_is_numpy(self):
        # a fresh interpreter: the test session has imported far more
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import ugsolve\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["numpy", "ugsolve"]

    def test_round_trip_through_solve_and_verify(self, capsys, tmp_path):
        inst = tmp_path / "g.txt"
        assign = tmp_path / "a.txt"
        run(capsys, "gen", "planted", "--n", "9", "--q", "4", "--corrupt", "5",
            "--seed", "3", "-o", str(inst))
        code, out, _ = run(
            capsys, "solve", str(inst), "--alg", "voting", "--json",
            "--assign-out", str(assign),
        )
        val = json.loads(out)["val"]
        code, _, _ = run(capsys, "verify", str(inst), str(assign), "--expect", str(val))
        assert code == 0
