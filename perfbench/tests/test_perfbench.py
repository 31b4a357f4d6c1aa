"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ugsolve as ug  # noqa: E402

import check  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.TINY) == set(workloads.FULL)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted(name, trace):
    record = harness.measure(name, seed=3, seconds=0, trace=trace, sizes=workloads.TINY)
    assert record["failed"] == 0, record["failures"]
    want = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    missing = [m for m in want if m not in record["values"]]
    assert not missing
    assert all(math.isfinite(record["values"][m]) for m in want)


def _tiny(name):
    return workloads.build(name, 5, workloads.TINY)


def test_checker_rejects_val_off_by_one():
    g = ug.planted(12, 3, 4, rng=1).instance
    rep = ug.voting_solve(g)
    assert check.check_report(g, rep) == []
    assert check.check_report(g, replace(rep, violated=rep.violated + 1))
    assert check.check_report(g, replace(rep, violated=rep.violated - 1))


def test_checker_rejects_non_disjoint_packing():
    g = ug.planted(12, 3, 8, rng=1).instance
    cert = ug.triangle_packing_lb(g, rng=0)
    assert cert.triangles
    assert check.check_packing(g, cert, planted_count=8) == []
    u, v, w = cert.triangles[0]
    x = next(x for x in range(g.n) if x not in (u, v, w))
    doubled = ug.PackingCertificate(triangles=cert.triangles + [(u, v, x)], seed=None)
    problems = check.check_packing(g, doubled, planted_count=10**6)
    assert any("share an edge" in p for p in problems)


def test_checker_rejects_consistent_triangle_and_loose_bound():
    g = ug.planted(12, 3, 0, rng=1).instance  # satisfiable: every triangle consistent
    cert = ug.PackingCertificate(triangles=[(0, 1, 2)], seed=None)
    problems = check.check_packing(g, cert, planted_count=0)
    assert any("consistent" in p for p in problems)
    assert any("exceeds planted" in p for p in problems)


def test_checker_rejects_bench_bound_above_planted():
    row = ug.BenchRow(algorithm="voting", n=12, q=4, delta=1.0, seed=0, corruptions=6,
                      opt_or_lb=6, opt_exact=False, val=7, ratio=7 / 6, elapsed_ms=1.0)
    assert check.check_rows([row], 1) == []
    problems = check.check_rows([replace(row, opt_or_lb=7, ratio=1.0)], 1)
    assert any("packing LB 7 above planted 6" in p for p in problems)
    problems = check.check_rows([replace(row, opt_or_lb=7, opt_exact=True, ratio=1.0)], 1)
    assert any("OPT 7 above planted 6" in p for p in problems)


def test_pass_counts_a_corrupted_answer_as_failed():
    wl = _tiny("allpivot")
    assert harness.run_pass(wl).failures == []
    op = wl.ops[0]
    good = op.call
    op.call = lambda prior: (lambda rep: replace(rep, violated=rep.violated + 1))(good(prior))
    p = harness.run_pass(wl)
    assert p.attempted == len(wl.ops)
    assert len(p.failures) == 1 and p.failures[0].startswith(op.label)


def test_pass_counts_a_digest_mismatch_and_a_raise_as_failed():
    wl = _tiny("exact-sweep")
    digests = harness.run_pass(wl).digests
    assert harness.run_pass(wl, expect=digests).failures == []
    label = wl.ops[0].label
    assert len(harness.run_pass(wl, expect={**digests, label: "0" * 16}).failures) == 1

    def boom(prior):
        raise ug.ResourceLimitError("too big")

    wl.ops[0].call = boom
    assert len(harness.run_pass(wl).failures) == 1


def test_answers_repeat_for_a_seed():
    assert harness.run_pass(_tiny("ingest")).digests == harness.run_pass(_tiny("ingest")).digests


def _span(sid, name, parent, thread, start, end):
    return spans.Span(sid, name, parent, op=(0, 0), thread=thread, start=start, end=end)


def test_self_time_on_hand_built_tree():
    tree = [
        _span(0, "bench.run_bench", None, 1, 0.0, 10.0),
        _span(1, "solvers.brute_force", 0, 2, 1.0, 4.0),
        # overlaps its sibling from another thread: covered time counts once
        _span(2, "solvers.voting_solve", 0, 3, 3.0, 6.0),
        # outlives its parent: only the part inside the parent is subtracted
        _span(3, "ptas.ptas_solve", 0, 2, 8.0, 12.0),
        _span(4, "solvers.voting_solve", 3, 2, 8.5, 9.0),
        _span(5, "ptas.greedy_max", 3, 2, 8.75, 9.5),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0 - 1.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(0.75)


def test_layer_metrics_on_hand_built_tree():
    tree = [
        _span(0, "bench.run_bench", None, 1, 0.0, 10.0),
        _span(1, "solvers.brute_force", 0, 2, 0.0, 6.0),
        _span(2, "solvers.voting_solve", 0, 3, 0.0, 4.0),
    ]
    tree[0].counts = {"rows": 4, "row_busy_s": 5.0, "error_rows": 0, "exact_rows": 3}
    tree[1].counts = {"states": 600}
    values, layers = harness.layer_metrics(tree, 1, 10.0, 8.0)
    assert values["bench.run_bench.busy_s"] == pytest.approx(4.0)
    assert values["bench.worker_util"] == pytest.approx(5.0 / 20.0)
    assert values["bench.worker_idle_s"] == pytest.approx(20.0 - 6.0 - 4.0)
    assert values["bench.exact_opt_frac"] == pytest.approx(0.75)
    assert values["solvers.brute_force.states_per_s"] == pytest.approx(100.0)
    assert values["solvers.busy_frac"] == pytest.approx(10.0 / 14.0)
    assert values["trace.overhead_frac"] == pytest.approx(0.25)
    assert layers["self_s_per_pass"]["bench"] == pytest.approx(4.0)


def test_instrument_nests_internal_calls_and_restores_originals():
    g = ug.planted(10, 3, 2, rng=0).instance
    originals = (ug.ptas_solve, ug.ptas.voting_solve, ug.bench.brute_force)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        ug.ptas_solve(g, ug.PtasConfig(tau=0.5))
    assert (ug.ptas_solve, ug.ptas.voting_solve, ug.bench.brute_force) == originals
    root = tracer.spans[0]
    assert root.name == "ptas.ptas_solve" and root.parent is None
    inner = {s.name for s in tracer.spans if s.parent == root.sid}
    assert {"solvers.voting_solve", "ptas.greedy_max"} <= inner
    assert root.counts["calls"] == 1
