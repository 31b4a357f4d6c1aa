"""Differential tests of the split-and-multiply exhaustive search.

brute_force must return exactly the optimum and the lexicographically
smallest optimal assignment of the per-edge loop oracle in conftest.  The
instances are tie-heavy (45% noise), and their sizes sit on the search's
block edges: a low block of exactly COL_CAP labelings, a single low vertex
whose labels are taken in chunks of COL_CAP, and high-vertex rows that fill
or cross one row block.
"""

import numpy as np
import pytest
from conftest import brute_force_loop_oracle

from ugsolve import solvers
from ugsolve.core import DenseInstance, LinEqInstance
from ugsolve.generators import noise_model, planted, sparsify_everywhere_dense
from ugsolve.solvers import COL_CAP, brute_force

NOISE = 0.45


def _instance(kind, q, n, seed, dense=False):
    if kind == "cyclic":
        g = noise_model(n, q, NOISE, rng=seed).instance
    else:
        m = n * (n - 1) // 2
        g = planted(n, q, round(NOISE * m) if q > 1 else 0, kind="perm", rng=seed).instance
    return sparsify_everywhere_dense(g, 0.3, rng=seed) if dense else g


def _same(g):
    rep = brute_force(g)
    bad, assignment = brute_force_loop_oracle(g)
    assert rep.violated == bad
    assert np.array_equal(rep.assignment, assignment)
    return rep


def _rows(rep, g):
    """High-vertex rows of the search and the rows of one block."""
    kernel = rep.extra["kernel"]
    return rep.extra["search_space"] // g.q ** kernel["low_block"], kernel["row_block"]


@pytest.mark.parametrize("dense", (False, True))
@pytest.mark.parametrize("q", (1, 2, 3, 4, 7))
@pytest.mark.parametrize("kind", ("cyclic", "perm"))
def test_tie_heavy_matches_loop_oracle(kind, q, dense):
    sizes = (4, 5, 6) if q < 7 else (4, 5)
    for n in sizes:
        _same(_instance(kind, q, n, seed=100 * q + n, dense=dense))


@pytest.mark.parametrize("kind", ("cyclic", "perm"))
def test_planted_matches_loop_oracle(kind):
    for seed in range(6):
        n, q = 5 + seed % 3, (2, 3, 5)[seed % 3]
        g = planted(n, q, seed % 4, kind=kind, rng=seed).instance
        _same(g)
        _same(sparsify_everywhere_dense(g, 0.25, rng=seed))


# (kind, q, n) whose low block has exactly COL_CAP labelings
AT_CAP = [("cyclic", COL_CAP, 2), ("cyclic", 128, 4), ("perm", 128, 3)]


@pytest.mark.parametrize("kind,q,n", AT_CAP)
def test_low_block_at_column_cap(kind, q, n):
    g = _instance(kind, q, n, seed=q + n)
    rep = _same(g)
    assert q ** rep.extra["kernel"]["low_block"] == rep.extra["kernel"]["col_chunk"] == COL_CAP


@pytest.mark.parametrize("q", (COL_CAP + 1, 2 * COL_CAP, 10**6))
def test_labels_above_cap_are_taken_in_column_chunks(q):
    # one edge: the only optimum is the label its offset forces on vertex 1
    offsets = np.zeros((2, 2), dtype=np.int64)
    offsets[0, 1] = 5
    offsets[1, 0] = q - 5
    g = LinEqInstance(2, q, offsets)
    rep = _same(g)
    assert rep.violated == 0 and rep.assignment[1] == q - 5
    kernel = rep.extra["kernel"]
    assert (kernel["low_block"], kernel["col_chunk"]) == (1, COL_CAP)
    assert _rows(rep, g)[0] == 1


@pytest.mark.parametrize("col_cap,entry_cap", [(1, 64), (4, 256), (16, 64), (64, 256)])
def test_small_caps_match_loop_oracle(monkeypatch, col_cap, entry_cap):
    # shrunken caps spread the search over many row blocks; a column cap
    # below q takes the last vertex's labels in chunks, so that ties across
    # chunks of one block of rows must resolve to the smallest index
    monkeypatch.setattr(solvers, "COL_CAP", col_cap)
    monkeypatch.setattr(solvers, "ENTRY_CAP", entry_cap)
    crossed = 0
    for kind in ("cyclic", "perm"):
        for q in (2, 3, 5):
            for dense in (False, True):
                g = _instance(kind, q, 6 if q < 5 else 5, seed=10 * q + dense, dense=dense)
                rep = _same(g)
                rows, row_block = _rows(rep, g)
                assert rep.extra["kernel"]["col_chunk"] <= col_cap
                crossed += rows > row_block
    assert crossed >= 6  # of 12


@pytest.mark.parametrize("kind,q,n,blocks", [
    ("cyclic", 7, 8, 1),  # 343 rows of 436
    ("cyclic", 4, 11, 1),  # 1024 rows of 1024
    ("perm", 10, 6, 1),  # 1000 rows of 1048
    ("perm", 8, 7, 2),  # 512 rows of 256
    ("cyclic", 11, 7, 2),  # 1331 rows of 787
])
def test_rows_crossing_a_row_block(kind, q, n, blocks):
    g = _instance(kind, q, n, seed=7 * q + n)
    rep = _same(g)
    rows, row_block = _rows(rep, g)
    assert -(-rows // row_block) == blocks


# satisfiable instances over two row blocks and more: the search stops at
# the first block that holds a zero
@pytest.mark.parametrize("kind,q,n", [("cyclic", 6, 9), ("perm", 8, 7)])
def test_satisfiable_stops_at_zero(kind, q, n):
    for seed in range(3):
        g = planted(n, q, 0, kind=kind, rng=seed).instance
        rep = _same(g)
        assert rep.violated == 0
        dense = sparsify_everywhere_dense(g, 0.2, rng=seed)
        assert _same(dense).violated == 0


def test_kernel_metadata():
    rep = brute_force(_instance("cyclic", 3, 12, seed=0))
    kernel = rep.extra["kernel"]
    # a seventh low vertex would add more implied labels to the pair table
    # (3^7 * 7^2 against 3^6 * 6^2) than it saves on the rows (3^4 * 5 * 12
    # against 3^5 * 6 * 12)
    assert (kernel["path"], kernel["dtype"], kernel["low_block"]) == ("split", "int32", 6)
    assert kernel["col_chunk"] == 3**6
    # the widest row is one row of 3^6 columns
    assert kernel["row_block"] == solvers.ENTRY_CAP // 3**6
    assert rep.extra["search_space"] == 3**11
    assert set(rep.extra["phases"]) == {"build", "search"}
    assert all(t >= 0 for t in rep.extra["phases"].values())


def test_first_zero_over_label_chunks(monkeypatch):
    # two separate constraints, 0-1 and 2-3: each label x of vertex 2 starts
    # a zero labeling with vertex 3 at x + 3.  With vertex 3's labels in
    # chunks of two, the zero at x = 2 (vertex 3 at 0) turns up in an earlier
    # chunk than the smallest, x = 0 (vertex 3 at 3), in the same block of rows
    monkeypatch.setattr(solvers, "COL_CAP", 2)
    monkeypatch.setattr(solvers, "ENTRY_CAP", 256)
    q = 5
    offsets = np.zeros((4, 4), dtype=np.int64)
    offsets[2, 3], offsets[3, 2] = q - 3, 3
    present = np.zeros((4, 4), dtype=bool)
    present[0, 1] = present[1, 0] = present[2, 3] = present[3, 2] = True
    g = DenseInstance(LinEqInstance(4, q, offsets), present)
    rep = _same(g)
    assert rep.violated == 0 and rep.assignment.tolist() == [0, 0, 0, 3]
    kernel = rep.extra["kernel"]
    assert (kernel["low_block"], kernel["col_chunk"]) == (1, 2)
    assert kernel["row_block"] > q
