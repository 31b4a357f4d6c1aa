"""Differential tests of the blocked vote-count kernel.

Every all-pivot solver (voting, pivot propagation, dense voting) and the
square transform must return exactly what the per-pivot loop oracles in
conftest return: the same assignment, violated count, pivot and pivot label,
ties included.  The instances are tie-heavy (45% noise) and their sizes sit
on the kernel's tile edges.
"""

import numpy as np
import pytest
from conftest import (
    dense_voting_oracle,
    pivot_best_oracle,
    rand_ug,
    square_oracle,
    vote_counts_oracle,
    voting_round_oracle,
    voting_solve_oracle,
)

from ugsolve.core import to_square_instance
from ugsolve.generators import noise_model, planted, sparsify_everywhere_dense
from ugsolve.solvers import (
    CAND_BLOCK,
    UNLABELED,
    VOTER_BLOCK,
    _propagate,
    _vote_counts,
    _voting_labels,
    dense_voting,
    pivot_best,
    voting_solve,
)

NOISE = 0.45


def _edges(block):
    return (block - 1, block, block + 1)


def _cyclic(n, q, seed):
    return noise_model(n, q, NOISE, rng=seed).instance


def _perm(n, q, seed):
    m = n * (n - 1) // 2
    return planted(n, q, round(NOISE * m), kind="perm", rng=seed).instance


def _same(rep, oracle):
    bad, pivot, label, assignment = oracle
    assert rep.violated == bad
    assert (rep.pivot, rep.pivot_label) == (pivot, label)
    assert np.array_equal(rep.assignment, assignment)


# (kind, q, n): every q of the tie-heavy set on the candidate-block edges,
# which hold CAND_BLOCK // q pivots for the permutation kind, and one q on
# the voter-tile edges
CASES = [
    *[("cyclic", q, n) for q in (2, 3, 4, 7) for n in _edges(CAND_BLOCK)],
    *[("perm", q, n) for q in (2, 3, 4, 7) for n in _edges(CAND_BLOCK // q)],
    *[("cyclic", 3, n) for n in _edges(VOTER_BLOCK)],
    *[("perm", 2, n) for n in _edges(VOTER_BLOCK)],
]


def _instance(kind, q, n):
    return (_cyclic if kind == "cyclic" else _perm)(n, q, seed=1000 * q + n)


@pytest.mark.parametrize("kind,q,n", CASES)
def test_voting_matches_loop_oracle(kind, q, n):
    g = _instance(kind, q, n)
    _same(voting_solve(g), voting_solve_oracle(g))


@pytest.mark.parametrize("kind,q,n", CASES)
def test_pivot_best_matches_loop_oracle(kind, q, n):
    g = _instance(kind, q, n)
    _same(pivot_best(g), pivot_best_oracle(g))


@pytest.mark.parametrize("kind,q,n", CASES)
def test_dense_voting_matches_loop_oracle(kind, q, n):
    g = sparsify_everywhere_dense(_instance(kind, q, n), 0.3, rng=n)
    _same(dense_voting(g), dense_voting_oracle(g))


@pytest.mark.parametrize("q", (2, 3, 4, 7))
def test_square_matches_loop_oracle(q):
    for n in _edges(CAND_BLOCK):
        g = _cyclic(n, q, seed=q + n)
        assert to_square_instance(g) == square_oracle(g)


def test_uniform_random_bijections(rng):
    # uniformly random bijections at q = 2 tie about every other plurality
    for n in (5, 9, 17):
        g = rand_ug(rng, n, 2)
        _same(voting_solve(g), voting_solve_oracle(g))
        _same(pivot_best(g), pivot_best_oracle(g))
        _same(dense_voting(g), dense_voting_oracle(g))


def test_kernel_metadata():
    g = _cyclic(20, 3, seed=0)
    for rep in (voting_solve(g), pivot_best(g), dense_voting(g)):
        kernel = rep.extra["kernel"]
        assert kernel["dtype"] == "float32" and kernel["pivot_block"] == CAND_BLOCK
        assert set(rep.extra["phases"]) == {"counts", "select"}
        assert all(t >= 0 for t in rep.extra["phases"].values())
    assert voting_solve(g).extra["kernel"]["path"] == "cyclic-complete"
    assert dense_voting(g).extra["kernel"]["path"] == "cyclic-dense"
    h = _perm(9, 4, seed=0)
    assert voting_solve(h).extra["kernel"]["path"] == "perm-complete"
    assert dense_voting(h).extra["kernel"]["path"] == "perm-dense"
    assert pivot_best(_perm(9, 4, seed=0)).extra["kernel"]["pivot_block"] == CAND_BLOCK // 4


@pytest.mark.parametrize("kind,q,n", CASES[::3])
def test_every_candidate_matches_its_round(kind, q, n):
    # the selected round alone would hide a tie-rule slip in the others
    g = _instance(kind, q, n)
    labels = np.arange(1 if kind == "cyclic" else q)
    pivots = np.repeat(np.arange(n), len(labels))
    pivot_labels = np.tile(labels, n)
    temp = _propagate(g, pivots, pivot_labels)
    final = _voting_labels(_vote_counts(g, temp), temp, pivots, pivot_labels, kind == "cyclic")
    for row, (p, l) in enumerate(zip(pivots, pivot_labels)):
        assert np.array_equal(final[row], voting_round_oracle(g, p, l))


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("n", [VOTER_BLOCK - 1, VOTER_BLOCK + 1])
@pytest.mark.parametrize("q", [2, 7, 16])
@pytest.mark.parametrize("kind", ["cyclic", "perm"])
def test_vote_counts_match_voter_oracle(kind, q, n, dense):
    # the raw counts, not only the labels read off them: one propagated row
    # and two random ones, with vertices left out on dense instances
    g = _instance(kind, q, n)
    rng = np.random.default_rng(100 * q + n)
    X = rng.integers(q, size=(3, n))
    if dense:
        g = sparsify_everywhere_dense(g, 0.3, rng=n)
        X[rng.random(X.shape) < 0.3] = UNLABELED
    X[0] = _propagate(g, np.array([n // 2]), np.array([q - 1]))[0]
    if dense:
        assert (X == UNLABELED).any(axis=1).all()
    assert np.array_equal(_vote_counts(g, X), vote_counts_oracle(g, X))
