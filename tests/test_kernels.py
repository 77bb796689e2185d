"""Tests for the edit-distance kernel."""

import numpy as np
import pytest

from endpoint_rt._kernels import (
    BACKEND,
    edit_distance_counts,
    edit_distance_counts_batch,
    edit_matrices,
    edit_matrix,
)

from oracles import brute_edit_counts


def _ids(seq):
    return np.asarray(list(seq), dtype=np.int64)


def test_backend_is_a_known_name():
    # run records report it, so it must stay importable and named
    assert BACKEND == "numpy"


def test_known_example_counts():
    # ref "a b c d", hyp "a x c" -> one substitution, one deletion
    ref = _ids([0, 1, 2, 3])
    hyp = _ids([0, 9, 2])
    dist, subs, dels, ins = edit_distance_counts(ref, hyp)
    assert (dist, subs, dels, ins) == (2, 1, 1, 0)


def test_identical_sequences_have_zero_distance():
    seq = _ids([4, 4, 2, 7, 1])
    assert edit_distance_counts(seq, seq) == (0, 0, 0, 0)


def test_empty_against_empty():
    empty = _ids([])
    assert edit_distance_counts(empty, empty) == (0, 0, 0, 0)


def test_empty_ref_counts_all_insertions():
    hyp = _ids([1, 2, 3])
    assert edit_distance_counts(_ids([]), hyp) == (3, 0, 0, 3)


def test_empty_hyp_counts_all_deletions():
    ref = _ids([1, 2, 3, 4])
    assert edit_distance_counts(ref, _ids([])) == (4, 0, 4, 0)


def test_matrix_corner_is_the_distance():
    ref = _ids([0, 1, 2, 3])
    hyp = _ids([0, 9, 2])
    mat = edit_matrix(ref, hyp)
    assert mat.shape == (5, 4)
    assert mat[0, 0] == 0
    assert mat[-1, -1] == 2
    assert list(mat[0]) == [0, 1, 2, 3]
    assert list(mat[:, 0]) == [0, 1, 2, 3, 4]


def test_every_matrix_cell_is_the_prefix_distance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 12))]
        b = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 12))]
        mat = edit_matrix(_ids(a), _ids(b))
        assert mat.shape == (len(a) + 1, len(b) + 1)
        for i in range(len(a) + 1):
            for j in range(len(b) + 1):
                assert mat[i, j] == brute_edit_counts(a[:i], b[:j])[0], (a, b, i, j)


def test_counts_match_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
        b = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
        got = edit_distance_counts(_ids(a), _ids(b))
        want_dist, want_s, want_d, want_i = brute_edit_counts(a, b)
        assert got[0] == want_dist
        # the backtrace count split must itself sum to the distance and
        # stay within the oracle's optimum
        assert got[1] + got[2] + got[3] == got[0]
        assert (got[1], got[2], got[3]) == (want_s, want_d, want_i)


def test_batched_counts_match_the_oracle_and_one_at_a_time_counts():
    rng = np.random.default_rng(31)

    def draw():
        return [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 11))]

    for case in range(300):
        a = [] if case % 10 == 0 else draw()  # an empty reference in every tenth
        bs = []
        for _ in range(rng.integers(1, 7)):
            # some hypotheses repeat an earlier one
            bs.append(bs[rng.integers(len(bs))] if bs and rng.random() < 0.3 else draw())
        got = edit_distance_counts_batch(_ids(a), [_ids(b) for b in bs])
        assert got == [brute_edit_counts(a, b) for b in bs], (a, bs)
        assert got == [edit_distance_counts(_ids(a), _ids(b)) for b in bs], (a, bs)
        # each hypothesis's matrix is the one it gets alone; the rest is padding
        mats = edit_matrices(_ids(a), [_ids(b) for b in bs])
        for mat, b in zip(mats, bs):
            assert (mat[:, : len(b) + 1] == edit_matrix(_ids(a), _ids(b))).all()


def test_batched_counts_of_no_hypotheses_are_empty():
    assert edit_distance_counts_batch(_ids([1, 2]), []) == []


def test_distance_respects_length_difference_bound():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = _ids(rng.integers(0, 3, size=rng.integers(0, 10)))
        b = _ids(rng.integers(0, 3, size=rng.integers(0, 10)))
        dist = edit_distance_counts(a, b)[0]
        assert abs(len(a) - len(b)) <= dist <= max(len(a), len(b))


def test_tie_break_prefers_substitution_then_deletion():
    # distance 1 is achievable by substitution here; the split must say so
    assert edit_distance_counts(_ids([1]), _ids([2])) == (1, 1, 0, 0)
    # equal-cost deletion/insertion mixtures resolve deletion-first
    dist, subs, dels, ins = edit_distance_counts(_ids([1, 2]), _ids([2, 1]))
    assert dist == 2
    assert subs + dels + ins == 2


def test_rejects_non_integer_input():
    with pytest.raises((TypeError, ValueError)):
        edit_matrix(np.array(["a", "b"]), np.array(["a"]))
