"""Tests for the edit-distance kernel."""

import numpy as np
import pytest

from endpoint_rt._kernels import BACKEND, edit_distance_counts_batch, edit_matrices

from oracles import brute_edit_counts


def _ids(seq):
    return np.asarray(list(seq), dtype=np.int64)


def _counts(a, b):
    """The kernel's counts for one hypothesis, after the oracle's own."""
    [got] = edit_distance_counts_batch(_ids(a), [_ids(b)])
    assert got == brute_edit_counts(list(a), list(b)), (a, b)
    return got


def test_backend_is_a_known_name():
    # run records report it, so it must stay importable and named
    assert BACKEND == "numpy"


def test_known_example_counts():
    # ref "a b c d", hyp "a x c" -> one substitution, one deletion
    assert _counts([0, 1, 2, 3], [0, 9, 2]) == (2, 1, 1, 0)


def test_identical_sequences_have_zero_distance():
    seq = [4, 4, 2, 7, 1]
    assert _counts(seq, seq) == (0, 0, 0, 0)


def test_empty_against_empty():
    assert _counts([], []) == (0, 0, 0, 0)


def test_empty_ref_counts_all_insertions():
    assert _counts([], [1, 2, 3]) == (3, 0, 0, 3)


def test_empty_hyp_counts_all_deletions():
    assert _counts([1, 2, 3, 4], []) == (4, 0, 4, 0)


def test_matrix_corner_is_the_distance():
    ref = _ids([0, 1, 2, 3])
    hyp = _ids([0, 9, 2])
    [mat] = edit_matrices(ref, [hyp])
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
        [mat] = edit_matrices(_ids(a), [_ids(b)])
        assert mat.shape == (len(a) + 1, len(b) + 1)
        for i in range(len(a) + 1):
            for j in range(len(b) + 1):
                assert mat[i, j] == brute_edit_counts(a[:i], b[:j])[0], (a, b, i, j)


def test_counts_match_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
        b = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 8))]
        [got] = edit_distance_counts_batch(_ids(a), [_ids(b)])
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
        alone = [edit_distance_counts_batch(_ids(a), [_ids(b)])[0] for b in bs]
        assert got == alone, (a, bs)
        # each hypothesis's matrix is the one it gets alone; the rest is padding
        mats = edit_matrices(_ids(a), [_ids(b) for b in bs])
        for mat, b in zip(mats, bs):
            assert (mat[:, : len(b) + 1] == edit_matrices(_ids(a), [_ids(b)])[0]).all()


def test_batched_counts_of_no_hypotheses_are_empty():
    assert edit_distance_counts_batch(_ids([1, 2]), []) == []


def test_distance_respects_length_difference_bound():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.integers(0, 3, size=rng.integers(0, 10)).tolist()
        b = rng.integers(0, 3, size=rng.integers(0, 10)).tolist()
        dist = _counts(a, b)[0]
        assert abs(len(a) - len(b)) <= dist <= max(len(a), len(b))


def test_tie_break_prefers_substitution_then_deletion():
    # distance 1 is achievable by substitution here; the split must say so
    assert _counts([1], [2]) == (1, 1, 0, 0)
    # equal-cost deletion/insertion mixtures resolve deletion-first
    dist, subs, dels, ins = _counts([1, 2], [2, 1])
    assert dist == 2
    assert subs + dels + ins == 2


def test_rejects_non_integer_input():
    with pytest.raises((TypeError, ValueError)):
        edit_matrices(np.array(["a", "b"]), [np.array(["a"])])
