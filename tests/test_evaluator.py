"""Tests for event alignment, PRF/WER/latency scoring, and pooling."""

import math
import random

import numpy as np
import pytest

from endpoint_rt import evaluator
from endpoint_rt.endpointer import (
    EndpointEvent,
    Trigger,
    commit_transcript,
    hypothesis_words,
)
from endpoint_rt.evaluator import (
    CallScore,
    EvalConfig,
    align_events,
    pool_scores,
    score_call,
    score_runs,
    wer,
)
from endpoint_rt.streams import CallRecord, ReferenceSegment, TokenEvent, TokenKind

from oracles import brute_edit_counts, exhaustive_match, token_columns

CFG = EvalConfig(ts_threshold_ms=200, tolerance_ms=200)


# ---------------------------------------------------------------------------
# alignment


def test_align_one_to_one_earliest_first():
    m = align_events([1000, 3000], [1100, 1150, 3100], CFG)
    assert m.pairs == ((0, 0, 100), (1, 2, 100))
    assert m.unmatched_refs == ()
    assert m.unmatched_hyps == (1,)
    assert (m.hits, m.misses, m.false_alarms) == (2, 0, 1)


def test_align_window_is_tolerance_before_and_delta_plus_tolerance_after():
    # window for r=1000 is [800, 1400]
    assert align_events([1000], [799], CFG).pairs == ()
    assert align_events([1000], [800], CFG).pairs == ((0, 0, -200),)
    assert align_events([1000], [1400], CFG).pairs == ((0, 0, 400),)
    assert align_events([1000], [1401], CFG).pairs == ()


def test_align_accepts_endpoint_events_or_raw_times():
    eps = [EndpointEvent(1100, Trigger.TS, 900)]
    assert align_events([1000], eps, CFG).pairs == ((0, 0, 100),)


def test_align_empty_sides():
    m = align_events([], [100, 200], CFG)
    assert (m.hits, m.misses, m.false_alarms) == (0, 0, 2)
    m = align_events([100, 900], [], CFG)
    assert (m.hits, m.misses, m.false_alarms) == (0, 2, 0)


def test_align_rejects_unsorted_input():
    with pytest.raises(ValueError, match="ref_ends unsorted: first inversion at index 1"):
        align_events([500, 100], [], CFG)
    with pytest.raises(ValueError, match="hyps unsorted: first inversion at index 2"):
        align_events([], [100, 300, 200], CFG)


def test_align_matches_exhaustive_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        delta = int(rng.choice([200, 400]))
        tol = int(rng.choice([100, 200]))
        refs = sorted(int(x) for x in rng.integers(0, 4000, size=rng.integers(0, 7)))
        hyps = sorted(int(x) for x in rng.integers(0, 4000, size=rng.integers(0, 7)))
        m = align_events(refs, hyps, EvalConfig(delta, tol))
        want_hits, _ = exhaustive_match(refs, hyps, delta, tol)
        assert m.hits == want_hits


def test_align_hits_grow_with_tolerance():
    rng = np.random.default_rng(43)
    for _ in range(50):
        refs = sorted(int(x) for x in rng.integers(0, 3000, size=5))
        hyps = sorted(int(x) for x in rng.integers(0, 3000, size=5))
        hits = [
            align_events(refs, hyps, EvalConfig(200, tol)).hits for tol in (50, 150, 400)
        ]
        assert hits[0] <= hits[1] <= hits[2]


# ---------------------------------------------------------------------------
# precision / recall / F1


def _pooled(ref_ends, hyps):
    """The pooled report of one call's endpoints, with no words."""
    return pool_scores([score_call(ref_ends, hyps, [], [], CFG)])


def _prf(report):
    return report.precision, report.recall, report.f1


def test_prf_from_spec_alignment_example():
    report = _pooled([1000, 3000], [1100, 1150, 3100])
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(1.0)
    assert report.f1 == pytest.approx(0.8)


def test_pooled_prf_of_an_empty_side_is_zero():
    assert _prf(_pooled([1000], [])) == (0.0, 0.0, 0.0)
    assert _prf(_pooled([], [1000])) == (0.0, 0.0, 0.0)
    assert _prf(_pooled([], [])) == (0.0, 0.0, 0.0)
    assert _prf(_pooled([1000], [1050])) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# word error rate


def test_wer_known_example():
    result = wer(["a", "b", "c", "d"], ["a", "x", "c"])
    assert (result.wer, result.substitutions, result.deletions, result.insertions) == (
        0.5,
        1,
        1,
        0,
    )
    assert result.ref_words == 4
    assert result.defined


def test_wer_identical_is_zero():
    assert wer(["to", "ki", "su"], ["to", "ki", "su"]).wer == 0.0


def test_wer_empty_reference_with_hypothesis_is_infinite():
    result = wer([], ["ghost"])
    assert math.isinf(result.wer)
    assert not result.defined
    assert result.insertions == 1


def test_wer_both_empty_is_zero():
    result = wer([], [])
    assert result.wer == 0.0
    assert result.defined


def test_wer_can_exceed_one():
    assert wer(["a"], ["x", "y", "z"]).wer == 3.0


def test_wer_matches_brute_force_oracle():
    rng = np.random.default_rng(47)
    vocab = ["ka", "zo", "mi", "tu"]
    for _ in range(150):
        ref = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
        hyp = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
        got = wer(ref, hyp)
        dist, s, d, i = brute_edit_counts(ref, hyp)
        assert (got.substitutions, got.deletions, got.insertions) == (s, d, i)
        if ref:
            assert got.wer == pytest.approx(dist / len(ref))


# ---------------------------------------------------------------------------
# latency


def test_latency_stats_mean_and_median():
    report = _pooled([1000, 2000, 3000], [1100, 2050, 3300])
    assert report.mean_latency_ms == pytest.approx((100 + 50 + 300) / 3)
    assert report.median_latency_ms == 100


def test_latency_stats_of_no_matches_are_zero():
    report = _pooled([1000], [])
    assert (report.mean_latency_ms, report.median_latency_ms) == (0.0, 0.0)


def test_latency_can_be_negative_for_early_endpoints():
    assert _pooled([1000], [900]).mean_latency_ms == -100


# ---------------------------------------------------------------------------
# per-call scoring and pooling


def test_score_call_collects_all_counts():
    eps = [
        EndpointEvent(1100, Trigger.TS_AND_EOW_IMMEDIATE, 900),
        EndpointEvent(1500, Trigger.DEFERRAL_TIMEOUT, 1300, 400),
    ]
    score = score_call([1000], eps, ["ka", "zo"], ["ka"], CFG)
    assert (score.hits, score.misses, score.false_alarms) == (1, 0, 1)
    assert score.latencies == (100,)
    assert (score.substitutions, score.deletions, score.insertions) == (0, 1, 0)
    assert score.ref_words == 2
    assert score.deferral_timeouts == 1


def test_score_runs_reads_the_reference_from_the_call_segments():
    # a BLANK between the words, and "lo" left open by the second endpoint
    tokens = [
        TokenEvent(500, TokenKind.SUBWORD, "ka", 0),
        TokenEvent(600, TokenKind.EOW, "", 0),
        TokenEvent(1500, TokenKind.BLANK),
        TokenEvent(2500, TokenKind.SUBWORD, "mi", 1),
        TokenEvent(2600, TokenKind.EOW, "", 1),
        TokenEvent(3000, TokenKind.SUBWORD, "lo", 2),
    ]
    n = 80  # frames up to 3200 ms, past the last token and segment
    call = CallRecord(
        "c",
        40,
        frame_index=np.arange(n),
        features=np.zeros((n, 0)),
        labels=np.full(n, -1),
        teacher_labels=np.full(n, -1),
        segments=(
            ReferenceSegment("c", 0, 1000, ("ka", "zo")),
            ReferenceSegment("c", 2000, 3000, ("mi",)),
        ),
        **token_columns(tokens),
    )
    eps = [EndpointEvent(1100, Trigger.TS, 900), EndpointEvent(3100, Trigger.TS, 2900)]
    assert score_runs(call, [(eps, CFG)]) == [
        score_call([1000, 3000], eps, ["ka", "zo", "mi"], ["ka", "mi", "lo"], CFG)
    ]


VOCAB = ["ka", "zo", "mi", "lo"]


def _random_call(rng):
    """A call of random segments, and random words as tokens over 5 s of frames."""
    segments = []
    start = 0
    for _ in range(rng.randint(0, 3)):
        end = start + rng.randint(200, 1500)
        words = tuple(rng.choices(VOCAB, k=rng.randint(0, 3)))
        segments.append(ReferenceSegment("c", start, end, words))
        start = end + rng.randint(0, 500)
    tokens = []
    t = 0
    for word in range(rng.randint(0, 6)):
        kinds = [TokenKind.SUBWORD] * rng.randint(1, 2)
        if rng.random() < 0.8:
            kinds.append(TokenKind.EOW)
        if rng.random() < 0.3:
            kinds.append(TokenKind.BLANK)
        for kind in kinds:
            t += rng.randrange(400)
            if kind is TokenKind.BLANK:
                tokens.append(TokenEvent(t, kind))
            else:
                text = rng.choice(VOCAB) if kind is TokenKind.SUBWORD else ""
                tokens.append(TokenEvent(t, kind, text, word))
    n = 125
    return CallRecord(
        "c",
        40,
        frame_index=np.arange(n),
        features=np.zeros((n, 0)),
        labels=np.full(n, -1),
        teacher_labels=np.full(n, -1),
        segments=tuple(segments),
        **token_columns(tokens),
    )


def _random_endpoints(rng):
    times = sorted(rng.randrange(5000) for _ in range(rng.randint(0, 5)))
    return [EndpointEvent(t, rng.choice(list(Trigger)), max(0, t - 400)) for t in times]


def test_score_runs_commits_each_endpoint_list_and_scores_each_hypothesis_once(
    monkeypatch,
):
    rng = random.Random(5)
    hyp_lists = []
    commits = []

    def recording_wer(ref_words, hyp_words):
        hyp_lists.append(tuple(hyp_words))
        return wer(ref_words, hyp_words)

    def recording_commit(tokens, endpoints, stream_end_ms):
        commits.append(tuple(endpoints))
        return commit_transcript(tokens, endpoints, stream_end_ms)

    monkeypatch.setattr(evaluator, "wer", recording_wer)
    monkeypatch.setattr(evaluator, "commit_transcript", recording_commit)
    n_runs = 0
    for case in range(200):
        call = _random_call(rng)
        # a few endpoint lists per call, so that runs share them
        pool = [[]] + [_random_endpoints(rng) for _ in range(3)]
        cfgs = [EvalConfig(d, tol) for d in (200, 400, 600) for tol in (100, 200)]
        runs = [(rng.choice(pool), rng.choice(cfgs)) for _ in range(rng.randint(1, 12))]
        n_runs += len(runs)
        hyps = {
            tuple(eps): hypothesis_words(
                commit_transcript(call.non_blank_tokens, eps, call.end_ms)
            )
            for eps, _ in runs
        }
        want = [
            score_call(
                [seg.end_ms for seg in call.segments],
                eps,
                [w for seg in call.segments for w in seg.words],
                hyps[tuple(eps)],
                cfg,
            )
            for eps, cfg in runs
        ]
        del hyp_lists[:], commits[:]
        assert score_runs(call, runs) == want, f"case {case}"
        # one commit per distinct endpoint list, one WER per distinct hypothesis
        assert len(commits) == len(set(commits))
        assert set(commits) == set(hyps)
        assert len(hyp_lists) == len(set(hyp_lists))
        assert set(hyp_lists) == {tuple(h) for h in hyps.values()}
    assert n_runs > 1000


def test_pool_scores_micro_averages():
    a = CallScore(
        hits=1, misses=1, false_alarms=0, latencies=(100,),
        substitutions=1, deletions=0, insertions=0, ref_words=2,
    )
    b = CallScore(
        hits=3, misses=0, false_alarms=1, latencies=(0, 50, 250),
        substitutions=0, deletions=1, insertions=2, ref_words=6,
        deferral_timeouts=2,
    )
    report = pool_scores([a, b])
    assert report.precision == pytest.approx(4 / 5)
    assert report.recall == pytest.approx(4 / 5)
    assert report.f1 == pytest.approx(4 / 5)
    assert report.wer == pytest.approx((1 + 1 + 2) / 8)
    assert (report.substitutions, report.deletions, report.insertions) == (1, 1, 2)
    assert report.mean_latency_ms == pytest.approx(100.0)
    assert report.median_latency_ms == 75.0
    assert report.deferral_timeouts == 2


def test_pooling_differs_from_averaging_per_call_ratios():
    # one tiny call with terrible WER must not swamp a large good call
    tiny = CallScore(1, 0, 0, (0,), substitutions=1, deletions=0, insertions=0, ref_words=1)
    big = CallScore(1, 0, 0, (0,), substitutions=0, deletions=0, insertions=0, ref_words=99)
    report = pool_scores([tiny, big])
    assert report.wer == pytest.approx(0.01)  # not (1.0 + 0.0) / 2


def test_pool_scores_of_empty_counts():
    report = pool_scores([])
    assert report.precision == 0.0
    assert report.wer == 0.0
    assert report.mean_latency_ms == 0.0


# ---------------------------------------------------------------------------
# configuration


def test_eval_config_rejects_nonpositive_parameters():
    with pytest.raises(ValueError, match="tolerance_ms"):
        EvalConfig(200, 0)
    with pytest.raises(ValueError, match="ts_threshold_ms"):
        EvalConfig(0, 200)
