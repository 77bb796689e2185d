"""Scoring for endpoint detection: alignment, P/R/F1, WER, latency.

Detected endpoints are aligned to reference turn ends with a tolerance
window, one-to-one and in order.  A hypothesis at time h matches a
reference end r iff ``r - tol <= h <= r + delta + tol``: the left edge is
the scoring tolerance and the right edge additionally credits the delta
milliseconds of trailing silence every rule is required to wait out.
Latency is reported against r itself, so latency numbers stay comparable
across delta values even though the match window widens.

Word error rate is computed call-level: the committed words of all turns
are concatenated and compared against the reference word sequence with
unit-cost edit distance.  Counts from many calls pool before any ratio
is formed (micro-averaging), matching corpus-level scoring practice.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ._kernels import edit_distance_counts_batch
from .endpointer import EndpointEvent, Trigger, _token_cuts, turn_words
from .streams import CallRecord, _first_inversion

__all__ = [
    "EvalConfig",
    "Matching",
    "WerResult",
    "CallScore",
    "EvalReport",
    "align_events",
    "wer",
    "score_call",
    "score_runs",
    "pool_scores",
]


@dataclass(frozen=True)
class EvalConfig:
    """Alignment parameters: scoring tolerance and the delta under test."""

    ts_threshold_ms: int
    tolerance_ms: int = 200

    def __post_init__(self) -> None:
        if self.tolerance_ms <= 0:
            raise ValueError(f"tolerance_ms: must be positive, got {self.tolerance_ms}")
        if self.ts_threshold_ms <= 0:
            raise ValueError(
                f"ts_threshold_ms: must be positive, got {self.ts_threshold_ms}"
            )


@dataclass(frozen=True)
class Matching:
    """One-to-one alignment: matched (ref, hyp, latency) plus leftovers."""

    pairs: tuple[tuple[int, int, int], ...]
    unmatched_refs: tuple[int, ...]
    unmatched_hyps: tuple[int, ...]

    @property
    def hits(self) -> int:
        return len(self.pairs)

    @property
    def misses(self) -> int:
        return len(self.unmatched_refs)

    @property
    def false_alarms(self) -> int:
        return len(self.unmatched_hyps)


@dataclass(frozen=True)
class WerResult:
    """Word error rate with its raw edit counts.

    An empty reference against a nonempty hypothesis has no finite rate:
    wer is +inf and ``defined`` is False while the counts stay exact.
    """

    wer: float
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int
    defined: bool = True


@dataclass(frozen=True)
class CallScore:
    """Poolable per-call counts; ratios are only formed after pooling."""

    hits: int
    misses: int
    false_alarms: int
    latencies: tuple[int, ...]
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int
    deferral_timeouts: int = 0


@dataclass(frozen=True)
class EvalReport:
    """Scores for one (mode, delta) configuration over a call set."""

    precision: float
    recall: float
    f1: float
    wer: float
    substitutions: int
    deletions: int
    insertions: int
    mean_latency_ms: float
    median_latency_ms: float
    deferral_timeouts: int


def _hyp_times(hyps: Sequence[Union[EndpointEvent, int]]) -> list[int]:
    return [h.time_ms if isinstance(h, EndpointEvent) else int(h) for h in hyps]


def align_events(
    ref_ends: Sequence[int],
    hyps: Sequence[Union[EndpointEvent, int]],
    cfg: EvalConfig,
) -> Matching:
    """Greedy in-order one-to-one alignment of endpoints to reference ends.

    Both inputs must be sorted.  Walking the references in order, each
    takes the earliest still-unmatched hypothesis inside its window
    ``[r - tol, r + delta + tol]``.  On these staircase-shaped windows the
    greedy pairing attains the optimal hit count.
    """
    times = _hyp_times(hyps)
    for seq, name in ((list(ref_ends), "ref_ends"), (times, "hyps")):
        inv = _first_inversion(seq)
        if inv is not None:
            raise ValueError(f"{name} unsorted: first inversion at index {inv}")

    lo_off = -cfg.tolerance_ms
    hi_off = cfg.ts_threshold_ms + cfg.tolerance_ms
    pairs: list[tuple[int, int, int]] = []
    unmatched_refs: list[int] = []
    unmatched_hyps: list[int] = []
    j = 0
    for i, r in enumerate(ref_ends):
        while j < len(times) and times[j] < r + lo_off:
            unmatched_hyps.append(j)
            j += 1
        if j < len(times) and times[j] <= r + hi_off:
            pairs.append((i, j, times[j] - r))
            j += 1
        else:
            unmatched_refs.append(i)
    unmatched_hyps.extend(range(j, len(times)))
    return Matching(tuple(pairs), tuple(unmatched_refs), tuple(unmatched_hyps))


def wer(ref_words: Sequence[str], hyp_words: Sequence[str]) -> WerResult:
    """Word error rate (S + D + I) / |ref| with minimal unit-cost edits."""
    [result] = _wers(ref_words, [hyp_words])
    return result


def _wers(ref_words: Sequence[str], hyps: Sequence[Sequence[str]]) -> list[WerResult]:
    """``wer(ref_words, hyp)`` for every hypothesis, from one batched DP."""
    ids: dict[str, int] = {}
    ref = [ids.setdefault(w, len(ids)) for w in ref_words]
    counts = edit_distance_counts_batch(
        ref, [[ids.setdefault(w, len(ids)) for w in hyp] for hyp in hyps]
    )
    n = len(ref_words)
    results = []
    for _, s, d, i in counts:
        if n:
            results.append(WerResult((s + d + i) / n, s, d, i, n))
        elif i == 0:
            results.append(WerResult(0.0, 0, 0, 0, 0))
        else:
            results.append(WerResult(float("inf"), s, d, i, 0, defined=False))
    return results


def score_call(
    ref_ends: Sequence[int],
    endpoints: Sequence[Union[EndpointEvent, int]],
    ref_words: Sequence[str],
    hyp_words: Sequence[str],
    cfg: EvalConfig,
) -> CallScore:
    """All poolable counts for a single call."""
    m = align_events(ref_ends, endpoints, cfg)
    return _counts(m, wer(ref_words, hyp_words), endpoints)


def _counts(
    m: Matching, w: WerResult, endpoints: Sequence[Union[EndpointEvent, int]]
) -> CallScore:
    """A call's poolable counts from its matching and its WER."""
    timeouts = sum(
        1
        for e in endpoints
        if isinstance(e, EndpointEvent) and e.trigger is Trigger.DEFERRAL_TIMEOUT
    )
    return CallScore(
        hits=m.hits,
        misses=m.misses,
        false_alarms=m.false_alarms,
        latencies=tuple(lat for _, _, lat in m.pairs),
        substitutions=w.substitutions,
        deletions=w.deletions,
        insertions=w.insertions,
        ref_words=w.ref_words,
        deferral_timeouts=timeouts,
    )


_Run = tuple[Sequence[EndpointEvent], EvalConfig]


def score_runs(call: CallRecord, runs: Iterable[_Run]) -> list[CallScore]:
    """Score many (endpoints, config) runs of one call.

    The reference is the call's segments: their ends are the turn ends,
    their words the reference word sequence.  The hypothesis is the words
    the endpoints commit from the call's tokens, as ``commit_transcript``
    commits them.  Those words depend only on where the endpoints cut the
    non-blank tokens, so each run is keyed by its distinct cut indices, each
    distinct key builds its words once, and one batched WER edit distance
    scores every distinct hypothesis word list of the call against the
    reference, which is built once.
    """
    runs = list(runs)
    ref_ends = [seg.end_ms for seg in call.segments]
    ref_words = [w for seg in call.segments for w in seg.words]
    tokens = call.non_blank_tokens
    times = [t.emit_time_ms for t in tokens]
    words_of: dict[tuple[int, ...], tuple[str, ...]] = {}
    hyps = []
    for endpoints, _ in runs:
        cuts = _token_cuts(times, [ep.time_ms for ep in endpoints])
        key = tuple(dict.fromkeys(cuts))  # an empty turn adds no words
        if key not in words_of:
            turns = turn_words(tokens, key)
            words_of[key] = tuple(text for words in turns for text, _ in words)
        hyps.append(words_of[key])
    distinct = list(dict.fromkeys(hyps))
    wer_of = dict(zip(distinct, _wers(ref_words, distinct)))
    return [
        _counts(align_events(ref_ends, endpoints, cfg), wer_of[hyp], endpoints)
        for (endpoints, cfg), hyp in zip(runs, hyps)
    ]


def pool_scores(scores: Sequence[CallScore]) -> EvalReport:
    """Micro-average: sum counts across calls, then form every ratio once."""
    hits = sum(s.hits for s in scores)
    misses = sum(s.misses for s in scores)
    fas = sum(s.false_alarms for s in scores)
    subs = sum(s.substitutions for s in scores)
    dels = sum(s.deletions for s in scores)
    ins = sum(s.insertions for s in scores)
    ref_n = sum(s.ref_words for s in scores)
    lats: list[int] = []
    for s in scores:
        lats.extend(s.latencies)
    p = hits / (hits + fas) if hits + fas > 0 else 0.0
    r = hits / (hits + misses) if hits + misses > 0 else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    errors = subs + dels + ins
    if ref_n > 0:
        pooled_wer = errors / ref_n
    else:
        pooled_wer = 0.0 if errors == 0 else float("inf")
    if lats:
        mean_lat = statistics.fmean(lats)
        med_lat = float(statistics.median(lats))
    else:
        mean_lat = med_lat = 0.0
    return EvalReport(
        precision=p,
        recall=r,
        f1=f1,
        wer=pooled_wer,
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        mean_latency_ms=mean_lat,
        median_latency_ms=med_lat,
        deferral_timeouts=sum(s.deferral_timeouts for s in scores),
    )
