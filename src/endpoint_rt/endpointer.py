"""Streaming endpoint detection over a merged VAD + token timeline.

Four rule modes share one state machine:

* ``BLANK``   -- a run of N consecutive blank tokens ends the turn at the
  N-th blank.  VAD decisions are ignored; the run resets (and the machine
  re-arms) on any non-blank token.
* ``TS``      -- a contiguous nonspeech span reaching delta ms ends the
  turn at exactly span-start + delta.  Tokens are ignored.
* ``EOW``     -- inside any nonspeech run (at least one frame) with an
  end-of-word as the last non-blank token seen, the turn ends at
  max(run-start + frame, EOW emit time).
* ``TS_AND_EOW`` -- the TS condition arms the decision at T = start +
  delta.  If the last non-blank token at T is an EOW, the endpoint stands
  at T (immediate).  Otherwise the decision is deferred: a later EOW at
  t3 <= start + cap ends the turn at t3; speech resuming cancels; the
  deadline expiring forces a flagged endpoint at the deadline.

Timing convention: a nonspeech decision at time t covers [t, t + frame),
so a run of k dense frames spans k * frame ms and the TS condition for
delta = k * frame completes while the k-th frame is being processed, with
the endpoint stamped at run-start + delta.

Because an endpoint stamped T may still be reclassified by tokens
emitted at or before T (a token tied with a frame is ordered after it),
EOW-gated decisions are held pending until the first event strictly
after T — or end of stream — and only then emitted.  This is what makes
an EOW landing exactly on T an immediate endpoint rather than a deferred
one, and what keeps EOW-gated endpoints from ever splitting a word whose
subwords straggle in at or before T.

The EOW-gated rules read one token fact: the EOW slot, which holds the
emit time of the last non-blank token while that token is an EOW no
endpoint has consumed yet, and is empty otherwise.  The held endpoint is
one pending fire, which a deferral re-stamps at its deadline, settled
mid-stream and at end of stream by one path.  A deferral ends at a late
EOW or its timeout through one path too, whether the EOW arrives while
the deferral is open or was already in the slot when a sparse timeline
resolved the fire late.

After emitting, the machine disarms until the next speech frame (token
modes: until the next non-blank token), so each maximal nonspeech run
yields at most one endpoint.

``run_call`` folds ``step()`` over a timeline and is the reference.
``run_sweep`` gives the same endpoints for many configs from a call and
its VAD flags, per maximal nonspeech run, without a timeline; its
EOW-gated rules need frame times at least frame_ms apart.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .streams import (
    BLANK_CODE,
    EOW_CODE,
    CallRecord,
    EndOfStream,
    TimelineEvent,
    TokenEvent,
    TokenKind,
    VadDecision,
    _first_inversion,
)


class Mode(str, Enum):
    BLANK = "BLANK"
    TS = "TS"
    EOW = "EOW"
    TS_AND_EOW = "TS_AND_EOW"


class Trigger(str, Enum):
    BLANK_RUN = "BLANK_RUN"
    TS = "TS"
    EOW = "EOW"
    TS_AND_EOW_IMMEDIATE = "TS_AND_EOW_IMMEDIATE"
    TS_AND_EOW_DEFERRED = "TS_AND_EOW_DEFERRED"
    DEFERRAL_TIMEOUT = "DEFERRAL_TIMEOUT"


# The members step() compares against on every event.  A class attribute
# read on an Enum costs about 100 ns on CPython 3.11 (timeit, 2-core x86-64
# host), against about 20 ns for a plain class, so the hot paths read
# these module names instead.  With them, and with each event's rule
# written out in step() instead of in a handler method it calls, a step
# over the seed-0 stream-live timelines takes 227 (BLANK), 228 (TS), 250
# (EOW) and 233 ns (TS_AND_EOW), against 268, 311, 320 and 311 ns with the
# handler call (best of 5 rounds of best-of-20 replays, same host).
_BLANK_MODE, _TS_MODE, _EOW_MODE, _TS_AND_EOW_MODE = (
    Mode.BLANK, Mode.TS, Mode.EOW, Mode.TS_AND_EOW
)
_BLANK, _SUBWORD = TokenKind.BLANK, TokenKind.SUBWORD


@dataclass(frozen=True)
class EndpointerConfig:
    """One machine's rule and thresholds; invalid values raise ValueError."""

    mode: Mode
    ts_threshold_ms: int = 200
    blank_run_frames: int = 6
    deferral_cap_ms: int = 1000
    frame_ms: int = 40

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode: unknown endpointing mode {self.mode!r}")
        if self.frame_ms <= 0:
            raise ValueError(f"frame_ms: must be positive, got {self.frame_ms}")
        if self.ts_threshold_ms <= 0 or self.ts_threshold_ms % self.frame_ms != 0:
            raise ValueError(
                f"ts_threshold_ms: {self.ts_threshold_ms} is not a positive multiple "
                f"of frame_ms={self.frame_ms}"
            )
        if self.deferral_cap_ms < self.ts_threshold_ms:
            raise ValueError(
                f"deferral_cap_ms: {self.deferral_cap_ms} is below "
                f"ts_threshold_ms={self.ts_threshold_ms}"
            )
        if self.blank_run_frames < 1:
            raise ValueError(
                f"blank_run_frames: must be >= 1, got {self.blank_run_frames}"
            )


@dataclass(frozen=True, slots=True)
class EndpointEvent:
    """A detected turn end: when, by which rule, and from which silence."""

    time_ms: int
    trigger: Trigger
    silence_start_ms: int
    deferred_by_ms: int = 0


@dataclass(frozen=True)
class TurnTranscript:
    """Words committed to one turn; each word carries its EOW-closed flag."""

    turn_index: int
    start_ms: int
    end_ms: int
    words: tuple[tuple[str, bool], ...] = ()


@dataclass
class _Pending:
    """An EOW-gated endpoint stamped at ``time``, awaiting a later clock;
    once ``deferred``, ``time`` is its deadline and an EOW or speech may
    end it first."""

    time: int
    silence_start: int
    deferred: bool = False
    speech_at_boundary: bool = False


def new_endpointer(cfg: EndpointerConfig) -> "Endpointer":
    """A fresh machine for a configuration (checked when it was built)."""
    return Endpointer(cfg)


class Endpointer:
    """Single-pass endpoint detector; feed events in time order via step()."""

    def __init__(self, cfg: EndpointerConfig):
        self.cfg = cfg
        # the fields step() reads on every event, unpacked once
        self._mode = cfg.mode
        self._frame = cfg.frame_ms
        self._delta = cfg.ts_threshold_ms
        self._blank_run_frames = cfg.blank_run_frames
        self._last_time: Union[int, float] = float("-inf")
        # why step() refuses further events (poisoned, or after EndOfStream)
        self._closed: Optional[str] = None
        self._armed = True
        # blank-token run (BLANK mode)
        self._blank_run = 0
        self._blank_run_start = 0
        # nonspeech frame run (VAD modes)
        self._run_start: Optional[int] = None
        # the EOW slot: emit time of an unconsumed EOW that is the last
        # non-blank token, else None
        self._eow: Optional[int] = None
        self._pending: Optional[_Pending] = None

    # -- public -------------------------------------------------------------

    def step(self, event: TimelineEvent) -> Optional[EndpointEvent]:
        """Advance the machine by one timeline event.

        Returns the endpoint the event resolves, if any.  Events must be
        non-decreasing in time; an out-of-order event poisons the state
        and every later call fails.  The rules for a VAD decision and for
        a token are written out in their branches below, not in methods:
        an event makes no Python call beyond this one unless it settles,
        arms or emits a fire.
        """
        if self._closed is not None:
            raise RuntimeError(self._closed)
        t = event.time_ms
        if t < self._last_time:
            self._closed = "endpointer state is poisoned by an earlier error"
            raise ValueError(f"out-of-order event at {t} ms after {self._last_time} ms")
        self._last_time = t
        payload = event.payload
        mode = self._mode
        # the first _resolve leaves a pending fire stamped at or after t and
        # an open deferral's deadline at or after t.  Of the two _resolve
        # calls and the event's own rule at most one emits: an emit disarms
        # the machine and clears the pending entry, and what re-arms it (a
        # speech decision, or a non-blank token in BLANK mode) emits nothing.
        if isinstance(payload, VadDecision):
            ep = None if self._pending is None else self._resolve(t)
            if mode is _BLANK_MODE:
                pass  # BLANK reads no decision
            elif payload.is_speech:
                p = self._pending
                if p is not None and p.deferred:
                    self._pending = None  # speech resumption cancels the deferral
                elif p is not None and mode is _TS_AND_EOW_MODE:
                    p.speech_at_boundary = True
                # an EOW-mode pending fire survives: its silence span completed
                # and the closing token is in hand
                self._run_start = None
                self._armed = True
            else:
                start = self._run_start
                if start is None:
                    start = self._run_start = t
                # one fire per run: an endpoint disarms the run and a pending
                # fire blocks a second one
                if self._armed and self._pending is None:
                    if mode is _EOW_MODE:
                        eow = self._eow
                        if eow is not None:
                            self._pending = _Pending(max(start + self._frame, eow), start)
                    elif t + self._frame - start >= self._delta:
                        fire_time = start + self._delta
                        if mode is _TS_MODE:
                            ep = self._emit(fire_time, Trigger.TS, start)
                        else:
                            self._pending = _Pending(fire_time, start)
        elif isinstance(payload, TokenEvent):
            ep = None if self._pending is None else self._resolve(t)
            kind = payload.kind
            if kind is _BLANK:
                if mode is _BLANK_MODE:
                    if self._blank_run == 0:
                        self._blank_run_start = t
                    self._blank_run += 1
                    if self._armed and self._blank_run >= self._blank_run_frames:
                        ep = self._emit(t, Trigger.BLANK_RUN, self._blank_run_start)
            elif mode is _BLANK_MODE:
                self._blank_run = 0
                self._armed = True
            elif kind is _SUBWORD:
                self._eow = None
                if mode is _EOW_MODE:
                    self._pending = None  # the word reopened before the endpoint stood
            else:  # EOW
                self._eow = t
                p = self._pending
                start = self._run_start
                if p is not None and p.deferred:
                    # the deferral is open at t: the leading _resolve timed
                    # out any whose deadline lies before t
                    ep = self._end_deferral(p, t, Trigger.TS_AND_EOW_DEFERRED)
                elif mode is _EOW_MODE and self._armed and p is None and start is not None:
                    self._pending = _Pending(max(start + self._frame, t), start)
        elif isinstance(payload, EndOfStream):
            self._closed = "endpointer already saw EndOfStream"
            return None if self._pending is None else self._resolve(t, end=True)
        else:
            self._closed = "endpointer state is poisoned by an earlier error"
            raise ValueError(f"unknown payload type {type(payload).__name__}")
        # a condition established by this event may already lie in the
        # past (sparse timelines); settle it against the current clock
        if self._pending is not None:
            ep = self._resolve(t) or ep
        return ep

    # -- emission helpers ---------------------------------------------------

    def _emit(
        self, time_ms: int, trigger: Trigger, silence_start: int, deferred_by: int = 0
    ) -> EndpointEvent:
        self._armed = False
        return EndpointEvent(time_ms, trigger, silence_start, deferred_by)

    def _end_deferral(self, p: _Pending, when: int, trigger: Trigger) -> EndpointEvent:
        """End deferral ``p`` at ``when``, at the EOW emitted then, which it
        consumes, or at its timeout (``DEFERRAL_TIMEOUT``)."""
        self._pending = None
        if trigger is Trigger.TS_AND_EOW_DEFERRED:
            self._eow = None
        # the stream ends at its last event, so an end-of-stream timeout can
        # come before the trigger time; the clamp keeps deferred_by at 0 then
        deferred_by = max(0, when - (p.silence_start + self._delta))
        return self._emit(when, trigger, p.silence_start, deferred_by)

    # -- pending resolution ---------------------------------------------------

    def _resolve(self, now: int, end: bool = False) -> Optional[EndpointEvent]:
        """Settle the pending entry once the clock ``now`` passes its time.

        At the end of stream (``end``) a fire settles whatever its stamp: it
        was stamped after every event, so any EOW in hand lies at or before
        it and ``_adjudicate`` settles it as it would mid-stream.  A deferral
        then times out at its deadline or at ``now``, whichever is first.
        """
        p = self._pending
        if not p.deferred:
            if now <= p.time and not end:
                return None
            ep = self._adjudicate(p)
            if self._pending is None:
                return ep
        if now <= p.time and not end:
            return None
        return self._end_deferral(p, min(p.time, now), Trigger.DEFERRAL_TIMEOUT)

    def _adjudicate(self, p: _Pending) -> Optional[EndpointEvent]:
        """Settle a pending fire once the clock has passed its stamp."""
        self._pending = None
        eow = self._eow
        if self._mode is _EOW_MODE:
            # any cancelling SUBWORD at or before the stamp already cleared
            # the pending entry, so the condition held through it
            self._eow = None
            return self._emit(p.time, Trigger.EOW, p.silence_start)
        if eow is not None and eow <= p.time:
            self._eow = None
            return self._emit(p.time, Trigger.TS_AND_EOW_IMMEDIATE, p.silence_start)
        if p.speech_at_boundary:
            return None  # speech resumed the instant the threshold completed
        p.deferred = True
        p.time = p.silence_start + self.cfg.deferral_cap_ms
        # an EOW already in the slot lies after the fire's stamp; sparse
        # timelines resolve late, so it may also lie before the deadline
        if eow is not None and eow <= p.time:
            return self._end_deferral(p, eow, Trigger.TS_AND_EOW_DEFERRED)
        self._pending = p
        return None


def run_call(
    cfg: EndpointerConfig, timeline: Sequence[TimelineEvent]
) -> list[EndpointEvent]:
    """Fold step() over a merged timeline; returns all endpoints in order."""
    machine = Endpointer(cfg)
    endpoints: list[EndpointEvent] = []
    for event in timeline:
        ep = machine.step(event)
        if ep is not None:
            endpoints.append(ep)
    return endpoints


def run_sweep(
    cfgs: Sequence[EndpointerConfig],
    call: CallRecord,
    is_speech: Optional[Sequence[bool]] = None,
) -> list[list[EndpointEvent]]:
    """The endpoints ``run_call`` gives for each config on a call, a new list each.

    ``is_speech[k]`` is the VAD flag of the call's frame k, at
    ``call.frame_times[k]``, or ``is_speech`` is None when every config
    is BLANK; the tokens are the call's ``token_time`` and ``token_kind``
    columns.  The timeline matched is the one ``merge_streams`` builds
    from those decisions and tokens, so it ends at the last decision or
    token.  Each mode reads the maximal runs of consecutive nonspeech
    decisions, a run having first time s, last time l and next (speech)
    decision n: ``TS`` ends each run with l + frame_ms - s >= delta at
    s + delta; ``BLANK`` ends each run of at least N BLANK tokens at its
    N-th; the EOW-gated modes walk the runs over the non-BLANK tokens, EOW once.

    Raises ValueError for a config whose frame_ms is not the call's, and
    for flags that are not one per frame or None with a config that
    reads them.  A CallRecord's frame times and tokens are sorted and its
    frame times step by at least frame_ms, which the EOW-gated walks need
    to settle each run's fire before the next run starts.
    """
    for cfg in cfgs:
        if cfg.frame_ms != call.frame_ms:
            raise ValueError(
                f"{call.call_id}: call frame_ms={call.frame_ms} does not match "
                f"configured frame_ms={cfg.frame_ms}"
            )
    times, tok_times, kinds = call.frame_times, call.token_time, call.token_kind
    if is_speech is None and any(cfg.mode is not Mode.BLANK for cfg in cfgs):
        raise ValueError("is_speech is None, but a config other than BLANK reads it")
    # without flags no run is nonspeech: BLANK reads none
    speech = np.ones(times.shape, bool) if is_speech is None else np.asarray(is_speech, bool)
    if speech.shape != times.shape:
        raise ValueError(
            f"{call.call_id}: is_speech has shape {speech.shape}, "
            f"expected one flag for each of {len(times)} frames"
        )

    first, last = _runs(~speech)
    starts = times[first]
    spans = times[last] - starts
    blank_first, blank_last = _runs(kinds == BLANK_CODE)
    if any(cfg.mode in (Mode.EOW, Mode.TS_AND_EOW) for cfg in cfgs):
        walk = _Walk(times, first, last, tok_times, kinds)
    # the stream ends at its last event, where merge_streams stamps it
    end_ms = max(times[-1:].tolist() + tok_times[-1:].tolist(), default=0)

    out: list[list[EndpointEvent]] = []
    eow: Optional[list[EndpointEvent]] = None
    for cfg in cfgs:
        if cfg.mode is Mode.TS:
            delta = cfg.ts_threshold_ms
            eps = [
                EndpointEvent(s + delta, Trigger.TS, s)
                for s in starts[spans >= delta - cfg.frame_ms].tolist()
            ]
        elif cfg.mode is Mode.BLANK:
            # no run outlasts the tokens, so n - 1 indexes within int64
            n = min(cfg.blank_run_frames, len(tok_times) + 1)
            long_first = blank_first[blank_last - blank_first + 1 >= n]
            ends = tok_times[long_first + n - 1]
            eps = [
                EndpointEvent(t, Trigger.BLANK_RUN, s)
                for s, t in zip(tok_times[long_first].tolist(), ends.tolist())
            ]
        elif cfg.mode is Mode.EOW:
            # the walk reads only frame_ms, the call's for every cfg (checked above)
            if eow is None:
                eow = _eow_walk(call.frame_ms, walk)
            eps = list(eow)
        else:
            done = np.flatnonzero(spans >= cfg.ts_threshold_ms - cfg.frame_ms).tolist()
            eps = _ts_and_eow_walk(cfg, walk, done, end_ms)
        out.append(eps)
    return out


class _Walk:
    """What the EOW-gated walks read, as lists, from the decision times, the
    first and last index of each nonspeech run and the token columns.

    The decision ``times``; each run's ``start``, ``next`` decision (inf if
    none) and ``late``, run r-1's next decision if the speech run between
    them is that one decision (an endpoint of run r-1 stamped there is
    emitted after the only decision that re-armed the machine, so run r
    finds it disarmed).  The non-BLANK tokens' times ``tok`` and EOW
    flags, and the first EOW and SUBWORD at or after each index.
    """

    def __init__(self, times, first, last, tok_times, kinds):
        self.times, self.start = times.tolist(), times[first].tolist()
        after = [*self.times, float("inf")]
        self.next = [after[k + 1] for k in last.tolist()]
        self.late: list = [None] * len(first)
        for r in (np.flatnonzero(first[1:] - last[:-1] == 2) + 1).tolist():
            self.late[r] = self.next[r - 1]
        rows = kinds != BLANK_CODE
        eow = kinds[rows] == EOW_CODE
        self.tok, self.eow = tok_times[rows].tolist(), eow.tolist()
        at = np.arange(len(eow) + 1)
        eows, subs = np.flatnonzero(eow), np.flatnonzero(~eow)
        self.next_eow = np.append(eows, len(eow))[np.searchsorted(eows, at)].tolist()
        self.next_sub = np.append(subs, len(eow))[np.searchsorted(subs, at)].tolist()


def _eow_walk(frame: int, w: _Walk) -> list[EndpointEvent]:
    """``EOW``'s endpoints, one nonspeech run at a time.

    The last non-BLANK token before s, if an EOW no endpoint consumed
    (read by index: a SUBWORD and an EOW can follow a consumed EOW within
    one millisecond), or else the first EOW at t in [s, n), arms a fire
    at max(s + frame, t).  A SUBWORD after it and at or before the fire
    cancels it, and the next EOW before n re-arms.  The first fire not
    cancelled is the endpoint; it consumes the tokens up to it.
    """
    tok, eow, next_eow, next_sub = w.tok, w.eow, w.next_eow, w.next_sub
    out: list[EndpointEvent] = []
    consumed = -1  # index of the last token an endpoint consumed
    for s, n, late in zip(w.start, w.next, w.late):
        if out and out[-1].time_ms == late:
            continue
        j = bisect_left(tok, s)
        e = j - 1 if j - 1 > consumed and eow[j - 1] else next_eow[j]
        while e < len(tok) and tok[e] < n:
            fire = max(s + frame, tok[e])
            sub = next_sub[e + 1]
            if sub == len(tok) or tok[sub] > fire:
                out.append(EndpointEvent(fire, Trigger.EOW, s))
                consumed = bisect_right(tok, fire) - 1
                break
            e = next_eow[sub]
    return out


def _ts_and_eow_walk(
    cfg: EndpointerConfig, w: _Walk, done: list[int], end_ms: int
) -> list[EndpointEvent]:
    """``TS_AND_EOW``'s endpoints from the runs ``done`` that complete delta.

    Run r arms T = s + delta at its first decision t_c at or after
    T - frame, and settles it on the tokens up to T (before t_c if a gap
    puts t_c past T).  If the last is an unconsumed EOW at or before T,
    the endpoint is immediate at T; else speech at T ends the run with
    none.  Else a deferral to D = s + cap ends at that EOW if it lies past
    T, or at the next EOW, if at or before D and before n; speech at or
    before D cancels it, and else it times out at min(D, end_ms).
    """
    delta, frame, cap = cfg.ts_threshold_ms, cfg.frame_ms, cfg.deferral_cap_ms
    tok, eow = w.tok, w.eow
    out: list[EndpointEvent] = []
    consumed = -1
    for r in done:
        if out and out[-1].time_ms == w.late[r]:
            continue
        s, n, fire = w.start[r], w.next[r], w.start[r] + delta
        # the run holds a decision at or after fire - frame >= s
        armed_at = w.times[bisect_left(w.times, fire - frame)]
        j = bisect_right(tok, fire) if armed_at <= fire else bisect_left(tok, armed_at)
        slot = j - 1 > consumed and eow[j - 1]
        if slot and tok[j - 1] <= fire:
            out.append(EndpointEvent(fire, Trigger.TS_AND_EOW_IMMEDIATE, s))
            consumed = j - 1
        elif n != fire:
            e = j - 1 if slot else w.next_eow[j]
            if e < len(tok) and tok[e] <= s + cap and tok[e] < n:
                t = tok[e]
                out.append(EndpointEvent(t, Trigger.TS_AND_EOW_DEFERRED, s, t - fire))
                consumed = e
            elif n > s + cap:
                t = min(s + cap, end_ms)
                out.append(EndpointEvent(t, Trigger.DEFERRAL_TIMEOUT, s, max(0, t - fire)))
    return out


def _runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of every maximal run of True in ``flags``."""
    edges = np.diff(flags.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def commit_transcript(
    tokens: Sequence[TokenEvent],
    endpoints: Sequence[EndpointEvent],
    stream_end_ms: int,
) -> list[TurnTranscript]:
    """Partition committed tokens into per-turn transcripts.

    A token belongs to turn k when it was emitted at or before endpoint k
    and after endpoint k-1.  Words are rebuilt per turn by word index:
    the word's text is the concatenation of its SUBWORD texts seen in the
    turn, and it is closed iff its EOW landed in the same turn.  Subwords
    split across an endpoint therefore surface as a fragment in each turn
    (the earlier fragment unclosed); an EOW whose subwords all live in an
    earlier turn contributes nothing to its own turn.  Tokens without a
    word index merge into anonymous single words between indexed tokens.

    With no endpoints at all the whole call is one turn ending at
    ``stream_end_ms``.  Trailing tokens after the last endpoint form a
    final turn only when at least one non-blank token exists there.
    """
    boundaries = [ep.time_ms for ep in endpoints]
    non_blank = [t for t in tokens if t.kind is not _BLANK]
    times = [t.emit_time_ms for t in non_blank]
    # the endpoints' order is checked first; cuts of unsorted tokens go unused
    cuts = _token_cuts(times, boundaries)
    inv = _first_inversion(times)
    if inv is not None:
        raise ValueError(f"token stream unsorted: first inversion at index {inv}")
    words = turn_words(non_blank, cuts)
    if boundaries and cuts[-2] == cuts[-1]:
        words.pop()
    edges = [0, *boundaries, stream_end_ms]
    return [
        TurnTranscript(k, edges[k], edges[k + 1], turn) for k, turn in enumerate(words)
    ]


def _token_cuts(times: Sequence[int], boundaries: list[int]) -> list[int]:
    """Where endpoints at ``boundaries`` cut tokens emitted at sorted ``times``.

    Turn k holds the tokens from cut k up to cut k + 1: those emitted after
    boundary k - 1 and at or before boundary k.  The cuts start at 0 and end
    at ``len(times)``.
    """
    inv = _first_inversion(boundaries)
    if inv is not None:
        raise ValueError(
            f"endpoints out of order: {boundaries[inv]} after {boundaries[inv - 1]}"
        )
    return [0, *(bisect_right(times, t) for t in boundaries), len(times)]


def turn_words(
    tokens: Sequence[TokenEvent], cuts: Sequence[int]
) -> list[tuple[tuple[str, bool], ...]]:
    """Each turn's words, turn k being ``tokens[cuts[k]:cuts[k + 1]]``.

    ``tokens`` are sorted non-blank tokens and ``cuts`` run from 0 to
    ``len(tokens)``; the words are those ``commit_transcript`` commits.
    """
    return [_words(tokens[i:j]) for i, j in zip(cuts, cuts[1:])]


def _words(tokens: Sequence[TokenEvent]) -> tuple[tuple[str, bool], ...]:
    """One turn's words, in the order of their first SUBWORD, with closed flags."""
    words: list[list] = []  # [subword texts, closed]
    by_index: dict[int, list] = {}
    anon: Optional[list] = None  # the open word of unindexed SUBWORDs
    for tok in tokens:
        if tok.word_index is None:
            if tok.kind is _SUBWORD:
                if anon is None:
                    anon = [[], False]
                    words.append(anon)
                anon[0].append(tok.text)
            elif anon is not None:
                anon[1] = True
                anon = None
            continue
        anon = None
        word = by_index.get(tok.word_index)
        if tok.kind is _SUBWORD:
            if word is None:
                word = by_index[tok.word_index] = [[], False]
                words.append(word)
            word[0].append(tok.text)
        elif word is not None:
            word[1] = True
    return tuple(("".join(parts), closed) for parts, closed in words)


def hypothesis_words(transcripts: Sequence[TurnTranscript]) -> list[str]:
    """Call-level hypothesis: every committed word in turn order."""
    return [text for turn in transcripts for text, _ in turn.words]
