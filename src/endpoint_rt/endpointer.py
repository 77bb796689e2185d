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
endpoint has consumed yet, and is empty otherwise.  A deferral ends at a
late EOW through one discharge path, whether the EOW arrives while the
deferral is open or was already in the slot when a sparse timeline
resolved the fire late.

After emitting, the machine disarms until the next speech frame (token
modes: until the next non-blank token), so each maximal nonspeech run
yields at most one endpoint.

``run_call`` folds ``step()`` over a timeline and is the reference.
``run_sweep`` gives the same endpoints for many configs from one read of
a timeline: ``TS`` and ``BLANK`` from their runs, the EOW-gated modes
through ``run_call`` over the timeline without its BLANK tokens.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .streams import (
    EndOfStream,
    TimelineEvent,
    TokenEvent,
    TokenKind,
    VadDecision,
    _first_inversion,
)

log = logging.getLogger(__name__)


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
class _PendingFire:
    """An EOW-gated endpoint stamped at fire_time, awaiting time > fire_time."""

    fire_time: int
    silence_start: int
    speech_at_boundary: bool = False


@dataclass
class _Deferral:
    silence_start: int
    trigger_time: int
    deadline: int


def new_endpointer(cfg: EndpointerConfig) -> "Endpointer":
    """A fresh machine for a configuration (checked when it was built)."""
    return Endpointer(cfg)


class Endpointer:
    """Single-pass endpoint detector; feed events in time order via step()."""

    def __init__(self, cfg: EndpointerConfig):
        self.cfg = cfg
        self._last_time: Optional[int] = None
        self._poisoned = False
        self._finished = False
        self._armed = True
        # blank-token run (BLANK mode)
        self._blank_run = 0
        self._blank_run_start = 0
        # nonspeech frame run (VAD modes)
        self._run_start: Optional[int] = None
        # the EOW slot: emit time of an unconsumed EOW that is the last
        # non-blank token, else None
        self._eow: Optional[int] = None
        self._pending: Union[_PendingFire, _Deferral, None] = None

    # -- public -------------------------------------------------------------

    def step(self, event: TimelineEvent) -> Optional[EndpointEvent]:
        """Advance the machine by one timeline event.

        Returns the endpoint the event resolves, if any.  Events must be
        non-decreasing in time; an out-of-order event poisons the state
        and every later call fails.
        """
        if self._poisoned:
            raise RuntimeError("endpointer state is poisoned by an earlier error")
        if self._finished:
            raise RuntimeError("endpointer already saw EndOfStream")
        t = event.time_ms
        if self._last_time is not None and t < self._last_time:
            self._poisoned = True
            raise ValueError(
                f"out-of-order event at {t} ms after {self._last_time} ms"
            )
        self._last_time = t

        out: list[EndpointEvent] = []
        if isinstance(event.payload, EndOfStream):
            self._flush(t, out)
            self._finished = True
        else:
            # after this, a pending fire is stamped at or after t and an
            # open deferral's deadline lies at or after t
            if self._pending is not None:
                self._resolve(t, out)
            if isinstance(event.payload, VadDecision):
                self._on_vad(event.payload, t, out)
            elif isinstance(event.payload, TokenEvent):
                self._on_token(event.payload, t, out)
            else:
                self._poisoned = True
                raise ValueError(f"unknown payload type {type(event.payload).__name__}")
            # a condition established by this event may already lie in the
            # past (sparse timelines); settle it against the current clock
            if self._pending is not None:
                self._resolve(t, out)
        assert len(out) <= 1, "one event can resolve at most one endpoint"
        return out[0] if out else None

    # -- emission helpers ---------------------------------------------------

    def _emit(
        self,
        out: list[EndpointEvent],
        time_ms: int,
        trigger: Trigger,
        silence_start: int,
        deferred_by: int = 0,
    ) -> None:
        out.append(EndpointEvent(time_ms, trigger, silence_start, deferred_by))
        self._armed = False
        log.debug("endpoint %s at %d ms (silence from %d)", trigger, time_ms, silence_start)

    def _discharge(self, deferral: _Deferral, when: int, out: list[EndpointEvent]) -> None:
        """End a deferral at the EOW emitted at ``when``, within its deadline."""
        self._pending = None
        self._eow = None
        self._emit(
            out,
            when,
            Trigger.TS_AND_EOW_DEFERRED,
            deferral.silence_start,
            when - deferral.trigger_time,
        )

    def _time_out(self, deferral: _Deferral, when: int, out: list[EndpointEvent]) -> None:
        """End a deferral no EOW answered, at its deadline or the stream's end."""
        self._pending = None
        self._emit(
            out,
            when,
            Trigger.DEFERRAL_TIMEOUT,
            deferral.silence_start,
            max(0, when - deferral.trigger_time),
        )

    # -- pending resolution ---------------------------------------------------

    def _resolve(self, now: int, out: list[EndpointEvent]) -> None:
        p = self._pending
        if isinstance(p, _PendingFire) and now > p.fire_time:
            self._adjudicate(p, out)
            p = self._pending
        if isinstance(p, _Deferral) and now > p.deadline:
            self._time_out(p, p.deadline, out)

    def _adjudicate(self, p: _PendingFire, out: list[EndpointEvent]) -> None:
        """Settle a pending fire once the clock has passed its fire time."""
        self._pending = None
        if self.cfg.mode is Mode.EOW:
            # any cancelling SUBWORD at or before fire_time already cleared
            # the pending entry, so the condition held through fire_time
            self._emit(out, p.fire_time, Trigger.EOW, p.silence_start)
            self._eow = None
            return
        if self._eow is not None and self._eow <= p.fire_time:
            self._emit(out, p.fire_time, Trigger.TS_AND_EOW_IMMEDIATE, p.silence_start)
            self._eow = None
            return
        if p.speech_at_boundary:
            return  # speech resumed the instant the threshold completed
        deferral = _Deferral(
            p.silence_start,
            p.fire_time,
            p.silence_start + self.cfg.deferral_cap_ms,
        )
        # an EOW already in the slot lies after the fire time; sparse
        # timelines resolve late, so it may also lie before the deadline
        if self._eow is not None and self._eow <= deferral.deadline:
            self._discharge(deferral, self._eow, out)
        else:
            self._pending = deferral

    # -- event handlers -------------------------------------------------------

    def _on_vad(self, dec: VadDecision, t: int, out: list[EndpointEvent]) -> None:
        mode = self.cfg.mode
        if mode is Mode.BLANK:
            return
        if dec.is_speech:
            p = self._pending
            if isinstance(p, _Deferral):
                self._pending = None  # speech resumption cancels the deferral
            elif isinstance(p, _PendingFire) and mode is Mode.TS_AND_EOW:
                p.speech_at_boundary = True
            # an EOW-mode pending fire survives: its silence span completed
            # and the closing token is in hand
            self._run_start = None
            self._armed = True
            return

        if self._run_start is None:
            self._run_start = t
        if mode is Mode.EOW:
            self._maybe_arm_eow_fire()
            return
        # TS and TS_AND_EOW: one threshold crossing per run; an endpoint
        # disarms the run and a pending fire blocks a second one
        if (
            self._armed
            and self._pending is None
            and t + self.cfg.frame_ms - self._run_start >= self.cfg.ts_threshold_ms
        ):
            fire_time = self._run_start + self.cfg.ts_threshold_ms
            if mode is Mode.TS:
                self._emit(out, fire_time, Trigger.TS, self._run_start)
            else:
                self._pending = _PendingFire(fire_time, self._run_start)

    def _maybe_arm_eow_fire(self) -> None:
        if (
            self._armed
            and self._pending is None
            and self._run_start is not None
            and self._eow is not None
        ):
            self._pending = _PendingFire(
                max(self._run_start + self.cfg.frame_ms, self._eow), self._run_start
            )

    def _on_token(self, tok: TokenEvent, t: int, out: list[EndpointEvent]) -> None:
        if tok.kind is TokenKind.BLANK:
            if self.cfg.mode is Mode.BLANK:
                if self._blank_run == 0:
                    self._blank_run_start = t
                self._blank_run += 1
                if self._armed and self._blank_run >= self.cfg.blank_run_frames:
                    self._emit(out, t, Trigger.BLANK_RUN, self._blank_run_start)
            return

        if self.cfg.mode is Mode.BLANK:
            self._blank_run = 0
            self._armed = True
        elif tok.kind is TokenKind.SUBWORD:
            self._eow = None
            if isinstance(self._pending, _PendingFire) and self.cfg.mode is Mode.EOW:
                self._pending = None  # the word reopened before the endpoint stood
        else:  # EOW
            self._eow = t
            if isinstance(self._pending, _Deferral):
                # step() timed out a deferral whose deadline lies before t
                self._discharge(self._pending, t, out)
            elif self.cfg.mode is Mode.EOW:
                self._maybe_arm_eow_fire()

    # -- end of stream ----------------------------------------------------------

    def _flush(self, eos_time: int, out: list[EndpointEvent]) -> None:
        # a fire still pending was stamped after every event, so any EOW in
        # hand is at or before its fire time and _adjudicate settles it as
        # it would mid-stream; a deferral left open times out at the end
        if isinstance(self._pending, _PendingFire):
            self._adjudicate(self._pending, out)
        if isinstance(self._pending, _Deferral):
            self._time_out(self._pending, min(self._pending.deadline, eos_time), out)


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
    cfgs: Sequence[EndpointerConfig], timeline: Sequence[TimelineEvent]
) -> list[list[EndpointEvent]]:
    """The endpoints ``run_call`` gives for each config, from one timeline.

    The timeline is read once into arrays of VAD decision times and
    speech flags and of token times and BLANK flags.  ``TS`` and ``BLANK``
    come from runs: ``TS`` ends every maximal run of consecutive nonspeech
    decisions whose first time s and last time l satisfy
    l + frame_ms - s >= delta, at s + delta; ``BLANK`` ends every maximal
    run of at least N consecutive BLANK tokens at its N-th blank, with the
    first blank's time as silence start.

    The EOW-gated modes step the machine over the timeline without its
    BLANK tokens.  Their token handler returns at once on a BLANK, so a
    BLANK's only effect is the pending-fire resolution ``step()`` runs
    before it; the next event's ``step()`` runs the same resolution before
    its own handler, and EndOfStream settles anything still open.  ``EOW``
    reads only ``frame_ms``, so one ``run_call`` serves every delta;
    ``TS_AND_EOW`` goes through ``run_call`` once per distinct delta, cap
    and frame.  A timeline ``run_call`` rejects raises the same error
    here, whatever the modes.
    """
    vad_t: list[int] = []
    speech: list[bool] = []
    tok_t: list[int] = []
    blank: list[bool] = []
    heard: list[TimelineEvent] = []  # the timeline without its BLANK tokens
    last: Optional[int] = None
    finished = False
    for event in timeline:  # step()'s checks, in its order
        if finished:
            raise RuntimeError("endpointer already saw EndOfStream")
        t = event.time_ms
        if last is not None and t < last:
            raise ValueError(f"out-of-order event at {t} ms after {last} ms")
        last = t
        p = event.payload
        if isinstance(p, VadDecision):
            vad_t.append(t)
            speech.append(bool(p.is_speech))
        elif isinstance(p, TokenEvent):
            tok_t.append(t)
            is_blank = p.kind is TokenKind.BLANK
            blank.append(is_blank)
            if is_blank:
                continue
        elif isinstance(p, EndOfStream):
            finished = True
        else:
            raise ValueError(f"unknown payload type {type(p).__name__}")
        heard.append(event)

    vad_times = np.array(vad_t, dtype=np.int64)
    nonspeech_first, nonspeech_last = _runs(~np.array(speech, dtype=bool))
    tok_times = np.array(tok_t, dtype=np.int64)
    blank_first, blank_last = _runs(np.array(blank, dtype=bool))

    def endpoints(cfg: EndpointerConfig) -> list[EndpointEvent]:
        if cfg.mode is Mode.TS:
            starts = vad_times[nonspeech_first]
            spans = vad_times[nonspeech_last] + cfg.frame_ms - starts
            delta = cfg.ts_threshold_ms
            return [
                EndpointEvent(s + delta, Trigger.TS, s)
                for s in starts[spans >= delta].tolist()
            ]
        if cfg.mode is Mode.BLANK:
            n = cfg.blank_run_frames
            first = blank_first[blank_last - blank_first + 1 >= n]
            ends = tok_times[first + n - 1]
            return [
                EndpointEvent(t, Trigger.BLANK_RUN, s)
                for s, t in zip(tok_times[first].tolist(), ends.tolist())
            ]
        return run_call(cfg, heard)

    shared: dict[tuple, list[EndpointEvent]] = {}
    out = []
    for cfg in cfgs:
        key = _rule_inputs(cfg)
        if key not in shared:
            shared[key] = endpoints(cfg)
        out.append(list(shared[key]))
    return out


def _rule_inputs(cfg: EndpointerConfig) -> tuple:
    """The config fields cfg's rule reads; configs equal in them agree."""
    if cfg.mode is Mode.BLANK:
        return (cfg.mode, cfg.blank_run_frames)
    if cfg.mode is Mode.EOW:
        return (cfg.mode, cfg.frame_ms)
    if cfg.mode is Mode.TS:
        return (cfg.mode, cfg.ts_threshold_ms, cfg.frame_ms)
    return (cfg.mode, cfg.ts_threshold_ms, cfg.deferral_cap_ms, cfg.frame_ms)


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
    inv = _first_inversion(boundaries)
    if inv is not None:
        raise ValueError(
            f"endpoints out of order: {boundaries[inv]} after {boundaries[inv - 1]}"
        )

    non_blank = [t for t in tokens if t.kind is not TokenKind.BLANK]
    inv = _first_inversion([t.emit_time_ms for t in non_blank])
    if inv is not None:
        raise ValueError(f"token stream unsorted: first inversion at index {inv}")

    # slice tokens into turns
    turn_tokens: list[list[TokenEvent]] = [[] for _ in range(len(boundaries) + 1)]
    pos = 0
    for tok in non_blank:
        while pos < len(boundaries) and tok.emit_time_ms > boundaries[pos]:
            pos += 1
        turn_tokens[pos].append(tok)

    transcripts: list[TurnTranscript] = []
    anon_counter = 0

    def build_words(toks: list[TokenEvent]) -> tuple[tuple[str, bool], ...]:
        nonlocal anon_counter
        order: list[object] = []
        parts: dict[object, list[str]] = {}
        closed: dict[object, bool] = {}
        open_anon: Optional[object] = None
        for tok in toks:
            if tok.word_index is None:
                if tok.kind is TokenKind.SUBWORD:
                    if open_anon is None:
                        open_anon = ("anon", anon_counter)
                        anon_counter += 1
                        order.append(open_anon)
                        parts[open_anon] = []
                        closed[open_anon] = False
                    parts[open_anon].append(tok.text)
                elif open_anon is not None:
                    closed[open_anon] = True
                    open_anon = None
                continue
            open_anon = None
            key = tok.word_index
            if tok.kind is TokenKind.SUBWORD:
                if key not in parts:
                    order.append(key)
                    parts[key] = []
                    closed[key] = False
                parts[key].append(tok.text)
            elif key in parts:
                closed[key] = True
        return tuple(("".join(parts[k]), closed[k]) for k in order if parts[k])

    n_turns = len(boundaries)
    for k in range(n_turns):
        start = boundaries[k - 1] if k else 0
        transcripts.append(
            TurnTranscript(k, start, boundaries[k], build_words(turn_tokens[k]))
        )
    if not boundaries:
        transcripts.append(
            TurnTranscript(0, 0, stream_end_ms, build_words(turn_tokens[0]))
        )
    elif turn_tokens[n_turns]:
        transcripts.append(
            TurnTranscript(
                n_turns,
                boundaries[-1],
                stream_end_ms,
                build_words(turn_tokens[n_turns]),
            )
        )
    return transcripts


def hypothesis_words(transcripts: Sequence[TurnTranscript]) -> list[str]:
    """Call-level hypothesis: every committed word in turn order."""
    return [text for turn in transcripts for text, _ in turn.words]
