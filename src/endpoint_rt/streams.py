"""Core event-stream types and stream operations.

A call is observed as two time-ordered streams: frame-level VAD decisions
and ASR token emissions.  Everything downstream (endpointing, evaluation)
consumes a single merged timeline, so the merge order -- including the
tie rule at equal timestamps -- is part of the contract: at the same
millisecond a VAD decision is seen before a token, and the timeline is
terminated by exactly one EndOfStream marker.

All timestamps are integer milliseconds; nothing in this package keeps
time as floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np


class Label(str, Enum):
    """Frame-level voice activity label."""

    SPEECH = "speech"
    NONSPEECH = "nonspeech"


class TokenKind(str, Enum):
    """ASR token categories as seen by the endpointer."""

    BLANK = "BLANK"
    SUBWORD = "SUBWORD"
    EOW = "EOW"


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """One acoustic frame: features plus optional labels.

    ``label`` is the ground-truth voice activity for the frame;
    ``teacher_label`` is the (possibly noisy) label a teacher system would
    have assigned, kept separately so training can consume either column.
    """

    index: int
    time_ms: int
    features: np.ndarray
    label: Optional[Label] = None
    teacher_label: Optional[Label] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameRecord):
            return NotImplemented
        return (
            self.index == other.index
            and self.time_ms == other.time_ms
            and self.label == other.label
            and self.teacher_label == other.teacher_label
            and np.array_equal(self.features, other.features)
        )

    def __hash__(self) -> int:
        return hash((self.index, self.time_ms, self.label, self.teacher_label))


@dataclass(frozen=True)
class TokenEvent:
    """A token emission with its (possibly delayed) emission time."""

    emit_time_ms: int
    kind: TokenKind
    text: str = ""
    word_index: Optional[int] = None


@dataclass(frozen=True)
class VadDecision:
    """Per-frame VAD output: posterior plus the thresholded decision."""

    frame_index: int
    time_ms: int
    posterior: float
    is_speech: bool


@dataclass(frozen=True)
class EndOfStream:
    """Terminal timeline marker; carries no payload of its own."""


TimelinePayload = Union[VadDecision, TokenEvent, EndOfStream]


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the merged timeline."""

    time_ms: int
    payload: TimelinePayload


@dataclass(frozen=True)
class ReferenceSegment:
    """Ground-truth turn: acoustic span plus the words spoken in it."""

    call_id: str
    start_ms: int
    end_ms: int
    words: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class CallRecord:
    """A complete simulated or recorded call."""

    call_id: str
    frame_ms: int
    frames: tuple[FrameRecord, ...] = ()
    tokens: tuple[TokenEvent, ...] = ()
    segments: tuple[ReferenceSegment, ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CallRecord):
            return NotImplemented
        return (
            self.call_id == other.call_id
            and self.frame_ms == other.frame_ms
            and self.frames == other.frames
            and self.tokens == other.tokens
            and self.segments == other.segments
        )

    def __hash__(self) -> int:
        return hash((self.call_id, self.frame_ms, len(self.frames)))

    @property
    def end_ms(self) -> int:
        """End of the frame grid (exclusive): last frame time + frame_ms."""
        if not self.frames:
            return 0
        return self.frames[-1].time_ms + self.frame_ms


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_call.

    ``field`` names the offending record field (dotted path), ``index`` the
    offending element (-1 for call-level problems).
    """

    field: str
    index: int
    message: str


def _first_inversion(times: list[int]) -> Optional[int]:
    """Index of the first time below its predecessor, or None if sorted.

    The package's one sortedness check: merge_streams, commit_transcript
    and align_events all word their errors around it.
    """
    for i in range(1, len(times)):
        if times[i] < times[i - 1]:
            return i
    return None


def merge_streams(
    vad: list[VadDecision], tokens: list[TokenEvent]
) -> list[TimelineEvent]:
    """Merge a VAD stream and a token stream into one sorted timeline.

    Both inputs must already be sorted by time.  At equal timestamps the
    VAD decision is placed before the token (the endpointer adjudicates a
    token emitted "at" a frame only after that frame's VAD state is
    known); within each stream the input order is kept.  The result ends
    with a single EndOfStream event at the maximum event time (0 if both
    streams are empty).

    Raises ValueError naming the index of the first out-of-order element
    if either input is unsorted.
    """
    inv = _first_inversion([d.time_ms for d in vad])
    if inv is not None:
        raise ValueError(f"vad stream unsorted: first inversion at index {inv}")
    inv = _first_inversion([t.emit_time_ms for t in tokens])
    if inv is not None:
        raise ValueError(f"token stream unsorted: first inversion at index {inv}")

    out: list[TimelineEvent] = []
    i = j = 0
    while i < len(vad) or j < len(tokens):
        if j >= len(tokens) or (
            i < len(vad) and vad[i].time_ms <= tokens[j].emit_time_ms
        ):
            out.append(TimelineEvent(vad[i].time_ms, vad[i]))
            i += 1
        else:
            out.append(TimelineEvent(tokens[j].emit_time_ms, tokens[j]))
            j += 1
    end_time = out[-1].time_ms if out else 0
    out.append(TimelineEvent(end_time, EndOfStream()))
    return out


def validate_call(call: CallRecord) -> list[Violation]:
    """Check a CallRecord against its structural invariants.

    Returns violations as data (empty list for a well-formed call); never
    raises for content problems, so invalid calls can be reported in full.
    """
    violations: list[Violation] = []

    if call.frame_ms <= 0:
        violations.append(
            Violation("frame_ms", -1, f"frame_ms must be positive, got {call.frame_ms}")
        )
        return violations  # the frame grid is meaningless below here

    feature_dim: Optional[int] = None
    for k, frame in enumerate(call.frames):
        if frame.index < 0:
            violations.append(
                Violation("frames.index", k, f"negative frame index {frame.index}")
            )
        if frame.time_ms != frame.index * call.frame_ms:
            violations.append(
                Violation(
                    "frames.time_ms",
                    k,
                    f"time {frame.time_ms} off the frame grid "
                    f"(expected {frame.index * call.frame_ms})",
                )
            )
        dim = int(np.asarray(frame.features).shape[-1]) if frame.features is not None else 0
        if feature_dim is None:
            feature_dim = dim
        elif dim != feature_dim:
            violations.append(
                Violation(
                    "frames.features",
                    k,
                    f"feature dim {dim} differs from first frame's {feature_dim}",
                )
            )

    end_cap = call.end_ms if call.frames else None

    last_emit: Optional[int] = None
    eow_seen_at: dict[int, int] = {}
    order_flagged: set[int] = set()
    for k, tok in enumerate(call.tokens):
        if last_emit is not None and tok.emit_time_ms < last_emit:
            violations.append(
                Violation(
                    "tokens.emit_time_ms",
                    k,
                    f"emit time {tok.emit_time_ms} precedes previous {last_emit}",
                )
            )
        last_emit = tok.emit_time_ms
        if tok.kind is TokenKind.BLANK and tok.text:
            violations.append(
                Violation("tokens.text", k, "BLANK token carries non-empty text")
            )
        if tok.kind is TokenKind.EOW and tok.word_index is not None:
            eow_seen_at[tok.word_index] = k
        if (
            tok.kind is TokenKind.SUBWORD
            and tok.word_index is not None
            and tok.word_index in eow_seen_at
            and tok.word_index not in order_flagged
        ):
            order_flagged.add(tok.word_index)
            violations.append(
                Violation(
                    "tokens.word_index",
                    k,
                    f"token order: SUBWORD of word {tok.word_index} follows its EOW "
                    f"(at token {eow_seen_at[tok.word_index]})",
                )
            )
        if end_cap is not None and not (0 <= tok.emit_time_ms <= end_cap):
            violations.append(
                Violation(
                    "tokens.emit_time_ms",
                    k,
                    f"emit time {tok.emit_time_ms} outside call bounds [0, {end_cap}]",
                )
            )

    prev_end: Optional[int] = None
    for k, seg in enumerate(call.segments):
        if seg.start_ms >= seg.end_ms:
            violations.append(
                Violation(
                    "segments.start_ms",
                    k,
                    f"empty or inverted segment [{seg.start_ms}, {seg.end_ms})",
                )
            )
        if prev_end is not None and seg.start_ms < prev_end:
            violations.append(
                Violation(
                    "segments.start_ms",
                    k,
                    f"overlap: segment starts at {seg.start_ms} before previous "
                    f"end {prev_end}",
                )
            )
        prev_end = max(prev_end, seg.end_ms) if prev_end is not None else seg.end_ms
        if end_cap is not None and seg.end_ms > end_cap:
            violations.append(
                Violation(
                    "segments.end_ms",
                    k,
                    f"segment end {seg.end_ms} beyond call bounds [0, {end_cap}]",
                )
            )
    return violations
