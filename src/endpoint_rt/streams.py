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
from functools import cached_property
from typing import Optional, Sequence, Union

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

    A call keeps its frames as columns; ``CallRecord.frames`` hands out
    FrameRecords as views of them.  ``label`` is the ground-truth voice
    activity for the frame;
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


@dataclass(frozen=True, slots=True)
class TokenEvent:
    """A token emission with its (possibly delayed) emission time."""

    emit_time_ms: int
    kind: TokenKind
    text: str = ""
    word_index: Optional[int] = None


@dataclass(frozen=True, slots=True)
class VadDecision:
    """Per-frame VAD output: the frame's time and whether it is speech."""

    time_ms: int
    is_speech: bool


@dataclass(frozen=True, slots=True)
class EndOfStream:
    """Terminal timeline marker; carries no payload of its own."""


TimelinePayload = Union[VadDecision, TokenEvent, EndOfStream]


@dataclass(frozen=True, slots=True)
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


# Codes of a call's ``labels`` and ``teacher_labels`` columns.
NO_LABEL = -1
NONSPEECH_CODE = 0
SPEECH_CODE = 1
_LABEL_CODES = {
    None: NO_LABEL,
    Label.NONSPEECH: NONSPEECH_CODE,
    Label.SPEECH: SPEECH_CODE,
}
_CODE_LABELS = (Label.NONSPEECH, Label.SPEECH, None)  # by code; -1 picks None


def _label_codes(labels) -> np.ndarray:
    return np.array([_LABEL_CODES[lab] for lab in labels], dtype=np.int8)


_COLUMNS = (  # name, dtype, ndim
    ("frame_index", np.int64, 1),
    ("features", np.float64, 2),
    ("labels", np.int8, 1),
    ("teacher_labels", np.int8, 1),
)


@dataclass(frozen=True, eq=False)
class CallRecord:
    """A complete simulated or recorded call, its frames held as columns.

    Frame k has index ``frame_index[k]``, feature row ``features[k]`` (the
    array is n x d) and label codes ``labels[k]`` and ``teacher_labels[k]``
    (1 speech, 0 nonspeech, -1 absent).  Its time is always
    ``frame_index[k] * frame_ms``.  The record owns its arrays and marks
    them read-only; ``frames`` derives per-frame FrameRecord views on first
    use, and ``from_frames`` builds a call from FrameRecords.
    """

    call_id: str
    frame_ms: int
    frame_index: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    features: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    teacher_labels: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    tokens: tuple[TokenEvent, ...] = ()
    segments: tuple[ReferenceSegment, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.frame_index)
        for name, dtype, ndim in _COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.ndim != ndim or column.shape[0] != n:
                raise ValueError(
                    f"{self.call_id}: {name} has shape {column.shape}, "
                    f"expected {ndim} dimension(s) and {n} rows"
                )
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        for name in ("labels", "teacher_labels"):
            codes = getattr(self, name)
            bad = np.flatnonzero((codes < NO_LABEL) | (codes > SPEECH_CODE))
            if bad.size:
                raise ValueError(f"{self.call_id}: frame {bad[0]}: bad {name} code")

    @classmethod
    def from_frames(
        cls,
        call_id: str,
        frame_ms: int,
        frames: Sequence[FrameRecord] = (),
        tokens: Sequence[TokenEvent] = (),
        segments: Sequence[ReferenceSegment] = (),
    ) -> "CallRecord":
        """Build a call from FrameRecords, stacking their features once.

        Raises ValueError naming the first frame whose time is not
        ``index * frame_ms`` or whose feature dim differs from the first
        frame's.
        """
        rows = [np.asarray(fr.features, dtype=np.float64) for fr in frames]
        for k, (fr, row) in enumerate(zip(frames, rows)):
            if fr.time_ms != fr.index * frame_ms:
                raise ValueError(
                    f"{call_id}: frame {k}: time {fr.time_ms} off the frame grid "
                    f"(expected {fr.index * frame_ms})"
                )
            if row.ndim != 1:
                raise ValueError(
                    f"{call_id}: frame {k}: features of shape {row.shape} are not a vector"
                )
            if row.shape != rows[0].shape:
                raise ValueError(
                    f"{call_id}: frame {k}: feature dim {row.shape[0]} differs from "
                    f"the first frame's {rows[0].shape[0]}"
                )
        return cls(
            call_id,
            frame_ms,
            frame_index=np.array([fr.index for fr in frames], dtype=np.int64),
            features=np.stack(rows) if rows else np.empty((0, 0)),
            labels=_label_codes(fr.label for fr in frames),
            teacher_labels=_label_codes(fr.teacher_label for fr in frames),
            tokens=tuple(tokens),
            segments=tuple(segments),
        )

    @cached_property
    def frames(self) -> tuple[FrameRecord, ...]:
        """Per-frame views of the columns, built on first use."""
        f = self.frame_ms
        return tuple(
            FrameRecord(i, i * f, row, _CODE_LABELS[a], _CODE_LABELS[b])
            for i, row, a, b in zip(
                self.frame_index.tolist(),
                self.features,
                self.labels.tolist(),
                self.teacher_labels.tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CallRecord):
            return NotImplemented
        return (
            self.call_id == other.call_id
            and self.frame_ms == other.frame_ms
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name, _, _ in _COLUMNS
            )
            and self.tokens == other.tokens
            and self.segments == other.segments
        )

    def __hash__(self) -> int:
        return hash((self.call_id, self.frame_ms, len(self.frame_index)))

    @property
    def frame_times(self) -> np.ndarray:
        """Frame times in ms, ``frame_index * frame_ms`` (int64; see validate_call)."""
        return self.frame_index * self.frame_ms

    @property
    def end_ms(self) -> int:
        """End of the frame grid (exclusive): last frame time + frame_ms."""
        if not len(self.frame_index):
            return 0
        return (int(self.frame_index[-1]) + 1) * self.frame_ms


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


_INT64_MAX = int(np.iinfo(np.int64).max)


def validate_call(call: CallRecord) -> list[Violation]:
    """Check a CallRecord against its structural invariants.

    Returns violations as data (empty list for a well-formed call); never
    raises for content problems, so invalid calls can be reported in full.
    Frame times off the grid and mixed feature dims cannot reach it: the
    record's columns rule them out when the call is built.
    """
    violations: list[Violation] = []

    if not 0 < call.frame_ms <= _INT64_MAX:
        violations.append(
            Violation(
                "frame_ms",
                -1,
                f"frame_ms must be positive and within the int64 range, got {call.frame_ms}",
            )
        )
        return violations  # the frame grid is meaningless below here

    index = call.frame_index
    for k in np.flatnonzero(index < 0).tolist():
        violations.append(
            Violation("frames.index", k, f"negative frame index {index[k]}")
        )
    for k in (np.flatnonzero(index[1:] <= index[:-1]) + 1).tolist():
        violations.append(
            Violation(
                "frames.index",
                k,
                f"frame index {index[k]} does not follow previous {index[k - 1]}",
            )
        )
    # every time of a valid call lies in [0, end_ms], so int64 columns of
    # frame times cannot wrap
    end_cap = call.end_ms
    if end_cap > _INT64_MAX:
        k = len(index) - 1
        violations.append(
            Violation(
                "frames.index",
                k,
                f"frame {index[k]} ends at {end_cap} ms, beyond the int64 range",
            )
        )
    violations.sort(key=lambda v: v.index)  # frame order: callers report the first

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
        if not 0 <= tok.emit_time_ms <= end_cap:
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
        if seg.end_ms > end_cap:
            violations.append(
                Violation(
                    "segments.end_ms",
                    k,
                    f"segment end {seg.end_ms} beyond call bounds [0, {end_cap}]",
                )
            )
    return violations
