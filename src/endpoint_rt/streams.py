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
_CODE_LABELS = (Label.NONSPEECH, Label.SPEECH, None)  # by code; -1 picks None

# Codes of a call's ``token_kind`` column, and the ``token_word`` of a token
# that belongs to no word.
BLANK_CODE = 0
SUBWORD_CODE = 1
EOW_CODE = 2
NO_WORD = -1
_CODE_KINDS = (TokenKind.BLANK, TokenKind.SUBWORD, TokenKind.EOW)  # by code


_FRAME_COLUMNS = (  # name, dtype, ndim
    ("frame_index", np.int64, 1),
    ("features", np.float64, 2),
    ("labels", np.int8, 1),
    ("teacher_labels", np.int8, 1),
)
_TOKEN_COLUMNS = (
    ("token_time", np.int64, 1),
    ("token_kind", np.int8, 1),
    ("token_word", np.int64, 1),
)


@dataclass(frozen=True, eq=False)
class CallRecord:
    """A complete simulated or recorded call, its frames and tokens held as columns.

    Frame k has index ``frame_index[k]``, feature row ``features[k]`` (the
    array is n x d) and label codes ``labels[k]`` and ``teacher_labels[k]``
    (1 speech, 0 nonspeech, -1 absent).  Its time is always
    ``frame_index[k] * frame_ms``.  Token j was emitted at ``token_time[j]``
    ms, is of kind ``token_kind[j]`` (0 BLANK, 1 SUBWORD, 2 EOW), belongs
    to word ``token_word[j]`` (-1 for none) and carries text
    ``token_text[j]`` (a tuple of strings).  The record owns its arrays
    and marks them read-only; ``frames`` and ``tokens`` derive per-frame
    and per-token views on first use.
    """

    call_id: str
    frame_ms: int
    frame_index: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    features: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    teacher_labels: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    token_time: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    token_kind: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    token_word: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    token_text: tuple[str, ...] = ()
    segments: tuple[ReferenceSegment, ...] = ()

    def __post_init__(self) -> None:
        for columns, rows in (
            (_FRAME_COLUMNS, len(self.frame_index)),
            (_TOKEN_COLUMNS, len(self.token_time)),
        ):
            for name, dtype, ndim in columns:
                try:
                    column = np.asarray(getattr(self, name), dtype=dtype)
                except OverflowError as exc:
                    raise ValueError(
                        f"{self.call_id}: {name} holds a value outside "
                        f"{np.dtype(dtype).name}"
                    ) from exc
                if column.ndim != ndim or column.shape[0] != rows:
                    raise ValueError(
                        f"{self.call_id}: {name} has shape {column.shape}, "
                        f"expected {ndim} dimension(s) and {rows} rows"
                    )
                column.setflags(write=False)
                object.__setattr__(self, name, column)
        texts = tuple(self.token_text)
        if len(texts) != len(self.token_time):
            raise ValueError(
                f"{self.call_id}: token_text has {len(texts)} entries, "
                f"expected {len(self.token_time)}"
            )
        object.__setattr__(self, "token_text", texts)
        for name in ("labels", "teacher_labels"):
            codes = getattr(self, name)
            bad = np.flatnonzero((codes < NO_LABEL) | (codes > SPEECH_CODE))
            if bad.size:
                raise ValueError(f"{self.call_id}: frame {bad[0]}: bad {name} code")
        kinds = self.token_kind
        bad = np.flatnonzero((kinds < BLANK_CODE) | (kinds > EOW_CODE))
        if bad.size:
            raise ValueError(f"{self.call_id}: token {bad[0]}: bad token_kind code")
        bad = np.flatnonzero(self.token_word < NO_WORD)
        if bad.size:
            raise ValueError(f"{self.call_id}: token {bad[0]}: bad token_word code")

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

    @cached_property
    def tokens(self) -> tuple[TokenEvent, ...]:
        """Every token as a TokenEvent, built on first use."""
        return self._token_events(np.arange(len(self.token_time)))

    @cached_property
    def non_blank_tokens(self) -> tuple[TokenEvent, ...]:
        """The tokens that are not BLANK, as TokenEvents built on first use.

        They are all the EOW-gated rules and ``commit_transcript`` read.
        """
        return self._token_events(np.flatnonzero(self.token_kind != BLANK_CODE))

    def _token_events(self, rows: np.ndarray) -> tuple[TokenEvent, ...]:
        texts = self.token_text
        return tuple(
            TokenEvent(t, _CODE_KINDS[k], texts[j], None if w == NO_WORD else w)
            for j, t, k, w in zip(
                rows.tolist(),
                self.token_time[rows].tolist(),
                self.token_kind[rows].tolist(),
                self.token_word[rows].tolist(),
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
                for name, _, _ in _FRAME_COLUMNS + _TOKEN_COLUMNS
            )
            and self.token_text == other.token_text
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


def _first_inversion(times: Union[list[int], np.ndarray]) -> Optional[int]:
    """Index of the first time below its predecessor, or None if sorted.

    The package's one sortedness check: merge_streams, run_sweep,
    commit_transcript and align_events all word their errors around it.
    An array is checked in numpy.
    """
    if isinstance(times, np.ndarray):
        inversions = np.flatnonzero(times[1:] < times[:-1])
        return int(inversions[0]) + 1 if inversions.size else None
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

    # token checks in numpy; the SUBWORD-after-EOW rule walks the non-BLANK
    # tokens.  Violations keep token order, and within a token this order
    # of checks: emit order, BLANK text, word order, bounds.
    times, kinds, words = call.token_time, call.token_kind, call.token_word
    found: list[tuple[int, int, Violation]] = []  # (token, check, violation)
    for k in (np.flatnonzero(times[1:] < times[:-1]) + 1).tolist():
        message = f"emit time {times[k]} precedes previous {times[k - 1]}"
        found.append((k, 0, Violation("tokens.emit_time_ms", k, message)))
    texts = call.token_text
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    for k in np.flatnonzero((kinds == BLANK_CODE) & (lengths > 0)).tolist():
        message = "BLANK token carries non-empty text"
        found.append((k, 1, Violation("tokens.text", k, message)))
    eow_seen_at: dict[int, int] = {}
    order_flagged: set[int] = set()
    rows = np.flatnonzero((kinds != BLANK_CODE) & (words != NO_WORD))
    for k, kind, word in zip(rows.tolist(), kinds[rows].tolist(), words[rows].tolist()):
        if kind == EOW_CODE:
            eow_seen_at[word] = k
        elif word in eow_seen_at and word not in order_flagged:
            order_flagged.add(word)
            message = (
                f"token order: SUBWORD of word {word} follows its EOW "
                f"(at token {eow_seen_at[word]})"
            )
            found.append((k, 2, Violation("tokens.word_index", k, message)))
    # every time fits in int64, so a cap beyond it bounds nothing
    outside = (times < 0) | (times > min(end_cap, _INT64_MAX))
    for k in np.flatnonzero(outside).tolist():
        message = f"emit time {times[k]} outside call bounds [0, {end_cap}]"
        found.append((k, 3, Violation("tokens.emit_time_ms", k, message)))
    found.sort(key=lambda entry: entry[:2])
    violations += [v for _, _, v in found]

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
