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

import operator
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


_INT64_MAX = int(np.iinfo(np.int64).max)


class InvalidCall(ValueError):
    """A CallRecord's field or row breaks an invariant of a call.

    ``rows`` names the kind of row at fault, "frame", "token" or
    "segment", and ``index`` which one; a fault of ``frame_ms`` has rows
    "call" and index -1.
    """

    def __init__(self, message: str, rows: str = "call", index: int = -1) -> None:
        super().__init__(message)
        self.rows, self.index = rows, index


def _refuse_first(call_id: str, rows: str, checks: tuple) -> None:
    """Raise InvalidCall for the first of ``rows`` that a check finds at fault.

    ``checks`` holds, in the order each row is checked, the ascending
    indices of the rows at fault and a function from such an index to
    the fault's message.
    """
    faults = [(int(at[0]), c) for c, (at, _) in enumerate(checks) if len(at)]
    if faults:
        k, c = min(faults)
        raise InvalidCall(f"{call_id}: {rows} {k}: {checks[c][1](k)}", rows, k)


def _column(
    call_id: str, name: str, given: object, dtype: type, ndim: int, rows: int
) -> np.ndarray:
    """``given`` as a read-only column; ValueError if its cast changes a value
    or it is not of ``ndim`` dimensions and ``rows`` rows."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            column = np.asarray(given, dtype=dtype)
        # a cast that wraps or truncates changes a value
        kept = column is given or np.array_equal(column, given, equal_nan=True)
    except OverflowError:
        kept = False
    if not kept:
        raise ValueError(f"{call_id}: {name} holds a value outside {np.dtype(dtype)}")
    if column.ndim != ndim or column.shape[0] != rows:
        raise ValueError(
            f"{call_id}: {name} has shape {column.shape}, "
            f"expected {ndim} dimension(s) and {rows} rows"
        )
    column.setflags(write=False)
    return column


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

    ``features`` may also be given as a zero-argument function: its result
    becomes the column, checked like a given one, on the first read of
    ``features``.  A function that raises is called again on the next read.
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
                given = getattr(self, name)
                if name == "features" and callable(given):
                    # __getattr__ reads the column on first use
                    object.__delattr__(self, name)
                    object.__setattr__(self, "_read_features", given)
                    continue
                column = _column(self.call_id, name, given, dtype, ndim, rows)
                object.__setattr__(self, name, column)
        texts = tuple(self.token_text)
        if len(texts) != len(self.token_time):
            raise ValueError(
                f"{self.call_id}: token_text has {len(texts)} entries, "
                f"expected {len(self.token_time)}"
            )
        object.__setattr__(self, "token_text", texts)
        self._check_rows()

    def _check_rows(self) -> None:
        """Raise InvalidCall for the first fault of the call's rows.

        ``frame_ms`` is checked first (and a numpy integer kept as an
        int), then the frames, then the tokens, then the segments, each
        kind of row by index and each row in the order of the checks
        below.  Every time of a call that passes lies in [0, end_ms] and
        end_ms fits in int64, so no int64 column of times can wrap.
        """
        call_id = self.call_id
        try:
            frame_ms = operator.index(self.frame_ms)
        except TypeError:
            raise InvalidCall(
                f"{call_id}: frame_ms must be an integer, got {self.frame_ms!r}"
            ) from None
        object.__setattr__(self, "frame_ms", frame_ms)
        if not 0 < frame_ms <= _INT64_MAX:
            raise InvalidCall(
                f"{call_id}: frame_ms must be positive and within the int64 range, "
                f"got {frame_ms}"
            )
        index, labels, teachers = self.frame_index, self.labels, self.teacher_labels
        end_ms = self.end_ms
        _refuse_first(call_id, "frame", (
            (np.flatnonzero((labels < NO_LABEL) | (labels > SPEECH_CODE)),
             lambda k: "bad labels code"),
            (np.flatnonzero((teachers < NO_LABEL) | (teachers > SPEECH_CODE)),
             lambda k: "bad teacher_labels code"),
            (np.flatnonzero(index < 0), lambda k: f"negative frame index {index[k]}"),
            (np.flatnonzero(index[1:] <= index[:-1]) + 1,
             lambda k: f"frame index {index[k]} does not follow previous {index[k - 1]}"),
            ([len(index) - 1] if end_ms > _INT64_MAX else [],
             lambda k: f"frame {index[k]} ends at {end_ms} ms, beyond the int64 range"),
        ))

        times, kinds, words = self.token_time, self.token_kind, self.token_word
        texts = self.token_text
        eow_at: dict[int, int] = {}  # word -> its last EOW so far
        reopened: list[int] = []  # the first SUBWORD after its word's EOW
        rows = np.flatnonzero((kinds != BLANK_CODE) & (words != NO_WORD))
        for k, kind, word in zip(rows.tolist(), kinds[rows].tolist(), words[rows].tolist()):
            if kind == EOW_CODE:
                eow_at[word] = k
            elif word in eow_at:
                reopened.append(k)
                break
        _refuse_first(call_id, "token", (
            (np.flatnonzero((kinds < BLANK_CODE) | (kinds > EOW_CODE)),
             lambda k: "bad token_kind code"),
            (np.flatnonzero(words < NO_WORD), lambda k: "bad token_word code"),
            (np.flatnonzero(times[1:] < times[:-1]) + 1,
             lambda k: f"emit time {times[k]} precedes previous {times[k - 1]}"),
            ([k for k in np.flatnonzero(kinds == BLANK_CODE).tolist() if texts[k]],
             lambda k: "BLANK token carries non-empty text"),
            (reopened,
             lambda k: f"token order: SUBWORD of word {words[k]} follows its EOW "
             f"(at token {eow_at[int(words[k])]})"),
            (np.flatnonzero((times < 0) | (times > end_ms)),
             lambda k: f"emit time {times[k]} outside call bounds [0, {end_ms}]"),
        ))

        prev_end: Optional[int] = None
        for k, seg in enumerate(self.segments):
            if seg.start_ms < 0:
                message = f"segment start {seg.start_ms} before call bounds [0, {end_ms}]"
            elif seg.start_ms >= seg.end_ms:
                message = f"empty or inverted segment [{seg.start_ms}, {seg.end_ms})"
            elif prev_end is not None and seg.start_ms < prev_end:
                message = (
                    f"overlap: segment starts at {seg.start_ms} before previous end {prev_end}"
                )
            elif seg.end_ms > end_ms:
                message = f"segment end {seg.end_ms} beyond call bounds [0, {end_ms}]"
            else:
                prev_end = seg.end_ms
                continue
            raise InvalidCall(f"{call_id}: segment {k}: {message}", "segment", k)

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for an attribute the instance lacks: a features
        # column given as a function and not yet read
        read = self.__dict__.get("_read_features")
        if name != "features" or read is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = len(self.frame_index)
        column = _column(self.call_id, name, read(), np.float64, 2, rows)
        object.__setattr__(self, name, column)
        del self.__dict__["_read_features"]  # and what it read from
        return column

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

        They are all ``commit_transcript`` reads, and what ``score_runs``
        cuts into turns.
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
        """Frame times in ms, ``frame_index * frame_ms`` (int64)."""
        return self.frame_index * self.frame_ms

    @property
    def end_ms(self) -> int:
        """End of the frame grid (exclusive): last frame time + frame_ms."""
        if not len(self.frame_index):
            return 0
        return (int(self.frame_index[-1]) + 1) * self.frame_ms


def _first_inversion(times: list[int]) -> Optional[int]:
    """Index of the first time below its predecessor, or None if sorted.

    The package's one sortedness check of lists handed in by a caller:
    merge_streams, commit_transcript and align_events all word their
    errors around it.
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

    # a stable sort keeps each stream's order and, listing the decisions
    # first, puts a decision before a token of the same millisecond
    out = [TimelineEvent(d.time_ms, d) for d in vad]
    out += [TimelineEvent(t.emit_time_ms, t) for t in tokens]
    out.sort(key=operator.attrgetter("time_ms"))
    end_time = out[-1].time_ms if out else 0
    out.append(TimelineEvent(end_time, EndOfStream()))
    return out
