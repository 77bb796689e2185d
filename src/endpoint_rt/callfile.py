"""Line-oriented text formats for calls, endpoints, transcripts, and reports.

Every format starts with a ``format=1`` version line (the CSV report uses
a ``# format=1`` comment so spreadsheet tools still open it).  Formats
with a reader round-trip exactly: floats are written with ``repr``, which
the reader recovers bit-identically, and empty strings or absent values
are written as the placeholder ``-``.

Call file layout, one call per file::

    format=1
    call <call_id> <frame_ms> <feature_dim>
    frame <index> <label|-> <teacher_label|-> <f0> <f1> ...
    token <emit_time_ms> <kind> <text|-> <word_index|->
    segment <start_ms> <end_ms> <word> ...

Endpoint files carry one ``endpoint`` line per event, each one a rule of
the file's mode writes (``_check_endpoint``).  Transcript files are
written for people and never read back: one ``turn`` line per turn, with
unclosed (fragment) words marked by a trailing ``*``.  The report CSV
has the fixed header ``mode,delta_ms,tolerance_ms,precision,recall,f1,
wer,S,D,I,mean_latency_ms,median_latency_ms,deferral_timeouts``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NoReturn, Optional, Sequence, Union, get_type_hints

import numpy as np

from .endpointer import EndpointEvent, Mode, Trigger, TurnTranscript
from .evaluator import EvalReport
from .streams import (
    BLANK_CODE,
    EOW_CODE,
    NO_LABEL,
    NO_WORD,
    NONSPEECH_CODE,
    SPEECH_CODE,
    SUBWORD_CODE,
    CallRecord,
    InvalidCall,
    Label,
    ReferenceSegment,
    TokenKind,
)

__all__ = [
    "FORMAT_LINE",
    "REPORT_COLUMNS",
    "ReportRow",
    "save_call",
    "load_call",
    "save_endpoints",
    "load_endpoints",
    "save_transcripts",
    "save_report",
    "load_report",
]

FORMAT_LINE = "format=1"
_PLACEHOLDER = "-"

REPORT_COLUMNS = (
    "mode",
    "delta_ms",
    "tolerance_ms",
    "precision",
    "recall",
    "f1",
    "wer",
    "S",
    "D",
    "I",
    "mean_latency_ms",
    "median_latency_ms",
    "deferral_timeouts",
)
# the EvalReport fields written after mode, delta_ms and tolerance_ms, in
# column order, and the type each column converts to when read
_REPORT_FIELDS = [f.name for f in fields(EvalReport)]
_REPORT_TYPES = [get_type_hints(EvalReport)[name] for name in _REPORT_FIELDS]
_report_values = attrgetter(*_REPORT_FIELDS)


class FormatError(ValueError):
    """A file does not parse as the format it claims to be."""


def _fail(path: Union[str, Path], lineno: int, message: str) -> NoReturn:
    raise FormatError(f"{path}:{lineno}: {message}")


def _opt(value: str) -> Optional[str]:
    return None if value == _PLACEHOLDER else value


def _encode(value: Optional[str]) -> str:
    if value is None or value == "":
        return _PLACEHOLDER
    if any(ch.isspace() for ch in value) or value == _PLACEHOLDER:
        raise ValueError(f"cannot serialize text field {value!r}")
    return value


_FRAGMENT_MARK = "*"


def _encode_word(value: str) -> str:
    """A token text or transcript word, which must not end in the fragment mark."""
    if value.endswith(_FRAGMENT_MARK):
        raise ValueError(
            f"cannot serialize word {value!r}: a trailing '*' marks an unclosed word"
        )
    return _encode(value)


def _read_text(path: Union[str, Path]) -> str:
    """The file as ASCII text; a non-ASCII byte is an error naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bad byte's line number, counted the way splitlines counts
        lineno = len((data[: exc.start].decode("ascii") + "x").splitlines())
        _fail(path, lineno, f"non-ASCII byte 0x{data[exc.start]:02x}")


def _read_lines(path: Union[str, Path]) -> list[str]:
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        _fail(path, 1, f"missing {FORMAT_LINE!r} header")
    return lines


# -- call files ---------------------------------------------------------------


_LABEL_CODE = {
    _PLACEHOLDER: NO_LABEL,
    Label.NONSPEECH.value: NONSPEECH_CODE,
    Label.SPEECH.value: SPEECH_CODE,
}
_LABEL_TEXT = {code: text for text, code in _LABEL_CODE.items()}
_KIND_CODE = {
    TokenKind.BLANK.value: BLANK_CODE,
    TokenKind.SUBWORD.value: SUBWORD_CODE,
    TokenKind.EOW.value: EOW_CODE,
}
_KIND_TEXT = {code: text for text, code in _KIND_CODE.items()}


def save_call(call: CallRecord, path: Union[str, Path]) -> None:
    out = [
        FORMAT_LINE,
        f"call {_encode(call.call_id)} {call.frame_ms} {call.features.shape[1]}",
    ]
    for index, label, teacher, row in zip(
        call.frame_index.tolist(),
        call.labels.tolist(),
        call.teacher_labels.tolist(),
        call.features.tolist(),
    ):
        labels = f"{_LABEL_TEXT[label]} {_LABEL_TEXT[teacher]}"
        out.append(f"frame {index} {labels} {' '.join(map(repr, row))}".rstrip())
    for time, kind, text, word in zip(
        call.token_time.tolist(),
        call.token_kind.tolist(),
        call.token_text,
        call.token_word.tolist(),
    ):
        idx = _PLACEHOLDER if word == NO_WORD else str(word)
        out.append(f"token {time} {_KIND_TEXT[kind]} {_encode_word(text)} {idx}")
    for seg in call.segments:
        words = " ".join(_encode(w) for w in seg.words)
        out.append(f"segment {seg.start_ms} {seg.end_ms} {words}".rstrip())
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _read_features(
    path: Union[str, Path], dim: int, lines: list[str], linenos: list[int]
) -> np.ndarray:
    """The feature values of the frame ``lines`` (numbered ``linenos``, each
    of ``4 + dim`` fields), converted as ``float()`` converts them.

    A value that is not a float raises FormatError naming its line.
    """
    if lines and dim:
        try:
            # numpy's parser parts these lines as str.split() does and reads a
            # value only where float() does, to the same double; the loop
            # below reads the rest (such as 1_0) and names a bad value's line
            return np.loadtxt(
                lines, np.float64, comments=None, usecols=range(4, 4 + dim), ndmin=2
            )
        except ValueError:
            pass
    values: list[float] = []
    for line, lineno in zip(lines, linenos):
        try:
            values += map(float, line.split()[4:])
        except ValueError as exc:
            _fail(path, lineno, f"bad frame record: {exc}")
    return np.array(values, dtype=np.float64).reshape(len(lines), dim)


def load_call(path: Union[str, Path]) -> CallRecord:
    """Parse a call file; every line is split once and its fields convert
    where it is split.

    Every field is checked here, and a malformed line raises FormatError
    naming ``path:line`` of the first line at fault, as does a call that
    the CallRecord constructor refuses: the line is that of the frame,
    token or segment at fault, or the header for ``frame_ms``.  Feature
    values are counted here but converted on the first read of
    ``features``, which raises that FormatError for a value that is not
    a float.
    """
    lines = _read_lines(path)
    call_id = ""
    frame_ms = 0
    dim = 0
    header_lineno = 0
    index: list[int] = []
    labels: list[int] = []
    teachers: list[int] = []
    frame_lines: list[str] = []  # kept whole: their values convert on first read
    frame_linenos: list[int] = []
    times: list[int] = []
    kinds: list[int] = []
    texts: list[str] = []
    words: list[int] = []
    token_linenos: list[int] = []
    segments: list[ReferenceSegment] = []
    segment_linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "frame":
                if not header_lineno:
                    _fail(path, lineno, "frame record before call header")
                if len(parts) != 4 + dim:
                    _fail(
                        path,
                        lineno,
                        f"frame line has {len(parts) - 4} feature values, expected {dim}",
                    )
                i = int(parts[1])
                if not _INT64_MIN <= i <= _INT64_MAX:
                    raise ValueError(f"frame index {parts[1]} out of range")
                index.append(i)
                try:
                    labels.append(_LABEL_CODE[parts[2]])
                    teachers.append(_LABEL_CODE[parts[3]])
                except KeyError as exc:
                    raise ValueError(f"{exc.args[0]!r} is not a valid Label") from None
                frame_lines.append(line)
                frame_linenos.append(lineno)
            elif tag == "token":
                if not header_lineno:
                    _fail(path, lineno, "token record before call header")
                if len(parts) != 5:
                    _fail(path, lineno, f"token line has {len(parts)} fields, expected 5")
                _, emit, kind, text, word = parts
                t = int(emit)
                if not _INT64_MIN <= t <= _INT64_MAX:
                    raise ValueError("emit time beyond the int64 range")
                times.append(t)
                try:
                    kinds.append(_KIND_CODE[kind])
                except KeyError:
                    raise ValueError(f"{kind!r} is not a valid TokenKind") from None
                if text[-1] == _FRAGMENT_MARK:  # split yields no empty field
                    raise ValueError("token text ends in '*', the mark of an unclosed word")
                texts.append("" if text == _PLACEHOLDER else text)
                if word == _PLACEHOLDER:
                    words.append(NO_WORD)
                else:
                    w = int(word)
                    if not 0 <= w <= _INT64_MAX:
                        raise ValueError(
                            "negative word index"
                            if _INT64_MIN <= w < 0
                            else "word index beyond the int64 range"
                        )
                    words.append(w)
                token_linenos.append(lineno)
            elif tag == "call":
                if header_lineno:
                    _fail(path, lineno, "duplicate call header")
                call_id, frame_ms, dim = parts[1], int(parts[2]), int(parts[3])
                if dim < 0:
                    _fail(path, lineno, f"negative feature dim {dim}")
                np.empty((0, dim))  # a dim numpy cannot shape fails here, not on first read
                header_lineno = lineno
            elif tag == "segment":
                if not header_lineno:
                    _fail(path, lineno, "segment record before call header")
                segments.append(
                    ReferenceSegment(
                        call_id=call_id,
                        start_ms=int(parts[1]),
                        end_ms=int(parts[2]),
                        words=tuple(_opt(w) or "" for w in parts[3:]),
                    )
                )
                segment_linenos.append(lineno)
            else:
                _fail(path, lineno, f"unknown record tag {tag!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, FormatError):
                raise
            _fail(path, lineno, f"bad {tag} record: {exc}")
    if not header_lineno:
        _fail(path, len(lines), "no call header line")
    try:
        return CallRecord(
            call_id,
            frame_ms,
            frame_index=np.fromiter(index, np.int64, len(index)),
            features=partial(_read_features, path, dim, frame_lines, frame_linenos),
            labels=np.fromiter(labels, np.int8, len(labels)),
            teacher_labels=np.fromiter(teachers, np.int8, len(teachers)),
            token_time=np.fromiter(times, np.int64, len(times)),
            token_kind=np.fromiter(kinds, np.int8, len(kinds)),
            token_word=np.fromiter(words, np.int64, len(words)),
            token_text=tuple(texts),
            segments=tuple(segments),
        )
    except InvalidCall as exc:
        rows = {"frame": frame_linenos, "token": token_linenos, "segment": segment_linenos}
        lineno = rows[exc.rows][exc.index] if exc.rows in rows else header_lineno
        _fail(path, lineno, str(exc))


# -- endpoint files -----------------------------------------------------------


def save_endpoints(
    call_id: str,
    mode: Mode,
    endpoints: Sequence[EndpointEvent],
    path: Union[str, Path],
) -> None:
    out = [FORMAT_LINE, f"call {_encode(call_id)}", f"mode {mode.value}"]
    for ep in endpoints:
        out.append(
            f"endpoint {ep.time_ms} {ep.trigger.value} "
            f"{ep.silence_start_ms} {ep.deferred_by_ms}"
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")


_MODE_TRIGGERS = {
    Mode.BLANK: (Trigger.BLANK_RUN,),
    Mode.TS: (Trigger.TS,),
    Mode.EOW: (Trigger.EOW,),
    Mode.TS_AND_EOW: (
        Trigger.TS_AND_EOW_IMMEDIATE, Trigger.TS_AND_EOW_DEFERRED, Trigger.DEFERRAL_TIMEOUT
    ),
}
_DEFERRED = (Trigger.TS_AND_EOW_DEFERRED, Trigger.DEFERRAL_TIMEOUT)


def _check_endpoint(
    path: Union[str, Path], lineno: int, mode: Optional[Mode], ep: EndpointEvent
) -> None:
    """The endpoint is one the file's mode writes: its trigger, a silence
    start in [0, time] and a deferral that is 0 unless the trigger defers."""
    if mode is None:
        _fail(path, lineno, "endpoint line before the mode line")
    if ep.trigger not in _MODE_TRIGGERS[mode]:
        _fail(path, lineno, f"trigger {ep.trigger.value} is not one of mode {mode.value}'s")
    if not 0 <= ep.silence_start_ms <= ep.time_ms:
        _fail(
            path,
            lineno,
            f"silence start {ep.silence_start_ms} ms lies outside [0, {ep.time_ms}] ms",
        )
    if ep.deferred_by_ms < 0:
        _fail(path, lineno, f"deferred_by {ep.deferred_by_ms} ms is negative")
    if ep.deferred_by_ms and ep.trigger not in _DEFERRED:
        _fail(path, lineno, f"{ep.trigger.value} endpoint deferred by {ep.deferred_by_ms} ms")


def load_endpoints(
    path: Union[str, Path],
) -> tuple[str, Mode, list[EndpointEvent]]:
    lines = _read_lines(path)
    call_id = ""
    mode: Optional[Mode] = None
    endpoints: list[EndpointEvent] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] == "call":
                if call_id:
                    _fail(path, lineno, "duplicate call line")
                call_id = parts[1]
            elif parts[0] == "mode":
                if mode is not None:
                    _fail(path, lineno, "duplicate mode line")
                mode = Mode(parts[1])
            elif parts[0] == "endpoint":
                if not call_id:
                    _fail(path, lineno, "endpoint line before the call line")
                ep = EndpointEvent(
                    time_ms=int(parts[1]),
                    trigger=Trigger(parts[2]),
                    silence_start_ms=int(parts[3]),
                    deferred_by_ms=int(parts[4]),
                )
                _check_endpoint(path, lineno, mode, ep)
                if endpoints and ep.time_ms < endpoints[-1].time_ms:
                    _fail(
                        path,
                        lineno,
                        f"endpoint at {ep.time_ms} ms precedes the previous "
                        f"endpoint at {endpoints[-1].time_ms} ms",
                    )
                endpoints.append(ep)
            else:
                _fail(path, lineno, f"unknown record tag {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, FormatError):
                raise
            _fail(path, lineno, f"bad {parts[0]} record: {exc}")
    if not call_id or mode is None:
        _fail(path, len(lines), "endpoint file missing call or mode line")
    return call_id, mode, endpoints


# -- transcript files ---------------------------------------------------------


def save_transcripts(
    call_id: str,
    transcripts: Sequence[TurnTranscript],
    path: Union[str, Path],
) -> None:
    out = [FORMAT_LINE, f"call {_encode(call_id)}"]
    for turn in transcripts:
        words = " ".join(
            _encode_word(text) + ("" if closed else _FRAGMENT_MARK)
            for text, closed in turn.words
        )
        out.append(
            f"turn {turn.turn_index} {turn.start_ms} {turn.end_ms} {words}".rstrip()
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")


# -- report CSV ---------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One scored configuration, ready for the report CSV."""

    mode: Mode
    delta_ms: int
    tolerance_ms: int
    report: EvalReport


def save_report(rows: Sequence[ReportRow], path: Union[str, Path]) -> None:
    buf = io.StringIO()
    buf.write(f"# {FORMAT_LINE}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    # csv writes each value with str, which for a float is its repr
    for row in rows:
        writer.writerow(
            (row.mode.value, row.delta_ms, row.tolerance_ms, *_report_values(row.report))
        )
    Path(path).write_text(buf.getvalue(), encoding="ascii")


def load_report(path: Union[str, Path]) -> list[ReportRow]:
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != f"# {FORMAT_LINE}":
        _fail(path, 1, f"missing '# {FORMAT_LINE}' header")
    reader = csv.reader(lines[1:])
    try:
        header = next(reader)
    except StopIteration:
        _fail(path, 2, "missing column header")
    if tuple(header) != REPORT_COLUMNS:
        _fail(path, 2, f"unexpected columns {header!r}")
    rows: list[ReportRow] = []
    for lineno, rec in enumerate(reader, start=3):
        if not rec:
            continue
        if len(rec) != len(REPORT_COLUMNS):
            _fail(path, lineno, f"row has {len(rec)} fields, expected {len(REPORT_COLUMNS)}")
        try:
            report = EvalReport(*[typ(v) for typ, v in zip(_REPORT_TYPES, rec[3:])])
            rows.append(ReportRow(Mode(rec[0]), int(rec[1]), int(rec[2]), report))
        except ValueError as exc:
            _fail(path, lineno, f"bad report row: {exc}")
    return rows
