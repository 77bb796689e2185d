"""Round-trip and error-path tests for the on-disk text formats."""

import math

import numpy as np
import pytest

from endpoint_rt.callfile import (
    FORMAT_LINE,
    REPORT_COLUMNS,
    FormatError,
    ReportRow,
    load_call,
    load_endpoints,
    load_report,
    load_transcripts,
    save_call,
    save_endpoints,
    save_report,
    save_transcripts,
)
from endpoint_rt.endpointer import (
    EndpointEvent,
    Mode,
    Trigger,
    TurnTranscript,
)
from endpoint_rt.evaluator import EvalReport
from endpoint_rt.simulator import SimConfig, gen_call
from endpoint_rt.streams import CallRecord, Label, ReferenceSegment, TokenEvent, TokenKind


# ---------------------------------------------------------------------------
# call files


def test_call_round_trip_is_exact(tmp_path):
    call = gen_call(SimConfig(seed=77, n_turns=3, teacher_flip_prob=0.2))
    path = tmp_path / "a.call"
    save_call(call, path)
    assert load_call(path) == call


def test_call_round_trip_preserves_awkward_floats(tmp_path):
    features = np.array([[1e-17, -0.1, 12345678.9]])
    call = CallRecord(
        "c", 40, frame_index=[0], features=features, labels=[1], teacher_labels=[-1]
    )
    path = tmp_path / "b.call"
    save_call(call, path)
    assert np.array_equal(load_call(path).features, features)


def test_call_round_trip_keeps_optional_fields_absent(tmp_path):
    call = CallRecord(
        "c",
        40,
        frame_index=[0],
        features=[[0.5]],
        labels=[-1],
        teacher_labels=[-1],
        tokens=(
            TokenEvent(10, TokenKind.BLANK),
            TokenEvent(20, TokenKind.SUBWORD, "ka", None),
        ),
        segments=(ReferenceSegment("c", 0, 40, ("", "ka")),),
    )
    path = tmp_path / "c.call"
    save_call(call, path)
    loaded = load_call(path)
    assert loaded.frames[0].label is None
    assert loaded.frames[0].teacher_label is None
    assert loaded.tokens[0].text == ""
    assert loaded.tokens[1].word_index is None
    assert loaded.segments[0].words == ("", "ka")
    assert loaded == call


def test_call_round_trip_is_bit_exact_on_random_doubles(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.integers(0, 2**64, size=(300, 4), dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = 1.5
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                float("inf"), -float("inf"), 1e-17, 0.1]
    values.flat[: len(specials)] = specials
    n = len(values)
    call = CallRecord(
        "c",
        40,
        frame_index=np.arange(n),
        features=values,
        labels=np.full(n, 1),
        teacher_labels=np.full(n, -1),
    )
    path = tmp_path / "r.call"
    save_call(call, path)
    loaded = load_call(path)
    assert loaded.features.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert loaded == call


def test_load_call_returns_columns_and_frame_views(tmp_path):
    path = tmp_path / "a.call"
    path.write_text(
        f"{FORMAT_LINE}\ncall c 20 2\n"
        "frame 3 speech - 0.5 -1\n"
        "frame 5 nonspeech speech 1_0 nan\n"
    )
    call = load_call(path)
    assert call.frame_index.dtype == np.int64
    assert call.frame_index.tolist() == [3, 5]
    assert call.features.dtype == np.float64 and call.features.shape == (2, 2)
    assert call.labels.dtype == np.int8 and call.labels.tolist() == [1, 0]
    assert call.teacher_labels.tolist() == [-1, 1]
    assert call.end_ms == 120
    with pytest.raises(ValueError, match="read-only"):
        call.features[0, 0] = 1.0
    first, second = call.frames
    assert call.frames is call.frames
    assert (first.index, first.time_ms, first.label, first.teacher_label) == (
        3, 60, Label.SPEECH, None
    )
    assert (second.index, second.time_ms, second.label, second.teacher_label) == (
        5, 100, Label.NONSPEECH, Label.SPEECH
    )
    assert second.features[0] == 10.0 and math.isnan(second.features[1])
    assert np.shares_memory(first.features, call.features)


def test_load_call_names_the_line_of_a_bad_feature_value(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(
        f"{FORMAT_LINE}\ncall c 40 2\nframe 0 speech - 0.5 1\nframe 1 speech - 0.5 0x1\n"
    )
    with pytest.raises(
        FormatError,
        match=r"bad.call:4: bad frame record: could not convert string to float: '0x1'$",
    ):
        load_call(path)


def test_load_call_names_the_line_of_an_out_of_range_frame_index(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 1\nframe 0 - - 1\nframe {2**63} - - 1\n")
    with pytest.raises(FormatError, match=r"bad.call:4: bad frame record: "):
        load_call(path)


def test_load_call_rejects_a_bad_label(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 1\nframe 0 loud - 1\n")
    with pytest.raises(
        FormatError, match=r"bad.call:3: bad frame record: 'loud' is not a valid Label$"
    ):
        load_call(path)


def test_load_call_rejects_a_negative_or_absurd_feature_dim(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 -2\n")
    with pytest.raises(FormatError, match=r"bad.call:2: negative feature dim -2$"):
        load_call(path)
    path.write_text(f"{FORMAT_LINE}\n\ncall c 40 {10**20}\n")
    with pytest.raises(FormatError, match=r"bad.call:3: bad call record: "):
        load_call(path)


def test_call_file_starts_with_the_format_line(tmp_path):
    call = gen_call(SimConfig(seed=1, n_turns=1))
    path = tmp_path / "d.call"
    save_call(call, path)
    assert path.read_text().splitlines()[0] == FORMAT_LINE


def test_load_call_rejects_missing_format_line(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text("call c 40 1\n")
    with pytest.raises(FormatError, match="missing 'format=1' header"):
        load_call(path)


def test_load_call_rejects_unknown_tag(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 1\nbogus 1 2 3\n")
    with pytest.raises(FormatError, match=r"bad.call:3: unknown record tag 'bogus'"):
        load_call(path)


def test_load_call_rejects_frame_before_header(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\nframe 0 speech - 0.5\n")
    with pytest.raises(FormatError, match="frame record before call header"):
        load_call(path)


def test_load_call_rejects_duplicate_header(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 1\ncall d 40 1\n")
    with pytest.raises(FormatError, match="duplicate call header"):
        load_call(path)


def test_load_call_rejects_wrong_feature_count(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 3\nframe 0 speech - 0.5 0.5\n")
    with pytest.raises(FormatError, match="2 feature values, expected 3"):
        load_call(path)


def test_load_call_rejects_truncated_token_line(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 0\ntoken 100 SUBWORD ka\n")
    with pytest.raises(FormatError, match="token line has 4 fields, expected 5"):
        load_call(path)


def test_load_call_rejects_file_without_call_header(tmp_path):
    path = tmp_path / "empty.call"
    path.write_text(f"{FORMAT_LINE}\n")
    with pytest.raises(FormatError, match="no call header line"):
        load_call(path)


def test_load_call_rejects_unparsable_numbers(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 1\nframe zero speech - 0.5\n")
    with pytest.raises(FormatError, match="bad frame record"):
        load_call(path)


def test_save_call_rejects_unserializable_text(tmp_path):
    call = CallRecord(
        "c", 40, tokens=(TokenEvent(0, TokenKind.SUBWORD, "two words", 0),)
    )
    with pytest.raises(ValueError, match="cannot serialize"):
        save_call(call, tmp_path / "x.call")


# ---------------------------------------------------------------------------
# endpoint files


def test_endpoints_round_trip(tmp_path):
    endpoints = [
        EndpointEvent(600, Trigger.TS, 400),
        EndpointEvent(1480, Trigger.TS_AND_EOW_DEFERRED, 1200, 80),
        EndpointEvent(2400, Trigger.DEFERRAL_TIMEOUT, 1400, 800),
    ]
    path = tmp_path / "a.endpoints"
    save_endpoints("sim-00000001", Mode.TS_AND_EOW, endpoints, path)
    call_id, mode, loaded = load_endpoints(path)
    assert call_id == "sim-00000001"
    assert mode is Mode.TS_AND_EOW
    assert loaded == endpoints


def test_endpoints_round_trip_empty_list(tmp_path):
    path = tmp_path / "b.endpoints"
    save_endpoints("c", Mode.BLANK, [], path)
    assert load_endpoints(path) == ("c", Mode.BLANK, [])


def test_load_endpoints_rejects_missing_mode(tmp_path):
    path = tmp_path / "bad.endpoints"
    path.write_text(f"{FORMAT_LINE}\ncall c\n")
    with pytest.raises(FormatError, match="missing call or mode line"):
        load_endpoints(path)


def test_load_endpoints_rejects_bad_trigger(tmp_path):
    path = tmp_path / "bad.endpoints"
    path.write_text(f"{FORMAT_LINE}\ncall c\nmode TS\nendpoint 600 NOPE 400 0\n")
    with pytest.raises(FormatError, match="bad endpoint record"):
        load_endpoints(path)


def test_load_endpoints_rejects_out_of_order_endpoints(tmp_path):
    path = tmp_path / "swapped.endpoints"
    path.write_text(
        f"{FORMAT_LINE}\ncall c\nmode TS\n"
        "endpoint 600 TS 400 0\nendpoint 1800 TS 1600 0\nendpoint 1200 TS 1000 0\n"
    )
    message = f"{path}:6: endpoint at 1200 ms precedes the previous endpoint at 1800 ms"
    with pytest.raises(FormatError) as err:
        load_endpoints(path)
    assert str(err.value) == message


def test_load_endpoints_keeps_endpoints_at_one_time(tmp_path):
    eps = [EndpointEvent(600, Trigger.TS, 400), EndpointEvent(600, Trigger.EOW, 400)]
    path = tmp_path / "tied.endpoints"
    save_endpoints("c", Mode.EOW, eps, path)
    assert load_endpoints(path) == ("c", Mode.EOW, eps)


@pytest.mark.parametrize(
    "body, line, tag",
    [
        ("call c\ncall d\nmode TS\n", 3, "call"),
        ("call c\nmode TS\nendpoint 600 TS 400 0\nmode EOW\n", 5, "mode"),
    ],
    ids=["call", "mode"],
)
def test_load_endpoints_rejects_a_repeated_call_or_mode_line(tmp_path, body, line, tag):
    path = tmp_path / "twice.endpoints"
    path.write_text(f"{FORMAT_LINE}\n{body}")
    with pytest.raises(FormatError) as err:
        load_endpoints(path)
    assert str(err.value) == f"{path}:{line}: duplicate {tag} line"


# ---------------------------------------------------------------------------
# transcript files


def test_transcripts_round_trip_with_fragments(tmp_path):
    turns = [
        TurnTranscript(0, 0, 600, (("kazo", False), ("mi", True))),
        TurnTranscript(1, 600, 1400, ()),
        TurnTranscript(2, 1400, 2000, (("tu", True), ("", True), ("", False))),
    ]
    path = tmp_path / "a.turns"
    save_transcripts("sim-00000002", turns, path)
    call_id, loaded = load_transcripts(path)
    assert call_id == "sim-00000002"
    assert loaded == turns


def test_transcript_fragment_marker_is_a_star(tmp_path):
    turns = [TurnTranscript(0, 0, 600, (("kazo", False),))]
    path = tmp_path / "b.turns"
    save_transcripts("c", turns, path)
    assert "kazo*" in path.read_text()


def test_load_transcripts_rejects_missing_call_line(tmp_path):
    path = tmp_path / "bad.turns"
    path.write_text(f"{FORMAT_LINE}\nturn 0 0 600\n")
    with pytest.raises(FormatError, match="missing call line"):
        load_transcripts(path)


def test_load_transcripts_rejects_unknown_tag(tmp_path):
    path = tmp_path / "bad.turns"
    path.write_text(f"{FORMAT_LINE}\ncall c\nchapter 1\n")
    with pytest.raises(FormatError, match="unknown record tag 'chapter'"):
        load_transcripts(path)


def test_load_transcripts_rejects_a_repeated_call_line(tmp_path):
    path = tmp_path / "twice.turns"
    path.write_text(f"{FORMAT_LINE}\ncall c\nturn 0 0 600\ncall c\n")
    with pytest.raises(FormatError) as err:
        load_transcripts(path)
    assert str(err.value) == f"{path}:4: duplicate call line"


@pytest.mark.parametrize(
    "turns, message",
    [
        # the first two turns of a written file, swapped
        ("turn 1 600 1400 mi\nturn 0 0 600 ka", "3: turn 1 where turn 0 is due"),
        ("turn 0 0 600\nturn 0 600 1400", "4: turn 0 where turn 1 is due"),
        ("turn 0 0 600\nturn 2 600 1400", "4: turn 2 where turn 1 is due"),
        ("turn 0 600 0", "3: turn ends at 0 ms, before its start"),
        (
            "turn 0 0 600\nturn 1 500 1400",
            "4: turn starts at 500 ms, before turn 0 ends at 600 ms",
        ),
    ],
    ids=["swapped", "repeated", "skipped", "reversed", "overlapping"],
)
def test_load_transcripts_rejects_turns_out_of_order(tmp_path, turns, message):
    path = tmp_path / "bad.turns"
    path.write_text(f"{FORMAT_LINE}\ncall c\n{turns}\n")
    with pytest.raises(FormatError) as err:
        load_transcripts(path)
    assert str(err.value) == f"{path}:{message}"


def test_load_transcripts_keeps_empty_and_touching_turns(tmp_path):
    turns = [
        TurnTranscript(0, 0, 0),
        TurnTranscript(1, 0, 600, (("ka", True),)),
        TurnTranscript(2, 600, 600),
    ]
    path = tmp_path / "edge.turns"
    save_transcripts("c", turns, path)
    assert load_transcripts(path) == ("c", turns)


# ---------------------------------------------------------------------------
# report CSV


def _report(precision=0.75, wer=1 / 3):
    return EvalReport(
        precision=precision,
        recall=0.6,
        f1=2 * precision * 0.6 / (precision + 0.6),
        wer=wer,
        substitutions=1,
        deletions=2,
        insertions=0,
        mean_latency_ms=216.66666666666666,
        median_latency_ms=200.0,
        deferral_timeouts=3,
    )


def test_report_round_trip_is_bit_exact(tmp_path):
    rows = [
        ReportRow(Mode.TS, 200, 200, _report()),
        ReportRow(Mode.TS_AND_EOW, 400, 200, _report(precision=0.8125, wer=0.1)),
    ]
    path = tmp_path / "report.csv"
    save_report(rows, path)
    loaded = load_report(path)
    assert loaded == rows  # dataclass equality covers every float bit-for-bit


def test_report_header_shape(tmp_path):
    path = tmp_path / "report.csv"
    save_report([ReportRow(Mode.TS, 200, 200, _report())], path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {FORMAT_LINE}"
    assert lines[1] == ",".join(REPORT_COLUMNS)


def test_load_report_rejects_missing_comment_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(REPORT_COLUMNS) + "\n")
    with pytest.raises(FormatError, match="missing '# format=1' header"):
        load_report(path)


def test_load_report_rejects_renamed_columns(tmp_path):
    path = tmp_path / "bad.csv"
    save_report([ReportRow(Mode.TS, 200, 200, _report())], path)
    text = path.read_text().replace("delta_ms", "delta")
    path.write_text(text)
    with pytest.raises(FormatError, match="unexpected columns"):
        load_report(path)


def test_load_report_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.csv"
    save_report([ReportRow(Mode.TS, 200, 200, _report())], path)
    lines = path.read_text().splitlines()
    lines[2] = "TS,200,200"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="row has 3 fields"):
        load_report(path)


def test_report_round_trips_infinite_wer(tmp_path):
    path = tmp_path / "inf.csv"
    save_report([ReportRow(Mode.BLANK, 200, 200, _report(wer=float("inf")))], path)
    loaded = load_report(path)
    assert math.isinf(loaded[0].report.wer)
