"""Round-trip and error-path tests for the on-disk text formats."""

import math
import pickle
import random

import numpy as np
import pytest
from oracles import token_columns

from endpoint_rt.callfile import (
    FORMAT_LINE,
    REPORT_COLUMNS,
    FormatError,
    ReportRow,
    load_call,
    load_endpoints,
    load_report,
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
        **token_columns(
            (TokenEvent(10, TokenKind.BLANK), TokenEvent(20, TokenKind.SUBWORD, "ka", None))
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
    # the file loads; the value fails on every read of the features
    path = tmp_path / "bad.call"
    path.write_text(
        f"{FORMAT_LINE}\ncall c 40 2\nframe 0 speech - 0.5 1\nframe 1 speech - 0.5 0x1\n"
    )
    call = load_call(path)
    other = load_call(path)
    message = r"bad.call:4: bad frame record: could not convert string to float: '0x1'$"
    reads = [
        lambda: call.features,
        lambda: call.frames,
        lambda: save_call(call, tmp_path / "out.call"),
        lambda: call == other,
        lambda: call.features,  # a second read fails the same way
    ]
    for read in reads:
        with pytest.raises(FormatError, match=message):
            read()
    assert not (tmp_path / "out.call").exists()


def test_a_loaded_call_pickles_before_its_features_are_read(tmp_path):
    call = gen_call(SimConfig(seed=3, n_turns=1))
    save_call(call, tmp_path / "a.call")
    assert pickle.loads(pickle.dumps(load_call(tmp_path / "a.call"))) == call


def test_load_call_fails_on_a_bad_token_whatever_the_features(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(
        f"{FORMAT_LINE}\ncall c 40 1\nframe 0 - - abc\n"
        + "token 0 BLANK - -\n" * 5
        + "token 4O BLANK - -\n"
    )
    with pytest.raises(FormatError, match=r"bad.call:9: bad token record: invalid literal"):
        load_call(path)


@pytest.mark.parametrize(
    "values", ["0.5\t-1", "0.5  -1", "0.5 -1 ", "0.5\x1f-1", "\t0.5 \t -1\t"]
)
def test_load_call_counts_feature_values_as_str_split_does(tmp_path, values):
    path = tmp_path / "a.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 20 2\nframe 0 speech - 0.5 -1\n")
    want = load_call(path)
    path.write_text(f"{FORMAT_LINE}\ncall c 20 2\nframe 0 speech - {values}\n")
    got = load_call(path)
    assert got == want
    assert got.features.tolist() == [[0.5, -1.0]]


@pytest.mark.parametrize(
    "values, count",
    [("0.5", 1), ("0.5 -1 2", 3), ("0.5\t\t", 1), ("0.5  -1\x1f2", 3), ("abc", 1)],
)
def test_load_call_refuses_a_wrong_feature_count_before_any_read(tmp_path, values, count):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 2\nframe 0 - - 1 2\nframe 1 - - {values}\n")
    with pytest.raises(
        FormatError, match=rf"bad.call:4: frame line has {count} feature values, expected 2$"
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


def test_load_call_rejects_token_before_header(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\ntoken 0 BLANK - -\ncall c 40 1\nframe 0 - - 1\n")
    with pytest.raises(FormatError) as err:
        load_call(path)
    assert str(err.value) == f"{path}:2: token record before call header"


def test_load_call_rejects_segment_before_header(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(f"{FORMAT_LINE}\nsegment 0 40 ka\ncall c 40 1\nframe 0 - - 1\n")
    with pytest.raises(FormatError) as err:
        load_call(path)
    assert str(err.value) == f"{path}:2: segment record before call header"


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
        "c", 40, **token_columns((TokenEvent(0, TokenKind.SUBWORD, "two words", 0),))
    )
    with pytest.raises(ValueError, match="cannot serialize"):
        save_call(call, tmp_path / "x.call")


def test_call_round_trip_keeps_every_token_column(tmp_path):
    rng = random.Random(4)
    for case in range(40):
        tokens, t = [], 0
        closed = set()  # words whose EOW was emitted: no SUBWORD of theirs follows
        for _ in range(rng.randint(0, 25)):
            t += rng.choice([0, 10, 40])
            kind = rng.choice(list(TokenKind))
            text = "" if kind is TokenKind.BLANK else rng.choice(["", "ka", "zo-"])
            word = None if kind is TokenKind.BLANK else rng.choice([None, 0, 2**63 - 1])
            if kind is TokenKind.SUBWORD and word in closed:
                word = None
            elif kind is TokenKind.EOW:
                closed.add(word)
            tokens.append(TokenEvent(t, kind, text, word))
        n = t // 40 + 1  # frames whose grid reaches the last token
        call = CallRecord(
            "c", 40, frame_index=np.arange(n), features=np.zeros((n, 0)),
            labels=np.full(n, -1), teacher_labels=np.full(n, -1), **token_columns(tokens),
        )
        path = tmp_path / f"{case}.call"
        save_call(call, path)
        loaded = load_call(path)
        for name in ("token_time", "token_kind", "token_word"):
            column = getattr(loaded, name)
            assert column.dtype == getattr(call, name).dtype, name
            assert column.tolist() == getattr(call, name).tolist(), name
        assert loaded.token_text == call.token_text
        assert loaded.tokens == call.tokens == tuple(tokens)


@pytest.mark.parametrize(
    "line, message",
    [
        ("token 40 SUBWORD ka -1", "negative word index"),
        (f"token 40 SUBWORD ka {10**23 - 1}", "word index beyond the int64 range"),
        (f"token 40 SUBWORD ka {2**63}", "word index beyond the int64 range"),
        (f"token {10**23 - 1} BLANK - -", "emit time beyond the int64 range"),
        (f"token {-2**63 - 1} BLANK - -", "emit time beyond the int64 range"),
        ("token 40 SUBWORD ka x", "invalid literal for int"),
        ("token 4O BLANK - -", "invalid literal for int"),
        ("token 40 WORD ka 0", "'WORD' is not a valid TokenKind"),
        ("token 40 SUBWORD ka* 0", "token text ends in '\\*'"),
        ("token 40 BLANK * -", "token text ends in '\\*'"),
    ],
)
def test_load_call_names_the_line_of_a_bad_token_field(tmp_path, line, message):
    path = tmp_path / "bad.call"
    path.write_text(
        f"{FORMAT_LINE}\ncall c 40 1\nframe 0 - - 1\ntoken 0 BLANK - -\n{line}\n"
        "token 80 BLANK - -\nsegment 0 40 ka\n"
    )
    with pytest.raises(FormatError, match=f"bad.call:5: bad token record: {message}"):
        load_call(path)


def test_load_call_reports_the_first_bad_line_of_frames_and_tokens(tmp_path):
    path = tmp_path / "bad.call"
    path.write_text(
        f"{FORMAT_LINE}\ncall c 40 1\nframe 0 - - 1\ntoken 0 BLANK - -1\n"
        "frame 1 - - one\ntoken x BLANK - -\n"
    )
    with pytest.raises(FormatError, match="bad.call:4: bad token record"):
        load_call(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("token 40 WORD ka 0", "bad token record: 'WORD' is not a valid TokenKind"),
        ("token 40 SUBWORD ka -1", "bad token record: negative word index"),
        (f"frame {2**63} - - 1", f"bad frame record: frame index {2**63} out of range"),
        (f"frame {-2**63 - 1} - - 1",
         f"bad frame record: frame index {-2**63 - 1} out of range"),
    ],
)
def test_load_call_names_the_first_line_at_fault(tmp_path, line, message):
    # the bad field on line 4 comes before a malformed line 5
    path = tmp_path / "multi.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 1\nframe 0 - - 1\n{line}\nfrustum 1\n")
    with pytest.raises(FormatError) as err:
        load_call(path)
    assert str(err.value) == f"{path}:4: {message}"


REFUSED_CALL = f"""{FORMAT_LINE}
call c 40 0

frame 0 - -
frame 1 - -
token 0 SUBWORD ka 0
token 40 EOW - 0
segment 0 80 ka
"""


@pytest.mark.parametrize(
    "old, new, lineno, message",
    [
        ("call c 40", "call c 0", 2,
         "c: frame_ms must be positive and within the int64 range, got 0"),
        ("frame 1", "frame 0", 5, "c: frame 1: frame index 0 does not follow previous 0"),
        ("token 40 EOW", "token 90 EOW", 7,
         "c: token 1: emit time 90 outside call bounds [0, 80]"),
        ("segment 0 80", "segment 0 81", 8,
         "c: segment 0: segment end 81 beyond call bounds [0, 80]"),
    ],
    ids=["frame_ms", "frame", "token", "segment"],
)
def test_load_call_names_the_line_of_a_call_the_constructor_refuses(
    tmp_path, old, new, lineno, message
):
    path = tmp_path / "c.call"
    path.write_text(REFUSED_CALL)
    assert load_call(path).end_ms == 80
    path.write_text(REFUSED_CALL.replace(old, new))
    with pytest.raises(FormatError) as err:
        load_call(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"


@pytest.mark.parametrize("start", ["-5", "-100000000000000000000"])
def test_load_call_names_the_line_of_a_segment_before_the_call(tmp_path, start):
    path = tmp_path / "c.call"
    path.write_text(f"{FORMAT_LINE}\ncall c 40 0\nframe 0 - -\nsegment {start} 40 ka\n")
    with pytest.raises(FormatError) as err:
        load_call(path)
    assert str(err.value) == (
        f"{path}:4: c: segment 0: segment start {start} before call bounds [0, 40]"
    )


def test_load_call_keeps_the_largest_token_fields(tmp_path):
    # one frame of the longest frame_ms ends at the last int64 ms
    big = 2**63 - 1
    path = tmp_path / "big.call"
    path.write_text(f"{FORMAT_LINE}\ncall c {big} 0\nframe 0 - -\ntoken {big} EOW - {big}\n")
    call = load_call(path)
    assert call.end_ms == big
    assert call.token_time.tolist() == [big]
    assert call.token_word.tolist() == [big]
    assert call.tokens == (TokenEvent(big, TokenKind.EOW, "", big),)
    # the smallest emit time parses, and lies before the call
    path.write_text(f"{FORMAT_LINE}\ncall c {big} 0\nframe 0 - -\ntoken {-2**63} EOW - {big}\n")
    with pytest.raises(FormatError) as err:
        load_call(path)
    assert str(err.value) == (
        f"{path}:4: c: token 0: emit time {-2**63} outside call bounds [0, {big}]"
    )


@pytest.mark.parametrize("text", ["ka*", "*"])
def test_save_call_refuses_token_text_ending_in_the_fragment_mark(tmp_path, text):
    call = CallRecord("c", 40, **token_columns((TokenEvent(0, TokenKind.SUBWORD, text, 0),)))
    with pytest.raises(ValueError, match="a trailing '\\*' marks an unclosed word"):
        save_call(call, tmp_path / "x.call")


# ---------------------------------------------------------------------------
# endpoint files


def test_endpoints_round_trip(tmp_path):
    endpoints = [
        EndpointEvent(600, Trigger.TS_AND_EOW_IMMEDIATE, 400),
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
    eps = [EndpointEvent(600, Trigger.EOW, 400), EndpointEvent(600, Trigger.EOW, 560)]
    path = tmp_path / "tied.endpoints"
    save_endpoints("c", Mode.EOW, eps, path)
    assert load_endpoints(path) == ("c", Mode.EOW, eps)


# a trigger each mode writes, undeferred
_FIRST = {"BLANK": "BLANK_RUN", "TS": "TS", "EOW": "EOW", "TS_AND_EOW": "TS_AND_EOW_IMMEDIATE"}


@pytest.mark.parametrize(
    "mode, line, message",
    [
        ("TS_AND_EOW", "endpoint 3440 TS 3000 0", "trigger TS is not one of mode TS_AND_EOW's"),
        ("EOW", "endpoint 600 TS 400 0", "trigger TS is not one of mode EOW's"),
        ("BLANK", "endpoint 600 EOW 400 0", "trigger EOW is not one of mode BLANK's"),
        ("TS", "endpoint 600 TS -40 0", "silence start -40 ms lies outside [0, 600] ms"),
        ("TS", "endpoint 600 TS 640 0", "silence start 640 ms lies outside [0, 600] ms"),
        ("TS_AND_EOW", "endpoint 3440 TS_AND_EOW_DEFERRED 3000 -7",
         "deferred_by -7 ms is negative"),
        ("TS_AND_EOW", "endpoint 3440 TS_AND_EOW_IMMEDIATE 3000 40",
         "TS_AND_EOW_IMMEDIATE endpoint deferred by 40 ms"),
        ("EOW", "endpoint 600 EOW 400 40", "EOW endpoint deferred by 40 ms"),
    ],
)
def test_load_endpoints_refuses_an_endpoint_its_mode_never_writes(tmp_path, mode, line, message):
    path = tmp_path / "odd.endpoints"
    # a line the mode writes, then the one it never writes
    first = f"endpoint 200 {_FIRST[mode]} 0 0"
    path.write_text(f"{FORMAT_LINE}\ncall c\nmode {mode}\n{first}\n{line}\n")
    with pytest.raises(FormatError) as err:
        load_endpoints(path)
    assert str(err.value) == f"{path}:5: {message}"


def test_load_endpoints_reads_the_mode_before_any_endpoint(tmp_path):
    path = tmp_path / "late.endpoints"
    path.write_text(f"{FORMAT_LINE}\ncall c\nendpoint 600 TS 400 0\nmode TS\n")
    with pytest.raises(FormatError) as err:
        load_endpoints(path)
    assert str(err.value) == f"{path}:3: endpoint line before the mode line"


def test_load_endpoints_reads_the_call_line_before_any_endpoint(tmp_path):
    path = tmp_path / "late.endpoints"
    path.write_text(f"{FORMAT_LINE}\nmode TS\nendpoint 400 TS 200 0\ncall c\n")
    with pytest.raises(FormatError) as err:
        load_endpoints(path)
    assert str(err.value) == f"{path}:3: endpoint line before the call line"


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


def test_save_transcripts_writes_fragments_placeholders_and_empty_turns(tmp_path):
    turns = [
        TurnTranscript(0, 0, 600, (("kazo", False), ("mi", True))),
        TurnTranscript(1, 600, 1400, ()),
        TurnTranscript(2, 1400, 2000, (("tu", True), ("", True), ("", False))),
    ]
    path = tmp_path / "a.turns"
    save_transcripts("sim-00000002", turns, path)
    assert path.read_text() == (
        f"{FORMAT_LINE}\n"
        "call sim-00000002\n"
        "turn 0 0 600 kazo* mi\n"
        "turn 1 600 1400\n"
        "turn 2 1400 2000 tu - -*\n"
    )


def test_transcript_fragment_marker_is_a_star(tmp_path):
    turns = [TurnTranscript(0, 0, 600, (("kazo", False),))]
    path = tmp_path / "b.turns"
    save_transcripts("c", turns, path)
    assert "kazo*" in path.read_text()


@pytest.mark.parametrize("closed", [True, False])
def test_save_transcripts_refuses_a_word_ending_in_the_fragment_mark(tmp_path, closed):
    # "ka*" closed would read as the fragment "ka"
    turns = [TurnTranscript(0, 0, 100, (("ka*", closed),))]
    with pytest.raises(ValueError, match="a trailing '\\*' marks an unclosed word"):
        save_transcripts("c", turns, tmp_path / "x.turns")


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


def test_report_row_is_written_as_pinned(tmp_path):
    path = tmp_path / "report.csv"
    save_report([ReportRow(Mode.TS, 200, 200, _report())], path)
    assert path.read_text().splitlines()[2:] == [
        "TS,200,200,0.75,0.6,0.6666666666666665,0.3333333333333333,1,2,0,"
        "216.66666666666666,200.0,3"
    ]


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
