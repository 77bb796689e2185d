"""Tests for the timeline records, stream merging, and call validation."""

import random
from dataclasses import replace

import numpy as np
import pytest
from oracles import token_columns, token_violations

from endpoint_rt.simulator import SimConfig, gen_call, oracle_vad
from endpoint_rt.streams import (
    CallRecord,
    EndOfStream,
    Label,
    ReferenceSegment,
    TokenEvent,
    TokenKind,
    VadDecision,
    merge_streams,
    validate_call,
)


def _call(indices, tokens=(), **records):
    """Call "c" on a 40 ms grid: speech frames at ``indices``, zero features."""
    n = len(indices)
    return CallRecord(
        "c", 40, frame_index=indices, features=np.zeros((n, 2)),
        labels=np.ones(n), teacher_labels=np.full(n, -1),
        **token_columns(tokens), **records,
    )


def _vad(time_ms, is_speech=True):
    return VadDecision(time_ms=time_ms, is_speech=is_speech)


# ---------------------------------------------------------------------------
# merge_streams


def test_merge_interleaves_by_time():
    vad = [_vad(0), _vad(40), _vad(80)]
    tokens = [TokenEvent(30, TokenKind.SUBWORD, "ka", 0), TokenEvent(90, TokenKind.EOW)]
    merged = merge_streams(vad, tokens)
    times = [e.time_ms for e in merged]
    assert times == [0, 30, 40, 80, 90, 90]
    assert isinstance(merged[-1].payload, EndOfStream)


def test_merge_vad_before_token_at_equal_time():
    vad = [_vad(40)]
    tokens = [TokenEvent(40, TokenKind.BLANK)]
    merged = merge_streams(vad, tokens)
    assert isinstance(merged[0].payload, VadDecision)
    assert isinstance(merged[1].payload, TokenEvent)
    assert merged[0].time_ms == merged[1].time_ms == 40


def test_merge_keeps_order_within_each_stream():
    tokens = [
        TokenEvent(100, TokenKind.SUBWORD, "a", 0),
        TokenEvent(100, TokenKind.SUBWORD, "b", 0),
        TokenEvent(100, TokenKind.EOW, "", 0),
    ]
    merged = merge_streams([], tokens)
    texts = [e.payload.text for e in merged[:-1]]
    assert texts == ["a", "b", ""]


def test_merge_eos_at_max_time():
    merged = merge_streams([_vad(0), _vad(200)], [TokenEvent(170, TokenKind.BLANK)])
    assert isinstance(merged[-1].payload, EndOfStream)
    assert merged[-1].time_ms == 200


def test_merge_empty_inputs_yield_lone_eos_at_zero():
    merged = merge_streams([], [])
    assert len(merged) == 1
    assert isinstance(merged[0].payload, EndOfStream)
    assert merged[0].time_ms == 0


def test_merge_rejects_unsorted_vad():
    with pytest.raises(ValueError, match="vad stream unsorted: first inversion at index 2"):
        merge_streams([_vad(0), _vad(80), _vad(40)], [])


def test_merge_rejects_unsorted_tokens():
    tokens = [TokenEvent(50, TokenKind.BLANK), TokenEvent(10, TokenKind.BLANK)]
    with pytest.raises(ValueError, match="token stream unsorted: first inversion at index 1"):
        merge_streams([], tokens)


# ---------------------------------------------------------------------------
# CallRecord basics


def test_end_ms_is_exclusive_frame_grid_end():
    assert _call(range(5)).end_ms == 5 * 40


def test_end_ms_of_empty_call_is_zero():
    assert CallRecord("c", 40).end_ms == 0


def test_call_equality_compares_feature_arrays():
    a = _call([0])
    assert a == _call([0])
    assert a != replace(a, features=np.ones((1, 2)))


def test_call_columns_must_agree_in_length():
    with pytest.raises(ValueError, match=r"^c: labels has shape \(1,\), expected"):
        CallRecord(
            "c", 40, frame_index=[0, 1], features=np.zeros((2, 3)),
            labels=[1], teacher_labels=[1, 1],
        )
    with pytest.raises(ValueError, match=r"^c: features has shape \(2,\), expected 2"):
        CallRecord(
            "c", 40, frame_index=[0, 1], features=np.zeros(2),
            labels=[1, 1], teacher_labels=[1, 1],
        )


def test_call_rejects_unknown_label_codes():
    with pytest.raises(ValueError, match="^c: frame 1: bad teacher_labels code"):
        CallRecord(
            "c", 40, frame_index=[0, 1], features=np.zeros((2, 1)),
            labels=[1, 0], teacher_labels=[-1, 2],
        )


def test_frames_view_every_column():
    call = CallRecord(
        "c", 40, frame_index=[0, 2], features=[[1.0, 2.0], [3.0, -0.0]],
        labels=[1, -1], teacher_labels=[-1, 0],
    )
    assert [(f.index, f.time_ms, f.label, f.teacher_label) for f in call.frames] == [
        (0, 0, Label.SPEECH, None),
        (2, 80, None, Label.NONSPEECH),
    ]
    assert np.array_equal([f.features for f in call.frames], call.features)
    assert call.end_ms == 120


def test_call_token_columns_must_agree_in_length():
    with pytest.raises(ValueError, match=r"^c: token_kind has shape \(1,\), expected"):
        CallRecord("c", 40, token_time=[0, 40], token_kind=[0], token_word=[-1, -1],
                   token_text=["", ""])
    with pytest.raises(ValueError, match="^c: token_text has 1 entries, expected 2"):
        CallRecord("c", 40, token_time=[0, 40], token_kind=[0, 0], token_word=[-1, -1],
                   token_text=[""])


@pytest.mark.parametrize(
    "kinds, words, message",
    [([0, 3], [-1, -1], "token 1: bad token_kind code"),
     ([0, -1], [-1, -1], "token 1: bad token_kind code"),
     ([1, 1], [0, -2], "token 1: bad token_word code")],
)
def test_call_rejects_unknown_token_codes(kinds, words, message):
    with pytest.raises(ValueError, match=f"^c: {message}"):
        CallRecord("c", 40, token_time=[0, 40], token_kind=kinds, token_word=words,
                   token_text=["", "ka"])


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"token_time": [2**63]}, "token_time holds a value outside int64"),
        ({"token_kind": [300]}, "token_kind holds a value outside int8"),
        ({"frame_index": [2**63], "features": np.zeros((1, 2))},
         "frame_index holds a value outside int64"),
    ],
)
def test_call_names_the_column_of_a_value_outside_its_dtype(columns, message):
    tokens = {"token_time": [0], "token_kind": [0], "token_word": [-1], "token_text": [""]}
    with pytest.raises(ValueError, match=f"^c: {message}$"):
        CallRecord("c", 40, **{**tokens, **columns})


def test_tokens_view_every_token_column():
    tokens = (
        TokenEvent(0, TokenKind.BLANK),
        TokenEvent(40, TokenKind.SUBWORD, "ka", 3),
        TokenEvent(40, TokenKind.SUBWORD, "zo", None),
        TokenEvent(80, TokenKind.EOW, "", 3),
        TokenEvent(120, TokenKind.BLANK),
    )
    call = CallRecord("c", 40, **token_columns(tokens))
    assert call.tokens == tokens
    assert call.non_blank_tokens == tokens[1:4]
    assert call.tokens is call.tokens  # built once
    for name in ("token_time", "token_kind", "token_word"):
        assert not getattr(call, name).flags.writeable
    assert call.token_text == ("", "ka", "zo", "", "")


# ---------------------------------------------------------------------------
# validate_call


def _valid_call():
    tokens = (
        TokenEvent(100, TokenKind.SUBWORD, "ka", 0),
        TokenEvent(200, TokenKind.EOW, "", 0),
        TokenEvent(240, TokenKind.BLANK),
    )
    segments = (ReferenceSegment("c", 0, 400, ("ka",)),)
    return _call(range(10), tokens=tokens, segments=segments)


def test_validate_accepts_well_formed_call():
    assert validate_call(_valid_call()) == []


def test_validate_flags_nonpositive_frame_ms():
    out = validate_call(CallRecord("c", 0))
    assert [v.field for v in out] == ["frame_ms"]
    assert out[0].index == -1


def test_validate_flags_frame_ms_beyond_int64():
    out = validate_call(CallRecord("c", 2**63))
    assert [(v.field, v.index) for v in out] == [("frame_ms", -1)]


def test_validate_flags_a_call_ending_beyond_int64():
    # the frame index fits in int64, its end time does not
    out = validate_call(_call([0, 2**60]))
    assert [(v.field, v.index, v.message) for v in out] == [
        ("frames.index", 1, f"frame {2**60} ends at {(2**60 + 1) * 40} ms, beyond the int64 range")
    ]


def test_validate_bounds_a_frameless_call_at_0_ms():
    tokens = (TokenEvent(0, TokenKind.SUBWORD, "ka", 0), TokenEvent(40, TokenKind.EOW, "", 0))
    segments = (ReferenceSegment("c", 0, 40, ("ka",)),)
    out = validate_call(CallRecord("c", 40, **token_columns(tokens), segments=segments))
    assert [(v.field, v.index) for v in out] == [
        ("tokens.emit_time_ms", 1),
        ("segments.end_ms", 0),
    ]


def test_validate_flags_negative_frame_index():
    out = validate_call(_call([-1]))
    assert ("frames.index", 0) in [(v.field, v.index) for v in out]


def test_validate_flags_frame_indices_out_of_order():
    out = validate_call(_call([0, 2, 1, 3, 3]))
    assert [(v.field, v.index, v.message) for v in out] == [
        ("frames.index", 2, "frame index 1 does not follow previous 2"),
        ("frames.index", 4, "frame index 3 does not follow previous 3"),
    ]


def test_validate_flags_unsorted_tokens():
    tokens = (TokenEvent(100, TokenKind.BLANK), TokenEvent(50, TokenKind.BLANK))
    out = validate_call(_call(range(5), tokens=tokens))
    assert ("tokens.emit_time_ms", 1) in [(v.field, v.index) for v in out]


def test_validate_flags_blank_with_text():
    tokens = (TokenEvent(0, TokenKind.BLANK, "oops"),)
    out = validate_call(_call([0], tokens=tokens))
    assert ("tokens.text", 0) in [(v.field, v.index) for v in out]


def test_validate_flags_subword_after_its_eow():
    tokens = (
        TokenEvent(0, TokenKind.EOW, "", 7),
        TokenEvent(40, TokenKind.SUBWORD, "ka", 7),
    )
    out = validate_call(_call(range(3), tokens=tokens))
    assert ("tokens.word_index", 1) in [(v.field, v.index) for v in out]


def test_validate_flags_token_beyond_call_end():
    tokens = (TokenEvent(500, TokenKind.BLANK),)
    out = validate_call(_call(range(3), tokens=tokens))
    assert ("tokens.emit_time_ms", 0) in [(v.field, v.index) for v in out]


def test_validate_flags_empty_and_overlapping_segments():
    segments = (
        ReferenceSegment("c", 100, 100),
        ReferenceSegment("c", 50, 200),
    )
    out = validate_call(
        _call(range(10), segments=segments)
    )
    keyed = [(v.field, v.index) for v in out]
    assert ("segments.start_ms", 0) in keyed  # empty span
    assert ("segments.start_ms", 1) in keyed  # overlaps previous


def test_validate_flags_segment_beyond_call_end():
    segments = (ReferenceSegment("c", 0, 1000),)
    out = validate_call(
        _call(range(3), segments=segments)
    )
    assert ("segments.end_ms", 0) in [(v.field, v.index) for v in out]


def test_simulated_calls_always_validate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        seed = int(rng.integers(0, 2**31))
        call = gen_call(SimConfig(seed=seed, n_turns=int(rng.integers(1, 5))))
        assert validate_call(call) == []


def test_simulated_call_streams_merge_cleanly():
    call = gen_call(SimConfig(seed=3, n_turns=3))
    merged = merge_streams(list(oracle_vad(call)), list(call.tokens))
    times = [e.time_ms for e in merged]
    assert times == sorted(times)
    assert isinstance(merged[-1].payload, EndOfStream)


# every token list the validate_call cases above build
VALIDATE_CASES = [
    (),
    (TokenEvent(100, TokenKind.SUBWORD, "ka", 0), TokenEvent(200, TokenKind.EOW, "", 0),
     TokenEvent(240, TokenKind.BLANK)),
    (TokenEvent(0, TokenKind.SUBWORD, "ka", 0), TokenEvent(40, TokenKind.EOW, "", 0)),
    (TokenEvent(100, TokenKind.BLANK), TokenEvent(50, TokenKind.BLANK)),
    (TokenEvent(0, TokenKind.BLANK, "oops"),),
    (TokenEvent(0, TokenKind.EOW, "", 7), TokenEvent(40, TokenKind.SUBWORD, "ka", 7)),
    (TokenEvent(500, TokenKind.BLANK),),
]


def random_tokens(rng):
    """Tokens of every kind, often out of order or out of bounds, some repeated words."""
    out = []
    t = rng.randint(-80, 40)
    for _ in range(rng.randint(0, 30)):
        t += rng.choice([-40, 0, 0, 10, 40, 80])
        kind = rng.choice(list(TokenKind))
        text = rng.choice(["", "ka"]) if kind is TokenKind.BLANK else rng.choice(["", "zo"])
        word = rng.choice([None, 0, 1, 2])
        out.append(TokenEvent(t, kind, text, word))
    return tuple(out)


def test_validate_token_checks_match_a_walk_over_every_token():
    rng = random.Random(15)
    cases = VALIDATE_CASES + [random_tokens(rng) for _ in range(2000)]
    flagged = set()
    for k, tokens in enumerate(cases):
        n_frames = k % 6
        out = validate_call(_call(range(n_frames), tokens))
        want = token_violations(tokens, n_frames * 40)
        assert [v for v in out if v.field.startswith("tokens.")] == want, f"case {k}"
        flagged.update(v.field for v in want)
    assert flagged == {"tokens.emit_time_ms", "tokens.text", "tokens.word_index"}
