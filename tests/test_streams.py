"""Tests for the timeline records, stream merging, and the invariants of a call."""

import random
from collections import Counter
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


def _lazy_call(read):
    return CallRecord("c", 40, frame_index=[0, 2], features=read, labels=[1, -1],
                      teacher_labels=[-1, 0])


@pytest.mark.parametrize(
    "read_through",
    [
        lambda call: call.features,
        lambda call: call.frames,
        lambda call: call == _call([0, 2]),
        lambda call: replace(call, call_id="d"),
    ],
    ids=["features", "frames", "eq", "replace"],
)
def test_call_reads_features_given_as_a_function_once_on_first_use(read_through):
    reads = []

    def read():
        reads.append(1)
        return [[1.0, 2.0], [3.0, 4.0]]

    call = _lazy_call(read)
    assert reads == [] and call.labels.tolist() == [1, -1]
    read_through(call)
    assert reads == [1]
    assert call.features.tolist() == [[1.0, 2.0], [3.0, 4.0]] and reads == [1]
    assert call.features.dtype == np.float64 and not call.features.flags.writeable
    assert call.frames[1].features.tolist() == [3.0, 4.0] and reads == [1]


@pytest.mark.parametrize(
    "features, message",
    [(np.zeros((3, 2)), r"features has shape \(3, 2\), expected 2 dimension\(s\) and 2 rows"),
     (np.zeros(2), r"features has shape \(2,\), expected 2 dimension\(s\) and 2 rows"),
     ([[1.0, 2**1024], [0.0, 0.0]], "features holds a value outside float64")],
    ids=["rows", "ndim", "overflow"],
)
def test_call_checks_features_a_function_returns_on_every_read(features, message):
    reads = []

    def read():
        reads.append(1)
        return features

    call = _lazy_call(read)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^c: {message}$"):
            call.features
    assert reads == [1, 1]


def test_call_retries_a_features_function_that_raised():
    def read():
        raise ValueError("bad value on line 7")

    call = _lazy_call(read)
    for read_through in (lambda: call.features, lambda: call.frames, lambda: call == call):
        with pytest.raises(ValueError, match="^bad value on line 7$"):
            read_through()
    with pytest.raises(AttributeError, match="no attribute 'feature'"):
        call.feature
    # the other columns were checked when the call was built
    with pytest.raises(ValueError, match="^c: frame 1: bad labels code"):
        CallRecord("c", 40, frame_index=[0, 1], features=read, labels=[1, 5],
                   teacher_labels=[0, 0])


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


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"token_kind": np.array([258])}, "token_kind holds a value outside int8"),
        ({"token_time": np.array([2.0**63])}, "token_time holds a value outside int64"),
        ({"token_word": np.array([0.5])}, "token_word holds a value outside int64"),
    ],
    ids=["wraps", "overflows", "truncates"],
)
def test_call_refuses_an_array_column_its_cast_would_change(columns, message):
    # numpy casts arrays without a check: 258 would become kind 2, an EOW
    tokens = {"token_time": [0], "token_kind": [0], "token_word": [-1], "token_text": [""]}
    with pytest.raises(ValueError, match=f"^c: {message}$"):
        CallRecord("c", 40, **{**tokens, **columns})


def test_call_keeps_a_column_of_its_dtype_and_casts_exact_ones():
    time = np.array([0, 40], dtype=np.int64)
    call = CallRecord(
        "c", 40, features=np.array([[1.0, np.nan]], dtype=np.float32),
        frame_index=np.array([0], dtype=np.uint8), labels=[1], teacher_labels=[-1],
        token_time=time,
        token_kind=np.array([0, 2]), token_word=[-1, 0.0], token_text=["", ""],
    )
    assert call.token_time is time and not time.flags.writeable
    assert call.token_kind.tolist() == [0, 2] and call.token_word.tolist() == [-1, 0]
    assert call.frame_index.dtype == np.int64 and np.isnan(call.features[0, 1])


def test_tokens_view_every_token_column():
    tokens = (
        TokenEvent(0, TokenKind.BLANK),
        TokenEvent(40, TokenKind.SUBWORD, "ka", 3),
        TokenEvent(40, TokenKind.SUBWORD, "zo", None),
        TokenEvent(80, TokenKind.EOW, "", 3),
        TokenEvent(120, TokenKind.BLANK),
    )
    call = _call(range(4), tokens)
    assert call.tokens == tokens
    assert call.non_blank_tokens == tokens[1:4]
    assert call.tokens is call.tokens  # built once
    for name in ("token_time", "token_kind", "token_word"):
        assert not getattr(call, name).flags.writeable
    assert call.token_text == ("", "ka", "zo", "", "")


# ---------------------------------------------------------------------------
# the invariants of a call


def _valid_call():
    tokens = (
        TokenEvent(100, TokenKind.SUBWORD, "ka", 0),
        TokenEvent(200, TokenKind.EOW, "", 0),
        TokenEvent(240, TokenKind.BLANK),
    )
    segments = (ReferenceSegment("c", 0, 400, ("ka",)),)
    return _call(range(10), tokens=tokens, segments=segments)


def _refused(message, build, *args, **kwargs):
    """Assert that ``build`` refuses its call with exactly ``message``."""
    with pytest.raises(ValueError) as err:
        build(*args, **kwargs)
    assert str(err.value) == message


def test_validate_accepts_well_formed_call():
    call = _valid_call()
    assert call.end_ms == 400 and len(call.token_time) == 3 and len(call.segments) == 1


def test_validate_flags_nonpositive_frame_ms():
    for frame_ms in (0, -40):
        _refused(
            f"c: frame_ms must be positive and within the int64 range, got {frame_ms}",
            CallRecord, "c", frame_ms,
        )


def test_a_call_refuses_a_frame_ms_that_is_no_integer():
    _refused("c: frame_ms must be an integer, got 40.5", CallRecord, "c", 40.5)
    # a numpy integer is kept as an int, so the end of its grid cannot wrap
    assert type(CallRecord("c", np.int64(40)).frame_ms) is int
    _refused(
        f"c: frame 1: frame 1 ends at {2**63} ms, beyond the int64 range",
        CallRecord, "c", np.int64(2**62), frame_index=[0, 1], features=np.zeros((2, 0)),
        labels=[0, 0], teacher_labels=[0, 0],
    )


def test_validate_flags_frame_ms_beyond_int64():
    _refused(
        f"c: frame_ms must be positive and within the int64 range, got {2**63}",
        CallRecord, "c", 2**63,
    )
    assert CallRecord("c", 2**63 - 1).end_ms == 0


def test_validate_flags_a_call_ending_beyond_int64():
    # the frame index fits in int64, its end time does not
    _refused(
        f"c: frame 1: frame {2**60} ends at {(2**60 + 1) * 40} ms, beyond the int64 range",
        _call, [0, 2**60],
    )


def test_a_frame_grid_that_would_wrap_is_refused():
    # frame 4 of 2**62 ms would sit at 0 ms in an int64 column of frame times
    _refused(
        f"c: frame 1: frame 4 ends at {5 * 2**62} ms, beyond the int64 range",
        CallRecord, "c", 2**62, frame_index=[0, 4], features=np.zeros((2, 0)),
        labels=[0, 0], teacher_labels=[0, 0],
    )
    # a grid that ends at the last int64 ms is built
    call = CallRecord("c", 2**63 - 1, frame_index=[0], features=np.zeros((1, 0)),
                      labels=[0], teacher_labels=[0])
    assert call.frame_times.tolist() == [0] and call.end_ms == 2**63 - 1


def test_validate_bounds_a_frameless_call_at_0_ms():
    tokens = (TokenEvent(0, TokenKind.SUBWORD, "ka", 0), TokenEvent(40, TokenKind.EOW, "", 0))
    segments = (ReferenceSegment("c", 0, 40, ("ka",)),)
    _refused(
        "c: token 1: emit time 40 outside call bounds [0, 0]",
        CallRecord, "c", 40, **token_columns(tokens), segments=segments,
    )
    _refused(
        "c: segment 0: segment end 40 beyond call bounds [0, 0]",
        CallRecord, "c", 40, **token_columns(tokens[:1]), segments=segments,
    )


def test_validate_flags_negative_frame_index():
    _refused("c: frame 0: negative frame index -1", _call, [-1])


def test_validate_flags_frame_indices_out_of_order():
    _refused("c: frame 2: frame index 1 does not follow previous 2", _call, [0, 2, 1, 3, 3])
    _refused("c: frame 4: frame index 3 does not follow previous 3", _call, [0, 1, 2, 3, 3])


def test_validate_flags_unsorted_tokens():
    tokens = (TokenEvent(100, TokenKind.BLANK), TokenEvent(50, TokenKind.BLANK))
    _refused("c: token 1: emit time 50 precedes previous 100", _call, range(5), tokens)


def test_validate_flags_blank_with_text():
    tokens = (TokenEvent(0, TokenKind.BLANK, "oops"),)
    _refused("c: token 0: BLANK token carries non-empty text", _call, [0], tokens)


def test_validate_flags_subword_after_its_eow():
    tokens = (
        TokenEvent(0, TokenKind.EOW, "", 7),
        TokenEvent(40, TokenKind.SUBWORD, "ka", 7),
    )
    _refused(
        "c: token 1: token order: SUBWORD of word 7 follows its EOW (at token 0)",
        _call, range(3), tokens,
    )


def test_validate_flags_token_beyond_call_end():
    tokens = (TokenEvent(500, TokenKind.BLANK),)
    _refused("c: token 0: emit time 500 outside call bounds [0, 120]", _call, range(3), tokens)


def test_validate_flags_empty_and_overlapping_segments():
    empty = ReferenceSegment("c", 100, 100)
    _refused(
        "c: segment 0: empty or inverted segment [100, 100)",
        _call, range(10), segments=(empty, ReferenceSegment("c", 50, 200)),
    )
    _refused(
        "c: segment 1: overlap: segment starts at 50 before previous end 100",
        _call, range(10),
        segments=(ReferenceSegment("c", 0, 100), ReferenceSegment("c", 50, 200)),
    )


def test_validate_flags_segment_beyond_call_end():
    segments = (ReferenceSegment("c", 0, 1000),)
    _refused(
        "c: segment 0: segment end 1000 beyond call bounds [0, 120]",
        _call, range(3), segments=segments,
    )


def test_validate_flags_segment_before_call_start():
    _refused(
        "c: segment 0: segment start -5 before call bounds [0, 40]",
        _call, [0], segments=(ReferenceSegment("c", -5, 40, ("ka",)),),
    )
    # the start is checked first: an empty segment before 0 ms names its start
    _refused(
        "c: segment 1: segment start -80 before call bounds [0, 120]",
        _call, range(3),
        segments=(ReferenceSegment("c", 0, 40), ReferenceSegment("c", -80, -80)),
    )


def test_a_call_is_refused_for_its_first_fault():
    # frames before tokens before segments, each kind of row by index, and
    # within a token the order of the checks: emit order, BLANK text, word
    # order, bounds
    tokens = (TokenEvent(500, TokenKind.BLANK), TokenEvent(400, TokenKind.BLANK, "oops"))
    segments = (ReferenceSegment("c", 100, 100),)
    _refused(
        "c: frame 1: frame index 0 does not follow previous 0",
        _call, [0, 0], tokens, segments=segments,
    )
    _refused(
        "c: token 0: emit time 500 outside call bounds [0, 120]",
        _call, range(3), tokens, segments=segments,
    )
    _refused(
        "c: token 1: emit time 400 precedes previous 500",
        _call, range(20), tokens, segments=segments,
    )
    _refused("c: token 0: BLANK token carries non-empty text", _call, range(3), tokens[1:])
    _refused(
        "c: segment 0: empty or inverted segment [100, 100)",
        _call, range(20), segments=segments,
    )


def test_simulated_calls_always_validate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        seed = int(rng.integers(0, 2**31))
        call = gen_call(SimConfig(seed=seed, n_turns=int(rng.integers(1, 5))))
        # the call was built, so it holds every invariant; rebuilding it
        # from its own columns checks them again
        assert replace(call) == call


def test_simulated_call_streams_merge_cleanly():
    call = gen_call(SimConfig(seed=3, n_turns=3))
    merged = merge_streams(list(oracle_vad(call)), list(call.tokens))
    times = [e.time_ms for e in merged]
    assert times == sorted(times)
    assert isinstance(merged[-1].payload, EndOfStream)


# every token list the invariant cases above build
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


# a phrase of each token check's message
TOKEN_CHECKS = ("precedes previous", "BLANK token", "follows its EOW", "outside call bounds")


def test_validate_token_checks_match_a_walk_over_every_token():
    # the constructor refuses a call for the first fault the walk finds,
    # and builds it when the walk finds none
    rng = random.Random(15)
    cases = VALIDATE_CASES + [random_tokens(rng) for _ in range(2000)]
    first_faults = Counter()
    for k, tokens in enumerate(cases):
        n_frames = k % 6
        want = token_violations(tokens, n_frames * 40)
        if not want:
            assert _call(range(n_frames), tokens).tokens == tokens, f"case {k}"
            first_faults["none"] += 1
            continue
        index, message = want[0]
        with pytest.raises(ValueError) as err:
            _call(range(n_frames), tokens)
        assert str(err.value) == f"c: token {index}: {message}", f"case {k}"
        first_faults[next(c for c in TOKEN_CHECKS if c in message)] += 1
    assert set(first_faults) == {"none", *TOKEN_CHECKS}, first_faults
    assert min(first_faults.values()) >= 10, first_faults
