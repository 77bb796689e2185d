"""Tests for the conversation simulator and its VAD decision sources."""

import numpy as np
import pytest

from endpoint_rt.endpointer import EndpointerConfig, Mode, run_call
from endpoint_rt.evaluator import EvalConfig, align_events
from endpoint_rt.simulator import (
    SimConfig,
    corrupt_speech,
    gen_call,
    oracle_speech,
    oracle_vad,
    resample_features,
)
from endpoint_rt.streams import (
    BLANK_CODE,
    CallRecord,
    Label,
    TokenKind,
    merge_streams,
)


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "field, value",
    [
        ("frame_ms", 0),
        ("n_turns", 0),
        ("feature_dim", 0),
        ("feature_separability", -0.5),
        ("teacher_flip_prob", 1.0),
        ("teacher_flip_prob", -0.1),
        ("turn_dur_ms", (600, 400)),
        ("gap_dur_ms", (0, 400)),
        ("word_dur_ms", (700, 400)),
        ("pause_dur_ms", (40, 20)),
        ("subwords_per_word", (0, 3)),
        ("emission_delay", (-1.0, 50.0, 400.0)),
        ("emission_delay", (150.0, -1.0, 400.0)),
        ("feature_separability", float("nan")),
        ("feature_separability", float("inf")),
        ("emission_delay", (float("nan"), 1.0, 2.0)),
        ("emission_delay", (150.0, 50.0, float("inf"))),
    ],
)
def test_config_rejects_bad_values_naming_the_field(field, value):
    cfg = SimConfig(**{field: value})
    with pytest.raises(ValueError, match=field.split("_")[0]):
        gen_call(cfg)


# ---------------------------------------------------------------------------
# structure


def test_gen_call_is_bit_deterministic():
    a = gen_call(SimConfig(seed=5, n_turns=3))
    b = gen_call(SimConfig(seed=5, n_turns=3))
    assert a == b
    assert a != gen_call(SimConfig(seed=6, n_turns=3))


def test_call_id_encodes_the_seed():
    assert gen_call(SimConfig(seed=42, n_turns=1)).call_id == "sim-00000042"


def test_generated_calls_validate_across_configs():
    rng = np.random.default_rng(13)
    for _ in range(15):
        cfg = SimConfig(
            seed=int(rng.integers(0, 10**6)),
            n_turns=int(rng.integers(1, 6)),
            subwords_per_word=(1, int(rng.integers(1, 7))),
            feature_dim=int(rng.integers(1, 9)),
            teacher_flip_prob=float(rng.random() * 0.5),
        )
        call = gen_call(cfg)  # built, so it holds every invariant of a call
        assert call.end_ms == len(call.frame_index) * call.frame_ms


def test_first_turn_starts_at_zero_and_turns_alternate_with_gaps():
    call = gen_call(SimConfig(seed=11, n_turns=4))
    segs = call.segments
    assert segs[0].start_ms == 0
    for prev, cur in zip(segs, segs[1:]):
        gap = cur.start_ms - prev.end_ms
        assert 1000 <= gap <= 2000
    assert call.end_ms - segs[-1].end_ms >= 1000  # tail gap


def test_segment_boundaries_sit_on_the_frame_grid():
    call = gen_call(SimConfig(seed=21, n_turns=3))
    for seg in call.segments:
        assert seg.start_ms % call.frame_ms == 0
        assert seg.end_ms % call.frame_ms == 0
    assert call.end_ms % call.frame_ms == 0


def test_turn_durations_respect_their_bounds_loosely():
    # a turn stops adding words once it reaches its target, so it can
    # overshoot by at most a pause plus a word
    cfg = SimConfig(seed=31, n_turns=5)
    call = gen_call(cfg)
    for seg in call.segments:
        dur = seg.end_ms - seg.start_ms
        assert dur >= 400  # at least one word
        assert dur <= 2600 + 160 + 700


def test_intra_turn_pauses_are_labeled_nonspeech():
    call = gen_call(SimConfig(seed=7, n_turns=3))
    by_index = {f.index: f for f in call.frames}
    pause_frames = 0
    for seg in call.segments:
        for idx in range(seg.start_ms // 40, seg.end_ms // 40):
            if by_index[idx].label is Label.NONSPEECH:
                pause_frames += 1
    assert pause_frames > 0  # pauses exist inside turns and are nonspeech


def test_gaps_are_labeled_nonspeech_and_words_speech():
    call = gen_call(SimConfig(seed=9, n_turns=3))
    seg_spans = [(s.start_ms, s.end_ms) for s in call.segments]
    for fr in call.frames:
        inside = any(a <= fr.time_ms < b for a, b in seg_spans)
        if not inside:
            assert fr.label is Label.NONSPEECH


# ---------------------------------------------------------------------------
# token stream


def test_zero_delay_tokens_sit_at_their_ideal_times():
    call = gen_call(SimConfig(seed=17, n_turns=3, emission_delay=(0.0, 0.0, 0.0)))
    for seg in call.segments:
        eows = [
            t
            for t in call.tokens
            if t.kind is TokenKind.EOW and seg.start_ms < t.emit_time_ms <= seg.end_ms
        ]
        assert len(eows) == len(seg.words)
        assert eows[-1].emit_time_ms == seg.end_ms


def test_word_text_is_the_concatenation_of_its_subwords():
    call = gen_call(SimConfig(seed=17, n_turns=2, emission_delay=(0.0, 0.0, 0.0)))
    ref_words = [w for seg in call.segments for w in seg.words]
    by_word: dict[int, list[str]] = {}
    for tok in call.tokens:
        if tok.kind is TokenKind.SUBWORD:
            by_word.setdefault(tok.word_index, []).append(tok.text)
    assert ["".join(by_word[i]) for i in sorted(by_word)] == ref_words
    assert all(all(part for part in parts) for parts in by_word.values())


def test_blanks_fill_exactly_the_frames_without_emissions():
    call = gen_call(SimConfig(seed=23, n_turns=2))
    blank_frames = {
        t.emit_time_ms // 40 for t in call.tokens if t.kind is TokenKind.BLANK
    }
    emit_frames = {
        t.emit_time_ms // 40
        for t in call.tokens
        if t.kind is not TokenKind.BLANK and t.emit_time_ms < call.end_ms
    }
    n_frames = len(call.frames)
    assert blank_frames.isdisjoint(emit_frames)
    assert blank_frames | emit_frames == set(range(n_frames))
    for t in call.tokens:
        if t.kind is TokenKind.BLANK:
            assert t.emit_time_ms % 40 == 0  # blanks sit at frame starts


def test_no_blank_shares_a_millisecond_with_an_emitted_token():
    # at zero delay every EOW lands on a frame start, where a blank would sit
    on_frame_starts = 0
    for seed in range(5):
        call = gen_call(SimConfig(seed=seed, n_turns=2, emission_delay=(0.0, 0.0, 0.0)))
        times = [t.emit_time_ms for t in call.tokens]
        assert times == sorted(times)
        blanks = {t.emit_time_ms for t in call.tokens if t.kind is TokenKind.BLANK}
        emitted = [t.emit_time_ms for t in call.tokens if t.kind is not TokenKind.BLANK]
        assert blanks.isdisjoint(emitted)
        on_frame_starts += sum(1 for t in emitted if t % call.frame_ms == 0)
    assert on_frame_starts > 0


def test_token_stream_is_sorted_and_delays_are_bounded():
    cfg = SimConfig(seed=29, n_turns=3, emission_delay=(150.0, 50.0, 400.0))
    call = gen_call(cfg)
    times = [t.emit_time_ms for t in call.tokens]
    assert times == sorted(times)
    ideal = gen_call(SimConfig(seed=29, n_turns=3, emission_delay=(0.0, 0.0, 0.0)))
    ideal_emits = [t for t in ideal.tokens if t.kind is not TokenKind.BLANK]
    delayed_emits = [t for t in call.tokens if t.kind is not TokenKind.BLANK]
    assert len(ideal_emits) == len(delayed_emits)
    for a, b in zip(ideal_emits, delayed_emits):
        assert (a.kind, a.text, a.word_index) == (b.kind, b.text, b.word_index)
        assert 0 <= b.emit_time_ms - a.emit_time_ms <= 400 or b.emit_time_ms == call.end_ms


@pytest.mark.parametrize("mean, shift", [(2.5, 2), (3.5, 4), (1e300, None)])
def test_a_fixed_delay_rounds_half_to_even_and_caps_at_the_end(mean, shift):
    ideal = gen_call(SimConfig(seed=5, n_turns=2, emission_delay=(0.0, 0.0, 0.0)))
    call = gen_call(SimConfig(seed=5, n_turns=2, emission_delay=(mean, 0.0, mean)))
    ideal_times = ideal.token_time[ideal.token_kind != BLANK_CODE]
    times = call.token_time[call.token_kind != BLANK_CODE]
    if shift is None:
        assert (times == call.end_ms).all()
    else:
        assert np.array_equal(times, np.minimum(ideal_times + shift, call.end_ms))


# ---------------------------------------------------------------------------
# features and labels


def test_feature_class_means_split_by_separability():
    call = gen_call(SimConfig(seed=37, n_turns=8, feature_separability=2.0))
    speech = np.stack([f.features for f in call.frames if f.label is Label.SPEECH])
    non = np.stack([f.features for f in call.frames if f.label is Label.NONSPEECH])
    assert speech.shape[0] > 200 and non.shape[0] > 200
    assert abs(speech[:, 0].mean() - 1.0) < 0.2
    assert abs(non[:, 0].mean() + 1.0) < 0.2
    assert abs(speech[:, 1].mean()) < 0.2  # other axes carry no class signal
    assert abs(non[:, 1].mean()) < 0.2


def test_teacher_labels_match_truth_without_flips():
    call = gen_call(SimConfig(seed=41, n_turns=3, teacher_flip_prob=0.0))
    assert all(f.teacher_label == f.label for f in call.frames)


def test_teacher_flip_rate_approximates_the_probability():
    call = gen_call(SimConfig(seed=43, n_turns=10, teacher_flip_prob=0.3))
    flips = sum(1 for f in call.frames if f.teacher_label != f.label)
    rate = flips / len(call.frames)
    assert abs(rate - 0.3) < 0.05


def test_resample_features_changes_only_the_features():
    call = gen_call(SimConfig(seed=47, n_turns=3, feature_separability=1.0))
    swapped = resample_features(call, 6.0, seed=99)
    assert swapped.call_id == call.call_id
    assert swapped.tokens == call.tokens
    assert swapped.segments == call.segments
    assert [f.label for f in swapped.frames] == [f.label for f in call.frames]
    speech = np.stack([f.features for f in swapped.frames if f.label is Label.SPEECH])
    non = np.stack([f.features for f in swapped.frames if f.label is Label.NONSPEECH])
    assert speech[:, 0].mean() - non[:, 0].mean() > 4.0
    again = resample_features(call, 6.0, seed=99)
    assert swapped == again


def test_resample_features_rejects_negative_separability():
    call = gen_call(SimConfig(seed=47, n_turns=1))
    with pytest.raises(ValueError, match="non-negative"):
        resample_features(call, -1.0, seed=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="feature_separability: must be finite"):
            resample_features(call, bad, seed=0)


# ---------------------------------------------------------------------------
# VAD decision sources


def test_oracle_vad_mirrors_the_labels():
    call = gen_call(SimConfig(seed=53, n_turns=2))
    decisions = oracle_vad(call)
    assert len(decisions) == len(call.frames)
    for d, f in zip(decisions, call.frames):
        assert d.time_ms == f.time_ms
        assert d.is_speech == (f.label is Label.SPEECH)


def test_oracle_vad_rejects_unlabeled_frames():
    call = CallRecord(
        "c", 40, frame_index=[0], features=np.zeros((1, 2)), labels=[-1], teacher_labels=[-1]
    )
    with pytest.raises(ValueError, match="frame 0 has no label"):
        oracle_vad(call)


def test_oracle_speech_columns_are_the_oracle_decisions():
    call = gen_call(SimConfig(seed=53, n_turns=2))
    speech = oracle_speech(call)
    assert speech.dtype == bool
    assert list(zip(call.frame_times.tolist(), speech.tolist())) == [
        (d.time_ms, d.is_speech) for d in oracle_vad(call)
    ]


@pytest.mark.parametrize("target, seed", [(0.0, 1), (0.105, 3), (0.3, 8)])
def test_corrupt_speech_flips_as_one_draw_per_decision(target, seed):
    # the reference: one rng.random() per decision, flipped below target
    decisions = oracle_vad(gen_call(SimConfig(seed=67, n_turns=3)))
    rng = np.random.default_rng(seed)
    want = [d.is_speech != (rng.random() < target) for d in decisions]
    speech = np.array([d.is_speech for d in decisions])
    assert corrupt_speech(speech, target, seed).tolist() == want


def test_corrupt_vad_zero_target_is_the_identity():
    speech = oracle_speech(gen_call(SimConfig(seed=59, n_turns=2)))
    assert np.array_equal(corrupt_speech(speech, 0.0, seed=1), speech)


def test_corrupt_vad_is_deterministic_per_seed():
    speech = oracle_speech(gen_call(SimConfig(seed=61, n_turns=2)))
    once = corrupt_speech(speech, 0.2, seed=5)
    assert np.array_equal(once, corrupt_speech(speech, 0.2, seed=5))
    assert not np.array_equal(once, corrupt_speech(speech, 0.2, seed=6))


def test_corrupt_vad_flip_rate_per_class():
    speech = np.random.default_rng(0).integers(0, 2, size=100_000).astype(bool)
    target = 0.105
    flipped = corrupt_speech(speech, target, seed=3) != speech
    assert abs(flipped[speech].mean() - target) < 0.01
    assert abs(flipped[~speech].mean() - target) < 0.01


def test_corrupt_vad_rejects_out_of_range_targets():
    speech = oracle_speech(gen_call(SimConfig(seed=1, n_turns=1)))
    with pytest.raises(ValueError, match="target_eer"):
        corrupt_speech(speech, 0.5, seed=0)
    with pytest.raises(ValueError, match="target_eer"):
        corrupt_speech(speech, -0.1, seed=0)


# ---------------------------------------------------------------------------
# emission delay drives blank-run failures


def test_delay_strictly_degrades_blank_run_endpointing():
    """With delayed emissions, blank-run endpointing accumulates strictly
    more misses plus false alarms than with instant emissions."""
    cfg_ep = EndpointerConfig(mode=Mode.BLANK, blank_run_frames=6)
    eval_cfg = EvalConfig(ts_threshold_ms=200, tolerance_ms=200)
    clean_errors = 0
    delayed_errors = 0
    for seed in range(200, 225):
        for delay, bucket in (((0.0, 0.0, 0.0), "clean"), ((300.0, 100.0, 600.0), "delayed")):
            call = gen_call(SimConfig(seed=seed, n_turns=4, emission_delay=delay))
            eps = run_call(cfg_ep, merge_streams([], list(call.tokens)))
            refs = [seg.end_ms for seg in call.segments]
            m = align_events(refs, eps, eval_cfg)
            errors = m.misses + m.false_alarms
            if bucket == "clean":
                clean_errors += errors
            else:
                delayed_errors += errors
    assert delayed_errors > clean_errors
