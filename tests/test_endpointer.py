"""Tests for the endpoint state machine and transcript commitment."""

import random
import sys
from bisect import bisect_left

import numpy as np
import pytest

from endpoint_rt.endpointer import (
    EndpointEvent,
    EndpointerConfig,
    Endpointer,
    Mode,
    Trigger,
    _words,
    commit_transcript,
    hypothesis_words,
    new_endpointer,
    run_call,
    run_sweep,
)
from endpoint_rt.simulator import SimConfig, gen_call, oracle_vad
from endpoint_rt.streams import (
    TimelineEvent,
    TokenEvent,
    TokenKind,
    VadDecision,
    merge_streams,
)

from oracles import maximal_nonspeech_runs, sweep_call

FRAME = 40


def vad_seq(pattern, start=0, frame_ms=FRAME):
    """VAD decisions from a per-frame pattern string of 's'/'n'."""
    out = []
    for k, ch in enumerate(pattern):
        idx = start + k
        out.append(VadDecision(idx * frame_ms, ch == "s"))
    return out


def sub(t, text="ka", wi=0):
    return TokenEvent(t, TokenKind.SUBWORD, text, wi)


def eow(t, wi=0):
    return TokenEvent(t, TokenKind.EOW, "", wi)


def blank(t):
    return TokenEvent(t, TokenKind.BLANK)


def run(mode, vad, tokens, **kw):
    cfg = EndpointerConfig(mode=mode, **kw)
    return run_call(cfg, merge_streams(list(vad), list(tokens)))


def sweep(mode, vad, tokens, **kw):
    """run_sweep's endpoints for one config, on a call of the decisions and tokens run() merges."""
    cfg = EndpointerConfig(mode=mode, **kw)
    [eps] = run_sweep([cfg], *sweep_call(cfg.frame_ms, vad, tokens))
    return eps


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown endpointing mode"):
        new_endpointer(EndpointerConfig(mode="TS"))


def test_config_rejects_nonpositive_frame():
    with pytest.raises(ValueError, match="frame_ms"):
        new_endpointer(EndpointerConfig(mode=Mode.TS, frame_ms=0))


def test_config_rejects_off_grid_threshold():
    with pytest.raises(ValueError, match="not a positive multiple"):
        new_endpointer(EndpointerConfig(mode=Mode.TS, ts_threshold_ms=210, frame_ms=40))
    with pytest.raises(ValueError, match="not a positive multiple"):
        new_endpointer(EndpointerConfig(mode=Mode.TS, ts_threshold_ms=0))


def test_config_rejects_cap_below_threshold():
    with pytest.raises(ValueError, match="deferral_cap_ms"):
        new_endpointer(
            EndpointerConfig(mode=Mode.TS_AND_EOW, ts_threshold_ms=400, deferral_cap_ms=200)
        )


def test_config_rejects_empty_blank_run():
    with pytest.raises(ValueError, match="blank_run_frames"):
        new_endpointer(EndpointerConfig(mode=Mode.BLANK, blank_run_frames=0))


# ---------------------------------------------------------------------------
# trailing-silence rule


def test_ts_fires_at_silence_start_plus_threshold():
    # ten speech frames then five nonspeech: the run starts at 400 ms and
    # reaches 200 ms of silence while the frame at 560 ms is in flight
    eps = run(Mode.TS, vad_seq("ssssssssssnnnnn"), [])
    assert len(eps) == 1
    assert eps[0].time_ms == 600
    assert eps[0].trigger is Trigger.TS
    assert eps[0].silence_start_ms == 400
    assert eps[0].deferred_by_ms == 0


def test_ts_fires_once_per_maximal_run():
    eps = run(Mode.TS, vad_seq("ss" + "n" * 20), [])
    assert len(eps) == 1
    assert eps[0].time_ms == 80 + 200


def test_ts_rearms_after_speech():
    eps = run(Mode.TS, vad_seq("ssnnnnnnssnnnnnn"), [])
    assert [(e.time_ms, e.silence_start_ms) for e in eps] == [(280, 80), (600, 400)]


def test_ts_stays_quiet_below_threshold():
    assert run(Mode.TS, vad_seq("ssssnnnnss"), []) == []  # 160 ms run < 200


def test_ts_threshold_scales_the_fire_time():
    eps = run(Mode.TS, vad_seq("ss" + "n" * 15), [], ts_threshold_ms=400)
    assert [e.time_ms for e in eps] == [80 + 400]


def test_ts_handles_sparse_decision_streams():
    # two lone nonspeech decisions far apart still form one run whose span
    # is measured to the end of the latest frame
    vad = [VadDecision(400, False), VadDecision(1000, False)]
    eps = run(Mode.TS, vad, [])
    assert [(e.time_ms, e.silence_start_ms) for e in eps] == [(600, 400)]


def test_ts_ignores_tokens():
    tokens = [sub(100), eow(380), blank(420)]
    eps = run(Mode.TS, vad_seq("ssssssssssnnnnn"), tokens)
    assert [e.time_ms for e in eps] == [600]


# ---------------------------------------------------------------------------
# step() contract


def test_step_rejects_out_of_order_events_and_poisons():
    machine = new_endpointer(EndpointerConfig(mode=Mode.TS))
    machine.step(TimelineEvent(400, VadDecision(400, False)))
    with pytest.raises(ValueError, match="out-of-order event at 360 ms after 400 ms"):
        machine.step(TimelineEvent(360, VadDecision(360, False)))
    with pytest.raises(RuntimeError, match="poisoned"):
        machine.step(TimelineEvent(500, VadDecision(500, False)))


def test_step_rejects_an_unknown_payload_and_poisons():
    machine = new_endpointer(EndpointerConfig(mode=Mode.TS))
    machine.step(TimelineEvent(400, VadDecision(400, False)))
    with pytest.raises(ValueError, match="^unknown payload type str$"):
        machine.step(TimelineEvent(440, "speech"))
    with pytest.raises(RuntimeError, match="poisoned"):
        machine.step(TimelineEvent(480, VadDecision(480, False)))


def test_step_rejects_events_after_end_of_stream():
    machine = new_endpointer(EndpointerConfig(mode=Mode.TS))
    for ev in merge_streams(vad_seq("ssnn"), []):
        machine.step(ev)
    with pytest.raises(RuntimeError, match="EndOfStream"):
        machine.step(TimelineEvent(200, VadDecision(200, False)))


def test_streaming_steps_equal_batch_fold():
    call = gen_call(SimConfig(seed=42, n_turns=3))
    timeline = merge_streams(list(oracle_vad(call)), list(call.tokens))
    cfg = EndpointerConfig(mode=Mode.TS_AND_EOW)
    machine = new_endpointer(cfg)
    streamed = [ep for ev in timeline if (ep := machine.step(ev)) is not None]
    assert streamed == run_call(cfg, timeline)


def test_step_returns_a_fire_from_the_event_that_stamps_it_in_the_past():
    # a sparse decision at 400 ms completes a threshold stamped at 200 ms;
    # the same step settles the fire instead of the next event
    vad = [VadDecision(0, False), VadDecision(400, False)]
    machine = new_endpointer(EndpointerConfig(mode=Mode.TS_AND_EOW))
    returned = [machine.step(ev) for ev in merge_streams(vad, [eow(0)])]
    immediate = EndpointEvent(200, Trigger.TS_AND_EOW_IMMEDIATE, 0, 0)
    assert returned == [None, None, immediate, None]


def test_step_times_out_a_deferral_from_the_event_that_arms_it_in_the_past():
    # a sparse decision at 2000 ms completes a threshold stamped at 200 ms
    # with no EOW in hand; the deferral's deadline at 1000 ms has passed too,
    # so the same step times it out instead of the next event.  (An EOW-mode
    # fire is never stamped before the event that arms it, so only
    # TS_AND_EOW shows this.)
    vad = [VadDecision(0, False), VadDecision(2000, False), VadDecision(2040, True)]
    cfg = EndpointerConfig(mode=Mode.TS_AND_EOW, ts_threshold_ms=200, deferral_cap_ms=1000)
    machine = new_endpointer(cfg)
    returned = [machine.step(ev) for ev in merge_streams(vad, [])]
    timeout = EndpointEvent(1000, Trigger.DEFERRAL_TIMEOUT, 0, 800)
    assert returned == [None, timeout, None, None]


def _python_calls(step, events):
    """Names of the Python functions entered while stepping ``events``."""
    names = []

    def profile(frame, event, arg):
        if event == "call":  # C calls raise "c_call", which is not counted
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for ev in events:
            step(ev)
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize(
    "mode, tokens",
    [(Mode.TS, []), (Mode.EOW, [sub(t, wi=t) for t in range(20, 400, 80)])],
)
def test_step_makes_no_python_call_of_its_own_while_no_fire_can_arm(mode, tokens):
    # speech decisions (and, in EOW mode, SUBWORD tokens) never settle, arm
    # or emit a fire, so each event is one Python call: step() itself
    events = merge_streams(vad_seq("s" * 10), tokens)[:-1]  # no EndOfStream
    assert len(events) == 10 + len(tokens)
    machine = new_endpointer(EndpointerConfig(mode=mode))
    assert _python_calls(machine.step, events) == ["step"] * len(events)


# ---------------------------------------------------------------------------
# end-of-word rule


def test_eow_fires_one_frame_into_silence():
    # EOW lands before the silence: the endpoint stands after the first
    # nonspeech frame completes
    tokens = [sub(100), eow(380)]
    eps = run(Mode.EOW, vad_seq("ssssssssssnnnnn"), tokens)
    assert [(e.time_ms, e.trigger, e.silence_start_ms) for e in eps] == [
        (440, Trigger.EOW, 400)
    ]


def test_eow_fires_at_late_eow_arrival():
    # the EOW is emitted 120 ms into the silence; the endpoint tracks it
    tokens = [sub(100), eow(520)]
    eps = run(Mode.EOW, vad_seq("ssssssssssnnnnn"), tokens)
    assert [(e.time_ms, e.trigger) for e in eps] == [(520, Trigger.EOW)]


def test_eow_cancelled_by_subword_at_fire_time():
    tokens = [sub(100), eow(380), sub(440, "zo", 1)]
    assert run(Mode.EOW, vad_seq("ssssssssssnnnnn"), tokens) == []


def test_eow_requires_an_end_of_word_token():
    tokens = [sub(100), sub(200, "zo")]
    assert run(Mode.EOW, vad_seq("ssssssssssnnnnn"), tokens) == []


def test_eow_is_consumed_by_its_endpoint():
    # silence, speech, silence again: the second run has no fresh EOW, so
    # it must not fire from the stale one
    vad = vad_seq("ssssssssss") + vad_seq("nnnnn", start=10) + vad_seq("ssss", start=15) + vad_seq(
        "nnnnn", start=19
    )
    tokens = [sub(100), eow(380)]
    eps = run(Mode.EOW, vad, tokens)
    assert [e.time_ms for e in eps] == [440]


def test_eow_fires_again_after_a_new_word():
    vad = (
        vad_seq("ssssssssss")
        + vad_seq("nnnnn", start=10)
        + vad_seq("ssss", start=15)
        + vad_seq("nnnnn", start=19)
    )
    tokens = [sub(100), eow(380), sub(620, "zo", 1), eow(740, 1)]
    eps = run(Mode.EOW, vad, tokens)
    assert [e.time_ms for e in eps] == [440, 760 + FRAME]


# ---------------------------------------------------------------------------
# combined rule


def test_tseow_immediate_when_eow_precedes_trigger():
    tokens = [sub(100), eow(380)]
    eps = run(Mode.TS_AND_EOW, vad_seq("ssssssssssnnnnnnn"), tokens)
    assert [(e.time_ms, e.trigger, e.deferred_by_ms) for e in eps] == [
        (600, Trigger.TS_AND_EOW_IMMEDIATE, 0)
    ]


def test_tseow_eow_exactly_at_trigger_counts_as_immediate():
    tokens = [sub(100), eow(600)]
    eps = run(Mode.TS_AND_EOW, vad_seq("ssssssssssnnnnnnn"), tokens)
    assert [(e.time_ms, e.trigger) for e in eps] == [(600, Trigger.TS_AND_EOW_IMMEDIATE)]


def test_tseow_defers_to_a_late_eow():
    tokens = [sub(100), eow(800)]
    eps = run(Mode.TS_AND_EOW, vad_seq("ssssssssss" + "n" * 15), tokens)
    assert [(e.time_ms, e.trigger, e.deferred_by_ms) for e in eps] == [
        (800, Trigger.TS_AND_EOW_DEFERRED, 200)
    ]


def test_tseow_times_out_without_an_eow():
    eps = run(Mode.TS_AND_EOW, vad_seq("ssssssssss" + "n" * 30), [sub(100)])
    assert [(e.time_ms, e.trigger, e.silence_start_ms, e.deferred_by_ms) for e in eps] == [
        (1400, Trigger.DEFERRAL_TIMEOUT, 400, 800)
    ]


def test_tseow_deferral_cap_bounds_the_wait():
    eps = run(
        Mode.TS_AND_EOW,
        vad_seq("ssssssssss" + "n" * 30),
        [sub(100)],
        deferral_cap_ms=400,
    )
    assert [(e.time_ms, e.deferred_by_ms) for e in eps] == [(800, 200)]


def test_tseow_speech_cancels_an_open_deferral():
    vad = vad_seq("ssssssssss") + vad_seq("nnnnnnn", start=10) + vad_seq("ssss", start=17)
    eps = run(Mode.TS_AND_EOW, vad, [sub(100), eow(800)])
    assert eps == []


def test_tseow_speech_at_trigger_time_cancels_the_fire():
    vad = vad_seq("ssssssssssnnnnn") + vad_seq("ssss", start=15)
    assert run(Mode.TS_AND_EOW, vad, [sub(100)]) == []


def test_tseow_open_deferral_times_out_at_end_of_stream():
    # stream ends at 960 ms, well before the 1400 ms deadline
    eps = run(Mode.TS_AND_EOW, vad_seq("ssssssssss" + "n" * 15), [sub(100)])
    assert [(e.time_ms, e.trigger, e.deferred_by_ms) for e in eps] == [
        (960, Trigger.DEFERRAL_TIMEOUT, 360)
    ]


def test_tseow_late_resolved_fire_discharges_an_eow_at_the_deadline():
    # sparse VAD: the threshold (200 ms) is only seen at 480 ms, after an
    # EOW that landed exactly on the deadline (0 + cap = 400 ms)
    vad = [VadDecision(0, False), VadDecision(480, False)]
    eps = run(Mode.TS_AND_EOW, vad, [eow(400)], deferral_cap_ms=400)
    assert [(e.time_ms, e.trigger, e.silence_start_ms, e.deferred_by_ms) for e in eps] == [
        (400, Trigger.TS_AND_EOW_DEFERRED, 0, 200)
    ]
    assert sweep(Mode.TS_AND_EOW, vad, [eow(400)], deferral_cap_ms=400) == eps
    # the fire is settled at 480 ms, on the EOW at 300 ms, not the one at
    # 100 ms that was last at the threshold
    tokens = [eow(100, 0), sub(250, "ka", 1), eow(300, 1)]
    want = [EndpointEvent(300, Trigger.TS_AND_EOW_DEFERRED, 0, 100)]
    assert run(Mode.TS_AND_EOW, vad, tokens, deferral_cap_ms=400) == want
    assert sweep(Mode.TS_AND_EOW, vad, tokens, deferral_cap_ms=400) == want


def test_tseow_speech_and_silence_at_the_same_ms_keep_the_fire_cancelled():
    # speech at 40 ms cancels the fire stamped at 80 ms; the silence that
    # restarts at the same 40 ms does not re-arm it, so the EOW at 100 ms
    # finds no deferral (a speech_at_boundary derived as "the run restarted"
    # would miss this: the new run starts where the old one did)
    vad = [
        VadDecision(0, True),
        VadDecision(40, False),
        VadDecision(40, True),
        VadDecision(40, False),
        VadDecision(120, True),
    ]
    eps = run(
        Mode.TS_AND_EOW, vad, [eow(100)], ts_threshold_ms=40, deferral_cap_ms=80
    )
    assert eps == []


# ---------------------------------------------------------------------------
# an endpoint stamped at the one speech decision between two runs


def test_eow_fire_at_a_one_decision_speech_run_disarms_the_next_run():
    # the EOW at 20 ms arms a fire at 40 ms, where speech is one decision:
    # the fire is emitted at 80 ms, after that decision re-armed the
    # machine, so the EOW at 100 ms in the next run finds it disarmed
    tokens = [eow(20, 0), sub(90, "ka", 1), eow(100, 1)]
    want = [EndpointEvent(40, Trigger.EOW, 0)]
    vad = vad_seq("nsnns")
    assert run(Mode.EOW, vad, tokens) == sweep(Mode.EOW, vad, tokens) == want
    # a second speech decision emits the fire first and re-arms
    vad = vad_seq("nssnns")
    tokens = [eow(20, 0), sub(130, "ka", 1), eow(140, 1)]
    want += [EndpointEvent(160, Trigger.EOW, 120)]
    assert run(Mode.EOW, vad, tokens) == sweep(Mode.EOW, vad, tokens) == want


def test_tseow_immediate_at_a_one_decision_speech_run_disarms_the_next_run():
    # delta completes at 0 ms with T = 40 ms, the one speech decision: the
    # EOW at 20 ms makes it immediate, emitted at 80 ms, so the next run
    # completes delta with an EOW in hand and ends nothing
    tokens = [eow(20, 0), sub(90, "ka", 1), eow(100, 1)]
    kw = {"ts_threshold_ms": 40, "deferral_cap_ms": 1000}
    want = [EndpointEvent(40, Trigger.TS_AND_EOW_IMMEDIATE, 0)]
    vad = vad_seq("nsnns")
    assert run(Mode.TS_AND_EOW, vad, tokens, **kw) == want
    assert sweep(Mode.TS_AND_EOW, vad, tokens, **kw) == want
    vad = vad_seq("nssnns")
    tokens = [eow(20, 0), sub(130, "ka", 1), eow(140, 1)]
    want += [EndpointEvent(160, Trigger.TS_AND_EOW_IMMEDIATE, 120)]
    assert run(Mode.TS_AND_EOW, vad, tokens, **kw) == want
    assert sweep(Mode.TS_AND_EOW, vad, tokens, **kw) == want


# ---------------------------------------------------------------------------
# end of stream while a fire is still pending (stamped after the last event)


def settle_at_end(mode, vad, tokens, **kw):
    """Endpoints fired before EndOfStream, and the one EndOfStream settles."""
    machine = new_endpointer(EndpointerConfig(mode=mode, **kw))
    timeline = merge_streams(list(vad), list(tokens))
    before = [ep for ev in timeline[:-1] if (ep := machine.step(ev)) is not None]
    ep = machine.step(timeline[-1])
    at_end = None if ep is None else (
        ep.time_ms, ep.trigger, ep.silence_start_ms, ep.deferred_by_ms
    )
    return before, at_end


def test_end_of_stream_times_out_a_pending_tseow_fire():
    # threshold completes at 600 ms, the stream ends at 560 ms: no EOW in
    # hand, so the fire becomes a deferral that times out at end of stream
    before, at_end = settle_at_end(Mode.TS_AND_EOW, vad_seq("s" * 10 + "n" * 5), [sub(100)])
    assert before == []
    assert at_end == (560, Trigger.DEFERRAL_TIMEOUT, 400, 0)


def test_end_of_stream_settles_a_pending_tseow_fire_as_immediate():
    before, at_end = settle_at_end(
        Mode.TS_AND_EOW, vad_seq("s" * 10 + "n" * 5), [sub(100), eow(300)]
    )
    assert before == []
    assert at_end == (600, Trigger.TS_AND_EOW_IMMEDIATE, 400, 0)


def test_end_of_stream_keeps_speech_at_the_threshold_cancelling():
    before, at_end = settle_at_end(
        Mode.TS_AND_EOW, vad_seq("s" * 10 + "n" * 5 + "s"), [sub(100)]
    )
    assert (before, at_end) == ([], None)


def test_end_of_stream_settles_a_pending_eow_fire():
    # silence from 160 ms: the fire is stamped one frame in, at 200 ms
    before, at_end = settle_at_end(Mode.EOW, vad_seq("ssss" + "n"), [sub(50), eow(100)])
    assert before == []
    assert at_end == (200, Trigger.EOW, 160, 0)


def test_tseow_fires_once_per_run_even_after_timeout():
    eps = run(Mode.TS_AND_EOW, vad_seq("ss" + "n" * 60), [sub(60)])
    assert len(eps) == 1
    assert eps[0].trigger is Trigger.DEFERRAL_TIMEOUT


# ---------------------------------------------------------------------------
# blank-run rule


def test_blank_run_fires_at_nth_blank():
    tokens = [blank(t) for t in range(0, 240, 40)]
    eps = run(Mode.BLANK, [], tokens, blank_run_frames=6)
    assert [(e.time_ms, e.trigger, e.silence_start_ms) for e in eps] == [
        (200, Trigger.BLANK_RUN, 0)
    ]


def test_blank_run_resets_on_non_blank():
    tokens = (
        [blank(t) for t in range(0, 200, 40)]
        + [sub(200)]
        + [blank(t) for t in range(240, 480, 40)]
    )
    eps = run(Mode.BLANK, [], tokens, blank_run_frames=6)
    assert [e.time_ms for e in eps] == [440]
    assert eps[0].silence_start_ms == 240


def test_blank_run_disarms_until_next_non_blank():
    tokens = (
        [blank(t) for t in range(0, 320, 40)]  # eight blanks: one endpoint only
        + [sub(320)]
        + [blank(t) for t in range(360, 600, 40)]
    )
    eps = run(Mode.BLANK, [], tokens, blank_run_frames=6)
    assert [e.time_ms for e in eps] == [200, 560]


def test_blank_mode_ignores_vad():
    tokens = [blank(t) for t in range(0, 240, 40)]
    eps = run(Mode.BLANK, vad_seq("ssssss"), tokens, blank_run_frames=6)
    assert [e.time_ms for e in eps] == [200]


def test_blank_run_of_one_fires_immediately():
    tokens = [blank(0), blank(40), sub(80), blank(120)]
    eps = run(Mode.BLANK, [], tokens, blank_run_frames=1)
    assert [e.time_ms for e in eps] == [0, 120]


# ---------------------------------------------------------------------------
# properties over simulated calls


def _sim_calls(count, seed0, **kw):
    return [gen_call(SimConfig(seed=seed0 + k, **kw)) for k in range(count)]


def test_run_call_is_deterministic():
    for call in _sim_calls(5, 100, n_turns=3):
        timeline = merge_streams(list(oracle_vad(call)), list(call.tokens))
        cfg = EndpointerConfig(mode=Mode.TS_AND_EOW)
        assert run_call(cfg, timeline) == run_call(cfg, timeline)


def test_ts_endpoint_count_matches_run_oracle():
    for call in _sim_calls(20, 300, n_turns=3):
        decisions = oracle_vad(call)
        for delta in (200, 400):
            eps = run(Mode.TS, decisions, call.tokens, ts_threshold_ms=delta)
            runs = maximal_nonspeech_runs(
                [(d.time_ms, d.is_speech) for d in decisions], call.frame_ms
            )
            want = sum(1 for s, e in runs if e - s >= delta)
            assert len(eps) == want
            # and each fires exactly delta past its run start
            long_runs = [s for s, e in runs if e - s >= delta]
            assert [e.time_ms for e in eps] == [s + delta for s in long_runs]
            assert all(e.time_ms >= e.silence_start_ms for e in eps)


def test_ts_endpoint_count_is_monotone_in_threshold():
    for call in _sim_calls(10, 500, n_turns=4):
        decisions = oracle_vad(call)
        counts = [
            len(run(Mode.TS, decisions, call.tokens, ts_threshold_ms=d))
            for d in (200, 400, 600)
        ]
        assert counts[0] >= counts[1] >= counts[2]


def test_blank_endpoint_count_is_monotone_in_run_length():
    for call in _sim_calls(10, 700, n_turns=3):
        counts = [
            len(run(Mode.BLANK, [], call.tokens, blank_run_frames=n)) for n in (3, 6, 9)
        ]
        assert counts[0] >= counts[1] >= counts[2]


def test_eow_mode_commits_only_closed_words():
    for call in _sim_calls(15, 900, n_turns=3):
        decisions = oracle_vad(call)
        eps = run(Mode.EOW, decisions, call.tokens)
        turns = commit_transcript(call.tokens, eps, call.end_ms)
        for turn in turns:
            for text, closed in turn.words:
                assert closed, f"{call.call_id}: unclosed word {text!r} in turn {turn.turn_index}"


def test_endpoints_never_precede_their_silence():
    for call in _sim_calls(10, 1100, n_turns=3):
        decisions = oracle_vad(call)
        for mode in Mode:
            eps = run(mode, [] if mode is Mode.BLANK else decisions, call.tokens)
            for e in eps:
                assert e.time_ms >= e.silence_start_ms
                assert e.deferred_by_ms >= 0


# ---------------------------------------------------------------------------
# transcript commitment


def _eps(times, trigger=Trigger.TS):
    from endpoint_rt.endpointer import EndpointEvent

    return [EndpointEvent(t, trigger, max(0, t - 200)) for t in times]


def test_commit_groups_words_per_turn():
    tokens = [
        sub(100, "ka", 0),
        sub(150, "zo", 0),
        eow(200, 0),
        sub(300, "mi", 1),
        eow(350, 1),
        blank(400),
        blank(640),
    ]
    turns = commit_transcript(tokens, _eps([600]), 800)
    assert len(turns) == 1
    assert turns[0].turn_index == 0
    assert (turns[0].start_ms, turns[0].end_ms) == (0, 600)
    assert turns[0].words == (("kazo", True), ("mi", True))


def test_commit_splits_a_word_cut_by_an_endpoint():
    tokens = [sub(100, "ka", 0), sub(200, "zo", 0), sub(300, "ta", 0), eow(350, 0)]
    turns = commit_transcript(tokens, _eps([250]), 800)
    assert len(turns) == 2
    assert turns[0].words == (("kazo", False),)
    assert turns[1].words == (("ta", True),)
    assert (turns[1].start_ms, turns[1].end_ms) == (250, 800)


def test_commit_eow_alone_contributes_no_word():
    tokens = [sub(100, "ka", 0), eow(200, 0)]
    turns = commit_transcript(tokens, _eps([150]), 400)
    assert turns[0].words == (("ka", False),)
    assert turns[1].words == ()


def test_commit_token_at_boundary_belongs_to_earlier_turn():
    tokens = [sub(100, "ka", 0), eow(150, 0)]
    turns = commit_transcript(tokens, _eps([150]), 400)
    assert turns[0].words == (("ka", True),)
    assert len(turns) == 1  # nothing non-blank remains after the boundary


def test_commit_merges_unindexed_tokens_into_anonymous_words():
    tokens = [
        TokenEvent(100, TokenKind.SUBWORD, "he", None),
        TokenEvent(140, TokenKind.SUBWORD, "llo", None),
        TokenEvent(180, TokenKind.EOW, "", None),
    ]
    turns = commit_transcript(tokens, _eps([300]), 400)
    assert turns[0].words == (("hello", True),)


def test_commit_indexed_token_interrupts_an_anonymous_word():
    tokens = [
        TokenEvent(100, TokenKind.SUBWORD, "he", None),
        sub(140, "zz", 5),
        eow(180, 5),
    ]
    turns = commit_transcript(tokens, _eps([300]), 400)
    assert turns[0].words == (("he", False), ("zz", True))


def test_commit_without_endpoints_is_one_whole_call_turn():
    tokens = [sub(100, "ka", 0), eow(150, 0)]
    turns = commit_transcript(tokens, [], 720)
    assert len(turns) == 1
    assert (turns[0].start_ms, turns[0].end_ms) == (0, 720)
    assert turns[0].words == (("ka", True),)


def test_commit_skips_trailing_turn_of_blanks():
    tokens = [sub(100, "ka", 0), eow(150, 0), blank(400), blank(440)]
    turns = commit_transcript(tokens, _eps([200]), 600)
    assert len(turns) == 1


def test_commit_rejects_unsorted_endpoints():
    with pytest.raises(ValueError, match="endpoints out of order"):
        commit_transcript([], _eps([400, 300]), 800)


def test_commit_rejects_unsorted_tokens():
    tokens = [sub(200, "ka", 0), sub(100, "zo", 0)]
    with pytest.raises(ValueError, match="first inversion at index 1"):
        commit_transcript(tokens, [], 800)


def test_commit_assigns_each_token_to_the_first_endpoint_at_or_after_it():
    # the reference: token t goes to turn bisect_left(boundaries, t), one
    # token at a time; ties of tokens with endpoints and of endpoints occur
    rng = random.Random(12)
    for case in range(1000):
        tokens = []
        for t in sorted(rng.randrange(0, 400, 20) for _ in range(rng.randint(0, 20))):
            kind = rng.choice(list(TokenKind))
            word = rng.choice([None, 0, 1, 2])
            tokens.append(TokenEvent(t, kind, "" if kind is TokenKind.BLANK else "ka", word))
        boundaries = sorted(rng.randrange(0, 420, 20) for _ in range(rng.randint(0, 5)))
        non_blank = [tok for tok in tokens if tok.kind is not TokenKind.BLANK]
        groups = [[] for _ in range(len(boundaries) + 1)]
        for tok in non_blank:
            groups[bisect_left(boundaries, tok.emit_time_ms)].append(tok)
        if boundaries and not groups[-1]:
            groups.pop()
        turns = commit_transcript(tokens, _eps(boundaries), 500)
        assert [t.words for t in turns] == [_words(g) for g in groups], f"case {case}"
        assert [t.end_ms for t in turns] == (boundaries + [500])[: len(groups)]


def test_hypothesis_words_flatten_in_turn_order():
    tokens = [
        sub(100, "ka", 0),
        eow(150, 0),
        sub(300, "zo", 1),
        eow(350, 1),
    ]
    turns = commit_transcript(tokens, _eps([200]), 800)
    assert hypothesis_words(turns) == ["ka", "zo"]


def test_commit_full_pipeline_matches_reference_under_ideal_conditions():
    # with no emission delay and oracle VAD, TS commits exactly the
    # reference words of every turn
    cfg = SimConfig(seed=9, n_turns=3, emission_delay=(0.0, 0.0, 0.0))
    call = gen_call(cfg)
    eps = run(Mode.TS, oracle_vad(call), call.tokens)
    turns = commit_transcript(call.tokens, eps, call.end_ms)
    ref = [w for seg in call.segments for w in seg.words]
    assert hypothesis_words(turns) == ref
