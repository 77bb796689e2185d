"""Seeded random timelines through run_call and run_sweep.

Every endpoint that run_call produces over a few thousand random
timelines is serialized and hashed, one sha256 per mode.  The pinned
digests are the machine's current semantics: a refactor of step() must
leave every one of them unchanged.  The timelines cover dense and sparse
VAD, two VAD decisions at the same millisecond, tokens tied with frames
and with thresholds, tokens with and without word index, random delta,
deferral cap and blank run, and an EndOfStream stamped past the last
event.  run_sweep, given a CallRecord with a frame at each of a
timeline's VAD decisions and its tokens, and the decisions' flags, must
give run_call's endpoints on the timeline ended where merge_streams ends
it, at the last event.  It is compared on the timelines a call can
hold: no two decisions at one millisecond, and every token in [0,
end_ms], some after the last decision.  What merge_streams and run_call
reject, no CallRecord holds.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from oracles import sweep_call

from endpoint_rt.endpointer import (
    EndpointerConfig,
    EndpointEvent,
    Mode,
    Trigger,
    run_call,
    run_sweep,
)
from endpoint_rt.streams import (
    BLANK_CODE,
    EOW_CODE,
    CallRecord,
    EndOfStream,
    TimelineEvent,
    TokenEvent,
    TokenKind,
    VadDecision,
    merge_streams,
)

N_TIMELINES = 6000
MODES = list(Mode)

# sha256 of the serialized endpoints of every timeline, per mode
PINNED = {
    Mode.BLANK: "e75b9b91d6e19044e4caa7c09d97738df84704fffcfe0a871da7f5b1f8f227fb",
    Mode.TS: "c933021bdd7847d5816b966bc55b389e1c457756f5af770df06f0fce8882c767",
    Mode.EOW: "3ad68afcabbb7fb71496ef23a3725fd1fc56c90dd2b4c5a71d5404d579b9e08a",
    Mode.TS_AND_EOW: "dc5d5c6e4b82804bdbd29b875faafd6a43ee1ee82f1e4362f9bc19daf26cbc89",
}


def random_vad(
    rng: random.Random, frame: int, n_frames: int, duplicates: bool = True
) -> list[VadDecision]:
    """Alternating speech and nonspeech runs, or i.i.d. frames; maybe sparse.

    With ``duplicates`` a decision is now and then followed by a second
    one at the same millisecond.
    """
    keep = 1.0 if rng.random() < 0.5 else rng.uniform(0.05, 0.8)
    iid = rng.random() < 0.2
    speech = rng.random() < 0.5
    left = rng.randint(1, 15)
    out = []
    for k in range(n_frames):
        if iid:
            speech = rng.random() < 0.5
        elif left == 0:
            speech = not speech
            left = rng.randint(1, 15)
        left -= 1
        if rng.random() >= keep:
            continue
        out.append(VadDecision(k * frame, speech))
        if duplicates and rng.random() < 0.05:
            again = rng.random() < 0.5
            out.append(VadDecision(k * frame, again))
    return out


def random_tokens(rng: random.Random, horizon: int) -> list[TokenEvent]:
    """BLANK, SUBWORD and EOW tokens on a 10 ms grid, so they tie with frames."""
    n = rng.randint(0, max(1, horizon // 40))
    p_blank = rng.random()
    word = 0
    out = []
    for t in sorted(rng.randrange(0, horizon + 1, 10) for _ in range(n)):
        if rng.random() < p_blank:
            out.append(TokenEvent(t, TokenKind.BLANK))
            continue
        kind = TokenKind.EOW if rng.random() < 0.4 else TokenKind.SUBWORD
        wi = word if rng.random() < 0.8 else None
        out.append(TokenEvent(t, kind, "ka" if kind is TokenKind.SUBWORD else "", wi))
        if kind is TokenKind.EOW:
            word += 1
    return out


def random_config(rng: random.Random) -> EndpointerConfig:
    frame = rng.choice([10, 20, 40])
    delta = frame * rng.randint(1, 12)
    return EndpointerConfig(
        mode=rng.choice(MODES),
        ts_threshold_ms=delta,
        blank_run_frames=rng.randint(1, 6),
        deferral_cap_ms=delta + rng.choice([0, frame, 10 * rng.randint(0, 60)]),
        frame_ms=frame,
    )


def random_case(rng: random.Random):
    cfg = random_config(rng)
    frame = cfg.frame_ms
    n_frames = rng.randint(0, 60)
    timeline = merge_streams(
        random_vad(rng, frame, n_frames),
        random_tokens(rng, (n_frames + 2) * frame),
    )
    if rng.random() < 0.3:
        end = timeline[-1].time_ms + rng.randint(1, 500)
        timeline[-1] = TimelineEvent(end, EndOfStream())
    return cfg, timeline


def sweep_case(rng: random.Random):
    """A config and a timeline a call can hold, for run_sweep.

    No two decisions share a millisecond, and every token lies in [0,
    end_ms] of the call sweep_args builds: the end of the last decision's
    frame, or 0 without decisions.  So a token may follow the last
    decision.
    """
    cfg = random_config(rng)
    frame = cfg.frame_ms
    vad = random_vad(rng, frame, rng.randint(0, 60), duplicates=False)
    end_ms = vad[-1].time_ms + frame if vad else 0
    return cfg, merge_streams(vad, random_tokens(rng, end_ms))


def run_all():
    rng = random.Random(20261018)
    digests = {mode: hashlib.sha256() for mode in MODES}
    triggers: Counter = Counter()
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng)
        eps = run_call(cfg, timeline)
        triggers.update(ep.trigger for ep in eps)
        line = ";".join(
            f"{ep.time_ms},{ep.trigger.value},{ep.silence_start_ms},{ep.deferred_by_ms}"
            for ep in eps
        )
        digests[cfg.mode].update(f"{case}:{line}\n".encode())
    return {mode: h.hexdigest() for mode, h in digests.items()}, triggers


def test_run_call_matches_pinned_digests_on_random_timelines():
    digests, triggers = run_all()
    assert set(triggers) == set(Trigger), f"triggers seen: {dict(triggers)}"
    assert digests == PINNED


def sweep_args(timeline, frame):
    """run_sweep's call and flags, from a merged timeline on a ``frame`` ms grid.

    The call has a frame at each VAD decision and the timeline's tokens.
    """
    vad = [ev.payload for ev in timeline if isinstance(ev.payload, VadDecision)]
    tokens = [ev.payload for ev in timeline if isinstance(ev.payload, TokenEvent)]
    return sweep_call(frame, vad, tokens)


def ended_at_last_event(timeline):
    """The timeline with its EndOfStream where merge_streams stamps it."""
    end = timeline[-2].time_ms if len(timeline) > 1 else 0
    return [*timeline[:-1], TimelineEvent(end, EndOfStream())]


def test_a_fire_pending_from_the_previous_run_can_release_an_interior_decision():
    # the fire of the run at 0 ms is pending when the run from 40 ms
    # completes delta there; it resolves silently at the EOW, so the
    # interior decision at 80 ms arms the endpoint the SUBWORD then meets.
    # Only decisions at one millisecond let a fire outlive its run, and no
    # call, so no input of run_sweep, holds them
    cfg = EndpointerConfig(Mode.TS_AND_EOW, 40, 1, 1000, 40)
    times = [0, 0, 40, 80, 120, 160]
    speech = [False, True, False, False, False, False]
    tokens = [TokenEvent(60, TokenKind.EOW, "", 0), TokenEvent(90, TokenKind.SUBWORD, "ka", 1)]
    decisions = list(map(VadDecision, times, speech))
    want = [EndpointEvent(80, Trigger.TS_AND_EOW_IMMEDIATE, 40)]
    assert run_call(cfg, merge_streams(decisions, tokens)) == want
    with pytest.raises(ValueError, match="^c: frame 1: frame index 0 does not follow previous 0$"):
        sweep_call(40, decisions, tokens)


def sweep_configs(rng: random.Random, cfg: EndpointerConfig) -> list[EndpointerConfig]:
    """cfg and 1-3 more of its mode and frame, with other delta, cap and blank run."""
    cfgs = [cfg]
    for _ in range(rng.randint(1, 3)):
        delta = cfg.frame_ms * rng.randint(1, 12)
        cfgs.append(
            EndpointerConfig(
                mode=cfg.mode,
                ts_threshold_ms=delta,
                blank_run_frames=rng.randint(1, 6),
                deferral_cap_ms=delta + rng.choice([0, cfg.frame_ms, 10 * rng.randint(0, 60)]),
                frame_ms=cfg.frame_ms,
            )
        )
    return cfgs


def test_run_sweep_matches_run_call_on_random_timelines():
    rng = random.Random(20261018)
    variants = random.Random(7)
    shared_eow = tokens_after_decisions = 0
    for case in range(N_TIMELINES):
        cfg, timeline = sweep_case(rng)
        cfgs = sweep_configs(variants, cfg)
        want = [run_call(c, ended_at_last_event(timeline)) for c in cfgs]
        got = run_sweep(cfgs, *sweep_args(timeline, cfg.frame_ms))
        assert got == want, f"case {case}: {cfgs}"
        if cfg.mode is Mode.EOW and len({c.ts_threshold_ms for c in cfgs}) > 1:
            shared_eow += 1
        # a token after the last decision ends the stream
        decided = [ev.time_ms for ev in timeline if isinstance(ev.payload, VadDecision)]
        if decided and timeline[-2].time_ms > decided[-1]:
            tokens_after_decisions += 1
    assert shared_eow > 1000  # one EOW walk answered several deltas
    assert tokens_after_decisions > 1000


def test_run_sweep_refuses_decisions_closer_than_a_frame():
    # the pinned digests' timelines: where two decisions share a
    # millisecond, the call that would carry them to run_sweep is refused,
    # naming the second
    rng = random.Random(20261018)
    refused = 0
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng)
        times = [ev.time_ms for ev in timeline if isinstance(ev.payload, VadDecision)]
        k = next((k for k in range(1, len(times)) if times[k] == times[k - 1]), None)
        if k is None:
            continue
        index = times[k] // cfg.frame_ms
        with pytest.raises(ValueError) as err:
            sweep_args(timeline, cfg.frame_ms)
        assert str(err.value) == (
            f"c: frame {k}: frame index {index} does not follow previous {index}"
        ), f"case {case}"
        refused += 1
    assert refused > 1000


def test_run_sweep_keeps_the_order_of_mixed_configs():
    rng = random.Random(20261018)
    order = random.Random(11)
    for case in range(300):
        cfg, timeline = sweep_case(rng)
        cfgs = [
            EndpointerConfig(mode, delta, blanks, delta + cfg.frame_ms, cfg.frame_ms)
            for mode in MODES
            for delta, blanks in ((cfg.frame_ms, 1), (cfg.ts_threshold_ms, 3))
        ]
        # a run length past int64: run_call finds no such run, nor may run_sweep
        cfgs.append(replace(cfg, mode=Mode.BLANK, blank_run_frames=2**63))
        order.shuffle(cfgs)
        want = [run_call(c, ended_at_last_event(timeline)) for c in cfgs]
        got = run_sweep(cfgs, *sweep_args(timeline, cfg.frame_ms))
        assert got == want, f"case {case}: {cfgs}"


def test_each_config_of_a_sweep_gets_a_list_of_its_own():
    # one EOW walk answers every EOW config, whatever its delta
    decisions = [VadDecision(t, t < 80) for t in range(0, 400, 40)]
    tokens = [TokenEvent(60, TokenKind.SUBWORD, "ka", 0), TokenEvent(100, TokenKind.EOW, "", 0)]
    call, speech = sweep_call(40, decisions, tokens)
    cfgs = [EndpointerConfig(Mode.EOW, delta, 1, delta, 40) for delta in (40, 80)]
    first, second = run_sweep(cfgs, call, speech)
    assert first == second == [EndpointEvent(120, Trigger.EOW, 80)]
    first.append(first[0])
    assert second == [EndpointEvent(120, Trigger.EOW, 80)]


def test_run_sweep_reads_no_flags_when_every_config_is_blank():
    rng = random.Random(20261018)
    for case in range(300):
        cfg, timeline = sweep_case(rng)
        call, speech = sweep_args(timeline, cfg.frame_ms)
        blank = replace(cfg, mode=Mode.BLANK)
        assert run_sweep([blank], call) == [run_call(blank, timeline)], f"case {case}"
        for mode in (Mode.TS, Mode.EOW, Mode.TS_AND_EOW):
            with pytest.raises(ValueError, match="^is_speech is None, but a config other"):
                run_sweep([blank, replace(cfg, mode=mode)], call)


@pytest.mark.parametrize("modes", [[Mode.BLANK], MODES], ids=["BLANK", "all"])
def test_run_sweep_refuses_a_config_off_the_calls_frame_grid(modes):
    call, speech = sweep_call(40, [VadDecision(0, False), VadDecision(40, False)], [])
    cfgs = [EndpointerConfig(mode, 40, 1, 40, frame_ms=40) for mode in modes]
    cfgs.append(replace(cfgs[-1], ts_threshold_ms=80, deferral_cap_ms=80, frame_ms=20))
    flags = None if modes == [Mode.BLANK] else speech
    with pytest.raises(ValueError) as err:
        run_sweep(cfgs, call, flags)
    assert str(err.value) == "c: call frame_ms=40 does not match configured frame_ms=20"


# frame times, speech flags and tokens that merge_streams rejects, and the
# refusal of the call that would carry them to run_sweep
REJECTED = {
    "out of order": (
        [0, 80, 40], [False, False, True], [TokenEvent(20, TokenKind.BLANK)],
        "c: frame 2: frame index 1 does not follow previous 2",
    ),
    "unsorted tokens": (
        [0, 40], [False, False], [TokenEvent(40, TokenKind.EOW), TokenEvent(20, TokenKind.BLANK)],
        "c: token 1: emit time 20 precedes previous 40",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
@pytest.mark.parametrize(
    "modes", [[m] for m in MODES] + [MODES], ids=lambda ms: "+".join(m.value for m in ms)
)
def test_run_sweep_rejects_what_run_call_rejects(name, modes):
    times, speech, tokens, refusal = REJECTED[name]
    decisions = list(map(VadDecision, times, speech))
    for cfg in (EndpointerConfig(mode, 40, 1, 40) for mode in modes):
        with pytest.raises(ValueError, match="stream unsorted: first inversion at index"):
            run_call(cfg, merge_streams(decisions, tokens))
    with pytest.raises(ValueError) as err:
        sweep_call(40, decisions, tokens)
    assert str(err.value) == refusal


@pytest.mark.parametrize("times, speech", [([0, 40], [False]), ([0], [True, False])])
def test_run_sweep_rejects_columns_of_unequal_length(times, speech):
    # the flags must be one per frame of the call
    call, _ = sweep_call(40, [VadDecision(t, False) for t in times], [])
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in MODES]
    with pytest.raises(ValueError) as err:
        run_sweep(cfgs, call, speech)
    assert str(err.value) == (
        f"c: is_speech has shape ({len(speech)},), "
        f"expected one flag for each of {len(times)} frames"
    )


# run_sweep reads the token columns of a CallRecord, which refuses what
# run_sweep once checked itself: codes naming no token kind (run_sweep
# would read them as SUBWORD) and token columns of unequal length


@pytest.mark.parametrize("code", [-1, 3, 258])
def test_run_sweep_rejects_kind_codes_that_name_no_token_kind(code):
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in MODES]
    refused = "^c: (token_kind holds a value outside int8|token 1: bad token_kind code)$"
    with pytest.raises(ValueError, match=refused):
        run_sweep(cfgs, CallRecord("c", 40, **_tokens([0, 0], [EOW_CODE, code])), [])


@pytest.mark.parametrize(
    "token_times, kinds", [([0, 40], [BLANK_CODE]), ([0], [BLANK_CODE, BLANK_CODE])]
)
def test_run_sweep_rejects_token_columns_of_unequal_length(token_times, kinds):
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in MODES]
    with pytest.raises(ValueError, match="^c: token_kind has shape"):
        run_sweep(cfgs, CallRecord("c", 40, **_tokens(token_times, kinds)), [])


def _tokens(times, kinds):
    """Token column keywords: these times and kind codes, with no word or text."""
    return {
        "token_time": times,
        "token_kind": kinds,
        "token_word": [-1] * len(times),
        "token_text": [""] * len(times),
    }
