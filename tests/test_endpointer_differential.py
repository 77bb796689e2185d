"""Seeded random timelines through run_call and run_sweep.

Every endpoint that run_call produces over a few thousand random
timelines is serialized and hashed, one sha256 per mode.  The pinned
digests are the machine's current semantics: a refactor of step() must
leave every one of them unchanged.  The timelines cover dense and sparse
VAD, two VAD decisions at the same millisecond, tokens tied with frames
and with thresholds, tokens with and without word index, random delta,
deferral cap and blank run, and an EndOfStream stamped past the last
event.  The EOW-gated modes give the same endpoints over run_sweep's
reduced timeline, and over any timeline that keeps more of the
decisions.  run_sweep, given each timeline's VAD columns, tokens and
end, must give run_call's endpoints on the full timeline, and fail on
the inputs that merge_streams and run_call reject.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from endpoint_rt.endpointer import (
    EndpointerConfig,
    EndpointEvent,
    Mode,
    Trigger,
    _deciding_frames,
    _nonspeech_runs,
    _reduced_timeline,
    run_call,
    run_sweep,
)
from endpoint_rt.streams import (
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


def random_vad(rng: random.Random, frame: int, n_frames: int) -> list[VadDecision]:
    """Alternating speech and nonspeech runs, or i.i.d. frames; maybe sparse."""
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
        if rng.random() < 0.05:
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


def random_case(rng: random.Random):
    frame = rng.choice([10, 20, 40])
    delta = frame * rng.randint(1, 12)
    cfg = EndpointerConfig(
        mode=rng.choice(MODES),
        ts_threshold_ms=delta,
        blank_run_frames=rng.randint(1, 6),
        deferral_cap_ms=delta + rng.choice([0, frame, 10 * rng.randint(0, 60)]),
        frame_ms=frame,
    )
    n_frames = rng.randint(0, 60)
    timeline = merge_streams(
        random_vad(rng, frame, n_frames), random_tokens(rng, (n_frames + 2) * frame)
    )
    if rng.random() < 0.3:
        end = timeline[-1].time_ms + rng.randint(1, 500)
        timeline[-1] = TimelineEvent(end, EndOfStream())
    return cfg, timeline


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


def columns(timeline):
    """A merged timeline's VAD columns, token stream and end time."""
    vad = [ev.payload for ev in timeline if isinstance(ev.payload, VadDecision)]
    tokens = [ev.payload for ev in timeline if isinstance(ev.payload, TokenEvent)]
    times = np.array([d.time_ms for d in vad], dtype=np.int64)
    speech = np.array([d.is_speech for d in vad], dtype=bool)
    return times, speech, tokens, timeline[-1].time_ms


def test_reduced_timelines_decide_as_the_full_ones():
    # run_sweep steps the EOW-gated machines over the kept decisions and
    # the non-BLANK tokens; this is the equality it rests on, for the kept
    # set and for random supersets of it
    rng = random.Random(20261018)  # the pinned digests' timelines
    more = random.Random(3)
    dropped = 0
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng)
        times, speech, tokens, end = columns(timeline)
        for mode in (Mode.EOW, Mode.TS_AND_EOW):
            gated = replace(cfg, mode=mode)
            want = run_call(gated, timeline)
            deltas = {(cfg.ts_threshold_ms, cfg.frame_ms)} if mode is Mode.TS_AND_EOW else ()
            kept = _deciding_frames(times, speech, _nonspeech_runs(times, speech), deltas)
            reduced = _reduced_timeline(times, speech, tokens, end, kept)
            assert run_call(gated, reduced) == want, f"case {case} {mode.value}"
            dropped += len(timeline) - len(reduced)
            share = more.random()
            wider = sorted(
                set(kept.tolist()) | {k for k in range(len(times)) if more.random() < share}
            )
            wider_tl = _reduced_timeline(times, speech, tokens, end, np.array(wider, dtype=int))
            assert run_call(gated, wider_tl) == want, f"case {case} {mode.value} {wider}"
    assert dropped > 20 * N_TIMELINES  # the reduction drops decisions and BLANK tokens


def crowded_case(rng: random.Random):
    """A TS_AND_EOW config and a timeline of 1-3 decisions of random flag per frame.

    Nonspeech runs then start within a frame of each other, so a fire of
    one run can still be pending when the next run completes its delta.
    """
    frame = rng.choice([10, 20, 40])
    delta = frame * rng.randint(1, 3)
    cfg = EndpointerConfig(Mode.TS_AND_EOW, delta, 1, delta + 10 * rng.randint(0, 20), frame)
    n_frames = rng.randint(0, 30)
    vad = [
        VadDecision(k * frame, rng.random() < 0.4)
        for k in range(n_frames)
        for _ in range(rng.randint(1, 3))
    ]
    timeline = merge_streams(vad, random_tokens(rng, (n_frames + 1) * frame))
    return cfg, timeline


def test_reduced_timelines_decide_as_the_full_ones_when_runs_crowd():
    rng = random.Random(29)
    for case in range(3000):
        cfg, timeline = crowded_case(rng)
        times, speech, tokens, end = columns(timeline)
        runs = _nonspeech_runs(times, speech)
        kept = _deciding_frames(times, speech, runs, {(cfg.ts_threshold_ms, cfg.frame_ms)})
        reduced = _reduced_timeline(times, speech, tokens, end, kept)
        want = run_call(cfg, timeline)
        assert run_call(cfg, reduced) == want, f"case {case}"
        assert run_sweep([cfg], times, speech, tokens, end) == [want], f"case {case}"


def test_a_fire_pending_from_the_previous_run_can_release_an_interior_decision():
    # the fire of the run at 0 ms is pending when the run from 40 ms
    # completes delta there; it resolves silently at the EOW, so the
    # interior decision at 80 ms arms the endpoint the SUBWORD then meets
    cfg = EndpointerConfig(Mode.TS_AND_EOW, 40, 1, 1000, 40)
    times = [0, 0, 40, 80, 120, 160]
    speech = [False, True, False, False, False, False]
    tokens = [TokenEvent(60, TokenKind.EOW, "", 0), TokenEvent(90, TokenKind.SUBWORD, "ka", 1)]
    want = [EndpointEvent(80, Trigger.TS_AND_EOW_IMMEDIATE, 40)]
    assert _merged_run(cfg, times, speech, tokens, 160) == want
    assert run_sweep([cfg], times, speech, tokens, 160) == [want]


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
    rng = random.Random(20261018)  # the pinned digests' timelines
    variants = random.Random(7)
    shared_eow = 0
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng)
        cfgs = sweep_configs(variants, cfg)
        want = [run_call(c, timeline) for c in cfgs]
        assert run_sweep(cfgs, *columns(timeline)) == want, f"case {case}: {cfgs}"
        if cfg.mode is Mode.EOW and len({c.ts_threshold_ms for c in cfgs}) > 1:
            shared_eow += 1
    assert shared_eow > 1000  # one EOW run_call answered several deltas


def test_run_sweep_keeps_the_order_of_mixed_configs():
    rng = random.Random(20261018)
    order = random.Random(11)
    for case in range(300):
        cfg, timeline = random_case(rng)
        cfgs = [
            EndpointerConfig(mode, delta, blanks, delta + cfg.frame_ms, cfg.frame_ms)
            for mode in MODES
            for delta, blanks in ((cfg.frame_ms, 1), (cfg.ts_threshold_ms, 3))
        ]
        # a run length past int64: run_call finds no such run, nor may run_sweep
        cfgs.append(replace(cfg, mode=Mode.BLANK, blank_run_frames=2**63))
        order.shuffle(cfgs)
        want = [run_call(c, timeline) for c in cfgs]
        assert run_sweep(cfgs, *columns(timeline)) == want, f"case {case}: {cfgs}"


def _merged_run(cfg, times, speech, tokens, end_ms):
    """run_call over the timeline merge_streams builds from the columns."""
    timeline = merge_streams(list(map(VadDecision, times, speech)), tokens)
    timeline[-1] = TimelineEvent(end_ms, EndOfStream())
    return run_call(cfg, timeline)


_BLANK_20 = TokenEvent(20, TokenKind.BLANK)

# vad_times, is_speech, tokens, end_ms
REJECTED = {
    "out of order": ([0, 80, 40], [False, False, True], [_BLANK_20], 80),
    "unsorted tokens": ([0, 40], [False, False], [TokenEvent(40, TokenKind.EOW), _BLANK_20], 40),
    "after EndOfStream": ([0, 40], [False, False], [_BLANK_20], 20),
    "unknown payload": ([0, 40], [False, True], [_BLANK_20, VadDecision(40, True)], 40),
}


def _error(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    pytest.fail(f"{fn.__name__} accepted the columns")


@pytest.mark.parametrize("name", sorted(REJECTED))
@pytest.mark.parametrize(
    "modes", [[m] for m in MODES] + [MODES], ids=lambda ms: "+".join(m.value for m in ms)
)
def test_run_sweep_rejects_what_run_call_rejects(name, modes):
    columns = REJECTED[name]
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in modes]
    want = _error(_merged_run, cfgs[0], *columns)
    assert all(_error(_merged_run, c, *columns) == want for c in cfgs)
    assert _error(run_sweep, cfgs, *columns) == want


@pytest.mark.parametrize("times, speech", [([0, 40], [False]), ([0], [True, False])])
def test_run_sweep_rejects_columns_of_unequal_length(times, speech):
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in MODES]
    with pytest.raises(ValueError, match="vad columns differ"):
        run_sweep(cfgs, times, speech, [], 40)
