"""Seeded random timelines through run_call and run_sweep.

Every endpoint that run_call produces over a few thousand random
timelines is serialized and hashed, one sha256 per mode.  The pinned
digests are the machine's current semantics: a refactor of step() must
leave every one of them unchanged.  The timelines cover dense and sparse
VAD, two VAD decisions at the same millisecond, tokens tied with frames
and with thresholds, tokens with and without word index, random delta,
deferral cap and blank run, and an EndOfStream stamped past the last
event.  The EOW-gated modes give the same endpoints with the BLANK
tokens dropped.  run_sweep must give run_call's endpoints on the same
timelines, and fail as run_call fails on timelines it rejects.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from endpoint_rt.endpointer import (
    EndpointerConfig,
    Mode,
    Trigger,
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


def _is_blank(payload) -> bool:
    return isinstance(payload, TokenEvent) and payload.kind is TokenKind.BLANK


def test_eow_gated_modes_ignore_blank_tokens_on_random_timelines():
    # run_sweep steps the EOW-gated machines over the timeline without its
    # BLANK tokens; this is the equality it rests on
    rng = random.Random(20261018)  # the pinned digests' timelines
    dropped = 0
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng)
        heard = [ev for ev in timeline if not _is_blank(ev.payload)]
        dropped += len(timeline) - len(heard)
        for mode in (Mode.EOW, Mode.TS_AND_EOW):
            gated = replace(cfg, mode=mode)
            assert run_call(gated, heard) == run_call(gated, timeline), f"case {case}"
    assert dropped > N_TIMELINES  # the timelines hold BLANK tokens to drop


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
        assert run_sweep(cfgs, timeline) == want, f"case {case}: {cfgs}"
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
        order.shuffle(cfgs)
        want = [run_call(c, timeline) for c in cfgs]
        assert run_sweep(cfgs, timeline) == want, f"case {case}: {cfgs}"


def _vad(t: int, speech: bool) -> TimelineEvent:
    return TimelineEvent(t, VadDecision(t, speech))


REJECTED = {
    "out of order": [
        _vad(0, False),
        _vad(80, False),
        _vad(40, True),
        TimelineEvent(80, EndOfStream()),
    ],
    "after EndOfStream": [_vad(0, False), TimelineEvent(0, EndOfStream()), _vad(40, False)],
    "unknown payload": [
        _vad(0, False),
        TimelineEvent(20, TokenEvent(20, TokenKind.BLANK)),
        TimelineEvent(40, "speech"),
        TimelineEvent(40, EndOfStream()),
    ],
}


def _error(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    pytest.fail(f"{fn.__name__} accepted the timeline")


@pytest.mark.parametrize("name", sorted(REJECTED))
@pytest.mark.parametrize(
    "modes", [[m] for m in MODES] + [MODES], ids=lambda ms: "+".join(m.value for m in ms)
)
def test_run_sweep_rejects_what_run_call_rejects(name, modes):
    timeline = REJECTED[name]
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in modes]
    want = _error(run_call, cfgs[0], timeline)
    assert all(_error(run_call, c, timeline) == want for c in cfgs)
    assert _error(run_sweep, cfgs, timeline) == want
