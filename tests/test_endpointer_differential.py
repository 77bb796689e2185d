"""Seeded random timelines through run_call and run_sweep.

Every endpoint that run_call produces over a few thousand random
timelines is serialized and hashed, one sha256 per mode.  The pinned
digests are the machine's current semantics: a refactor of step() must
leave every one of them unchanged.  The timelines cover dense and sparse
VAD, two VAD decisions at the same millisecond, tokens tied with frames
and with thresholds, tokens with and without word index, random delta,
deferral cap and blank run, and an EndOfStream stamped past the last
event.  run_sweep, given each timeline's VAD columns, its token
columns as a CallRecord holds them, and its end, must give run_call's
endpoints on the full timeline, and fail on the inputs that
merge_streams and run_call reject.  Its EOW-gated rules also refuse
decisions closer than a frame, such as two at one millisecond, so the
timelines it is compared on have none.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from oracles import token_columns

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
    SUBWORD_CODE,
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


def random_case(rng: random.Random, duplicates: bool = True):
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
        random_vad(rng, frame, n_frames, duplicates),
        random_tokens(rng, (n_frames + 2) * frame),
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


def token_args(tokens):
    """run_sweep's token arguments: the emit time and kind code columns of a CallRecord."""
    call = CallRecord("c", 40, **token_columns(tokens))
    return call.token_time, call.token_kind


def columns(timeline):
    """run_sweep's arguments after the configs, from a merged timeline.

    Its VAD columns, its token columns and its end.
    """
    vad = [ev.payload for ev in timeline if isinstance(ev.payload, VadDecision)]
    tokens = [ev.payload for ev in timeline if isinstance(ev.payload, TokenEvent)]
    times = np.array([d.time_ms for d in vad], dtype=np.int64)
    speech = np.array([d.is_speech for d in vad], dtype=bool)
    return times, speech, *token_args(tokens), timeline[-1].time_ms


def test_a_fire_pending_from_the_previous_run_can_release_an_interior_decision():
    # the fire of the run at 0 ms is pending when the run from 40 ms
    # completes delta there; it resolves silently at the EOW, so the
    # interior decision at 80 ms arms the endpoint the SUBWORD then meets.
    # Only decisions at one millisecond let a fire outlive its run, and
    # run_sweep refuses them
    cfg = EndpointerConfig(Mode.TS_AND_EOW, 40, 1, 1000, 40)
    times = [0, 0, 40, 80, 120, 160]
    speech = [False, True, False, False, False, False]
    tokens = token_args(
        [TokenEvent(60, TokenKind.EOW, "", 0), TokenEvent(90, TokenKind.SUBWORD, "ka", 1)]
    )
    want = [EndpointEvent(80, Trigger.TS_AND_EOW_IMMEDIATE, 40)]
    assert _merged_run(cfg, times, speech, *tokens, 160) == want
    with pytest.raises(ValueError, match="index 1 at 0 ms after 0 ms"):
        run_sweep([cfg], times, speech, *tokens, 160)


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
    shared_eow = 0
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng, duplicates=False)
        cfgs = sweep_configs(variants, cfg)
        want = [run_call(c, timeline) for c in cfgs]
        assert run_sweep(cfgs, *columns(timeline)) == want, f"case {case}: {cfgs}"
        if cfg.mode is Mode.EOW and len({c.ts_threshold_ms for c in cfgs}) > 1:
            shared_eow += 1
    assert shared_eow > 1000  # one EOW walk answered several deltas


def test_run_sweep_refuses_decisions_closer_than_a_frame():
    # the pinned digests' timelines: where two decisions share a
    # millisecond the EOW-gated rules raise, naming the second; TS and
    # BLANK still give run_call's endpoints
    rng = random.Random(20261018)
    refused = 0
    for case in range(N_TIMELINES):
        cfg, timeline = random_case(rng)
        times, *rest = columns(timeline)
        close = np.flatnonzero(np.diff(times) < cfg.frame_ms)
        if not close.size:
            continue
        k = int(close[0]) + 1
        for mode in (Mode.TS, Mode.BLANK):
            plain = replace(cfg, mode=mode)
            assert run_sweep([plain], times, *rest) == [run_call(plain, timeline)]
        for mode in (Mode.EOW, Mode.TS_AND_EOW):
            with pytest.raises(ValueError) as err:
                run_sweep([replace(cfg, mode=Mode.TS), replace(cfg, mode=mode)], times, *rest)
            assert str(err.value) == (
                f"vad times step by less than frame_ms={cfg.frame_ms}: "
                f"index {k} at {times[k]} ms after {times[k - 1]} ms"
            ), f"case {case}"
        refused += 1
    assert refused > 1000


def test_run_sweep_keeps_the_order_of_mixed_configs():
    rng = random.Random(20261018)
    order = random.Random(11)
    for case in range(300):
        cfg, timeline = random_case(rng, duplicates=False)
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


_KINDS = {BLANK_CODE: TokenKind.BLANK, SUBWORD_CODE: TokenKind.SUBWORD, EOW_CODE: TokenKind.EOW}


def _merged_run(cfg, times, speech, token_times, kinds, end_ms):
    """run_call over the timeline merge_streams builds from the columns."""
    tokens = [TokenEvent(t, _KINDS[k]) for t, k in zip(token_times, kinds)]
    timeline = merge_streams(list(map(VadDecision, times, speech)), tokens)
    timeline[-1] = TimelineEvent(end_ms, EndOfStream())
    return run_call(cfg, timeline)


# vad_times, is_speech, token_times, token_kinds, end_ms
REJECTED = {
    "out of order": ([0, 80, 40], [False, False, True], [20], [BLANK_CODE], 80),
    "unsorted tokens": ([0, 40], [False, False], [40, 20], [EOW_CODE, BLANK_CODE], 40),
    "after EndOfStream": ([0, 40], [False, False], [20], [BLANK_CODE], 20),
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
        run_sweep(cfgs, times, speech, [], [], 40)


@pytest.mark.parametrize("code", [-1, 3, 258])
def test_run_sweep_rejects_kind_codes_that_name_no_token_kind(code):
    # a code is read as SUBWORD or EOW only if it is one
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in MODES]
    with pytest.raises(ValueError, match=f"^token 1: kind code {code} names no token kind$"):
        run_sweep(cfgs, [0], [False], [20, 30], [EOW_CODE, code], 40)


@pytest.mark.parametrize(
    "token_times, kinds", [([0, 40], [BLANK_CODE]), ([0], [BLANK_CODE, BLANK_CODE])]
)
def test_run_sweep_rejects_token_columns_of_unequal_length(token_times, kinds):
    cfgs = [EndpointerConfig(mode, 40, 1, 40) for mode in MODES]
    with pytest.raises(ValueError, match="token columns differ"):
        run_sweep(cfgs, [0], [False], token_times, kinds, 40)
