"""Acceptance gate: nine behavioral criteria, one pass/fail line each.

Every test here drives the package through its public API against
independently computed expectations (closed-form arithmetic, hand-built
timelines, or the brute-force oracles in oracles.py) and prints a single
``criterion N: PASS/FAIL`` line with the measured numbers.  Each criterion
also carries a wall-clock budget that the test enforces.
"""

import time

import numpy as np
import pytest

from oracles import (
    brute_edit_counts,
    brute_eer,
    enumerate_det_points,
    exhaustive_match,
    maximal_nonspeech_runs,
)

from endpoint_rt import callfile, vadnet
from endpoint_rt.endpointer import (
    EndpointerConfig,
    EndpointEvent,
    Mode,
    Trigger,
    commit_transcript,
    new_endpointer,
    run_call,
)
from endpoint_rt.evaluator import (
    CallScore,
    EvalConfig,
    align_events,
    pool_scores,
    score_runs,
    wer,
)
from endpoint_rt.simulator import (
    SimConfig,
    corrupt_speech,
    gen_call,
    oracle_speech,
    oracle_vad,
)
from endpoint_rt.streams import (
    TokenEvent,
    TokenKind,
    VadDecision,
    merge_streams,
)
from endpoint_rt.vadnet import TrainConfig

FRAME_MS = 40
EVAL_CFG = EvalConfig(ts_threshold_ms=200, tolerance_ms=200)


def _finish(n: int, t0: float, budget_s: float, ok: bool, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s] {detail}"
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget_s, f"criterion {n}: took {elapsed:.2f}s, budget {budget_s}s"


# ---------------------------------------------------------------------------
# shared corpora


def _corpus_config(seed: int) -> SimConfig:
    """Calls with noticeable token delay (mean 300 ms) and clear silences."""
    return SimConfig(
        seed=seed,
        n_turns=6,
        turn_dur_ms=(1200, 2600),
        gap_dur_ms=(1000, 2000),
        word_dur_ms=(500, 800),
        pause_dur_ms=(40, 120),
        subwords_per_word=(4, 6),
        emission_delay=(300.0, 100.0, 600.0),
        feature_dim=4,
        frame_ms=FRAME_MS,
    )


@pytest.fixture(scope="module")
def corpus():
    return [gen_call(_corpus_config(1000 + k)) for k in range(50)]


@pytest.fixture(scope="module")
def oracle_timelines(corpus):
    return {
        call.call_id: merge_streams(oracle_vad(call), list(call.tokens))
        for call in corpus
    }


@pytest.fixture(scope="module")
def corrupted_timelines(corpus):
    """Merged timelines under decision noise, keyed by (flip rate, call)."""
    out = {}
    for rate in (0.105, 0.182):
        for call in corpus:
            seed = int(call.call_id.split("-")[1])
            speech = corrupt_speech(oracle_speech(call), rate, seed)
            noisy = list(map(VadDecision, call.frame_times.tolist(), speech.tolist()))
            out[(rate, call.call_id)] = merge_streams(noisy, list(call.tokens))
    return out


@pytest.fixture(scope="module")
def small_pool():
    """Two-turn calls for the invariant sweeps: (call, decisions, timeline)."""
    pool = []
    for k in range(200):
        cfg = SimConfig(
            seed=5000 + k,
            n_turns=2,
            turn_dur_ms=(800, 1600),
            gap_dur_ms=(1000, 1600),
            emission_delay=(120.0, 60.0, 300.0),
            feature_dim=3,
            teacher_flip_prob=0.1,
            frame_ms=FRAME_MS,
        )
        call = gen_call(cfg)
        decisions = oracle_vad(call)
        pool.append((call, decisions, merge_streams(decisions, list(call.tokens))))
    return pool


def _sweep_cfg(mode: Mode, delta_ms: int) -> EndpointerConfig:
    """Per-mode endpointer config for one operating point of a sweep."""
    if mode is Mode.BLANK:
        return EndpointerConfig(
            mode, blank_run_frames=max(1, delta_ms // FRAME_MS), frame_ms=FRAME_MS
        )
    return EndpointerConfig(
        mode,
        ts_threshold_ms=delta_ms,
        deferral_cap_ms=max(1000, delta_ms),
        frame_ms=FRAME_MS,
    )


def _pool_corpus(corpus, timeline_for, ep_cfg, eval_cfg):
    """Endpoint + commit + score every call; returns (report, per-call dict)."""
    scores = []
    per_call = {}
    for call in corpus:
        endpoints = run_call(ep_cfg, timeline_for(call))
        transcripts = commit_transcript(call.tokens, endpoints, call.end_ms)
        scores.extend(score_runs(call, [(endpoints, eval_cfg)]))
        per_call[call.call_id] = (endpoints, transcripts)
    return pool_scores(scores), per_call


# ---------------------------------------------------------------------------
# criterion 1: the F1 identity on five published (P, R) pairs
#
# The published precision, recall and F1 are each rounded to 0.1 point, and
# the published F1 was formed from the unrounded P and R. So the true P and R
# lie anywhere in P +/- 0.05 and R +/- 0.05 (in percent), and the expectation
# is an interval, not one point. F1 = 2PR/(P+R) is increasing in both P and
# R, so over that box it runs from its value at the low corner to its value
# at the high corner; scoring just those two corners gives the whole range.
# A pair passes when that range meets the published F1's own rounding
# interval [F1 - 0.05, F1 + 0.05]. The results table is not at hand to say
# whether the published F1 was rounded or truncated; both readings fit all
# five pairs, and round-to-nearest is assumed here, as for P and R. A wrong
# formula misses by points, not hundredths: on (33.6, 76.2) the geometric
# mean gives 50.6 and the arithmetic mean 54.9 against a published 46.6.


def _pooled(p: int, r: int, denom: int):
    """Pool integer counts whose precision/recall are exactly p/denom, r/denom.

    hits/(hits+fa) = p/denom and hits/(hits+miss) = r/denom.
    """
    hits = p * r
    false_alarms = r * (denom - p)
    misses = p * (denom - r)
    report = pool_scores([CallScore(hits, misses, false_alarms, (), 0, 0, 0, 0)])
    assert abs(report.precision - p / denom) < 1e-12
    assert abs(report.recall - r / denom) < 1e-12
    return report


def test_f1_identity_on_reference_pairs():
    t0 = time.perf_counter()
    # (precision per-mille, recall per-mille, expected F1 in percent)
    pairs = [
        (336, 762, 46.6),
        (341, 774, 47.3),
        (754, 830, 79.0),
        (814, 656, 72.6),
        (875, 627, 73.0),
    ]
    failures = 0
    ranges = []
    for p_pm, r_pm, want_f1 in pairs:
        # The rounded centre itself pools to exactly p/1000 and r/1000.
        _pooled(p_pm, r_pm, 1000)
        # Corners of the rounding box over a denominator of 2000:
        # (2p -/+ 1)/2000 is p/1000 -/+ 0.05 point.
        lo = 100.0 * _pooled(2 * p_pm - 1, 2 * r_pm - 1, 2000).f1
        hi = 100.0 * _pooled(2 * p_pm + 1, 2 * r_pm + 1, 2000).f1
        want_lo, want_hi = want_f1 - 0.05, want_f1 + 0.05
        span = (
            f"({p_pm / 10:.1f},{r_pm / 10:.1f})->[{lo:.3f}, {hi:.3f}] "
            f"published [{want_lo:.2f}, {want_hi:.2f}]"
        )
        miss = "below" if hi < want_lo else "above" if lo > want_hi else ""
        if miss:
            failures += 1
            span += f" MISS: {miss}"
        ranges.append(span)
    detail = (
        f"f1 range meets the published interval on {len(pairs) - failures}/"
        f"{len(pairs)} pairs: {'; '.join(ranges)}"
    )
    _finish(1, t0, 1.0, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 2: the three blank-run failure timelines


def _fill_blanks(tokens, total_ms, frame_ms=FRAME_MS):
    """Add a BLANK token at the start of every frame no token occupies."""
    occupied = {t.emit_time_ms // frame_ms for t in tokens if t.emit_time_ms < total_ms}
    out = list(tokens)
    for k in range(total_ms // frame_ms):
        if k not in occupied:
            out.append(TokenEvent(k * frame_ms, TokenKind.BLANK))
    return sorted(out, key=lambda t: t.emit_time_ms)


def _word(times, texts, word_index, eow_ms):
    toks = [
        TokenEvent(t, TokenKind.SUBWORD, text, word_index)
        for t, text in zip(times, texts)
    ]
    toks.append(TokenEvent(eow_ms, TokenKind.EOW, "", word_index))
    return toks


def _blank_run_endpoints(tokens, total_ms):
    cfg = EndpointerConfig(Mode.BLANK, blank_run_frames=6, frame_ms=FRAME_MS)
    timeline = merge_streams([], _fill_blanks(tokens, total_ms))
    return run_call(cfg, timeline)


def test_blank_run_failure_timelines():
    t0 = time.perf_counter()
    texts = ["ka", "zo", "mi", "ta", "ne", "ru"]
    problems = []

    def check(name, cond, msg=""):
        if not cond:
            problems.append(f"{name}: {msg}")

    # --- timeline 1: a false endpoint fires before a delayed word arrives.
    w1 = _word([100, 250, 400, 550, 700, 860], texts, 0, 900)
    w2_clean = _word([1000, 1160, 1320, 1480, 1640, 1800], texts, 1, 2000)
    w2_late = _word([1340, 1450, 1560, 1670, 1780, 1890], texts, 1, 2000)
    clean = _blank_run_endpoints(w1 + w2_clean, 2600)
    late = _blank_run_endpoints(w1 + w2_late, 2600)
    check("t1 clean", [e.time_ms for e in clean] == [2240], f"{clean}")
    check("t1 late", [e.time_ms for e in late] == [1120, 2240], f"{late}")
    check("t1 order", late[0].time_ms < 1340, "false endpoint not before the word")
    matching = align_events([2000], late, EvalConfig(240, 200))
    hit_false = (len(matching.pairs), len(matching.unmatched_hyps))
    check("t1 match", hit_false == (1, 1), f"{matching}")

    # --- timeline 2: a delayed word-end token splits the silence between
    # two turns into sub-runs too short to fire: the endpoint is missed.
    turn1 = _word([100, 260, 420, 580, 700, 800], texts, 0, 840)
    turn1_late = _word([100, 260, 420, 580, 700, 800], texts, 0, 1040)
    turn2 = _word([1280, 1440, 1600, 1760, 1920, 2040], texts, 1, 2080)
    clean = _blank_run_endpoints(turn1 + turn2, 2600)
    late = _blank_run_endpoints(turn1_late + turn2, 2600)
    check("t2 clean", [e.time_ms for e in clean] == [1080, 2320], f"{clean}")
    check("t2 late", [e.time_ms for e in late] == [2320], f"{late}")
    matching = align_events([840, 2080], late, EvalConfig(240, 200))
    hit_miss = (len(matching.pairs), len(matching.unmatched_refs))
    check("t2 match", hit_miss == (1, 1), f"{matching}")

    # --- timeline 3: delaying the final word delays its endpoint by
    # exactly the token delay.
    head = _word([100, 260, 420, 580, 700], texts[:5], 0, 800)
    tail_clean = _word([840, 960, 1080, 1200, 1320, 1400], texts, 1, 1440)
    tail_late = _word([1040, 1160, 1280, 1400, 1520, 1600], texts, 1, 1640)
    clean = _blank_run_endpoints(head + tail_clean, 2600)
    late = _blank_run_endpoints(head + tail_late, 2600)
    check("t3 clean", [e.time_ms for e in clean] == [1680], f"{clean}")
    check("t3 late", [e.time_ms for e in late] == [1880], f"{late}")
    matching = align_events([1440], late, EvalConfig(240, 200))
    check("t3 latency", [p[2] for p in matching.pairs] == [440], f"{matching}")
    detail = "false/missed/delayed endpoints at the constructed times" + (
        f"; problems: {problems}" if problems else ""
    )
    _finish(2, t0, 1.0, not problems, detail)


# ---------------------------------------------------------------------------
# criterion 3: immediate vs deferred combined-gate firing, exact times


def test_combined_gate_immediate_and_deferred_times():
    t0 = time.perf_counter()
    cfg = EndpointerConfig(
        Mode.TS_AND_EOW, ts_threshold_ms=200, deferral_cap_ms=1000, frame_ms=FRAME_MS
    )
    # Speech through 360 ms, then one long nonspeech run from 400 ms on.
    vad = [
        VadDecision(k * FRAME_MS, k < 10)
        for k in range(51)
    ]
    trigger_ms = 400 + 200  # run start + threshold
    deadline_ms = 400 + 1000  # run start + deferral cap

    sweep = sorted(set(range(60, 1661, 8)) | {600, 1400})
    failures = []
    for eow_ms in sweep:
        tokens = [
            TokenEvent(50, TokenKind.SUBWORD, "ka", 0),
            TokenEvent(eow_ms, TokenKind.EOW, "", 0),
        ]
        if eow_ms <= trigger_ms:
            want = EndpointEvent(trigger_ms, Trigger.TS_AND_EOW_IMMEDIATE, 400, 0)
        elif eow_ms <= deadline_ms:
            want = EndpointEvent(
                eow_ms, Trigger.TS_AND_EOW_DEFERRED, 400, eow_ms - trigger_ms
            )
        else:
            want = EndpointEvent(
                deadline_ms, Trigger.DEFERRAL_TIMEOUT, 400, deadline_ms - trigger_ms
            )
        got = run_call(cfg, merge_streams(vad, tokens))
        if got != [want]:
            failures.append(f"eow@{eow_ms}: got {got}, want [{want}]")
    detail = f"{len(sweep)} word-end times swept" + (
        f"; first failures: {failures[:3]}" if failures else ""
    )
    _finish(3, t0, 1.0, not failures, detail)


# ---------------------------------------------------------------------------
# criterion 4: better VAD -> better precision; silence gating beats blank-run


def test_decision_noise_orders_precision(corpus, oracle_timelines, corrupted_timelines):
    t0 = time.perf_counter()
    ts_cfg = _sweep_cfg(Mode.TS, 200)
    blank_cfg = EndpointerConfig(Mode.BLANK, blank_run_frames=6, frame_ms=FRAME_MS)
    r105, _ = _pool_corpus(
        corpus, lambda c: corrupted_timelines[(0.105, c.call_id)], ts_cfg, EVAL_CFG
    )
    r182, _ = _pool_corpus(
        corpus, lambda c: corrupted_timelines[(0.182, c.call_id)], ts_cfg, EVAL_CFG
    )
    rblank, _ = _pool_corpus(
        corpus, lambda c: oracle_timelines[c.call_id], blank_cfg, EVAL_CFG
    )
    ok = (
        r105.precision > r182.precision > rblank.precision
        and r105.f1 > rblank.f1
        and r182.f1 > rblank.f1
    )
    detail = (
        f"{len(corpus)} calls: P {r105.precision:.3f} > {r182.precision:.3f} > "
        f"{rblank.precision:.3f}; F1 {r105.f1:.3f}/{r182.f1:.3f} vs "
        f"blank-run {rblank.f1:.3f}"
    )
    _finish(4, t0, 60.0, ok, detail)


# ---------------------------------------------------------------------------
# criterion 5: word-end gating trades recall for precision and intact words


def _unclosed_violations(endpoints, transcripts):
    """Turns holding an open word that were not ended by a deferral timeout."""
    bad = []
    for tr in transcripts:
        if all(closed for _, closed in tr.words):
            continue
        k = tr.turn_index
        if k >= len(endpoints) or endpoints[k].trigger is not Trigger.DEFERRAL_TIMEOUT:
            bad.append(k)
    return bad


def test_word_end_gating_tradeoff(corpus, corrupted_timelines):
    t0 = time.perf_counter()
    timeline_for = lambda c: corrupted_timelines[(0.105, c.call_id)]
    r_ts, _ = _pool_corpus(corpus, timeline_for, _sweep_cfg(Mode.TS, 200), EVAL_CFG)
    r_eow, pc_eow = _pool_corpus(
        corpus, timeline_for, _sweep_cfg(Mode.EOW, 200), EVAL_CFG
    )
    r_both, pc_both = _pool_corpus(
        corpus, timeline_for, _sweep_cfg(Mode.TS_AND_EOW, 200), EVAL_CFG
    )
    violations = []
    for per_call in (pc_eow, pc_both):
        for call_id, (endpoints, transcripts) in per_call.items():
            for k in _unclosed_violations(endpoints, transcripts):
                violations.append(f"{call_id} turn {k}")
    ok = (
        r_eow.precision > r_ts.precision
        and r_eow.recall < r_ts.recall
        and r_eow.wer <= r_ts.wer
        and not violations
    )
    detail = (
        f"P {r_eow.precision:.3f} > {r_ts.precision:.3f}; "
        f"R {r_eow.recall:.3f} < {r_ts.recall:.3f}; "
        f"WER {r_eow.wer:.3f} <= {r_ts.wer:.3f}; "
        f"{r_both.deferral_timeouts} deferral timeouts; "
        f"unclosed-word violations: {violations or 'none'}"
    )
    _finish(5, t0, 60.0, ok, detail)


# ---------------------------------------------------------------------------
# criterion 6: pooled WER falls with the threshold, then saturates


def test_wer_falls_then_saturates_with_threshold(corpus, oracle_timelines):
    t0 = time.perf_counter()
    deltas = (200, 400, 600, 800)
    wers = {}
    for mode in Mode:
        for delta in deltas:
            report, _ = _pool_corpus(
                corpus,
                lambda c: oracle_timelines[c.call_id],
                _sweep_cfg(mode, delta),
                EvalConfig(delta, 200),
            )
            wers[(mode, delta)] = report.wer
    problems = []
    for mode in Mode:
        seq = [wers[(mode, d)] for d in deltas]
        if any(b > a + 1e-12 for a, b in zip(seq, seq[1:])):
            problems.append(f"{mode.value} not non-increasing: {seq}")
    early_drop = wers[(Mode.TS, 200)] - wers[(Mode.TS, 600)]
    late_drop = wers[(Mode.TS, 600)] - wers[(Mode.TS, 800)]
    if not early_drop > late_drop:
        problems.append(f"no saturation: drop(200->600)={early_drop} "
                        f"vs drop(600->800)={late_drop}")
    ts_seq = ", ".join(f"{wers[(Mode.TS, d)]:.3f}" for d in deltas)
    detail = f"{len(corpus)} calls; WER(TS) over deltas: [{ts_seq}]" + (
        f"; problems: {problems}" if problems else ""
    )
    _finish(6, t0, 120.0, not problems, detail)


# ---------------------------------------------------------------------------
# criterion 7: agreement with the brute-force oracles


def test_agreement_with_brute_force_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    vocab = ["wa", "ne", "ko", "ta", "ri"]
    problems = []

    for case in range(1000):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(0, 10))]
        hyp = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(0, 10))]
        dist, subs, dels, ins = brute_edit_counts(ref, hyp)
        result = wer(ref, hyp)
        got = (result.substitutions, result.deletions, result.insertions)
        if got != (subs, dels, ins):
            problems.append(f"wer case {case}: {got} != {(subs, dels, ins)}")
        elif ref and abs(result.wer - dist / len(ref)) > 1e-12:
            problems.append(f"wer case {case}: ratio {result.wer}")

    grid = np.arange(0, 3001, 100)
    for case in range(500):
        refs = sorted(rng.choice(grid, rng.integers(0, 7), replace=False).tolist())
        hyps = sorted(rng.choice(grid, rng.integers(0, 9), replace=False).tolist())
        delta = int(rng.choice([200, 400]))
        tol = int(rng.choice([100, 200]))
        matching = align_events(refs, hyps, EvalConfig(delta, tol))
        best_hits, _ = exhaustive_match(refs, hyps, delta, tol)
        if len(matching.pairs) != best_hits:
            problems.append(
                f"align case {case}: {len(matching.pairs)} hits, best {best_hits}"
            )

    for case in range(500):
        n = int(rng.integers(2, 13))
        while True:
            labels = rng.random(n) < 0.5
            if labels.any() and not labels.all():
                break
        scores = np.round(rng.random(n), 1).tolist()
        curve = vadnet.det_curve(scores, labels)
        oracle_pts = enumerate_det_points(scores, labels.tolist())
        got_pts = list(zip(curve.fpr.tolist(), curve.fnr.tolist()))
        if len(got_pts) != len(oracle_pts) or any(
            g != (float(o[0]), float(o[1])) for g, o in zip(got_pts, oracle_pts)
        ):
            problems.append(f"det case {case}: {got_pts} != {oracle_pts}")
            continue
        got_eer = vadnet.eer(curve).eer
        want_eer = brute_eer(scores, labels.tolist())
        if abs(got_eer - float(want_eer)) > 1e-9:
            problems.append(f"eer case {case}: {got_eer} != {want_eer}")

    detail = "1000 wer + 500 align + 500 det/eer cases" + (
        f"; first problems: {problems[:3]}" if problems else ""
    )
    _finish(7, t0, 30.0, not problems, detail)


# ---------------------------------------------------------------------------
# criterion 8: gradients check numerically; training separates what it can


def _kink_safe_batch(rng, model, n=8):
    """A batch whose hidden pre-activations all sit clear of the ReLU kink."""
    while True:
        x = rng.standard_normal((n, model.layer_dims[0]))
        y = (rng.random(n) < 0.5).astype(np.float64)
        if len(np.unique(y)) < 2:
            continue
        a = x
        ok = True
        for layer in range(2):
            pre = a @ model.weights[layer] + model.biases[layer]
            if np.min(np.abs(pre)) < 1e-3:
                ok = False
                break
            a = np.maximum(pre, 0.0)
        if ok:
            return x, y


def _labelled_blob(separation: float, seed: int):
    rng = np.random.default_rng(seed)
    n = 6000
    y = (rng.random(n) < 0.5).astype(np.float64)
    x = rng.standard_normal((n, 6))
    x[:, 0] += np.where(y > 0.5, separation / 2.0, -separation / 2.0)
    return x, y


def _held_out_eer(separation: float) -> float:
    x, y = _labelled_blob(separation, seed=42)
    model = vadnet.init_model([6, 16, 16, 1], seed=7)
    cfg = TrainConfig(learning_rate=0.3, epochs=15, batch_size=64, seed=7)
    vadnet.train_arrays(model, x[:4000], y[:4000], cfg)
    posteriors = vadnet.posteriors(model, x[4000:6000])
    return vadnet.eer(vadnet.det_curve(posteriors, y[4000:6000] > 0.5)).eer


def test_gradients_and_training_behavior():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    eps = 1e-6
    checks = 0
    worst = 0.0
    problems = []
    for m in range(20):
        model = vadnet.init_model([3, 4, 4, 1], seed=100 + m)
        x, y = _kink_safe_batch(rng, model)
        _, grads_w, grads_b = vadnet.loss_and_grads(model, x, y)
        slots = [
            (arr, idx, grads[layer][idx])
            for arrays, grads in ((model.weights, grads_w), (model.biases, grads_b))
            for layer, arr in enumerate(arrays)
            for idx in np.ndindex(arr.shape)
        ]
        picks = rng.choice(len(slots), size=5, replace=False)
        for slot in picks:
            arr, idx, analytic = slots[slot]
            arr[idx] += eps
            up = vadnet.loss_and_grads(model, x, y)[0]
            arr[idx] -= 2 * eps
            down = vadnet.loss_and_grads(model, x, y)[0]
            arr[idx] += eps
            numeric = (up - down) / (2 * eps)
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, rel)
            checks += 1
            if rel > 1e-3:
                problems.append(f"model {m} idx {idx}: rel err {rel:.2e}")
    assert checks == 100

    separated_eer = _held_out_eer(4.0)
    if separated_eer > 0.05:
        problems.append(f"separable-data eer {separated_eer:.4f} > 0.05")
    chance_eer = _held_out_eer(0.0)
    if abs(chance_eer - 0.5) > 0.05:
        problems.append(f"unseparable-data eer {chance_eer:.4f} not ~0.5")

    detail = (
        f"100 gradient checks, worst rel err {worst:.1e}; held-out eer "
        f"{separated_eer:.4f} (separated) / {chance_eer:.4f} (chance)"
    ) + (f"; problems: {problems}" if problems else "")
    _finish(8, t0, 60.0, not problems, detail)


# ---------------------------------------------------------------------------
# criterion 9: state-machine invariants over 200 random calls


def _transcript_lines(call_id, transcripts):
    """A transcript file's lines: ``-`` is an empty word, ``*`` ends an unclosed one."""
    lines = ["format=1", f"call {call_id}"]
    for turn in transcripts:
        words = [(text or "-") + ("" if closed else "*") for text, closed in turn.words]
        head = ["turn", str(turn.turn_index), str(turn.start_ms), str(turn.end_ms)]
        lines.append(" ".join(head + words))
    return lines


def test_state_machine_invariants(small_pool, tmp_path):
    t0 = time.perf_counter()
    mode_cfgs = [_sweep_cfg(m, 240 if m is Mode.BLANK else 200) for m in Mode]
    ts200 = _sweep_cfg(Mode.TS, 200)
    ts400 = _sweep_cfg(Mode.TS, 400)
    both = _sweep_cfg(Mode.TS_AND_EOW, 200)
    problems = []

    for k, (call, decisions, timeline) in enumerate(small_pool):
        cfg = mode_cfgs[k % len(mode_cfgs)]

        # determinism: identical reruns yield identical endpoints
        first = run_call(cfg, timeline)
        if run_call(cfg, timeline) != first:
            problems.append(f"{call.call_id}: nondeterministic under {cfg.mode}")

        # event-at-a-time stepping matches the batch fold
        machine = new_endpointer(cfg)
        stepped = [ep for ev in timeline if (ep := machine.step(ev)) is not None]
        if stepped != first:
            problems.append(f"{call.call_id}: stepped != batch under {cfg.mode}")

        # one endpoint per qualifying silence run, at exactly run start + delta
        eps_ts = run_call(ts200, timeline)
        runs = maximal_nonspeech_runs(
            [(d.time_ms, d.is_speech) for d in decisions], FRAME_MS
        )
        want = [(s + 200, s) for s, e in runs if e - s >= 200]
        got = [(ep.time_ms, ep.silence_start_ms) for ep in eps_ts]
        if got != want:
            problems.append(f"{call.call_id}: runs {want} vs endpoints {got}")

        # raising the threshold never adds endpoints
        if len(run_call(ts400, timeline)) > len(eps_ts):
            problems.append(f"{call.call_id}: more endpoints at higher threshold")

        # every artifact round-trips through its file format unchanged, and
        # the transcript, which has no reader, is written line for line
        endpoints = run_call(both, timeline)
        transcripts = commit_transcript(call.tokens, endpoints, call.end_ms)
        call_path = tmp_path / f"{k}.call"
        ep_path = tmp_path / f"{k}.endpoints"
        tr_path = tmp_path / f"{k}.transcript"
        callfile.save_call(call, call_path)
        callfile.save_endpoints(call.call_id, both.mode, endpoints, ep_path)
        callfile.save_transcripts(call.call_id, transcripts, tr_path)
        if callfile.load_call(call_path) != call:
            problems.append(f"{call.call_id}: call file round-trip changed it")
        if callfile.load_endpoints(ep_path) != (call.call_id, both.mode, endpoints):
            problems.append(f"{call.call_id}: endpoint file round-trip changed it")
        tr_lines = tr_path.read_text().splitlines()
        if tr_lines != _transcript_lines(call.call_id, transcripts):
            problems.append(f"{call.call_id}: transcript file misses its turns")

    detail = f"5 invariants x {len(small_pool)} calls" + (
        f"; first problems: {problems[:3]}" if problems else ""
    )
    _finish(9, t0, 60.0, not problems, detail)
