"""Independent reference implementations used only by the test suite.

Each oracle favors obviousness over speed and deliberately avoids the
code paths it checks: edit distance is a memoized recursion instead of a
DP matrix, event matching enumerates every one-to-one assignment, DET/EER
counts per threshold interval with exact fractions, the nonspeech-run
scan works offline on the raw decision list, the token checks walk
one TokenEvent at a time, and the training loop gathers each batch by
index and takes its loss from the public ``loss_and_grads``, and the
decimal call writer formats each feature with ``repr``, one field each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from endpoint_rt.streams import (
    BLANK_CODE,
    EOW_CODE,
    NO_LABEL,
    NO_WORD,
    SUBWORD_CODE,
    CallRecord,
    TokenEvent,
    TokenKind,
    VadDecision,
)
from endpoint_rt.vadnet import MlpModel, TrainConfig, loss_and_grads


# ---------------------------------------------------------------------------
# edit distance


def brute_edit_counts(
    ref: Sequence[str], hyp: Sequence[str]
) -> tuple[int, int, int, int]:
    """(distance, S, D, I) by memoized recursion.

    Tie order matches the contract: substitution preferred over deletion,
    deletion over insertion.
    """
    ref_t = tuple(ref)
    hyp_t = tuple(hyp)

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j - 1) + (ref_t[i - 1] != hyp_t[j - 1]),
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
        )

    i, j = len(ref_t), len(hyp_t)
    subs = dels = ins = 0
    while i > 0 or j > 0:
        d = dist(i, j)
        if i > 0 and j > 0 and d == dist(i - 1, j - 1) + (ref_t[i - 1] != hyp_t[j - 1]):
            if ref_t[i - 1] != hyp_t[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif i > 0 and d == dist(i - 1, j) + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    total = dist(len(ref_t), len(hyp_t))
    assert total == subs + dels + ins
    return total, subs, dels, ins


# ---------------------------------------------------------------------------
# event matching


def exhaustive_match(
    refs: Sequence[int],
    hyps: Sequence[int],
    delta_ms: int,
    tolerance_ms: int,
) -> tuple[int, int]:
    """Best one-to-one matching: (max hits, min total |latency| at that max).

    A hypothesis h may match reference r iff r - tol <= h <= r + delta + tol.
    Enumerates every assignment recursively; intended for <= 8 events per
    side only.
    """

    def ok(r: int, h: int) -> bool:
        return r - tolerance_ms <= h <= r + delta_ms + tolerance_ms

    best: tuple[int, int] = (0, 0)  # (-hits, latency) minimized lexicographically

    used = [False] * len(hyps)

    def rec(i: int, hits: int, lat: int) -> None:
        nonlocal best
        if i == len(refs):
            cand = (-hits, lat)
            if cand < best:
                best = cand
            return
        # leave refs[i] unmatched
        rec(i + 1, hits, lat)
        for k, h in enumerate(hyps):
            if not used[k] and ok(refs[i], h):
                used[k] = True
                rec(i + 1, hits + 1, lat + abs(h - refs[i]))
                used[k] = False

    rec(0, 0, 0)
    return -best[0], best[1]


# ---------------------------------------------------------------------------
# DET / EER


def enumerate_det_points(
    scores: Sequence[float], labels: Sequence[bool]
) -> list[tuple[Fraction, Fraction]]:
    """All achievable (fpr, fnr) pairs, one per threshold interval.

    Thresholds are swept over -inf, every distinct score, and +inf; a
    point is fpr = fraction of nonspeech scores >= t, fnr = fraction of
    speech scores < t.  Exact rational arithmetic.
    """
    sp = [s for s, l in zip(scores, labels) if l]
    non = [s for s, l in zip(scores, labels) if not l]
    assert sp and non
    points: list[tuple[Fraction, Fraction]] = [(Fraction(1), Fraction(0))]
    for t in sorted(set(scores)):
        fpr = Fraction(sum(1 for s in non if s >= t), len(non))
        fnr = Fraction(sum(1 for s in sp if s < t), len(sp))
        points.append((fpr, fnr))
    points.append((Fraction(0), Fraction(1)))
    return points


def brute_eer(scores: Sequence[float], labels: Sequence[bool]) -> Fraction:
    """EER from the enumerated curve, via exact interpolation.

    Scans adjacent points for the first place fpr - fnr reaches zero or
    changes sign; on a sign change the crossing is interpolated linearly
    in rate space and the EER is the common rate there.
    """
    pts = enumerate_det_points(scores, labels)
    prev = pts[0]
    if prev[0] == prev[1]:
        return prev[0]
    for cur in pts[1:]:
        d_prev = prev[0] - prev[1]
        d_cur = cur[0] - cur[1]
        if d_cur == 0:
            return cur[0]
        if d_prev > 0 and d_cur < 0:
            alpha = d_prev / (d_prev - d_cur)
            fpr = prev[0] + alpha * (cur[0] - prev[0])
            fnr = prev[1] + alpha * (cur[1] - prev[1])
            assert fpr == fnr
            return fpr
        prev = cur
    raise AssertionError("no equal-error crossing found")


# ---------------------------------------------------------------------------
# nonspeech runs


def maximal_nonspeech_runs(
    decisions: Sequence[tuple[int, bool]], frame_ms: int
) -> list[tuple[int, int]]:
    """Maximal nonspeech runs [(start_ms, end_ms_exclusive), ...].

    ``decisions`` is (time_ms, is_speech) sorted by time.  A run extends
    from its first nonspeech decision to the end of its last nonspeech
    frame and is broken only by a speech decision.
    """
    runs: list[tuple[int, int]] = []
    start: Optional[int] = None
    end = 0
    for time_ms, is_speech in decisions:
        if is_speech:
            if start is not None:
                runs.append((start, end))
                start = None
        else:
            if start is None:
                start = time_ms
            end = time_ms + frame_ms
    if start is not None:
        runs.append((start, end))
    return runs


# ---------------------------------------------------------------------------
# token columns


_KIND_CODES = {TokenKind.BLANK: BLANK_CODE, TokenKind.SUBWORD: SUBWORD_CODE, TokenKind.EOW: EOW_CODE}


def token_columns(tokens: Sequence[TokenEvent]) -> dict:
    """A CallRecord's token column keywords for a token list, one token at a time."""
    return {
        "token_time": [t.emit_time_ms for t in tokens],
        "token_kind": [_KIND_CODES[t.kind] for t in tokens],
        "token_word": [NO_WORD if t.word_index is None else t.word_index for t in tokens],
        "token_text": [t.text for t in tokens],
    }


def sweep_call(
    frame_ms: int, decisions: Sequence[VadDecision], tokens: Sequence[TokenEvent]
) -> tuple[CallRecord, np.ndarray]:
    """run_sweep's call and speech flags for a decision list and a token list.

    The call has an unlabelled frame at each decision's time, which must
    be a multiple of ``frame_ms``, and the tokens as columns.
    """
    assert all(d.time_ms % frame_ms == 0 for d in decisions)
    n = len(decisions)
    call = CallRecord(
        "c",
        frame_ms,
        frame_index=[d.time_ms // frame_ms for d in decisions],
        features=np.zeros((n, 0)),
        labels=np.full(n, NO_LABEL, np.int8),
        teacher_labels=np.full(n, NO_LABEL, np.int8),
        **token_columns(tokens),
    )
    return call, np.array([d.is_speech for d in decisions], dtype=bool)


def token_violations(
    tokens: Sequence[TokenEvent], end_ms: int
) -> list[tuple[int, str]]:
    """Every fault of a call's tokens, as (token index, message), by one walk
    over every token.

    Per token, in this order: an emit time below the previous token's, a
    BLANK with text, the first SUBWORD of a word after that word's EOW,
    and an emit time outside [0, end_ms].  The CallRecord constructor
    refuses a call for the first of them.
    """
    out: list[tuple[int, str]] = []
    eow_at: dict[int, int] = {}
    flagged: set[int] = set()
    for k, tok in enumerate(tokens):
        t = tok.emit_time_ms
        if k and t < tokens[k - 1].emit_time_ms:
            out.append((k, f"emit time {t} precedes previous {tokens[k - 1].emit_time_ms}"))
        if tok.kind is TokenKind.BLANK and tok.text:
            out.append((k, "BLANK token carries non-empty text"))
        w = tok.word_index
        if w is not None and tok.kind is TokenKind.EOW:
            eow_at[w] = k
        if w is not None and tok.kind is TokenKind.SUBWORD and w in eow_at and w not in flagged:
            flagged.add(w)
            out.append(
                (k, f"token order: SUBWORD of word {w} follows its EOW (at token {eow_at[w]})")
            )
        if not 0 <= t <= end_ms:
            out.append((k, f"emit time {t} outside call bounds [0, {end_ms}]"))
    return out


# ---------------------------------------------------------------------------
# VAD training


def reference_train(
    model: MlpModel, x: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> list[float]:
    """train_arrays' trajectory by the plain loop: per-epoch mean sample loss.

    Each batch is gathered by fancy index from the epoch's permutation,
    its loss is taken before its update, and the epoch's loss sums
    ``loss * len(batch)`` in batch order.
    """
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, gw, gb = loss_and_grads(model, x[idx], y[idx])
            total += loss * len(idx)
            for layer in range(3):
                model.weights[layer] -= cfg.learning_rate * gw[layer]
                model.biases[layer] -= cfg.learning_rate * gb[layer]
        history.append(total / n)
    return history


# ---------------------------------------------------------------------------
# decimal call files


def write_decimal_call(src: Path, dst: Path) -> None:
    """Write the ``format=2`` call file ``src`` as the ``format=1`` file
    ``dst``: each frame's hex field becomes its values' ``repr`` texts.

    The result is what ``save_call`` wrote before call files held hex.
    """
    lines = Path(src).read_text(encoding="ascii").splitlines()
    assert lines[0] == "format=2", lines[0]
    out = ["format=1"]
    for line in lines[1:]:
        fields = line.split(" ")
        if fields[0] == "frame":
            row = np.frombuffer(bytes.fromhex(fields[4][1:]), "<f8").tolist()
            line = " ".join(fields[:4] + [repr(v) for v in row])
        out.append(line)
    Path(dst).write_text("\n".join(out) + "\n", encoding="ascii")
