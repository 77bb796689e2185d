"""Synthetic conversation generator with full ground truth.

A call is a deterministic function of its config: speech turns alternate
with silence gaps, every turn is a run of words separated by short
intra-turn pauses, and every duration snaps to the frame grid so frame
labels are exact.  Each word carries k subword tokens plus one
end-of-word token whose ideal emission times sit at the acoustic end of
their unit; the actual emission time adds a clipped-Gaussian delay,
repaired to be non-decreasing across the stream.  Frames with no token
emission carry a single blank token at the frame time.

Ground truth exposed per call: frame labels (intra-turn pauses count as
nonspeech), optional independently flipped teacher labels, per-frame
feature vectors drawn from two isotropic Gaussians whose means sit
``feature_separability`` apart along axis 0, and reference segments (one
per turn, spanning the whole turn, listing its words).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .streams import (
    BLANK_CODE,
    EOW_CODE,
    NO_LABEL,
    NO_WORD,
    SPEECH_CODE,
    SUBWORD_CODE,
    CallRecord,
    ReferenceSegment,
    VadDecision,
)

__all__ = [
    "SimConfig",
    "gen_call",
    "oracle_speech",
    "oracle_vad",
    "corrupt_speech",
    "resample_features",
]

_SYLLABLES = ("ba", "de", "ki", "lo", "mu", "na", "po", "re", "si", "tu", "va", "zo")
# every 3-syllable combination, fixed order: 1728 distinct 6-letter words
_VOCAB = tuple(
    "".join(parts) for parts in itertools.product(_SYLLABLES, repeat=3)
)


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic call; all ranges are inclusive (min, max)."""

    seed: int = 0
    n_turns: int = 4
    turn_dur_ms: tuple[int, int] = (1200, 2600)
    gap_dur_ms: tuple[int, int] = (1000, 2000)
    word_dur_ms: tuple[int, int] = (400, 700)
    pause_dur_ms: tuple[int, int] = (40, 160)
    subwords_per_word: tuple[int, int] = (3, 6)
    emission_delay: tuple[float, float, float] = (150.0, 50.0, 400.0)
    feature_separability: float = 2.0
    feature_dim: int = 8
    teacher_flip_prob: float = 0.0
    frame_ms: int = 40


def _check_config(cfg: SimConfig) -> None:
    if cfg.seed < 0:
        raise ValueError(f"seed: must be non-negative, got {cfg.seed}")
    if cfg.frame_ms < 1:
        raise ValueError(f"frame_ms: must be positive, got {cfg.frame_ms}")
    if cfg.n_turns < 1:
        raise ValueError(f"n_turns: must be positive, got {cfg.n_turns}")
    if cfg.feature_dim < 1:
        raise ValueError(f"feature_dim: must be positive, got {cfg.feature_dim}")
    if not (math.isfinite(cfg.feature_separability) and cfg.feature_separability >= 0):
        raise ValueError(
            f"feature_separability: must be finite and non-negative, "
            f"got {cfg.feature_separability}"
        )
    if not 0.0 <= cfg.teacher_flip_prob < 1.0:
        raise ValueError(
            f"teacher_flip_prob: must lie in [0, 1), got {cfg.teacher_flip_prob}"
        )
    for name in ("turn_dur_ms", "gap_dur_ms", "word_dur_ms", "pause_dur_ms"):
        lo, hi = getattr(cfg, name)
        if lo < 1 or hi < lo:
            raise ValueError(f"{name}: need 1 <= min <= max, got ({lo}, {hi})")
    k_lo, k_hi = cfg.subwords_per_word
    if k_lo < 1 or k_hi < k_lo:
        raise ValueError(
            f"subwords_per_word: need 1 <= min <= max, got ({k_lo}, {k_hi})"
        )
    if not all(math.isfinite(v) and v >= 0 for v in cfg.emission_delay):
        raise ValueError(
            f"emission_delay: all of (mean, std, clip_max) must be finite and "
            f"non-negative, got {cfg.emission_delay}"
        )


def _snap(ms: int, frame_ms: int) -> int:
    """Round to the nearest frame boundary, at least one frame."""
    return max(frame_ms, ((ms + frame_ms // 2) // frame_ms) * frame_ms)


def _sample_ms(rng: np.random.Generator, bounds: tuple[int, int], frame_ms: int) -> int:
    lo, hi = bounds
    return _snap(int(rng.integers(lo, hi + 1)), frame_ms)


@dataclass(frozen=True)
class _Word:
    text: str
    start_ms: int
    unit_ends: tuple[int, ...]  # absolute end time of each subword unit
    index: int

    @property
    def end_ms(self) -> int:
        return self.unit_ends[-1]


def gen_call(cfg: SimConfig) -> CallRecord:
    """Generate one call; bit-deterministic for a fixed config."""
    _check_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    f = cfg.frame_ms

    words: list[_Word] = []
    turns: list[tuple[int, int, tuple[str, ...]]] = []  # (start, end, word texts)
    t = 0
    word_counter = 0
    for turn_idx in range(cfg.n_turns):
        if turn_idx > 0:
            t += _sample_ms(rng, cfg.gap_dur_ms, f)
        turn_start = t
        target = _sample_ms(rng, cfg.turn_dur_ms, f)
        turn_words: list[str] = []
        while t - turn_start < target:
            if turn_words:
                t += _sample_ms(rng, cfg.pause_dur_ms, f)
            dur = _sample_ms(rng, cfg.word_dur_ms, f)
            k = int(rng.integers(cfg.subwords_per_word[0], cfg.subwords_per_word[1] + 1))
            text = _VOCAB[word_counter % len(_VOCAB)]
            k = min(k, len(text))
            base, extra = divmod(dur, k)
            ends = []
            u = t
            for j in range(k):
                u += base + (1 if j < extra else 0)
                ends.append(u)
            words.append(_Word(text, t, tuple(ends), word_counter))
            turn_words.append(text)
            word_counter += 1
            t = u
        turns.append((turn_start, t, tuple(turn_words)))
    t += _sample_ms(rng, cfg.gap_dur_ms, f)  # tail gap after the last turn
    total_ms = t
    n_frames = total_ms // f

    # ideal token times (subwords at unit ends, EOW at the word end), as
    # columns: time, kind code, text, word index
    ideal: list[int] = []
    kinds: list[int] = []
    texts: list[str] = []
    word_index: list[int] = []
    for w in words:
        k = len(w.unit_ends)
        base_len, extra_len = divmod(len(w.text), k)
        pos = 0
        for j, end in enumerate(w.unit_ends):
            size = base_len + (1 if j < extra_len else 0)
            ideal.append(end)
            kinds.append(SUBWORD_CODE)
            texts.append(w.text[pos : pos + size])
            pos += size
        ideal.append(w.end_ms)
        kinds.append(EOW_CODE)
        texts.append("")
        word_index += [w.index] * (k + 1)

    # one clipped delay per token, rounded half to even; the emission times
    # are made monotone and capped at the stream's end.  In float64 the sum
    # is exact below 2**53 ms and any larger one caps at total_ms anyway.
    mean, std, clip_max = cfg.emission_delay
    delay = np.rint(np.clip(rng.normal(mean, std, len(ideal)), 0.0, clip_max))
    emit = np.maximum.accumulate(np.array(ideal, dtype=float) + delay)
    emitted = np.minimum(emit, total_ms).astype(np.int64)

    occupied = np.zeros(n_frames, dtype=bool)
    occupied[emitted[emitted < total_ms] // f] = True
    blanks = np.flatnonzero(~occupied) * f
    n_blank = len(blanks)
    # a blank marks a frame without an emission, so no ms holds both kinds
    times = np.concatenate([blanks, emitted])
    order = np.argsort(times, kind="stable")
    token_time = times[order]
    token_kind = np.array([BLANK_CODE] * n_blank + kinds, dtype=np.int8)[order]
    token_word = np.array([NO_WORD] * n_blank + word_index, dtype=np.int64)[order]
    all_texts = [""] * n_blank + texts
    token_text = tuple(all_texts[j] for j in order.tolist())

    # frame labels: speech exactly inside word intervals (pauses/gaps are not)
    labels = np.zeros(n_frames, dtype=bool)
    for w in words:
        labels[w.start_ms // f : w.end_ms // f] = True

    eps = rng.standard_normal((n_frames, cfg.feature_dim))
    shift = cfg.feature_separability / 2.0
    eps[:, 0] += np.where(labels, shift, -shift)

    flips = rng.random(n_frames) < cfg.teacher_flip_prob

    call_id = f"sim-{cfg.seed:08d}"
    segments = [
        ReferenceSegment(call_id, start, end, texts) for start, end, texts in turns
    ]
    return CallRecord(
        call_id=call_id,
        frame_ms=f,
        frame_index=np.arange(n_frames, dtype=np.int64),
        features=eps,
        labels=labels.astype(np.int8),
        teacher_labels=(labels ^ flips).astype(np.int8),
        token_time=token_time,
        token_kind=token_kind,
        token_word=token_word,
        token_text=token_text,
        segments=tuple(segments),
    )


def resample_features(
    call: CallRecord, separability: float, seed: int
) -> CallRecord:
    """Replace frame features with fresh class-conditional draws.

    Keeps the call's structure, labels, and tokens; only the feature
    vectors change, drawn at the requested separability.  This swaps the
    feature channel's quality without re-simulating the conversation.
    """
    if not (math.isfinite(separability) and separability >= 0):
        raise ValueError(
            f"feature_separability: must be finite and non-negative, got {separability}"
        )
    _check_labeled(call)
    rng = np.random.default_rng(seed)
    features = rng.standard_normal(call.features.shape)
    if len(features):  # an empty call may have no feature columns at all
        shift = separability / 2.0
        features[:, 0] += np.where(call.labels == SPEECH_CODE, shift, -shift)
    return replace(call, features=features)


def _check_labeled(call: CallRecord) -> None:
    missing = np.flatnonzero(call.labels == NO_LABEL)
    if missing.size:
        raise ValueError(f"frame {missing[0]} has no label")


def oracle_speech(call: CallRecord) -> np.ndarray:
    """Perfect speech flags, one per frame, straight from ground-truth labels."""
    _check_labeled(call)
    return call.labels == SPEECH_CODE


def oracle_vad(call: CallRecord) -> list[VadDecision]:
    """Perfect decisions straight from ground-truth labels."""
    return list(map(VadDecision, call.frame_times.tolist(), oracle_speech(call).tolist()))


def corrupt_speech(speech: np.ndarray, target_eer: float, seed: int) -> np.ndarray:
    """Flip each speech flag independently with probability target_eer.

    Flipping both classes at the same rate puts the empirical operating
    point at fpr ~= fnr ~= target_eer.  Flag k flips iff the k-th draw of
    ``default_rng(seed).random()`` falls below target_eer.
    """
    if not 0.0 <= target_eer < 0.5:
        raise ValueError(f"target_eer: must lie in [0, 0.5), got {target_eer}")
    rng = np.random.default_rng(seed)
    return speech != (rng.random(len(speech)) < target_eer)
