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
from .vadnet import MAX_LAYER_DIM

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
_RANGES_MS = ("turn_dur_ms", "gap_dur_ms", "word_dur_ms", "pause_dur_ms")
# the fields whose values SimConfig's call-length bound sums
CALL_LENGTH_FIELDS = ("n_turns", "frame_ms") + _RANGES_MS


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic call, checked when built; ranges are inclusive (min, max)."""

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

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed: must be non-negative, got {self.seed}")
        if self.frame_ms < 1:
            raise ValueError(f"frame_ms: must be positive, got {self.frame_ms}")
        if self.n_turns < 1:
            raise ValueError(f"n_turns: must be positive, got {self.n_turns}")
        if not 1 <= self.feature_dim <= MAX_LAYER_DIM:
            raise ValueError(
                f"feature_dim: must lie in [1, 2**32 - 1], got {self.feature_dim}"
            )
        sep = self.feature_separability
        if not (math.isfinite(sep) and sep >= 0):
            raise ValueError(
                f"feature_separability: must be finite and non-negative, got {sep}"
            )
        if not 0.0 <= self.teacher_flip_prob < 1.0:
            raise ValueError(
                f"teacher_flip_prob: must lie in [0, 1), got {self.teacher_flip_prob}"
            )
        for name in _RANGES_MS + ("subwords_per_word",):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValueError(f"{name}: need 1 <= min <= max, got ({lo}, {hi})")
        k_max = self.subwords_per_word[1]
        if k_max >= 2**63:  # rng.integers draws below k_max + 1, an int64
            raise ValueError(f"subwords_per_word: max must be below 2**63, got {k_max}")
        if not all(math.isfinite(v) and v >= 0 for v in self.emission_delay):
            raise ValueError(
                f"emission_delay: all of (mean, std, clip_max) must be finite and "
                f"non-negative, got {self.emission_delay}"
            )
        # a turn, its last pause and word and the gap after it each overrun
        # their max by under a frame, so this bounds the call's length; below
        # 2**53 ms every time is exact in float64 and fits in int64
        turn_ms = sum(getattr(self, name)[1] for name in _RANGES_MS) + 4 * self.frame_ms
        if self.n_turns * turn_ms > 2**53:
            raise ValueError(
                f"call length: {self.n_turns} turns of up to {turn_ms} ms each "
                f"(turn, word, pause and gap max plus 4 frames) exceed 2**53 ms"
            )


def _snap(ms: int, frame_ms: int) -> int:
    """Round to the nearest frame boundary, at least one frame."""
    return max(frame_ms, ((ms + frame_ms // 2) // frame_ms) * frame_ms)


def _sample_ms(rng: np.random.Generator, bounds: tuple[int, int], frame_ms: int) -> int:
    lo, hi = bounds
    return _snap(int(rng.integers(lo, hi + 1)), frame_ms)


def gen_call(cfg: SimConfig) -> CallRecord:
    """Generate one call; bit-deterministic for a fixed config."""
    rng = np.random.default_rng(cfg.seed)
    f = cfg.frame_ms

    # ideal token times (subwords at unit ends, EOW at the word end), as
    # columns: time, kind code, text, word index
    ideal: list[int] = []
    kinds: list[int] = []
    texts: list[str] = []
    word_index: list[int] = []
    spans: list[tuple[int, int]] = []  # (start, end) of each word
    call_id = f"sim-{cfg.seed:08d}"
    segments: list[ReferenceSegment] = []  # one per turn
    t = 0
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
            index = len(spans)
            text = _VOCAB[index % len(_VOCAB)]
            k = min(k, len(text))
            base, extra = divmod(dur, k)
            base_len, extra_len = divmod(len(text), k)
            u, pos = t, 0
            for j in range(k):
                u += base + (1 if j < extra else 0)
                size = base_len + (1 if j < extra_len else 0)
                ideal.append(u)
                texts.append(text[pos : pos + size])
                pos += size
            ideal.append(u)
            texts.append("")
            kinds += [SUBWORD_CODE] * k + [EOW_CODE]
            word_index += [index] * (k + 1)
            spans.append((t, u))
            turn_words.append(text)
            t = u
        segments.append(ReferenceSegment(call_id, turn_start, t, tuple(turn_words)))
    t += _sample_ms(rng, cfg.gap_dur_ms, f)  # tail gap after the last turn
    total_ms = t
    n_frames = total_ms // f

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
    for start, end in spans:
        labels[start // f : end // f] = True

    eps = rng.standard_normal((n_frames, cfg.feature_dim))
    shift = cfg.feature_separability / 2.0
    eps[:, 0] += np.where(labels, shift, -shift)

    flips = rng.random(n_frames) < cfg.teacher_flip_prob

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


def _check_labeled(call: CallRecord, column: str = "label") -> None:
    """Every frame of ``call`` carries its ``label`` or ``teacher_label``."""
    codes = call.teacher_labels if column == "teacher_label" else call.labels
    missing = np.flatnonzero(codes == NO_LABEL)
    if missing.size:
        frame = call.frame_index[missing[0]]
        raise ValueError(f"{call.call_id}: frame {frame} has no {column}")


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
