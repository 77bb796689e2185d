"""Frame-level voice activity classifier.

A small fixed-shape MLP ([d_in, h1, h2, 1], rectifier hidden units,
logistic output) trained with plain mini-batch gradient descent on
cross-entropy.  Nothing adaptive: no momentum, no schedules.  An epoch's
loss is the mean over its batches, weighted by batch size, of each
batch's mean cross-entropy taken before that batch's update.  The point
of the model is not accuracy records but a controllable error rate, so
the module also carries the DET-curve / equal-error-rate analysis used to
pick an operating threshold, and a self-describing binary checkpoint
format so trained models can be fed back into the endpointing CLI.

Checkpoint layout (all little-endian):

    8 bytes   magic ``b"VADMLP1\\0"``
    uint32    number of layer dims (always 4)
    uint32[4] layer dims [d_in, h1, h2, 1]
    float64   operating threshold
    then per weight layer, in order: W (rows=fan_in, cols=fan_out,
    row-major float64) followed by its bias vector (float64).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .streams import FrameRecord, VadDecision

CHECKPOINT_MAGIC = b"VADMLP1\x00"


@dataclass
class MlpModel:
    """Weights and biases for the fixed 3-layer shape."""

    layer_dims: tuple[int, int, int, int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built; a learning rate of 0 trains nothing."""

    learning_rate: float = 0.3
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs: must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size: must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed: must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class DetCurve:
    """Detection error trade-off: one point per threshold, sorted ascending.

    Thresholds include -inf and +inf sentinels, so fpr runs 1 -> 0 and fnr
    0 -> 1 across the curve.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    fnr: np.ndarray


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    eer: float


def init_model(layer_dims: Sequence[int], seed: int) -> MlpModel:
    """Deterministically initialize a [d_in, h1, h2, 1] model.

    Weights are zero-mean normal scaled by 1/sqrt(fan_in); biases start at
    zero.  The same seed always yields bit-identical parameters.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) != 4 or dims[-1] != 1:
        raise ValueError(f"layer_dims must be [d_in, h1, h2, 1], got {list(dims)}")
    if any(d <= 0 for d in dims):
        raise ValueError(f"layer_dims must be positive, got {list(dims)}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, weights, biases)  # type: ignore[arg-type]


def _forward_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Posteriors for a batch, plus per-layer activations for backprop."""
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    z = (h @ model.weights[-1] + model.biases[-1]).ravel()
    acts.append(z)
    # logistic, computed stably on both tails: 1/(1+e^-z) for z >= 0,
    # e^z/(1+e^z) below
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return p, acts


def posteriors(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior probability of speech per row of x, strictly inside (0, 1)."""
    p, _ = _forward_batch(model, x)
    return np.clip(p, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)


def _grads(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """A batch's logits and the parameter gradients of its mean cross-entropy."""
    p, acts = _forward_batch(model, x)
    delta = ((p - y) / x.shape[0])[:, None]
    grads_w: list[np.ndarray] = [np.empty(0)] * 3
    grads_b: list[np.ndarray] = [np.empty(0)] * 3
    for layer in (2, 1, 0):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0.0)
    return acts[-1], grads_w, grads_b


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy from logits, as softplus(z) - y*z.

    softplus(z) - y*z == -[y log p + (1-y) log(1-p)], finite for any z.
    """
    return np.logaddexp(0.0, z) - y * z


def loss_and_grads(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy and its parameter gradients.

    The loss is computed from logits via log1p-style softplus, so the
    value and the gradients stay finite for any parameter scale; gradients
    here are what one training step descends.
    """
    z, grads_w, grads_b = _grads(model, x, y)
    return float(np.mean(_cross_entropy(z, y))), grads_w, grads_b


def train_arrays(
    model: MlpModel, x: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> list[float]:
    """Train in place on feature rows x; returns the loss of each epoch.

    y holds 1.0 for speech, 0.0 for nonspeech.  Batches are reshuffled
    every epoch from the config seed, so a fixed (seed, row order) pair
    gives a bit-identical trajectory.  An epoch's loss is the mean over
    its batches, weighted by batch size, of each batch's mean
    cross-entropy taken before that batch's update.  Single-class data is
    rejected (no decision boundary to learn).
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("no training frames")
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single class")

    rng = np.random.default_rng(cfg.seed)
    size = min(cfg.batch_size, n)  # any size past n is one batch of all n rows
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        xs, ys = x[order], y[order]
        logits = []
        for start in range(0, n, size):
            z, gw, gb = _grads(model, xs[start : start + size], ys[start : start + size])
            logits.append(z)
            for layer in range(3):
                model.weights[layer] -= cfg.learning_rate * gw[layer]
                model.biases[layer] -= cfg.learning_rate * gb[layer]
        history.append(_epoch_loss(_cross_entropy(np.concatenate(logits), ys), size))
    return history


def _epoch_loss(losses: np.ndarray, size: int) -> float:
    """Size-weighted mean of the batch means of per-sample losses.

    Batch k holds rows [k*size, (k+1)*size); the sum runs in batch order.
    """
    n = len(losses)
    full = n - n % size
    means = losses[:full].reshape(-1, size).mean(axis=1).tolist()
    sizes = [size] * len(means)
    if full < n:
        means.append(float(np.mean(losses[full:])))
        sizes.append(n - full)
    total = 0.0
    for mean, rows in zip(means, sizes):
        total += mean * rows
    return total / n


def det_curve(posteriors: Sequence[float], is_speech: Sequence[bool]) -> DetCurve:
    """DET curve over every distinct score plus -inf/+inf sentinels.

    ``is_speech[k]`` is frame k's true class.  At threshold t: fpr =
    fraction of nonspeech frames scoring >= t, fnr = fraction of speech
    frames scoring < t.  Needs both classes.
    """
    scores = np.asarray(posteriors, dtype=float)
    is_sp = np.asarray(is_speech, dtype=bool)
    if scores.shape != is_sp.shape:
        raise ValueError("posteriors and speech flags differ in length")
    n_sp = int(is_sp.sum())
    n_non = int((~is_sp).sum())
    if n_sp == 0 or n_non == 0:
        raise ValueError("det_curve needs both speech and nonspeech frames")
    sp = np.sort(scores[is_sp])
    non = np.sort(scores[~is_sp])
    thr = np.concatenate(([-np.inf], np.unique(scores), [np.inf]))
    fpr = (n_non - np.searchsorted(non, thr, side="left")) / n_non
    fnr = np.searchsorted(sp, thr, side="left") / n_sp
    return DetCurve(thr, fpr, fnr)


def eer(curve: DetCurve) -> OperatingPoint:
    """Equal error rate of a DET curve.

    Walks the curve (fpr - fnr is non-increasing) to the first point where
    the difference reaches zero or flips sign; a sign flip is resolved by
    linear interpolation between the two points, in rate space and in
    threshold (an infinite sentinel threshold clamps to its finite
    neighbor).
    """
    diffs = curve.fpr - curve.fnr
    if diffs[0] == 0.0:
        return OperatingPoint(float(curve.thresholds[0]), float(curve.fpr[0]))
    for k in range(1, len(diffs)):
        if diffs[k] == 0.0:
            return OperatingPoint(float(curve.thresholds[k]), float(curve.fpr[k]))
        if diffs[k] < 0.0:
            alpha = diffs[k - 1] / (diffs[k - 1] - diffs[k])
            rate = 0.5 * (
                curve.fpr[k - 1]
                + alpha * (curve.fpr[k] - curve.fpr[k - 1])
                + curve.fnr[k - 1]
                + alpha * (curve.fnr[k] - curve.fnr[k - 1])
            )
            lo, hi = float(curve.thresholds[k - 1]), float(curve.thresholds[k])
            if not np.isfinite(lo):
                thr = hi
            elif not np.isfinite(hi):
                thr = lo
            else:
                thr = lo + float(alpha) * (hi - lo)
            return OperatingPoint(thr, float(rate))
    raise ValueError("DET curve has no equal-error crossing")


def classify_frames(
    model: MlpModel, frames: Sequence[FrameRecord], threshold: float
) -> list[VadDecision]:
    """Threshold model posteriors into per-frame decisions (speech iff p >= t)."""
    if not frames:
        return []
    x = np.stack([np.asarray(f.features, dtype=float) for f in frames])
    speech = speech_flags(posteriors(model, x), threshold).tolist()
    return list(map(VadDecision, [f.time_ms for f in frames], speech))


def speech_flags(p: np.ndarray, threshold: float) -> np.ndarray:
    """One speech flag per frame from its posterior: speech iff p >= threshold.

    A call's columns classify without per-frame records:
    ``speech_flags(posteriors(model, call.features), threshold)``.
    """
    return np.asarray(p) >= threshold


def save_model(model: MlpModel, path: str, threshold: float = 0.5) -> None:
    """Write the checkpoint format documented in the module docstring."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(model.layer_dims)))
        fh.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        fh.write(struct.pack("<d", float(threshold)))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path: str) -> tuple[MlpModel, float]:
    """Read a checkpoint back; returns (model, operating threshold).

    Every field is length-checked before it is decoded, so a truncated file
    raises ValueError naming the path and the field that was cut short.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        data = fh.read()
    pos = 0

    def take(n_bytes: int, what: str) -> bytes:
        nonlocal pos
        left = len(data) - pos
        if left < n_bytes:
            raise ValueError(
                f"{path}: checkpoint cut short in {what}: "
                f"expected {n_bytes} bytes, found {left}"
            )
        pos += n_bytes
        return data[pos - n_bytes : pos]

    (n_dims,) = struct.unpack("<I", take(4, "layer count"))
    dims = struct.unpack(f"<{n_dims}I", take(4 * n_dims, "layer dims"))
    if n_dims != 4 or dims[-1] != 1:
        raise ValueError(f"{path}: unsupported layer dims {list(dims)}")
    (threshold,) = struct.unpack("<d", take(8, "threshold"))
    weights = []
    biases = []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]), start=1):
        w = np.frombuffer(take(8 * fan_in * fan_out, f"layer {layer} weights"), dtype="<f8")
        weights.append(w.reshape(fan_in, fan_out).astype(float))
        b = np.frombuffer(take(8 * fan_out, f"layer {layer} bias"), dtype="<f8")
        biases.append(b.astype(float))
    if pos != len(data):
        raise ValueError(f"{path}: trailing bytes after parameters")
    return MlpModel(tuple(dims), weights, biases), threshold  # type: ignore[arg-type]
