"""Tests for the MLP VAD: forward, gradients, training, DET/EER, checkpoints."""

import math
import re
import struct

import numpy as np
import pytest

from endpoint_rt import vadnet
from endpoint_rt.streams import FrameRecord, VadDecision
from endpoint_rt.vadnet import (
    MlpModel,
    TrainConfig,
    classify_frames,
    det_curve,
    eer,
    init_model,
    load_model,
    loss_and_grads,
    posteriors,
    save_model,
    train_arrays,
)

from oracles import brute_eer, reference_train


def _separable(n, sep, seed, dim=4):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(float)
    x = rng.standard_normal((n, dim))
    x[:, 0] += np.where(y > 0.5, sep / 2.0, -sep / 2.0)
    return x, y


# ---------------------------------------------------------------------------
# initialization and forward pass


def test_init_is_deterministic_and_shaped():
    a = init_model([4, 8, 8, 1], seed=3)
    b = init_model([4, 8, 8, 1], seed=3)
    c = init_model([4, 8, 8, 1], seed=4)
    assert a.layer_dims == (4, 8, 8, 1)
    assert [w.shape for w in a.weights] == [(4, 8), (8, 8), (8, 1)]
    assert [bv.shape for bv in a.biases] == [(8,), (8,), (1,)]
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    assert all(np.all(bv == 0.0) for bv in a.biases)


def test_init_rejects_bad_shapes():
    with pytest.raises(ValueError, match="layer_dims"):
        init_model([4, 8, 1], seed=0)
    with pytest.raises(ValueError, match="layer_dims"):
        init_model([4, 8, 8, 2], seed=0)
    with pytest.raises(ValueError, match="positive"):
        init_model([4, 0, 8, 1], seed=0)


def test_forward_matches_hand_computation():
    # x = [1, -1] pushed through fixed weights gives logit exactly -0.1:
    # hidden1 pre-acts [0.35, -0.95] -> [0.35, 0]; hidden2 [0.40, -0.15]
    # -> [0.40, 0]; output 0.40*0.2 - 0.18 = -0.1.
    model = MlpModel(
        (2, 2, 2, 1),
        weights=[
            np.array([[0.5, -0.25], [0.25, 0.5]]),
            np.array([[1.0, -1.0], [0.3, 0.7]]),
            np.array([[0.2], [-0.4]]),
        ],
        biases=[np.array([0.1, -0.2]), np.array([0.05, 0.2]), np.array([-0.18])],
    )
    [p] = posteriors(model, np.array([[1.0, -1.0]]))
    assert abs(p - 1.0 / (1.0 + math.exp(0.1))) < 1e-15
    assert abs(p - 0.4750208) < 1e-7


def test_forward_is_strictly_inside_unit_interval():
    model = init_model([2, 4, 4, 1], seed=0)
    model.weights[2][:] = 1e4  # drive the logit far into a tail
    model.biases[2][:] = 1e4
    [p] = posteriors(model, np.array([[50.0, 50.0]]))
    assert 0.0 < p < 1.0


# ---------------------------------------------------------------------------
# gradients


def _margin_batch(model, rng, n=5, margin=1e-3):
    """Random (x, y) whose hidden pre-activations stay away from the ReLU kink."""
    for _ in range(200):
        x = rng.standard_normal((n, model.layer_dims[0]))
        y = rng.integers(0, 2, size=n).astype(float)
        h = x
        ok = True
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            pre = h @ w + b
            if np.min(np.abs(pre)) < margin:
                ok = False
                break
            h = np.maximum(pre, 0.0)
        if ok and len(np.unique(y)) == 2:
            return x, y
    raise AssertionError("could not sample a kink-free batch")


def test_gradients_match_central_differences():
    rng = np.random.default_rng(17)
    eps = 1e-6
    for trial in range(10):
        model = init_model([3, 4, 4, 1], seed=trial)
        x, y = _margin_batch(model, rng)
        _, gw, gb = loss_and_grads(model, x, y)
        for layer in range(3):
            for arr, grad in ((model.weights[layer], gw[layer]), (model.biases[layer], gb[layer])):
                flat = arr.ravel()
                gflat = grad.ravel()
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + eps
                    lo_hi, _, _ = loss_and_grads(model, x, y)
                    flat[i] = keep - eps
                    lo_lo, _, _ = loss_and_grads(model, x, y)
                    flat[i] = keep
                    numeric = (lo_hi - lo_lo) / (2 * eps)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                    assert abs(numeric - gflat[i]) / denom <= 1e-4


# ---------------------------------------------------------------------------
# training


def test_zero_learning_rate_freezes_the_loss():
    x, y = _separable(128, 1.0, seed=5)
    model = init_model([4, 8, 8, 1], seed=2)
    before = [w.copy() for w in model.weights]
    history = train_arrays(model, x, y, TrainConfig(learning_rate=0.0, epochs=5, seed=9))
    assert len(set(history)) == 1
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)


def test_training_reduces_loss_on_separable_data():
    x, y = _separable(512, 3.0, seed=6)
    model = init_model([4, 8, 8, 1], seed=0)
    history = train_arrays(model, x, y, TrainConfig(epochs=10, seed=1))
    assert history[-1] < history[0] * 0.5


def test_train_is_deterministic_for_fixed_seed():
    x, y = _separable(200, 2.0, seed=8)
    runs = []
    for _ in range(2):
        model = init_model([4, 6, 6, 1], seed=3)
        history = train_arrays(model, x, y, TrainConfig(epochs=3, seed=11))
        runs.append((history, [w.copy() for w in model.weights]))
    assert runs[0][0] == runs[1][0]
    for wa, wb in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(wa, wb)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "n, batch_size, rate",
    [
        (40, 64, 0.3),  # one batch, smaller than batch_size
        (200, 64, 0.3),  # a short last batch
        (130, 7, 0.5),
        (37, 1, 0.3),
        (200, 64, 0.0),
        (40, 10**20, 0.3),  # one batch; numpy holds no dimension this long
    ],
)
def test_train_matches_the_reference_loop_bit_for_bit(seed, n, batch_size, rate):
    x, y = _separable(n, 1.5, seed=seed + 100)
    cfg = TrainConfig(learning_rate=rate, epochs=3, batch_size=batch_size, seed=seed)
    got = init_model([4, 8, 8, 1], seed=seed)
    want = init_model([4, 8, 8, 1], seed=seed)
    history = train_arrays(got, x, y, cfg)
    assert np.array(history).tobytes() == np.array(reference_train(want, x, y, cfg)).tobytes()
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epochs", 0, "epochs: must be positive, got 0"),
        ("batch_size", 0, "batch_size: must be positive, got 0"),
        ("seed", -1, "seed: must be non-negative, got -1"),
    ],
)
def test_train_config_rejects_bad_values_when_built(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**{field: value})


def test_train_rejects_single_class_data():
    x = np.zeros((10, 4))
    y = np.ones(10)
    with pytest.raises(ValueError, match="single class"):
        train_arrays(init_model([4, 4, 4, 1], seed=0), x, y, TrainConfig())


def test_train_rejects_empty_input():
    model = init_model([4, 4, 4, 1], seed=0)
    with pytest.raises(ValueError, match="no training frames"):
        train_arrays(model, np.empty((0, 4)), np.empty(0), TrainConfig())


# ---------------------------------------------------------------------------
# DET / EER


def test_det_curve_single_overlapping_point():
    curve = det_curve([0.5, 0.5], [True, False])
    pt = eer(curve)
    assert pt.eer == pytest.approx(0.5)
    assert pt.threshold == pytest.approx(0.5)  # +inf sentinel clamps to the finite end


def test_eer_exact_crossing_point():
    speech = [0.30, 0.55, 0.60, 0.70, 0.80]
    non = [0.10, 0.20, 0.40, 0.45, 0.90]
    pt = eer(det_curve(speech + non, [True] * 5 + [False] * 5))
    assert pt.eer == pytest.approx(0.2)
    assert pt.threshold == pytest.approx(0.55)


def test_eer_is_zero_for_perfect_separation():
    scores = [0.9, 0.8, 0.1, 0.2]
    assert eer(det_curve(scores, [True, True, False, False])).eer == pytest.approx(0.0)


def test_det_curve_spans_the_sentinels():
    curve = det_curve([0.3, 0.7], [False, True])
    assert curve.fpr[0] == 1.0 and curve.fnr[0] == 0.0
    assert curve.fpr[-1] == 0.0 and curve.fnr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) <= 0)
    assert np.all(np.diff(curve.fnr) >= 0)


def test_det_curve_requires_both_classes():
    with pytest.raises(ValueError, match="both speech and nonspeech"):
        det_curve([0.5, 0.6], [True, True])
    with pytest.raises(ValueError, match="differ in length"):
        det_curve([0.5], [True, False])


def test_eer_matches_exhaustive_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        labels_bool = rng.integers(0, 2, size=n).astype(bool)
        if labels_bool.all() or not labels_bool.any():
            continue
        scores = np.round(rng.random(n), 3).tolist()
        got = eer(det_curve(scores, labels_bool)).eer
        want = float(brute_eer(scores, list(labels_bool)))
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# classification and checkpoints


def test_classify_frames_threshold_semantics():
    model = init_model([2, 4, 4, 1], seed=0)
    x, _ = _separable(20, 1.0, seed=2, dim=2)
    frames = [FrameRecord(k, k * 40, row) for k, row in enumerate(x)]
    p = posteriors(model, x)
    assert np.all((0.0 < p) & (p < 1.0))
    got = classify_frames(model, frames, threshold=0.5)
    assert got == [
        VadDecision(f.time_ms, bool(pk >= 0.5)) for f, pk in zip(frames, p.tolist())
    ]
    assert all(type(d.is_speech) is bool for d in got)
    assert classify_frames(model, [], 0.5) == []


def test_decisions_call_a_posterior_at_the_threshold_speech():
    p = np.array([0.5, np.nextafter(0.5, 0.0), 0.75])
    assert vadnet.speech_flags(p, threshold=0.5).tolist() == [True, False, True]


def test_checkpoint_round_trip_preserves_everything(tmp_path):
    model = init_model([4, 6, 6, 1], seed=13)
    path = str(tmp_path / "vad.mdl")
    save_model(model, path, threshold=0.37)
    loaded, threshold = load_model(path)
    assert threshold == 0.37
    assert loaded.layer_dims == model.layer_dims
    for wa, wb in zip(model.weights, loaded.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model.biases, loaded.biases):
        assert np.array_equal(ba, bb)
    x = np.array([[0.1, -0.2, 0.3, 0.4]])
    assert np.array_equal(posteriors(model, x), posteriors(loaded, x))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.mdl"
    path.write_bytes(b"NOTVADX\x00" + b"\x00" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        load_model(str(path))


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    model = init_model([2, 3, 3, 1], seed=0)
    path = tmp_path / "vad.mdl"
    save_model(model, str(path))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(str(path))


@pytest.mark.parametrize(
    "cut, field",
    [(10, "layer count"), (100, "layer 1 weights"), (-1, "layer 3 bias")],
)
def test_checkpoint_cut_short_names_path_and_field(tmp_path, cut, field):
    model = init_model([4, 16, 16, 1], seed=0)
    path = tmp_path / "vad.mdl"
    save_model(model, str(path))
    path.write_bytes(path.read_bytes()[:cut])
    expected = f"{re.escape(str(path))}: checkpoint cut short in {field}:"
    with pytest.raises(ValueError, match=expected):
        load_model(str(path))


def test_checkpoint_with_absurd_layer_count_is_cut_short(tmp_path):
    path = tmp_path / "vad.mdl"
    path.write_bytes(vadnet.CHECKPOINT_MAGIC + struct.pack("<I", 2**32 - 1) + b"\x00" * 16)
    with pytest.raises(ValueError, match="cut short in layer dims"):
        load_model(str(path))


def test_trained_model_beats_chance_on_held_out_data():
    x, y = _separable(2000, 4.0, seed=21)
    model = init_model([4, 16, 16, 1], seed=7)
    train_arrays(model, x[:1500], y[:1500], TrainConfig(epochs=12, seed=7))
    assert eer(det_curve(posteriors(model, x[1500:]), y[1500:] > 0.5)).eer <= 0.06
