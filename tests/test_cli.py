"""End-to-end tests of the command-line pipeline, run in process."""

import dataclasses
import hashlib
import itertools
import math
import re
import zlib

import numpy as np
import pytest

from endpoint_rt import callfile, cli, endpointer, evaluator, streams, vadnet
from endpoint_rt.cli import load_sim_config, main
from endpoint_rt.endpointer import (
    EndpointerConfig,
    Mode,
    commit_transcript,
    hypothesis_words,
    run_call,
)
from endpoint_rt.evaluator import EvalConfig, pool_scores, score_call
from endpoint_rt.simulator import SimConfig, corrupt_speech, oracle_speech, oracle_vad
from endpoint_rt.streams import (
    BLANK_CODE,
    SPEECH_CODE,
    TokenEvent,
    TokenKind,
    VadDecision,
    merge_streams,
)
from endpoint_rt.vadnet import TrainConfig, init_model, load_model, save_model, train_arrays


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text):
    path = tmp_path / "sim.cfg"
    path.write_text(text)
    return path


ZERO_DELAY_CFG = """
# small, fast calls with instant emission
n_turns = 2
emission_delay = 0, 0, 0
feature_dim = 4
"""
THREE_DIM_CFG = ZERO_DELAY_CFG.replace("feature_dim = 4", "feature_dim = 3")


def simulate(tmp_path, out_name="calls", n_calls=2, config_text=ZERO_DELAY_CFG, seed=10):
    cfg = write_config(tmp_path, config_text)
    out = tmp_path / out_name
    code = run_cli(
        "simulate", "--config", str(cfg), "--out", str(out),
        "--n-calls", str(n_calls), "--seed", str(seed),
    )
    assert code == 0
    return out


def untrained_model(tmp_path, d_in=4, name="vad.mdl"):
    """A checkpoint written without training: enough to drive model: VAD."""
    path = tmp_path / name
    save_model(init_model([d_in, 16, 16, 1], seed=3), str(path), threshold=0.5)
    return path


# ---------------------------------------------------------------------------
# config file parsing


def test_config_file_parses_every_field_kind(tmp_path):
    cfg = load_sim_config(
        write_config(
            tmp_path,
            """
            seed = 3            # simulate starts here unless --seed is given
            n_turns = 5
            turn_dur_ms = 800, 1200
            emission_delay = 10, 5, 50
            feature_separability = 1.5
            frame_ms = 20
            """,
        )
    )
    assert cfg.seed == 3
    assert cfg.n_turns == 5
    assert cfg.turn_dur_ms == (800, 1200)
    assert cfg.emission_delay == (10.0, 5.0, 50.0)
    assert cfg.feature_separability == 1.5
    assert cfg.frame_ms == 20


def _config_text(value):
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_config_file_of_the_default_texts_parses_to_the_defaults(tmp_path):
    defaults = SimConfig()
    text = "".join(
        f"{f.name} = {_config_text(getattr(defaults, f.name))}\n"
        for f in dataclasses.fields(SimConfig)
    )
    assert load_sim_config(write_config(tmp_path, text)) == defaults


@pytest.mark.parametrize(
    "line, message",
    [
        ("turn_dur_ms = 800", "turn_dur_ms: expected 2 comma-separated values"),
        ("emission_delay = 1, 2", "emission_delay: expected 3 comma-separated values"),
        ("n_turns = 2.5", "n_turns: invalid literal for int() with base 10: '2.5'"),
        ("frame_ms = 40, 20", "frame_ms: invalid literal for int() with base 10: '40, 20'"),
        (
            "subwords_per_word = 3, 4.5",
            "subwords_per_word: invalid literal for int() with base 10: '4.5'",
        ),
        (
            "feature_separability = abc",
            "feature_separability: could not convert string to float: 'abc'",
        ),
        (
            "emission_delay = 1, x, 3",
            "emission_delay: could not convert string to float: 'x'",
        ),
    ],
)
def test_config_file_names_the_key_of_a_bad_value(tmp_path, capsys, line, message):
    path = write_config(tmp_path, "n_turns = 2\n" + line + "\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


def test_config_file_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "n_tuns = 5\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2


def test_config_file_rejects_wrong_tuple_arity(tmp_path):
    path = write_config(tmp_path, "turn_dur_ms = 800\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2


def test_config_file_rejects_bare_lines(tmp_path):
    path = write_config(tmp_path, "forty two\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2


def test_simulate_rejects_invalid_config_values(tmp_path, capsys):
    path = write_config(tmp_path, "turn_dur_ms = 900, 700\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    capsys.readouterr()
    # a bad call count fails before the config is read or a file written
    code = run_cli(
        "simulate", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "x"),
        "--n-calls", "-3",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --n-calls: must be >= 1, got -3\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("feature_separability = nan", "feature_separability"),
        ("feature_separability = inf", "feature_separability"),
        ("emission_delay = nan, 1, 2", "emission_delay"),
        ("emission_delay = 150, inf, 400", "emission_delay"),
    ],
)
def test_simulate_rejects_non_finite_config_values(tmp_path, capsys, line, key):
    path = write_config(tmp_path, line + "\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "must be finite" in err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_seeded_call_files(tmp_path, capsys):
    out = simulate(tmp_path, n_calls=3, seed=10)
    names = sorted(p.name for p in out.glob("*.call"))
    assert names == ["sim-00000010.call", "sim-00000011.call", "sim-00000012.call"]
    assert "wrote 3 call files" in capsys.readouterr().out


def test_simulate_seed_defaults_to_the_config_seed(tmp_path):
    path = write_config(tmp_path, "seed = 5\nn_turns = 1\n")
    assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "a")) == 0
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["sim-00000005.call"]
    code = run_cli(
        "simulate", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "7"
    )
    assert code == 0
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["sim-00000007.call"]


def test_negative_seeds_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert run_cli("simulate", "--out", out, "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -1\n"
    missing = str(tmp_path / "no-calls")
    assert run_cli("train-vad", "--calls", missing, "--out", out, "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -1\n"
    path = write_config(tmp_path, "seed = -1\n")
    assert run_cli("simulate", "--config", str(path), "--out", out) == 2
    assert capsys.readouterr().err == "error: seed: must be non-negative, got -1\n"
    assert not (tmp_path / "x").exists()


def test_simulate_is_bit_deterministic(tmp_path):
    a = simulate(tmp_path, out_name="a")
    b = simulate(tmp_path, out_name="b")
    for pa, pb in zip(sorted(a.glob("*.call")), sorted(b.glob("*.call"))):
        assert pa.read_bytes() == pb.read_bytes()


# ---------------------------------------------------------------------------
# train-vad


def test_train_vad_writes_a_usable_checkpoint(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=5)
    model_path = tmp_path / "vad.mdl"
    code = run_cli(
        "train-vad", "--calls", str(calls), "--out", str(model_path),
        "--features", "oracle:4.0", "--epochs", "8", "--seed", "1",
    )
    assert code == 0
    out = capsys.readouterr().out
    match = re.search(r"eer=([0-9.]+)", out)
    assert match is not None
    assert float(match.group(1)) <= 0.2  # 4-sigma features are easy
    model, threshold = load_model(str(model_path))
    assert model.layer_dims == (4, 16, 16, 1)
    assert 0.0 < threshold < 1.0


def test_train_vad_checkpoint_is_deterministic(tmp_path):
    calls = simulate(tmp_path, n_calls=4)
    paths = []
    for name in ("m1.mdl", "m2.mdl"):
        path = tmp_path / name
        code = run_cli(
            "train-vad", "--calls", str(calls), "--out", str(path),
            "--epochs", "3", "--seed", "7",
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_vad_rejects_bad_flags(tmp_path, capsys):
    calls = simulate(tmp_path)
    model = str(tmp_path / "m.mdl")
    assert run_cli("train-vad", "--calls", str(calls), "--out", model, "--hidden", "16") == 2
    assert run_cli("train-vad", "--calls", str(calls), "--out", model, "--holdout", "1.5") == 2
    assert (
        run_cli("train-vad", "--calls", str(calls), "--out", model, "--features", "magic")
        == 2
    )
    # count, size, rate and feature flags fail before any call file is read
    missing = str(tmp_path / "no-calls")
    for flag, value in (
        ("--epochs", "0"),
        ("--batch-size", "0"),
        ("--hidden", "0,16"),
        ("--lr", "nan"),
        ("--lr", "-1"),
        ("--lr", "0"),
        ("--features", "oracle:nan"),
        ("--features", "oracle:inf"),
    ):
        capsys.readouterr()
        assert run_cli("train-vad", "--calls", missing, "--out", model, flag, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    capsys.readouterr()
    assert run_cli("train-vad", "--calls", missing, "--out", model, "--lr", "inf") == 2
    assert capsys.readouterr().err == (
        "error: --lr: must be a positive finite number, got inf\n"
    )
    assert not (tmp_path / "m.mdl").exists()


def test_train_vad_trains_on_the_teacher_column(tmp_path, capsys):
    calls = simulate(tmp_path, config_text=ZERO_DELAY_CFG + "teacher_flip_prob = 0.3\n")
    model_path = tmp_path / "vad.mdl"
    argv = ["train-vad", "--calls", str(calls), "--out", str(model_path), "--epochs", "2"]
    assert run_cli(*argv, "--teacher", "--holdout", "0.5") == 0
    # the first call trains, the second is held out
    first = callfile.load_call(sorted(calls.glob("*.call"))[0])
    assert not np.array_equal(first.teacher_labels, first.labels)
    want = init_model([4, 16, 16, 1], seed=0)
    y = (first.teacher_labels == SPEECH_CODE).astype(float)
    train_arrays(want, first.features, y, TrainConfig(epochs=2))
    got, _ = load_model(str(model_path))
    for wa, wb in zip(want.weights + want.biases, got.weights + got.biases):
        assert np.array_equal(wa, wb)

    # calls without a teacher label cannot train with --teacher
    for path in calls.glob("*.call"):
        call = callfile.load_call(path)
        no_teacher = np.full(len(call.frame_index), -1, dtype=np.int8)
        callfile.save_call(dataclasses.replace(call, teacher_labels=no_teacher), path)
    capsys.readouterr()
    model_path.unlink()
    assert run_cli(*argv, "--teacher") == 1
    assert capsys.readouterr().err == "error: training frame 0 has no teacher_label\n"
    assert not model_path.exists()
    assert run_cli(*argv) == 0


# Long, jittery emission delays and weakly separable features.
NOISY_CFG = "n_turns = 8\nemission_delay = 300, 150, 900\nfeature_separability = 1.5\n"

# sha256 of what `simulate --n-calls 6 --seed 0` writes with NOISY_CFG and of
# the `train-vad --seed 0` checkpoint trained on it, as written when gen_call
# drew one delay per token and train_arrays gathered each batch by index.
PINNED_SETUP_SHA256 = {
    "sim-00000000.call": "c86cb7eb703db3aaace52450aec0a61b2d634717a3c7a17e17eef4b3a0f05c8d",
    "sim-00000001.call": "1b1ae7c972776ebe946e8a9e0703e069e852cffef5eacbb9ad7028520833a68d",
    "sim-00000002.call": "5a7d0fc544fbcca3d5ed14066439e15d3fc0dcbfaee438909617464ba9e0dc48",
    "sim-00000003.call": "34cb009ca19ff66bdd46ca43c60115b18cc7b1d73adc86bc701c9eaa52bf608f",
    "sim-00000004.call": "0a5c759eae52f66ec0c2136d1fc7aad6514d46d51e8dd1c687044f981c863043",
    "sim-00000005.call": "f2f4ba0d9bb75bebd8bedb90f8ec15033c6bdd701d526f4cda980751e43c50f3",
    "vad.mdl": "dfaa359f34336c713726555622245a5d39b0eacc6f0d861093b61829041e2591",
}


def test_simulate_and_train_vad_write_the_pinned_set_up_bytes(tmp_path):
    calls = simulate(tmp_path, n_calls=6, config_text=NOISY_CFG, seed=0)
    model_path = tmp_path / "vad.mdl"
    assert run_cli("train-vad", "--calls", str(calls), "--out", str(model_path), "--seed", "0") == 0
    paths = sorted(calls.glob("*.call")) + [model_path]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == PINNED_SETUP_SHA256


def test_train_vad_loss_stays_finite_when_the_squared_weights_overflow(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=5, config_text=NOISY_CFG, seed=0)
    model_path = tmp_path / "vad.mdl"
    argv = ["--calls", str(calls), "--out", str(model_path), "--lr", "1e6", "--epochs", "3"]
    capsys.readouterr()
    assert run_cli("train-vad", *argv, "--seed", "0") == 0
    assert "final_epoch_loss=129835.796387\n" in capsys.readouterr().out
    # a 0 * inf l2 term once made this loss nan
    model, _ = load_model(str(model_path))
    with np.errstate(over="ignore"):
        assert math.isinf(sum(float(np.sum(w * w)) for w in model.weights))


def test_train_vad_fails_cleanly_without_calls(tmp_path):
    assert run_cli("train-vad", "--calls", str(tmp_path / "nope"), "--out", "m.mdl") == 1


def test_train_vad_on_calls_without_frames_fails_cleanly(tmp_path, capsys):
    calls = tmp_path / "calls"
    calls.mkdir()
    for k in range(3):
        (calls / f"c{k}.call").write_text(f"{callfile.FORMAT_LINE}\ncall c{k} 40 4\n")
    model = tmp_path / "m.mdl"
    code = run_cli("train-vad", "--calls", str(calls), "--out", str(model))
    assert code == 1
    assert capsys.readouterr().err == f"error: {calls}: the training calls hold no frames\n"
    assert not model.exists()


def _set_feature(path, frame, value):
    """Rewrite one feature of a call file (the format keeps nan and inf)."""
    call = callfile.load_call(path)
    features = call.features.copy()
    features[frame, 2] = value
    callfile.save_call(dataclasses.replace(call, features=features), path)


@pytest.mark.parametrize(
    "position, value",
    [(0, float("nan")), (1, float("-inf")), (2, float("inf"))],  # call 2 is held out
)
def test_train_vad_names_the_frame_of_a_non_finite_feature(tmp_path, capsys, position, value):
    calls = simulate(tmp_path, n_calls=3)
    path = sorted(calls.glob("*.call"))[position]
    _set_feature(path, 7, value)
    model = tmp_path / "m.mdl"
    capsys.readouterr()
    code = run_cli("train-vad", "--calls", str(calls), "--out", str(model), "--epochs", "1")
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: sim-{10 + position:08d}: frame 7 has a non-finite feature\n"
    )
    assert not model.exists()


# ---------------------------------------------------------------------------
# endpoint


def test_endpoint_writes_pairs_per_call(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    out = tmp_path / "eps"
    code = run_cli("endpoint", "--calls", str(calls), "--out", str(out), "--mode", "TS")
    assert code == 0
    assert sorted(p.suffix for p in out.iterdir()) == [
        ".endpoints", ".endpoints", ".transcript", ".transcript",
    ]
    _, mode, endpoints = callfile.load_endpoints(out / "sim-00000010.endpoints")
    assert mode is Mode.TS
    assert endpoints  # a two-turn call always ends at least one turn


@pytest.mark.parametrize("mode", [m.value for m in Mode])
def test_endpoint_files_match_the_library(tmp_path, mode):
    # noisy emission, so calls hold blanks and words split across endpoints
    calls = simulate(tmp_path, n_calls=2, config_text=SWEEP_CFG)
    out = tmp_path / "eps"
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(out), "--mode", mode,
        "--delta-ms", "200",
    )
    assert code == 0
    for path in sorted(calls.glob("*.call")):
        call = callfile.load_call(path)
        cfg = EndpointerConfig(Mode(mode), ts_threshold_ms=200, frame_ms=call.frame_ms)
        vad = [] if cfg.mode is Mode.BLANK else oracle_vad(call)
        endpoints = run_call(cfg, merge_streams(vad, call.tokens))
        turns = commit_transcript(call.tokens, endpoints, call.end_ms)
        stem = out / call.call_id
        loaded = callfile.load_endpoints(f"{stem}.endpoints")
        assert loaded == (call.call_id, cfg.mode, endpoints)
        callfile.save_transcripts(call.call_id, turns, tmp_path / "want.transcript")
        want = (tmp_path / "want.transcript").read_text()
        assert (out / f"{call.call_id}.transcript").read_text() == want


def test_endpoint_rejects_unknown_mode(tmp_path):
    calls = simulate(tmp_path)
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "e"),
        "--mode", "PAUSE",
    )
    assert code == 2


def test_endpoint_rejects_bad_vad_spec(tmp_path, capsys):
    calls = simulate(tmp_path)
    out = tmp_path / "e"
    # BLANK reads no VAD, and its spec is still checked
    for mode in ("TS", "BLANK"):
        base = ("endpoint", "--calls", str(calls), "--out", str(out), "--mode", mode)
        capsys.readouterr()
        assert run_cli(*base, "--vad", "psychic") == 2
        assert capsys.readouterr().err.startswith("error: --vad: expected model:<path>")
        assert run_cli(*base, "--vad", "corrupted:0.9") == 2
        assert run_cli(*base, "--vad", "corrupted:abc") == 2
        assert capsys.readouterr().err.count("error: --vad: ") == 2
        assert not out.exists()


MIXED_GRID_ERROR = (
    "error: sim-00000012: call frame_ms=20 does not match configured frame_ms=40\n"
)


def simulate_mixed_grids(tmp_path, capsys):
    """Two 40 ms calls, then a 20 ms one: the first call sets the grid."""
    mixed = simulate(tmp_path, out_name="mixed")
    cfg = write_config(tmp_path, ZERO_DELAY_CFG)
    assert run_cli(
        "simulate", "--config", str(cfg), "--out", str(mixed),
        "--n-calls", "1", "--seed", "12", "--frame-ms", "20",
    ) == 0
    capsys.readouterr()
    return mixed


def test_endpoint_rejects_mismatched_frame_ms(tmp_path, capsys):
    mixed = simulate_mixed_grids(tmp_path, capsys)
    ep_out = tmp_path / "e"
    code = run_cli(
        "endpoint", "--calls", str(mixed), "--out", str(ep_out), "--delta-ms", "200"
    )
    assert code == 1
    assert capsys.readouterr().err == MIXED_GRID_ERROR
    assert not ep_out.exists()


def test_endpoint_with_trained_model_vad(tmp_path):
    calls = simulate(tmp_path, n_calls=4)
    model_path = tmp_path / "vad.mdl"
    assert (
        run_cli(
            "train-vad", "--calls", str(calls), "--out", str(model_path),
            "--features", "oracle:6.0", "--epochs", "8",
        )
        == 0
    )
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "e"),
        "--vad", f"model:{model_path}",
    )
    assert code == 0


def test_endpoint_model_vad_missing_file_fails(tmp_path):
    calls = simulate(tmp_path)
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "e"),
        "--vad", "model:/does/not/exist.mdl",
    )
    assert code == 1


@pytest.mark.parametrize("cut", [10, 100, -1])
def test_endpoint_truncated_checkpoint_fails_cleanly(tmp_path, capsys, cut):
    calls = simulate(tmp_path)
    full = untrained_model(tmp_path).read_bytes()
    path = tmp_path / "cut.mdl"
    path.write_bytes(full[:cut])
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "e"),
        "--vad", f"model:{path}",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}: checkpoint cut short" in err
    assert "Traceback" not in err


def test_endpoint_model_with_other_feature_dim_fails(tmp_path, capsys):
    calls = simulate(tmp_path, config_text=THREE_DIM_CFG)
    model = untrained_model(tmp_path, d_in=4)
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "e"),
        "--vad", f"model:{model}",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "sim-00000010: model expects 4 features per frame, call has 3" in err


# ---------------------------------------------------------------------------
# evaluate


def _pooled_line(capsys):
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("pooled:"):
            return dict(kv.split("=", 1) for kv in line.split()[1:])
    raise AssertionError(f"no pooled line in output:\n{out}")


def test_perfect_pipeline_scores_perfectly(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=3)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    report_path = tmp_path / "report.csv"
    code = run_cli(
        "evaluate", "--calls", str(calls), "--endpoints", str(eps),
        "--out", str(report_path),
    )
    assert code == 0
    pooled = _pooled_line(capsys)
    assert pooled["precision"] == "1.0000"
    assert pooled["recall"] == "1.0000"
    assert pooled["f1"] == "1.0000"
    assert pooled["wer"] == "0.0000"
    assert pooled["mean_latency_ms"] == "200.0"
    rows = callfile.load_report(report_path)
    assert len(rows) == 1
    assert rows[0].mode is Mode.TS
    assert rows[0].report.precision == 1.0


def test_shifted_endpoints_score_zero_recall(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    for path in eps.glob("*.endpoints"):
        call_id, mode, endpoints = callfile.load_endpoints(path)
        shifted = [
            type(e)(e.time_ms + 5000, e.trigger, e.silence_start_ms + 5000, e.deferred_by_ms)
            for e in endpoints
        ]
        callfile.save_endpoints(call_id, mode, shifted, path)
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 0
    pooled = _pooled_line(capsys)
    assert pooled["recall"] == "0.0000"
    assert pooled["precision"] == "0.0000"


def test_evaluate_fails_on_missing_pair(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    (eps / "sim-00000011.endpoints").unlink()
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == (
        f"error: sim-00000011: no endpoints file in {eps}\n"
    )


@pytest.mark.parametrize("command", ["endpoint", "evaluate", "tradeoff"])
def test_a_call_id_given_by_two_call_files_is_refused(tmp_path, capsys, command):
    # else endpoint writes one call's files over the other's, and evaluate
    # pools the call twice
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    first, copy = calls / "sim-00000010.call", calls / "zz-copy.call"
    copy.write_bytes(first.read_bytes())
    out = tmp_path / "out"
    flags = {
        "endpoint": ("--out", str(out)),
        "evaluate": ("--endpoints", str(eps), "--out", str(out)),
        "tradeoff": ("--out", str(out), "--vad", "oracle"),
    }[command]
    capsys.readouterr()
    assert run_cli(command, "--calls", str(calls), *flags) == 1
    assert capsys.readouterr().err == (
        f"error: {first} and {copy} both give call sim-00000010\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("damage", ["deleted", "garbled"])
def test_evaluate_reads_no_transcript(tmp_path, damage):
    # evaluate commits each call's words from its endpoints itself
    calls = simulate(tmp_path, n_calls=3, config_text=SWEEP_CFG)
    eps = tmp_path / "eps"
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(eps), "--mode", "TS_AND_EOW"
    )
    assert code == 0
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    argv = ("evaluate", "--calls", str(calls), "--endpoints", str(eps), "--out")
    assert run_cli(*argv, str(before)) == 0
    transcripts = sorted(eps.glob("*.transcript"))
    assert len(transcripts) == 3
    for path in transcripts:
        if damage == "deleted":
            path.unlink()
        else:
            path.write_bytes(b"format=1\ncall nobody\nturn 9 5 0 \xff*\n")
    assert run_cli(*argv, str(after)) == 0
    assert after.read_bytes() == before.read_bytes()


def test_evaluate_scores_the_words_its_endpoints_commit(tmp_path, capsys):
    # BLANK runs split words; with its endpoints gone, each call is one
    # turn that commits every word whole, whatever the transcript says
    calls = simulate(tmp_path, n_calls=3, config_text=SWEEP_CFG)
    eps = tmp_path / "eps"
    code = run_cli("endpoint", "--calls", str(calls), "--out", str(eps), "--mode", "BLANK")
    assert code == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 0
    assert float(_pooled_line(capsys)["wer"]) > 0
    for path in eps.glob("*.endpoints"):
        call_id, mode, _ = callfile.load_endpoints(path)
        callfile.save_endpoints(call_id, mode, [], path)
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 0
    pooled = _pooled_line(capsys)
    assert (pooled["wer"], pooled["recall"]) == ("0.0000", "0.0000")


def test_evaluate_names_the_file_of_out_of_order_endpoints(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    path = eps / "sim-00000011.endpoints"
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("endpoint "))
    later, earlier = (int(lines[k].split()[1]) for k in (first + 1, first))
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{first + 2}: endpoint at {earlier} ms precedes the previous "
        f"endpoint at {later} ms\n"
    )


def test_evaluate_names_the_file_of_a_repeated_mode_line(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    code = run_cli("endpoint", "--calls", str(calls), "--out", str(eps), "--mode", "EOW")
    assert code == 0
    path = eps / "sim-00000010.endpoints"
    lines = path.read_text().splitlines()
    assert lines[2] == "mode EOW"
    lines.insert(3, "mode TS_AND_EOW")
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == f"error: {path}:4: duplicate mode line\n"


def test_evaluate_names_the_file_of_a_call_id_mismatch(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    path = eps / "sim-00000010.endpoints"
    lines = path.read_text().splitlines()
    assert lines[1] == "call sim-00000010"
    lines[1] = "call sim-00000099"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == f"error: {path}: call id mismatch with sim-00000010\n"


def test_evaluate_rejects_bad_tolerance(tmp_path):
    calls = simulate(tmp_path)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    code = run_cli(
        "evaluate", "--calls", str(calls), "--endpoints", str(eps),
        "--tolerance-ms", "0",
    )
    assert code == 2


def test_evaluate_checks_its_flags_before_any_file(tmp_path, capsys):
    calls = simulate(tmp_path)
    code = run_cli(
        "evaluate", "--calls", str(calls), "--endpoints", str(tmp_path / "nope"),
        "--tolerance-ms", "0",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: tolerance_ms: must be positive, got 0\n"


# ---------------------------------------------------------------------------
# tradeoff


def test_tradeoff_writes_full_factorial(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    report_path = tmp_path / "sweep.csv"
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(report_path),
        "--deltas", "600,200,800,400",  # rows still come out by ascending delta
    )
    assert code == 0
    rows = callfile.load_report(report_path)
    assert len(rows) == 16  # 4 modes x 4 deltas
    combos = {(r.mode, r.delta_ms) for r in rows}
    assert len(combos) == 16
    for mode in Mode:
        deltas = [r.delta_ms for r in rows if r.mode is mode]
        assert deltas == sorted(deltas) == [200, 400, 600, 800]
    assert "wrote 16 rows" in capsys.readouterr().out


def test_tradeoff_rejects_a_single_delta(tmp_path):
    calls = simulate(tmp_path)
    for deltas in ("200", "200,200,400"):
        code = run_cli(
            "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
            "--deltas", deltas,
        )
        assert code == 2


def test_tradeoff_rejects_off_grid_delta(tmp_path):
    calls = simulate(tmp_path)
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--deltas", "200,250",
    )
    assert code == 2


def test_tradeoff_rejects_unknown_mode(tmp_path):
    calls = simulate(tmp_path)
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--modes", "TS,PAUSE",
    )
    assert code == 2


def test_tradeoff_rejects_a_repeated_mode_before_loading(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(
        "tradeoff", "--calls", str(tmp_path / "nope"), "--out", str(out),
        "--modes", "TS,EOW,TS", "--deltas", "200,400",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --modes: TS is given more than once\n"
    assert not out.exists()


def test_tradeoff_rejects_bad_flags_before_any_call_runs(tmp_path):
    calls = simulate(tmp_path)
    out = str(tmp_path / "r.csv")
    base = ("tradeoff", "--calls", str(calls), "--out", out)
    assert run_cli(*base, "--tolerance-ms", "0") == 2
    assert run_cli(*base, "--deltas=-200,200") == 2
    assert run_cli(*base, "--vad", "psychic") == 2
    # BLANK reads no VAD, and its spec is still checked
    assert run_cli(*base, "--modes", "BLANK", "--vad", "psychic") == 2
    assert run_cli(*base, "--modes", "BLANK", "--vad", "corrupted:abc") == 2
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("modes", [[], ["--modes", "BLANK"]], ids=["default", "BLANK"])
def test_tradeoff_rejects_mismatched_frame_ms(tmp_path, capsys, modes):
    # with only BLANK the sweep reads no VAD flags, and still checks the grid
    mixed = simulate_mixed_grids(tmp_path, capsys)
    out = tmp_path / "r.csv"
    code = run_cli(
        "tradeoff", "--calls", str(mixed), "--out", str(out), "--deltas", "200,400", *modes
    )
    assert code == 1
    assert capsys.readouterr() == ("", MIXED_GRID_ERROR)
    assert not out.exists()


def test_tradeoff_rejects_a_cap_below_every_delta_before_loading(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(
        "tradeoff", "--calls", str(tmp_path / "nope"), "--out", str(out),
        "--deferral-cap-ms", "-5",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --deferral-cap-ms: -5 is below the smallest delta 200\n"
    )
    assert not out.exists()


def test_tradeoff_raises_a_cap_below_some_deltas_to_each_delta(tmp_path):
    calls = simulate(tmp_path, n_calls=2, config_text=SWEEP_CFG)
    got = tmp_path / "cli.csv"
    want = tmp_path / "library.csv"
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(got),
        "--deferral-cap-ms", "400",
    )
    assert code == 0
    _library_report(calls, oracle_vad, want, cap=400)
    assert got.read_bytes() == want.read_bytes()


def test_tradeoff_data_failure_exits_1(tmp_path, capsys):
    calls = simulate(tmp_path, config_text=THREE_DIM_CFG)
    model = untrained_model(tmp_path, d_in=4)
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--vad", f"model:{model}",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "sim-00000010: model expects 4 features per frame, call has 3" in err


@pytest.mark.parametrize("command", ["tradeoff", "endpoint"])
def test_model_vad_names_the_frame_of_a_non_finite_feature(tmp_path, capsys, command):
    calls = simulate(tmp_path)
    _set_feature(sorted(calls.glob("*.call"))[1], 5, float("nan"))
    out = tmp_path / "out"
    base = (command, "--calls", str(calls), "--out", str(out))
    model = untrained_model(tmp_path)
    capsys.readouterr()
    assert run_cli(*base, "--vad", f"model:{model}") == 1
    assert capsys.readouterr().err == "error: sim-00000011: frame 5 has a non-finite feature\n"
    # both commands compute every call before writing: no file, no directory
    assert not out.exists()
    # only the model reads features
    assert run_cli(*base, "--vad", "oracle") == 0


def _garble_features(path, frames=None):
    """Rewrite the feature values of a call file's frame lines (of every
    frame, or of ``frames``) as ``abc``: the count is right, the text no float."""
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        fields = line.split(" ")
        if fields[0] == "frame" and (frames is None or int(fields[1]) in frames):
            lines[k] = " ".join(fields[:4] + ["abc"] * (len(fields) - 4))
    path.write_text("\n".join(lines) + "\n")


def _counting_feature_reads(monkeypatch):
    """The paths of the call files whose feature text is converted, one per read."""
    reads = []
    read = callfile._read_features

    def counted(path, *args):
        reads.append(path)
        return read(path, *args)

    monkeypatch.setattr(callfile, "_read_features", counted)
    return reads


def _tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


def test_oracle_runs_and_evaluate_never_read_a_feature(tmp_path, monkeypatch, capsys):
    clean = simulate(tmp_path, n_calls=2, config_text=SWEEP_CFG)
    garbled = simulate(tmp_path, "garbled", n_calls=2, config_text=SWEEP_CFG)
    for path in garbled.glob("*.call"):
        _garble_features(path)
    reads = _counting_feature_reads(monkeypatch)
    for mode, vad in itertools.product([m.value for m in Mode], ["oracle", "corrupted:0.2"]):
        outs = []
        for calls in (clean, garbled):
            out = tmp_path / f"{calls.name}-{mode}-{vad}"
            argv = ("--calls", str(calls), "--out", str(out / "eps"))
            assert run_cli("endpoint", *argv, "--mode", mode, "--vad", vad) == 0
            code = run_cli(
                "evaluate", "--calls", str(calls), "--endpoints", str(out / "eps"),
                "--out", str(out / "report.csv"),
            )
            assert code == 0
            outs.append(_tree(out))
        assert outs[0] == outs[1] and len(outs[0]) == 5
    assert reads == []
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-vad", "endpoint", "tradeoff"])
def test_model_reads_name_the_line_of_a_feature_that_is_no_float(tmp_path, capsys, command):
    calls = simulate(tmp_path)
    path = sorted(calls.glob("*.call"))[1]
    _garble_features(path, frames={5})  # frame 5 is on line 8
    out = tmp_path / "out"
    if command == "train-vad":
        argv = (command, "--calls", str(calls), "--out", str(out), "--epochs", "1")
    else:
        model = untrained_model(tmp_path)
        argv = (command, "--calls", str(calls), "--out", str(out), "--vad", f"model:{model}")
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:8: bad frame record: could not convert string to float: 'abc'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("values", ["1 2 3", "1 2 3 4 5"])
def test_evaluate_refuses_a_frame_line_with_a_wrong_value_count(tmp_path, capsys, values):
    # evaluate reads no feature value, and still counts them
    calls = simulate(tmp_path)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    path = sorted(calls.glob("*.call"))[0]
    lines = path.read_text().splitlines()
    lines[5] = " ".join(lines[5].split()[:4]) + " " + values  # frame 3, on line 6
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:6: frame line has {len(values.split())} feature values, expected 4\n"
    )


def test_tradeoff_with_a_model_converts_each_call_s_features_once(tmp_path, monkeypatch):
    calls = simulate(tmp_path, n_calls=3)
    model = untrained_model(tmp_path)
    reads = _counting_feature_reads(monkeypatch)
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--vad", f"model:{model}",
    )
    assert code == 0
    assert sorted(map(str, reads)) == sorted(map(str, calls.glob("*.call")))


def test_tradeoff_blank_only_never_reads_the_vad(tmp_path):
    calls = simulate(tmp_path)
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--modes", "BLANK", "--vad", f"model:{tmp_path / 'missing.mdl'}",
    )
    assert code == 0


def test_endpoint_blank_never_reads_the_vad(tmp_path):
    calls = simulate(tmp_path)
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps"),
        "--mode", "BLANK", "--vad", f"model:{tmp_path / 'missing.mdl'}",
    )
    assert code == 0


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_tradeoff_classifies_and_merges_each_call_once(tmp_path, monkeypatch):
    calls = simulate(tmp_path, n_calls=3)
    model = untrained_model(tmp_path)
    counts = {"load_model": 0, "posteriors": 0, "classify_frames": 0, "merge_streams": 0}
    distinct_lists = []
    sweep = cli.run_sweep

    def recording_sweep(cfgs, call, is_speech):
        result = sweep(cfgs, call, is_speech)
        distinct_lists.append(len({tuple(endpoints) for endpoints in result}))
        return result

    monkeypatch.setattr(cli, "run_sweep", recording_sweep)
    _counting(monkeypatch, vadnet, "load_model", counts)
    _counting(monkeypatch, vadnet, "posteriors", counts)
    _counting(monkeypatch, vadnet, "classify_frames", counts)
    _counting(monkeypatch, streams, "merge_streams", counts)
    _counting(monkeypatch, cli, "merge_streams", counts)
    steps = {"step": 0}
    _counting(monkeypatch, endpointer.Endpointer, "step", steps)
    scored = []  # per call: (the token cuts words were built for, kernel inputs)
    score_runs = cli.score_runs
    turn_words = evaluator.turn_words
    kernel = evaluator.edit_distance_counts_batch

    def recording_score_runs(call, runs):
        scored.append(([], []))
        return score_runs(call, runs)

    def recording_turn_words(tokens, cuts):
        scored[-1][0].append(tuple(cuts))
        return turn_words(tokens, cuts)

    def recording_kernel(a, bs):
        scored[-1][1].append((tuple(a), tuple(tuple(b) for b in bs)))
        return kernel(a, bs)

    monkeypatch.setattr(cli, "score_runs", recording_score_runs)
    monkeypatch.setattr(evaluator, "turn_words", recording_turn_words)
    monkeypatch.setattr(evaluator, "edit_distance_counts_batch", recording_kernel)
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--vad", f"model:{model}",
    )
    assert code == 0
    # one load per command and per call one classification from the call's
    # columns (no per-frame records); every mode reads the columns, so no
    # timeline is merged and no machine steps
    assert counts == {
        "load_model": 1, "posteriors": 3, "classify_frames": 0, "merge_streams": 0
    }
    assert steps == {"step": 0}
    # each distinct token cut of a call builds its words once, at most once
    # per distinct endpoint list, and the four EOW deltas share one list
    assert len(distinct_lists) == len(scored) == 3
    for (cuts, batches), n_lists in zip(scored, distinct_lists):
        assert len(cuts) == len(set(cuts)) <= n_lists <= 13
        # one batched WER per call scores each distinct hypothesis once
        [(_, hyps)] = batches
        assert len(hyps) == len(set(hyps)) <= len(cuts)
    # the calls' references differ
    assert len({batches[0][0] for _, batches in scored}) == 3


def test_commands_build_token_events_only_for_non_blank_tokens(tmp_path, monkeypatch):
    calls = simulate(tmp_path, n_calls=3)
    paths = sorted(calls.glob("*.call"))
    kinds = [callfile.load_call(p).token_kind for p in paths]
    non_blank = sum(int(np.count_nonzero(k != BLANK_CODE)) for k in kinds)
    assert 0 < non_blank < sum(len(k) for k in kinds)
    built = []
    init = TokenEvent.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.kind)

    monkeypatch.setattr(TokenEvent, "__init__", counting_init)
    # loading a call, which checks every invariant, builds none
    for path in paths:
        callfile.load_call(path)
    assert built == []
    # each command builds one per non-BLANK token of its calls, and no BLANK
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(tmp_path / "r.csv"),
        "--vad", "oracle",
    )
    assert code == 0
    assert len(built) == non_blank and TokenKind.BLANK not in built
    built.clear()
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps"),
        "--mode", "TS_AND_EOW",
    )
    assert code == 0
    assert len(built) == non_blank and TokenKind.BLANK not in built


SWEEP_CFG = """
n_turns = 3
feature_dim = 4
"""


def _library_vad(spec, seed=0):
    if spec == "oracle":
        return oracle_vad
    if spec.startswith("corrupted:"):
        rate = float(spec.partition(":")[2])

        def corrupted(call):
            call_seed = (seed + zlib.crc32(call.call_id.encode())) % 2**32
            speech = corrupt_speech(oracle_speech(call), rate, call_seed)
            return list(map(VadDecision, call.frame_times.tolist(), speech.tolist()))

        return corrupted
    model, threshold = load_model(spec.partition(":")[2])
    return lambda call: vadnet.classify_frames(model, call.frames, threshold)


def _library_report(
    calls_dir, vad, path, deltas=(200, 400, 600, 800), tol=200, cap=1000
):
    """The sweep built config by config from the library, fresh merge each time."""
    calls = [callfile.load_call(p) for p in sorted(calls_dir.glob("*.call"))]
    frame_ms = calls[0].frame_ms
    rows = []
    for mode in Mode:
        for delta in deltas:
            cfg = EndpointerConfig(
                mode=mode,
                ts_threshold_ms=delta,
                blank_run_frames=max(1, delta // frame_ms),
                deferral_cap_ms=max(cap, delta),
                frame_ms=frame_ms,
            )
            scores = []
            for call in calls:
                decisions = [] if mode is Mode.BLANK else vad(call)
                endpoints = run_call(cfg, merge_streams(decisions, call.tokens))
                transcripts = commit_transcript(call.tokens, endpoints, call.end_ms)
                scores.append(
                    score_call(
                        [seg.end_ms for seg in call.segments],
                        endpoints,
                        [w for seg in call.segments for w in seg.words],
                        hypothesis_words(transcripts),
                        EvalConfig(delta, tol),
                    )
                )
            rows.append(callfile.ReportRow(mode, delta, tol, pool_scores(scores)))
    callfile.save_report(rows, path)


@pytest.mark.parametrize("spec", ["model:", "oracle", "corrupted:0.1"])
def test_tradeoff_report_matches_a_per_config_library_sweep(tmp_path, spec):
    calls = simulate(tmp_path, n_calls=3, config_text=SWEEP_CFG)
    if spec == "model:":
        spec += str(untrained_model(tmp_path))
    got = tmp_path / "cli.csv"
    want = tmp_path / "library.csv"
    code = run_cli("tradeoff", "--calls", str(calls), "--out", str(got), "--vad", spec)
    assert code == 0
    _library_report(calls, _library_vad(spec), want)
    assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# harness behavior


def test_log_level_env_var_is_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENDPOINT_RT_LOG", "DEBUG")
    simulate(tmp_path)
    capsys.readouterr()  # drained; smoke only: the run must still exit 0


def test_missing_subcommand_is_a_usage_error():
    assert run_cli() == 2


def test_unreadable_calls_directory_fails(tmp_path):
    (tmp_path / "empty").mkdir()
    assert run_cli("endpoint", "--calls", str(tmp_path / "empty"), "--out", "x") == 1


def test_swapped_frame_lines_name_the_call_file(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=1)
    path = calls / "sim-00000010.call"
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("frame "))
    lines[first + 3], lines[first + 4] = lines[first + 4], lines[first + 3]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli("endpoint", "--calls", str(calls), "--out", str(tmp_path / "e"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{first + 5}: sim-00000010: frame 4: "
        "frame index 3 does not follow previous 4\n"
    )


@pytest.mark.parametrize(
    "argv", [("endpoint", "--mode", "TS"), ("endpoint", "--mode", "EOW"), ("tradeoff",)]
)
def test_a_frame_time_beyond_int64_names_the_call_file(tmp_path, capsys, argv):
    # 2**60 frames of 40 ms end past 2**63 ms
    calls = simulate(tmp_path, n_calls=1)
    path = calls / "sim-00000010.call"
    lines = path.read_text().splitlines()
    frames = [k for k, line in enumerate(lines) if line.startswith("frame ")]
    parts = lines[frames[-1]].split()
    parts[1] = str(2**60)
    lines[frames[-1]] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli(*argv, "--calls", str(calls), "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{frames[-1] + 1}: sim-00000010: frame {len(frames) - 1}: "
        f"frame {2**60} ends at {(2**60 + 1) * 40} ms, beyond the int64 range\n"
    )


FRAMELESS_CALL = """format=1
call c0 40 4
token 0 SUBWORD ba 0
token 40 EOW - 0
""" + "".join(f"token {t} BLANK - -\n" for t in range(80, 400, 40)) + """token 400 SUBWORD zo 1
token 440 EOW - 1
"""


@pytest.mark.parametrize("mode", ["BLANK", "TS"])
def test_a_frameless_call_bounds_its_tokens_at_0_ms(tmp_path, capsys, mode):
    # its end is 0 ms, so a turn committed after its first endpoint would
    # end before it starts
    calls = tmp_path / "calls"
    calls.mkdir()
    path = calls / "c0.call"
    path.write_text(FRAMELESS_CALL)
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps"),
        "--mode", mode, "--blank-frames", "6",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}:4: c0: token 1: emit time 40 outside call bounds [0, 0]\n"
    )


def test_endpoint_names_the_line_of_a_token_text_ending_in_the_fragment_mark(
    tmp_path, capsys
):
    # its word would be written to the transcript as "ka*", which loads
    # back as the unclosed word "ka"
    calls = tmp_path / "calls"
    calls.mkdir()
    path = calls / "c0.call"
    path.write_text(
        "format=1\ncall c0 40 1\nframe 0 speech - 0.0\nframe 1 nonspeech - 0.0\n"
        "token 0 BLANK - -\ntoken 40 SUBWORD ka* 0\ntoken 40 EOW - 0\n"
    )
    code = run_cli("endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}:6: bad token record: "
        "token text ends in '*', the mark of an unclosed word\n"
    )


OPEN_DEFERRAL_CALL = """format=1
call c0 40 1
""" + "".join(
    f"frame {k} {'speech' if k < 4 else 'nonspeech'} - 0.0\n" for k in range(10)
) + """token 40 SUBWORD ka 0
segment 0 160 ka
"""


def test_endpoint_times_out_a_deferral_still_open_at_the_last_event(tmp_path):
    # no EOW closes the word, so the TS_AND_EOW deferral armed at 240 ms
    # times out where the stream ends: at its last event, the frame at 360 ms
    calls = tmp_path / "calls"
    calls.mkdir()
    (calls / "c0.call").write_text(OPEN_DEFERRAL_CALL)
    eps = tmp_path / "eps"
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(eps),
        "--mode", "TS_AND_EOW", "--delta-ms", "80",
    )
    assert code == 0
    lines = (eps / "c0.endpoints").read_text().splitlines()
    assert lines[3:] == ["endpoint 360 DEFERRAL_TIMEOUT 160 120"]


def test_corrupt_call_file_fails_cleanly(tmp_path):
    d = tmp_path / "calls"
    d.mkdir()
    (d / "sim-0.call").write_text("not a call file\n")
    assert run_cli("endpoint", "--calls", str(d), "--out", str(tmp_path / "e")) == 1


def test_blank_runs_longer_than_int64_end_no_turn(tmp_path):
    calls = simulate(tmp_path, n_calls=1)
    eps = tmp_path / "eps"
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(eps),
        "--mode", "BLANK", "--blank-frames", str(2**63),
    )
    assert code == 0
    assert "endpoint " not in (eps / "sim-00000010.endpoints").read_text()
    # a delta of 2**63 * 40 ms or more is a BLANK run of 2**63 frames or more
    out = tmp_path / "r.csv"
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(out),
        "--deltas", "200,99999999999999999999960",
    )
    assert code == 0
    assert len(callfile.load_report(out)) == 8


EMPTY_WORD_CALL = """format=1
call c0 40 1
""" + "".join(
    f"frame {k} {'speech' if k < 10 else 'nonspeech'} - 0.0\n" for k in range(30)
) + """token 200 SUBWORD - 0
token 400 EOW - 0
segment 0 400 -
"""


def test_evaluate_and_tradeoff_score_an_empty_word_alike(tmp_path):
    # the placeholder - is the empty text in token, segment and turn words
    calls = tmp_path / "calls"
    calls.mkdir()
    (calls / "c0.call").write_text(EMPTY_WORD_CALL)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps), "--mode", "EOW") == 0
    evaluated, swept = tmp_path / "evaluate.csv", tmp_path / "tradeoff.csv"
    code = run_cli(
        "evaluate", "--calls", str(calls), "--endpoints", str(eps),
        "--delta-ms", "200", "--out", str(evaluated),
    )
    assert code == 0
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(swept),
        "--modes", "EOW", "--deltas", "200,400",
    )
    assert code == 0
    [row] = callfile.load_report(evaluated)
    assert row == callfile.load_report(swept)[0]
    assert row.report.wer == 0.0


@pytest.mark.parametrize("mode", [m.value for m in Mode])
def test_evaluate_and_tradeoff_score_every_mode_alike(tmp_path, mode):
    calls = simulate(tmp_path, n_calls=3, config_text=SWEEP_CFG)
    eps = tmp_path / "eps"
    code = run_cli(
        "endpoint", "--calls", str(calls), "--out", str(eps), "--mode", mode,
        "--delta-ms", "400", "--blank-frames", "10",
    )
    assert code == 0
    evaluated, swept = tmp_path / "evaluate.csv", tmp_path / "tradeoff.csv"
    code = run_cli(
        "evaluate", "--calls", str(calls), "--endpoints", str(eps),
        "--delta-ms", "400", "--out", str(evaluated),
    )
    assert code == 0
    code = run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(swept),
        "--modes", mode, "--deltas", "200,400",
    )
    assert code == 0
    [row] = callfile.load_report(evaluated)
    assert row == callfile.load_report(swept)[1]
    assert (row.mode.value, row.delta_ms) == (mode, 400)
