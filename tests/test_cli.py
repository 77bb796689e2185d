"""End-to-end tests of the command-line pipeline, run in process."""

import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from oracles import write_decimal_call

import endpoint_rt
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


def as_decimal(calls):
    """Rewrite every call file under ``calls`` in place as ``format=1``."""
    for path in calls.glob("*.call"):
        write_decimal_call(path, path)
    return calls


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


def test_config_file_refuses_a_key_set_twice(tmp_path, capsys):
    # the config is built once, so a value a later line replaced would go unchecked
    path = write_config(tmp_path, "n_turns = 0\nseed = 1\nn_turns = 3\n")
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:3: n_turns is already set on line 1\n"
    assert not (tmp_path / "x").exists()


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
    assert err.startswith(f"error: {path}:1: {key}: ") and "must be finite" in err
    assert not (tmp_path / "x").exists()


def test_config_file_names_the_line_of_a_value_the_config_refuses(tmp_path, capsys):
    path = write_config(tmp_path, "seed = 3\n\nn_turns = 0\nframe_ms = 20\n")
    with pytest.raises(cli.UsageError) as info:
        load_sim_config(path)
    assert str(info.value) == f"{path}:3: n_turns: must be positive, got 0"
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:3: n_turns: must be positive, got 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n_turns = 100000000000000000000\n", 1),
        ("frame_ms = 20\nturn_dur_ms = 1, 100000000000000000000\n", 2),
        ("subwords_per_word = 1, 9223372036854775808\n", 1),
        # each line alone keeps the bound; together they pass it, and the
        # last of them is named in either order
        ("n_turns = 1000000000000\nturn_dur_ms = 1000, 9000\nseed = 2\n", 2),
        ("turn_dur_ms = 1000, 9000\nn_turns = 1000000000000\nseed = 2\n", 2),
    ],
)
def test_config_file_names_the_line_that_passes_a_bound(tmp_path, capsys, text, lineno):
    path = write_config(tmp_path, text)
    with pytest.raises(cli.UsageError, match=rf"^{re.escape(str(path))}:{lineno}: "):
        load_sim_config(path)
    code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}: ")
    assert not (tmp_path / "x").exists()


def test_config_file_loads_the_same_config_in_either_line_order(tmp_path):
    # the call-length bound is checked once, on the whole file, so the
    # default durations a later line replaces take no part
    lines = ["n_turns = 2000000000000", "turn_dur_ms = 1, 2"]
    want = SimConfig(n_turns=2000000000000, turn_dur_ms=(1, 2))
    for text in ("\n".join(lines), "\n".join(reversed(lines))):
        assert load_sim_config(write_config(tmp_path, text + "\n")) == want


def test_simulate_refuses_a_frame_ms_past_the_call_length_bound(tmp_path, capsys):
    path = write_config(tmp_path, f"frame_ms = {10**20}\n")
    out = tmp_path / "x"
    assert run_cli("simulate", "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:1: call length: 4 turns of up to {5460 + 4 * 10**20} ms each "
        "(turn, word, pause and gap max plus 4 frames) exceed 2**53 ms\n"
    )
    assert not out.exists()


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
    assert capsys.readouterr().err == "error: seed: must be non-negative, got -1\n"
    missing = str(tmp_path / "no-calls")
    assert run_cli("train-vad", "--calls", missing, "--out", out, "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: seed: must be non-negative, got -1\n"
    path = write_config(tmp_path, "seed = -1\n")
    assert run_cli("simulate", "--config", str(path), "--out", out) == 2
    assert capsys.readouterr().err == f"error: {path}:1: seed: must be non-negative, got -1\n"
    # the file is checked on its own, so --seed does not excuse its seed
    assert run_cli("simulate", "--config", str(path), "--out", out, "--seed", "7") == 2
    assert capsys.readouterr().err == f"error: {path}:1: seed: must be non-negative, got -1\n"
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


def test_train_vad_takes_a_batch_size_past_the_frame_count_as_one_batch(tmp_path):
    calls = simulate(tmp_path)
    paths = []
    for size in (10**6, 10**20):  # both hold every frame in one batch
        path = tmp_path / f"m{size}.mdl"
        argv = ["--out", str(path), "--epochs", "2", "--batch-size", str(size)]
        assert run_cli("train-vad", "--calls", str(calls), *argv) == 0
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
    for flag, value, message in (
        ("--epochs", "0", "epochs: must be positive, got 0"),
        ("--batch-size", "0", "batch_size: must be positive, got 0"),
    ):
        capsys.readouterr()
        assert run_cli("train-vad", "--calls", missing, "--out", model, flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    for flag, value in (
        ("--hidden", "0,16"),
        ("--lr", "nan"),
        ("--lr", "-1"),
        ("--lr", "0"),
        ("--features", "oracle:nan"),
        ("--features", "oracle:inf"),
        ("--features", "oracle:abc"),
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


HOLDOUT_WARNING = "warning: holdout fraction rounds to 0 calls; evaluating on training data\n"


@pytest.mark.parametrize("holdout, warning", [("0", HOLDOUT_WARNING), ("0.5", "")])
def test_train_vad_warns_when_no_call_is_held_out(tmp_path, capsys, holdout, warning):
    calls = simulate(tmp_path)
    argv = ["train-vad", "--calls", str(calls), "--out", str(tmp_path / "m.mdl")]
    capsys.readouterr()
    assert run_cli(*argv, "--epochs", "1", "--holdout", holdout) == 0
    out, err = capsys.readouterr()
    assert err == warning
    assert f"held_out_calls={0 if warning else 1} " in out


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
    assert capsys.readouterr().err == (
        HOLDOUT_WARNING + "error: sim-00000010: frame 0 has no teacher_label\n"
    )
    assert not model_path.exists()
    assert run_cli(*argv) == 0


# frames 5-7, frame 6 without a label and frame 7 without a teacher label
UNLABELED_FRAMES_CALL = """format=1
call c1 40 2
frame 5 speech speech 0.5 0.1
frame 6 - nonspeech 0.2 0.3
frame 7 nonspeech - 0.1 0.2
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["endpoint", "--vad", "oracle"], "c1: frame 6 has no label"),
        (["train-vad", "--holdout", "0"], "c1: frame 6 has no label"),
        (["train-vad", "--holdout", "0", "--teacher"], "c1: frame 7 has no teacher_label"),
        (["train-vad", "--features", "oracle:2"], "c1: frame 6 has no label"),
    ],
)
def test_a_frame_without_a_label_is_named_by_call_and_frame_index(
    tmp_path, capsys, argv, message
):
    calls = tmp_path / "calls"
    calls.mkdir()
    (calls / "c1.call").write_text(UNLABELED_FRAMES_CALL)
    out = tmp_path / "out"
    assert run_cli(*argv, "--calls", str(calls), "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


# Long, jittery emission delays and weakly separable features.
NOISY_CFG = "n_turns = 8\nemission_delay = 300, 150, 900\nfeature_separability = 1.5\n"

# sha256 of what `simulate --n-calls 6 --seed 0` writes with NOISY_CFG and of
# the `train-vad --seed 0` checkpoint trained on it, as written when gen_call
# drew one delay per token and train_arrays gathered each batch by index.
PINNED_SETUP_SHA256 = {
    "sim-00000000.call": "1797f4e86d4c7367c527389a6c4c844924f48b3f576b996a69cae740b260c4b0",
    "sim-00000001.call": "fad7e49226644b98015a5daa35b729eb96b83180cc0b9845789292436f813db1",
    "sim-00000002.call": "aead3497764aa1953c1e9bc9d7836046043b68a8969944cc178ce7de7c905241",
    "sim-00000003.call": "7f2cb4bfb5d951e07a59439cd89ca30b8df647030ccfa3731887537d116199b7",
    "sim-00000004.call": "d55e8627cc7dad8ebbdaafc52884927bceb0af87c191e62474e0cd17bc2c437b",
    "sim-00000005.call": "a6f9671039b00b2053dd81364288d06adbde2c5b17917f38e54c1dee743cf091",
    "vad.mdl": "dfaa359f34336c713726555622245a5d39b0eacc6f0d861093b61829041e2591",
}
# sha256 of the same calls written as format=1, each feature as its repr:
# the bytes simulate wrote before call files held hex
PINNED_DECIMAL_CALL_SHA256 = {
    "sim-00000000.call": "c86cb7eb703db3aaace52450aec0a61b2d634717a3c7a17e17eef4b3a0f05c8d",
    "sim-00000001.call": "1b1ae7c972776ebe946e8a9e0703e069e852cffef5eacbb9ad7028520833a68d",
    "sim-00000002.call": "5a7d0fc544fbcca3d5ed14066439e15d3fc0dcbfaee438909617464ba9e0dc48",
    "sim-00000003.call": "34cb009ca19ff66bdd46ca43c60115b18cc7b1d73adc86bc701c9eaa52bf608f",
    "sim-00000004.call": "0a5c759eae52f66ec0c2136d1fc7aad6514d46d51e8dd1c687044f981c863043",
    "sim-00000005.call": "f2f4ba0d9bb75bebd8bedb90f8ec15033c6bdd701d526f4cda980751e43c50f3",
}


def _pinned_set_up(tmp_path):
    calls = simulate(tmp_path, n_calls=6, config_text=NOISY_CFG, seed=0)
    model_path = tmp_path / "vad.mdl"
    assert run_cli("train-vad", "--calls", str(calls), "--out", str(model_path), "--seed", "0") == 0
    return calls, model_path


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_simulate_and_train_vad_write_the_pinned_set_up_bytes(tmp_path):
    calls, model_path = _pinned_set_up(tmp_path)
    assert _digests(sorted(calls.glob("*.call")) + [model_path]) == PINNED_SETUP_SHA256
    decimal = as_decimal(calls)
    assert _digests(sorted(decimal.glob("*.call"))) == PINNED_DECIMAL_CALL_SHA256
    decimal_model = tmp_path / "decimal.mdl"
    argv = ("--calls", str(decimal), "--out", str(decimal_model), "--seed", "0")
    assert run_cli("train-vad", *argv) == 0
    assert decimal_model.read_bytes() == model_path.read_bytes()


# sha256 of every file the endpoint, evaluate and tradeoff commands write on
# the pinned set-up: a change to any rule, format or score moves one.
PINNED_OUTPUT_SHA256 = {
    "BLANK/sim-00000000.endpoints": "4095ca7998c34faf9ebcda2f599ee23cf4aaacca7e50f6842d3298b89a65d6e9",
    "BLANK/sim-00000000.transcript": "37312653346e01a7e4b44b2c8074d8ed72d0ec0705b0a798002e3d60dab793ac",
    "BLANK/sim-00000001.endpoints": "e366faec175dceff5294fcaefb2b1b75893a1f968782221d11f66fd7c0ef94d4",
    "BLANK/sim-00000001.transcript": "3981b4092f611ba6af0aaca38f30d209b336b4dca7fd646f50e7c18eda6c74f1",
    "BLANK/sim-00000002.endpoints": "6935f0e1aa3a923312acefa6caf330dda6053db1e926ffe73808448b21635598",
    "BLANK/sim-00000002.transcript": "ba92af58f9bf3fcd6573da8a4d17ff5e82fd850d8223a91b182ac5a224f95b7a",
    "BLANK/sim-00000003.endpoints": "f50508e01bb8a3b0105531632db8afa7a57a5aefb37160bb7daa60b48b3ddf7c",
    "BLANK/sim-00000003.transcript": "b1abb14638fa204a01c94d793305de8f417d33eca8abdf0628ada294e73f7402",
    "BLANK/sim-00000004.endpoints": "64bf44a3dc9878dc126957c127756354386b0fbe3ca6bfbe064d4e08a2f7222b",
    "BLANK/sim-00000004.transcript": "183ce4ff25696ef93e4e1527a1290d525a49aeeddab2e3552a6d236c210eb2cc",
    "BLANK/sim-00000005.endpoints": "15978cc49343d4e91bc82e1c2b564e8b6b122fd7620f4cff1506b975ee677bd6",
    "BLANK/sim-00000005.transcript": "e7e4783a29fe166e6670e5db511fb8f7bf0e85afd461f057a2519aedeaeed7bd",
    "BLANK.csv": "e34d3e8765e1b44dd809f5a275ffc001d9b2285e1bd6dc87e1b40f72de736c79",
    "EOW/sim-00000000.endpoints": "6eba3b1b8389cd8a1c7b3f30e6ce2046dcab22614401417f09947b897c75e04c",
    "EOW/sim-00000000.transcript": "bcddcdd28a215a598514e2c9bd5abe2f690eccb210b5119f6022c03ae9fd0bca",
    "EOW/sim-00000001.endpoints": "385d839611dd02f65e11fc57d430a346d292eddaa77d2aae2c5ee7ae76a7a3e0",
    "EOW/sim-00000001.transcript": "716f81854ac2c40a6968d9448fb71141648932b9739b3cb401952efee809711d",
    "EOW/sim-00000002.endpoints": "bb366713d6d31b98b7f31e052ec163aa46cb0dc3c92b1df30989cfc227bfc8b8",
    "EOW/sim-00000002.transcript": "9cb01a70de935d5f2c25886b2e2487d2bf59fd3fd5fb8d986a8fe6f8d877e9c3",
    "EOW/sim-00000003.endpoints": "ef65a18db1c92fe81e66132436d5a3d03320b217b5e9b86fba84dfaa9f2218e2",
    "EOW/sim-00000003.transcript": "f4938d0071edfd603d0d46bb531b9aa57d53f6592d64ace5b183d0b7f55931a3",
    "EOW/sim-00000004.endpoints": "d49e76a34339453045272a80605ad82580f15f92eb8c9c705e58ab5cfdbff92d",
    "EOW/sim-00000004.transcript": "22730ab42637fd9f62367ed576dbe6ba2a68aa3e221a86df190e1240aaf697a3",
    "EOW/sim-00000005.endpoints": "a9a88b0c91deb62586900e3004ffb52fff962fab7fdc88ee9660531ddd815761",
    "EOW/sim-00000005.transcript": "53c62f6955e4f966097da3c726a83fef3b3f4a3c3f1d30604ad6deda2239d557",
    "EOW.csv": "f54d8f8ddabaaadf92d165bb414a84c86aeb4ff6746a0c4a3370ca9d52f3c38f",
    "TS/sim-00000000.endpoints": "0bdf319176af279fa64d202bde0f28cde626bec482267b52cd93ed560f190e6f",
    "TS/sim-00000000.transcript": "00305c3a8a510a1a7cc6c297bc6d19fd807f21061c2ecf8f6032afe7ec7f2d1a",
    "TS/sim-00000001.endpoints": "1a433a270428c1051cebff986635f51d9ba2c09cc89d9448eaa87fd197b88306",
    "TS/sim-00000001.transcript": "743c5bf508f6e84f859b230f8e61348926c065423b36f06fe7aeabd8d80ba7ad",
    "TS/sim-00000002.endpoints": "4cbc0ef26edc972e22b84474ded0f8d8284e1d373dd51a383d5f415878699390",
    "TS/sim-00000002.transcript": "491eeb7d0d436cf6007a0fd9694e651e9d8abbaeb5221017895ed2cab8557439",
    "TS/sim-00000003.endpoints": "5f416de0e4f2e258ad34dd36481b367fbf597f9c687a4da95205248880b64f85",
    "TS/sim-00000003.transcript": "fe8aa12820dcb2fec9f1b58937e6fb25abf3360f3a58e6173ac9823a8e6e2dd9",
    "TS/sim-00000004.endpoints": "65b31b0b5a7cc52ae5e46b3ef77234b7852d4424393498eae76428b70044238f",
    "TS/sim-00000004.transcript": "950fcb6951cc8f3d8a7858793b63f3b609d973e37302cff8c0d852324f1219eb",
    "TS/sim-00000005.endpoints": "e2a17578c6d7f734ac686326b13d6c9a3d7bc1509960e40abbb56641149f23d8",
    "TS/sim-00000005.transcript": "659cce30aa2318e62ad9935915220f178f0c6f1097eb04c66ccdd7b0875256c0",
    "TS.csv": "1c12b82ce1b4a0d1febb9e03066cdc91867bdb9e7e1fbde872c2f75c798111c6",
    "TS_AND_EOW/sim-00000000.endpoints": "497fd421b6ce8f0d79faff111422072e3cabcbdf67646c637e01631157ad2475",
    "TS_AND_EOW/sim-00000000.transcript": "a7af8508512713ed8dede4769be723739243ee4069ca0491f1f5448cab89c71f",
    "TS_AND_EOW/sim-00000001.endpoints": "6031a6869b274212bc6943c86201e043d0cc1050e24bb528053b87dc5dddf574",
    "TS_AND_EOW/sim-00000001.transcript": "55d32663f63f3428bebe2808e84cf1fcae14db47668cbba4c021a8cdd3c31e8e",
    "TS_AND_EOW/sim-00000002.endpoints": "1d2ca48ef171790900fbf53cae73490a5066bbcb17bf2411b7f541bba943f877",
    "TS_AND_EOW/sim-00000002.transcript": "6650a1ec905a038bc0839154d434507b4aba241c7cf5bf2e7bcda93755022963",
    "TS_AND_EOW/sim-00000003.endpoints": "8d4e445f3897bd2da8af479f899a7693fa70ce9c8bd490351e6a7cb78627f253",
    "TS_AND_EOW/sim-00000003.transcript": "a8f639a63188d70cd5dd96049b10a40858c5a70642b3886ef897511b9876e6c6",
    "TS_AND_EOW/sim-00000004.endpoints": "b575726af8701bf970531c5d89c0290bc4e8631f0cdb5c31d3c7350af6fca3df",
    "TS_AND_EOW/sim-00000004.transcript": "b39cc30642c56f6e5a96eb0d7a5a8a239efd0b4b660f07e224825a69b338b1db",
    "TS_AND_EOW/sim-00000005.endpoints": "59ba2ce5434f2064c229108e99779cec13d5a251a21bae888be745b634e13a54",
    "TS_AND_EOW/sim-00000005.transcript": "d0b88c2e9e1f6d471c8f00db4d27f595a92ab3d05e796f20b548a3d610b1d445",
    "TS_AND_EOW.csv": "6a1d1556a2425bc9245cf17d63ae12f45ffe8d0a0a9e20270f7c377530105ddf",
    "tradeoff.csv": "037df750d8420b8279c894f9984b1b566801221df11307fbfa7df4a90f531a9d",
}


def _pinned_outputs(calls, model_path, out):
    """sha256 of what tradeoff, endpoint and evaluate write on ``calls``."""
    out.mkdir()
    assert run_cli(
        "tradeoff", "--calls", str(calls), "--out", str(out / "tradeoff.csv"),
        "--vad", f"model:{model_path}",
    ) == 0
    for mode in Mode:
        eps = out / mode.value
        assert run_cli(
            "endpoint", "--calls", str(calls), "--out", str(eps), "--mode", mode.value,
            "--vad", "corrupted:0.2", "--delta-ms", "400",
        ) == 0
        assert run_cli(
            "evaluate", "--calls", str(calls), "--endpoints", str(eps),
            "--delta-ms", "400", "--out", str(out / f"{mode.value}.csv"),
        ) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.*"))
    }


def test_endpoint_evaluate_and_tradeoff_write_the_pinned_output_bytes(tmp_path):
    calls, model_path = _pinned_set_up(tmp_path)
    assert _pinned_outputs(calls, model_path, tmp_path / "out") == PINNED_OUTPUT_SHA256


def test_a_format_1_copy_of_the_pinned_set_up_writes_the_pinned_output_bytes(tmp_path):
    calls, model_path = _pinned_set_up(tmp_path)
    decimal = as_decimal(calls)
    assert _digests(sorted(decimal.glob("*.call"))) == PINNED_DECIMAL_CALL_SHA256
    assert _pinned_outputs(decimal, model_path, tmp_path / "out") == PINNED_OUTPUT_SHA256


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
    cfg = write_config(tmp_path, ZERO_DELAY_CFG + "frame_ms = 20\n")
    assert run_cli(
        "simulate", "--config", str(cfg), "--out", str(mixed),
        "--n-calls", "1", "--seed", "12",
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
        # evaluate refuses an endpoint past its call's end
        end_ms = callfile.load_call(calls / f"{call_id}.call").end_ms
        shifted = [
            type(e)(e.time_ms + 5000, e.trigger, e.silence_start_ms + 5000, e.deferred_by_ms)
            for e in endpoints
            if e.time_ms + 5000 <= end_ms
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


def test_evaluate_refuses_an_endpoint_past_its_call_s_end(tmp_path, capsys):
    calls = simulate(tmp_path, n_calls=2)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    path = eps / "sim-00000011.endpoints"
    end_ms = callfile.load_call(calls / "sim-00000011.call").end_ms
    text = path.read_text()
    # an endpoint at the call's end is accepted, one a millisecond later is not
    for time_ms, code in ((end_ms, 0), (end_ms + 1, 1)):
        path.write_text(text + f"endpoint {time_ms} TS {end_ms - 200} 0\n")
        capsys.readouterr()
        assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == code
    assert capsys.readouterr().err == (
        f"error: {path}: endpoint at {end_ms + 1} ms lies past the end of call "
        f"sim-00000011 at {end_ms} ms\n"
    )


def test_evaluate_fails_on_a_missing_endpoints_directory(tmp_path, capsys):
    calls = simulate(tmp_path)
    eps = tmp_path / "nope"
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == f"error: endpoints directory not found: {eps}\n"


def test_evaluate_names_a_missing_endpoints_directory_before_reading_calls(tmp_path, capsys):
    calls = simulate(tmp_path)
    (calls / "zz.call").write_text("not a call\n")
    eps = tmp_path / "nope"
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == f"error: endpoints directory not found: {eps}\n"


def test_evaluate_refuses_endpoint_files_of_two_modes(tmp_path, capsys):
    calls = simulate(tmp_path)
    eps, eow = tmp_path / "eps", tmp_path / "eow"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eow), "--mode", "EOW") == 0
    second = eps / "sim-00000011.endpoints"
    second.write_bytes((eow / second.name).read_bytes())
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == f"error: {second}: mode EOW differs from TS\n"


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


@pytest.mark.parametrize(
    "argv, delta",
    [(["tradeoff", "--deltas", "200,230"], 230), (["endpoint", "--delta-ms", "30"], 30)],
)
def test_an_off_grid_delta_names_frame_ms_before_any_call_runs(tmp_path, capsys, argv, delta):
    calls = simulate(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(*argv, "--calls", str(calls), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: ts_threshold_ms: {delta} is not a positive multiple of frame_ms=40\n"
    )
    assert not out.exists()


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
    assert run_cli(*base, "--deltas", "200,abc") == 2
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
    """Rewrite the features of a call file's frame lines (of every frame, or
    of ``frames``) so that they do not convert, at the right count and width:
    each decimal value as ``abc``, each hex field as ``x`` and a ``g`` a digit."""
    lines = path.read_text().splitlines()
    hexed = lines[0] == callfile.CALL_FORMAT_LINE
    for k, line in enumerate(lines):
        fields = line.split(" ")
        if fields[0] == "frame" and (frames is None or int(fields[1]) in frames):
            garbled = ["x" + "g" * (len(fields[4]) - 1)] if hexed else ["abc"] * (len(fields) - 4)
            lines[k] = " ".join(fields[:4] + garbled)
    path.write_text("\n".join(lines) + "\n")


# what a feature that does not convert reports, by call file form
BAD_FEATURE = {
    "decimal": "could not convert string to float: 'abc'",
    "hex": "non-hexadecimal number found in fromhex() arg at position 0",
}


def _calls_in_form(calls, form):
    """``calls``, rewritten as format=1 for the ``decimal`` form."""
    return as_decimal(calls) if form == "decimal" else calls


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
    dirs = []  # clean and garbled calls, in each call file form
    for form in BAD_FEATURE:
        for name in ("clean", "garbled"):
            calls = simulate(tmp_path, f"{form}-{name}", n_calls=2, config_text=SWEEP_CFG)
            dirs.append(_calls_in_form(calls, form))
        for path in dirs[-1].glob("*.call"):
            _garble_features(path)
    reads = _counting_feature_reads(monkeypatch)
    for mode, vad in itertools.product([m.value for m in Mode], ["oracle", "corrupted:0.2"]):
        outs = []
        for calls in dirs:
            out = tmp_path / f"{calls.name}-{mode}-{vad}"
            argv = ("--calls", str(calls), "--out", str(out / "eps"))
            assert run_cli("endpoint", *argv, "--mode", mode, "--vad", vad) == 0
            code = run_cli(
                "evaluate", "--calls", str(calls), "--endpoints", str(out / "eps"),
                "--out", str(out / "report.csv"),
            )
            assert code == 0
            outs.append(_tree(out))
        assert all(o == outs[0] for o in outs) and len(outs[0]) == 5
    assert reads == []
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-vad", "endpoint", "tradeoff"])
def test_model_reads_name_the_line_of_a_feature_that_is_no_float(tmp_path, capsys, command):
    out = tmp_path / "out"
    model = untrained_model(tmp_path)
    for form, message in BAD_FEATURE.items():
        calls = _calls_in_form(simulate(tmp_path, form), form)
        path = sorted(calls.glob("*.call"))[1]
        _garble_features(path, frames={5})  # frame 5 is on line 8
        argv = (command, "--calls", str(calls), "--out", str(out))
        if command == "train-vad":
            argv += ("--epochs", "1")
        else:
            argv += ("--vad", f"model:{model}")
        capsys.readouterr()
        assert run_cli(*argv) == 1
        # two calls at the default holdout fraction hold none out
        warning = HOLDOUT_WARNING if command == "train-vad" else ""
        assert capsys.readouterr().err == warning + (
            f"error: {path}:8: bad frame record: {message}\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("values", ["1 2 3", "1 2 3 4 5"])
def test_evaluate_refuses_a_frame_line_with_a_wrong_value_count(tmp_path, capsys, values):
    # evaluate reads no feature value, and still counts them
    calls = as_decimal(simulate(tmp_path))
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


@pytest.mark.parametrize(
    "field, message",
    [
        ("x" + "0" * 63, "feature field is not 'x' and 64 hex digits"),
        ("x" + "0" * 65, "feature field is not 'x' and 64 hex digits"),
        ("0" * 65, "feature field is not 'x' and 64 hex digits"),
        ("xx" + "0" * 64, "feature field is not 'x' and 64 hex digits"),
        ("x" + "0" * 32 + " x" + "0" * 32, "frame line has 6 fields, expected 5"),
    ],
    ids=["short", "long", "no-x", "two-x", "split"],
)
def test_evaluate_refuses_a_hex_frame_line_of_a_wrong_width(tmp_path, capsys, field, message):
    # evaluate reads no feature value, and still measures each field
    calls = simulate(tmp_path)
    eps = tmp_path / "eps"
    assert run_cli("endpoint", "--calls", str(calls), "--out", str(eps)) == 0
    path = sorted(calls.glob("*.call"))[0]
    lines = path.read_text().splitlines()
    lines[5] = " ".join(lines[5].split()[:4]) + " " + field  # frame 3, on line 6
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--calls", str(calls), "--endpoints", str(eps)) == 1
    assert capsys.readouterr().err == f"error: {path}:6: {message}\n"


def test_tradeoff_with_a_model_converts_each_call_s_features_once(tmp_path, monkeypatch):
    model = untrained_model(tmp_path)
    reads = _counting_feature_reads(monkeypatch)
    for form in BAD_FEATURE:
        calls = _calls_in_form(simulate(tmp_path, form, n_calls=3), form)
        reads.clear()
        code = run_cli(
            "tradeoff", "--calls", str(calls), "--out", str(tmp_path / f"{form}.csv"),
            "--vad", f"model:{model}",
        )
        assert code == 0
        assert sorted(map(str, reads)) == sorted(map(str, calls.glob("*.call")))


@pytest.mark.parametrize("form", BAD_FEATURE)
def test_train_vad_with_oracle_features_never_reads_the_file_s(tmp_path, form):
    # the draws that replace the features are sized from the call header
    checkpoints = []
    for name in ("intact", "garbled"):
        calls = _calls_in_form(simulate(tmp_path, name, n_calls=3), form)
        if name == "garbled":
            _garble_features(sorted(calls.glob("*.call"))[1], frames={5})
        model = tmp_path / f"{name}.mdl"
        argv = ("--calls", str(calls), "--out", str(model), "--features", "oracle:2")
        assert run_cli("train-vad", *argv, "--epochs", "2") == 0
        checkpoints.append(model.read_bytes())
    assert checkpoints[0] == checkpoints[1]


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


ROOT_LOGGER_SCRIPT = """
import logging, sys
from endpoint_rt import cli
before = list(logging.getLogger().handlers)
code = cli.main(sys.argv[1:])
assert logging.getLogger().handlers == before, logging.getLogger().handlers
sys.exit(code)
"""


def test_main_leaves_the_root_logger_as_it_found_it(tmp_path):
    # pytest hangs handlers of its own on the root logger: run in a fresh process
    env = {**os.environ, "PYTHONPATH": str(Path(endpoint_rt.__file__).parents[1])}
    argv = [sys.executable, "-c", ROOT_LOGGER_SCRIPT, "simulate", "--out", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


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
