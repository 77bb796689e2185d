"""Seeded mutation fuzzing of every file loader and of ``endpoint`` on bad calls.

Valid files are written by the package's own savers, then mutated from a
fixed seed by truncation, bit flips, dropped fields and inserted non-ASCII
bytes, call files also by hostile token fields and feature values, and
endpoint files also by well-formed endpoints that no rule of the file's
mode writes.
Whatever the mutant, a loader either parses it or raises an error that
names the file and line (text formats) or the file and field
(checkpoints); a feature value is converted, or names its line, only
when the features are read; the endpoints no rule writes always fail, and make
``evaluate`` exit 1.  Every mutated call file fed to the ``endpoint``
command exits 0, 1 or 2; an exception escaping ``cli.main`` fails the
test.
"""

import random
import re

import numpy as np
import pytest

from endpoint_rt import callfile, cli, vadnet
from endpoint_rt.endpointer import EndpointerConfig, Mode, run_call
from endpoint_rt.evaluator import EvalReport
from endpoint_rt.simulator import SimConfig, gen_call, oracle_vad
from endpoint_rt.streams import merge_streams

SEED = 20250607
N_MUTANTS = 160  # per loader, split evenly over the four mutation kinds
NON_ASCII = (b"\xc3\xa9", b"\xff", b"\x80", b"\xe2\x80\x94")

CONFIG_TEXT = """\
# a config touching every kind of field
seed = 3
n_turns = 2
turn_dur_ms = 800, 1200
emission_delay = 10, 5, 50
feature_separability = 1.5
teacher_flip_prob = 0.1
frame_ms = 40
"""


def _pick_line(data: bytes, rng: random.Random) -> tuple[int, int]:
    """Byte span [start, end) of a random line, newline excluded."""
    starts = [0] + [k + 1 for k, b in enumerate(data) if b == 0x0A and k + 1 < len(data)]
    start = rng.choice(starts)
    end = data.find(b"\n", start)
    return start, len(data) if end < 0 else end


def mutate(data: bytes, kind: int, rng: random.Random, sep: bytes = b" ") -> bytes:
    """One mutant of ``data``: 0 truncate, 1 flip bits, 2 drop a field, 3 non-ASCII."""
    if kind == 0:
        return data[: rng.randrange(len(data))]
    if kind == 1:
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == 2:
        start, end = _pick_line(data, rng)
        fields = data[start:end].split(sep)
        del fields[rng.randrange(len(fields))]
        return data[:start] + sep.join(fields) + data[end:]
    start, end = _pick_line(data, rng)
    pos = rng.randint(start, end)
    return data[:pos] + rng.choice(NON_ASCII) + data[pos:]


def mutants(data: bytes, seed: int, sep: bytes = b" "):
    rng = random.Random(seed)
    for k in range(N_MUTANTS):
        yield mutate(data, k % 4, rng, sep)


def _line_bound(data: bytes) -> int:
    # splitlines also breaks on \r, \v, \f and \x1c-\x1e, so count those too
    return len(data.decode("latin-1").splitlines()) + 1


def assert_parses_or_names_line(load, path, data, errors=(ValueError,)):
    path.write_bytes(data)
    try:
        load(path)
    except errors as exc:
        message = str(exc)
        match = re.match(rf"{re.escape(str(path))}:(\d+): \S", message)
        assert match, f"error does not name {path}:<line>: {message!r}"
        assert 1 <= int(match.group(1)) <= _line_bound(data), message


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid file of every format, written by the package's savers."""
    d = tmp_path_factory.mktemp("valid")
    call = gen_call(
        SimConfig(seed=5, n_turns=2, feature_dim=2, teacher_flip_prob=0.1,
                  turn_dur_ms=(400, 800), gap_dur_ms=(200, 400))
    )
    callfile.save_call(call, d / "c.call")
    cfg = EndpointerConfig(Mode.TS_AND_EOW, frame_ms=call.frame_ms)
    endpoints = run_call(cfg, merge_streams(oracle_vad(call), call.tokens))
    callfile.save_endpoints(call.call_id, cfg.mode, endpoints, d / "c.endpoints")
    rows = [
        callfile.ReportRow(
            mode, delta, 200,
            EvalReport(0.5, 0.25, 1 / 3, float("inf"), 1, 2, 3, 12.5, 10.0, 4),
        )
        for mode in (Mode.TS, Mode.EOW)
        for delta in (200, 400)
    ]
    callfile.save_report(rows, d / "r.csv")
    vadnet.save_model(vadnet.init_model([2, 3, 3, 1], seed=1), str(d / "m.mdl"), 0.4)
    (d / "sim.cfg").write_text(CONFIG_TEXT)
    return d


@pytest.mark.parametrize(
    "name, load, sep",
    [
        ("c.call", callfile.load_call, b" "),
        ("c.endpoints", callfile.load_endpoints, b" "),
        ("r.csv", callfile.load_report, b","),
    ],
)
def test_text_loaders_parse_or_name_the_line(valid_files, tmp_path, name, load, sep):
    data = (valid_files / name).read_bytes()
    load(valid_files / name)  # the unmutated file parses
    path = tmp_path / name
    for mutant in mutants(data, SEED + len(name), sep):
        assert_parses_or_names_line(load, path, mutant)


def test_sim_config_parses_or_names_the_line(valid_files, tmp_path):
    data = (valid_files / "sim.cfg").read_bytes()
    path = tmp_path / "sim.cfg"
    for mutant in mutants(data, SEED + 1):
        assert_parses_or_names_line(
            cli.load_sim_config, path, mutant, errors=(cli.UsageError,)
        )


def test_checkpoint_parses_or_names_the_field(valid_files, tmp_path):
    data = (valid_files / "m.mdl").read_bytes()
    vadnet.load_model(str(valid_files / "m.mdl"))
    path = tmp_path / "m.mdl"
    rng = random.Random(SEED + 2)
    for k in range(N_MUTANTS):
        kind = k % 4
        if kind == 2:  # drop one 4-byte field
            pos = rng.randrange(0, len(data) - 4, 4)
            mutant = data[:pos] + data[pos + 4 :]
        else:
            mutant = mutate(data, kind, rng)
        path.write_bytes(mutant)
        try:
            model, threshold = vadnet.load_model(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
        else:
            assert len(model.weights) == 3
            assert isinstance(threshold, float)


def test_endpoint_on_mutated_calls_exits_cleanly(valid_files, tmp_path, capsys):
    data = (valid_files / "c.call").read_bytes()
    calls = tmp_path / "calls"
    calls.mkdir()
    path = calls / "c.call"
    modes = [m.value for m in Mode]
    codes = set()
    for k, mutant in enumerate(mutants(data, SEED + 3)):
        path.write_bytes(mutant)
        code = cli.main(
            ["endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps"),
             "--mode", modes[k % len(modes)], "--delta-ms", "200"]
        )
        assert code in (0, 1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 1 and "invalid call" not in err:
            assert err.startswith(f"error: {path}:"), err
        codes.add(code)
    assert codes >= {0, 1}  # the mutants reach both outcomes


# values past int64 either way, negative word indices, fragment marks and
# unknown kinds, with valid values so some mutants still parse
TOKEN_FIELDS = (
    str(10**23 - 1), str(2**63), str(-(2**63) - 1), "-1", "-7", "ka*", "*",
    "WORD", "x", "-", "0", str(2**63 - 1), "BLANK", "SUBWORD", "EOW",
)


def mutate_token(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one field of a random token line replaced by a hostile value."""
    lines = data.split(b"\n")
    k = rng.choice([k for k, line in enumerate(lines) if line.startswith(b"token ")])
    fields = lines[k].split(b" ")
    fields[rng.randrange(1, len(fields))] = rng.choice(TOKEN_FIELDS).encode()
    lines[k] = b" ".join(fields)
    return b"\n".join(lines)


def test_call_loader_and_endpoint_name_the_line_of_a_mutated_token(
    valid_files, tmp_path, capsys
):
    data = (valid_files / "c.call").read_bytes()
    calls = tmp_path / "calls"
    calls.mkdir()
    path = calls / "c.call"
    rng = random.Random(SEED + 4)
    codes = set()
    for _ in range(N_MUTANTS):
        mutant = mutate_token(data, rng)
        assert_parses_or_names_line(callfile.load_call, path, mutant)
        code = cli.main(["endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 1 and "invalid call" not in err:
            assert err.startswith(f"error: {path}:"), err
        codes.add(code)
    assert codes == {0, 1}  # the mutants reach both outcomes


# hex, overflow, non-finite, doubled signs, digit separators and a
# fullwidth digit, which Python's float reads but the ASCII format refuses,
# with valid values so some mutants still parse
FEATURE_VALUES = (
    "0x1", "1e400", "-1e400", "nan", "-inf", "inf", "--1", "+-1", "1_0", "_1", "1__0",
    "1e", ".", "1.5.2", "0.25", "-0", "1e-320", "\uff11",
)


def mutate_feature(data: bytes, rng: random.Random) -> tuple[bytes, int]:
    """``data`` with one feature value of a random frame line replaced by a
    hostile value, and the number of that line."""
    lines = data.decode("ascii").split("\n")
    k = rng.choice([k for k, line in enumerate(lines) if line.startswith("frame ")])
    fields = lines[k].split(" ")
    fields[rng.randrange(4, len(fields))] = rng.choice(FEATURE_VALUES)
    lines[k] = " ".join(fields)
    return "\n".join(lines).encode(), k + 1


def test_feature_values_convert_or_name_their_line_on_read(valid_files, tmp_path, capsys):
    data = (valid_files / "c.call").read_bytes()
    calls = tmp_path / "calls"
    calls.mkdir()
    path = calls / "c.call"
    model = valid_files / "m.mdl"
    rng = random.Random(SEED + 6)
    codes = set()
    outcomes = set()
    for _ in range(N_MUTANTS):
        mutant, line = mutate_feature(data, rng)
        path.write_bytes(mutant)
        if not mutant.isascii():
            with pytest.raises(callfile.FormatError, match=rf"^{re.escape(str(path))}:{line}: "):
                callfile.load_call(path)
            outcomes.add("non-ASCII")
            continue
        call = callfile.load_call(path)  # every ASCII mutant loads
        try:
            got = call.features
            outcomes.add("parses")
            rows = [ln.split()[4:] for ln in mutant.decode().splitlines() if ln[:6] == "frame "]
            assert got.tobytes() == np.array([list(map(float, r)) for r in rows]).tobytes()
        except callfile.FormatError as exc:
            assert str(exc).startswith(f"{path}:{line}: bad frame record: "), str(exc)
            outcomes.add("fails")
        code = cli.main(
            ["endpoint", "--calls", str(calls), "--out", str(tmp_path / "eps"),
             "--vad", f"model:{model}"]
        )
        err = capsys.readouterr().err
        assert code in (0, 1) and "Traceback" not in err
        if code == 1 and "non-finite" not in err:
            assert err.startswith(f"error: {path}:{line}: bad frame record: "), err
        codes.add(code)
    assert outcomes == {"parses", "fails", "non-ASCII"}
    assert codes == {0, 1}


def mutate_endpoint(data: bytes, rng: random.Random) -> tuple[bytes, int]:
    """A TS_AND_EOW ``data`` with one endpoint line made one the mode never
    writes, and the number of that line."""
    lines = data.decode().split("\n")
    k = rng.choice([k for k, line in enumerate(lines) if line.startswith("endpoint ")])
    tag, time, trigger, start, deferred = lines[k].split(" ")
    kind = rng.randrange(5)
    if kind == 0:
        trigger = rng.choice(["BLANK_RUN", "TS", "EOW"])
    elif kind == 1:
        start = str(int(time) + rng.randint(1, 10**6))
    elif kind == 2:
        start = str(-rng.randint(1, 10**6))
    elif kind == 3:
        trigger = rng.choice(["TS_AND_EOW_DEFERRED", "DEFERRAL_TIMEOUT"])
        deferred = str(-rng.randint(1, 10**6))
    else:
        trigger, deferred = "TS_AND_EOW_IMMEDIATE", str(rng.randint(1, 10**6))
    lines[k] = " ".join((tag, time, trigger, start, deferred))
    return "\n".join(lines).encode(), k + 1


def test_endpoints_no_rule_writes_name_their_line_and_fail_evaluate(
    valid_files, tmp_path, capsys
):
    # a trigger foreign to the mode, a silence start outside [0, time], a
    # negative deferral, or a deferral on a trigger that never defers
    call_id = callfile.load_call(valid_files / "c.call").call_id
    calls, eps = tmp_path / "calls", tmp_path / "eps"
    calls.mkdir()
    eps.mkdir()
    (calls / f"{call_id}.call").write_bytes((valid_files / "c.call").read_bytes())
    data = (valid_files / "c.endpoints").read_bytes()
    assert data.count(b"\nendpoint ") >= 2
    path = eps / f"{call_id}.endpoints"
    rng = random.Random(SEED + 5)
    for _ in range(N_MUTANTS // 4):
        mutant, line = mutate_endpoint(data, rng)
        path.write_bytes(mutant)
        with pytest.raises(callfile.FormatError, match=rf"^{re.escape(str(path))}:{line}: "):
            callfile.load_endpoints(path)
        code = cli.main(["evaluate", "--calls", str(calls), "--endpoints", str(eps)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_non_ascii_byte_names_the_file_and_line(tmp_path):
    path = tmp_path / "bad.call"
    path.write_bytes(
        f"{callfile.FORMAT_LINE}\ncall c 40 1\n".encode() + "frame 0 speech - 0.5é\n".encode()
    )
    with pytest.raises(callfile.FormatError, match=r"bad.call:3: non-ASCII byte 0xc3"):
        callfile.load_call(path)
    report = tmp_path / "bad.csv"
    report.write_bytes(b"# format=1\nmode,\xffdelta_ms\n")
    with pytest.raises(callfile.FormatError, match=r"bad.csv:2: non-ASCII byte 0xff"):
        callfile.load_report(report)
    report.write_bytes(b"# format=1\r\n\x80mode\n")  # first byte of a line
    with pytest.raises(callfile.FormatError, match=r"bad.csv:2: non-ASCII byte 0x80"):
        callfile.load_report(report)
