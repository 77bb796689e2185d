"""Tests of the benchmark itself: trace counts, the output gate, the contract.

Run from the repository root::

    python -m pytest -q perfbench/tests

They use corpora of a few calls, so they check behaviour, not timings.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from endpoint_rt import callfile, cli, streams  # noqa: E402
from endpoint_rt.streams import TokenKind  # noqa: E402
from perfbench import measure  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EndpointEvaluate,
    Outcome,
    Sizes,
    StreamLive,
    SweepModel,
    digest,
)

SMALL = Sizes(sweep_calls=3, default_calls=3, live_calls=3)
COUNT_METRICS = [m for m, unit in measure.PER_LAYER_UNITS.items() if unit != "ns"]


def _ready(cls, work: Path, seed: int):
    """A workload set up once with its reference outputs built."""
    wl = cls(work, seed, SMALL)
    out = Outcome()
    measure.setup(wl, work / "setup0", out)
    wl.reference(out)
    assert out.failed == 0, out.notes
    return wl, out


def _traced(cls, work: Path, seed: int) -> dict:
    wl = cls(work, seed, SMALL)
    out = Outcome()
    metrics, _, _, _ = measure.run_traced(wl, seed, 0.01, out, work / "trace.json")
    assert out.failed == 0, out.notes
    assert json.loads((work / "trace.json").read_text())["phases"]
    return {name: value for name, (value, _) in metrics.items()}


def test_traced_runs_of_one_seed_repeat_their_counts(tmp_path):
    first = _traced(SweepModel, tmp_path / "a", 5)
    second = _traced(SweepModel, tmp_path / "b", 5)
    assert {m: first[m] for m in COUNT_METRICS} == {m: second[m] for m in COUNT_METRICS}
    # the sweep redoes VAD and merge for every (mode, delta): 16 merges per
    # call, 12 classifications (BLANK runs without VAD) and 12 model loads
    assert first["streams.merges_per_call"] == 16
    assert first["vadnet.classify_per_frame"] == 12
    assert first["vadnet.load_model_calls"] == 12 * SMALL.sweep_calls
    assert first["endpointer.step_calls"] == first["streams.timeline_events"]
    assert first["kernels.dp_cells"] > 0 and first["endpointer.endpoints"] > 0


def test_live_replay_is_counted_through_step(tmp_path):
    got = _traced(StreamLive, tmp_path, 2)
    assert got["streams.merges_per_call"] == 0  # timelines were built at set-up
    assert got["endpointer.step_calls"] > 0 and got["endpointer.endpoints"] > 0


def test_a_flipped_output_byte_fails_the_gate(tmp_path, monkeypatch):
    wl, out = _ready(EndpointEvaluate, tmp_path, 3)
    flipped = []

    def save_report_flipped(rows, path):
        callfile.save_report(rows, path)
        if not flipped:  # corrupt the first report written, one byte
            data = bytearray(Path(path).read_bytes())
            data[-2] ^= 0x01
            Path(path).write_bytes(bytes(data))
            flipped.append(path)

    faulty = types.SimpleNamespace(**vars(callfile))
    faulty.save_report = save_report_flipped
    monkeypatch.setattr(cli, "callfile", faulty)
    before = out.failed
    wl.iterate(tmp_path / "out")
    wl.check(tmp_path / "out", out)
    assert flipped and out.failed == before + 1
    assert any(note.startswith("evaluate b00/ep_BLANK") for note in out.notes)


def test_a_failed_gate_makes_the_run_exit_nonzero(monkeypatch):
    real_merge = streams.merge_streams

    def merge_dropping_eows(vad, tokens):
        return real_merge(vad, [t for t in tokens if t.kind is not TokenKind.EOW])

    # the CLI imported merge_streams by name; the reference pass goes
    # through streams.merge_streams and stays correct
    monkeypatch.setattr(cli, "merge_streams", merge_dropping_eows)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = measure.run("endpoint-evaluate", 4, 0.01, False, SMALL)
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and 0 < result["failed"] <= result["attempted"]


def test_peak_rss_is_the_child_process_own(tmp_path):
    wl, out = _ready(StreamLive, tmp_path, 7)
    ballast_mib = 200
    ballast = np.ones(ballast_mib * 2**20, dtype=np.uint8)  # resident here, not in the child
    rss = measure.peak_rss_mib(wl, 7, out)
    assert ballast.all() and out.failed == 0, out.notes
    assert 10 < rss < ballast_mib


def test_second_seed_passes_with_a_different_digest(tmp_path):
    digests = []
    for seed in (1, 2):
        wl, out = _ready(EndpointEvaluate, tmp_path / str(seed), seed)
        wl.iterate(tmp_path / str(seed) / "out")
        wl.check(tmp_path / str(seed) / "out", out)
        assert out.failed == 0, out.notes
        digests.append(digest(wl.expected))
    assert digests[0] != digests[1]


def test_wrappers_cover_importers_and_are_removed(tmp_path):
    original = streams.merge_streams
    tracer = Tracer()
    with tracer.phase("probe") as ph:
        assert cli.merge_streams is streams.merge_streams is not original
        cli.merge_streams([], [])
    assert streams.merge_streams is original and cli.merge_streams is original
    assert ph.counts["calls:streams.merge_streams"] == 1
    assert [s[0] for s in ph.spans] == ["streams.merge_streams"]


def test_benchmark_json_names_what_the_runs_print(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    traced = _traced(EndpointEvaluate, tmp_path, 6)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: measure._unit(name) for name in traced
    }
    assert [w["name"] for w in spec["workloads"]] == list(measure.WORKLOADS)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-live",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
