"""The benchmark's three workloads and the output gate they share.

Every workload is a closed loop driven by one single-threaded process: the
next command or event goes out only after the previous one returned.  The
program sees nothing but the generated call files, the VAD checkpoint and
the flags; the CLI runs in-process through ``cli.main`` so the traced run
can wrap its functions.

* ``sweep-model`` -- CLI ``tradeoff --vad model:<ckpt>`` (4 modes x 4
  deltas) over 8-turn calls with long, jittery emission delays and a weak
  VAD.  The headline research job: VAD and merge are redone per config.
* ``endpoint-evaluate`` -- CLI ``endpoint --vad oracle --delta-ms 400`` then
  ``evaluate`` for each mode on default-config calls: the file round trip.
  No VAD model, one merge per call per command; ``callfile`` dominates.
* ``stream-live`` -- calls like the sweep's (same config and seeds, a larger
  corpus) replayed as concurrent live
  streams: events of all calls interleaved in time order, each fed through
  ``Endpointer.step()`` to one machine per mode at delta 400.  Timelines
  are built at setup, so only ``endpointer`` works in the timed loop.

An iteration is a fixed sequence of operations, each timed on its own: the
CLI workloads run their commands once per batch of a few calls, the live
replay is cut into fixed runs of events.  Short operations let the
measurement pick each operation's uncontended time out of many repeats
(see ``measure.py``).

The gate: an untimed reference pass rebuilds every output byte from the
library API, stepping each timeline through ``new_endpointer().step`` (the
reference semantics), and every timed operation is checked against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import shutil
import sys
import traceback
from array import array
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from time import perf_counter_ns
from typing import Optional

from endpoint_rt import callfile, cli, endpointer, evaluator, simulator, streams, vadnet
from endpoint_rt.endpointer import EndpointerConfig, Mode
from endpoint_rt.evaluator import EvalConfig

MODES = (Mode.BLANK, Mode.TS, Mode.EOW, Mode.TS_AND_EOW)
SWEEP_DELTAS = (200, 400, 600, 800)  # tradeoff's default --deltas
DELTA_MS = 400  # endpoint-evaluate and stream-live
TOLERANCE_MS = 200  # evaluate/tradeoff default --tolerance-ms
BLANK_FRAMES = 6  # endpoint default --blank-frames
DEFERRAL_CAP_MS = 1000  # endpoint/tradeoff default --deferral-cap-ms
LIVE_CHUNK = 1500  # schedule entries per timed operation of the live replay

# Long, jittery emission delays and weakly separable features: the trained
# VAD lands near EER 0.22, so the machine cancels, defers and times out often.
NOISY_CONFIG = "n_turns = 8\nemission_delay = 300, 150, 900\nfeature_separability = 1.5\n"


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes; the benchmark uses the defaults, its tests shrink them."""

    sweep_calls: int = 6
    default_calls: int = 12
    live_calls: int = 24


class Outcome:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str, count: int = 1, failed: Optional[int] = None) -> None:
        self.attempted += count
        bad = (0 if ok else count) if failed is None else failed
        self.failed += bad
        if bad:
            self.notes.append(what)


def run_cli(argv: list[str]) -> int:
    """Run one CLI command in-process with its stdout discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a traceback escaping the CLI is a failed command
        traceback.print_exc(file=sys.stderr)
        return -1


def read_tree(root: Path) -> dict[str, bytes]:
    """Every regular file under ``root``, keyed by its relative posix path."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def digest(files: dict[str, bytes]) -> str:
    """sha256 over (name, length, bytes) of every file, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        data = files[name]
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def step_through(
    cfg: EndpointerConfig, timeline, lat_ns: Optional[array] = None
) -> list[tuple[int, endpointer.EndpointEvent]]:
    """Feed a timeline to a fresh machine; returns (event index, endpoint) pairs.

    With ``lat_ns`` given, the duration of every ``step()`` call is appended.
    """
    step = endpointer.new_endpointer(cfg).step
    found = []
    if lat_ns is None:
        for li, ev in enumerate(timeline):
            r = step(ev)
            if r is not None:
                found.append((li, r))
        return found
    clock = perf_counter_ns
    append = lat_ns.append
    for li, ev in enumerate(timeline):
        t0 = clock()
        r = step(ev)
        append(clock() - t0)
        if r is not None:
            found.append((li, r))
    return found


def differing_steps(got: dict, want: dict) -> int:
    """Keys at which two step-result maps disagree."""
    return sum(1 for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def live_configs(frame_ms: int) -> list[EndpointerConfig]:
    """One machine per mode at delta 400, mapped the way ``tradeoff`` maps deltas."""
    return [
        EndpointerConfig(
            mode,
            ts_threshold_ms=DELTA_MS,
            blank_run_frames=max(1, DELTA_MS // frame_ms),
            deferral_cap_ms=max(DEFERRAL_CAP_MS, DELTA_MS),
            frame_ms=frame_ms,
        )
        for mode in MODES
    ]


def score(call, endpoints, eval_cfg: EvalConfig) -> evaluator.CallScore:
    turns = endpointer.commit_transcript(call.tokens, endpoints, call.end_ms)
    return evaluator.score_call(
        [seg.end_ms for seg in call.segments],
        endpoints,
        [w for seg in call.segments for w in seg.words],
        endpointer.hypothesis_words(turns),
        eval_cfg,
    )


def load_calls(calls_dir: Path) -> list[streams.CallRecord]:
    return [callfile.load_call(p) for p in sorted(calls_dir.glob("*.call"))]


class Workload:
    """Inputs, one timed iteration, and the reference outputs to check it by.

    Besides the timed iterations, ``latency_pass`` times every ``step()`` of
    the workload's own timelines under one machine per mode (``probe``).
    Every run reports every end-to-end metric, step latency included, so
    the CLI workloads take it on their own inputs; their headline figure
    is ``wall_s``, and ``stream-live`` is where step latency is the point.
    """

    name = ""
    configs_per_call = 0  # endpointer configurations each call runs under
    calls_per_batch = 0  # calls per CLI command

    def __init__(self, work: Path, seed: int, sizes: Sizes = Sizes()):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.inputs: Optional[Path] = None
        self.expected: dict[str, bytes] = {}
        self.audio_s = 0.0  # call audio covered by one iteration, all configs
        self.n_calls = 0
        self.n_frames = 0
        # (timeline, config, reference {event index: endpoint})
        self.probe: list[tuple[list, EndpointerConfig, dict]] = []
        self.setup_ops: list[float] = []  # seconds of each set-up step, in order
        self._ops: list[tuple[str, int, tuple[str, ...]]] = []

    @property
    def sim_seed(self) -> int:
        # call k of a corpus is simulated with seed sim_seed + k; spacing the
        # workload seeds keeps the corpora of neighbouring seeds disjoint
        return self.seed * 1000

    # -- setup ------------------------------------------------------------------

    def make_inputs(self, d: Path, out: Outcome) -> None:
        """Write the call files (and checkpoint) the program reads."""
        raise NotImplementedError

    def prepare(self, d: Path) -> None:
        """Load what the timed loop needs in memory (nothing, for the CLI)."""
        self.inputs = d

    def batches(self) -> list[Path]:
        return sorted((self.inputs / "batches").iterdir())

    def _setup_step(self, fn, *args):
        """Run one set-up step, appending its seconds to ``setup_ops``."""
        t0 = perf_counter_ns()
        result = fn(*args)
        self.setup_ops.append((perf_counter_ns() - t0) / 1e9)
        return result

    def _simulate(self, d: Path, n_calls: int, config: Optional[str], out: Outcome) -> None:
        argv = ["simulate", "--out", str(d / "calls"), "--n-calls", str(n_calls)]
        argv += ["--seed", str(self.sim_seed)]
        d.mkdir(parents=True, exist_ok=True)
        if config is not None:
            (d / "calls.cfg").write_text(config)
            argv += ["--config", str(d / "calls.cfg")]
        rc = self._setup_step(run_cli, argv)
        out.op(rc == 0, f"simulate exited {rc}")

    def _train(self, d: Path, out: Outcome) -> None:
        argv = ["train-vad", "--calls", str(d / "calls"), "--out", str(d / "vad.mdl"),
                "--seed", str(self.seed)]
        rc = self._setup_step(run_cli, argv)
        out.op(rc == 0, f"train-vad exited {rc}")

    def _split(self, d: Path) -> None:
        """Copy the calls into batch directories, one per CLI command."""
        t0 = perf_counter_ns()
        paths = sorted((d / "calls").glob("*.call"))
        for k in range(0, len(paths), self.calls_per_batch):
            batch = d / "batches" / f"b{k // self.calls_per_batch:02d}"
            batch.mkdir(parents=True)
            for p in paths[k : k + self.calls_per_batch]:
                shutil.copyfile(p, batch / p.name)
        self.setup_ops.append((perf_counter_ns() - t0) / 1e9)

    # -- reference and check -------------------------------------------------------

    def reference(self, out: Outcome) -> dict[str, bytes]:
        """Rebuild every output from the library API; records it as expected."""
        raise NotImplementedError

    def _measure_corpus(self, calls) -> None:
        self.n_calls = len(calls)
        self.n_frames = sum(len(c.frames) for c in calls)
        self.audio_s = sum(c.end_ms for c in calls) / 1000.0 * self.configs_per_call

    def _add_probe(self, timeline, cfg: EndpointerConfig) -> dict:
        found = dict(step_through(cfg, timeline))
        self.probe.append((timeline, cfg, found))
        return found

    def iterate(self, out_dir: Path) -> list[float]:
        """Run one iteration writing into ``out_dir``; returns each operation's seconds."""
        raise NotImplementedError

    def check(self, out_dir: Path, out: Outcome) -> None:
        """Count each command of the last iteration as one operation."""
        got = read_tree(out_dir)
        for what, rc, names in self._ops:
            bad = [n for n in names if got.get(n) != self.expected.get(n)]
            out.op(
                rc == 0 and not bad,
                f"{what}: exit {rc}, {len(bad)} output(s) differ, first {bad[:1]}",
            )
        extra = sorted(set(got) - set(self.expected))
        out.op(not extra, f"unexpected outputs {extra[:3]}")

    def latency_pass(self, lat_ns: array, out: Outcome) -> None:
        """Step every probe timeline, timing each call; the pass is one operation.

        One, not one per step, so that ``fail_rate`` on the CLI workloads
        stays a share of commands and outputs.
        """
        bad = sum(
            differing_steps(dict(step_through(cfg, tl, lat_ns)), want)
            for tl, cfg, want in self.probe
        )
        out.op(bad == 0, f"{self.name}: {bad} step() results differ in a latency pass")

    def _timed_cli(self, what: str, argv: list[str], names: tuple[str, ...]) -> float:
        t0 = perf_counter_ns()
        rc = run_cli(argv)
        seconds = (perf_counter_ns() - t0) / 1e9
        self._ops.append((what, rc, names))
        return seconds

    def _ref_dir(self) -> Path:
        d = self.work / "reference"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d


class SweepModel(Workload):
    name = "sweep-model"
    configs_per_call = len(MODES) * len(SWEEP_DELTAS)
    calls_per_batch = 1

    def make_inputs(self, d: Path, out: Outcome) -> None:
        self._simulate(d, self.sizes.sweep_calls, NOISY_CONFIG, out)
        self._train(d, out)
        self._split(d)

    def reference(self, out: Outcome) -> dict[str, bytes]:
        model, threshold = vadnet.load_model(str(self.inputs / "vad.mdl"))
        ref = self._ref_dir()
        corpus = []
        self.probe = []
        for batch in self.batches():
            calls = load_calls(batch)
            corpus += calls
            frame_ms = calls[0].frame_ms
            timelines = []
            for call in calls:
                decisions = vadnet.classify_frames(model, call.frames, threshold)
                timelines.append(
                    (
                        streams.merge_streams([], call.tokens),
                        streams.merge_streams(decisions, call.tokens),
                    )
                )
            rows = []
            for mode in MODES:
                for delta in SWEEP_DELTAS:
                    # the same delta -> config mapping as cmd_tradeoff
                    cfg = EndpointerConfig(
                        mode,
                        ts_threshold_ms=delta,
                        blank_run_frames=max(1, delta // frame_ms),
                        deferral_cap_ms=max(DEFERRAL_CAP_MS, delta),
                        frame_ms=frame_ms,
                    )
                    eval_cfg = EvalConfig(delta, TOLERANCE_MS)
                    scores = []
                    for call, (blank_tl, vad_tl) in zip(calls, timelines):
                        tl = blank_tl if mode is Mode.BLANK else vad_tl
                        eps = list(self._add_probe(tl, cfg).values())
                        scores.append(score(call, eps, eval_cfg))
                    pooled = evaluator.pool_scores(scores)
                    rows.append(callfile.ReportRow(mode, delta, TOLERANCE_MS, pooled))
            callfile.save_report(rows, ref / f"sweep_{batch.name}.csv")
        self._measure_corpus(corpus)
        self.expected = read_tree(ref)
        return self.expected

    def iterate(self, out_dir: Path) -> list[float]:
        self._ops = []
        model = f"model:{self.inputs / 'vad.mdl'}"
        return [
            self._timed_cli(
                f"tradeoff {batch.name}",
                ["tradeoff", "--calls", str(batch),
                 "--out", str(out_dir / f"sweep_{batch.name}.csv"), "--vad", model],
                (f"sweep_{batch.name}.csv",),
            )
            for batch in self.batches()
        ]


class EndpointEvaluate(Workload):
    name = "endpoint-evaluate"
    configs_per_call = len(MODES)
    calls_per_batch = 4

    def make_inputs(self, d: Path, out: Outcome) -> None:
        self._simulate(d, self.sizes.default_calls, None, out)
        self._split(d)

    def reference(self, out: Outcome) -> dict[str, bytes]:
        ref = self._ref_dir()
        eval_cfg = EvalConfig(DELTA_MS, TOLERANCE_MS)
        corpus = []
        self.probe = []
        for batch in self.batches():
            calls = load_calls(batch)
            corpus += calls
            for mode in MODES:
                cfg = EndpointerConfig(
                    mode, DELTA_MS, BLANK_FRAMES, DEFERRAL_CAP_MS, calls[0].frame_ms
                )
                ep_dir = ref / batch.name / f"ep_{mode.value}"
                ep_dir.mkdir(parents=True)
                scores = []
                for call in calls:
                    decisions = [] if mode is Mode.BLANK else simulator.oracle_vad(call)
                    tl = streams.merge_streams(decisions, call.tokens)
                    found = self._add_probe(tl, cfg)
                    eps = list(found.values())
                    turns = endpointer.commit_transcript(call.tokens, eps, call.end_ms)
                    stem = ep_dir / call.call_id
                    callfile.save_endpoints(call.call_id, mode, eps, f"{stem}.endpoints")
                    callfile.save_transcripts(call.call_id, turns, f"{stem}.transcript")
                    scores.append(score(call, eps, eval_cfg))
                pooled = evaluator.pool_scores(scores)
                callfile.save_report(
                    [callfile.ReportRow(mode, DELTA_MS, TOLERANCE_MS, pooled)],
                    ref / batch.name / f"report_{mode.value}.csv",
                )
        self._measure_corpus(corpus)
        self.expected = read_tree(ref)
        return self.expected

    def iterate(self, out_dir: Path) -> list[float]:
        self._ops = []
        seconds = []
        for batch in self.batches():
            for mode in MODES:
                ep_rel = f"{batch.name}/ep_{mode.value}"
                ep_dir = out_dir / ep_rel
                ep_names = tuple(n for n in self.expected if n.startswith(ep_rel + "/"))
                seconds.append(
                    self._timed_cli(
                        f"endpoint {ep_rel}",
                        ["endpoint", "--calls", str(batch), "--out", str(ep_dir),
                         "--vad", "oracle", "--delta-ms", str(DELTA_MS), "--mode", mode.value],
                        ep_names,
                    )
                )
                report = f"{batch.name}/report_{mode.value}.csv"
                seconds.append(
                    self._timed_cli(
                        f"evaluate {ep_rel}",
                        ["evaluate", "--calls", str(batch), "--endpoints", str(ep_dir),
                         "--delta-ms", str(DELTA_MS), "--out", str(out_dir / report)],
                        (report,),
                    )
                )
        return seconds


class StreamLive(Workload):
    name = "stream-live"
    configs_per_call = len(MODES)

    def make_inputs(self, d: Path, out: Outcome) -> None:
        self._simulate(d, self.sizes.live_calls, NOISY_CONFIG, out)
        self._train(d, out)

    def prepare(self, d: Path) -> None:
        super().prepare(d)
        self.calls = self._setup_step(load_calls, d / "calls")
        model, threshold = self._setup_step(vadnet.load_model, str(d / "vad.mdl"))
        self.timelines = [
            self._setup_step(
                lambda call: streams.merge_streams(
                    vadnet.classify_frames(model, call.frames, threshold), call.tokens
                ),
                call,
            )
            for call in self.calls
        ]
        self.machine_cfgs = live_configs(self.calls[0].frame_ms)
        t0 = perf_counter_ns()
        # all calls' events in event-time order; ties keep call order
        schedule = [
            (ci, li, ev)
            for _, ci, li, ev in heapq.merge(
                *(
                    [(ev.time_ms, ci, li, ev) for li, ev in enumerate(tl)]
                    for ci, tl in enumerate(self.timelines)
                ),
                key=itemgetter(0),
            )
        ]
        self.chunks = [
            schedule[k : k + LIVE_CHUNK] for k in range(0, len(schedule), LIVE_CHUNK)
        ]
        self.setup_ops.append((perf_counter_ns() - t0) / 1e9)
        self.steps_per_pass = len(schedule) * len(self.machine_cfgs)
        self._found: list = []

    def reference(self, out: Outcome) -> dict[str, bytes]:
        self._measure_corpus(self.calls)
        ref = self._ref_dir()
        self.expected_steps = {}
        for ci, (call, tl) in enumerate(zip(self.calls, self.timelines)):
            for mi, cfg in enumerate(self.machine_cfgs):
                found = step_through(cfg, tl)
                eps = [ep for _, ep in found]
                out.op(
                    eps == endpointer.run_call(cfg, tl),
                    f"{call.call_id} {cfg.mode.value}: step() and run_call disagree",
                )
                for li, ep in found:
                    self.expected_steps[(ci, mi, li)] = ep
                turns = endpointer.commit_transcript(call.tokens, eps, call.end_ms)
                stem = ref / cfg.mode.value / call.call_id
                stem.parent.mkdir(exist_ok=True)
                callfile.save_endpoints(call.call_id, cfg.mode, eps, f"{stem}.endpoints")
                callfile.save_transcripts(call.call_id, turns, f"{stem}.transcript")
        self.expected = read_tree(ref)
        return self.expected

    def iterate(self, out_dir: Path) -> list[float]:
        """One replay of every call's events, timed per run of ``LIVE_CHUNK`` events."""
        clock = perf_counter_ns
        t0 = clock()
        new = endpointer.new_endpointer
        machines = [[new(cfg).step for cfg in self.machine_cfgs] for _ in self.timelines]
        found = []
        seconds = [(clock() - t0) / 1e9]
        for chunk in self.chunks:
            t0 = clock()
            for ci, li, ev in chunk:
                for mi, step in enumerate(machines[ci]):
                    r = step(ev)
                    if r is not None:
                        found.append((ci, mi, li, r))
            seconds.append((clock() - t0) / 1e9)
        self._found = found
        return seconds

    def latency_pass(self, lat_ns: array, out: Outcome) -> None:
        """One replay with every ``step()`` call timed into ``lat_ns``."""
        new = endpointer.new_endpointer
        machines = [[new(cfg).step for cfg in self.machine_cfgs] for _ in self.timelines]
        found = []
        clock = perf_counter_ns
        append = lat_ns.append
        for chunk in self.chunks:
            for ci, li, ev in chunk:
                for mi, step in enumerate(machines[ci]):
                    t0 = clock()
                    r = step(ev)
                    append(clock() - t0)
                    if r is not None:
                        found.append((ci, mi, li, r))
        self._found = found
        self.check(self.work, out)

    def check(self, out_dir: Path, out: Outcome) -> None:
        """Every ``step()`` call of the last replay is one operation."""
        got = {(ci, mi, li): r for ci, mi, li, r in self._found}
        bad = differing_steps(got, self.expected_steps)
        out.op(
            bad == 0,
            f"stream-live: {bad} step() results differ from the reference",
            count=self.steps_per_pass,
            failed=min(bad, self.steps_per_pass),
        )


WORKLOADS = {w.name: w for w in (SweepModel, EndpointEvaluate, StreamLive)}
