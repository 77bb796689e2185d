"""Timed and traced runs of one workload, and the metrics they report.

Every timing is a "best of repeats": an iteration is a fixed sequence of
short operations (``Workload.iterate``), each operation is repeated once
per iteration for the whole measuring time, and a metric sums, over the
operations, each one's fastest repeat.  On a shared host whose speed
flips between a fast and a slow state every few hundred milliseconds and
drifts between them over minutes, medians of whole iterations moved by
25-45% between runs; the per-operation minimum, which picks each
operation's uncontended time, moved by 5-10%.  The per-iteration totals
are kept in the ``record:`` line for comparison.

End-to-end metrics (untraced run):

* ``setup_s`` -- simulating the calls, training the VAD (CLI, in-process)
  and precomputing in-memory inputs, step by step at each step's fastest
  repeat.  Set-up repeats are interleaved with the timed iterations, one
  before an iteration whenever they have so far taken at most
  ``SETUP_SHARE`` of the measuring time, so they are spread over the whole
  run like the iterations.
  Every repeat must write byte-identical inputs.
* ``wall_s`` -- one iteration: the CLI commands of the CLI workloads, one
  replay of every event on ``stream-live``.
* ``realtime_x`` -- call audio endpointed per ``wall_s`` second, summed
  over every endpointer configuration an iteration runs (16 per call in
  the sweep, 4 otherwise): how many live calls one core keeps up with.
* ``step_p50_us``, ``step_p999_us`` -- per-event ``Endpointer.step()``
  latency, median and 99.9th percentile.  Latency passes, interleaved with the iterations, time every
  step of the workload's own timelines under one machine per mode at
  delta 400 (the interleaved live replay on ``stream-live``, call by call
  on the CLI workloads); the percentiles are taken over the steps of a
  pass (30k to 150k), each at its fastest repeat.  The 99.9th, not the
  99th: about 1% of steps are of a costlier kind, so the 99th percentile
  sits on a cliff and jumped between 1.5 and 2.1 us from one seed's
  corpus to the next; the 99.9th still has over 30 steps beyond it.
* ``peak_rss_mb`` -- peak resident set (MiB) of a fresh child process that
  loads the prepared inputs and runs one iteration.  The child reports its
  own ``VmHWM`` from ``/proc/self/status``.  Not ``ru_maxrss``: exec carries
  the high-water mark of the address space it replaces into the new
  process's ``ru_maxrss``, and ``subprocess`` forks the child with vfork,
  so that address space is this driver's own and the child would report
  the driver's peak.  ``VmHWM`` belongs to the child's address space alone.

``fail_rate`` (failed / attempted operations) is printed with them; it is
also what ``correct``, ``attempted`` and ``failed`` carry.

Per-layer metrics (traced run) are per timed iteration, averaged over the
traced iterations, except the set-up layers (``simulator.gen_call_s``,
``callfile.save_call_s``, ``vadnet.train_s``), which come from one traced
set-up.  Times are inclusive span durations of the named function; counts
repeat exactly between iterations (checked).  ``cli.self_s`` is the time
inside ``cli`` spans not covered by a traced child; ``trace.overhead_s``
is the traced minus the untraced iteration time, both best of repeats.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import endpoint_rt
from perfbench.tracing import Phase, Tracer
from perfbench.workloads import (
    WORKLOADS,
    Outcome,
    Sizes,
    StreamLive,
    Workload,
    digest,
    read_tree,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
SETUP_SHARE = 0.5  # share of the measuring time that set-up repeats may take

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "realtime_x": "x",
    "step_p50_us": "us",
    "step_p999_us": "us",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> unit; every other per-layer metric ending in _s is in s
PER_LAYER_UNITS = {
    "streams.merges_per_call": "1/call",
    "streams.timeline_events": "count",
    "streams.merge_ns_per_event": "ns",
    "vadnet.load_model_calls": "count",
    "vadnet.frames_classified": "count",
    "vadnet.classify_per_frame": "ratio",
    "endpointer.run_call_ns_per_event": "ns",
    "endpointer.step_calls": "count",
    "endpointer.endpoints": "count",
    "simulator.oracle_vad_calls": "count",
    "callfile.bytes_read": "bytes",
    "kernels.dp_cells": "count",
}
SETUP_LAYERS = {
    "simulator.gen_call_s": ("simulator.gen_call",),
    "callfile.save_call_s": ("callfile.save_call",),
    "vadnet.train_s": ("vadnet.train",),
}
# per-iteration time metric -> the traced functions whose spans it sums
ITERATION_TIMES = {
    "streams.merge_streams_s": ("streams.merge_streams",),
    "streams.validate_call_s": ("streams.validate_call",),
    "vadnet.load_model_s": ("vadnet.load_model",),
    "vadnet.classify_frames_s": ("vadnet.classify_frames",),
    "endpointer.run_call_s": ("endpointer.run_call",),
    "endpointer.commit_transcript_s": ("endpointer.commit_transcript",),
    "simulator.oracle_vad_s": ("simulator.oracle_vad",),
    "callfile.load_call_s": ("callfile.load_call",),
    "callfile.endpoint_io_s": (
        "callfile.save_endpoints",
        "callfile.load_endpoints",
        "callfile.save_transcripts",
        "callfile.load_transcripts",
    ),
    "callfile.save_report_s": ("callfile.save_report",),
    "evaluator.score_call_s": ("evaluator.score_call",),
    "evaluator.pool_scores_s": ("evaluator.pool_scores",),
    "kernels.edit_distance_counts_s": ("kernels.edit_distance_counts",),
}


def cpu_reference_ms() -> float:
    """A fixed pure-Python loop, timed to show machine-speed drift."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
    return (perf_counter_ns() - t0) / 1e6


def git_rev(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _fresh(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def setup(wl: Workload, d: Path, out: Outcome) -> list[float]:
    """Set the workload up in a fresh ``d``; returns each set-up step's seconds."""
    _fresh(d)
    gc.collect()
    wl.setup_ops = []
    wl.make_inputs(d, out)
    wl.prepare(d)
    return wl.setup_ops


def repeat_setup(twin: Workload, k: int, first: Path, out: Outcome) -> list[float]:
    """Set-up repeat ``k`` on a twin workload; it must write what ``first`` holds."""
    d = twin.work / f"setup{k}"
    seconds = setup(twin, d, out)
    out.op(read_tree(d) == read_tree(first), f"set-up {k} wrote different inputs than set-up 0")
    shutil.rmtree(d)
    return seconds


def best_of(iterations: list[list[float]]) -> float:
    """Sum over an iteration's operations of each one's fastest repeat."""
    return sum(min(repeats) for repeats in zip(*iterations))


def check_digest(wl: Workload, expected: dict[str, bytes], seed: int, out: Outcome) -> str:
    """Compare the reference outputs with the committed default-seed digest."""
    got = digest(expected)
    if seed == DEFAULT_SEED:
        committed = json.loads(DIGESTS.read_text())["sha256"].get(wl.name)
        out.op(
            got == committed,
            f"{wl.name}: output sha256 {got} differs from the committed {committed}",
        )
    return got


def peak_rss_mib(wl: Workload, seed: int, out: Outcome) -> float:
    """Peak RSS of a fresh child running one iteration on the prepared inputs.

    The child prints its own high-water mark as its last line (``rss_child``);
    0.0 when it fails, which the run reports as a failed operation.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl.name,
        "--seed", str(seed), "--rss-child", str(wl.inputs),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        out.op(False, f"peak-RSS child timed out after {CHILD_TIMEOUT_S} s")
        return 0.0
    lines = proc.stdout.splitlines()
    ok = proc.returncode == 0 and bool(lines) and lines[-1].startswith("peak_rss_kib ")
    out.op(ok, f"peak-RSS child exited {proc.returncode}: {proc.stderr[-300:]}")
    return int(lines[-1].split()[1]) / 1024.0 if ok else 0.0


def own_peak_rss_kib() -> int:
    """This process's resident high-water mark (``VmHWM``), in KiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def rss_child(name: str, seed: int, inputs: Path) -> int:
    """Run one iteration on prepared inputs and print this process's peak RSS."""
    wl = WORKLOADS[name](inputs.parent, seed)
    wl.prepare(inputs)
    wl.iterate(_fresh(inputs.parent / "child-out"))
    print(f"peak_rss_kib {own_peak_rss_kib()}", flush=True)
    return 0 if all(rc == 0 for _, rc, _ in wl._ops) else 1


def _iteration_layers(ph: Phase, wl: Workload) -> dict[str, float]:
    c = ph.counts
    values: dict[str, float] = {
        name: ph.total_ns(*fns) / 1e9 for name, fns in ITERATION_TIMES.items()
    }
    merge_ns = ph.total_ns("streams.merge_streams")
    run_ns = ph.total_ns("endpointer.run_call")
    events = c["streams.timeline_events"]
    run_events = c["endpointer.run_call_events"]
    values.update(
        {
            "streams.merges_per_call": c["calls:streams.merge_streams"] / wl.n_calls,
            "streams.timeline_events": events,
            "streams.merge_ns_per_event": merge_ns / events if events else 0.0,
            "vadnet.load_model_calls": c["calls:vadnet.load_model"],
            "vadnet.frames_classified": c["vadnet.frames_classified"],
            "vadnet.classify_per_frame": c["vadnet.frames_classified"] / wl.n_frames,
            "endpointer.run_call_ns_per_event": run_ns / run_events if run_events else 0.0,
            "endpointer.step_calls": c["endpointer.step_calls"],
            "endpointer.endpoints": c["endpointer.endpoints"],
            "simulator.oracle_vad_calls": c["calls:simulator.oracle_vad"],
            "callfile.bytes_read": c["callfile.bytes_read"],
            "kernels.dp_cells": c["kernels.dp_cells"],
            "cli.self_s": ph.self_ns("cli") / 1e9,
        }
    )
    return values


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return END_TO_END_UNITS.get(name, "s")


def run_untraced(wl: Workload, seed: int, seconds: float, out: Outcome):
    first = wl.work / "setup0"
    setup_reps = [setup(wl, first, out)]
    expected = wl.reference(out)
    sha = check_digest(wl, expected, seed, out)

    # the set-up repeats run on a twin, so the timed loop keeps set-up 0's inputs
    twin = WORKLOADS[wl.name](wl.work, seed, wl.sizes)
    out_dir = wl.work / "out"
    iterations, cpu_ref = [], []
    best_step_ns = None  # per step of a latency pass, its fastest repeat
    passes = 0
    setup_spent = 0.0
    start = perf_counter()
    deadline = start + seconds
    while True:
        cpu_ref.append(cpu_reference_ms())
        t0 = perf_counter()
        if setup_spent <= SETUP_SHARE * (t0 - start):
            setup_reps.append(repeat_setup(twin, len(setup_reps), first, out))
            setup_spent += perf_counter() - t0
        _fresh(out_dir)
        gc.collect()
        iterations.append(wl.iterate(out_dir))
        wl.check(out_dir, out)
        lat = array("q")
        gc.collect()
        wl.latency_pass(lat, out)
        lat_ns = np.frombuffer(lat, dtype=np.int64)
        best_step_ns = lat_ns if best_step_ns is None else np.minimum(best_step_ns, lat_ns)
        passes += 1
        if perf_counter() >= deadline:
            break
    rss = peak_rss_mib(wl, seed, out)

    n = len(iterations)
    wall = best_of(iterations)
    p50, p999 = np.percentile(best_step_ns, [50, 99.9]) / 1e3
    repeats = f"best of {n} repeats of {len(iterations[0])} operations"
    lat_note = f"{best_step_ns.size} steps, each best of {passes} latency passes"
    metrics = {
        "setup_s": (
            best_of(setup_reps),
            f"best of {len(setup_reps)} set-ups of {len(setup_reps[0])} steps",
        ),
        "wall_s": (wall, repeats),
        "realtime_x": (wl.audio_s / wall, f"{wl.audio_s:.1f} s of audio per iteration, {repeats}"),
        "step_p50_us": (float(p50), lat_note),
        "step_p999_us": (float(p999), lat_note),
        "peak_rss_mb": (rss, "1 fresh child process"),
    }
    samples = {
        "setup_s": [sum(rep) for rep in setup_reps],
        "iteration_s": [sum(it) for it in iterations],
        "median_iteration_s": statistics.median(sum(it) for it in iterations),
        "operations_per_iteration": len(iterations[0]),
        "latency_passes": passes,
        "steps_per_pass": int(best_step_ns.size),
    }
    return metrics, samples, cpu_ref, sha


def run_traced(wl: Workload, seed: int, seconds: float, out: Outcome, trace_path: Path):
    tracer = Tracer()
    with tracer.phase("setup") as setup_phase:
        setup(wl, wl.work / "setup0", out)
    expected = wl.reference(out)
    sha = check_digest(wl, expected, seed, out)

    out_dir = wl.work / "out"
    plain, traced, phases, cpu_ref = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        cpu_ref.append(cpu_reference_ms())
        _fresh(out_dir)
        gc.collect()
        plain.append(wl.iterate(out_dir))
        wl.check(out_dir, out)
        _fresh(out_dir)
        gc.collect()
        with tracer.phase(f"iteration{len(phases)}") as ph:
            traced.append(wl.iterate(out_dir))
        wl.check(out_dir, out)
        phases.append(ph)
        if perf_counter() >= deadline:
            break

    counts = [dict(ph.counts) for ph in phases]
    out.op(all(c == counts[0] for c in counts), "traced iterations counted different work")
    per_iteration = [_iteration_layers(ph, wl) for ph in phases]
    n = len(phases)
    metrics = {
        name: (statistics.fmean(v[name] for v in per_iteration), f"mean of {n} traced iterations")
        for name in per_iteration[0]
    }
    for name, fns in SETUP_LAYERS.items():
        metrics[name] = (setup_phase.total_ns(*fns) / 1e9, "1 traced set-up")
    metrics["trace.overhead_s"] = (
        best_of(traced) - best_of(plain),
        f"traced minus untraced iteration, each best of {n} repeats",
    )
    tracer.dump(trace_path)
    samples = {
        "iteration_s": [sum(it) for it in plain],
        "traced_iteration_s": [sum(it) for it in traced],
        "trace_file": str(trace_path),
    }
    return metrics, samples, cpu_ref, sha


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> int:
    """Measure one workload, print the report and result line; returns the exit code."""
    work = BENCH_DIR / ".work" / f"{name}-{seed}-{os.getpid()}"
    wl = WORKLOADS[name](_fresh(work), seed, sizes)
    out = Outcome()
    try:
        if trace:
            trace_path = BENCH_DIR / ".out" / f"trace-{name}-seed{seed}.json"
            metrics, samples, cpu_ref, sha = run_traced(wl, seed, seconds, out, trace_path)
        else:
            metrics, samples, cpu_ref, sha = run_untraced(wl, seed, seconds, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {name} seed={seed} trace={int(trace)} seconds={seconds:g}")
    for metric, (value, note) in metrics.items():
        print(f"  {metric:34s} {value:>16.6f} {_unit(metric):7s} ({note})")
    rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'fail_rate':34s} {rate:>16.6f} {'ratio':7s} ({out.failed}/{out.attempted} operations)")
    for note in out.notes[:20]:
        print(f"  FAILED: {note}")
    q = _quartiles(cpu_ref)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_rev": git_rev(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": endpoint_rt.BACKEND,
        "blas_threads": 1,
        "cpu_ref_ms": {"median": q[1], "q1": q[0], "q3": q[2], "n": len(cpu_ref)},
        "output_sha256": sha,
        "samples": samples,
        "fail_rate": rate,
        "failures": out.notes,
    }
    print("record: " + json.dumps(record))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, (v, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if out.failed == 0 else 1
