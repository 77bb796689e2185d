"""Run-time tracing of endpoint_rt's public functions for the per-layer run.

``Tracer.phase(label)`` wraps every public module-level function of the
layer modules for the duration of a ``with`` block, then restores the
originals.  A function is replaced in its defining module and in every
``endpoint_rt`` module that holds it under any name (``cli.merge_streams``
as well as ``streams.merge_streams``), so a caller that imports a function
by name cannot slip out of the trace.  No source file is edited.

Each wrapped call records a span ``[name, start_ns, end_ns, parent]``
(``parent`` is the index of the enclosing traced span, -1 at top level)
and bumps ``calls:<name>``; a few functions also add work counts taken
from their arguments and results (frames classified, timeline events,
bytes read, DP cells, endpoints).  ``Endpointer.step`` runs once per
timeline event, so it is counted, not spanned, to keep the traced run
close to the untraced one.  Spans and counts stay in memory per phase and
are written once, by ``Tracer.dump``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

LAYER_MODULES = (
    "simulator",
    "vadnet",
    "streams",
    "endpointer",
    "evaluator",
    "_kernels",
    "callfile",
    "cli",
)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[1].lstrip("_")


def _file_size(path) -> int:
    return os.path.getsize(path)


# Work counts derived from a traced call: name -> fn(arguments, result) -> {count: n}
_EXTRA: dict[str, Callable[[dict, object], dict[str, int]]] = {
    "vadnet.classify_frames": lambda a, r: {"vadnet.frames_classified": len(r)},
    "streams.merge_streams": lambda a, r: {"streams.timeline_events": len(r)},
    "endpointer.run_call": lambda a, r: {
        "endpointer.run_call_events": len(a["timeline"]),
        "endpointer.endpoints": len(r),
    },
    "kernels.edit_distance_counts": lambda a, r: {
        "kernels.dp_cells": (len(a["a"]) + 1) * (len(a["b"]) + 1)
    },
    "callfile.load_call": lambda a, r: {"callfile.bytes_read": _file_size(a["path"])},
    "callfile.load_endpoints": lambda a, r: {
        "callfile.bytes_read": _file_size(a["path"])
    },
    "callfile.load_transcripts": lambda a, r: {
        "callfile.bytes_read": _file_size(a["path"])
    },
    "callfile.load_report": lambda a, r: {"callfile.bytes_read": _file_size(a["path"])},
}


@dataclass
class Phase:
    """Spans and counts recorded between entering and leaving one phase."""

    label: str
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def total_ns(self, *names: str) -> int:
        wanted = set(names)
        return sum(s[2] - s[1] for s in self.spans if s[0] in wanted)

    def self_ns(self, layer: str) -> int:
        """Time inside ``layer`` spans not covered by their traced children."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        prefix = layer + "."
        return sum(
            (s[2] - s[1]) - child_ns[k]
            for k, s in enumerate(self.spans)
            if s[0].startswith(prefix)
        )


class Tracer:
    """Installs span-recording wrappers for the length of a phase."""

    def __init__(self) -> None:
        self.phases: list[Phase] = []
        self._current: Optional[Phase] = None
        self._stack: list[int] = []
        self._run_call_depth = 0
        self._step_tally = [0, 0]  # step() calls, endpoints returned outside run_call
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def phase(self, label: str) -> Iterator[Phase]:
        ph = Phase(label)
        self.phases.append(ph)
        self._current = ph
        self._stack = []
        self._install()
        try:
            yield ph
        finally:
            self._uninstall()
            self._current = None
            ph.counts["endpointer.step_calls"] += self._step_tally[0]
            ph.counts["endpointer.endpoints"] += self._step_tally[1]
            self._step_tally[:] = [0, 0]

    def dump(self, path: Path) -> None:
        """Write every phase's spans and counts as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "span_fields": ["name", "start_ns", "end_ns", "parent"],
            "phases": [
                {"label": p.label, "counts": dict(p.counts), "spans": p.spans}
                for p in self.phases
            ],
        }
        path.write_text(json.dumps(doc))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        extra = _EXTRA.get(name)
        sig = inspect.signature(fn) if extra else None
        is_run_call = name == "endpointer.run_call"
        calls_key = "calls:" + name
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ph = tracer._current
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(ph.spans))
            ph.spans.append(rec)
            if is_run_call:
                tracer._run_call_depth += 1
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                if is_run_call:
                    tracer._run_call_depth -= 1
            ph.counts[calls_key] += 1
            if extra is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                ph.counts.update(extra(bound.arguments, result))
            return result

        return wrapper

    def _wrap_step(self, step: Callable) -> Callable:
        tracer = self
        tally = self._step_tally

        @functools.wraps(step)
        def traced_step(machine, event):
            result = step(machine, event)
            tally[0] += 1
            # run_call counts its own endpoints; count only the direct callers'
            if result is not None and tracer._run_call_depth == 0:
                tally[1] += 1
            return result

        return traced_step

    def _install(self) -> None:
        import endpoint_rt  # noqa: F401  (loads every layer module)

        owners = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "endpoint_rt" or n.startswith("endpoint_rt.")
        ]
        wrappers: dict[int, tuple[Callable, Callable]] = {}  # id -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = sys.modules[f"endpoint_rt.{short}"]
            layer = _layer(mod.__name__)
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is not None and value is original:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, value))
        machine_cls = sys.modules["endpoint_rt.endpointer"].Endpointer
        step = vars(machine_cls)["step"]
        setattr(machine_cls, "step", self._wrap_step(step))
        self._patched.append((machine_cls, "step", step))

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
