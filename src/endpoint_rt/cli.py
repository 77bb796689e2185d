"""Command-line pipeline: simulate -> train-vad -> endpoint -> evaluate -> tradeoff.

Exit codes: 0 success, 2 usage or configuration error (bad flag values,
malformed config file, invalid parameter combinations), 1 runtime failure
(missing/corrupt inputs, data that cannot be processed).
"""

from __future__ import annotations

import argparse
import math
import sys
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from . import callfile, simulator, vadnet
from .endpointer import EndpointerConfig, Mode, commit_transcript, run_sweep
from .evaluator import CallScore, EvalConfig, pool_scores, score_runs
from .simulator import SimConfig, corrupt_speech, gen_call, oracle_speech
from .streams import (
    SPEECH_CODE,
    CallRecord,
    merge_streams,  # noqa: F401  (the benchmark's tracer tests read cli.merge_streams)
)

T = TypeVar("T")


class UsageError(Exception):
    """A problem the user can fix by changing flags or config."""


def _checked(make: Callable[..., T], *values: object, **named: object) -> T:
    """``make(*values, **named)``, whose ValueError is a usage error (exit 2)."""
    try:
        return make(*values, **named)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- config file --------------------------------------------------------------

def load_sim_config(path: Path) -> SimConfig:
    """Parse a key=value config file into a SimConfig.

    Each value parses as the key's ``SimConfig()`` default is typed: a
    scalar of that type, or a tuple of that length and element types.
    The config is built once, after the last line: a value it refuses
    names the line that sets it, and its call-length bound the last line
    that sets one of the fields it sums.
    """
    defaults = vars(SimConfig())  # field name -> default
    values: dict[str, object] = {}
    lines: dict[str, int] = {}  # field name -> the line that sets it
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise UsageError(f"{path}:{lineno}: not UTF-8 text") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                parts = value.split(",")
                if len(parts) != len(default):
                    raise ValueError(f"expected {len(default)} comma-separated values")
                values[key] = tuple(type(d)(p.strip()) for d, p in zip(default, parts))
            else:
                values[key] = type(default)(value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
        if key in lines:
            raise UsageError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
    try:
        return SimConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        # a refused value's message starts with its field; the bound's names none
        field = str(exc).partition(":")[0]
        fields = [field] if field in lines else simulator.CALL_LENGTH_FIELDS
        raise UsageError(f"{path}:{max(lines.get(f, 0) for f in fields)}: {exc}") from exc


# -- VAD channel --------------------------------------------------------------


# a call's speech flags, one per frame, or None where no rule reads them
VadSource = Callable[[CallRecord], Optional[np.ndarray]]


def _no_vad(call: CallRecord) -> None:
    """No flags, for runs whose rules read only the tokens (BLANK)."""
    return None


def _call_seed(seed: int, call: CallRecord) -> int:
    """The seed of one call's draws: the run's seed offset by the call id."""
    return (seed + zlib.crc32(call.call_id.encode())) % 2**32


def _vad_source(spec: str, seed: int, reads: bool) -> VadSource:
    """Parse --vad {model:<p>|oracle|corrupted:<eer>} once.

    The returned function gives one call's speech flags.  The spec is
    parsed whatever the modes; when no mode ``reads`` the VAD (every one
    is BLANK) it gives none, and a model file is never opened.
    """
    if spec == "oracle":
        source: VadSource = oracle_speech
    elif spec.startswith("corrupted:"):
        try:
            eer = float(spec.partition(":")[2])
        except ValueError as exc:
            raise UsageError(f"--vad: bad corruption rate in {spec!r}") from exc
        if not 0.0 <= eer < 0.5:
            raise UsageError(f"--vad: corruption rate must lie in [0, 0.5), got {eer}")

        def corrupted(call: CallRecord) -> np.ndarray:
            return corrupt_speech(oracle_speech(call), eer, _call_seed(seed, call))

        source = corrupted
    elif spec.startswith("model:"):
        return _model_vad(Path(spec.partition(":")[2])) if reads else _no_vad
    else:
        raise UsageError(
            f"--vad: expected model:<path>, oracle, or corrupted:<eer>, got {spec!r}"
        )
    return source if reads else _no_vad


def _model_vad(model_path: Path) -> VadSource:
    """Load the --vad model once; each call's flags come from its features."""
    if not model_path.is_file():
        raise FileNotFoundError(f"--vad model not found: {model_path}")
    model, threshold = vadnet.load_model(model_path)
    d_in = model.layer_dims[0]

    def classify(call: CallRecord) -> np.ndarray:
        if not len(call.frame_index):
            return np.empty(0, dtype=bool)
        dim = call.features.shape[1]
        if dim != d_in:
            raise ValueError(
                f"{call.call_id}: model expects {d_in} features per frame, "
                f"call has {dim}"
            )
        _check_finite(call)
        p = vadnet.posteriors(model, call.features)
        return vadnet.speech_flags(p, threshold)

    return classify


def _load_calls(calls_dir: Path) -> list[CallRecord]:
    if not calls_dir.is_dir():
        raise FileNotFoundError(f"calls directory not found: {calls_dir}")
    paths = sorted(calls_dir.glob("*.call"))
    if not paths:
        raise FileNotFoundError(f"no .call files in {calls_dir}")
    calls = [callfile.load_call(p) for p in paths]
    named: dict[str, Path] = {}  # call id -> the file that gives it
    for p, call in zip(paths, calls):
        if call.call_id in named:
            raise ValueError(f"{named[call.call_id]} and {p} both give call {call.call_id}")
        named[call.call_id] = p
    return calls


# -- subcommands --------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n_calls < 1:
        raise UsageError(f"--n-calls: must be >= 1, got {args.n_calls}")
    cfg = load_sim_config(args.config) if args.config else SimConfig()
    if args.seed is not None:  # --seed overrides the config only when given
        cfg = _checked(replace, cfg, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.n_calls):
        call = gen_call(replace(cfg, seed=cfg.seed + k))
        callfile.save_call(call, out_dir / f"{call.call_id}.call")
    print(f"wrote {args.n_calls} call files to {out_dir}")
    return 0


def cmd_train_vad(args: argparse.Namespace) -> int:
    try:
        hidden = tuple(int(h) for h in args.hidden.split(","))
        if len(hidden) != 2:
            raise ValueError("expected two comma-separated sizes")
        if not all(1 <= h <= vadnet.MAX_LAYER_DIM for h in hidden):
            raise ValueError(f"sizes must lie in [1, 2**32 - 1], got {args.hidden!r}")
    except ValueError as exc:
        raise UsageError(f"--hidden: {exc}") from exc
    if not 0.0 <= args.holdout < 1.0:
        raise UsageError(f"--holdout: must lie in [0, 1), got {args.holdout}")
    if not (math.isfinite(args.lr) and args.lr > 0):
        raise UsageError(f"--lr: must be a positive finite number, got {args.lr}")
    train_cfg = _checked(vadnet.TrainConfig, args.lr, args.epochs, args.batch_size, args.seed)
    sep = None
    if args.features != "file":
        if not args.features.startswith("oracle:"):
            raise UsageError(
                f"--features: expected 'file' or 'oracle:<separability>', "
                f"got {args.features!r}"
            )
        try:
            sep = float(args.features.partition(":")[2])
        except ValueError as exc:
            raise UsageError(f"--features: bad separability in {args.features!r}") from exc
        if not (math.isfinite(sep) and sep >= 0):
            raise UsageError(
                f"--features: separability must be finite and non-negative, got {sep}"
            )

    calls = _load_calls(Path(args.calls))
    if sep is not None:
        calls = [
            simulator.resample_features(call, sep, _call_seed(args.seed, call))
            for call in calls
        ]

    n_hold = int(round(args.holdout * len(calls)))
    n_hold = min(n_hold, len(calls) - 1)
    train_calls = calls[: len(calls) - n_hold]
    hold_calls = calls[len(calls) - n_hold :] if n_hold else train_calls
    if n_hold == 0:
        print(
            "warning: holdout fraction rounds to 0 calls; evaluating on training data",
            file=sys.stderr,
        )

    x, codes = _frame_arrays(train_calls, args.teacher, args.calls, "training")
    model = vadnet.init_model([x.shape[1], hidden[0], hidden[1], 1], seed=args.seed)
    y = (codes == SPEECH_CODE).astype(float)
    losses = vadnet.train_arrays(model, x, y, train_cfg)

    hold_x, hold_codes = _frame_arrays(hold_calls, False, args.calls, "held-out")
    curve = vadnet.det_curve(vadnet.posteriors(model, hold_x), hold_codes == SPEECH_CODE)
    point = vadnet.eer(curve)
    vadnet.save_model(model, Path(args.out), threshold=point.threshold)
    print(f"trained on {len(x)} frames ({len(train_calls)} calls)")
    print(f"final_epoch_loss={losses[-1]:.6f}")
    print(
        f"held_out_calls={len(hold_calls) if n_hold else 0} "
        f"eer={point.eer:.4f} threshold={point.threshold:.6f}"
    )
    print(f"wrote model checkpoint to {args.out}")
    return 0


def _frame_arrays(
    calls: Sequence[CallRecord], teacher: bool, calls_dir: str, role: str
) -> tuple[np.ndarray, np.ndarray]:
    """The calls' stacked features and label (or teacher label) codes.

    Every frame must carry the label and finite features; ``role`` names
    the calls when none has a frame.
    """
    calls = [c for c in calls if len(c.frame_index)]
    if not calls:
        raise ValueError(f"{calls_dir}: the {role} calls hold no frames")
    dim = calls[0].features.shape[1]
    for call in calls:
        if call.features.shape[1] != dim:
            raise ValueError(
                f"{call.call_id}: {call.features.shape[1]} features per frame, "
                f"{calls[0].call_id} has {dim}"
            )
        _check_finite(call)
        simulator._check_labeled(call, "teacher_label" if teacher else "label")
    codes = np.concatenate([c.teacher_labels if teacher else c.labels for c in calls])
    return np.concatenate([c.features for c in calls]), codes


def _check_finite(call: CallRecord) -> None:
    """The model reads every feature, so each must be a finite number."""
    finite = np.isfinite(call.features)
    if not finite.all():
        row = np.flatnonzero(~finite.all(axis=1))[0]
        raise ValueError(
            f"{call.call_id}: frame {call.frame_index[row]} has a non-finite feature"
        )


def cmd_endpoint(args: argparse.Namespace) -> int:
    calls = _load_calls(Path(args.calls))
    cfg = _checked(
        EndpointerConfig,
        Mode(args.mode),  # argparse's choices admit only Mode values
        args.delta_ms,
        args.blank_frames,
        args.deferral_cap_ms,
        calls[0].frame_ms,
    )
    vad = _vad_source(args.vad, args.seed, reads=cfg.mode is not Mode.BLANK)
    # every call is endpointed before any file is written: a bad call leaves --out as it was
    results = []
    for call in calls:
        [endpoints] = run_sweep([cfg], call, vad(call))
        turns = commit_transcript(call.non_blank_tokens, endpoints, call.end_ms)
        results.append((endpoints, turns))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the transcript is written for people: evaluate commits its own
    for call, (endpoints, transcripts) in zip(calls, results):
        callfile.save_endpoints(
            call.call_id, cfg.mode, endpoints, out_dir / f"{call.call_id}.endpoints"
        )
        callfile.save_transcripts(
            call.call_id, transcripts, out_dir / f"{call.call_id}.transcript"
        )
        print(f"{call.call_id}: {len(endpoints)} endpoints")
    print(f"wrote endpoint + transcript files for {len(calls)} calls to {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    eval_cfg = _checked(EvalConfig, args.delta_ms, args.tolerance_ms)
    ep_dir = Path(args.endpoints)
    if not ep_dir.is_dir():
        raise FileNotFoundError(f"endpoints directory not found: {ep_dir}")
    calls = _load_calls(Path(args.calls))

    scores = []
    mode: Optional[Mode] = None
    for call in calls:
        ep_path = ep_dir / f"{call.call_id}.endpoints"
        if not ep_path.is_file():
            raise FileNotFoundError(f"{call.call_id}: no endpoints file in {ep_dir}")
        ep_call_id, ep_mode, endpoints = callfile.load_endpoints(ep_path)
        if ep_call_id != call.call_id:
            raise ValueError(f"{ep_path}: call id mismatch with {call.call_id}")
        if mode is None:
            mode = ep_mode
        elif mode is not ep_mode:
            raise ValueError(
                f"{ep_path}: mode {ep_mode.value} differs from {mode.value}"
            )
        late = [ep.time_ms for ep in endpoints if ep.time_ms > call.end_ms]
        if late:
            raise ValueError(
                f"{ep_path}: endpoint at {late[0]} ms lies past the end of call "
                f"{call.call_id} at {call.end_ms} ms"
            )
        [s] = score_runs(call, [(endpoints, eval_cfg)])
        scores.append(s)
        print(
            f"{call.call_id}: hits={s.hits} misses={s.misses} false_alarms={s.false_alarms} "
            f"errors={s.substitutions + s.deletions + s.insertions}/{s.ref_words}"
        )
    report = pool_scores(scores)
    assert mode is not None
    print(
        f"pooled: mode={mode.value} delta_ms={args.delta_ms} "
        f"precision={report.precision:.4f} recall={report.recall:.4f} "
        f"f1={report.f1:.4f} wer={report.wer:.4f} "
        f"mean_latency_ms={report.mean_latency_ms:.1f} "
        f"deferral_timeouts={report.deferral_timeouts}"
    )
    if args.out:
        callfile.save_report(
            [callfile.ReportRow(mode, args.delta_ms, args.tolerance_ms, report)],
            Path(args.out),
        )
        print(f"wrote report to {args.out}")
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    try:
        modes = [Mode(m) for m in args.modes.split(",")]
    except ValueError as exc:
        raise UsageError(f"--modes: {exc}") from exc
    for k, mode in enumerate(modes):
        if mode in modes[:k]:
            raise UsageError(f"--modes: {mode.value} is given more than once")
    try:
        deltas = sorted(int(d) for d in args.deltas.split(","))
    except ValueError as exc:
        raise UsageError("--deltas: expected comma-separated integers") from exc
    if len(set(deltas)) != len(deltas) or len(deltas) < 2:
        raise UsageError(
            f"--deltas: need at least 2 distinct values, got {args.deltas!r}"
        )
    # a cap below a delta is raised to that delta; one below every delta
    # is a mistake, not a cap
    if args.deferral_cap_ms < deltas[0]:
        raise UsageError(
            f"--deferral-cap-ms: {args.deferral_cap_ms} is below the smallest "
            f"delta {deltas[0]}"
        )
    calls = _load_calls(Path(args.calls))
    frame_ms = calls[0].frame_ms
    eval_tol = args.tolerance_ms

    # every flag is checked before the first call runs, so a ValueError
    # from the sweep below is a data failure (exit 1), not a usage error
    cfgs: list[EndpointerConfig] = []
    eval_cfgs: list[EvalConfig] = []
    for mode in modes:
        for delta in deltas:
            cap = max(args.deferral_cap_ms, delta)
            cfgs.append(
                _checked(EndpointerConfig, mode, delta, delta // frame_ms, cap, frame_ms)
            )
            eval_cfgs.append(_checked(EvalConfig, delta, eval_tol))

    # the VAD does not depend on the config: classify each call once
    # (BLANK reads only its tokens), then sweep every config
    vad = _vad_source(
        args.vad, args.seed, reads=any(mode is not Mode.BLANK for mode in modes)
    )
    scores: list[list[CallScore]] = [[] for _ in cfgs]
    for call in calls:
        runs = zip(run_sweep(cfgs, call, vad(call)), eval_cfgs)
        for config_scores, score in zip(scores, score_runs(call, runs)):
            config_scores.append(score)

    rows = [
        callfile.ReportRow(cfg.mode, ec.ts_threshold_ms, eval_tol, pool_scores(s))
        for cfg, ec, s in zip(cfgs, eval_cfgs, scores)
    ]
    callfile.save_report(rows, Path(args.out))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endpoint-rt",
        description="Streaming endpoint detection pipeline over simulated calls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic call files")
    p_sim.add_argument("--config", type=Path, default=None, help="key=value config file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--n-calls", type=int, default=1)
    p_sim.add_argument(
        "--seed", type=int, default=None, help="first call's seed (default: config seed)"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train-vad", help="train the frame classifier")
    p_train.add_argument("--calls", required=True, help="directory of .call files")
    p_train.add_argument("--out", required=True, help="model checkpoint path")
    p_train.add_argument(
        "--features",
        default="file",
        help="'file' to use stored features, 'oracle:<sep>' to resample at a separability",
    )
    p_train.add_argument("--hidden", default="16,16", help="hidden layer sizes h1,h2")
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--lr", type=float, default=0.3)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--holdout", type=float, default=0.2, help="held-out call fraction")
    p_train.add_argument(
        "--teacher", action="store_true", help="train on teacher labels instead of truth"
    )
    p_train.set_defaults(func=cmd_train_vad)

    p_ep = sub.add_parser("endpoint", help="run endpoint detection over calls")
    p_ep.add_argument("--calls", required=True)
    p_ep.add_argument("--out", required=True, help="output directory")
    p_ep.add_argument(
        "--vad", default="oracle", help="model:<path> | oracle | corrupted:<eer>"
    )
    p_ep.add_argument(
        "--mode", default=Mode.TS.value, choices=[m.value for m in Mode]
    )
    p_ep.add_argument("--delta-ms", type=int, default=200)
    p_ep.add_argument("--blank-frames", type=int, default=6)
    p_ep.add_argument("--deferral-cap-ms", type=int, default=1000)
    p_ep.add_argument("--seed", type=int, default=0, help="seed for corrupted VAD")
    p_ep.set_defaults(func=cmd_endpoint)

    p_eval = sub.add_parser("evaluate", help="score endpoint files against references")
    p_eval.add_argument("--calls", required=True)
    p_eval.add_argument("--endpoints", required=True, help="directory from 'endpoint'")
    p_eval.add_argument("--delta-ms", type=int, default=200)
    p_eval.add_argument("--tolerance-ms", type=int, default=200)
    p_eval.add_argument("--out", default=None, help="optional report CSV path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_trade = sub.add_parser("tradeoff", help="sweep modes x deltas into one CSV")
    p_trade.add_argument("--calls", required=True)
    p_trade.add_argument("--out", required=True, help="report CSV path")
    p_trade.add_argument(
        "--modes", default="BLANK,TS,EOW,TS_AND_EOW", help="comma-separated mode list"
    )
    p_trade.add_argument(
        "--deltas", default="200,400,600,800", help="comma-separated delta values"
    )
    p_trade.add_argument("--vad", default="oracle")
    p_trade.add_argument("--tolerance-ms", type=int, default=200)
    p_trade.add_argument("--deferral-cap-ms", type=int, default=1000)
    p_trade.add_argument("--seed", type=int, default=0)
    p_trade.set_defaults(func=cmd_tradeoff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
