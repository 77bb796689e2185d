"""Streaming speech endpointing over merged VAD and token event streams.

The pipeline: simulate synthetic calls with ground truth, train a small
frame-level voice activity classifier, run one of four endpointing rules
(blank-run, trailing-silence, end-of-word, or their combination) over the
merged event timeline, and score the detected endpoints for
precision/recall/F1, word error rate, and latency.
"""

from ._kernels import BACKEND, edit_distance_counts, edit_matrix
from .endpointer import (
    EndpointEvent,
    Endpointer,
    EndpointerConfig,
    Mode,
    Trigger,
    TurnTranscript,
    commit_transcript,
    hypothesis_words,
    new_endpointer,
    run_call,
    run_sweep,
)
from .evaluator import (
    CallScore,
    EvalConfig,
    EvalReport,
    Matching,
    WerResult,
    align_events,
    pool_scores,
    score_call,
    score_runs,
    wer,
)
from .simulator import SimConfig, gen_call, oracle_vad, resample_features
from .streams import (
    CallRecord,
    EndOfStream,
    FrameRecord,
    Label,
    ReferenceSegment,
    TimelineEvent,
    TokenEvent,
    TokenKind,
    VadDecision,
    merge_streams,
)
from .vadnet import (
    DetCurve,
    MlpModel,
    OperatingPoint,
    TrainConfig,
    classify_frames,
    det_curve,
    eer,
    init_model,
    load_model,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CallRecord",
    "CallScore",
    "DetCurve",
    "EndOfStream",
    "EndpointEvent",
    "Endpointer",
    "EndpointerConfig",
    "EvalConfig",
    "EvalReport",
    "FrameRecord",
    "Label",
    "Matching",
    "MlpModel",
    "Mode",
    "OperatingPoint",
    "ReferenceSegment",
    "SimConfig",
    "TimelineEvent",
    "TokenEvent",
    "TokenKind",
    "TrainConfig",
    "Trigger",
    "TurnTranscript",
    "VadDecision",
    "WerResult",
    "align_events",
    "classify_frames",
    "commit_transcript",
    "det_curve",
    "edit_distance_counts",
    "edit_matrix",
    "eer",
    "gen_call",
    "hypothesis_words",
    "init_model",
    "load_model",
    "merge_streams",
    "new_endpointer",
    "oracle_vad",
    "pool_scores",
    "resample_features",
    "run_call",
    "run_sweep",
    "save_model",
    "score_call",
    "score_runs",
    "wer",
]
