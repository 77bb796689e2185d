"""Pipeline benchmark for endpoint_rt.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep-model --seed 0 --seconds 36 --trace 0

Workloads: ``sweep-model``, ``endpoint-evaluate``, ``stream-live`` (see
``perfbench/workloads.py``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that reports per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count and a ``record:`` line
with the machine details.  The exit code is 0 only when every output
matched its reference.

The benchmark imports ``endpoint_rt`` from ``src/`` next to this directory
and nowhere else, and keeps its scratch files under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-model", "endpoint-evaluate", "stream-live")


def _bootstrap() -> str | None:
    """Put the checkout's sources first on the path; returns an error or None."""
    package = SRC / "endpoint_rt"
    if not (package / "__init__.py").is_file():
        return f"no endpoint_rt sources at {package}"
    # single-threaded BLAS: steadier timings, and float results that do not
    # depend on the machine's core count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import endpoint_rt

    if Path(endpoint_rt.__file__).resolve().parent != package.resolve():
        return f"endpoint_rt imported from {endpoint_rt.__file__}, not {package}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Pipeline benchmark for endpoint_rt."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one iteration on prepared inputs so the parent can read
    # this fresh process's peak RSS
    parser.add_argument("--rss-child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    error = _bootstrap()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from perfbench import measure

    if args.rss_child is not None:
        return measure.rss_child(args.workload, args.seed, args.rss_child)
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
