"""Mission benchmark for posidonia_inspect.

Run from the repository root:

    python3 perfbench/run.py --workload survey-x2 --seed 0 --seconds 30 --trace 0

``--trace 0`` times missions untraced and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced missions, reports the per-layer
metrics and writes ``.perfbench/<workload>-seed<seed>/{spans,layers}.csv``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "posidonia_inspect" / "__init__.py").is_file():
        print(f"run.py: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from checks import load_recorded
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    recorded = load_recorded().get(args.workload, {}).get(str(args.seed))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT, recorded)
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
