"""Record the artifact digest of each workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME ...]

Flies one mission per workload and seed, and stores the combined digest of
its four artifacts in perfbench/digests.json, which run.py then requires
every mission of that workload and seed to reproduce.  Run it only when a
change is meant to alter the artifacts, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import DIGESTS_FILE, load_recorded  # noqa: E402
from harness import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    recorded = load_recorded() if DIGESTS_FILE.exists() else {}
    unhealthy = 0
    for name in args.workload or list(WORKLOADS):
        table = recorded.setdefault(name, {})
        for seed in seeds:
            result = run_workload(name, seed, 0.0, False, HERE.parent / ".perfbench")
            digest = result.digests["all"]
            old = table.get(str(seed))
            status = "new" if old is None else "same" if old == digest else "CHANGED"
            problems = [line for line in result.lines if "FAIL" in line]
            unhealthy += bool(problems)
            print(f"{name} seed {seed} {digest[:16]} {status}", *problems, flush=True)
            table[str(seed)] = digest
            with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
                json.dump(recorded, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 1 if unhealthy else 0


if __name__ == "__main__":
    sys.exit(main())
