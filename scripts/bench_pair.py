#!/usr/bin/env python3
"""Benchmark the working tree against a git ref, alternating run by run.

    python3 scripts/bench_pair.py --ref HEAD~1 --pairs 10 --seconds 5 \\
        --workload ring-track --workload survey-x2 --seed 0

The ref's ``src/`` and ``perfbench/`` are unpacked with ``git archive`` into
a temporary directory, and the working tree's are copied next to them, so
both sides run from a fresh tree and nothing is written to the repository.
Each pair runs ``perfbench/run.py --trace 0`` once per side, the side that
goes first alternating from pair to pair so slow drift of the machine falls
on both.  For each workload it prints, per end-to-end metric of
``BENCHMARK.json``, the median on each side, the change/parent ratio of
the medians, the median of the change/parent ratios within each pair (the
two runs of a pair share the machine's slow phases, so this ratio cancels
drift that the ratio of medians keeps), the interquartile range of the
parent's runs, the metric's bound (a share of the parent's median), in how
many pairs the change was better, and a verdict: ``worse`` when the
change's median is worse than the parent's by more than the bound, else
``unresolved`` when the parent's interquartile range is wider than the
bound and not every change run beats every parent run, else ``ok``.
Under the table it lists each side's ``setup_s`` runs, sorted, in µs: the
load time can fall into two clusters from process to process, which a
median and an interquartile range hide.  A pair with a failed run is left
out of the table on both sides.  Exits 1 if
any run crashes or reports ``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side and workload")
    parser.add_argument("--seconds", type=float, default=5.0, help="--seconds of each run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    return args


def unpack_ref(ref: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, *TREES],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def copy_working_tree(dest: Path) -> None:
    for name in TREES:
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The run's result JSON, or None when it crashed or printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def paired_ratio(parent: list[float], change: list[float]) -> float:
    """Median of change/parent over runs of the same pair; NaN without one."""
    ratios = [c / p for p, c in zip(parent, change) if p]
    return statistics.median(ratios) if ratios else float("nan")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    mp, mc = statistics.median(parent), statistics.median(change)
    if better == "lower":
        loss, clear = mc - mp, max(change) < min(parent)
    else:
        loss, clear = mp - mc, min(change) > max(parent)
    if loss > bound * mp:
        return "worse"
    # a change better in every run than the parent in every run is settled
    # however wide the parent's spread
    if quartile_spread(parent) > bound * mp and not clear:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        try:
            unpack_ref(args.ref, sides["parent"])
        except subprocess.CalledProcessError as exc:
            print(f"bench_pair: cannot unpack {args.ref!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        copy_working_tree(sides["change"])
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                done = {}
                for side in order:
                    result = run_once(sides[side], workload, args.seed, args.seconds)
                    if result is None or result["failed"] > 0:
                        failed += 1
                        print(f"{workload} pair {pair + 1} {side}: FAILED", flush=True)
                        continue
                    done[side] = {k: v["value"] for k, v in result["metrics"].items()}
                if len(done) == 2:  # whole pairs only, so runs[...][i] share pair i
                    for side, values in done.items():
                        runs[side].append(values)
                print(f"{workload} pair {pair + 1}/{args.pairs} done", flush=True)
            report(workload, args, metrics, runs)
    return 1 if failed else 0


def report(workload: str, args, metrics, runs) -> None:
    parent, change = runs["parent"], runs["change"]
    print(f"\n{workload} seed {args.seed}: {len(parent)} parent ({args.ref}) and "
          f"{len(change)} change runs of {args.seconds:g} s")
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'ratio':>8}{'paired':>8}"
          f"{'parent IQR':>12}{'bound':>7}{'better':>9}  verdict")
    for name, better, bound in metrics:
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        if not p or not c:
            continue
        mp, mc = statistics.median(p), statistics.median(c)
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(p, c))
        ratio = mc / mp if mp else float("nan")
        print(f"{name:<14}{mp:>12.4f}{mc:>12.4f}{ratio:>8.3f}{paired_ratio(p, c):>8.3f}"
              f"{quartile_spread(p):>12.4f}{bound:>7.0%}{wins:>5} of {len(p)}"
              f"  {verdict(p, c, better, bound)}")
    for side, side_runs in (("parent", parent), ("change", change)):
        setups = sorted(r["setup_s"] * 1e6 for r in side_runs)
        print(f"setup_s {side} runs (us): {' '.join(f'{v:.0f}' for v in setups)}")


if __name__ == "__main__":
    sys.exit(main())
