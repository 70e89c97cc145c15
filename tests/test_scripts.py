"""The scripts run end to end from a checkout: the examples write their files,
and bench_pair times the working tree against a git ref."""

import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_five_patch_survey(tmp_path):
    result = run_script("run_five_patch_survey.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "completed=True" in result.stdout
    for name in ("trajectory.csv", "events.txt", "polygons.rings", "map.ppm"):
        assert (tmp_path / name).stat().st_size > 0


def test_make_demo_scenario(tmp_path):
    result = run_script("make_demo_scenario.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for preset in ("five_patch", "ring_meadow", "blocks", "empty"):
        for suffix in (".scn", "_map.pgm", "_preview.ppm"):
            assert (tmp_path / f"{preset}{suffix}").stat().st_size > 0


def git_checkout() -> bool:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True, timeout=30)
    except OSError:
        return False
    return done.returncode == 0


@pytest.mark.skipif(not git_checkout(), reason="needs a git checkout with a commit")
def test_bench_pair_reports_both_sides():
    result = run_script("bench_pair.py", "--ref", "HEAD", "--pairs", "1", "--seconds", "0",
                        "--workload", "ring-track")
    assert result.returncode == 0, result.stderr
    table = result.stdout.split("ring-track seed 0: 1 parent (HEAD) and 1 change runs")[1]
    for metric in ("mission_s", "ticks_per_s", "setup_s", "peak_rss_mb"):
        assert re.search(rf"^{metric} .* of 1  (ok|worse|unresolved)$", table, re.MULTILINE), table
    for side in ("parent", "change"):
        assert re.search(rf"^setup_s {side} runs \(us\): \d+$", table, re.MULTILINE), table


@pytest.mark.skipif(not git_checkout(), reason="needs a git checkout with a commit")
def test_bench_pair_rejects_an_unknown_ref():
    result = run_script("bench_pair.py", "--ref", "no-such-ref", "--pairs", "1")
    assert result.returncode == 2
    assert "cannot unpack 'no-such-ref'" in result.stderr


def bench_pair_module():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent, change, better, want", [
    ([1.0, 1.0, 1.0, 1.0], [1.1, 1.2, 1.2, 1.3], "lower", "ok"),
    ([1.0, 1.0, 1.0, 1.0], [1.2, 1.3, 1.3, 1.4], "lower", "worse"),
    ([10.0, 10.0, 10.0, 10.0], [6.0, 7.0, 7.0, 8.0], "higher", "worse"),
    ([0.5, 1.0, 1.0, 1.5], [0.9, 1.0, 1.0, 1.1], "lower", "unresolved"),
    ([0.6, 1.0, 1.0, 1.5], [0.3, 0.4, 0.4, 0.5], "lower", "ok"),
])
def test_bench_pair_verdict_applies_the_bound(parent, change, better, want):
    assert bench_pair_module().verdict(parent, change, better, 0.25) == want


def test_bench_pair_paired_ratio_follows_each_pair():
    paired_ratio = bench_pair_module().paired_ratio
    # the machine slows pair by pair; each change run is 10% faster than its partner
    parent, change = [1.0, 2.0, 4.0, 8.0, 16.0], [0.9, 1.8, 3.6, 7.2, 14.4]
    assert paired_ratio(parent, change) == pytest.approx(0.9)
    # a zero parent run has no ratio; no pair at all gives NaN
    assert paired_ratio([0.0, 2.0, 4.0], [1.0, 1.0, 5.0]) == pytest.approx(0.875)
    assert math.isnan(paired_ratio([], []))
