"""Tests for the benchmark's own code: span arithmetic, checks, workloads, CLI.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posidonia_inspect.mission as mission
from checks import HEALTHY_GRAMMAR, event_word
from harness import END_TO_END, LAYER_METRICS, run_workload
from posidonia_inspect.geometry import label_components
from tracing import Span, SpanRecorder, covered_ns, installed, self_times, summarize_spans
from workloads import WORKLOADS, dense_field_scenario

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# five-patch with the oracle backend at the seed commit
FIVE_PATCH_WORD = (
    "WR PD DS RO AS PD DS PF TC AS WR WR PD DS PF TC AS "
    "PD DS RO AS WR WR PD DS PF TC AS WR MC"
)


# --- self time ------------------------------------------------------------

def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("a.inner", 15, 25, 1, 0),
        Span("b", 50, 70, 0, 0),
        Span("c", 60, 80, 0, 0),  # overlaps b: the union is subtracted once
    ]
    assert self_times(spans) == [100 - 30 - 30, 30 - 10, 10, 20, 20]


def test_covered_clips_children_to_the_parent():
    assert covered_ns([(-5, 10), (90, 120)], 0, 100) == 20
    assert covered_ns([(10, 20), (10, 20), (15, 30)], 0, 100) == 20
    assert covered_ns([], 0, 100) == 0


def test_summary_takes_the_median_over_missions():
    spans = []
    for mission_id, width in ((0, 10), (1, 30), (2, 20)):
        spans.append(Span("outer", 0, 100, -1, mission_id))
        spans.append(Span("inner", 0, width, len(spans) - 1, mission_id))
    summary = summarize_spans(spans)
    assert summary["inner"] == {"calls": 1, "total_s": 20e-9, "self_s": 20e-9}
    assert summary["outer"]["self_s"] == pytest.approx(80e-9)


def test_recorder_nests_spans_and_tags_the_mission():
    rec = SpanRecorder()
    rec.mission = 7
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent, s.mission) for s in rec.spans] == [
        ("outer", -1, 7), ("inner", 0, 7)]
    assert all(s.end >= s.start for s in rec.spans)


def test_installed_restores_the_package_names():
    original = mission.render
    with installed(SpanRecorder()):
        assert mission.render is not original
    assert mission.render is original


# --- output checks --------------------------------------------------------

def test_grammar_accepts_the_recorded_five_patch_word():
    assert HEALTHY_GRAMMAR.fullmatch(FIVE_PATCH_WORD)


def test_grammar_rejects_an_extra_track_closed():
    extra = FIVE_PATCH_WORD.replace("PF TC AS", "PF TC TC AS", 1)
    assert HEALTHY_GRAMMAR.fullmatch(extra) is None


def test_event_word_maps_kinds_to_tokens():
    kinds = ["PATCH_SKIPPED_EXPLORED", "WAYPOINT_REACHED", "MISSION_COMPLETE"]
    assert event_word(kinds) == "SKIP WR MC"
    assert HEALTHY_GRAMMAR.fullmatch(event_word(["SEGMENTER_ERROR", "MISSION_COMPLETE"])) is None


# --- workloads ------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dense_field_patches_are_disjoint(seed):
    scenario = dense_field_scenario(seed)
    grid = scenario.seafloor.label_map.data
    _, count = label_components(grid != 0)
    assert count == 30
    assert scenario.seed == seed


def test_dense_field_depends_on_the_seed_only():
    a = dense_field_scenario(5).seafloor.label_map.data
    b = dense_field_scenario(5).seafloor.label_map.data
    c = dense_field_scenario(6).seafloor.label_map.data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_lists_the_metrics_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


# --- smoke runs -----------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_each_workload(name, tmp_path):
    result = run_workload(name, 1, 0.0, False, tmp_path, small=True)
    assert result.correct, result.lines
    assert result.attempted == 1
    assert list(result.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in result.metrics.values())


def test_traced_run_reports_every_layer_and_same_bytes(tmp_path):
    result = run_workload("dense-field", 2, 0.0, True, tmp_path, small=True)
    assert result.correct, result.lines  # traced mission reproduces the digest
    assert result.attempted == 2
    assert list(result.metrics) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    assert metrics["world.render.calls"] == metrics["sim.ticks"]
    assert metrics["sim.ticks"] == sum(
        v for k, v in metrics.items() if k.startswith("sim.ticks."))
    assert (tmp_path / "dense-field-seed2" / "spans.csv").is_file()
    assert (tmp_path / "dense-field-seed2" / "layers.csv").is_file()


def test_recorded_digest_mismatch_fails_the_mission(tmp_path):
    result = run_workload("dense-field", 0, 0.0, False, tmp_path, recorded="0" * 64, small=True)
    assert result.failed == 1 and not result.correct


# --- command line ---------------------------------------------------------

def _run_cli(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-track",
         "--seed", "0", "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_contract_json_last():
    proc = _run_cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_cli_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_cli(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
