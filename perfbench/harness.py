"""One benchmark run: set a workload up, time its missions, check and report them.

The harness drives the package's public API only: ``save_scenario`` /
``load_scenario`` for set-up, then ``run_mission`` and ``write_mission_log``
once per mission.  All times are host seconds.  A traced run alternates
untraced and traced missions so it can report the tracing overhead.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from posidonia_inspect import (
    VehicleState,
    detect_dark_patches,
    load_scenario,
    render,
    run_mission,
    save_scenario,
    write_mission_log,
)

from checks import ARTIFACTS, TOKENS, artifact_digests, check_mission
from tracing import SpanRecorder, TracedBackend, installed, summarize_spans, tick_durations
from workloads import WORKLOADS, tick_budget

__all__ = ["END_TO_END", "LAYER_METRICS", "RunResult", "run_workload"]

SETUP_REPEATS = 51

PHASES = ("SURVEY", "DESCEND", "INSPECT", "TRACK_BOUNDARY", "ASCEND", "COMPLETE")

# (name, unit, better) of the metrics a timed run reports
END_TO_END = (
    ("mission_s", "s", "lower"),
    ("ticks_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# span name -> the statistics reported for it in a traced run
_SPAN_STATS = (
    ("world.render", ("calls", "self_s", "us_per_call")),
    ("camera.pixel_grid_world", ("calls", "self_s")),
    ("world.classes_at", ("calls", "self_s")),
    ("imaging.attenuate", ("self_s",)),
    ("imaging.add_speckle", ("self_s",)),
    ("darkpatch.detect_dark_patches", ("calls", "self_s", "us_per_call")),
    ("darkpatch.label_components", ("self_s",)),
    ("segmentation.segment", ("calls", "self_s", "us_per_call")),
    ("segmentation.to_hsv", ("self_s",)),
    ("segmentation.majority_smooth", ("self_s",)),
    ("segmentation.meadow_boundary", ("calls", "self_s")),
    ("segmentation.trace_component", ("self_s",)),
    ("segmentation.summarize", ("calls",)),
    ("geometry.record_exploration", ("calls", "self_s")),
    ("geometry.alpha_shape", ("self_s",)),
    ("geometry.explored_covers", ("calls", "self_s")),
    ("vehicle.step", ("calls", "self_s")),
    ("vehicle.waypoint_guidance", ("calls", "self_s")),
    ("vehicle.boundary_guidance", ("calls", "self_s")),
    ("mission.run_tick", ("self_s",)),
    ("mission.run_mission", ("self_s",)),
    ("mission.write_mission_log", ("self_s",)),
)
_STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}

# (name, unit, better) of the metrics a traced run reports
LAYER_METRICS = tuple(
    (f"{span}.{stat}", _STAT_UNITS[stat], "lower")
    for span, stats in _SPAN_STATS
    for stat in stats
) + (
    ("darkpatch.useful_ratio", "ratio", "higher"),
    ("explored.points", "count", "lower"),
    ("explored.rings", "count", "lower"),
    ("mission.write_mission_log.bytes", "bytes", "lower"),
    ("tick.us_p50", "us", "lower"),
    ("tick.us_p99", "us", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("sim.ticks", "count", "lower"),
) + tuple((f"sim.ticks.{p}", "count", "lower") for p in PHASES) + tuple(
    (f"sim.events.{k}", "count", "lower") for k in TOKENS
)


@dataclass
class Mission:
    traced: bool
    host_s: float
    ticks: int
    digest: str
    problems: list[str]


@dataclass
class RunResult:
    lines: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)  # first mission's artifacts

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def sim_counts(log) -> dict[str, int]:
    """Simulated statistics of one mission; they must repeat exactly."""
    phases = Counter()
    last_time = None
    for row in log.rows:  # several rows share a tick when it logs several events
        if row.time != last_time:
            phases[row.phase] += 1
            last_time = row.time
    kinds = Counter(e.kind for e in log.events)
    counts = {"sim.ticks": log.ticks}
    counts.update({f"sim.ticks.{p}": phases[p] for p in PHASES})
    counts.update({f"sim.events.{k}": kinds[k] for k in TOKENS})
    return counts


def _warm_up(scenario, backend) -> None:
    # first calls fill lazy caches (pixel grids, ufunc set-up) outside timing
    x, y = scenario.waypoints[0]
    altitude = scenario.seafloor.seabed_depth - scenario.mission.survey_depth
    frame, _ = render(scenario, x, y, 0.0, altitude)
    detect_dark_patches(frame, scenario.detector, vehicle_depth=scenario.mission.survey_depth)
    if hasattr(backend, "bind_pose"):
        backend.bind_pose(VehicleState(x=x, y=y, z=scenario.mission.survey_depth, yaw=0.0))
    backend.segment(frame)


def _fly(workload, scenario, budget, out_dir, recorder, mission_id):
    """Run and write one mission; returns (log, host seconds, artifact bytes)."""
    backend = workload.backend(scenario)
    runner, writer, patches = run_mission, write_mission_log, nullcontext()
    if recorder is not None:
        recorder.mission = mission_id
        backend = TracedBackend(backend, recorder)
        runner = recorder.wrap("mission.run_mission", run_mission)
        writer = recorder.wrap("mission.write_mission_log", write_mission_log)
        patches = installed(recorder)
    with patches:
        start = time.perf_counter()
        log = runner(scenario, backend, budget)
        host_s = time.perf_counter() - start
        writer(scenario, log, out_dir)
    return log, host_s, sum((Path(out_dir) / n).stat().st_size for n in ARTIFACTS)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_root,
    recorded: str | None = None,
    small: bool = False,
) -> RunResult:
    """Set up ``name``, fly missions for ``seconds``, check and measure them.

    Missions start while the longest one so far still fits before the
    deadline; at least one runs, and a traced run flies at least one
    untraced and one traced mission.  Every mission's artifacts must match
    the first mission's and, when given, the ``recorded`` digest.  ``small``
    shrinks the workloads that have a size (dense-field) for smoke tests.
    """
    workload = WORKLOADS[name]
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    expected = [recorded] if recorded else []
    result = RunResult()
    say = result.lines.append
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    recorder = SpanRecorder() if trace else None
    missions: list[Mission] = []
    walls: list[float] = []
    first_log = None
    bytes_written = 0
    try:
        scn_path = work / "scenario.scn"
        save_scenario(workload.build(seed, small), scn_path)
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            scenario = load_scenario(scn_path)
            backend = workload.backend(scenario)
            setup.append(time.perf_counter() - start)
        budget = tick_budget(scenario)
        _warm_up(scenario, backend)
        say(f"workload {name} seed {seed} trace {int(trace)} budget {budget} ticks"
            f" recorded digest {expected[0][:16] if expected else 'none'}")

        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(missions) % 2 == 1
            # a fresh directory per mission, as a user writes a new run
            out_dir = work / f"mission-{len(missions)}"
            start = time.perf_counter()
            try:
                log, host_s, bytes_written = _fly(
                    workload, scenario, budget, out_dir,
                    recorder if traced else None, len(missions),
                )
                digests = artifact_digests(out_dir)
                digest = digests["all"]
                if first_log is None:
                    first_log, result.digests = log, digests
                    expected.append(digest)
                problems = check_mission(log, budget, digest, expected)
                missions.append(Mission(traced, host_s, log.ticks, digest, problems))
            except Exception:  # noqa: BLE001 - a crashed mission counts as failed
                host_s = time.perf_counter() - start
                problems = [traceback.format_exc().strip().splitlines()[-1]]
                missions.append(Mission(traced, host_s, 0, "", problems))
            shutil.rmtree(out_dir, ignore_errors=True)
            m = missions[-1]
            say(f"mission {len(missions)} traced {int(m.traced)} host_s {m.host_s:.4f} "
                f"ticks {m.ticks} digest {m.digest[:16]} "
                + ("ok" if not m.problems else "FAIL " + "; ".join(m.problems)))

            walls.append(time.perf_counter() - start)
            if trace and len(missions) < 2:
                continue
            if time.perf_counter() + max(walls) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if first_log is None:
        raise RuntimeError(f"no {name} mission ran to the end; nothing to measure")
    result.attempted = len(missions)
    result.failed = sum(1 for m in missions if m.problems)
    plain = [m for m in missions if not m.traced]
    mission_s = statistics.median(m.host_s for m in plain)
    ticks_per_s = sum(m.ticks for m in plain) / sum(m.host_s for m in plain)
    say(f"mission_s {mission_s:.4f} s median of {len(plain)}; ticks_per_s {ticks_per_s:.1f}; "
        f"setup_s {statistics.median(setup):.5f} s median of {len(setup)}; "
        f"failed_frac {result.failed / result.attempted:.3f} "
        f"({result.failed} of {result.attempted})")
    counts = sim_counts(first_log)
    say("sim " + " ".join(f"{k[4:]}={v}" for k, v in counts.items()))
    for artifact, digest in result.digests.items():
        say(f"digest {artifact} {digest}")

    if not trace:
        metrics = {
            "mission_s": mission_s,
            "ticks_per_s": ticks_per_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _ in END_TO_END}
    else:
        metrics = _layer_metrics(recorder, missions, first_log, counts, bytes_written, out_root, name, seed)
        units = {n: u for n, u, _ in LAYER_METRICS}
        for metric, value in metrics.items():
            say(f"layer {metric} {value:.6g} {units[metric]}")
    result.metrics = {n: (metrics[n], units[n]) for n in units}
    return result


def _layer_metrics(recorder, missions, first_log, counts, bytes_written, out_root, name, seed):
    spans = recorder.spans
    summary = summarize_spans(spans)
    metrics: dict[str, float] = {}
    for span, stats in _SPAN_STATS:
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat == "us_per_call":
                value = row["total_s"] * 1e6 / row["calls"] if row["calls"] else 0.0
            else:
                value = row[stat]
            metrics[f"{span}.{stat}"] = value

    detects = summary.get("darkpatch.detect_dark_patches", {}).get("calls", 0)
    announced = counts["sim.events.PATCH_DETECTED"] + counts["sim.events.PATCH_SKIPPED_EXPLORED"]
    ticks = tick_durations(spans)
    traced_s = statistics.median(m.host_s for m in missions if m.traced)
    plain_s = statistics.median(m.host_s for m in missions if not m.traced)
    metrics.update({
        "darkpatch.useful_ratio": announced / detects if detects else 0.0,
        "explored.points": len(first_log.explored.points),
        "explored.rings": len(first_log.explored.polygons),
        "mission.write_mission_log.bytes": bytes_written,
        "tick.us_p50": statistics.median(ticks),
        "tick.us_p99": statistics.quantiles(ticks, n=100)[98],
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "trace.spans": len(spans) / sum(1 for m in missions if m.traced),
    })
    metrics.update(counts)
    _write_trace(out_root / f"{name}-seed{seed}", spans, summary)
    return metrics


def _write_trace(out_dir: Path, spans, summary) -> None:
    """spans.csv (times relative to each mission's first span) and layers.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    origin = {}
    for s in spans:
        origin.setdefault(s.mission, s.start)
    with open(out_dir / "spans.csv", "w", encoding="utf-8") as fh:
        fh.write("mission,id,parent,name,start_ns,end_ns\n")
        for i, s in enumerate(spans):
            t0 = origin[s.mission]
            fh.write(f"{s.mission},{i},{s.parent},{s.name},{s.start - t0},{s.end - t0}\n")
    with open(out_dir / "layers.csv", "w", encoding="utf-8") as fh:
        fh.write("name,calls,total_s,self_s\n")
        for span, row in summary.items():
            fh.write(f"{span},{row['calls']},{row['total_s']:.9f},{row['self_s']:.9f}\n")
