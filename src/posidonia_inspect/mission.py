"""Inspection mission finite-state machine and the tick loop around it.

The machine cycles SURVEY -> DESCEND -> INSPECT -> (TRACK_BOUNDARY ->)
ASCEND -> SURVEY over a waypoint list, diving on dark patches the
detector reports and following meadow boundaries until they close.
run_tick is a pure transition function.  It finds the phase's function in
the _PHASES table; each returns the MissionState fields it changes and the
guidance, and run_tick applies them in one replace.  INSPECT and
TRACK_BOUNDARY, named in _MASK_PHASES, read the segmenter's mask of the
frame, which run_tick takes once per tick; the others read the frame at
most through the dark-patch detector (SURVEY).  run_mission owns the loop
and produces a MissionLog whose file renderings are byte-stable for a
given scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from ._rules import integer
from .camera import CameraModel, pixel_to_world
from .darkpatch import detect_dark_patches
from .geometry import ExploredMap, Polygon, explored_covers, format_ring, record_exploration
from .imaging import Raster, write_pnm
from .segmentation import POSIDONIA, ROCKS, LabelMask, SegmenterBackend, meadow_boundary, summarize
from .vehicle import (GuidanceRef, VehicleState, boundary_guidance, interior_vertices, step,
                      waypoint_guidance, wrap_angle)
from .world import Frame, MissionConfig, Scenario, _cell_index, render

__all__ = [
    "MissionPhase",
    "MissionState",
    "MissionEvent",
    "MissionLog",
    "TrajectoryRow",
    "EVENT_KINDS",
    "run_tick",
    "run_mission",
    "initial_state",
    "render_overview",
    "write_mission_log",
]


class MissionPhase(Enum):
    SURVEY = "SURVEY"
    DESCEND = "DESCEND"
    INSPECT = "INSPECT"
    TRACK_BOUNDARY = "TRACK_BOUNDARY"
    ASCEND = "ASCEND"
    COMPLETE = "COMPLETE"


PATCH_DETECTED = "PATCH_DETECTED"
PATCH_SKIPPED_EXPLORED = "PATCH_SKIPPED_EXPLORED"
DESCEND_START = "DESCEND_START"
POSIDONIA_FOUND = "POSIDONIA_FOUND"
ROCKS_ONLY = "ROCKS_ONLY"
TRACK_CLOSED = "TRACK_CLOSED"
TRACK_LOST = "TRACK_LOST"
ASCEND_START = "ASCEND_START"
WAYPOINT_REACHED = "WAYPOINT_REACHED"
MISSION_COMPLETE = "MISSION_COMPLETE"
SEGMENTER_ERROR = "SEGMENTER_ERROR"

EVENT_KINDS = frozenset({
    PATCH_DETECTED, PATCH_SKIPPED_EXPLORED, DESCEND_START, POSIDONIA_FOUND,
    ROCKS_ONLY, TRACK_CLOSED, TRACK_LOST, ASCEND_START,
    WAYPOINT_REACHED, MISSION_COMPLETE, SEGMENTER_ERROR,
})


@dataclass(frozen=True)
class MissionEvent:
    time: float
    kind: str
    x: float
    y: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class MissionState:
    """FSM phase plus everything the transition function carries across ticks.

    announcements holds (x, y, last_seen_tick) triples for patches already
    reported; a sighting within announce_match_radius of a fresh entry only
    refreshes it, which keeps a patch from being re-reported every tick
    while it stays in view.  track_points holds the boundary track so
    far: its first point is where tracking started, its last the
    previous tick's position.  track_path is the running length of that
    polyline, kept so a tick adds one segment instead of re-summing the
    track.  Every way out of a dive clears all four track fields.
    """

    explored: ExploredMap
    phase: MissionPhase = MissionPhase.SURVEY
    tick: int = 0
    waypoint_index: int = 0
    descend_target: tuple[float, float] | None = None
    inspect_left: int = 0
    inspect_hits: int = 0
    inspect_rocks: int = 0
    track_path: float = 0.0
    track_points: tuple[tuple[float, float], ...] = ()
    track_align_yaw: float | None = None
    lost_count: int = 0
    announcements: tuple[tuple[float, float, int], ...] = ()
    survey_samples: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class TrajectoryRow:
    time: float
    x: float
    y: float
    z: float
    yaw: float
    phase: str
    event: str = ""


@dataclass(frozen=True)
class MissionLog:
    rows: tuple[TrajectoryRow, ...]
    events: tuple[MissionEvent, ...]
    explored: ExploredMap
    completed: bool
    ticks: int

    @property
    def boundaries(self) -> tuple[Polygon, ...]:
        """Closed boundary tracks, as committed to the explored map."""
        return self.explored.committed_regions


def initial_state(scenario: Scenario) -> MissionState:
    return MissionState(explored=ExploredMap(alpha=scenario.mission.explored_alpha))


@dataclass(slots=True)
class _Tick:
    """What one transition reads, and the events it emits."""

    tick: int
    vehicle: VehicleState
    frame: Frame
    scenario: Scenario
    inspect_depth: float
    events: list[MissionEvent] = field(default_factory=list)

    def emit(self, kind: str, detail: str = "", at: tuple[float, float] | None = None) -> None:
        ex, ey = at if at is not None else (self.vehicle.x, self.vehicle.y)
        self.events.append(MissionEvent(self.vehicle.time, kind, ex, ey, detail))

    def hold(self, depth: float, yaw: float | None = None) -> GuidanceRef:
        # stop at depth, turned to yaw or on the current heading
        yaw = self.vehicle.yaw if yaw is None else yaw
        return GuidanceRef(target_depth=depth, target_surge=0.0, target_yaw=yaw)


def _fresh_match(announced: list, cfg: MissionConfig, wx: float, wy: float,
                 tick: int) -> int | None:
    for i, (ax, ay, seen) in enumerate(announced):
        if tick - seen > cfg.announce_expiry_ticks:
            continue
        if math.hypot(wx - ax, wy - ay) <= cfg.announce_match_radius:
            return i
    return None


def _segment_safely(backend: SegmenterBackend, camera: CameraModel, frame: Frame):
    """Backend call that downgrades a failure or a mask unfit for the camera to an event."""
    try:
        mask = backend.segment(frame)
    except Exception as exc:  # noqa: BLE001 - fail-safe boundary by contract
        return None, f"{type(exc).__name__}: {exc}"
    if not isinstance(mask, LabelMask):
        return None, f"backend returned {type(mask).__name__}, not a LabelMask"
    shape = (camera.height, camera.width)
    if mask.data.shape != shape:
        return None, f"mask shape {mask.data.shape} does not match the camera's {shape}"
    return mask, None


def _boundary_align_yaw(contour: Polygon, ctx: _Tick) -> float | None:
    """World heading along the boundary at its point nearest the camera.

    The rate-based follow law assumes the vehicle already moves roughly
    along the boundary; this supplies the heading to turn to first.  The
    tangent is taken from the contour's neighbors around the nearest
    vertex and flipped so the meadow interior sits on the configured side.
    """
    verts, frame = contour.vertices, ctx.frame
    wx, wy = pixel_to_world(
        ctx.scenario.camera, verts[:, 0], verts[:, 1], frame.x, frame.y, frame.yaw, frame.altitude
    )
    n = wx.shape[0]
    i = int(np.argmin((wx - frame.x) ** 2 + (wy - frame.y) ** 2))
    j, k = (i + 1) % n, (i - 1) % n
    tx, ty = wx[j] - wx[k], wy[j] - wy[k]
    norm = math.hypot(tx, ty)
    if norm < 1e-9:
        return None
    tx, ty = tx / norm, ty / norm
    toward_x = float(wx.mean()) - wx[i]
    toward_y = float(wy.mean()) - wy[i]
    # world frame is y-up, so "meadow on the left" means positive cross
    cross = tx * toward_y - ty * toward_x
    if (cross > 0.0) != (ctx.scenario.tracking.meadow_side == "left"):
        tx, ty = -tx, -ty
    return math.atan2(ty, tx)


def _dive_seen(machine: MissionState, ctx: _Tick):
    # what the dive has seen, for the explored map: the track in TRACK_BOUNDARY;
    # in INSPECT the buffered survey line and a coarse disk outline around the
    # dive point, so the patch and its surroundings count as explored
    if machine.phase is MissionPhase.TRACK_BOUNDARY:
        return machine.track_points
    x, y, r = ctx.vehicle.x, ctx.vehicle.y, ctx.scenario.mission.cover_radius
    n = 16  # outline points
    return [*machine.survey_samples, *(
        (x + r * math.cos(2.0 * math.pi * k / n), y + r * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    )]


def _end_dive(machine: MissionState, ctx: _Tick, seen=(), ring: Polygon | None = None):
    # the one way out of a dive: a closed track adds its ring, any other exit
    # commits what the dive saw; every exit clears the whole track
    ctx.emit(ASCEND_START)
    if ring is None:
        explored = record_exploration(machine.explored, [*seen, (ctx.vehicle.x, ctx.vehicle.y)])
    else:
        explored = machine.explored.add_region(ring)
    return {
        "phase": MissionPhase.ASCEND, "explored": explored, "survey_samples": (),
        "track_points": (), "track_path": 0.0, "track_align_yaw": None, "lost_count": 0,
    }, ctx.hold(ctx.scenario.mission.survey_depth)


def _complete(machine: MissionState, ctx: _Tick):
    return {}, ctx.hold(ctx.scenario.mission.survey_depth)


def _survey(machine: MissionState, ctx: _Tick):
    scenario, vehicle, frame, tick = ctx.scenario, ctx.vehicle, ctx.frame, ctx.tick
    mission, vcfg = scenario.mission, scenario.vehicle
    changes = {}
    if tick % mission.trajectory_stride == 0:
        changes["survey_samples"] = machine.survey_samples + ((vehicle.x, vehicle.y),)

    report = detect_dark_patches(frame, scenario.detector, vehicle_depth=vehicle.z)
    announced = list(machine.announcements)
    target = None
    for patch in report.patches:
        wx, wy = pixel_to_world(
            scenario.camera, *patch.centroid, frame.x, frame.y, frame.yaw, frame.altitude
        )
        hit = _fresh_match(announced, mission, wx, wy, tick)
        if hit is not None:
            announced[hit] = (wx, wy, tick)
            continue
        announced.append((wx, wy, tick))
        if explored_covers(machine.explored, (wx, wy)):
            ctx.emit(PATCH_SKIPPED_EXPLORED, f"at {wx:.2f} {wy:.2f}", at=(wx, wy))
        else:
            ctx.emit(PATCH_DETECTED, f"at {wx:.2f} {wy:.2f} area {patch.area_px}", at=(wx, wy))
            ctx.emit(DESCEND_START, f"target {wx:.2f} {wy:.2f}", at=(wx, wy))
            target = (wx, wy)
        break  # at most one announcement per tick keeps the log readable
    changes["announcements"] = tuple(announced)
    if target is not None:
        ref, _ = waypoint_guidance(vehicle, target, ctx.inspect_depth, vcfg)
        return changes | {"phase": MissionPhase.DESCEND, "descend_target": target}, ref

    waypoints, index = scenario.waypoints, machine.waypoint_index
    ref, arrived = waypoint_guidance(vehicle, waypoints[index], mission.survey_depth, vcfg)
    if arrived:
        ctx.emit(WAYPOINT_REACHED, f"index {index}")
        if index + 1 >= len(waypoints):
            ctx.emit(MISSION_COMPLETE, f"waypoints {len(waypoints)}")
            changes["phase"] = MissionPhase.COMPLETE
            return changes, ctx.hold(mission.survey_depth)
        changes["waypoint_index"] = index + 1
        ref, _ = waypoint_guidance(vehicle, waypoints[index + 1], mission.survey_depth, vcfg)
    return changes, ref


def _descend(machine: MissionState, ctx: _Tick):
    vcfg, depth = ctx.scenario.vehicle, ctx.inspect_depth
    ref, arrived = waypoint_guidance(ctx.vehicle, machine.descend_target, depth, vcfg)
    if not arrived:
        return {}, ref
    return {"phase": MissionPhase.INSPECT, "inspect_left": ctx.scenario.mission.inspect_frames,
            "inspect_hits": 0, "inspect_rocks": 0}, ctx.hold(depth)


def _inspect(machine: MissionState, ctx: _Tick, mask: LabelMask):
    mission = ctx.scenario.mission
    fractions = summarize(mask)
    present = fractions >= mission.presence_min_fraction
    left = machine.inspect_left - 1
    hits = machine.inspect_hits + int(present[POSIDONIA])
    rocks = machine.inspect_rocks + int(present[ROCKS])
    changes = {"inspect_left": left, "inspect_hits": hits, "inspect_rocks": rocks}
    if left > 0:
        return changes, ctx.hold(ctx.inspect_depth)

    if 2 * hits <= mission.inspect_frames:
        ctx.emit(ROCKS_ONLY, "rocks" if rocks else "barren")
        exit_changes, ref = _end_dive(machine, ctx, _dive_seen(machine, ctx))
        return changes | exit_changes, ref

    # a meadow commits the dive at the decision frame, so a run cut
    # short while tracking still holds it
    ctx.emit(POSIDONIA_FOUND, f"fraction {fractions[POSIDONIA]:.3f}")
    pos = (ctx.vehicle.x, ctx.vehicle.y)
    explored = record_exploration(machine.explored, [*_dive_seen(machine, ctx), pos])
    contour = meadow_boundary(mask)
    align = None if contour is None else _boundary_align_yaw(contour, ctx)
    return changes | {
        "phase": MissionPhase.TRACK_BOUNDARY, "explored": explored, "survey_samples": (),
        "track_points": (pos,), "track_align_yaw": align,
    }, ctx.hold(ctx.inspect_depth)


def _track(machine: MissionState, ctx: _Tick, mask: LabelMask):
    scenario, vehicle, depth = ctx.scenario, ctx.vehicle, ctx.inspect_depth
    mission, tracking = scenario.mission, scenario.tracking
    pos = (vehicle.x, vehicle.y)
    prev, start = machine.track_points[-1], machine.track_points[0]
    path = machine.track_path + math.hypot(pos[0] - prev[0], pos[1] - prev[1])
    track = machine.track_points + (pos,)
    closed = math.hypot(pos[0] - start[0], pos[1] - start[1]) <= mission.loop_close_radius
    if path >= mission.min_track_path and closed:
        ctx.emit(TRACK_CLOSED, f"path {path:.2f}")
        return _end_dive(machine, ctx, ring=Polygon(np.array(track)))

    changes = {"track_path": path, "track_points": track}
    if machine.track_align_yaw is not None:
        # acquisition: rotate in place onto the boundary heading before
        # the rate-based follow law takes over
        if abs(wrap_angle(machine.track_align_yaw - vehicle.yaw)) > 0.25:
            return changes, ctx.hold(depth, machine.track_align_yaw)
        changes["track_align_yaw"] = None

    contour = meadow_boundary(mask)
    ref = None if contour is None else boundary_guidance(contour, scenario.camera, tracking, depth)
    if ref is not None:
        return changes | {"lost_count": 0}, ref

    lost = machine.lost_count + 1
    if lost >= mission.boundary_lost_limit:
        ctx.emit(TRACK_LOST, f"path {path:.2f}")
        return _end_dive(machine, ctx, track)

    changes["lost_count"] = lost
    # boundary visible but not followable from this attitude: stop and
    # re-align on it; nothing visible at all usually means the frame is
    # wholly inside the meadow, where straight ahead finds the edge
    if contour is not None:
        interior = interior_vertices(contour, scenario.camera, tracking.border_margin)
        if interior.shape[0] >= tracking.min_band_points:
            align = _boundary_align_yaw(contour, ctx)
            if align is not None:
                return changes | {"track_align_yaw": align}, ctx.hold(depth, align)
    return changes, GuidanceRef(target_depth=depth, target_surge=tracking.track_speed,
                                target_yaw=vehicle.yaw)


def _ascend(machine: MissionState, ctx: _Tick):
    mission, vcfg = ctx.scenario.mission, ctx.scenario.vehicle
    if abs(ctx.vehicle.z - mission.survey_depth) <= vcfg.arrival_depth_tol:
        stamped = tuple((ax, ay, ctx.tick) for ax, ay, _ in machine.announcements)
        waypoint = ctx.scenario.waypoints[machine.waypoint_index]
        ref, _ = waypoint_guidance(ctx.vehicle, waypoint, mission.survey_depth, vcfg)
        return {"phase": MissionPhase.SURVEY, "announcements": stamped}, ref
    return {}, ctx.hold(mission.survey_depth)


# one function per phase; each returns the fields it changes and the guidance
_PHASES = {
    MissionPhase.SURVEY: _survey,
    MissionPhase.DESCEND: _descend,
    MissionPhase.INSPECT: _inspect,
    MissionPhase.TRACK_BOUNDARY: _track,
    MissionPhase.ASCEND: _ascend,
    MissionPhase.COMPLETE: _complete,
}
# the phases that take the segmenter's mask of the frame as a third argument
_MASK_PHASES = frozenset({MissionPhase.INSPECT, MissionPhase.TRACK_BOUNDARY})


def run_tick(
    machine: MissionState,
    vehicle: VehicleState,
    frame: Frame,
    scenario: Scenario,
    backend: SegmenterBackend,
) -> tuple[MissionState, GuidanceRef, list[MissionEvent]]:
    """One FSM transition; returns the new machine, guidance, and events.

    Image positions map to the seafloor through the pose stamped on frame.
    """
    ctx = _Tick(machine.tick + 1, vehicle, frame, scenario,
                scenario.seafloor.seabed_depth - scenario.mission.inspect_altitude)
    advance = _PHASES[machine.phase]
    if machine.phase not in _MASK_PHASES:
        changes, ref = advance(machine, ctx)
    else:
        mask, err = _segment_safely(backend, scenario.camera, frame)
        if mask is None:
            ctx.emit(SEGMENTER_ERROR, err)
            changes, ref = _end_dive(machine, ctx, _dive_seen(machine, ctx))
        else:
            changes, ref = advance(machine, ctx, mask)
    return replace(machine, tick=ctx.tick, **changes), ref, ctx.events


def run_mission(scenario: Scenario, backend: SegmenterBackend, max_ticks: int) -> MissionLog:
    """Drive render -> run_tick -> step until COMPLETE or the tick budget ends."""
    integer("max_ticks", max_ticks, 1)

    wp0 = scenario.waypoints[0]
    yaw0 = 0.0
    if len(scenario.waypoints) > 1:
        wp1 = scenario.waypoints[1]
        yaw0 = math.atan2(wp1[1] - wp0[1], wp1[0] - wp0[0])
    vehicle = VehicleState(x=wp0[0], y=wp0[1], z=scenario.mission.survey_depth, yaw=yaw0)
    machine = initial_state(scenario)

    rows: list[TrajectoryRow] = []
    all_events: list[MissionEvent] = []
    while machine.tick < max_ticks:
        altitude = scenario.seafloor.seabed_depth - vehicle.z
        frame, _ = render(scenario, vehicle.x, vehicle.y, vehicle.yaw, altitude)
        machine, ref, events = run_tick(machine, vehicle, frame, scenario, backend)

        kinds = [e.kind for e in events] or [""]
        for kind in kinds:
            rows.append(TrajectoryRow(
                vehicle.time, vehicle.x, vehicle.y, vehicle.z, vehicle.yaw,
                machine.phase.value, kind,
            ))
        all_events.extend(events)
        if machine.phase is MissionPhase.COMPLETE:
            break
        vehicle = step(vehicle, ref, scenario.vehicle, scenario.mission.tick_dt)

    return MissionLog(
        rows=tuple(rows),
        events=tuple(all_events),
        explored=machine.explored,
        completed=machine.phase is MissionPhase.COMPLETE,
        ticks=machine.tick,
    )


# ---------------------------------------------------------------------------
# Log artifacts

_TRAJ_HEADER = "t,x,y,z,yaw,state,event"


def render_overview(scenario: Scenario, log: MissionLog) -> Raster:
    """Top-down map: floor palette, then explored, trajectory, boundaries, patch events."""
    floor = scenario.seafloor
    # row 0 shows the north edge; cells is a view in map rows, south edge first
    img = np.asarray(floor.colors, dtype=float)[floor.label_map.data[::-1]]
    cells = img[::-1]

    def paint(points, color: tuple[float, float, float]) -> None:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        ix, iy, _, inside = _cell_index(floor, pts[:, 0], pts[:, 1])
        cells[(iy, ix) if inside is None else (iy[inside], ix[inside])] = color

    for poly in log.explored.polygons:
        paint(poly.vertices, (0.0, 0.85, 0.85))
    paint([(row.x, row.y) for row in log.rows], (1.0, 1.0, 1.0))
    for poly in log.boundaries:
        paint(poly.vertices, (1.0, 0.9, 0.1))
    paint([(ev.x, ev.y) for ev in log.events
           if ev.kind in (PATCH_DETECTED, PATCH_SKIPPED_EXPLORED)], (1.0, 0.15, 0.15))
    return Raster(img)


def write_mission_log(scenario: Scenario, log: MissionLog, out_dir) -> list[str]:
    """Write the four run artifacts; returns the file names written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # no name holds the row text, so it is freed before the map is drawn
    (out / "trajectory.csv").write_text("\n".join([_TRAJ_HEADER, *(
        f"{r.time:.6f},{r.x:.6f},{r.y:.6f},{r.z:.6f},{r.yaw:.6f},{r.phase},{r.event}"
        for r in log.rows
    )]) + "\n")

    ev_lines = [
        f"{e.time:.6f} {e.kind} {e.x:.6f} {e.y:.6f} {e.detail}".rstrip()
        for e in log.events
    ]
    (out / "events.txt").write_text("\n".join(ev_lines) + ("\n" if ev_lines else ""))

    ring_lines = ["# explored"]
    ring_lines += [format_ring(p) for p in log.explored.polygons]
    ring_lines.append("# boundaries")
    ring_lines += [format_ring(p) for p in log.boundaries]
    (out / "polygons.rings").write_text("\n".join(ring_lines) + "\n")

    write_pnm(render_overview(scenario, log), out / "map.ppm")
    return ["trajectory.csv", "events.txt", "polygons.rings", "map.ppm"]
