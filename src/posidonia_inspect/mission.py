"""Inspection mission finite-state machine and the tick loop around it.

The machine cycles SURVEY -> DESCEND -> INSPECT -> (TRACK_BOUNDARY ->)
ASCEND -> SURVEY over a waypoint list, diving on dark patches the
detector reports and following meadow boundaries until they close.
run_tick is a pure transition function; run_mission owns the loop and
produces a MissionLog whose file renderings are byte-stable for a
given scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def _cover_ring(x: float, y: float, radius: float) -> list[tuple[float, float]]:
    # coarse disk outline committed around each dive so the patch and its
    # immediate surroundings count as explored afterwards
    n = 16  # outline points
    return [
        (x + radius * math.cos(2.0 * math.pi * k / n),
         y + radius * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    ]


def _fresh_match(
    machine: MissionState, cfg: MissionConfig, wx: float, wy: float, tick: int
) -> int | None:
    for i, (ax, ay, seen) in enumerate(machine.announcements):
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


def _hold(depth: float, yaw: float) -> GuidanceRef:
    return GuidanceRef(target_depth=depth, target_surge=0.0, target_yaw=yaw)


def _boundary_align_yaw(
    contour: Polygon, camera: CameraModel, frame: Frame, meadow_side: str
) -> float | None:
    """World heading along the boundary at its point nearest the camera.

    The rate-based follow law assumes the vehicle already moves roughly
    along the boundary; this supplies the heading to turn to first.  The
    tangent is taken from the contour's neighbors around the nearest
    vertex and flipped so the meadow interior sits on the configured side.
    """
    verts = contour.vertices
    if verts.shape[0] < 3:
        return None
    wx, wy = pixel_to_world(
        camera, verts[:, 0], verts[:, 1], frame.x, frame.y, frame.yaw, frame.altitude
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
    if (cross > 0.0) != (meadow_side == "left"):
        tx, ty = -tx, -ty
    return math.atan2(ty, tx)


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
    mission = scenario.mission
    vcfg = scenario.vehicle
    inspect_depth = scenario.seafloor.seabed_depth - mission.inspect_altitude
    tick = machine.tick + 1
    now = vehicle.time
    pos = (vehicle.x, vehicle.y)
    events: list[MissionEvent] = []

    def emit(kind: str, detail: str = "", at: tuple[float, float] | None = None) -> None:
        ex, ey = at if at is not None else (vehicle.x, vehicle.y)
        events.append(MissionEvent(now, kind, ex, ey, detail))

    def commit(machine: MissionState) -> MissionState:
        # what the dive saw joins the explored map with the vehicle's own
        # position: the buffered survey line and the cover ring when it
        # leaves INSPECT, the track so far when it leaves TRACK_BOUNDARY
        if machine.phase is MissionPhase.INSPECT:
            seen = list(machine.survey_samples) + _cover_ring(*pos, mission.cover_radius)
        else:
            seen = machine.track_points
        explored = record_exploration(machine.explored, [*seen, pos])
        return replace(machine, explored=explored, survey_samples=())

    def ascend(machine: MissionState, closed: Polygon | None = None):
        # the one way out of a dive: a closed track adds its ring, any other
        # exit commits what the dive saw; every exit clears the whole track
        emit(ASCEND_START)
        if closed is None:
            machine = commit(machine)
        else:
            machine = replace(machine, explored=machine.explored.add_region(closed))
        machine = replace(
            machine, phase=MissionPhase.ASCEND, track_points=(), track_path=0.0,
            track_align_yaw=None, lost_count=0,
        )
        return machine, _hold(mission.survey_depth, vehicle.yaw), events

    machine = replace(machine, tick=tick)

    if machine.phase is MissionPhase.COMPLETE:
        return machine, _hold(mission.survey_depth, vehicle.yaw), events

    if machine.phase is MissionPhase.SURVEY:
        if tick % mission.trajectory_stride == 0:
            machine = replace(machine, survey_samples=machine.survey_samples + (pos,))

        report = detect_dark_patches(frame, scenario.detector, vehicle_depth=vehicle.z)
        for patch in report.patches:
            wx, wy = pixel_to_world(
                scenario.camera, *patch.centroid, frame.x, frame.y, frame.yaw, frame.altitude
            )
            hit = _fresh_match(machine, mission, wx, wy, tick)
            if hit is not None:
                entries = list(machine.announcements)
                entries[hit] = (wx, wy, tick)
                machine = replace(machine, announcements=tuple(entries))
                continue
            machine = replace(
                machine, announcements=machine.announcements + ((wx, wy, tick),)
            )
            if explored_covers(machine.explored, (wx, wy)):
                emit(PATCH_SKIPPED_EXPLORED, f"at {wx:.2f} {wy:.2f}", at=(wx, wy))
            else:
                emit(PATCH_DETECTED, f"at {wx:.2f} {wy:.2f} area {patch.area_px}",
                     at=(wx, wy))
                emit(DESCEND_START, f"target {wx:.2f} {wy:.2f}", at=(wx, wy))
                machine = replace(
                    machine, phase=MissionPhase.DESCEND, descend_target=(wx, wy)
                )
            break  # at most one announcement per tick keeps the log readable

        if machine.phase is MissionPhase.DESCEND:
            ref, _ = waypoint_guidance(vehicle, machine.descend_target, inspect_depth, vcfg)
            return machine, ref, events

        waypoint = scenario.waypoints[machine.waypoint_index]
        ref, arrived = waypoint_guidance(vehicle, waypoint, mission.survey_depth, vcfg)
        if arrived:
            emit(WAYPOINT_REACHED, f"index {machine.waypoint_index}")
            nxt = machine.waypoint_index + 1
            if nxt >= len(scenario.waypoints):
                emit(MISSION_COMPLETE, f"waypoints {len(scenario.waypoints)}")
                machine = replace(machine, phase=MissionPhase.COMPLETE)
                return machine, _hold(mission.survey_depth, vehicle.yaw), events
            machine = replace(machine, waypoint_index=nxt)
            waypoint = scenario.waypoints[nxt]
            ref, _ = waypoint_guidance(vehicle, waypoint, mission.survey_depth, vcfg)
        return machine, ref, events

    if machine.phase is MissionPhase.DESCEND:
        ref, arrived = waypoint_guidance(vehicle, machine.descend_target, inspect_depth, vcfg)
        if arrived:
            machine = replace(
                machine,
                phase=MissionPhase.INSPECT,
                inspect_left=mission.inspect_frames,
                inspect_hits=0,
                inspect_rocks=0,
            )
            return machine, _hold(inspect_depth, vehicle.yaw), events
        return machine, ref, events

    if machine.phase is MissionPhase.ASCEND:
        if abs(vehicle.z - mission.survey_depth) <= vcfg.arrival_depth_tol:
            stamped = tuple((ax, ay, tick) for ax, ay, _ in machine.announcements)
            machine = replace(machine, phase=MissionPhase.SURVEY, announcements=stamped)
            waypoint = scenario.waypoints[machine.waypoint_index]
            ref, _ = waypoint_guidance(vehicle, waypoint, mission.survey_depth, vcfg)
            return machine, ref, events
        return machine, _hold(mission.survey_depth, vehicle.yaw), events

    # INSPECT and TRACK_BOUNDARY both read the segmenter once per tick
    mask, err = _segment_safely(backend, scenario.camera, frame)
    if mask is None:
        emit(SEGMENTER_ERROR, err)
        return ascend(machine)

    if machine.phase is MissionPhase.INSPECT:
        fractions = summarize(mask)
        present = fractions >= mission.presence_min_fraction
        machine = replace(
            machine,
            inspect_left=machine.inspect_left - 1,
            inspect_hits=machine.inspect_hits + int(present[POSIDONIA]),
            inspect_rocks=machine.inspect_rocks + int(present[ROCKS]),
        )
        if machine.inspect_left > 0:
            return machine, _hold(inspect_depth, vehicle.yaw), events

        if 2 * machine.inspect_hits <= mission.inspect_frames:
            emit(ROCKS_ONLY, "rocks" if machine.inspect_rocks else "barren")
            return ascend(machine)

        # a meadow commits the dive at the decision frame, so a run cut
        # short while tracking still holds it
        emit(POSIDONIA_FOUND, f"fraction {fractions[POSIDONIA]:.3f}")
        machine = commit(machine)
        align = None
        contour = meadow_boundary(mask)
        if contour is not None:
            align = _boundary_align_yaw(
                contour, scenario.camera, frame, scenario.tracking.meadow_side
            )
        machine = replace(
            machine, phase=MissionPhase.TRACK_BOUNDARY, track_points=(pos,),
            track_align_yaw=align,
        )
        return machine, _hold(inspect_depth, vehicle.yaw), events

    # TRACK_BOUNDARY
    prev, start = machine.track_points[-1], machine.track_points[0]
    machine = replace(
        machine,
        track_path=machine.track_path + math.hypot(pos[0] - prev[0], pos[1] - prev[1]),
        track_points=machine.track_points + (pos,),
    )

    if (
        machine.track_path >= mission.min_track_path
        and math.hypot(pos[0] - start[0], pos[1] - start[1]) <= mission.loop_close_radius
    ):
        emit(TRACK_CLOSED, f"path {machine.track_path:.2f}")
        return ascend(machine, closed=Polygon(np.array(machine.track_points)))

    if machine.track_align_yaw is not None:
        # acquisition: rotate in place onto the boundary heading before
        # the rate-based follow law takes over
        if abs(wrap_angle(machine.track_align_yaw - vehicle.yaw)) > 0.25:
            return machine, _hold(inspect_depth, machine.track_align_yaw), events
        machine = replace(machine, track_align_yaw=None)

    contour = meadow_boundary(mask)
    ref = None
    if contour is not None:
        ref = boundary_guidance(contour, scenario.camera, scenario.tracking, inspect_depth)
    if ref is not None:
        machine = replace(machine, lost_count=0)
        return machine, ref, events

    lost = machine.lost_count + 1
    if lost >= mission.boundary_lost_limit:
        emit(TRACK_LOST, f"path {machine.track_path:.2f}")
        return ascend(machine)

    machine = replace(machine, lost_count=lost)
    # boundary visible but not followable from this attitude: stop and
    # re-align on it; nothing visible at all usually means the frame is
    # wholly inside the meadow, where straight ahead finds the edge
    if contour is not None:
        interior = interior_vertices(contour, scenario.camera, scenario.tracking.border_margin)
        if interior.shape[0] >= scenario.tracking.min_band_points:
            align = _boundary_align_yaw(
                contour, scenario.camera, frame, scenario.tracking.meadow_side
            )
            if align is not None:
                machine = replace(machine, track_align_yaw=align)
                return machine, _hold(inspect_depth, align), events
    return machine, GuidanceRef(
        target_depth=inspect_depth,
        target_surge=scenario.tracking.track_speed,
        target_yaw=vehicle.yaw,
    ), events


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
