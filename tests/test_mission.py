import hashlib
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from posidonia_inspect import mission
from posidonia_inspect.mission import (
    EVENT_KINDS,
    MissionEvent,
    MissionPhase,
    initial_state,
    run_mission,
    run_tick,
    write_mission_log,
)
from posidonia_inspect.presets import (
    empty_scenario,
    five_patch_scenario,
    make_floor,
    paint_disk,
    ring_meadow_scenario,
)
from posidonia_inspect.segmentation import POSIDONIA, LabelMask
from posidonia_inspect.vehicle import VehicleState, step
from posidonia_inspect.world import (
    MissionConfig,
    OracleSegmenter,
    Scenario,
    SeafloorConfig,
    load_scenario,
    render,
    save_scenario,
)
from posidonia_inspect.imaging import WATER_PRESETS

# one letter per kind keeps the grammar check a plain regex
KIND_LETTERS = {
    "PATCH_DETECTED": "P",
    "PATCH_SKIPPED_EXPLORED": "K",
    "DESCEND_START": "D",
    "POSIDONIA_FOUND": "F",
    "ROCKS_ONLY": "R",
    "TRACK_CLOSED": "C",
    "TRACK_LOST": "L",
    "ASCEND_START": "A",
    "WAYPOINT_REACHED": "W",
    "MISSION_COMPLETE": "M",
    "SEGMENTER_ERROR": "E",
}
HEALTHY_GRAMMAR = re.compile(r"^(PD(F(C|L)|R)A|K|W)*M$")


def event_word(log) -> str:
    return "".join(KIND_LETTERS[e.kind] for e in log.events)


@pytest.fixture(scope="module")
def five_patch_log():
    scn = five_patch_scenario()
    return scn, run_mission(scn, OracleSegmenter(scn), max_ticks=8000)


@pytest.fixture(scope="module")
def ring_log():
    scn = ring_meadow_scenario()
    return scn, run_mission(scn, OracleSegmenter(scn), max_ticks=6000)


@pytest.fixture(scope="module")
def empty_log():
    scn = empty_scenario()
    return scn, run_mission(scn, OracleSegmenter(scn), max_ticks=6000)


def one_disk_scenario() -> Scenario:
    res = 0.5
    grid = make_floor(60.0, 40.0, res)
    paint_disk(grid, res, (0.0, 0.0), (30.0, 20.0), 4.0, POSIDONIA)
    return Scenario(
        seafloor=SeafloorConfig(LabelMask(grid), resolution=res),
        water=WATER_PRESETS["clear"],
        mission=MissionConfig(seed=9, explored_alpha=12.0,
                              min_track_path=15.0, loop_close_radius=4.0),
        waypoints=((10.0, 20.0), (50.0, 20.0)),
    )


class RaisingBackend:
    def segment(self, img):
        raise RuntimeError("sensor dropout")


class AllPosidoniaBackend:
    def __init__(self, scenario: Scenario, shape=None):
        self.shape = shape or (scenario.camera.height, scenario.camera.width)

    def segment(self, img):
        return LabelMask(np.full(self.shape, POSIDONIA, dtype=np.uint8))


class FailAfterBackend:
    """Oracle masks for the first `good` frames, then a sensor dropout."""

    def __init__(self, scenario: Scenario, good: int):
        self.oracle = OracleSegmenter(scenario)
        self.left = good

    def segment(self, img):
        if self.left == 0:
            raise RuntimeError("sensor dropout")
        self.left -= 1
        return self.oracle.segment(img)


class TestMissionEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MissionEvent(0.0, "LUNCH_BREAK", 0.0, 0.0, "")

    def test_known_kinds_accepted(self):
        for kind in EVENT_KINDS:
            MissionEvent(1.0, kind, 2.0, 3.0, "x")


class TestInitialState:
    def test_starts_in_survey(self):
        state = initial_state(five_patch_scenario())
        assert state.phase is MissionPhase.SURVEY
        assert state.tick == 0
        assert state.waypoint_index == 0
        assert state.announcements == ()
        assert state.explored.polygons == ()


class TestRunMissionValidation:
    def test_rejects_nonpositive_budget(self):
        scn = empty_scenario()
        with pytest.raises(ValueError):
            run_mission(scn, OracleSegmenter(scn), max_ticks=0)


class TestEventGrammar:
    def test_five_patch(self, five_patch_log):
        _, log = five_patch_log
        assert HEALTHY_GRAMMAR.match(event_word(log))

    def test_ring(self, ring_log):
        _, log = ring_log
        assert HEALTHY_GRAMMAR.match(event_word(log))

    def test_empty(self, empty_log):
        _, log = empty_log
        assert HEALTHY_GRAMMAR.match(event_word(log))

    def test_events_time_ordered(self, five_patch_log):
        _, log = five_patch_log
        times = [e.time for e in log.events]
        assert times == sorted(times)


class TestMissionOutcomes:
    def test_five_patch_completes(self, five_patch_log):
        _, log = five_patch_log
        assert log.completed
        kinds = [e.kind for e in log.events]
        assert kinds.count("PATCH_DETECTED") == 5
        assert kinds.count("DESCEND_START") == 5
        assert kinds.count("MISSION_COMPLETE") == 1

    def test_ring_closes_track(self, ring_log):
        _, log = ring_log
        assert log.completed
        assert [e.kind for e in log.events].count("TRACK_CLOSED") == 1
        assert len(log.boundaries) == 1

    def test_empty_sees_nothing(self, empty_log):
        scn, log = empty_log
        kinds = {e.kind for e in log.events}
        assert kinds == {"WAYPOINT_REACHED", "MISSION_COMPLETE"}
        assert [e.kind for e in log.events].count("WAYPOINT_REACHED") == len(scn.waypoints)

    def test_closed_boundary_matches_meadow(self, ring_log):
        scn, log = ring_log
        ring = log.boundaries[0]
        radii = np.hypot(ring.vertices[:, 0] - 60.0, ring.vertices[:, 1] - 78.0)
        assert radii.min() > 14.0
        assert radii.max() < 26.0


def state_view(machine) -> tuple:
    """The machine's fields, its explored map's rings as vertex lists, for ==."""
    explored = machine.explored
    rings = tuple(r.vertices.tolist() for r in explored.committed_regions)
    rest = tuple(getattr(machine, f.name) for f in fields(machine) if f.name != "explored")
    return rest, explored.alpha, explored.points, rings


class TestRunTick:
    def test_is_pure_and_visits_every_phase(self):
        # run_mission's loop written out, so each tick's inputs can be replayed
        scn = one_disk_scenario()
        backend = OracleSegmenter(scn)
        (x0, y0), (x1, y1) = scn.waypoints
        vehicle = VehicleState(x=x0, y=y0, z=scn.mission.survey_depth,
                               yaw=math.atan2(y1 - y0, x1 - x0))
        machine = initial_state(scn)
        ran = []
        while MissionPhase.COMPLETE not in ran:
            assert machine.tick < 4000, f"no COMPLETE tick; phases so far {set(ran)}"
            altitude = scn.seafloor.seabed_depth - vehicle.z
            frame, _ = render(scn, vehicle.x, vehicle.y, vehicle.yaw, altitude)
            before = state_view(machine)
            first = run_tick(machine, vehicle, frame, scn, backend)
            second = run_tick(machine, vehicle, frame, scn, backend)
            assert state_view(machine) == before
            assert state_view(first[0]) == state_view(second[0])
            assert first[1:] == second[1:]
            assert first[0].tick == machine.tick + 1
            ran.append(machine.phase)
            machine, ref, _ = first
            vehicle = step(vehicle, ref, scn.vehicle, scn.mission.tick_dt)
        assert set(ran) == set(MissionPhase)
        assert set(mission._PHASES) == set(MissionPhase)


class TestSafety:
    def test_depth_envelope(self, five_patch_log):
        scn, log = five_patch_log
        floor = scn.seafloor.seabed_depth - scn.mission.inspect_altitude
        zs = np.array([r.z for r in log.rows])
        assert (zs >= -1e-9).all()
        assert (zs <= floor + 0.1).all()

    def test_survey_returns_to_survey_depth(self, five_patch_log):
        scn, log = five_patch_log
        survey_z = [r.z for r in log.rows if r.phase == "SURVEY"]
        assert abs(survey_z[-1] - scn.mission.survey_depth) < 1.0


class TestFailSafe:
    def test_segmenter_error_aborts_inspection(self):
        scn = one_disk_scenario()
        log = run_mission(scn, RaisingBackend(), max_ticks=4000)
        kinds = [e.kind for e in log.events]
        assert log.completed
        assert kinds.count("SEGMENTER_ERROR") >= 1
        assert kinds.count("POSIDONIA_FOUND") == 0
        assert kinds.count("ROCKS_ONLY") == 0
        detail = next(e.detail for e in log.events if e.kind == "SEGMENTER_ERROR")
        assert "RuntimeError" in detail

    def test_failing_backend_dives_once_per_patch(self):
        # flown there and back: every errored dive still counts as explored,
        # so the return pass skips the patches instead of diving again
        scn = five_patch_scenario()
        scn = replace(scn, waypoints=scn.waypoints + tuple(reversed(scn.waypoints)))
        log = run_mission(scn, RaisingBackend(), max_ticks=20000)
        kinds = [e.kind for e in log.events]
        assert log.completed
        centres = np.array([(50, 30), (110, 30), (110, 70), (50, 70), (100, 110)], dtype=float)
        dives = [
            int(np.argmin(np.hypot(*(centres - (e.x, e.y)).T)))
            for e in log.events if e.kind == "DESCEND_START"
        ]
        assert dives and len(dives) == len(set(dives))
        assert kinds.count("SEGMENTER_ERROR") == len(dives)
        assert kinds.count("PATCH_SKIPPED_EXPLORED") >= 1

    def test_error_mid_track_commits_the_track(self):
        scn = one_disk_scenario()
        backend = FailAfterBackend(scn, good=scn.mission.inspect_frames + 20)
        log = run_mission(scn, backend, max_ticks=4000)
        kinds = [e.kind for e in log.events]
        assert log.completed
        assert kinds.index("POSIDONIA_FOUND") < kinds.index("SEGMENTER_ERROR")
        assert kinds.count("TRACK_CLOSED") == kinds.count("TRACK_LOST") == 0
        tracked = {(r.x, r.y) for r in log.rows if r.phase == "TRACK_BOUNDARY"}
        assert len(tracked) > 10
        assert tracked <= set(log.explored.points)

    def test_boundary_never_found_gives_track_lost(self):
        # a full-frame meadow mask has no visible boundary to follow
        scn = one_disk_scenario()
        log = run_mission(scn, AllPosidoniaBackend(scn), max_ticks=6000)
        kinds = [e.kind for e in log.events]
        assert log.completed
        assert kinds.count("TRACK_LOST") == 1
        assert kinds.count("TRACK_CLOSED") == 0

    def test_wrong_shape_mask_is_segmenter_error(self):
        # a mask that does not cover the frame must not be read as a finding
        scn = one_disk_scenario()
        log = run_mission(scn, AllPosidoniaBackend(scn, shape=(4, 4)), max_ticks=4000)
        kinds = [e.kind for e in log.events]
        assert log.completed
        assert kinds.count("SEGMENTER_ERROR") >= 1
        assert kinds.count("POSIDONIA_FOUND") == 0
        assert kinds.count("TRACK_LOST") == 0
        detail = next(e.detail for e in log.events if e.kind == "SEGMENTER_ERROR")
        assert "(4, 4)" in detail


class TestDeterminism:
    def test_same_seed_same_log(self):
        runs = []
        for _ in range(2):
            scn = one_disk_scenario()
            log = run_mission(scn, OracleSegmenter(scn), max_ticks=4000)
            runs.append(log)
        a, b = runs
        assert a.events == b.events
        assert a.rows == b.rows

    def test_shared_backend_same_log(self):
        scn = one_disk_scenario()
        backend = OracleSegmenter(scn)
        a = run_mission(scn, backend, max_ticks=4000)
        b = run_mission(scn, backend, max_ticks=4000)
        assert a.events == b.events
        assert a.rows == b.rows


class TestArtifacts:
    def test_write_mission_log_files(self, ring_log, tmp_path):
        scn, log = ring_log
        names = write_mission_log(scn, log, tmp_path)
        assert names == ["trajectory.csv", "events.txt", "polygons.rings", "map.ppm"]
        for name in names:
            assert (tmp_path / name).stat().st_size > 0

        header, first = (tmp_path / "trajectory.csv").read_text().splitlines()[:2]
        assert header == "t,x,y,z,yaw,state,event"
        assert len(first.split(",")) == 7

        for line in (tmp_path / "events.txt").read_text().splitlines():
            parts = line.split(" ", 4)
            float(parts[0])
            assert parts[1] in EVENT_KINDS

        rings = (tmp_path / "polygons.rings").read_text()
        assert rings.startswith("# explored")
        assert "# boundaries" in rings

        assert (tmp_path / "map.ppm").read_bytes().startswith(b"P6")


# sha256 of trajectory.csv, events.txt, polygons.rings and map.ppm, recorded
# before the FSM was reduced to one ASCEND exit; the one-disk cases cover the
# SEGMENTER_ERROR and TRACK_LOST exits that no preset mission takes.  The
# raising and wrong_shape rings and maps were re-recorded once a dive that
# ends in SEGMENTER_ERROR commits its survey line and cover ring; their
# trajectory and events kept their bytes
GOLDEN_DIGESTS = {
    "five_patch": (
        "c193baa672bbce7fb950a106268a10108434f9293507f775a37a1a480fc33350",
        "785778b16a68e77db3267ce01cd06b4d495a625e2a87873f20b1a842b07d500c",
        "4d1c75eed323db648128f99c995f6efdd3d8b02ee1230e278b15cb01b75b37ea",
        "c99ca5d4c0a783cb58670b43ae780e65ee702d81f8e86542eba4572e67bea35e",
    ),
    "ring": (
        "75f95970c7d077835650bcc8810278e5f64ccc5b1864d8d06daec672569313a9",
        "e03dd9a55989c98e8ad2bf771af8042abe8025be4a73ffc25579d650e6f41e19",
        "cfc8e20e9da1f40128d27e7146a5ba48adb8f6b9c41732b4883b29f27da4a207",
        "feea324228f76222eaabafe248d7d20efada273144fc215b4c462bff7d4b672b",
    ),
    "raising": (
        "f81986031f94d1bb51a5922541bb1689dd9df40ea436311a38dd13b893a0abbe",
        "91d1978c9829b13a936ddd14a1a52d65c2ce7b4a9741c7814d232c45c0ef7b1e",
        "6b3118df9cee6a8ab28a2014c9d42264b1d6f07dfeca20820bd94fd61cad8964",
        "1e252eeaf26eee9d32a5e7779ad6ebdf887330a1a5be48b80758434816395f95",
    ),
    "wrong_shape": (
        "f81986031f94d1bb51a5922541bb1689dd9df40ea436311a38dd13b893a0abbe",
        "d499cc92c916504f4ab4050db28f033a1f783b04469f1f8f775ae61d842a21c7",
        "6b3118df9cee6a8ab28a2014c9d42264b1d6f07dfeca20820bd94fd61cad8964",
        "1e252eeaf26eee9d32a5e7779ad6ebdf887330a1a5be48b80758434816395f95",
    ),
    "all_meadow": (
        "17f7ac9d1b1dc7dc1a26379806694c6d6d7bec352f5a9289e64443474cff7ea4",
        "5583b7bbaede3dc67652f6bfd788878ab542c8d7370d35826c7e91852a5241ac",
        "e1a6b6a49e59fc354b4edc375b038cf71c40ed37db1093d1fbeb14cf5275a9bb",
        "b225e7e6ada47ffcbd8a320ee9732d1c6fd75c925f8bd8b3135ead5761f63f5f",
    ),
}

ONE_DISK_BACKENDS = {
    "raising": (lambda scn: RaisingBackend(), 4000),
    "wrong_shape": (lambda scn: AllPosidoniaBackend(scn, shape=(4, 4)), 4000),
    "all_meadow": (lambda scn: AllPosidoniaBackend(scn), 6000),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_artifact_digests_are_golden(case, request, tmp_path):
    if case in ONE_DISK_BACKENDS:
        make_backend, max_ticks = ONE_DISK_BACKENDS[case]
        scn = one_disk_scenario()
        log = run_mission(scn, make_backend(scn), max_ticks=max_ticks)
    else:
        scn, log = request.getfixturevalue(f"{case}_log")
    names = write_mission_log(scn, log, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in names)
    assert digests == GOLDEN_DIGESTS[case]


def test_saved_scenario_flies_the_golden_mission(tmp_path):
    # the benchmark's path: the scenario goes through its text file first
    save_scenario(one_disk_scenario(), tmp_path / "disk.scn")
    scn = load_scenario(tmp_path / "disk.scn")
    make_backend, max_ticks = ONE_DISK_BACKENDS["wrong_shape"]
    log = run_mission(scn, make_backend(scn), max_ticks=max_ticks)
    names = write_mission_log(scn, log, tmp_path / "run")
    digests = tuple(hashlib.sha256((tmp_path / "run" / n).read_bytes()).hexdigest() for n in names)
    assert digests == GOLDEN_DIGESTS["wrong_shape"]
