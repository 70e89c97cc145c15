import re

import numpy as np
import pytest

from posidonia_inspect.mission import (
    EVENT_KINDS,
    MissionEvent,
    MissionPhase,
    initial_state,
    run_mission,
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
from posidonia_inspect.world import (
    MissionConfig,
    OracleSegmenter,
    Scenario,
    SeafloorConfig,
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
