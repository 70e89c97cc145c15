import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from posidonia_inspect import world
from posidonia_inspect.camera import CameraModel, pixel_grid_world
from posidonia_inspect.imaging import (
    WATER_PRESETS,
    Raster,
    WaterModel,
    add_speckle,
    attenuate,
    gamma_correct,
)
from posidonia_inspect.mission import run_mission, write_mission_log
from posidonia_inspect.presets import (
    blocks_scenario,
    empty_scenario,
    five_patch_scenario,
    ring_meadow_scenario,
)
from posidonia_inspect.segmentation import BaselineSegmenter, LabelMask
from posidonia_inspect.world import (
    DEFAULT_COLORS,
    Frame,
    MissionConfig,
    OracleSegmenter,
    Scenario,
    SeafloorConfig,
    _cell_noise,
    classes_at,
    load_scenario,
    parse_scenario_text,
    render,
    save_scenario,
)


def checker_map(n=20):
    data = np.zeros((n, n), dtype=np.uint8)
    data[: n // 2, : n // 2] = 1
    data[n // 2 :, n // 2 :] = 2
    return LabelMask(data)


def flat_water():
    return WaterModel(attenuation=(0.0,) * 3, backscatter_veil=(0.0,) * 3, speckle_density=0.0)


def tiny_scenario(**over):
    defaults = dict(
        seafloor=SeafloorConfig(checker_map(), resolution=1.0, noise_amplitude=0.0),
        water=flat_water(),
        camera=CameraModel(90.0, 70.0, 32, 24),
        waypoints=((5.0, 5.0), (15.0, 5.0)),
    )
    defaults.update(over)
    return Scenario(**defaults)


class TestSeafloorConfig:
    def test_extent(self):
        floor = SeafloorConfig(checker_map(10), resolution=0.5, origin=(3.0, -2.0))
        assert floor.extent == (3.0, -2.0, 8.0, 3.0)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            SeafloorConfig(checker_map(), resolution=0.0)

    @pytest.mark.parametrize("origin", [(1.0,), (1.0, 2.0, 3.0), (0.0, float("nan"))])
    def test_rejects_bad_origin(self, origin):
        with pytest.raises(ValueError, match="origin"):
            SeafloorConfig(checker_map(), origin=origin)

    def test_rejects_bad_colors(self):
        with pytest.raises(ValueError):
            SeafloorConfig(checker_map(), colors=((0.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            SeafloorConfig(checker_map(), colors=((0.0, 0.0, 2.0),) * 4)

    def test_rejects_huge_noise(self):
        with pytest.raises(ValueError):
            SeafloorConfig(checker_map(), noise_amplitude=0.9)


class TestMissionConfig:
    def test_defaults_valid(self):
        MissionConfig()

    def test_int_fields_enforced(self):
        with pytest.raises(ValueError):
            MissionConfig(inspect_frames=2.5)
        with pytest.raises(ValueError):
            MissionConfig(trajectory_stride=0)

    def test_seed_fits_an_int64(self):
        with pytest.raises(ValueError, match="seed"):
            MissionConfig(seed=2**63)
        with pytest.raises(ValueError, match="seed"):
            MissionConfig(seed=True)

    def test_extreme_seeds_render(self):
        # render packs both seeds into the per-frame speckle hash as int64
        for seed, salt in ((2**63 - 1, 2**63 - 1), (0, -(2**63))):
            sc = tiny_scenario(
                water=WaterModel(speckle_density=50000.0, rng_seed=salt),
                mission=MissionConfig(seed=seed),
            )
            render(sc, 5.0, 5.0, 0.0, 3.0)

    def test_track_path_vs_loop_radius(self):
        with pytest.raises(ValueError):
            MissionConfig(min_track_path=3.0, loop_close_radius=4.0)


class TestClassesAt:
    FLOOR = SeafloorConfig(checker_map(), resolution=1.0)

    def test_known_cells(self):
        codes = classes_at(self.FLOOR, np.array([2.5, 12.5]), np.array([2.5, 12.5]))
        assert list(codes) == [1, 2]

    def test_out_of_bounds_is_sand(self):
        codes = classes_at(self.FLOOR, np.array([-1.0, 500.0]), np.array([5.0, 5.0]))
        assert list(codes) == [0, 0]

    def test_origin_and_resolution(self):
        floor = SeafloorConfig(checker_map(), resolution=2.0, origin=(100.0, 50.0))
        codes = classes_at(floor, np.array([105.0]), np.array([55.0]))
        assert codes[0] == 1  # cell (2, 2) in the class-1 quadrant

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 9), st.sampled_from([1, 3, 5, 7, 9])),
            elements=st.floats(-8.0, 30.0, allow_nan=False, width=64),
        ),
        st.floats(-8.0, 30.0, allow_nan=False, width=64),
        st.sampled_from([0.5, 1.0, 1.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_fancy_index_lookup(self, wx, y_shift, resolution):
        # points on, off and straddling the map, odd row widths
        floor = SeafloorConfig(checker_map(), resolution=resolution, origin=(-1.0, 2.0))
        wy = wx[::-1] + y_shift
        codes = classes_at(floor, wx, wy)
        expect = oracles.reference_classes_at(floor, wx, wy)
        assert codes.dtype == expect.dtype and codes.shape == expect.shape
        assert codes.tobytes() == expect.tobytes()


class TestCellNoise:
    def test_pure_function(self):
        ix = np.arange(-50, 50, dtype=np.int64)
        iy = ix[::-1].copy()
        a = _cell_noise(ix, iy, 7)
        b = _cell_noise(ix, iy, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _cell_noise(ix, iy, 8))

    def test_range_and_spread(self):
        ix, iy = np.meshgrid(np.arange(64), np.arange(64))
        n = _cell_noise(ix.astype(np.int64), iy.astype(np.int64), 0)
        assert n.min() >= 0.0 and n.max() < 1.0
        assert 0.4 < n.mean() < 0.6


class TestRender:
    def test_flat_water_returns_palette(self):
        sc = tiny_scenario()
        img, gt = render(sc, 5.0, 5.0, 0.0, 3.0)
        assert img.data.shape == (24, 32, 3)
        # every pixel is exactly its class base color
        palette = np.asarray(DEFAULT_COLORS)
        assert np.allclose(img.data, palette[gt.data], atol=1e-12)

    def test_gt_matches_direct_lookup(self):
        sc = tiny_scenario()
        _, gt = render(sc, 10.0, 10.0, 0.7, 4.0)
        gx, gy = pixel_grid_world(sc.camera, 10.0, 10.0, 0.7, 4.0)
        assert np.array_equal(gt.data, classes_at(sc.seafloor, gx, gy))

    def test_noise_stays_within_amplitude(self):
        floor = SeafloorConfig(checker_map(), resolution=1.0, noise_amplitude=0.05)
        sc = tiny_scenario(seafloor=floor)
        img, gt = render(sc, 5.0, 5.0, 0.0, 3.0)
        palette = np.asarray(DEFAULT_COLORS)
        assert np.abs(img.data - palette[gt.data]).max() <= 0.05 + 1e-12
        assert np.abs(img.data - palette[gt.data]).max() > 0.0

    def test_deterministic(self):
        sc = tiny_scenario(water=WaterModel(speckle_density=50000.0))
        a, _ = render(sc, 5.0, 5.0, 0.3, 3.0)
        b, _ = render(sc, 5.0, 5.0, 0.3, 3.0)
        assert np.array_equal(a.data, b.data)

    def test_speckle_varies_with_pose(self):
        sc = tiny_scenario(water=WaterModel(speckle_density=50000.0))
        a, _ = render(sc, 5.0, 5.0, 0.3, 3.0)
        b, _ = render(sc, 5.1, 5.0, 0.3, 3.0)
        assert not np.array_equal(a.data, b.data)

    def test_off_map_is_sand(self):
        sc = tiny_scenario()
        img, gt = render(sc, 500.0, 500.0, 0.0, 3.0)
        assert (gt.data == 0).all()

    def test_rejects_bad_altitude(self):
        with pytest.raises(ValueError):
            render(tiny_scenario(), 5.0, 5.0, 0.0, 0.0)

    @pytest.mark.parametrize("pose", [(50.0, 26.0, 0.0, 1e300), (1e300, 0.0, 0.0, 5.0)])
    def test_rejects_pose_too_far_for_a_cell_index(self, pose):
        # the footprint overflows to inf; casting it would warn and render garbage
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="int64 cell index"):
                render(five_patch_scenario(), *pose)

    def test_classes_at_rejects_nan(self):
        with pytest.raises(ValueError, match="int64 cell index"):
            classes_at(tiny_scenario().seafloor, np.array([1.0, np.nan]), np.array([1.0, 1.0]))

    def test_water_column_keeps_the_frame(self):
        # the pose stamped before the water column reaches the caller
        frame = Frame(np.full((96, 128, 3), 0.5), 1.0, 2.0, 0.3, 4.0)
        turbid = WATER_PRESETS["turbid"]  # 5 dots at 128 x 96
        for out in (attenuate(frame, turbid, 4.0), add_speckle(frame, turbid, 7),
                    gamma_correct(frame, 1.5)):
            assert isinstance(out, Frame)
            assert (out.x, out.y, out.yaw, out.altitude) == (1.0, 2.0, 0.3, 4.0)
            assert not np.array_equal(out.data, frame.data)

    def test_attenuation_darkens(self):
        dark_water = WaterModel(attenuation=(0.3,) * 3, backscatter_veil=(0.0,) * 3, speckle_density=0.0)
        bright, _ = render(tiny_scenario(), 5.0, 5.0, 0.0, 3.0)
        dim, _ = render(tiny_scenario(water=dark_water), 5.0, 5.0, 0.0, 3.0)
        assert dim.data.mean() < bright.data.mean()


def textured_scenario(noise: float, water: str) -> Scenario:
    # all four classes scattered over a 40 x 30 cell (20 m x 15 m) map
    codes = np.random.default_rng(5).integers(0, 4, size=(30, 40), dtype=np.uint8)
    return Scenario(
        seafloor=SeafloorConfig(
            LabelMask(codes), resolution=0.5, origin=(3.0, -2.0), noise_amplitude=noise
        ),
        water=WATER_PRESETS[water],
        camera=CameraModel(90.0, 70.0, 41, 31),
        waypoints=((8.0, 4.0),),
    )


def on_map_fraction(scenario, pose) -> float:
    gx, gy = pixel_grid_world(scenario.camera, *pose)
    x0, y0, x1, y1 = scenario.seafloor.extent
    return float(((gx >= x0) & (gx < x1) & (gy >= y0) & (gy < y1)).mean())


# (x, y, yaw, altitude) over the map above; the footprint is 2 x 1.4 altitudes
RENDER_POSES = {
    "on_map": ((13.0, 5.5, 0.4, 3.0), 1.0),
    "edge_grazing": ((3.5, 5.5, 0.4, 3.0), None),
    "corner": ((23.0, 13.0, 2.0, 4.0), None),
    "off_map": ((-40.0, -30.0, 0.4, 3.0), 0.0),
}


class TestRenderMatchesReference:
    """render equals the per-pixel formula byte for byte, codes included."""

    @pytest.mark.parametrize("water", sorted(WATER_PRESETS))
    @pytest.mark.parametrize("noise", [0.0, 0.03])
    @pytest.mark.parametrize("pose_name", sorted(RENDER_POSES))
    def test_bytes(self, pose_name, noise, water):
        pose, fraction = RENDER_POSES[pose_name]
        first = textured_scenario(noise, water)
        if fraction is None:
            assert 0.0 < on_map_fraction(first, pose) < 1.0
        else:
            assert on_map_fraction(first, pose) == fraction
        # the second scenario differs only in its seed, which salts the noise:
        # rendering it from the first one's albedo would miss the reference
        for seed in (0, 7):
            sc = replace(first, mission=replace(first.mission, seed=seed))
            frame, gt = render(sc, *pose)
            img, codes = oracles.reference_render(sc, *pose)
            assert frame.data.tobytes() == img.tobytes()
            assert gt.data.tobytes() == codes.tobytes()

    # sha256 of the frame bytes on the five-patch floor under the two presets
    # that place speckle dots at 128 x 96 (clear places none there); recorded
    # while render still forged a per-pose WaterModel to seed the speckle
    SPECKLED_FRAME_DIGESTS = {
        ("coastal", (50.0, 26.0, 0.0, 13.0)): "c25839b074fb6fb099339b336d13952b8b4535feedf10d1f5dbc6de628e63055",
        ("coastal", (110.0, 30.0, 0.7, 5.0)): "241af2661e7d574dfb53128820dcaf3a881eed86e2d8adcbf42154d61ab0e4e6",
        ("coastal", (157.0, 2.0, 2.5, 9.0)): "bc46c537ba8da14cc17c3884b9e4f3299eeed51ce34e681f8163bad4ccaa7cb5",
        ("turbid", (50.0, 26.0, 0.0, 13.0)): "ec4e69929c62282f730605e9444c46dec16d46ffe89b6fbda5111b4dcc583a02",
        ("turbid", (110.0, 30.0, 0.7, 5.0)): "799420654f4eb30fd0ae16f9c5aadebc5f012acd124c249d54ecf76c59ffe830",
        ("turbid", (157.0, 2.0, 2.5, 9.0)): "8dc3622a6033052beca5746e852f223bc7818628691666ee8de14935744def4c",
    }

    @pytest.mark.parametrize("water, pose", sorted(SPECKLED_FRAME_DIGESTS))
    def test_speckled_frame_digest(self, water, pose):
        sc = replace(five_patch_scenario(), water=WATER_PRESETS[water])
        frame, _ = render(sc, *pose)
        # only a speckle dot lifts every channel of a pixel to the intensity
        assert (frame.data.min(axis=2) >= sc.water.speckle_intensity).any()
        digest = hashlib.sha256(frame.data.tobytes()).hexdigest()
        assert digest == self.SPECKLED_FRAME_DIGESTS[water, pose]

    # (x, y, yaw) over the 160 m x 140 m five-patch floor; at x = 1 every
    # altitude below sees past the west edge
    FIVE_PATCH_POSES = {"on_map": (60.0, 30.0, 0.3), "edge_grazing": (1.0, 40.0, 0.4)}

    @pytest.mark.parametrize("water", sorted(WATER_PRESETS))
    @pytest.mark.parametrize("pose_name", sorted(FIVE_PATCH_POSES))
    def test_bytes_on_both_render_paths(self, pose_name, water, monkeypatch):
        # five-patch has 89600 cells, so a held altitude bakes its table on
        # the 8th 128 x 96 frame and every earlier frame takes the unbaked path
        sc = replace(five_patch_scenario(), water=WATER_PRESETS[water])
        bakes = count_bakes(monkeypatch, sc)
        pose = self.FIVE_PATCH_POSES[pose_name]
        survey, inspect = 13.0, sc.mission.inspect_altitude
        for altitude in (survey, inspect):
            fraction = on_map_fraction(sc, (*pose, altitude))
            assert fraction == 1.0 if pose_name == "on_map" else 0.0 < fraction < 1.0

        def check(altitude):
            frame, gt = render(sc, *pose, altitude)
            img, codes = oracles.reference_render(sc, *pose, altitude)
            assert frame.data.tobytes() == img.tobytes()
            assert gt.data.tobytes() == codes.tobytes()

        check(survey)  # cold
        assert bakes == []
        for _ in range(7):  # held until its table is baked
            check(survey)
        assert len(bakes) == 1
        for k in range(1, 21):  # a descent through 20 altitudes
            check(survey - 0.4 * k)
        assert len(bakes) == 1
        for _ in range(10):  # the inspect hold, baked on its 8th frame
            check(inspect)
        assert len(bakes) == 2
        check(survey)  # back at the survey table
        assert len(bakes) == 2

    def test_albedo_baked_on_first_render(self, tmp_path, monkeypatch):
        save_scenario(textured_scenario(0.03, "clear"), tmp_path / "s.scn")
        bakes: list = []
        monkeypatch.setattr(world, "attenuate", lambda img, *a: bakes.append(img) or attenuate(img, *a))
        sc = load_scenario(tmp_path / "s.scn")
        # setting up a scenario bakes neither the albedo nor a water table
        assert "_albedo" not in vars(sc) and "_water_tables" not in vars(sc)
        assert bakes == []
        render(sc, *RENDER_POSES["on_map"][0])
        assert vars(sc)["_albedo"].shape == (30 * 40, 3)


def count_bakes(monkeypatch, scenario) -> list:
    """Record each map-sized attenuation (a table bake) of ``scenario``.

    Also checks that a bake never runs with two tables alive: the least
    recently used one is dropped first.
    """
    h, w = scenario.seafloor.label_map.data.shape
    bakes: list = []

    def counting(img, water, path_length):
        if img.data.shape[:2] == (h, w):
            assert len(scenario._water_tables.tables) < 2
            bakes.append(path_length)
        return attenuate(img, water, path_length)

    monkeypatch.setattr(world, "attenuate", counting)
    return bakes


class TestWaterTables:
    """A held altitude's frames come from a table baked once per water path."""

    POSE = (60.0, 30.0, 0.3)

    def test_bake_waits_for_a_map_of_pixels(self, monkeypatch):
        sc = five_patch_scenario()
        bakes = count_bakes(monkeypatch, sc)
        # 7 frames of 12288 px fall short of the 89600 cells, 8 do not
        for _ in range(7):
            render(sc, *self.POSE, 13.0)
        assert bakes == []
        render(sc, *self.POSE, 13.0)
        assert bakes == [13.0]

    def test_altitudes_with_equal_factors_share_a_table(self, monkeypatch):
        sc = five_patch_scenario()  # clear water
        bakes = count_bakes(monkeypatch, sc)
        for altitude in (13.0,) * 8 + (12.999999999999998, 12.999999999999996) * 8:
            render(sc, *self.POSE, altitude)
        assert bakes == [13.0]
        assert len(sc._water_tables.tables) == 1

    def test_third_table_drops_the_least_recently_used(self, monkeypatch):
        sc = five_patch_scenario()
        bakes = count_bakes(monkeypatch, sc)
        for altitude, frames in ((13.0, 8), (9.0, 8), (13.0, 1), (7.0, 8), (13.0, 1)):
            for _ in range(frames):
                render(sc, *self.POSE, altitude)
        # 9.0 was used least recently when 7.0 was baked, so it went first
        assert bakes == [13.0, 9.0, 7.0]
        for _ in range(8):
            render(sc, *self.POSE, 9.0)
        assert bakes == [13.0, 9.0, 7.0, 9.0]
        assert len(sc._water_tables.tables) == 2

    def test_descent_bakes_nothing(self, monkeypatch):
        sc = five_patch_scenario()
        bakes = count_bakes(monkeypatch, sc)
        for k in range(40):  # a new altitude every frame
            render(sc, *self.POSE, 13.0 - 0.2 * k)
        assert bakes == []

    def test_mission_bakes_two_tables_and_reruns_to_the_same_bytes(self, tmp_path, monkeypatch):
        sc = five_patch_scenario()
        bakes = count_bakes(monkeypatch, sc)
        runs = []
        for name in ("cold", "warm"):
            log = run_mission(sc, OracleSegmenter(sc), max_ticks=8000)
            assert log.events[-1].kind == "MISSION_COMPLETE"
            write_mission_log(sc, log, tmp_path / name)
            runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
            assert len(sc._water_tables.tables) <= 2
        # the survey and inspect altitudes (the hold may sit an ulp off), once each
        assert sorted(bakes) == [pytest.approx(sc.mission.inspect_altitude), 13.0]
        assert runs[0] == runs[1]


class TestOracleSegmenter:
    def test_matches_render_gt(self):
        sc = tiny_scenario()
        img, gt = render(sc, 10.0, 10.0, 0.7, 4.0)
        assert (img.x, img.y, img.yaw, img.altitude) == (10.0, 10.0, 0.7, 4.0)
        assert np.array_equal(OracleSegmenter(sc).segment(img).data, gt.data)

    def test_rejects_plain_raster(self):
        sc = tiny_scenario()
        img, _ = render(sc, 5.0, 5.0, 0.0, 3.0)
        with pytest.raises(TypeError):
            OracleSegmenter(sc).segment(Raster(img.data))

    def test_rejects_wrong_frame_size(self):
        sc = tiny_scenario()
        other = tiny_scenario(camera=CameraModel(90.0, 70.0, 16, 12))
        img, _ = render(other, 5.0, 5.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            OracleSegmenter(sc).segment(img)

    def test_rejects_pose_below_floor(self):
        sc = tiny_scenario()
        img, _ = render(sc, 5.0, 5.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            OracleSegmenter(sc).segment(Frame(img.data, 5.0, 5.0, 0.0, 0.0))

    def test_rejects_non_finite_pose(self):
        sc = tiny_scenario()
        img, _ = render(sc, 5.0, 5.0, 0.0, 3.0)
        with pytest.raises(ValueError, match="finite"):
            OracleSegmenter(sc).segment(Frame(img.data, float("nan"), 5.0, 0.0, 3.0))


def test_render_rejects_non_finite_pose():
    # a NaN position would otherwise reach the integer cell index and
    # render a garbage frame
    with pytest.raises(ValueError, match="finite"):
        render(tiny_scenario(), float("nan"), 5.0, 0.0, 3.0)


@pytest.mark.parametrize(
    "make_backend", [OracleSegmenter, lambda sc: BaselineSegmenter()], ids=["oracle", "baseline"]
)
def test_backend_takes_rendered_frame_alone(make_backend):
    # the whole backend contract: segment(frame) with render's output, no other call
    sc = tiny_scenario()
    img, _ = render(sc, 5.0, 5.0, 0.0, 3.0)
    mask = make_backend(sc).segment(img)
    assert isinstance(mask, LabelMask)
    assert mask.data.shape == (sc.camera.height, sc.camera.width)


class TestValidateScenario:
    def test_clean_scenario(self):
        assert tiny_scenario().waypoints == ((5.0, 5.0), (15.0, 5.0))

    def test_collects_all_problems(self):
        with pytest.raises(ValueError) as exc:
            tiny_scenario(
                mission=MissionConfig(inspect_altitude=99.0),
                waypoints=((5.0, 5.0), (900.0, 5.0)),
            )
        problems = str(exc.value).splitlines()
        assert any("inspect_altitude" in p for p in problems)
        assert any("waypoints[1]" in p for p in problems)

    def test_no_waypoints(self):
        with pytest.raises(ValueError, match="waypoint"):
            tiny_scenario(waypoints=())

    def test_replace_reruns_the_rules(self):
        # a mission so deep it would dive through the floor fails when built,
        # not at the first dive with a guidance error
        sc = five_patch_scenario()
        with pytest.raises(ValueError, match=r"^mission\.inspect_altitude: "):
            replace(sc, mission=replace(sc.mission, inspect_altitude=20.0))

    @pytest.mark.parametrize("wp", [(float("nan"), 5.0), (5.0, float("inf"))])
    def test_non_finite_waypoint_is_off_the_map(self, wp):
        with pytest.raises(ValueError, match=r"waypoints\[1\]: .* outside the mapped area"):
            tiny_scenario(waypoints=((5.0, 5.0), wp))


class TestScenarioText:
    def test_save_load_roundtrip(self, tmp_path):
        sc = tiny_scenario(
            water=WaterModel(attenuation=(0.1, 0.2, 0.3), speckle_density=25.0),
            mission=MissionConfig(seed=42, explored_alpha=12.0),
        )
        path = tmp_path / "demo.scn"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert np.array_equal(back.seafloor.label_map.data, sc.seafloor.label_map.data)
        assert back.seafloor.resolution == sc.seafloor.resolution
        assert back.water == sc.water
        assert back.camera == sc.camera
        assert back.detector == sc.detector
        assert back.vehicle == sc.vehicle
        assert back.tracking == sc.tracking
        assert back.mission == sc.mission
        assert back.waypoints == sc.waypoints

    @pytest.mark.parametrize("stem", ["run#1", " run", "run\n2", "run\x0b2"])
    def test_save_rejects_a_map_name_the_format_cannot_carry(self, tmp_path, stem):
        # the map line would be cut at '#', split, or stripped on loading
        with pytest.raises(ValueError, match="cannot name the map"):
            save_scenario(empty_scenario(), tmp_path / f"{stem}.scn")
        assert list(tmp_path.iterdir()) == []

    def test_save_keeps_an_inner_space_in_the_map_name(self, tmp_path):
        save_scenario(empty_scenario(), tmp_path / "run 1.scn")
        back = load_scenario(tmp_path / "run 1.scn")
        assert back.waypoints == empty_scenario().waypoints

    def test_minimal_text(self, tmp_path):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = """
        # tiny
        [seafloor]
        map = floor.pgm
        resolution = 1.0

        [waypoints]
        5 5   # first leg
        15 5
        """
        sc = parse_scenario_text(text, base_dir=str(tmp_path))
        assert sc.seafloor.resolution == 1.0
        assert sc.waypoints == ((5.0, 5.0), (15.0, 5.0))
        assert sc.camera == CameraModel()  # defaults fill the rest

    def test_water_preset_with_override(self, tmp_path):
        from posidonia_inspect.imaging import WATER_PRESETS
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1.0\n"
            "[water]\npreset = coastal\nspeckle_density = 5\n"
            "[waypoints]\n5 5\n"
        )
        sc = parse_scenario_text(text, base_dir=str(tmp_path))
        assert sc.water.attenuation == WATER_PRESETS["coastal"].attenuation
        assert sc.water.speckle_density == 5.0

    def test_all_errors_reported_with_lines(self, tmp_path):
        text = (
            "x = 1\n"  # line 1: outside section
            "[nosuch]\n"  # line 2: unknown section
            "[camera]\n"
            "width = pizza\n"  # line 4: bad int
            "zoom = 3\n"  # line 5: unknown key
            "width = 64\n"  # line 6: duplicate once width seen? (width failed parse but was recorded)
            "[waypoints]\n"
            "1 2 3\n"  # line 8: malformed waypoint
        )
        with pytest.raises(ValueError) as exc:
            parse_scenario_text(text, base_dir=str(tmp_path), source="bad.scn")
        msg = str(exc.value)
        assert "bad.scn:1" in msg
        assert "bad.scn:2" in msg and "nosuch" in msg
        assert "bad.scn:4" in msg
        assert "bad.scn:5" in msg and "zoom" in msg
        assert "bad.scn:8" in msg
        assert "map is required" in msg

    def test_missing_map_file(self, tmp_path):
        text = "[seafloor]\nmap = ghost.pgm\n[waypoints]\n1 1\n"
        with pytest.raises(ValueError, match="ghost.pgm"):
            parse_scenario_text(text, base_dir=str(tmp_path))

    def test_cross_field_validation_in_load(self, tmp_path):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1.0\nseabed_depth = 4\n"
            "[mission]\ninspect_altitude = 9\n"
            "[waypoints]\n5 5\n"
        )
        with pytest.raises(ValueError, match="inspect_altitude"):
            parse_scenario_text(text, base_dir=str(tmp_path))

    def test_cross_field_errors_name_the_source(self, tmp_path):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1.0\nseabed_depth = 4\n"
            "[mission]\ninspect_altitude = 9\n"
            "[waypoints]\n5 5\n900 5\n"
        )
        with pytest.raises(ValueError) as exc:
            parse_scenario_text(text, base_dir=str(tmp_path), source="bad.scn")
        assert str(exc.value).splitlines() == [
            "bad.scn: mission.inspect_altitude: must be smaller than seafloor.seabed_depth",
            "bad.scn: waypoints[1]: (900.0, 5.0) is outside the mapped area",
        ]

    def test_non_finite_numbers_rejected_by_section(self, tmp_path):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1.0\n"
            "[water]\nspeckle_density = nan\nattenuation = nan 0.1 0.1\n"
            "[tracking]\nk_tangent = nan\nborder_margin = inf\n"
            "[waypoints]\n5 5\n"
        )
        with pytest.raises(ValueError) as exc:
            parse_scenario_text(text, base_dir=str(tmp_path), source="bad.scn")
        msg = str(exc.value)
        assert "bad.scn: [water]" in msg
        assert "bad.scn: [tracking]" in msg

    @pytest.mark.parametrize("section, key", [("mission", "seed"), ("water", "rng_seed")])
    def test_seed_outside_int64_rejected_by_section(self, tmp_path, section, key):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1.0\n"
            f"[{section}]\n{key} = 99999999999999999999999\n[waypoints]\n5 5\n"
        )
        with pytest.raises(ValueError, match=f"bad.scn: \\[{section}\\]: .*{key}"):
            parse_scenario_text(text, base_dir=str(tmp_path), source="bad.scn")

    @pytest.mark.parametrize("section, key", [
        ("seafloor", "label_map"), ("seafloor", "colors"), ("water", "map"),
        ("camera", "preset"), ("mission", "color_sand"),
    ])
    def test_keys_outside_the_format_are_unknown(self, tmp_path, section, key):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1.0\n"
            f"[{section}]\n{key} = 1\n[waypoints]\n5 5\n"
        )
        with pytest.raises(ValueError, match=f"unknown key '{key}' in \\[{section}\\]"):
            parse_scenario_text(text, base_dir=str(tmp_path))

    # sha256 of the .scn text save_scenario writes for each preset, recorded
    # while the seafloor section was still written from hand-kept lines
    PRESET_SCN_DIGESTS = {
        "blocks": "aef5dad17bae28c9617884d7dd6d686f7ce9d10f91d29fb7c4b0798ea3720f1b",
        "empty": "8e283f6df4c363502099bba3fe6191cc8f02b052c6f4bf75d5292a38df18b6f6",
        "five_patch": "9e097926c54302769562603e6993d1d09a31e5b33186a381c2154a123e26ddfa",
        "ring_meadow": "ee9aaef6d1bdda1963cf76a81b51970f8f47f4bdbb04e16981869ede1aab0a76",
    }
    PRESETS = {
        "blocks": blocks_scenario,
        "empty": empty_scenario,
        "five_patch": five_patch_scenario,
        "ring_meadow": ring_meadow_scenario,
    }

    @pytest.mark.parametrize("name", sorted(PRESET_SCN_DIGESTS))
    def test_saved_preset_digest(self, tmp_path, name):
        path = tmp_path / f"{name}.scn"
        save_scenario(self.PRESETS[name](), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PRESET_SCN_DIGESTS[name]

    def test_key_types_follow_field_defaults(self, tmp_path):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        text = (
            "[seafloor]\nmap = floor.pgm\nresolution = 1\norigin = 0 0\n"
            "color_rocks = 0.1 0.2 0.3\n"
            "[camera]\nwidth = 2.5\n[mission]\nseed = 1 2\n[water]\nattenuation = 0.1\n"
            "[waypoints]\n5 5\n"
        )
        with pytest.raises(ValueError) as exc:
            parse_scenario_text(text, base_dir=str(tmp_path), source="t.scn")
        msg = str(exc.value)
        assert "t.scn:7: [camera] width: invalid literal for int()" in msg
        assert "t.scn:9: [mission] seed: expected a single value" in msg
        assert "t.scn:11: [water] attenuation: expected 3 numbers" in msg
        assert "[seafloor]" not in msg


class TestScenarioTextErrors:
    """The exact text of each message parse_scenario_text raises.

    Every file here is the three seafloor lines of ``HEAD``, then the case's
    lines from line 4 on, then ``TAIL``'s waypoint unless the case brings
    its own ``[waypoints]`` section.
    """

    HEAD = "[seafloor]\nmap = floor.pgm\nresolution = 1.0\n"
    TAIL = "[waypoints]\n5 5\n"

    def parse(self, tmp_path, text):
        from posidonia_inspect.segmentation import write_mask

        write_mask(checker_map(), tmp_path / "floor.pgm")
        with pytest.raises(ValueError) as exc:
            parse_scenario_text(text, base_dir=str(tmp_path), source="bad.scn")
        return str(exc.value).splitlines()

    @pytest.mark.parametrize("body, message", [
        ("[camera\n", "bad.scn:4: malformed section header '[camera'"),
        ("[nosuch]\n", "bad.scn:4: unknown section [nosuch]"),
        ("[camera]\nwidth\n", "bad.scn:5: expected 'key = value', got 'width'"),
        ("[camera]\nwidth =\n", "bad.scn:5: expected 'key = value', got 'width ='"),
        ("[camera]\n= 64\n", "bad.scn:5: expected 'key = value', got '= 64'"),
        ("[camera]\nzoom = 3\n", "bad.scn:5: unknown key 'zoom' in [camera]"),
        ("[camera]\nwidth = 64\nwidth = 32\n", "bad.scn:6: duplicate key 'width' in [camera]"),
        ("[camera]\nwidth = 64\n[mission]\nseed = 1\n[camera]\nwidth = 32\n",
         "bad.scn:9: duplicate key 'width' in [camera]"),
        ("[waypoints]\n5 x\n", "bad.scn:5: waypoint lines are two numbers, got '5 x'"),
        ("[waypoints]\n1 2 3\n", "bad.scn:5: waypoint lines are two numbers, got '1 2 3'"),
        ("[camera]\nwidth = pizza\n",
         "bad.scn:5: [camera] width: invalid literal for int() with base 10: 'pizza'"),
        ("[mission]\ntick_dt = fast\n",
         "bad.scn:5: [mission] tick_dt: could not convert string to float: 'fast'"),
        ("[mission]\nseed = 1 2\n", "bad.scn:5: [mission] seed: expected a single value"),
        ("[water]\nattenuation = 0.1\n", "bad.scn:5: [water] attenuation: expected 3 numbers"),
        ("[water]\npreset = murky\n",
         "bad.scn: [water] preset: unknown preset 'murky'; "
         "options are ['clear', 'coastal', 'turbid']"),
        ("[camera]\nwidth = 0\n", "bad.scn: [camera]: width must be an integer >= 1, got 0"),
        ("[vehicle]\nseabed_depth = 10\n",
         "bad.scn: vehicle.seabed_depth: depth clamp sits above seafloor.seabed_depth"),
        ("[mission]\nsurvey_depth = 20\n",
         "bad.scn: mission.survey_depth: leaves no altitude above the seafloor"),
        ("[mission]\ninspect_altitude = 15\n",
         "bad.scn: mission.inspect_altitude: must be smaller than seafloor.seabed_depth"),
        ("[waypoints]\n900 5\n",
         "bad.scn: waypoints[0]: (900.0, 5.0) is outside the mapped area"),
    ])
    def test_single_error_message(self, tmp_path, body, message):
        tail = "" if "[waypoints]" in body else self.TAIL
        assert self.parse(tmp_path, self.HEAD + body + tail) == [message]

    def test_content_outside_any_section(self, tmp_path):
        lines = self.parse(tmp_path, "x = 1\n" + self.HEAD + self.TAIL)
        assert lines == ["bad.scn:1: content outside any [section]"]

    def test_map_is_required(self, tmp_path):
        lines = self.parse(tmp_path, "[seafloor]\nresolution = 1.0\n" + self.TAIL)
        assert lines == ["bad.scn: [seafloor] map is required"]

    def test_missing_map_names_the_map_file(self, tmp_path):
        text = self.HEAD.replace("floor.pgm", "ghost.pgm") + self.TAIL
        ghost = tmp_path / "ghost.pgm"
        assert self.parse(tmp_path, text) == [
            f"bad.scn: [seafloor] map: [Errno 2] No such file or directory: '{ghost}'"
        ]

    def test_truncated_map_names_the_map_file(self, tmp_path):
        (tmp_path / "cut.pgm").write_bytes(b"P5\n4 4\n3\n\x00")
        text = self.HEAD.replace("floor.pgm", "cut.pgm") + self.TAIL
        cut = tmp_path / "cut.pgm"
        assert self.parse(tmp_path, text) == [
            f"bad.scn: [seafloor] map: truncated PNM payload in {cut}"
        ]

    def test_zero_size_map_names_the_map_file(self, tmp_path):
        (tmp_path / "zero.pgm").write_bytes(b"P5\n0 0\n3\n")
        text = self.HEAD.replace("floor.pgm", "zero.pgm") + self.TAIL
        zero = tmp_path / "zero.pgm"
        assert self.parse(tmp_path, text) == [
            f"bad.scn: [seafloor] map: PNM width and height must be positive, got 0x0 in {zero}"
        ]

    def test_no_waypoints(self, tmp_path):
        lines = self.parse(tmp_path, self.HEAD)
        assert lines == ["bad.scn: waypoints: at least one waypoint is required"]

    def test_errors_come_in_line_order(self, tmp_path):
        text = (
            self.HEAD
            + "[camera]\n"          # 4
            "width = pizza\n"       # 5: bad conversion
            "zoom = 3\n"            # 6: unknown key
            "width = 64\n"          # 7: duplicate of the unconverted line 5
            "[mission]\n"           # 8
            "seed = x\n"            # 9: bad conversion
            "[nosuch]\n"            # 10: unknown section
            "[water]\n"             # 11
            "preset = murky\n"      # 12: reported with the section, after every line
            + self.TAIL
        )
        assert self.parse(tmp_path, text) == [
            "bad.scn:5: [camera] width: invalid literal for int() with base 10: 'pizza'",
            "bad.scn:6: unknown key 'zoom' in [camera]",
            "bad.scn:7: duplicate key 'width' in [camera]",
            "bad.scn:9: [mission] seed: invalid literal for int() with base 10: 'x'",
            "bad.scn:10: unknown section [nosuch]",
            "bad.scn: [water] preset: unknown preset 'murky'; "
            "options are ['clear', 'coastal', 'turbid']",
        ]
