from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from posidonia_inspect.camera import CameraModel, pixel_grid_world
from posidonia_inspect.imaging import WATER_PRESETS, Raster, WaterModel
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
    validate_scenario,
)


def checker_map(n=20):
    data = np.zeros((n, n), dtype=np.uint8)
    data[: n // 2, : n // 2] = 1
    data[n // 2 :, n // 2 :] = 2
    return LabelMask(data)


def flat_water():
    return WaterModel(attenuation=0.0, backscatter_veil=0.0, speckle_density=0.0)


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

    def test_attenuation_darkens(self):
        dark_water = WaterModel(attenuation=0.3, backscatter_veil=0.0, speckle_density=0.0)
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

    def test_albedo_baked_on_first_render(self, tmp_path):
        save_scenario(textured_scenario(0.03, "clear"), tmp_path / "s.scn")
        sc = load_scenario(tmp_path / "s.scn")
        assert "_albedo" not in vars(sc)  # setting up a scenario does not bake
        render(sc, *RENDER_POSES["on_map"][0])
        assert vars(sc)["_albedo"].shape == (30 * 40, 3)


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
        assert validate_scenario(tiny_scenario()) == []

    def test_collects_all_problems(self):
        sc = tiny_scenario(
            mission=MissionConfig(inspect_altitude=99.0),
            waypoints=((5.0, 5.0), (900.0, 5.0)),
        )
        problems = validate_scenario(sc)
        assert any("inspect_altitude" in p for p in problems)
        assert any("waypoints[1]" in p for p in problems)

    def test_no_waypoints(self):
        sc = tiny_scenario(waypoints=())
        assert any("waypoint" in p for p in validate_scenario(sc))


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
