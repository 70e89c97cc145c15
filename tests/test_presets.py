import numpy as np
import pytest

from posidonia_inspect.presets import (
    MAX_SURVEY_LINES,
    blocks_scenario,
    empty_scenario,
    five_patch_scenario,
    gen_lawnmower,
    make_floor,
    paint_disk,
    paint_rect,
    ring_meadow_scenario,
)
from posidonia_inspect.segmentation import DEBRIS, POSIDONIA, ROCKS, SAND
from posidonia_inspect.world import Scenario, classes_at


def class_at(scenario: Scenario, x: float, y: float) -> int:
    codes = classes_at(scenario.seafloor, np.array([x]), np.array([y]))
    return int(codes[0])


class TestGenLawnmower:
    def test_three_lines_alternate(self):
        got = gen_lawnmower((0.0, 0.0, 100.0, 60.0), 30.0)
        assert got == (
            (0.0, 0.0), (100.0, 0.0),
            (100.0, 30.0), (0.0, 30.0),
            (0.0, 60.0), (100.0, 60.0),
        )

    def test_degenerate_height_is_one_line(self):
        assert gen_lawnmower((5.0, 2.0, 9.0, 2.0), 10.0) == ((5.0, 2.0), (9.0, 2.0))

    def test_last_line_on_grid_included(self):
        # float stepping must not drop a line that lands exactly on y1
        got = gen_lawnmower((0.0, 0.0, 10.0, 0.9), 0.3)
        ys = sorted({y for _, y in got})
        assert ys == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_waypoints_stay_in_bounds(self):
        x0, y0, x1, y1 = 3.0, 7.0, 42.0, 33.0
        for x, y in gen_lawnmower((x0, y0, x1, y1), 8.0):
            assert x0 <= x <= x1
            assert y0 - 1e-9 <= y <= y1 + 1e-9

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            gen_lawnmower((10.0, 0.0, 10.0, 5.0), 1.0)
        with pytest.raises(ValueError):
            gen_lawnmower((0.0, 5.0, 10.0, 0.0), 1.0)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            gen_lawnmower((0.0, 0.0, 10.0, 10.0), 0.0)
        with pytest.raises(ValueError):
            gen_lawnmower((0.0, 0.0, 10.0, 10.0), float("nan"))

    @pytest.mark.parametrize("bounds", [
        (0.0, 0.0, 1.0, float("inf")),
        (float("-inf"), 0.0, 1.0, 1.0),
        (0.0, float("nan"), 1.0, 1.0),
    ])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            gen_lawnmower(bounds, 1.0)

    @pytest.mark.parametrize("bounds, spacing", [
        ((0.0, 0.0, 1e300, 60.0), 1e-300),
        ((0.0, 0.0, 1.0, 1e300), 1e-300),  # the count itself overflows
        ((0.0, 0.0, 1.0, 0.0), 1e-300),  # the 1e-9 end slack alone is too many lines
        ((0.0, 0.0, 1.0, 2.0 * MAX_SURVEY_LINES), 1.0),
    ])
    def test_rejects_too_many_lines(self, bounds, spacing):
        with pytest.raises(ValueError, match="survey lines"):
            gen_lawnmower(bounds, spacing)

    def test_rejects_spacing_below_the_float_step(self):
        # 1e20 + 1 == 1e20, so y would never move
        with pytest.raises(ValueError, match="float step"):
            gen_lawnmower((0.0, 1e20, 1.0, 1e20), 1.0)


class TestPainting:
    def test_make_floor_shape(self):
        grid = make_floor(160.0, 140.0, 0.5)
        assert grid.shape == (280, 320)
        assert grid.dtype == np.uint8
        assert not grid.any()

    def test_make_floor_rejects_empty(self):
        with pytest.raises(ValueError):
            make_floor(0.1, 10.0, 0.5)

    def test_paint_disk_hits_center_cell(self):
        grid = make_floor(10.0, 10.0, 0.5)
        paint_disk(grid, 0.5, (0.0, 0.0), (5.0, 5.0), 2.0, POSIDONIA)
        assert grid[10, 10] == POSIDONIA  # cell center (5.25, 5.25)
        assert grid[0, 0] == SAND
        painted = np.argwhere(grid == POSIDONIA)
        centers = (painted[:, ::-1] + 0.5) * 0.5
        dist = np.hypot(centers[:, 0] - 5.0, centers[:, 1] - 5.0)
        assert dist.max() <= 2.0 + 1e-9

    def test_paint_rect_bounds(self):
        grid = make_floor(10.0, 10.0, 0.5)
        paint_rect(grid, 0.5, (0.0, 0.0), (2.0, 2.0, 4.0, 6.0), ROCKS)
        assert grid[5, 5] == ROCKS  # center (2.75, 2.75)
        assert grid[5, 9] == SAND  # center (4.75, 2.75) east of the rect


class TestScenarioFactories:
    @pytest.mark.parametrize(
        "factory",
        [five_patch_scenario, ring_meadow_scenario, blocks_scenario, empty_scenario],
    )
    def test_constructs_valid_scenario(self, factory):
        scenario = factory()
        assert isinstance(scenario, Scenario)
        assert len(scenario.waypoints) >= 2

    def test_factories_use_distinct_seeds(self):
        seeds = {
            f().mission.seed
            for f in (five_patch_scenario, ring_meadow_scenario,
                      blocks_scenario, empty_scenario)
        }
        assert len(seeds) == 4

    def test_five_patch_classes(self):
        scn = five_patch_scenario()
        assert class_at(scn, 50.0, 30.0) == ROCKS
        assert class_at(scn, 110.0, 30.0) == POSIDONIA
        assert class_at(scn, 110.0, 70.0) == POSIDONIA
        assert class_at(scn, 50.0, 70.0) == ROCKS
        assert class_at(scn, 100.0, 110.0) == POSIDONIA
        assert class_at(scn, 93.5, 110.0) == ROCKS  # crescent west of the meadow
        assert class_at(scn, 20.0, 20.0) == SAND

    def test_five_patch_meadow_not_carved_by_rocks(self):
        # the mixed patch paints rocks first, so everything within the
        # meadow radius must read back as posidonia
        scn = five_patch_scenario()
        assert class_at(scn, 95.0, 110.0) == POSIDONIA
        assert class_at(scn, 100.0, 104.5) == POSIDONIA

    def test_five_patch_passes_repeat_waypoints(self):
        single = five_patch_scenario().waypoints
        double = five_patch_scenario(passes=2).waypoints
        assert double == single * 2

    def test_five_patch_rejects_zero_passes(self):
        with pytest.raises(ValueError):
            five_patch_scenario(passes=0)

    def test_ring_meadow_disk(self):
        scn = ring_meadow_scenario()
        assert class_at(scn, 60.0, 78.0) == POSIDONIA
        assert class_at(scn, 60.0, 96.5) == POSIDONIA
        assert class_at(scn, 60.0, 99.5) == SAND
        assert class_at(scn, 10.0, 60.0) == SAND

    def test_blocks_quadrants(self):
        scn = blocks_scenario()
        assert class_at(scn, 20.0, 20.0) == SAND
        assert class_at(scn, 60.0, 20.0) == POSIDONIA
        assert class_at(scn, 20.0, 60.0) == ROCKS
        assert class_at(scn, 60.0, 60.0) == DEBRIS

    def test_empty_is_all_sand(self):
        scn = empty_scenario()
        assert not scn.seafloor.label_map.data.any()
