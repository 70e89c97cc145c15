import math

import numpy as np
import pytest

from posidonia_inspect.camera import (
    CameraModel,
    _local_grid,
    local_to_world,
    pixel_grid_world,
    pixel_to_local,
    pixel_to_world,
)
from posidonia_inspect.geometry import Polygon, polygon_area

CAM = CameraModel(hfov_deg=90.0, vfov_deg=70.0, width=128, height=96)


class TestCameraModel:
    def test_defaults_valid(self):
        cam = CameraModel()
        assert cam.width > 0 and cam.height > 0

    @pytest.mark.parametrize("fov", [0.0, -10.0, 180.0, 359.0, math.nan])
    def test_rejects_bad_fov(self, fov):
        with pytest.raises(ValueError):
            CameraModel(hfov_deg=fov)
        with pytest.raises(ValueError):
            CameraModel(vfov_deg=fov)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_rejects_bad_dims(self, dim):
        with pytest.raises(ValueError):
            CameraModel(width=dim)
        with pytest.raises(ValueError):
            CameraModel(height=dim)

    def test_hashable(self):
        assert hash(CAM) == hash(CameraModel(90.0, 70.0, 128, 96))


class TestProjection:
    def test_image_center_is_below_vehicle(self):
        col = (CAM.width - 1) / 2.0
        row = (CAM.height - 1) / 2.0
        wx, wy = pixel_to_world(CAM, col, row, 12.0, -3.0, 0.7, 5.0)
        assert wx == pytest.approx(12.0, abs=1e-12)
        assert wy == pytest.approx(-3.0, abs=1e-12)

    def test_top_of_frame_is_ahead(self):
        # facing east: forward offsets add to x
        wx, _ = pixel_to_world(CAM, (CAM.width - 1) / 2.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        assert wx > 0.0

    def test_right_of_frame_is_vehicle_right(self):
        # facing east, vehicle right points south
        _, wy = pixel_to_world(CAM, CAM.width - 1.0, (CAM.height - 1) / 2.0, 0.0, 0.0, 0.0, 5.0)
        assert wy < 0.0
        # facing north, vehicle right points east
        wx, _ = pixel_to_world(
            CAM, CAM.width - 1.0, (CAM.height - 1) / 2.0, 0.0, 0.0, math.pi / 2.0, 5.0
        )
        assert wx > 0.0

    def test_known_corner_offset(self):
        # top-left pixel center at altitude h, yaw 0
        h = 10.0
        forward, right = pixel_to_local(CAM, 0.0, 0.0, h)
        assert right == pytest.approx((0.5 / 128 - 0.5) * 2 * h * CAM.tan_half_h)
        assert forward == pytest.approx((0.5 - 0.5 / 96) * 2 * h * CAM.tan_half_v)

    def test_rejects_nonpositive_altitude(self):
        with pytest.raises(ValueError):
            pixel_to_local(CAM, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            pixel_grid_world(CAM, 0.0, 0.0, 0.0, -2.0)


def corner_centres(x: float, y: float, yaw: float, altitude: float) -> np.ndarray:
    """Front-right, front-left, back-left, back-right pixel centres: CCW."""
    gx, gy = pixel_grid_world(CAM, x, y, yaw, altitude)
    rows, cols = (0, 0, -1, -1), (-1, 0, 0, -1)
    return np.column_stack((gx[rows, cols], gy[rows, cols]))


class TestFootprint:
    # pixel centres sit half a pixel in from each edge of the imaged
    # rectangle, whose half extents are altitude * tan(fov / 2)
    LAT = (CAM.width - 1) / CAM.width * math.tan(math.radians(45.0))
    FWD = (CAM.height - 1) / CAM.height * math.tan(math.radians(35.0))

    def test_half_extents(self):
        # yaw 0 looks along +x, so the lateral span lies on y
        gx, gy = pixel_grid_world(CAM, 0.0, 0.0, 0.0, 7.0)
        assert np.ptp(gy) == pytest.approx(2.0 * 7.0 * self.LAT, rel=1e-12)
        assert np.ptp(gx) == pytest.approx(2.0 * 7.0 * self.FWD, rel=1e-12)

    def test_polygon_area_and_orientation(self):
        poly = Polygon(corner_centres(3.0, 4.0, 1.1, 6.0))
        assert polygon_area(poly) == pytest.approx(4.0 * 36.0 * self.LAT * self.FWD)

    def test_polygon_centered_on_vehicle(self):
        gx, gy = pixel_grid_world(CAM, -8.0, 2.5, 0.3, 4.0)
        assert gx.mean() == pytest.approx(-8.0)
        assert gy.mean() == pytest.approx(2.5)

    def test_yaw_rotates_corners(self):
        p0 = corner_centres(0.0, 0.0, 0.0, 5.0)
        p1 = corner_centres(0.0, 0.0, math.pi / 2.0, 5.0)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(p1, p0 @ rot.T, atol=1e-12)


class TestPixelGrid:
    def test_matches_pointwise_projection(self):
        cam = CameraModel(80.0, 60.0, 10, 7)
        gx, gy = pixel_grid_world(cam, 5.0, -2.0, 0.9, 8.0)
        assert gx.shape == (7, 10)
        for row in (0, 3, 6):
            for col in (0, 4, 9):
                wx, wy = pixel_to_world(cam, float(col), float(row), 5.0, -2.0, 0.9, 8.0)
                assert gx[row, col] == pytest.approx(wx, abs=1e-9)
                assert gy[row, col] == pytest.approx(wy, abs=1e-9)

    @pytest.mark.parametrize("pose", [
        (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan), (-math.inf, 0.0, 0.0),
    ])
    def test_rejects_non_finite_pose(self, pose):
        with pytest.raises(ValueError, match="finite"):
            pixel_grid_world(CAM, *pose, 5.0)

    def test_cached_grid_is_readonly(self):
        gx, _ = pixel_grid_world(CAM, 0.0, 0.0, 0.0, 5.0)
        # outputs are fresh arrays; the cached unit grid must stay frozen
        gx[0, 0] = 123.0
        gx2, _ = pixel_grid_world(CAM, 0.0, 0.0, 0.0, 5.0)
        assert gx2[0, 0] != 123.0

    @pytest.mark.parametrize("altitude", [8.0, 8.000000000000002])
    def test_bytes_match_pointwise_projection(self, altitude):
        # the first call at 8.0 fills the grid cache and the second reads it;
        # the next altitude is one ulp away, so its grid is computed fresh
        cam = CameraModel(80.0, 60.0, 10, 7)
        pose = (5.0, -2.0, 0.9, altitude)
        for _ in range(2):
            hits = _local_grid.cache_info().hits
            gx, gy = pixel_grid_world(cam, *pose)
            for row in range(cam.height):
                for col in range(cam.width):
                    wx, wy = pixel_to_world(cam, float(col), float(row), *pose)
                    assert (gx[row, col], gy[row, col]) == (wx, wy)
        assert _local_grid.cache_info().hits > hits

    def test_cached_local_grids_are_readonly(self):
        pixel_grid_world(CAM, 0.0, 0.0, 0.0, 6.0)
        for grid in _local_grid(CAM, 6.0):
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0] = 0.0


def test_local_to_world_keeps_scalars_python_floats():
    wx, wy = local_to_world(1.0, 2.0, 0.5, 3.0, -4.0)
    assert type(wx) is float and type(wy) is float
    assert (wx, wy) == (1.0 + 3.0 * math.cos(0.5) + -4.0 * math.sin(0.5),
                        2.0 + 3.0 * math.sin(0.5) - -4.0 * math.cos(0.5))
