import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posidonia_inspect.camera import CameraModel
from posidonia_inspect.geometry import Polygon
from posidonia_inspect.vehicle import (
    GuidanceRef,
    TrackingConfig,
    VehicleConfig,
    VehicleState,
    boundary_guidance,
    step,
    waypoint_guidance,
    wrap_angle,
)

CFG = VehicleConfig()
CAM = CameraModel(90.0, 70.0, 128, 96)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,want",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi), (math.pi + 0.1, -math.pi + 0.1)],
    )
    def test_known(self, raw, want):
        assert wrap_angle(raw) == pytest.approx(want)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestGuidanceRef:
    def test_requires_exactly_one_yaw_channel(self):
        with pytest.raises(ValueError):
            GuidanceRef(target_depth=1.0, target_surge=0.5)
        with pytest.raises(ValueError):
            GuidanceRef(target_depth=1.0, target_surge=0.5, target_yaw=0.0, target_yaw_rate=0.1)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            GuidanceRef(target_depth=-1.0, target_surge=0.5, target_yaw=0.0)


class TestStep:
    def test_surge_accel_limited(self):
        s = VehicleState()
        ref = GuidanceRef(target_depth=0.0, target_surge=1.0, target_yaw=0.0)
        s1 = step(s, ref, CFG, 0.5)
        assert s1.u == pytest.approx(CFG.surge_accel * 0.5)
        assert s1.x == pytest.approx(s1.u * 0.5)

    def test_yaw_rate_clamped(self):
        s = VehicleState(yaw=0.0)
        ref = GuidanceRef(target_depth=0.0, target_surge=0.0, target_yaw=math.pi)
        s1 = step(s, ref, CFG, 0.5)
        assert (s1.yaw - s.yaw) / 0.5 == pytest.approx(CFG.max_yaw_rate)

    def test_yaw_wraps_shortest_way(self):
        s = VehicleState(yaw=math.pi - 0.05)
        ref = GuidanceRef(target_depth=0.0, target_surge=0.0, target_yaw=-math.pi + 0.05)
        s1 = step(s, ref, CFG, 0.5)
        assert wrap_angle(s1.yaw - s.yaw) > 0.0  # crossing through pi, not swinging back

    def test_depth_approach_and_clamp(self):
        s = VehicleState(z=0.0)
        ref = GuidanceRef(target_depth=10.0, target_surge=0.0, target_yaw=0.0)
        s1 = step(s, ref, CFG, 0.5)
        assert (s1.z - s.z) / 0.5 == pytest.approx(CFG.max_heave)
        deep = VehicleState(z=CFG.seabed_depth - 0.01)
        s2 = step(deep, GuidanceRef(target_depth=40.0, target_surge=0.0, target_yaw=0.0), CFG, 0.5)
        assert s2.z == CFG.seabed_depth

    def test_surface_clamp(self):
        s = VehicleState(z=0.05)
        ref = GuidanceRef(target_depth=0.0, target_surge=0.0, target_yaw=0.0)
        for _ in range(10):
            s = step(s, ref, CFG, 0.5)
        assert s.z >= 0.0

    def test_reverse_surge_not_allowed(self):
        s = VehicleState(u=0.2)
        ref = GuidanceRef(target_depth=0.0, target_surge=-1.0, target_yaw=0.0)
        for _ in range(5):
            s = step(s, ref, CFG, 0.5)
        assert s.u == 0.0

    def test_time_accumulates(self):
        s = VehicleState()
        ref = GuidanceRef(target_depth=0.0, target_surge=0.0, target_yaw=0.0)
        s1 = step(step(s, ref, CFG, 0.5), ref, CFG, 0.5)
        assert s1.time == pytest.approx(1.0)

    def test_rejects_bad_dt(self):
        ref = GuidanceRef(target_depth=0.0, target_surge=0.0, target_yaw=0.0)
        with pytest.raises(ValueError):
            step(VehicleState(), ref, CFG, 0.0)

    def test_depth_settles_without_overshoot(self):
        s = VehicleState(z=2.0)
        ref = GuidanceRef(target_depth=10.0, target_surge=0.0, target_yaw=0.0)
        prev = s.z
        for _ in range(200):
            s = step(s, ref, CFG, 0.5)
            assert s.z >= prev - 1e-12  # k_depth * dt < 1 keeps it monotone
            prev = s.z
        assert s.z == pytest.approx(10.0, abs=1e-3)


class TestWaypointGuidance:
    def test_points_at_waypoint(self):
        s = VehicleState(x=0.0, y=0.0)
        ref, arrived = waypoint_guidance(s, (10.0, 10.0), 2.0, CFG)
        assert ref.target_yaw == pytest.approx(math.pi / 4)
        assert not arrived

    def test_arrival_needs_depth_too(self):
        s = VehicleState(x=9.0, y=0.0, z=0.0)
        _, arrived = waypoint_guidance(s, (10.0, 0.0), 2.0, CFG)
        assert not arrived
        s2 = VehicleState(x=9.0, y=0.0, z=2.0)
        _, arrived2 = waypoint_guidance(s2, (10.0, 0.0), 2.0, CFG)
        assert arrived2

    def test_closed_loop_reaches_waypoint(self):
        s = VehicleState(x=0.0, y=0.0, yaw=2.0)
        wp = (25.0, -12.0)
        for _ in range(400):
            ref, arrived = waypoint_guidance(s, wp, 3.0, CFG)
            if arrived:
                break
            s = step(s, ref, CFG, 0.5)
        assert arrived
        assert math.hypot(s.x - wp[0], s.y - wp[1]) <= CFG.arrival_radius


def band_polygon(col_of_row, height=96, extra=None):
    """Boundary polygon whose band vertices follow col_of_row(row)."""
    rows = np.arange(20, 76, dtype=float)
    verts = [(col_of_row(r), r) for r in rows]
    if extra:
        verts.extend(extra)
    return Polygon(np.asarray(verts, dtype=float))


class TestBoundaryGuidance:
    TCFG = TrackingConfig()

    def test_centered_vertical_line_gives_no_turn(self):
        # meadow body to the left of the line in image coords
        poly = band_polygon(lambda r: 63.5, extra=[(20.0, 5.0), (20.0, 90.0)])
        ref = boundary_guidance(poly, CAM, self.TCFG, 10.0)
        assert ref is not None
        assert ref.target_yaw_rate == pytest.approx(0.0, abs=1e-6)
        assert ref.target_surge == self.TCFG.track_speed

    def test_line_right_of_center_steers_right(self):
        poly = band_polygon(lambda r: 90.0, extra=[(40.0, 5.0), (40.0, 90.0)])
        ref = boundary_guidance(poly, CAM, self.TCFG, 10.0)
        assert ref is not None
        assert ref.target_yaw_rate < 0.0

    def test_line_left_of_center_steers_left(self):
        poly = band_polygon(lambda r: 30.0, extra=[(10.0, 5.0), (10.0, 90.0)])
        ref = boundary_guidance(poly, CAM, self.TCFG, 10.0)
        assert ref is not None
        assert ref.target_yaw_rate > 0.0

    def test_meadow_side_flip_reverses_heading(self):
        poly = band_polygon(lambda r: 63.5, extra=[(20.0, 5.0), (20.0, 90.0)])
        right_cfg = TrackingConfig(meadow_side="right")
        ref = boundary_guidance(poly, CAM, right_cfg, 10.0)
        assert ref is not None
        # tangent now points backward: strong corrective turn
        assert abs(ref.target_yaw_rate) > 1.0

    def test_all_border_vertices_is_lost(self):
        verts = [(0.0, r) for r in range(10, 90)] + [(127.0, 40.0), (127.0, 41.0), (0.5, 42.0)]
        poly = Polygon(np.asarray(verts, dtype=float))
        assert boundary_guidance(poly, CAM, self.TCFG, 10.0) is None

    def test_vertices_outside_band_is_lost(self):
        verts = [(60.0, 2.0), (61.0, 3.0), (62.0, 4.0)]
        poly = Polygon(np.asarray(verts, dtype=float))
        assert boundary_guidance(poly, CAM, self.TCFG, 10.0) is None

    def test_depth_passthrough(self):
        poly = band_polygon(lambda r: 63.5, extra=[(20.0, 5.0), (20.0, 90.0)])
        ref = boundary_guidance(poly, CAM, self.TCFG, 12.5)
        assert ref is not None and ref.target_depth == 12.5


class TestTrackingConfig:
    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            TrackingConfig(meadow_side="up")

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            TrackingConfig(band_fraction=0.9)

    @pytest.mark.parametrize("points", [2.5, True, 1])
    def test_min_band_points_is_an_int_of_at_least_2(self, points):
        with pytest.raises(ValueError, match="min_band_points"):
            TrackingConfig(min_band_points=points)

    @pytest.mark.parametrize("field", ["k_tangent", "k_offset", "track_speed", "border_margin"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrackingConfig(**{field: value})
