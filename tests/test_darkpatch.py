import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from posidonia_inspect.camera import CameraModel
from posidonia_inspect.darkpatch import (
    DarkPatchReport,
    DetectorConfig,
    _value_channel,
    detect_dark_patches,
    patch_to_world,
    report_lines,
)
from posidonia_inspect.imaging import Raster


def scene(width=120, height=100, floor=0.8):
    return np.full((height, width, 3), floor)


def paint_disk(data, cx, cy, radius, value):
    h, w = data.shape[:2]
    yy, xx = np.mgrid[0:h, 0:w]
    data[(xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2] = value
    return data


class TestDetectorConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.thresholds(0.0) == (0.2, 0.85)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            DetectorConfig(dark_threshold_base=0.9, white_threshold_base=0.8)
        with pytest.raises(ValueError):
            DetectorConfig(dark_threshold_base=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(white_threshold_base=1.2)

    def test_rejects_bad_area_and_fraction(self):
        with pytest.raises(ValueError):
            DetectorConfig(min_patch_area=0)
        with pytest.raises(ValueError):
            DetectorConfig(center_exclusion_fraction=0.6)

    def test_depth_gain_shifts_and_clamps(self):
        cfg = DetectorConfig(threshold_depth_gain=0.01)
        dark, white = cfg.thresholds(10.0)
        assert dark == pytest.approx(0.3)
        assert white == pytest.approx(0.95)
        dark, white = cfg.thresholds(100.0)
        assert dark == 1.0 and white == 1.0


class TestDetect:
    def test_single_disk(self):
        data = paint_disk(scene(), 40, 30, 12, 0.05)
        report = detect_dark_patches(Raster(data))
        assert len(report.patches) == 1
        p = report.patches[0]
        assert p.centroid[0] == pytest.approx(40.0, abs=0.5)
        assert p.centroid[1] == pytest.approx(30.0, abs=0.5)
        assert p.area_px == pytest.approx(math.pi * 144, rel=0.05)
        assert p.mean_value == pytest.approx(0.05, abs=1e-9)
        assert report.excluded_count == 0

    def test_min_area_filters_specks(self):
        data = scene()
        data[10:13, 10:13] = 0.05  # 9 px, below the default 30
        report = detect_dark_patches(Raster(data))
        assert report.patches == ()
        assert report.excluded_count == 0

    def test_sorted_by_area_desc_with_ids(self):
        data = scene(200, 200)
        paint_disk(data, 160, 40, 8, 0.05)
        paint_disk(data, 40, 160, 16, 0.05)
        report = detect_dark_patches(Raster(data))
        assert [p.id for p in report.patches] == [1, 2]
        assert report.patches[0].area_px > report.patches[1].area_px
        assert report.patches[0].centroid[0] == pytest.approx(40.0, abs=0.5)

    def test_center_exclusion_counts(self):
        data = paint_disk(scene(200, 200), 100, 100, 15, 0.05)
        cfg = DetectorConfig(center_exclusion_fraction=0.25)
        report = detect_dark_patches(Raster(data), cfg)
        assert report.patches == ()
        assert report.excluded_count == 1

    def test_offcenter_patch_survives_exclusion(self):
        data = paint_disk(scene(200, 200), 30, 30, 15, 0.05)
        cfg = DetectorConfig(center_exclusion_fraction=0.25)
        report = detect_dark_patches(Raster(data), cfg)
        assert len(report.patches) == 1
        assert report.excluded_count == 0

    def test_white_speckle_is_clamped_away(self):
        data = paint_disk(scene(), 40, 30, 12, 0.05)
        base = detect_dark_patches(Raster(data.copy()))
        rng = np.random.default_rng(7)
        ys = rng.integers(0, 100, size=60)
        xs = rng.integers(0, 120, size=60)
        data[ys, xs] = 1.0
        speckled = detect_dark_patches(Raster(data))
        assert len(speckled.patches) == len(base.patches) == 1
        assert speckled.patches[0].area_px == pytest.approx(base.patches[0].area_px, rel=0.05)

    def test_diagonal_pixels_join(self):
        data = scene(40, 40)
        for k in range(8):
            data[10 + k, 10 + k] = 0.05
            data[10 + k, 11 + k] = 0.05
            data[11 + k, 10 + k] = 0.05
            data[11 + k, 11 + k] = 0.05
        cfg = DetectorConfig(min_patch_area=5)
        report = detect_dark_patches(Raster(data), cfg)
        assert len(report.patches) == 1

    def test_gray_input(self):
        data = np.full((60, 60, 1), 0.8)
        data[5:20, 5:20] = 0.05
        report = detect_dark_patches(Raster(data))
        assert len(report.patches) == 1
        assert report.patches[0].area_px == 225

    def test_depth_raises_dark_threshold(self):
        data = scene()
        data[10:30, 70:90] = 0.25  # not dark at the surface
        cfg = DetectorConfig(threshold_depth_gain=0.02)
        assert detect_dark_patches(Raster(data), cfg, vehicle_depth=0.0).patches == ()
        deep = detect_dark_patches(Raster(data), cfg, vehicle_depth=10.0)
        assert len(deep.patches) == 1

    def test_deterministic(self):
        data = paint_disk(scene(), 40, 30, 12, 0.05)
        a = detect_dark_patches(Raster(data))
        b = detect_dark_patches(Raster(data))
        assert a == b


@given(
    st.sampled_from([1, 3]).flatmap(
        lambda channels: hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(0, 6).map(lambda k: 2 * k + 1), st.just(channels)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
        )
    )
)
@settings(max_examples=80)
def test_value_channel_is_channel_max(data):
    assert _value_channel(data).tobytes() == data.max(axis=2).tobytes()


class TestPatchToWorld:
    CAM = CameraModel(90.0, 70.0, 128, 96)

    def test_center_patch_is_under_vehicle(self):
        report = DarkPatchReport((), 0, 0.2, 0.85)
        del report
        from posidonia_inspect.darkpatch import DarkPatch

        p = DarkPatch(1, ((self.CAM.width - 1) / 2.0, (self.CAM.height - 1) / 2.0), 50, 0.05)
        wx, wy = patch_to_world(p, self.CAM, 7.0, -2.0, 1.3, 5.0)
        assert wx == pytest.approx(7.0, abs=1e-9)
        assert wy == pytest.approx(-2.0, abs=1e-9)

    def test_top_center_is_ahead(self):
        from posidonia_inspect.darkpatch import DarkPatch

        p = DarkPatch(1, ((self.CAM.width - 1) / 2.0, 0.0), 50, 0.05)
        wx, wy = patch_to_world(p, self.CAM, 0.0, 0.0, 0.0, 5.0)
        assert wx > 0 and abs(wy) < 1e-9


class TestReportLines:
    def test_format(self):
        data = paint_disk(scene(), 40, 30, 12, 0.05)
        report = detect_dark_patches(Raster(data))
        lines = report_lines(report)
        assert len(lines) == 1
        parts = lines[0].split()
        assert parts[0] == "patch" and parts[1] == "1"
        assert parts[2] == "centroid" and parts[5] == "area"
        assert parts[7] == "mean_value"
        assert float(parts[3]) == pytest.approx(40.0, abs=0.5)

    def test_empty(self):
        assert report_lines(detect_dark_patches(Raster(scene()))) == []
