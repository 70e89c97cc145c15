"""Detection of dark seafloor patches in downward camera frames.

The detector suppresses bright speckle by clamping over-threshold pixels
to their 3x3 neighborhood median, thresholds the HSV value channel, and
keeps connected dark regions above a minimum size.  Patches whose
centroid falls in a configurable center exclusion box are reported only
as a count so the caller can avoid re-announcing what it is flying over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .camera import CameraModel, pixel_to_world
from .geometry import label_components
from .imaging import Raster

__all__ = [
    "DetectorConfig",
    "DarkPatch",
    "DarkPatchReport",
    "detect_dark_patches",
    "patch_to_world",
    "report_lines",
]


@dataclass(frozen=True)
class DetectorConfig:
    white_threshold_base: float = 0.85
    dark_threshold_base: float = 0.2
    # both thresholds shift by gain * depth, then clamp to [0, 1]
    threshold_depth_gain: float = 0.0
    min_patch_area: int = 30
    center_exclusion_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.dark_threshold_base < self.white_threshold_base <= 1.0:
            raise ValueError("need 0 < dark_threshold_base < white_threshold_base <= 1")
        if not math.isfinite(self.threshold_depth_gain):
            raise ValueError("threshold_depth_gain must be finite")
        if not isinstance(self.min_patch_area, int) or self.min_patch_area < 1:
            raise ValueError("min_patch_area must be a positive integer")
        if not 0.0 <= self.center_exclusion_fraction <= 0.5:
            raise ValueError("center_exclusion_fraction must lie in [0, 0.5]")

    def thresholds(self, vehicle_depth: float) -> tuple[float, float]:
        """(dark, white) thresholds adjusted for depth."""
        shift = self.threshold_depth_gain * float(vehicle_depth)
        dark = min(1.0, max(0.0, self.dark_threshold_base + shift))
        white = min(1.0, max(0.0, self.white_threshold_base + shift))
        return dark, white


@dataclass(frozen=True)
class DarkPatch:
    """One connected dark region; centroid is (col, row) in pixels."""

    id: int
    centroid: tuple[float, float]
    area_px: int
    mean_value: float


@dataclass(frozen=True)
class DarkPatchReport:
    patches: tuple[DarkPatch, ...]
    excluded_count: int
    dark_threshold: float
    white_threshold: float


def _value_channel(data: np.ndarray) -> np.ndarray:
    if data.shape[2] == 1:
        return data[:, :, 0]
    # chained over the planes: an axis-2 reduction loops over only 3 values
    return np.maximum(np.maximum(data[:, :, 0], data[:, :, 1]), data[:, :, 2])


def detect_dark_patches(
    img: Raster,
    config: DetectorConfig | None = None,
    vehicle_depth: float = 0.0,
) -> DarkPatchReport:
    cfg = config if config is not None else DetectorConfig()
    dark_thr, white_thr = cfg.thresholds(vehicle_depth)

    data = img.data
    value = _value_channel(data)
    bright = value > white_thr
    if bright.any():
        clamped = np.empty_like(data)
        for c in range(data.shape[2]):
            med = ndimage.median_filter(data[:, :, c], size=3)
            clamped[:, :, c] = np.where(bright, med, data[:, :, c])
        data = clamped
        value = _value_channel(data)

    dark = value < dark_thr
    labels, count = label_components(dark)

    half_w = cfg.center_exclusion_fraction * img.width
    half_h = cfg.center_exclusion_fraction * img.height
    cx, cy = (img.width - 1) / 2.0, (img.height - 1) / 2.0

    kept: list[tuple[float, float, int, float]] = []
    excluded = 0
    for lab in range(1, count + 1):
        rows, cols = np.nonzero(labels == lab)
        area = int(rows.size)
        if area < cfg.min_patch_area:
            continue
        centroid_x = float(cols.mean())
        centroid_y = float(rows.mean())
        if abs(centroid_x - cx) <= half_w and abs(centroid_y - cy) <= half_h:
            excluded += 1
            continue
        kept.append((centroid_x, centroid_y, area, float(value[rows, cols].mean())))

    kept.sort(key=lambda t: (-t[2], t[1], t[0]))
    patches = tuple(
        DarkPatch(id=i + 1, centroid=(x, y), area_px=area, mean_value=mv)
        for i, (x, y, area, mv) in enumerate(kept)
    )
    return DarkPatchReport(
        patches=patches,
        excluded_count=excluded,
        dark_threshold=dark_thr,
        white_threshold=white_thr,
    )


def patch_to_world(
    patch: DarkPatch,
    camera: CameraModel,
    x: float,
    y: float,
    yaw: float,
    altitude: float,
) -> tuple[float, float]:
    """Seafloor position under a patch centroid for the given viewpoint."""
    return pixel_to_world(camera, patch.centroid[0], patch.centroid[1], x, y, yaw, altitude)


def report_lines(report: DarkPatchReport) -> list[str]:
    return [
        "patch {} centroid {:.2f} {:.2f} area {} mean_value {:.4f}".format(
            p.id, p.centroid[0], p.centroid[1], p.area_px, p.mean_value
        )
        for p in report.patches
    ]
