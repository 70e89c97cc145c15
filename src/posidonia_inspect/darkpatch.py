"""Detection of dark seafloor patches in downward camera frames.

The detector suppresses bright speckle by clamping over-threshold pixels
to their 3x3 neighborhood median, thresholds the HSV value channel, and
keeps connected dark regions above a minimum size.  Patches whose
centroid falls in a configurable center exclusion box are reported only
as a count so the caller can avoid re-announcing what it is flying over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._rules import integer, number, numbers
from .geometry import label_components
from .imaging import Raster, value_channel

__all__ = [
    "DetectorConfig",
    "DarkPatch",
    "DarkPatchReport",
    "detect_dark_patches",
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
        numbers(self, ("white_threshold_base", "dark_threshold_base"), 0, 1, lo_open=True)
        if self.dark_threshold_base >= self.white_threshold_base:
            raise ValueError("dark_threshold_base must be below white_threshold_base")
        number("threshold_depth_gain", self.threshold_depth_gain)
        integer("min_patch_area", self.min_patch_area, 1)
        number("center_exclusion_fraction", self.center_exclusion_fraction, 0, 0.5)

    def thresholds(self, vehicle_depth: float) -> tuple[float, float]:
        """(dark, white) thresholds adjusted for depth."""
        number("vehicle_depth", vehicle_depth)
        shift = self.threshold_depth_gain * vehicle_depth
        dark = min(1.0, max(0.0, self.dark_threshold_base + shift))
        white = min(1.0, max(0.0, self.white_threshold_base + shift))
        return dark, white


@dataclass(frozen=True)
class DarkPatch:
    """One connected dark region; centroid is (col, row) in pixels."""

    centroid: tuple[float, float]
    area_px: int
    mean_value: float


@dataclass(frozen=True)
class DarkPatchReport:
    patches: tuple[DarkPatch, ...]
    excluded_count: int


def detect_dark_patches(
    img: Raster,
    config: DetectorConfig | None = None,
    vehicle_depth: float = 0.0,
) -> DarkPatchReport:
    cfg = config if config is not None else DetectorConfig()
    dark_thr, white_thr = cfg.thresholds(vehicle_depth)

    data = img.data
    value = value_channel(data)
    bright = value > white_thr
    if bright.any():
        clamped = np.empty_like(data)
        for c in range(data.shape[2]):
            med = ndimage.median_filter(data[:, :, c], size=3)
            clamped[:, :, c] = np.where(bright, med, data[:, :, c])
        data = clamped
        value = value_channel(data)

    dark = value < dark_thr
    if not dark.any():  # most survey frames see only sand
        return DarkPatchReport((), 0)
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
    patches = tuple(DarkPatch((x, y), area, mv) for x, y, area, mv in kept)
    return DarkPatchReport(patches, excluded)


def report_lines(report: DarkPatchReport) -> list[str]:
    return [
        "patch {} centroid {:.2f} {:.2f} area {} mean_value {:.4f}".format(
            i, p.centroid[0], p.centroid[1], p.area_px, p.mean_value
        )
        for i, p in enumerate(report.patches, 1)
    ]
