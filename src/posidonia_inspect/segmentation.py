"""Seafloor class masks, an HSV box-threshold segmenter, and IoU metrics.

Class codes are fixed across the project: 0 sand, 1 posidonia meadow,
2 debris, 3 rocks.  Masks travel as uint8 grids with the same row/col
layout as the images they label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np
from scipy import ndimage

from .geometry import Polygon, label_components, trace_component
from .imaging import Raster, _read_pnm_tokens, to_hsv

__all__ = [
    "SAND",
    "POSIDONIA",
    "ROCKS",
    "DEBRIS",
    "NUM_CLASSES",
    "CLASS_NAMES",
    "LabelMask",
    "write_mask",
    "read_mask",
    "SegmenterBackend",
    "HsvRange",
    "BaselineConfig",
    "BaselineSegmenter",
    "majority_smooth",
    "SegmentationSummary",
    "summarize",
    "meadow_boundary",
    "iou",
    "mean_iou",
]

SAND = 0
POSIDONIA = 1
DEBRIS = 2
ROCKS = 3
NUM_CLASSES = 4
CLASS_NAMES = ("sand", "posidonia", "debris", "rocks")


@dataclass(frozen=True)
class LabelMask:
    """Immutable (H, W) uint8 grid of class codes."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("label mask must be a non-empty 2-d array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("label mask must hold integers")
        if arr.min() < 0 or arr.max() >= NUM_CLASSES:
            raise ValueError(f"class codes must lie in [0, {NUM_CLASSES - 1}]")
        arr = arr.astype(np.uint8, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def fraction(self, class_code: int) -> float:
        return float(np.count_nonzero(self.data == class_code)) / self.data.size


def write_mask(mask: LabelMask, path) -> None:
    """Store a mask as binary PGM with maxval 3 so codes stay exact."""
    header = f"P5\n# seafloor class mask\n{mask.width} {mask.height}\n{NUM_CLASSES - 1}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(mask.data.tobytes())


def read_mask(path) -> LabelMask:
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise ValueError(f"mask files are PGM (P5), got magic {magic!r} in {path}")
        width, height, maxval = _read_pnm_tokens(fh, 3)
        if maxval >= 256:
            raise ValueError(f"unsupported maxval {maxval} in {path}")
        raw = fh.read(width * height)
        if len(raw) != width * height:
            raise ValueError(f"truncated mask payload in {path}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    if arr.max(initial=0) >= NUM_CLASSES:
        raise ValueError(f"mask {path} holds codes above {NUM_CLASSES - 1}")
    return LabelMask(arr)


@runtime_checkable
class SegmenterBackend(Protocol):
    """Anything that turns a camera frame into a class mask.

    The mission loop passes each pose-stamped ``world.Frame`` from render
    and nothing else, so a backend keeps no per-frame state and one
    instance may serve many missions.
    """

    def segment(self, frame: Raster) -> LabelMask: ...


# ---------------------------------------------------------------------------
# Baseline HSV thresholding


@dataclass(frozen=True)
class HsvRange:
    """Axis-aligned box in HSV space; hue wraps when lo > hi."""

    hue_lo: float = 0.0
    hue_hi: float = 360.0
    sat_lo: float = 0.0
    sat_hi: float = 1.0
    val_lo: float = 0.0
    val_hi: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hue_lo", "hue_hi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 360.0:
                raise ValueError(f"{name} must lie in [0, 360]")
        for lo, hi in (("sat_lo", "sat_hi"), ("val_lo", "val_hi")):
            a, b = getattr(self, lo), getattr(self, hi)
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError(f"need 0 <= {lo} <= {hi} <= 1")

    def select(self, hue: np.ndarray, sat: np.ndarray, val: np.ndarray) -> np.ndarray:
        if self.hue_lo <= self.hue_hi:
            ok = (hue >= self.hue_lo) & (hue <= self.hue_hi)
        else:
            ok = (hue >= self.hue_lo) | (hue <= self.hue_hi)
        ok &= (sat >= self.sat_lo) & (sat <= self.sat_hi)
        ok &= (val >= self.val_lo) & (val <= self.val_hi)
        return ok


def _default_ranges() -> dict[int, HsvRange]:
    # tuned for the attenuated default palette at a few meters altitude
    return {
        POSIDONIA: HsvRange(70.0, 170.0, 0.3, 1.0, 0.02, 0.35),
        ROCKS: HsvRange(0.0, 360.0, 0.0, 0.25, 0.02, 0.30),
        DEBRIS: HsvRange(10.0, 50.0, 0.15, 0.6, 0.15, 0.55),
    }


@dataclass(frozen=True)
class BaselineConfig:
    posidonia: HsvRange = field(default_factory=lambda: _default_ranges()[POSIDONIA])
    rocks: HsvRange = field(default_factory=lambda: _default_ranges()[ROCKS])
    debris: HsvRange = field(default_factory=lambda: _default_ranges()[DEBRIS])
    # first match wins; everything unmatched stays sand
    priority: tuple[int, int, int] = (POSIDONIA, ROCKS, DEBRIS)
    smooth: bool = True

    def __post_init__(self) -> None:
        if sorted(self.priority) != sorted((POSIDONIA, ROCKS, DEBRIS)):
            raise ValueError("priority must be a permutation of the non-sand codes")

    def range_for(self, class_code: int) -> HsvRange:
        return {POSIDONIA: self.posidonia, ROCKS: self.rocks, DEBRIS: self.debris}[class_code]


def majority_smooth(labels: np.ndarray, num_classes: int = NUM_CLASSES) -> np.ndarray:
    """3x3 majority vote; off-image neighbors do not vote, ties pick the lowest code."""
    kernel = np.ones((3, 3))
    counts = np.stack(
        [
            ndimage.convolve((labels == c).astype(float), kernel, mode="constant", cval=0.0)
            for c in range(num_classes)
        ]
    )
    return np.argmax(counts, axis=0).astype(np.uint8)


class BaselineSegmenter:
    """Per-pixel HSV box thresholds with a majority-vote cleanup pass."""

    def __init__(self, config: BaselineConfig | None = None):
        self.config = config if config is not None else BaselineConfig()

    def segment(self, img: Raster) -> LabelMask:
        if img.channels != 3:
            raise ValueError("baseline segmentation needs a color image")
        hsv = to_hsv(img)
        out = np.zeros((img.height, img.width), dtype=np.uint8)
        free = np.ones_like(out, dtype=bool)
        for code in self.config.priority:
            hit = self.config.range_for(code).select(hsv.hue, hsv.saturation, hsv.value) & free
            out[hit] = code
            free &= ~hit
        if self.config.smooth:
            out = majority_smooth(out)
        return LabelMask(out)


# ---------------------------------------------------------------------------
# Frame summaries and boundary extraction


@dataclass(frozen=True)
class SegmentationSummary:
    fractions: tuple[float, float, float, float]
    dominant_class: int
    has_posidonia: bool
    has_rocks: bool
    has_debris: bool


def summarize(mask: LabelMask, min_fraction: float = 0.05) -> SegmentationSummary:
    """Class-share snapshot of one mask; presence means share >= min_fraction."""
    if not 0.0 <= min_fraction <= 1.0:
        raise ValueError("min_fraction must lie in [0, 1]")
    counts = np.bincount(mask.data.ravel(), minlength=NUM_CLASSES)
    fractions = counts / mask.data.size
    return SegmentationSummary(
        fractions=tuple(float(f) for f in fractions),
        dominant_class=int(np.argmax(counts)),
        has_posidonia=bool(fractions[POSIDONIA] >= min_fraction),
        has_rocks=bool(fractions[ROCKS] >= min_fraction),
        has_debris=bool(fractions[DEBRIS] >= min_fraction),
    )


def meadow_boundary(mask: LabelMask) -> list[Polygon]:
    """Outer contours of posidonia regions, largest component first."""
    binary = mask.data == POSIDONIA
    labels, count = label_components(binary)
    if count == 0:
        return []
    sizes = np.bincount(labels.ravel())
    order = sorted(range(1, count + 1), key=lambda lab: (-int(sizes[lab]), lab))
    return [trace_component(labels, lab) for lab in order]


# ---------------------------------------------------------------------------
# Metrics


def _mask_array(mask) -> np.ndarray:
    arr = np.asarray(getattr(mask, "data", mask))
    if arr.ndim != 2:
        raise ValueError("masks must be 2-d")
    return arr


def iou(a, b, class_code: int) -> float:
    """Intersection over union for one class; 1.0 when both sides lack it."""
    ga, gb = _mask_array(a), _mask_array(b)
    if ga.shape != gb.shape:
        raise ValueError(f"shape mismatch {ga.shape} vs {gb.shape}")
    ma, mb = ga == class_code, gb == class_code
    union = np.count_nonzero(ma | mb)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(ma & mb)) / union


def mean_iou(pairs, class_codes=None) -> float:
    """Average IoU over every (pair, class) where the class appears at all.

    Pairs with no qualifying class contribute nothing; an empty pool
    scores a vacuous 1.0.
    """
    codes = tuple(range(NUM_CLASSES)) if class_codes is None else tuple(class_codes)
    vals = []
    for a, b in pairs:
        ga, gb = _mask_array(a), _mask_array(b)
        for code in codes:
            if (ga == code).any() or (gb == code).any():
                vals.append(iou(ga, gb, code))
    return sum(vals) / len(vals) if vals else 1.0
