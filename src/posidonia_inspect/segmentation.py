"""Seafloor class masks, an HSV box-threshold segmenter, and IoU metrics.

Class codes are fixed across the project: 0 sand, 1 posidonia meadow,
2 debris, 3 rocks.  Masks travel as uint8 grids with the same row/col
layout as the images they label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .geometry import Polygon, label_components, trace_component
from .imaging import Raster, _read_binary_pnm, to_hsv

__all__ = [
    "SAND",
    "POSIDONIA",
    "ROCKS",
    "DEBRIS",
    "NUM_CLASSES",
    "LabelMask",
    "write_mask",
    "read_mask",
    "SegmenterBackend",
    "BaselineSegmenter",
    "majority_smooth",
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


def write_mask(mask: LabelMask, path) -> None:
    """Store a mask as binary PGM with maxval 3 so codes stay exact."""
    header = f"P5\n# seafloor class mask\n{mask.width} {mask.height}\n{NUM_CLASSES - 1}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(mask.data.tobytes())


def read_mask(path) -> LabelMask:
    """Read a PGM mask as write_mask stores it; every code must be a class code."""
    magic, _, arr = _read_binary_pnm(path)
    if magic != b"P5":
        raise ValueError(f"mask files are PGM (P5), got magic {magic!r} in {path}")
    if arr.max(initial=0) >= NUM_CLASSES:
        raise ValueError(f"mask {path} holds codes above {NUM_CLASSES - 1}")
    return LabelMask(arr[:, :, 0])


class SegmenterBackend(Protocol):
    """Anything that turns a camera frame into a class mask.

    The mission loop passes each pose-stamped ``world.Frame`` from render
    and nothing else, so a backend keeps no per-frame state and one
    instance may serve many missions.
    """

    def segment(self, frame: Raster) -> LabelMask: ...


# ---------------------------------------------------------------------------
# Baseline HSV thresholding


# Closed HSV boxes (hue_lo, hue_hi, sat_lo, sat_hi, val_lo, val_hi) tuned
# for the attenuated default palette at a few meters altitude, in priority
# order: a pixel takes the class of the first box it falls in, and
# everything unmatched stays sand.
_BOXES = (
    (POSIDONIA, (70.0, 170.0, 0.3, 1.0, 0.02, 0.35)),
    (ROCKS, (0.0, 360.0, 0.0, 0.25, 0.02, 0.30)),
    (DEBRIS, (10.0, 50.0, 0.15, 0.6, 0.15, 0.55)),
)

# (lo, hi) of each to_hsv plane: hue in degrees, saturation and value
_HSV_RANGES = ((0.0, 360.0), (0.0, 1.0), (0.0, 1.0))


def _box_tests(box) -> tuple:
    """(plane, comparison, bound) for each bound of a box that some pixel can fail."""
    tests = []
    for plane, (lo, hi, (least, most)) in enumerate(zip(box[::2], box[1::2], _HSV_RANGES)):
        if lo > least:
            tests.append((plane, np.greater_equal, lo))
        if hi < most:
            tests.append((plane, np.less_equal, hi))
    return tuple(tests)


# the last write wins, so the first box in priority order is written last
_BOX_TESTS = tuple((code, _box_tests(box)) for code, box in reversed(_BOXES))


def majority_smooth(labels: np.ndarray) -> np.ndarray:
    """3x3 majority vote; off-image neighbors do not vote, ties pick the lowest code."""
    rows, cols = labels.shape
    # the border holds a code no class has, so off-image cells vote for nothing
    padded = np.full((rows + 2, cols + 2), NUM_CLASSES, dtype=labels.dtype)
    padded[1:-1, 1:-1] = labels

    def votes(code: int) -> np.ndarray:
        hit = (padded == code).view(np.uint8)
        across = hit[:, :-2] + hit[:, 1:-1] + hit[:, 2:]
        return across[:-2] + across[1:-1] + across[2:]

    best = np.zeros((rows, cols), dtype=np.uint8)
    best_count = votes(0)
    for code in range(1, NUM_CLASSES):
        count = votes(code)
        # only a strictly larger count wins, so a tie keeps the lower code;
        # codes rise, so the max writes the winner without a masked store
        np.maximum(best, (count > best_count).view(np.uint8) * code, out=best)
        np.maximum(best_count, count, out=best_count)
    return best


class BaselineSegmenter:
    """Per-pixel HSV box thresholds with a majority-vote cleanup pass."""

    def segment(self, img: Raster) -> LabelMask:
        if img.channels != 3:
            raise ValueError("baseline segmentation needs a color image")
        hsv = to_hsv(img)
        out = np.zeros((img.height, img.width), dtype=np.uint8)
        for code, tests in _BOX_TESTS:
            hit = np.ones(out.shape, dtype=bool)
            for plane, compare, bound in tests:
                hit &= compare(hsv[plane], bound)
            np.copyto(out, code, where=hit)
        return LabelMask(majority_smooth(out))


# ---------------------------------------------------------------------------
# Frame summaries and boundary extraction


def summarize(mask: LabelMask) -> np.ndarray:
    """Share of the mask's pixels in each class, indexed by class code."""
    return np.bincount(mask.data.ravel(), minlength=NUM_CLASSES) / mask.data.size


def meadow_boundary(mask: LabelMask) -> Polygon | None:
    """Outer contour of the largest posidonia region (lowest label on a tie), or None."""
    labels, count = label_components(mask.data == POSIDONIA)
    if count == 0:
        return None
    # a lone component needs no size count; tracking frames mostly hold one
    lab = 1 if count == 1 else 1 + int(np.argmax(np.bincount(labels.ravel())[1:]))
    return trace_component(labels, lab)


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
