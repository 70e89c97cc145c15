"""Annotation files, mask rasterization, dataset splits, and augmentation.

An annotation is one JSON object per image::

    {"image": "dive01_0042", "width": 640, "height": 480,
     "regions": [{"class": 1, "points": [[x, y], ...]}, ...]}

``image`` is a plain file name, since its mask is written as
``<image>.pgm``.  Region points are polygon vertices in pixel
coordinates.  Rasterization fills with even-odd parity, treats pixels
whose center lies on an edge as inside, and paints regions in listed
order so later entries win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rules import integer, number, numbers
from .imaging import Raster, equalize_histogram, gamma_correct
from .segmentation import NUM_CLASSES, LabelMask

__all__ = [
    "AnnotatedRegion",
    "ImageAnnotation",
    "parse_annotation",
    "rasterize_annotation",
    "SplitSpec",
    "split",
    "split_sizes",
    "augment_image",
    "augment_mask",
    "enhance_for_rocks",
]

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class AnnotatedRegion:
    class_code: int
    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ValueError("region needs at least 3 [x, y] points")
        if not np.isfinite(pts).all():
            raise ValueError("region points must be finite")
        integer("class_code", self.class_code, 0, NUM_CLASSES)
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class ImageAnnotation:
    image: str
    width: int
    height: int
    regions: tuple[AnnotatedRegion, ...]

    def __post_init__(self) -> None:
        name = self.image
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"annotation 'image' must be a plain file name, got {name!r}")
        integer(f"annotation {name}: width", self.width, 1)
        integer(f"annotation {name}: height", self.height, 1)
        for i, region in enumerate(self.regions):
            pts = region.points
            ok_x = (pts[:, 0] >= 0.0) & (pts[:, 0] <= self.width)
            ok_y = (pts[:, 1] >= 0.0) & (pts[:, 1] <= self.height)
            if not (ok_x & ok_y).all():
                raise ValueError(
                    f"annotation {self.image}: region {i} has vertices outside "
                    f"the {self.width}x{self.height} frame"
                )


def parse_annotation(obj) -> ImageAnnotation:
    if not isinstance(obj, dict):
        raise ValueError("annotation must be a JSON object")
    try:
        image = obj["image"]
        width = obj["width"]
        height = obj["height"]
        raw_regions = obj["regions"]
    except KeyError as exc:
        raise ValueError(f"annotation is missing key {exc.args[0]!r}") from None
    if not isinstance(raw_regions, list):
        raise ValueError(f"annotation {image}: 'regions' must be a list")
    regions = []
    for i, entry in enumerate(raw_regions):
        try:
            regions.append(
                AnnotatedRegion(class_code=entry["class"], points=np.asarray(entry["points"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"annotation {image}: region {i}: {exc}") from None
    return ImageAnnotation(image=image, width=width, height=height, regions=tuple(regions))


def _region_mask(pts: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd interior plus edge pixels for one polygon, as a bool grid."""
    xx, yy = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    inside = np.zeros((height, width), dtype=bool)
    boundary = np.zeros_like(inside)
    scale = max(1.0, float(np.abs(pts).max()))
    n = pts.shape[0]
    for k in range(n):
        x1, y1 = pts[k]
        x2, y2 = pts[(k + 1) % n]
        # only rows between the edge's end heights cross it, so y2 != y1 there
        crosses = (y1 > yy) != (y2 > yy)
        if crosses.any():
            xi = x1 + (yy[crosses] - y1) * (x2 - x1) / (y2 - y1)
            inside[crosses] ^= xx[crosses] < xi
        # distance from pixel centers to the segment
        ex, ey = x2 - x1, y2 - y1
        len2 = ex * ex + ey * ey
        if len2 == 0.0:
            d2 = (xx - x1) ** 2 + (yy - y1) ** 2
        else:
            t = np.clip(((xx - x1) * ex + (yy - y1) * ey) / len2, 0.0, 1.0)
            d2 = (xx - (x1 + t * ex)) ** 2 + (yy - (y1 + t * ey)) ** 2
        boundary |= d2 <= (_EDGE_TOL * scale) ** 2
    return inside | boundary


def rasterize_annotation(ann: ImageAnnotation) -> LabelMask:
    out = np.zeros((ann.height, ann.width), dtype=np.uint8)
    for region in ann.regions:
        out[_region_mask(region.points, ann.width, ann.height)] = region.class_code
    return LabelMask(out)


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        numbers(self, ("train_fraction", "val_fraction"), 0, 1)
        if self.train_fraction + self.val_fraction > 1.0:
            raise ValueError("train and val fractions must not exceed 1 combined")
        integer("seed", self.seed, 0)


def split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    """Deterministic (train, val, test) sizes: train rounds up, val down."""
    if n < 0:
        raise ValueError("n must be non-negative")
    train = math.ceil(spec.train_fraction * n)
    val = min(math.floor(spec.val_fraction * n), n - train)
    return train, val, n - train - val


def split(items: Sequence, spec: SplitSpec) -> tuple[list, list, list]:
    """Shuffle items with the spec seed and cut into train/val/test."""
    seq = list(items)
    order = np.random.default_rng(spec.seed).permutation(len(seq))
    shuffled = [seq[i] for i in order]
    n_train, n_val, _ = split_sizes(len(seq), spec)
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


# ---------------------------------------------------------------------------
# Augmentation


def _resize(arr: np.ndarray, out_h: int, out_w: int, nearest: bool) -> np.ndarray:
    in_h, in_w = arr.shape[:2]
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    if nearest:
        cx = np.clip(np.rint(xs).astype(int), 0, in_w - 1)
        cy = np.clip(np.rint(ys).astype(int), 0, in_h - 1)
        return arr[np.ix_(cy, cx)]
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    if arr.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    tl = arr[np.ix_(y0, x0)]
    tr = arr[np.ix_(y0, x1)]
    bl = arr[np.ix_(y1, x0)]
    br = arr[np.ix_(y1, x1)]
    top = tl * (1.0 - fx) + tr * fx
    bot = bl * (1.0 - fx) + br * fx
    return top * (1.0 - fy) + bot * fy


def _apply_ops(arr: np.ndarray, ops, nearest: bool) -> np.ndarray:
    out = arr
    for op in ops:
        if not isinstance(op, tuple) or not op:
            raise ValueError(f"augmentation ops are non-empty tuples, got {op!r}")
        name, *args = op
        if name == "rotate90":
            if len(args) != 1:
                raise ValueError("rotate90 takes one integer quarter-turn count")
            integer("rotate90 quarter-turn count", args[0])
            out = np.rot90(out, args[0])
        elif name == "flip_h":
            if args:
                raise ValueError("flip_h takes no arguments")
            out = out[:, ::-1]
        elif name == "flip_v":
            if args:
                raise ValueError("flip_v takes no arguments")
            out = out[::-1, :]
        elif name == "zoom_crop":
            if len(args) != 1:
                raise ValueError("zoom_crop takes one fraction in (0, 1]")
            number("zoom_crop fraction", args[0], 0, 1, lo_open=True)
            h, w = out.shape[:2]
            ch = max(1, round(h * args[0]))
            cw = max(1, round(w * args[0]))
            r0 = (h - ch) // 2
            c0 = (w - cw) // 2
            out = _resize(out[r0 : r0 + ch, c0 : c0 + cw], h, w, nearest)
        else:
            raise ValueError(f"unknown augmentation op {name!r}")
    return np.ascontiguousarray(out)


def augment_image(img: Raster, ops) -> Raster:
    """Apply augmentation ops with bilinear resampling."""
    return Raster(np.clip(_apply_ops(img.data, ops, nearest=False), 0.0, 1.0))


def augment_mask(mask: LabelMask, ops) -> LabelMask:
    """Apply the same ops with nearest-neighbor resampling so codes stay exact."""
    return LabelMask(_apply_ops(mask.data, ops, nearest=True))


def enhance_for_rocks(img: Raster, gamma: float) -> Raster:
    """Contrast stretch then gamma: lifts rock texture out of dim frames."""
    return gamma_correct(equalize_histogram(img), gamma)
