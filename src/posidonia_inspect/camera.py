"""Downward camera geometry over a flat seafloor.

The camera points straight down from a given altitude.  Image columns
grow toward the vehicle's right, rows grow backward, so the top edge of
the frame shows what lies ahead of the vehicle.  All pixel coordinates
are continuous with the pixel-center convention: integer coordinate
``(col, row)`` is the center of that pixel, the image spans
``[-0.5, width - 0.5]`` horizontally.

World frame: x east, y north, yaw measured counterclockwise from +x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._rules import integer, number, numbers

__all__ = [
    "CameraModel",
    "pixel_to_local",
    "local_to_world",
    "pixel_to_world",
    "pixel_grid_world",
]


@dataclass(frozen=True)
class CameraModel:
    """Field of view and sensor resolution of the downward camera."""

    hfov_deg: float = 90.0
    vfov_deg: float = 70.0
    width: int = 128
    height: int = 96

    def __post_init__(self) -> None:
        numbers(self, ("hfov_deg", "vfov_deg"), 0, 180, lo_open=True, hi_open=True)
        integer("width", self.width, 1)
        integer("height", self.height, 1)

    @property
    def tan_half_h(self) -> float:
        return math.tan(math.radians(self.hfov_deg) / 2.0)

    @property
    def tan_half_v(self) -> float:
        return math.tan(math.radians(self.vfov_deg) / 2.0)


def _centre_offsets(camera: CameraModel, col, row):
    # pixel centres as (forward, right) fractions of the footprint, in [-0.5, 0.5]
    return 0.5 - (row + 0.5) / camera.height, (col + 0.5) / camera.width - 0.5


def _to_local(camera: CameraModel, forward_u, right_u, alt: float):
    # footprint fractions to (forward, right) ground offsets
    return forward_u * 2.0 * alt * camera.tan_half_v, right_u * 2.0 * alt * camera.tan_half_h


def pixel_to_local(
    camera: CameraModel, col, row, altitude: float
):
    """Map continuous pixel coordinates to (forward, right) ground offsets.

    Accepts scalars or arrays; returns matching float arrays or floats.
    """
    number("altitude", altitude, 0, lo_open=True)
    offsets = _centre_offsets(camera, np.asarray(col, dtype=float), np.asarray(row, dtype=float))
    forward, right = _to_local(camera, *offsets, altitude)
    if np.isscalar(col) and np.isscalar(row):
        return float(forward), float(right)
    return forward, right


def local_to_world(x: float, y: float, yaw: float, forward, right):
    """Rotate (forward, right) body offsets into world coordinates."""
    c, s = math.cos(yaw), math.sin(yaw)
    # (x + forward*c) + right*s, summed in place: IEEE addition commutes, so
    # forward*c + x has the same bits, and arrays need fewer temporaries
    wx = forward * c
    wx += x
    wx += right * s
    wy = forward * s
    wy += y
    wy -= right * c
    return wx, wy


def pixel_to_world(
    camera: CameraModel,
    col,
    row,
    x: float,
    y: float,
    yaw: float,
    altitude: float,
):
    forward, right = pixel_to_local(camera, col, row, altitude)
    return local_to_world(x, y, yaw, forward, right)


@functools.lru_cache(maxsize=8)
def _unit_grid(camera: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    # altitude-independent pixel-centre offsets of every pixel
    cols, rows = np.meshgrid(
        np.arange(camera.width, dtype=float), np.arange(camera.height, dtype=float)
    )
    forward_u, right_u = _centre_offsets(camera, cols, rows)
    right_u.setflags(write=False)
    forward_u.setflags(write=False)
    return forward_u, right_u


@functools.lru_cache(maxsize=2)
def _local_grid(camera: CameraModel, altitude: float) -> tuple[np.ndarray, np.ndarray]:
    # (forward, right) ground offsets of every pixel at one altitude; a
    # mission holds two altitudes (survey and inspect), so two are kept
    forward, right = _to_local(camera, *_unit_grid(camera), altitude)
    forward.setflags(write=False)
    right.setflags(write=False)
    return forward, right


def pixel_grid_world(
    camera: CameraModel, x: float, y: float, yaw: float, altitude: float
) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates of every pixel center as two (H, W) arrays."""
    number("x", x)
    number("y", y)
    number("yaw", yaw)
    number("altitude", altitude, 0, lo_open=True)
    return local_to_world(x, y, yaw, *_local_grid(camera, altitude))
