"""Planar vehicle kinematics and guidance laws.

The vehicle is a simple underactuated body: surge along its heading,
heave in depth, yaw about the vertical.  Depth ``z`` grows downward
from the surface.  Commands come in as :class:`GuidanceRef` with either
an absolute target yaw (waypoint legs) or a raw yaw rate (boundary
tracking); the step integrator applies first-order responses and hard
actuator limits, so closed-loop behavior is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .geometry import Polygon

__all__ = [
    "VehicleState",
    "GuidanceRef",
    "VehicleConfig",
    "TrackingConfig",
    "wrap_angle",
    "step",
    "waypoint_guidance",
    "interior_vertices",
    "boundary_guidance",
]


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    return -((-angle + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True)
class VehicleState:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    u: float = 0.0
    w: float = 0.0
    r: float = 0.0
    time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "yaw", "u", "w", "r", "time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class GuidanceRef:
    """One of target_yaw / target_yaw_rate must be set, never both."""

    target_depth: float
    target_surge: float
    target_yaw: float | None = None
    target_yaw_rate: float | None = None

    def __post_init__(self) -> None:
        if (self.target_yaw is None) == (self.target_yaw_rate is None):
            raise ValueError("set exactly one of target_yaw or target_yaw_rate")
        for name in ("target_depth", "target_surge", "target_yaw", "target_yaw_rate"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.target_depth < 0.0:
            raise ValueError("target_depth must be non-negative")


@dataclass(frozen=True)
class VehicleConfig:
    max_surge: float = 1.0
    max_heave: float = 0.35
    max_yaw_rate: float = 0.6
    surge_accel: float = 0.5
    k_yaw: float = 1.2
    k_depth: float = 0.55
    cruise_speed: float = 0.6
    arrival_radius: float = 3.0
    arrival_depth_tol: float = 0.35
    seabed_depth: float = 15.0

    def __post_init__(self) -> None:
        for name in (
            "max_surge",
            "max_heave",
            "max_yaw_rate",
            "surge_accel",
            "k_yaw",
            "k_depth",
            "cruise_speed",
            "arrival_radius",
            "arrival_depth_tol",
            "seabed_depth",
        ):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive number")
        if self.cruise_speed > self.max_surge:
            raise ValueError("cruise_speed cannot exceed max_surge")


def step(state: VehicleState, ref: GuidanceRef, config: VehicleConfig, dt: float) -> VehicleState:
    """Advance one control tick: limited velocity updates, then Euler."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive")

    surge_cmd = min(max(ref.target_surge, 0.0), config.max_surge)
    du = surge_cmd - state.u
    max_du = config.surge_accel * dt
    u = state.u + min(max(du, -max_du), max_du)

    if ref.target_yaw is not None:
        rate_cmd = config.k_yaw * wrap_angle(ref.target_yaw - state.yaw)
    else:
        rate_cmd = ref.target_yaw_rate
    r = min(max(rate_cmd, -config.max_yaw_rate), config.max_yaw_rate)

    heave_cmd = config.k_depth * (ref.target_depth - state.z)
    w = min(max(heave_cmd, -config.max_heave), config.max_heave)

    yaw = wrap_angle(state.yaw + r * dt)
    x = state.x + u * math.cos(yaw) * dt
    y = state.y + u * math.sin(yaw) * dt
    z = min(max(state.z + w * dt, 0.0), config.seabed_depth)
    return VehicleState(x=x, y=y, z=z, yaw=yaw, u=u, w=w, r=r, time=state.time + dt)


def waypoint_guidance(
    state: VehicleState,
    waypoint: tuple[float, float],
    target_depth: float,
    config: VehicleConfig,
) -> tuple[GuidanceRef, bool]:
    """Point-and-go reference toward a waypoint plus an arrival flag."""
    dx = waypoint[0] - state.x
    dy = waypoint[1] - state.y
    dist = math.hypot(dx, dy)
    arrived = dist <= config.arrival_radius and abs(state.z - target_depth) <= config.arrival_depth_tol
    # hold the last useful bearing when directly on top of the waypoint
    yaw = math.atan2(dy, dx) if dist > 1e-9 else state.yaw
    ref = GuidanceRef(
        target_depth=target_depth,
        target_surge=config.cruise_speed,
        target_yaw=yaw,
    )
    return ref, arrived


@dataclass(frozen=True)
class TrackingConfig:
    k_tangent: float = 1.5
    k_offset: float = 2.2
    band_fraction: float = 0.34
    border_margin: float = 1.0
    track_speed: float = 0.4
    meadow_side: str = "left"
    min_band_points: int = 2

    def __post_init__(self) -> None:
        for name in ("k_tangent", "k_offset", "track_speed"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.band_fraction <= 0.5:
            raise ValueError("band_fraction must lie in (0, 0.5]")
        if self.border_margin < 0.0:
            raise ValueError("border_margin must be non-negative")
        if self.meadow_side not in ("left", "right"):
            raise ValueError("meadow_side must be 'left' or 'right'")
        if self.min_band_points < 2:
            raise ValueError("min_band_points must be at least 2")


def interior_vertices(boundary: Polygon, camera: CameraModel, margin: float) -> np.ndarray:
    """Pixel-frame vertices farther than margin from every image border.

    Vertices hugging the border trace the frame edge, not the boundary.
    """
    pts = boundary.vertices
    keep = (
        (pts[:, 0] > margin)
        & (pts[:, 0] < camera.width - 1 - margin)
        & (pts[:, 1] > margin)
        & (pts[:, 1] < camera.height - 1 - margin)
    )
    return pts[keep]


def boundary_guidance(
    boundary: Polygon,
    camera: CameraModel,
    config: TrackingConfig,
    target_depth: float,
) -> GuidanceRef | None:
    """Yaw-rate reference that slides along a meadow boundary contour.

    The boundary polygon is in pixel coordinates.  Its interior vertices
    are windowed to a horizontal band around the image centerline and fit
    with a straight line.  Returns None when too little boundary is
    visible to fit one, which callers treat as a lost track.
    """
    pts = interior_vertices(boundary, camera, config.border_margin)
    if pts.shape[0] < config.min_band_points:
        return None

    mid_row = (camera.height - 1) / 2.0
    band = np.abs(pts[:, 1] - mid_row) <= config.band_fraction * camera.height / 2.0
    pts = pts[band]
    if pts.shape[0] < config.min_band_points:
        return None

    center = pts.mean(axis=0)
    centered = pts - center
    # principal direction of the visible boundary segment
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    if sv[0] <= 1e-9:
        return None
    tangent = vt[0]

    toward_meadow = boundary.vertices.mean(axis=0) - center
    side = tangent[0] * toward_meadow[1] - tangent[1] * toward_meadow[0]
    # image y grows downward, so "meadow on the left" means negative cross
    want_negative = config.meadow_side == "left"
    if (side > 0.0) == want_negative:
        tangent = -tangent

    heading_err = math.atan2(tangent[0], -tangent[1])
    offset = (center[0] - (camera.width - 1) / 2.0) / camera.width
    yaw_rate = -(config.k_tangent * heading_err + config.k_offset * offset)
    return GuidanceRef(
        target_depth=target_depth,
        target_surge=config.track_speed,
        target_yaw_rate=yaw_rate,
    )
