"""Scenario definition, synthetic seafloor rendering, and ground truth.

A scenario bundles everything one simulated dive needs: a class-coded
seafloor map with per-class base colors, a water column, the camera,
detector and vehicle parameters, mission settings, and the survey
waypoint list.  Scenarios live in a small sectioned text format::

    # demo
    [seafloor]
    map = floor.pgm
    resolution = 0.5

    [waypoints]
    20 30
    140 30

Rendering projects every pixel center onto the seafloor plane, colors
it by class, adds world-anchored texture noise (a pure hash of the cell
index, so the same spot always looks the same), then applies the water
column.  The renderer returns the ground-truth mask along with the
image, which is what makes desk-scale end-to-end runs testable.  The
image comes back as a :class:`Frame` stamped with the camera pose it was
taken from, so consumers never need the pose passed beside it.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .camera import CameraModel, pixel_grid_world
from .darkpatch import DetectorConfig
from .imaging import WATER_PRESETS, Raster, WaterModel, add_speckle, attenuate
from .segmentation import NUM_CLASSES, LabelMask, read_mask, write_mask
from .vehicle import TrackingConfig, VehicleConfig

__all__ = [
    "DEFAULT_COLORS",
    "SeafloorConfig",
    "MissionConfig",
    "Scenario",
    "Frame",
    "classes_at",
    "render",
    "OracleSegmenter",
    "validate_scenario",
    "parse_scenario_text",
    "load_scenario",
    "save_scenario",
]

# base albedo per class code: sand, posidonia, debris, rocks
DEFAULT_COLORS = (
    (0.82, 0.74, 0.55),
    (0.04, 0.16, 0.07),
    (0.35, 0.28, 0.22),
    (0.14, 0.13, 0.12),
)


@dataclass(frozen=True)
class SeafloorConfig:
    label_map: LabelMask
    resolution: float = 0.5
    origin: tuple[float, float] = (0.0, 0.0)
    seabed_depth: float = 15.0
    colors: tuple = DEFAULT_COLORS
    noise_amplitude: float = 0.03

    def __post_init__(self) -> None:
        if not isinstance(self.label_map, LabelMask):
            raise ValueError("label_map must be a LabelMask")
        if not (math.isfinite(self.resolution) and self.resolution > 0.0):
            raise ValueError("resolution must be positive")
        origin = (float(self.origin[0]), float(self.origin[1]))
        if len(self.origin) != 2 or not all(math.isfinite(v) for v in origin):
            raise ValueError("origin must be two finite numbers")
        if not (math.isfinite(self.seabed_depth) and self.seabed_depth > 0.0):
            raise ValueError("seabed_depth must be positive")
        colors = tuple(tuple(float(c) for c in rgb) for rgb in self.colors)
        if len(colors) != NUM_CLASSES or any(len(rgb) != 3 for rgb in colors):
            raise ValueError(f"colors must be {NUM_CLASSES} RGB triples")
        if any(not 0.0 <= c <= 1.0 for rgb in colors for c in rgb):
            raise ValueError("color channels must lie in [0, 1]")
        if not 0.0 <= self.noise_amplitude <= 0.5:
            raise ValueError("noise_amplitude must lie in [0, 0.5]")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "colors", colors)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) of the mapped area."""
        h, w = self.label_map.data.shape
        x0, y0 = self.origin
        return x0, y0, x0 + w * self.resolution, y0 + h * self.resolution


@dataclass(frozen=True)
class MissionConfig:
    """Mission-level knobs; geometry is meters, durations are ticks."""

    seed: int = 0
    survey_depth: float = 2.0
    inspect_altitude: float = 5.0
    presence_min_fraction: float = 0.05
    inspect_frames: int = 3
    boundary_lost_limit: int = 120
    loop_close_radius: float = 4.0
    min_track_path: float = 20.0
    tick_dt: float = 0.5
    explored_alpha: float = 80.0
    trajectory_stride: int = 20
    cover_radius: float = 15.0
    announce_match_radius: float = 10.0
    announce_expiry_ticks: int = 40

    def __post_init__(self) -> None:
        for name in ("seed", "inspect_frames", "boundary_lost_limit", "trajectory_stride", "announce_expiry_ticks"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("inspect_frames", "boundary_lost_limit", "trajectory_stride", "announce_expiry_ticks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in (
            "inspect_altitude",
            "loop_close_radius",
            "min_track_path",
            "tick_dt",
            "explored_alpha",
            "cover_radius",
            "announce_match_radius",
        ):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive number")
        if not (math.isfinite(self.survey_depth) and self.survey_depth >= 0.0):
            raise ValueError("survey_depth must be non-negative")
        if not 0.0 <= self.presence_min_fraction <= 1.0:
            raise ValueError("presence_min_fraction must lie in [0, 1]")
        if self.tick_dt > 1.0:
            raise ValueError("tick_dt must lie in (0, 1]")
        if self.min_track_path <= self.loop_close_radius:
            raise ValueError("min_track_path must exceed loop_close_radius")


@dataclass(frozen=True)
class Scenario:
    seafloor: SeafloorConfig
    water: WaterModel = WaterModel()
    camera: CameraModel = CameraModel()
    detector: DetectorConfig = DetectorConfig()
    vehicle: VehicleConfig = VehicleConfig()
    tracking: TrackingConfig = TrackingConfig()
    mission: MissionConfig = MissionConfig()
    waypoints: tuple = ()

    def __post_init__(self) -> None:
        wps = tuple((float(x), float(y)) for x, y in self.waypoints)
        if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in wps):
            raise ValueError("waypoints must be finite")
        object.__setattr__(self, "waypoints", wps)

    @property
    def seed(self) -> int:
        return self.mission.seed

    @cached_property
    def _albedo(self) -> np.ndarray:
        # (cells, 3) noisy base color of every map cell in row-major order.
        # Baked on the first render, so setting up a scenario stays cheap, and
        # one map row at a time, so the noise temporaries stay small.
        grid = self.seafloor.label_map.data
        h, w = grid.shape
        albedo = np.empty((h, w, 3))
        cols = np.arange(w, dtype=np.int64)
        for r in range(h):
            albedo[r] = _noisy_albedo(self, grid[r], cols, np.full(w, r, dtype=np.int64))
        albedo = albedo.reshape(h * w, 3)
        albedo.setflags(write=False)
        return albedo


def validate_scenario(scenario: Scenario) -> list[str]:
    """Cross-field checks; returns all violations as 'section.field: why'."""
    problems: list[str] = []
    floor = scenario.seafloor
    mission = scenario.mission
    if mission.inspect_altitude >= floor.seabed_depth:
        problems.append(
            "mission.inspect_altitude: must be smaller than seafloor.seabed_depth"
        )
    if mission.survey_depth >= floor.seabed_depth:
        problems.append("mission.survey_depth: leaves no altitude above the seafloor")
    if not scenario.waypoints:
        problems.append("waypoints: at least one waypoint is required")
    x0, y0, x1, y1 = floor.extent
    for i, (wx, wy) in enumerate(scenario.waypoints):
        if not (x0 <= wx <= x1 and y0 <= wy <= y1):
            problems.append(f"waypoints[{i}]: ({wx}, {wy}) is outside the mapped area")
    if scenario.vehicle.seabed_depth < floor.seabed_depth:
        problems.append(
            "vehicle.seabed_depth: depth clamp sits above seafloor.seabed_depth"
        )
    return problems


# ---------------------------------------------------------------------------
# Rendering


def _cell_index(
    seafloor: SeafloorConfig, wx: np.ndarray, wy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Cell columns, rows and row-major flat indices under world points.

    The last item is the on-map mask, or None when every point is on the
    map.  Off-map points get flat index 0, so gathers need no masking.
    """
    x0, y0 = seafloor.origin
    ix = np.floor((np.asarray(wx, dtype=float) - x0) / seafloor.resolution).astype(np.int64)
    iy = np.floor((np.asarray(wy, dtype=float) - y0) / seafloor.resolution).astype(np.int64)
    h, w = seafloor.label_map.data.shape
    flat = iy * w + ix
    if ix.size and ix.min() >= 0 and ix.max() < w and iy.min() >= 0 and iy.max() < h:
        return ix, iy, flat, None
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    return ix, iy, np.where(inside, flat, 0), inside


def _gather_codes(seafloor: SeafloorConfig, flat: np.ndarray, inside: np.ndarray | None) -> np.ndarray:
    codes = seafloor.label_map.data.ravel().take(flat)
    if inside is not None:
        codes *= inside  # off the map reads as sand
    return codes


def classes_at(seafloor: SeafloorConfig, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Class codes under world points; anything off the map reads as sand."""
    _, _, flat, inside = _cell_index(seafloor, wx, wy)
    return _gather_codes(seafloor, flat, inside)


_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_P1 = np.uint64(0x9E3779B97F4A7C15)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _mix64(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * _M1
    h = (h ^ (h >> np.uint64(27))) * _M2
    return h ^ (h >> np.uint64(31))


def _cell_noise(ix: np.ndarray, iy: np.ndarray, salt: int) -> np.ndarray:
    """Stationary pseudo-random field in [0, 1): pure function of the cell."""
    h = ix.astype(np.uint64) * _P1
    h ^= iy.astype(np.uint64) * _P2
    h ^= np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
    return (_mix64(h) >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _pose_seed(scenario: Scenario, x: float, y: float, yaw: float, altitude: float) -> int:
    packed = struct.pack(
        "<qqdddd", scenario.seed, scenario.water.rng_seed, x, y, yaw, altitude
    )
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class Frame(Raster):
    """Rendered image plus the camera pose (position, heading, altitude) it was taken from."""

    x: float
    y: float
    yaw: float
    altitude: float


def _noisy_albedo(scenario: Scenario, codes: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Base color of each class code plus the texture noise of its cell, clipped."""
    floor = scenario.seafloor
    img = np.asarray(floor.colors, dtype=float).take(codes, axis=0)
    if floor.noise_amplitude > 0.0:
        for c in range(3):
            n = _cell_noise(ix, iy, scenario.seed * 4 + c)
            img[..., c] += (2.0 * n - 1.0) * floor.noise_amplitude
        np.clip(img, 0.0, 1.0, out=img)
    return img


def render(
    scenario: Scenario, x: float, y: float, yaw: float, altitude: float
) -> tuple[Frame, LabelMask]:
    """Simulate one downward frame; returns the pose-stamped image and its ground truth."""
    if not (math.isfinite(altitude) and altitude > 0.0):
        raise ValueError("altitude must be positive")
    floor = scenario.seafloor
    gx, gy = pixel_grid_world(scenario.camera, x, y, yaw, altitude)
    ix, iy, flat, inside = _cell_index(floor, gx, gy)
    codes = _gather_codes(floor, flat, inside)
    img = scenario._albedo.take(flat, axis=0)
    if inside is not None:
        # off-map pixels are sand with the noise of their own cell
        off = np.flatnonzero(~inside)
        img.reshape(-1, 3)[off] = _noisy_albedo(
            scenario, codes.ravel()[off], ix.ravel()[off], iy.ravel()[off]
        )

    out = attenuate(Raster(img), scenario.water, altitude)
    if scenario.water.speckle_density > 0.0:
        per_pose = replace(
            scenario.water, rng_seed=_pose_seed(scenario, x, y, yaw, altitude)
        )
        out = add_speckle(out, per_pose)
    return Frame(out.data, x, y, yaw, altitude), LabelMask(codes)


class OracleSegmenter:
    """Perfect segmentation by ground-truth lookup under the frame's pose.

    Holds no per-frame state, so one instance may serve many missions.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def segment(self, frame: Frame) -> LabelMask:
        if not isinstance(frame, Frame):
            raise TypeError("the oracle needs a pose-stamped Frame from render")
        cam = self.scenario.camera
        if (frame.height, frame.width) != (cam.height, cam.width):
            raise ValueError("frame size does not match the scenario camera")
        # pixel_grid_world rejects a pose on or below the seafloor
        gx, gy = pixel_grid_world(cam, frame.x, frame.y, frame.yaw, frame.altitude)
        return LabelMask(classes_at(self.scenario.seafloor, gx, gy))


# ---------------------------------------------------------------------------
# Scenario text format

_SECTIONS = ("seafloor", "water", "camera", "detector", "vehicle", "tracking", "mission", "waypoints")

_INT_FIELDS = {
    ("camera", "width"),
    ("camera", "height"),
    ("detector", "min_patch_area"),
    ("water", "rng_seed"),
    ("mission", "seed"),
    ("mission", "inspect_frames"),
    ("mission", "boundary_lost_limit"),
    ("mission", "trajectory_stride"),
    ("mission", "announce_expiry_ticks"),
    ("tracking", "min_band_points"),
}
_STR_FIELDS = {("tracking", "meadow_side"), ("water", "preset"), ("seafloor", "map")}
_PAIR_FIELDS = {("seafloor", "origin")}
_TRIPLE_FIELDS = {
    ("water", "attenuation"),
    ("water", "backscatter_veil"),
    ("seafloor", "color_sand"),
    ("seafloor", "color_posidonia"),
    ("seafloor", "color_rocks"),
    ("seafloor", "color_debris"),
}

_COLOR_KEYS = ("color_sand", "color_posidonia", "color_debris", "color_rocks")


def _known_keys(section: str) -> set[str]:
    table = {
        "seafloor": {"map", "resolution", "origin", "seabed_depth", "noise_amplitude", *_COLOR_KEYS},
        "water": {f.name for f in fields(WaterModel)} | {"preset"},
        "camera": {f.name for f in fields(CameraModel)},
        "detector": {f.name for f in fields(DetectorConfig)},
        "vehicle": {f.name for f in fields(VehicleConfig)},
        "tracking": {f.name for f in fields(TrackingConfig)},
        "mission": {f.name for f in fields(MissionConfig)},
    }
    return table[section]


def _convert(section: str, key: str, raw: str):
    spot = (section, key)
    if spot in _STR_FIELDS:
        return raw
    parts = raw.split()
    if spot in _PAIR_FIELDS or spot in _TRIPLE_FIELDS:
        want = 2 if spot in _PAIR_FIELDS else 3
        if len(parts) != want:
            raise ValueError(f"expected {want} numbers")
        return tuple(float(p) for p in parts)
    if len(parts) != 1:
        raise ValueError("expected a single value")
    if spot in _INT_FIELDS:
        return int(parts[0])
    return float(parts[0])


def parse_scenario_text(text: str, base_dir=".", source: str = "<scenario>") -> Scenario:
    """Parse the sectioned text format; raises with every problem found."""
    errors: list[str] = []
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    waypoints: list[tuple[float, float]] = []
    current: str | None = None

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"{source}:{ln}: malformed section header {line!r}")
                current = None
                continue
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                errors.append(f"{source}:{ln}: unknown section [{name}]")
                current = None
                continue
            current = name
            sections.setdefault(name, {})
            continue
        if current == "waypoints":
            parts = line.split()
            try:
                if len(parts) != 2:
                    raise ValueError
                waypoints.append((float(parts[0]), float(parts[1])))
            except ValueError:
                errors.append(f"{source}:{ln}: waypoint lines are two numbers, got {line!r}")
            continue
        if current is None:
            errors.append(f"{source}:{ln}: content outside any [section]")
            continue
        key, eq, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not eq or not key or not value:
            errors.append(f"{source}:{ln}: expected 'key = value', got {line!r}")
            continue
        if key not in _known_keys(current):
            errors.append(f"{source}:{ln}: unknown key '{key}' in [{current}]")
            continue
        if key in sections[current]:
            errors.append(f"{source}:{ln}: duplicate key '{key}' in [{current}]")
            continue
        sections[current][key] = (ln, value)

    parsed: dict[str, dict] = {}
    for section, entries in sections.items():
        if section == "waypoints":
            continue
        out = {}
        for key, (ln, value) in entries.items():
            try:
                out[key] = _convert(section, key, value)
            except ValueError as exc:
                errors.append(f"{source}:{ln}: [{section}] {key}: {exc}")
        parsed[section] = out

    def build(section: str, factory, kwargs):
        try:
            return factory(**kwargs)
        except (ValueError, TypeError) as exc:
            errors.append(f"{source}: [{section}]: {exc}")
            return None

    floor_kwargs = parsed.get("seafloor", {})
    label_map = None
    map_name = floor_kwargs.pop("map", None)
    if map_name is None:
        errors.append(f"{source}: [seafloor] map is required")
    else:
        try:
            label_map = read_mask(os.path.join(base_dir, map_name))
        except (OSError, ValueError) as exc:
            errors.append(f"{source}: [seafloor] map: {exc}")
    colors = list(DEFAULT_COLORS)
    for code, key in enumerate(_COLOR_KEYS):
        if key in floor_kwargs:
            colors[code] = floor_kwargs.pop(key)
    seafloor = None
    if label_map is not None:
        seafloor = build(
            "seafloor",
            SeafloorConfig,
            dict(label_map=label_map, colors=tuple(colors), **floor_kwargs),
        )

    water_kwargs = parsed.get("water", {})
    preset_name = water_kwargs.pop("preset", None)
    if preset_name is not None and preset_name not in WATER_PRESETS:
        errors.append(
            f"{source}: [water] preset: unknown preset {preset_name!r}; "
            f"options are {sorted(WATER_PRESETS)}"
        )
        preset_name = None
    if preset_name is not None:
        water = build(
            "water", lambda **kw: replace(WATER_PRESETS[preset_name], **kw), water_kwargs
        )
    else:
        water = build("water", WaterModel, water_kwargs)

    camera = build("camera", CameraModel, parsed.get("camera", {}))
    detector = build("detector", DetectorConfig, parsed.get("detector", {}))
    vehicle = build("vehicle", VehicleConfig, parsed.get("vehicle", {}))
    tracking = build("tracking", TrackingConfig, parsed.get("tracking", {}))
    mission = build("mission", MissionConfig, parsed.get("mission", {}))

    scenario = None
    if not errors and seafloor is not None:
        scenario = Scenario(
            seafloor=seafloor,
            water=water,
            camera=camera,
            detector=detector,
            vehicle=vehicle,
            tracking=tracking,
            mission=mission,
            waypoints=tuple(waypoints),
        )
        errors.extend(f"{source}: {p}" for p in validate_scenario(scenario))

    if errors:
        raise ValueError("\n".join(errors))
    assert scenario is not None
    return scenario


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, base_dir=os.path.dirname(os.path.abspath(path)), source=str(path))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def save_scenario(scenario: Scenario, path, map_filename: str | None = None) -> None:
    """Write the scenario and its label map; round-trips through load."""
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    map_name = map_filename if map_filename is not None else f"{stem}_map.pgm"
    write_mask(scenario.seafloor.label_map, os.path.join(base, map_name))

    floor = scenario.seafloor
    lines = ["# scenario file (generated)", "", "[seafloor]", f"map = {map_name}"]
    lines.append(f"resolution = {_fmt(floor.resolution)}")
    lines.append(f"origin = {_fmt(floor.origin[0])} {_fmt(floor.origin[1])}")
    lines.append(f"seabed_depth = {_fmt(floor.seabed_depth)}")
    lines.append(f"noise_amplitude = {_fmt(floor.noise_amplitude)}")
    for key, rgb in zip(_COLOR_KEYS, floor.colors):
        lines.append(f"{key} = {_fmt(rgb[0])} {_fmt(rgb[1])} {_fmt(rgb[2])}")

    for section, cfg in (
        ("water", scenario.water),
        ("camera", scenario.camera),
        ("detector", scenario.detector),
        ("vehicle", scenario.vehicle),
        ("tracking", scenario.tracking),
        ("mission", scenario.mission),
    ):
        lines.append("")
        lines.append(f"[{section}]")
        for f in fields(cfg):
            v = getattr(cfg, f.name)
            if isinstance(v, tuple):
                lines.append(f"{f.name} = {' '.join(_fmt(c) for c in v)}")
            else:
                lines.append(f"{f.name} = {_fmt(v)}")

    lines.append("")
    lines.append("[waypoints]")
    for wx, wy in scenario.waypoints:
        lines.append(f"{_fmt(wx)} {_fmt(wy)}")
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
