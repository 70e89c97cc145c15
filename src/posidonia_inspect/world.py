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
import os
import struct
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial

import numpy as np

from ._rules import integer, number, numbers, vector
from .camera import CameraModel, pixel_grid_world
from .darkpatch import DetectorConfig
from .imaging import WATER_PRESETS, Raster, WaterModel, add_speckle, attenuate, water_factors
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
        numbers(self, ("resolution", "seabed_depth"), 0, lo_open=True)
        origin = vector("origin", self.origin, 2)
        colors = tuple(self.colors)
        if len(colors) != NUM_CLASSES:
            raise ValueError(f"colors must be {NUM_CLASSES} RGB triples")
        colors = tuple(vector(f"colors[{i}]", rgb, 3, 0, 1) for i, rgb in enumerate(colors))
        number("noise_amplitude", self.noise_amplitude, 0, 0.5)
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
        integer("seed", self.seed, 0, 2**63)  # render packs it as an int64
        for name in ("inspect_frames", "boundary_lost_limit", "trajectory_stride", "announce_expiry_ticks"):
            integer(name, getattr(self, name), 1)
        numbers(self, (
            "inspect_altitude",
            "loop_close_radius",
            "min_track_path",
            "explored_alpha",
            "cover_radius",
            "announce_match_radius",
        ), 0, lo_open=True)
        number("tick_dt", self.tick_dt, 0, 1, lo_open=True)
        number("survey_depth", self.survey_depth, 0)
        number("presence_min_fraction", self.presence_min_fraction, 0, 1)
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
        """Cross-field checks; one ValueError lists every violation as 'section.field: why'."""
        wps = tuple((float(x), float(y)) for x, y in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        floor = self.seafloor
        problems: list[str] = []
        if self.mission.inspect_altitude >= floor.seabed_depth:
            problems.append(
                "mission.inspect_altitude: must be smaller than seafloor.seabed_depth"
            )
        if self.mission.survey_depth >= floor.seabed_depth:
            problems.append("mission.survey_depth: leaves no altitude above the seafloor")
        if not wps:
            problems.append("waypoints: at least one waypoint is required")
        x0, y0, x1, y1 = floor.extent
        for i, (wx, wy) in enumerate(wps):
            # a NaN or infinite coordinate fails these comparisons too
            if not (x0 <= wx <= x1 and y0 <= wy <= y1):
                problems.append(f"waypoints[{i}]: ({wx}, {wy}) is outside the mapped area")
        if self.vehicle.seabed_depth < floor.seabed_depth:
            problems.append(
                "vehicle.seabed_depth: depth clamp sits above seafloor.seabed_depth"
            )
        if problems:
            raise ValueError("\n".join(problems))

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

    @cached_property
    def _water_tables(self) -> _WaterTables:
        return _WaterTables(self.seafloor.label_map.data.size)


# ---------------------------------------------------------------------------
# Rendering


def _cell_index(
    seafloor: SeafloorConfig, wx: np.ndarray, wy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Cell columns, rows and row-major flat indices under world points.

    The last item is the on-map mask, or None when every point is on the
    map.  Off-map points get flat index 0, so gathers need no masking.
    Raises ValueError when a cell index would not fit in int64 (a NaN
    point, or one whose footprint overflowed).
    """
    x0, y0 = seafloor.origin
    # floor((w - origin) / resolution), in place on one fresh copy per axis
    fx, fy = np.array(wx, dtype=float), np.array(wy, dtype=float)
    for f, o in ((fx, x0), (fy, y0)):
        f -= o
        f /= seafloor.resolution
        np.floor(f, out=f)
    h, w = seafloor.label_map.data.shape
    on_map = False
    if fx.size:
        x_lo, x_hi, y_lo, y_hi = fx.min(), fx.max(), fy.min(), fy.max()
        if not (-2.0**63 <= x_lo and x_hi < 2.0**63 and -2.0**63 <= y_lo and y_hi < 2.0**63):
            raise ValueError("world points are too far from the map for an int64 cell index")
        on_map = x_lo >= 0 and x_hi < w and y_lo >= 0 and y_hi < h
    ix, iy = fx.astype(np.int64), fy.astype(np.int64)
    flat = iy * w
    flat += ix
    if on_map:
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


class _WaterTables:
    """Attenuated albedo of every map cell, for at most two water paths.

    A table is keyed by the bytes of the path's :func:`water_factors`, all
    that :func:`attenuate` reads of it, so altitudes a rounding apart share
    one.  Baking a table costs one map-sized attenuation, which pays off
    once frames at its key have covered as many pixels as the map has
    cells.  So a key is baked only after an unbroken run of frames that
    long; until then its frames attenuate their own pixels.  A mission
    holds its survey and inspect altitudes, so two tables are kept, and the
    least recently used one is dropped before a third is baked.
    """

    def __init__(self, cells: int):
        self.cells = cells
        self.tables: dict[bytes, np.ndarray] = {}  # least recently used first
        self.run_key = b""
        self.run_pixels = 0

    def lookup(self, scenario: Scenario, altitude: float, pixels: int) -> np.ndarray | None:
        """The (cells, 3) table for a frame of ``pixels`` at ``altitude``, or None."""
        key = b"".join(f.tobytes() for f in water_factors(scenario.water, altitude))
        if key != self.run_key:
            self.run_key, self.run_pixels = key, 0
        self.run_pixels += pixels
        table = self.tables.pop(key, None)
        if table is None:
            if self.run_pixels < self.cells:
                return None
            if len(self.tables) == 2:
                del self.tables[next(iter(self.tables))]
            h, w = scenario.seafloor.label_map.data.shape
            albedo = Raster(scenario._albedo.reshape(h, w, 3))
            table = attenuate(albedo, scenario.water, altitude).data.reshape(h * w, 3)
        self.tables[key] = table
        return table


def render(
    scenario: Scenario, x: float, y: float, yaw: float, altitude: float
) -> tuple[Frame, LabelMask]:
    """Simulate one downward frame; returns the pose-stamped image and its ground truth."""
    floor = scenario.seafloor
    gx, gy = pixel_grid_world(scenario.camera, x, y, yaw, altitude)
    ix, iy, flat, inside = _cell_index(floor, gx, gy)
    codes = _gather_codes(floor, flat, inside)
    # at a held altitude the pixels come attenuated from a baked table;
    # otherwise they come raw and the whole frame is attenuated below
    table = scenario._water_tables.lookup(scenario, altitude, codes.size)
    img = (scenario._albedo if table is None else table).take(flat, axis=0)
    if inside is not None:
        # off-map pixels are sand with the noise of their own cell
        off = np.flatnonzero(~inside)
        sand = _noisy_albedo(scenario, codes.ravel()[off], ix.ravel()[off], iy.ravel()[off])
        if table is not None:
            sand = attenuate(Raster(sand[:, np.newaxis]), scenario.water, altitude).data[:, 0]
        img.reshape(-1, 3)[off] = sand

    frame = Frame(img, x, y, yaw, altitude)
    if table is None:
        # the water column keeps the frame type, so the pose stamped here survives
        frame = attenuate(frame, scenario.water, altitude)
    frame = add_speckle(frame, scenario.water, _pose_seed(scenario, x, y, yaw, altitude))
    return frame, LabelMask(codes)


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

_CONFIGS = {
    "seafloor": SeafloorConfig,
    "water": WaterModel,
    "camera": CameraModel,
    "detector": DetectorConfig,
    "vehicle": VehicleConfig,
    "tracking": TrackingConfig,
    "mission": MissionConfig,
}
_SECTIONS = (*_CONFIGS, "waypoints")
_COLOR_KEYS = ("color_sand", "color_posidonia", "color_debris", "color_rocks")

# every key a section takes, in the order save_scenario writes them, mapped
# to its default, whose type is the type its value parses to: str, an
# n-tuple of floats, int or float.  The seafloor's label_map and colors are
# written as the map and color_* keys; water also takes a preset, which is
# never written.  The map and preset names have no default and map to "".
_KEY_DEFAULTS = {
    section: {f.name: f.default for f in fields(cls) if f.name not in ("label_map", "colors")}
    for section, cls in _CONFIGS.items()
}
_KEY_DEFAULTS["seafloor"] = {
    "map": "", **_KEY_DEFAULTS["seafloor"], **dict(zip(_COLOR_KEYS, DEFAULT_COLORS))
}
_KEY_DEFAULTS["water"]["preset"] = ""


def _convert(default, raw: str):
    if isinstance(default, str):
        return raw
    parts = raw.split()
    if isinstance(default, tuple):
        if len(parts) != len(default):
            raise ValueError(f"expected {len(default)} numbers")
        return tuple(float(p) for p in parts)
    if len(parts) != 1:
        raise ValueError("expected a single value")
    return type(default)(parts[0])  # int or float


class _KeyProblem(ValueError):
    """A key naming a map or preset that cannot be had; reported as '[section] key…'."""


def _seafloor(base_dir: str, **kwargs) -> SeafloorConfig:
    name = kwargs.pop("map", None)
    if name is None:
        raise _KeyProblem("map is required")
    try:
        label_map = read_mask(os.path.join(base_dir, name))
    except (OSError, ValueError) as exc:
        raise _KeyProblem(f"map: {exc}") from exc
    colors = tuple(kwargs.pop(key, rgb) for key, rgb in zip(_COLOR_KEYS, DEFAULT_COLORS))
    return SeafloorConfig(label_map, colors=colors, **kwargs)


def _water(preset: str | None = None, **kwargs) -> WaterModel:
    if preset is None:
        return WaterModel(**kwargs)
    if preset not in WATER_PRESETS:
        raise _KeyProblem(f"preset: unknown preset {preset!r}; options are {sorted(WATER_PRESETS)}")
    return replace(WATER_PRESETS[preset], **kwargs)


def parse_scenario_text(text: str, base_dir=".", source: str = "<scenario>") -> Scenario:
    """Parse the sectioned text format in one pass; raises with every problem
    found: each line's in line order, then each section's, then cross-field."""
    errors: list[str] = []
    values: dict[str, dict] = {section: {} for section in _KEY_DEFAULTS}
    waypoints: list[tuple[float, float]] = []
    current: str | None = None

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line[1:-1].strip().lower()
            if not line.endswith("]"):
                problem = f"malformed section header {line!r}"
            elif name not in _SECTIONS:
                problem = f"unknown section [{name}]"
            else:
                current = name
                defaults, taken = _KEY_DEFAULTS.get(name), values.get(name)
                continue
            current = None
        elif current == "waypoints":
            try:
                x, y = line.split()
                waypoints.append((float(x), float(y)))
                continue
            except ValueError:
                problem = f"waypoint lines are two numbers, got {line!r}"
        elif current is None:
            problem = "content outside any [section]"
        else:
            key, eq, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not eq or not key or not value:
                problem = f"expected 'key = value', got {line!r}"
            elif key not in defaults:
                problem = f"unknown key '{key}' in [{current}]"
            elif key in taken:
                problem = f"duplicate key '{key}' in [{current}]"
            else:
                try:
                    taken[key] = _convert(defaults[key], value)
                    continue
                except ValueError as exc:
                    # the key keeps its default: it is taken, and its section
                    # builds as though the line were absent
                    taken[key] = defaults[key]
                    problem = f"[{current}] {key}: {exc}"
        errors.append(f"{source}:{ln}: {problem}")

    built = {}
    factories = {**_CONFIGS, "seafloor": partial(_seafloor, base_dir), "water": _water}
    for section, factory in factories.items():
        try:
            built[section] = factory(**values[section])
        except _KeyProblem as exc:
            errors.append(f"{source}: [{section}] {exc}")
        except (ValueError, TypeError) as exc:
            errors.append(f"{source}: [{section}]: {exc}")

    if not errors:
        try:
            return Scenario(**built, waypoints=tuple(waypoints))
        except ValueError as exc:
            errors.extend(f"{source}: {p}" for p in str(exc).splitlines())
    raise ValueError("\n".join(errors))


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, base_dir=os.path.dirname(os.path.abspath(path)), source=str(path))


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return " ".join(_fmt(c) for c in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def save_scenario(scenario: Scenario, path) -> None:
    """Write the scenario and its label map <stem>_map.pgm; round-trips through load."""
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    map_name = f"{stem}_map.pgm"
    # the parser cuts a line at '#', splits lines and strips each value
    if "#" in map_name or map_name.splitlines() != [map_name.strip()]:
        raise ValueError(f"a scenario file cannot name the map {map_name!r}; rename {path}")
    write_mask(scenario.seafloor.label_map, os.path.join(base, map_name))

    lines = ["# scenario file (generated)"]
    for section, keys in _KEY_DEFAULTS.items():
        cfg = getattr(scenario, section)
        values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        if section == "seafloor":
            values.update(map=map_name, **dict(zip(_COLOR_KEYS, cfg.colors)))
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_fmt(values[key])}" for key in keys if key in values]
    lines += ["", "[waypoints]", *(_fmt(wp) for wp in scenario.waypoints), ""]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
