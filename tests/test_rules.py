"""Every numeric field of every record, and every numeric argument, keeps one rule.

A number is a finite int or float, never a bool, between its bounds; an
integer is an int, never a bool, with lo <= v < hi.  Each case below must
raise ValueError naming the field or argument.
"""

import math
import re

import numpy as np
import pytest

from posidonia_inspect.camera import CameraModel, pixel_grid_world, pixel_to_local
from posidonia_inspect.darkpatch import DetectorConfig
from posidonia_inspect.dataset import SplitSpec
from posidonia_inspect.geometry import ExploredMap, alpha_shape
from posidonia_inspect.imaging import Raster, WaterModel, gamma_correct, water_factors
from posidonia_inspect.mission import run_mission
from posidonia_inspect.presets import SCENARIO_PRESETS, empty_scenario, gen_lawnmower
from posidonia_inspect.segmentation import LabelMask
from posidonia_inspect.vehicle import (
    GuidanceRef,
    TrackingConfig,
    VehicleConfig,
    VehicleState,
    step,
)
from posidonia_inspect.world import DEFAULT_COLORS, MissionConfig, OracleSegmenter, SeafloorConfig

INF = math.inf
FLOOR = LabelMask(np.zeros((4, 4), dtype=np.uint8))
TRIANGLE = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]


def number(lo=-INF, hi=INF, lo_open=False, hi_open=False):
    return ("number", lo, hi, lo_open, hi_open)


def integer(lo=-INF, hi=INF):
    return ("integer", lo, hi, False, True)


def bad_values(rule):
    """Values the rule must turn away: non-finite, bool, str, and each side of a bound."""
    kind, lo, hi, lo_open, hi_open = rule
    values = [math.nan, INF, -INF, True, False, "1"]
    if kind == "integer":
        values += [1.0, 2.5]
        values += [] if lo == -INF else [lo - 1]
        values += [] if hi == INF else [hi]
    else:
        if lo != -INF:
            values.append(lo if lo_open else math.nextafter(lo, -INF))
        if hi != INF:
            values.append(hi if hi_open else math.nextafter(hi, INF))
    return values


def seafloor(**kw):
    return SeafloorConfig(FLOOR, **kw)


def guidance_yaw(**kw):
    return GuidanceRef(**{"target_depth": 1.0, "target_surge": 0.5, "target_yaw": 0.0, **kw})


def guidance_rate(**kw):
    return GuidanceRef(**{"target_depth": 1.0, "target_surge": 0.5, "target_yaw_rate": 0.0, **kw})


def explored(**kw):
    return ExploredMap(**{"alpha": 1.0, **kw})


# (build, field, rule): build(**{field: value}) makes the record
FIELDS = [
    *((CameraModel, f, number(0, 180, True, True)) for f in ("hfov_deg", "vfov_deg")),
    *((CameraModel, f, integer(1)) for f in ("width", "height")),
    (WaterModel, "speckle_density", number(0)),
    (WaterModel, "speckle_intensity", number(0, 1)),
    (WaterModel, "rng_seed", integer(-(2**63), 2**63)),
    (DetectorConfig, "white_threshold_base", number(0, 1, lo_open=True)),
    (DetectorConfig, "dark_threshold_base", number(0, 1, lo_open=True)),
    (DetectorConfig, "threshold_depth_gain", number()),
    (DetectorConfig, "min_patch_area", integer(1)),
    (DetectorConfig, "center_exclusion_fraction", number(0, 0.5)),
    *((VehicleState, f, number()) for f in ("x", "y", "z", "yaw", "u", "time")),
    (guidance_yaw, "target_depth", number(0)),
    (guidance_yaw, "target_surge", number()),
    (guidance_yaw, "target_yaw", number()),
    (guidance_rate, "target_yaw_rate", number()),
    *((VehicleConfig, f, number(0, lo_open=True)) for f in (
        "max_surge", "max_heave", "max_yaw_rate", "surge_accel", "k_yaw", "k_depth",
        "cruise_speed", "arrival_radius", "arrival_depth_tol", "seabed_depth",
    )),
    *((TrackingConfig, f, number(0, lo_open=True)) for f in ("k_tangent", "k_offset", "track_speed")),
    (TrackingConfig, "band_fraction", number(0, 0.5, lo_open=True)),
    (TrackingConfig, "border_margin", number(0)),
    (TrackingConfig, "min_band_points", integer(2)),
    (MissionConfig, "seed", integer(0, 2**63)),
    *((MissionConfig, f, integer(1)) for f in (
        "inspect_frames", "boundary_lost_limit", "trajectory_stride", "announce_expiry_ticks",
    )),
    *((MissionConfig, f, number(0, lo_open=True)) for f in (
        "inspect_altitude", "loop_close_radius", "min_track_path", "explored_alpha",
        "cover_radius", "announce_match_radius",
    )),
    (MissionConfig, "tick_dt", number(0, 1, lo_open=True)),
    (MissionConfig, "survey_depth", number(0)),
    (MissionConfig, "presence_min_fraction", number(0, 1)),
    (explored, "alpha", number(0, lo_open=True)),
    (SplitSpec, "train_fraction", number(0, 1)),
    (SplitSpec, "val_fraction", number(0, 1)),
    (SplitSpec, "seed", integer(0)),
    (seafloor, "resolution", number(0, lo_open=True)),
    (seafloor, "seabed_depth", number(0, lo_open=True)),
    (seafloor, "noise_amplitude", number(0, 0.5)),
]


def with_color(i):
    return lambda rgb: seafloor(colors=tuple(rgb if k == i else c for k, c in enumerate(DEFAULT_COLORS)))


# (build, field, default, rule): build(seq) makes the record with the
# sequence field set to seq; each element of the default is spoiled in turn
ELEMENTS = [
    (lambda seq: WaterModel(attenuation=seq), "attenuation", (0.05, 0.06, 0.04), number(0)),
    (lambda seq: WaterModel(backscatter_veil=seq), "backscatter_veil", (0.02, 0.03, 0.04), number(0, 1)),
    (lambda seq: seafloor(origin=seq), "origin", (0.0, 0.0), number()),
    *((with_color(i), f"colors[{i}]", DEFAULT_COLORS[i], number(0, 1)) for i in range(4)),
]


def field_cases():
    for build, field, rule in FIELDS:
        for value in bad_values(rule):
            yield pytest.param(build, field, value, id=f"{build.__name__}.{field}={value!r}")


def element_cases():
    for build, field, default, rule in ELEMENTS:
        for j in range(len(default)):
            for value in bad_values(rule):
                seq = tuple(value if k == j else d for k, d in enumerate(default))
                yield pytest.param(build, field, seq, id=f"{field}[{j}]={value!r}")


@pytest.mark.parametrize("build, field, value", field_cases())
def test_each_numeric_field_takes_only_its_numbers(build, field, value):
    with pytest.raises(ValueError, match=re.escape(field)):
        build(**{field: value})


@pytest.mark.parametrize("build, field, seq", element_cases())
def test_each_element_of_a_sequence_field_takes_only_its_numbers(build, field, seq):
    with pytest.raises(ValueError, match=re.escape(field)):
        build(seq)


def test_defaults_and_presets_build():
    for build, _, _ in FIELDS:
        build()
    for build, _, default, _ in ELEMENTS:
        build(default)
    for factory in SCENARIO_PRESETS.values():
        factory()


CAM = CameraModel()
BOUNDS = (0.0, 0.0, 10.0, 10.0)

# (label, call, argument, rule): call(value) passes value as that argument
ARGUMENTS = [
    ("pixel_grid_world", lambda v: pixel_grid_world(CAM, v, 0.0, 0.0, 5.0), "x", number()),
    ("pixel_grid_world", lambda v: pixel_grid_world(CAM, 0.0, v, 0.0, 5.0), "y", number()),
    ("pixel_grid_world", lambda v: pixel_grid_world(CAM, 0.0, 0.0, v, 5.0), "yaw", number()),
    ("pixel_grid_world", lambda v: pixel_grid_world(CAM, 0.0, 0.0, 0.0, v), "altitude",
     number(0, lo_open=True)),
    ("pixel_to_local", lambda v: pixel_to_local(CAM, 1.0, 1.0, v), "altitude", number(0, lo_open=True)),
    ("thresholds", lambda v: DetectorConfig().thresholds(v), "vehicle_depth", number()),
    ("gamma_correct", lambda v: gamma_correct(Raster(np.full((2, 2, 1), 0.5)), v), "gamma",
     number(0, lo_open=True)),
    ("water_factors", lambda v: water_factors(WaterModel(), v), "path_length", number(0)),
    ("alpha_shape", lambda v: alpha_shape(TRIANGLE, v), "alpha", number(0, lo_open=True)),
    ("step", lambda v: step(VehicleState(), guidance_yaw(), VehicleConfig(), v), "dt",
     number(0, lo_open=True)),
    ("gen_lawnmower", lambda v: gen_lawnmower(BOUNDS, v), "spacing", number(0, lo_open=True)),
    *((f"gen_lawnmower[{i}]",
       lambda v, i=i: gen_lawnmower(tuple(v if k == i else b for k, b in enumerate(BOUNDS)), 5.0),
       "bounds", number()) for i in range(4)),
]


def argument_cases():
    for label, call, arg, rule in ARGUMENTS:
        for value in bad_values(rule):
            yield pytest.param(call, arg, value, id=f"{label}.{arg}={value!r}")


@pytest.mark.parametrize("call, arg, value", argument_cases())
def test_each_numeric_argument_takes_only_its_numbers(call, arg, value):
    with pytest.raises(ValueError, match=re.escape(arg)):
        call(value)


@pytest.mark.parametrize("max_ticks", [0, -1, 2.5, 1.0, True, "3", math.nan])
def test_run_mission_takes_an_integer_tick_budget(max_ticks):
    scn = empty_scenario()
    with pytest.raises(ValueError, match="max_ticks"):
        run_mission(scn, OracleSegmenter(scn), max_ticks=max_ticks)
