"""Synthetic seafloor imaging and autonomous meadow-inspection toolkit.

The package simulates a downward-looking underwater camera over a labeled
seafloor, detects dark patches worth inspecting, segments seagrass from
rocks and debris, follows meadow boundaries, and keeps an explored-area
map so a survey never dives twice on the same spot.
"""

__version__ = "0.1.0"

from .camera import CameraModel, pixel_to_world
from .darkpatch import DarkPatchReport, DetectorConfig, detect_dark_patches
from .dataset import SplitSpec, split, split_sizes
from .geometry import (
    ExploredMap,
    Polygon,
    alpha_shape,
    explored_covers,
    point_in_region,
    record_exploration,
)
from .imaging import WATER_PRESETS, Raster, WaterModel, read_pnm, write_pnm
from .mission import MissionEvent, MissionLog, initial_state, run_mission, run_tick, write_mission_log
from .presets import (
    blocks_scenario,
    empty_scenario,
    five_patch_scenario,
    gen_lawnmower,
    ring_meadow_scenario,
)
from .segmentation import (
    DEBRIS,
    POSIDONIA,
    ROCKS,
    SAND,
    BaselineSegmenter,
    LabelMask,
    iou,
    mean_iou,
    read_mask,
    write_mask,
)
from .vehicle import TrackingConfig, VehicleConfig, VehicleState
from .world import (
    MissionConfig,
    OracleSegmenter,
    Scenario,
    SeafloorConfig,
    load_scenario,
    render,
    save_scenario,
)

__all__ = [
    "__version__",
    "CameraModel",
    "pixel_to_world",
    "DarkPatchReport",
    "DetectorConfig",
    "detect_dark_patches",
    "SplitSpec",
    "split",
    "split_sizes",
    "ExploredMap",
    "Polygon",
    "alpha_shape",
    "explored_covers",
    "point_in_region",
    "record_exploration",
    "WATER_PRESETS",
    "Raster",
    "WaterModel",
    "read_pnm",
    "write_pnm",
    "MissionEvent",
    "MissionLog",
    "initial_state",
    "run_mission",
    "run_tick",
    "write_mission_log",
    "blocks_scenario",
    "empty_scenario",
    "five_patch_scenario",
    "gen_lawnmower",
    "ring_meadow_scenario",
    "SAND",
    "POSIDONIA",
    "DEBRIS",
    "ROCKS",
    "BaselineSegmenter",
    "LabelMask",
    "iou",
    "mean_iou",
    "read_mask",
    "write_mask",
    "TrackingConfig",
    "VehicleConfig",
    "VehicleState",
    "MissionConfig",
    "OracleSegmenter",
    "Scenario",
    "SeafloorConfig",
    "load_scenario",
    "render",
    "save_scenario",
]
