"""Ready-made scenarios and map-painting helpers.

These builders produce self-contained scenarios for experiments and the
regression suite: a five-patch survey field, a single large circular
meadow offset from the transit line, a four-block segmentation range,
and an empty sand flat.  All of them share the default camera, vehicle
and detector settings so runs differ only in what is on the floor.
"""

from __future__ import annotations

import numpy as np

from ._rules import number, vector
from .imaging import WATER_PRESETS
from .segmentation import DEBRIS, POSIDONIA, ROCKS, LabelMask
from .world import MissionConfig, Scenario, SeafloorConfig

__all__ = [
    "MAX_SURVEY_LINES",
    "SCENARIO_PRESETS",
    "gen_lawnmower",
    "make_floor",
    "paint_disk",
    "paint_rect",
    "five_patch_scenario",
    "ring_meadow_scenario",
    "blocks_scenario",
    "empty_scenario",
]


# a line count above this is a bounds or spacing typo, not a survey
MAX_SURVEY_LINES = 1_000_000


def gen_lawnmower(
    bounds: tuple[float, float, float, float], spacing: float
) -> tuple[tuple[float, float], ...]:
    """East-west survey lines over bounds=(x0, y0, x1, y1), stepping north.

    Successive lines alternate direction so the path is continuous.
    Bounds must be finite, and they and the spacing may give at most
    MAX_SURVEY_LINES lines.
    """
    x0, y0, x1, y1 = vector("bounds", bounds, 4)
    if not (x1 > x0 and y1 >= y0):
        raise ValueError("bounds must satisfy x1 > x0 and y1 >= y0")
    number("spacing", spacing, 0, lo_open=True)
    lines = (y1 + 1e-9 - y0) / spacing
    if not lines <= MAX_SURVEY_LINES:
        raise ValueError(
            f"bounds and spacing give {lines:.3g} survey lines, more than {MAX_SURVEY_LINES}"
        )
    waypoints: list[tuple[float, float]] = []
    y = y0
    eastbound = True
    while y <= y1 + 1e-9:
        if eastbound:
            waypoints += [(x0, y), (x1, y)]
        else:
            waypoints += [(x1, y), (x0, y)]
        eastbound = not eastbound
        if y + spacing == y:
            raise ValueError(f"spacing {spacing:g} is below the float step at y = {y:g}")
        y += spacing
    return tuple(waypoints)


def make_floor(width_m: float, height_m: float, resolution: float) -> np.ndarray:
    """All-sand class grid covering width_m x height_m."""
    cols = int(round(width_m / resolution))
    rows = int(round(height_m / resolution))
    if cols < 1 or rows < 1:
        raise ValueError("floor must span at least one cell")
    return np.zeros((rows, cols), dtype=np.uint8)


def _cell_centers(grid: np.ndarray, resolution: float, origin: tuple[float, float]):
    rows, cols = grid.shape
    xs = origin[0] + (np.arange(cols) + 0.5) * resolution
    ys = origin[1] + (np.arange(rows) + 0.5) * resolution
    return np.meshgrid(xs, ys)


def paint_disk(
    grid: np.ndarray,
    resolution: float,
    origin: tuple[float, float],
    center: tuple[float, float],
    radius: float,
    code: int,
) -> None:
    """Set cells whose center lies inside the world-frame disk."""
    xx, yy = _cell_centers(grid, resolution, origin)
    grid[(xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius**2] = code


def paint_rect(
    grid: np.ndarray,
    resolution: float,
    origin: tuple[float, float],
    rect: tuple[float, float, float, float],
    code: int,
) -> None:
    """Set cells whose center lies inside rect=(x0, y0, x1, y1)."""
    x0, y0, x1, y1 = rect
    xx, yy = _cell_centers(grid, resolution, origin)
    grid[(xx >= x0) & (xx <= x1) & (yy >= y0) & (yy <= y1)] = code


def five_patch_scenario(passes: int = 1) -> Scenario:
    """Survey field with five dark patches along three lawnmower lines.

    Two patches are bare rocks, two are posidonia meadows, and the last
    mixes a meadow with a rock pile into one connected dark region.
    With passes=2 the waypoint list repeats, so the second sweep crosses
    only already-explored patches.
    """
    if passes < 1:
        raise ValueError("passes must be at least 1")
    res = 0.5
    grid = make_floor(160.0, 140.0, res)
    origin = (0.0, 0.0)
    paint_disk(grid, res, origin, (50.0, 30.0), 5.0, ROCKS)
    paint_disk(grid, res, origin, (110.0, 30.0), 6.0, POSIDONIA)
    paint_disk(grid, res, origin, (110.0, 70.0), 6.0, POSIDONIA)
    paint_disk(grid, res, origin, (50.0, 70.0), 5.0, ROCKS)
    # the mixed patch: a rock pile hugging the meadow's west edge; rocks go
    # first so the meadow keeps its full, convex outline
    paint_disk(grid, res, origin, (96.0, 110.0), 3.0, ROCKS)
    paint_disk(grid, res, origin, (100.0, 110.0), 6.0, POSIDONIA)

    lines = gen_lawnmower((20.0, 30.0, 140.0, 110.0), 40.0)
    return Scenario(
        seafloor=SeafloorConfig(LabelMask(grid), resolution=res, origin=origin),
        water=WATER_PRESETS["clear"],
        mission=MissionConfig(
            seed=1,
            explored_alpha=12.0,
            min_track_path=20.0,
            loop_close_radius=4.0,
        ),
        waypoints=lines * passes,
    )


def ring_meadow_scenario() -> Scenario:
    """One large circular meadow north of a single west-east transit."""
    res = 0.5
    grid = make_floor(120.0, 120.0, res)
    origin = (0.0, 0.0)
    paint_disk(grid, res, origin, (60.0, 78.0), 20.0, POSIDONIA)
    return Scenario(
        seafloor=SeafloorConfig(LabelMask(grid), resolution=res, origin=origin),
        water=WATER_PRESETS["clear"],
        mission=MissionConfig(
            seed=2,
            explored_alpha=12.0,
            min_track_path=60.0,
            loop_close_radius=5.0,
            boundary_lost_limit=120,
        ),
        waypoints=((10.0, 60.0), (110.0, 60.0)),
    )


def blocks_scenario() -> Scenario:
    """Four quadrant blocks, one per class, for segmentation scoring."""
    res = 0.5
    grid = make_floor(80.0, 80.0, res)
    origin = (0.0, 0.0)
    paint_rect(grid, res, origin, (40.0, 0.0, 80.0, 40.0), POSIDONIA)
    paint_rect(grid, res, origin, (0.0, 40.0, 40.0, 80.0), ROCKS)
    paint_rect(grid, res, origin, (40.0, 40.0, 80.0, 80.0), DEBRIS)
    floor = SeafloorConfig(
        LabelMask(grid), resolution=res, origin=origin, noise_amplitude=0.01
    )
    return Scenario(
        seafloor=floor,
        water=WATER_PRESETS["clear"],
        mission=MissionConfig(seed=3),
        waypoints=((10.0, 10.0), (70.0, 10.0)),
    )


def empty_scenario() -> Scenario:
    """Featureless sand flat; useful as a negative control."""
    res = 0.5
    grid = make_floor(100.0, 100.0, res)
    return Scenario(
        seafloor=SeafloorConfig(LabelMask(grid), resolution=res),
        water=WATER_PRESETS["clear"],
        mission=MissionConfig(seed=4),
        waypoints=gen_lawnmower((15.0, 30.0, 85.0, 70.0), 40.0),
    )


# every built-in scenario by the name the CLI takes
SCENARIO_PRESETS = {
    "five-patch": five_patch_scenario,
    "ring-meadow": ring_meadow_scenario,
    "blocks": blocks_scenario,
    "empty": empty_scenario,
}
