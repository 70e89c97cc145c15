"""The benchmark's workloads: a scenario, a segmenter backend and a tick budget.

Each workload is built from the workload seed alone, which becomes the
scenario's ``MissionConfig.seed``.  ``survey-x2`` and ``ring-track`` are the
package presets; ``dense-field`` is generated here from the public
``presets`` helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from posidonia_inspect import (
    BaselineSegmenter,
    OracleSegmenter,
    Scenario,
    five_patch_scenario,
    ring_meadow_scenario,
)
from posidonia_inspect.geometry import label_components
from posidonia_inspect.imaging import WATER_PRESETS
from posidonia_inspect.presets import gen_lawnmower, make_floor, paint_disk
from posidonia_inspect.segmentation import POSIDONIA, ROCKS, SAND, LabelMask
from posidonia_inspect.world import MissionConfig, SeafloorConfig

__all__ = ["Workload", "WORKLOADS", "dense_field_scenario", "tick_budget", "with_seed"]


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return replace(scenario, mission=replace(scenario.mission, seed=seed))


def dense_field_scenario(
    seed: int,
    side: float = 200.0,
    cols: int = 6,
    rows: int = 5,
) -> Scenario:
    """Square floor with cols x rows disjoint disks under a 20 m lawnmower.

    Half the disks are meadow and half rocks, with radii spread evenly over
    3-6 m; the seed shuffles radii and classes over a cols x rows grid of
    cells and jitters each disk inside its cell.  A disk keeps gap/2 from
    its cell's edges, so any two disks are at least ``gap`` apart.
    """
    rng = np.random.default_rng(seed)
    res, origin, margin, gap = 0.5, (0.0, 0.0), 15.0, 8.0
    n = cols * rows
    radii = rng.permutation(np.linspace(3.0, 6.0, n))
    codes = rng.permutation([POSIDONIA] * (n // 2) + [ROCKS] * (n - n // 2))
    cell_w = (side - 2.0 * margin) / cols
    cell_h = (side - 2.0 * margin) / rows
    if min(cell_w, cell_h) < 2.0 * float(radii.max()) + gap:
        raise ValueError("cells too small for disjoint disks")

    grid = make_floor(side, side, res)
    disks: list[tuple[float, float, float]] = []
    for k in range(n):
        r = float(radii[k])
        jx = cell_w / 2.0 - r - gap / 2.0
        jy = cell_h / 2.0 - r - gap / 2.0
        cx = margin + (k % cols + 0.5) * cell_w + rng.uniform(-jx, jx)
        cy = margin + (k // cols + 0.5) * cell_h + rng.uniform(-jy, jy)
        for ox, oy, orad in disks:
            if math.hypot(cx - ox, cy - oy) < r + orad + gap:
                raise AssertionError("dense-field disks overlap")
        disks.append((cx, cy, r))
        paint_disk(grid, res, origin, (cx, cy), r, int(codes[k]))

    return Scenario(
        seafloor=SeafloorConfig(LabelMask(grid), resolution=res, origin=origin),
        water=WATER_PRESETS["clear"],
        mission=MissionConfig(
            seed=seed,
            explored_alpha=12.0,
            min_track_path=20.0,
            loop_close_radius=4.0,
        ),
        waypoints=gen_lawnmower((10.0, 10.0, side - 10.0, side - 10.0), 20.0),
    )


def tick_budget(scenario: Scenario) -> int:
    """Tick limit derived from the waypoint path and the patches on the floor.

    Twice the ticks to fly the waypoints at cruise speed plus, for each
    connected non-sand patch, a full descent and ascent, the inspection
    burst, one lap of the patch's equal-area circle at tracking speed and
    the lost-boundary allowance.
    """
    mission, vcfg, floor = scenario.mission, scenario.vehicle, scenario.seafloor
    dt = mission.tick_dt
    wps = scenario.waypoints
    path = sum(math.dist(a, b) for a, b in zip(wps, wps[1:]))
    ticks = path / (vcfg.cruise_speed * dt)

    labels, count = label_components(floor.label_map.data != SAND)
    climb = floor.seabed_depth - mission.inspect_altitude - mission.survey_depth
    dive = 2.0 * climb / (vcfg.max_heave * dt) + mission.inspect_frames + mission.boundary_lost_limit
    for cells in np.bincount(labels.ravel())[1 : count + 1]:
        radius = math.sqrt(cells / math.pi) * floor.resolution
        ticks += dive + 2.0 * math.pi * radius / (scenario.tracking.track_speed * dt)
    return math.ceil(2.0 * ticks)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], Scenario]  # (seed, small) -> scenario
    backend: Callable[[Scenario], object]


# BENCHMARK.json records why each workload was chosen
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "survey-x2",
            lambda seed, small: with_seed(five_patch_scenario(passes=2), seed),
            OracleSegmenter,
        ),
        Workload(
            "ring-track",
            lambda seed, small: with_seed(ring_meadow_scenario(), seed),
            lambda scenario: BaselineSegmenter(),
        ),
        Workload(
            "dense-field",
            lambda seed, small: (
                dense_field_scenario(seed, side=80.0, cols=2, rows=2)
                if small else dense_field_scenario(seed)
            ),
            OracleSegmenter,
        ),
    )
}
