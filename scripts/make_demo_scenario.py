#!/usr/bin/env python3
"""Export the built-in scenarios as editable files plus preview frames.

Each preset becomes a <name>.scn text file with its label map as a PGM
alongside, ready for `posinspect survey-run --scenario <file>`.  A preview
PPM rendered from above the first waypoint shows what the camera sees.

    python3 scripts/make_demo_scenario.py --out demo
"""

from __future__ import annotations

import argparse
from pathlib import Path

from posidonia_inspect.imaging import write_pnm
from posidonia_inspect.presets import SCENARIO_PRESETS
from posidonia_inspect.world import render, save_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument("--altitude", type=float, default=13.0,
                        help="preview camera altitude in metres")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for preset, factory in SCENARIO_PRESETS.items():
        name = preset.replace("-", "_")
        scenario = factory()
        save_scenario(scenario, out / f"{name}.scn")
        x, y = scenario.waypoints[0]
        frame, _ = render(scenario, x, y, 0.0, args.altitude)
        write_pnm(frame, out / f"{name}_preview.ppm")
        print(f"{name}: {len(scenario.waypoints)} waypoints, "
              f"map {scenario.seafloor.label_map.data.shape}, wrote scn+pgm+preview")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
