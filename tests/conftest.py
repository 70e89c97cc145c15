import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def ring_edge_frames():
    """(frame, truth) pairs at inspection altitude, each centred on the rim of
    the ring meadow (a 20 m disk about (60, 78)) and facing along it."""
    from posidonia_inspect import render, ring_meadow_scenario

    scenario = ring_meadow_scenario()
    frames = []
    for k in range(8):
        theta = k * math.pi / 4.0
        x, y = 60.0 + 20.0 * math.cos(theta), 78.0 + 20.0 * math.sin(theta)
        frames.append(render(scenario, x, y, theta + math.pi / 2.0,
                             scenario.mission.inspect_altitude))
    return frames
