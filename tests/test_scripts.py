"""The example scripts run end to end from a checkout and write their files."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_five_patch_survey(tmp_path):
    result = run_script("run_five_patch_survey.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "completed=True" in result.stdout
    for name in ("trajectory.csv", "events.txt", "polygons.rings", "map.ppm"):
        assert (tmp_path / name).stat().st_size > 0


def test_make_demo_scenario(tmp_path):
    result = run_script("make_demo_scenario.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for preset in ("five_patch", "ring_meadow", "blocks", "empty"):
        for suffix in (".scn", "_map.pgm", "_preview.ppm"):
            assert (tmp_path / f"{preset}{suffix}").stat().st_size > 0
