"""Output checks for one mission: event grammar, tick budget and artifact digest."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

__all__ = [
    "ARTIFACTS",
    "HEALTHY_GRAMMAR",
    "artifact_digests",
    "check_mission",
    "event_word",
    "load_recorded",
]

# the four files write_mission_log produces, in digest order
ARTIFACTS = ("trajectory.csv", "events.txt", "polygons.rings", "map.ppm")

TOKENS = {
    "PATCH_DETECTED": "PD",
    "DESCEND_START": "DS",
    "POSIDONIA_FOUND": "PF",
    "TRACK_CLOSED": "TC",
    "TRACK_LOST": "TL",
    "ROCKS_ONLY": "RO",
    "ASCEND_START": "AS",
    "PATCH_SKIPPED_EXPLORED": "SKIP",
    "WAYPOINT_REACHED": "WR",
    "MISSION_COMPLETE": "MC",
    "SEGMENTER_ERROR": "SE",
    "TRACK_START": "TS",
}

# the README's healthy run: (PD DS (PF (TC|TL) | RO) AS | SKIP | WR)* MC
HEALTHY_GRAMMAR = re.compile(r"(?:(?:PD DS (?:PF (?:TC|TL)|RO) AS|SKIP|WR) )*MC")

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def event_word(kinds) -> str:
    """Space-separated grammar tokens for a sequence of event kinds."""
    return " ".join(TOKENS.get(kind, kind) for kind in kinds)


def artifact_digests(out_dir) -> dict[str, str]:
    """sha256 of each artifact, plus ``all`` over the names and bytes in order."""
    out = Path(out_dir)
    combined = hashlib.sha256()
    digests = {}
    for name in ARTIFACTS:
        data = (out / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        combined.update(name.encode() + b"\0" + data)
    digests["all"] = combined.hexdigest()
    return digests


def load_recorded() -> dict[str, dict[str, str]]:
    """Recorded ``all`` digests as {workload: {seed: digest}}."""
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check_mission(log, budget: int, digest: str, expected: list[str]) -> list[str]:
    """Problems with one mission's output; empty when it passes.

    ``expected`` holds the digests this mission must equal: the recorded one
    for its workload and seed, if any, and the first mission of the run.
    """
    problems = []
    word = event_word(e.kind for e in log.events)
    if HEALTHY_GRAMMAR.fullmatch(word) is None:
        problems.append(f"event word outside the healthy grammar: {word}")
    if not log.completed or log.ticks > budget:
        problems.append(f"not complete within {budget} ticks (ran {log.ticks})")
    for want in expected:
        if digest != want:
            problems.append(f"artifact digest {digest[:16]} != expected {want[:16]}")
    return problems
