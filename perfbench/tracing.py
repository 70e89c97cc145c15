"""Spans around the package's layer calls, recorded from outside the package.

The recorder wraps the module-level names that ``mission``, ``world`` and the
layer modules look up at call time, plus the segmenter backend object, so a
traced mission runs unmodified package code.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

__all__ = [
    "LAYER_PATCHES",
    "Span",
    "SpanRecorder",
    "TracedBackend",
    "covered_ns",
    "installed",
    "self_times",
    "summarize_spans",
    "tick_durations",
]

# (module under posidonia_inspect, name it looks up, span name)
LAYER_PATCHES = (
    ("mission", "render", "world.render"),
    ("mission", "detect_dark_patches", "darkpatch.detect_dark_patches"),
    ("mission", "summarize", "segmentation.summarize"),
    ("mission", "meadow_boundary", "segmentation.meadow_boundary"),
    ("mission", "record_exploration", "geometry.record_exploration"),
    ("mission", "explored_covers", "geometry.explored_covers"),
    ("mission", "step", "vehicle.step"),
    ("mission", "waypoint_guidance", "vehicle.waypoint_guidance"),
    ("mission", "boundary_guidance", "vehicle.boundary_guidance"),
    ("mission", "run_tick", "mission.run_tick"),
    ("world", "pixel_grid_world", "camera.pixel_grid_world"),
    ("world", "classes_at", "world.classes_at"),
    ("world", "attenuate", "imaging.attenuate"),
    ("world", "add_speckle", "imaging.add_speckle"),
    ("darkpatch", "label_components", "darkpatch.label_components"),
    ("segmentation", "to_hsv", "segmentation.to_hsv"),
    ("segmentation", "majority_smooth", "segmentation.majority_smooth"),
    ("segmentation", "trace_component", "segmentation.trace_component"),
    ("geometry", "alpha_shape", "geometry.alpha_shape"),
)


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 for none
    mission: int


class SpanRecorder:
    """Collects nested spans from one thread; ``mission`` tags new spans.

    Spans are kept column-wise in typed arrays, which the garbage collector
    never scans, so a long traced run does not slow its own later missions.
    """

    def __init__(self) -> None:
        self.mission = -1
        self._ids: dict[str, int] = {}
        self._cols = {c: array("q") for c in ("name", "start", "end", "parent", "mission")}
        self._open: list[int] = []

    @property
    def spans(self) -> list[Span]:
        c, names = self._cols, list(self._ids)
        return [
            Span(names[n], start, end, parent, mission)
            for n, start, end, parent, mission in zip(
                c["name"], c["start"], c["end"], c["parent"], c["mission"])
        ]

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        c, open_, clock = self._cols, self._open, time.perf_counter_ns
        names, starts, ends, parents, missions = (
            c["name"], c["start"], c["end"], c["parent"], c["mission"])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_[-1] if open_ else -1)
            missions.append(self.mission)
            ends.append(0)
            open_.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()

        return traced


class TracedBackend:
    """Segmenter proxy: ``segment`` is spanned, everything else delegates."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self.segment = recorder.wrap("segmentation.segment", inner.segment)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def installed(recorder: SpanRecorder):
    """Swap each name in LAYER_PATCHES for its spanned wrapper; restore on exit.

    A name the package no longer looks up (say, a render that stops calling
    ``attenuate``) is reported on stderr and left out, so its layer reads
    zero instead of the traced run failing.
    """
    undo = []
    try:
        for module_name, attr, span_name in LAYER_PATCHES:
            module = importlib.import_module(f"posidonia_inspect.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found, {span_name} untraced",
                      file=sys.stderr)
                continue
            setattr(module, attr, recorder.wrap(span_name, original))
            undo.append((module, attr, original))
        yield recorder
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.end - s.start - covered_ns(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize_spans(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, each the median over missions."""
    selfs = self_times(spans)
    per_mission = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for s, own in zip(spans, selfs):
        acc = per_mission[s.mission][s.name]
        acc[0] += 1
        acc[1] += s.end - s.start
        acc[2] += own
    names = sorted({name for layers in per_mission.values() for name in layers})
    summary = {}
    for name in names:
        rows = [layers.get(name, [0, 0, 0]) for layers in per_mission.values()]
        summary[name] = {
            "calls": statistics.median(r[0] for r in rows),
            "total_s": statistics.median(r[1] for r in rows) / 1e9,
            "self_s": statistics.median(r[2] for r in rows) / 1e9,
        }
    return summary


def tick_durations(spans) -> list[float]:
    """Host µs per tick: from one render call under run_mission to the next.

    A mission's last tick ends where its run_mission span ends.
    """
    roots = {i: s for i, s in enumerate(spans) if s.name == "mission.run_mission"}
    starts = defaultdict(list)
    for s in spans:
        if s.name == "world.render" and s.parent in roots:
            starts[s.parent].append(s.start)
    out = []
    for i, ticks in starts.items():
        edges = ticks + [roots[i].end]
        out += [(b - a) / 1e3 for a, b in zip(edges, edges[1:])]
    return out
