"""Planar geometry: pixel contours, hulls, alpha shapes, explored-area maps.

Conventions
-----------
Polygons are vertex sequences closed implicitly (last vertex connects back to
the first).  Coordinates are (x, y) pairs; for pixel-frame polygons x is the
column and y the row, treated as ordinary plane axes.  Counterclockwise means
positive shoelace area under that reading.  Alpha-shape output keeps the
region interior on the left of each ring, so outer rings are counterclockwise
and hole rings clockwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import Delaunay, QhullError

__all__ = [
    "DegenerateInputError",
    "Polygon",
    "polygon_area",
    "label_components",
    "trace_component",
    "trace_contours",
    "convex_hull",
    "alpha_shape",
    "point_in_region",
    "ExploredMap",
    "record_exploration",
    "format_ring",
    "parse_ring",
]


class DegenerateInputError(ValueError):
    """Raised for inputs without enough geometric content (collinear, < 3 points)."""


@dataclass(frozen=True)
class Polygon:
    """Closed polygon; frame is "pixel" or "world"."""

    vertices: np.ndarray
    frame: str = "world"

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs an (N, 2) vertex array with N >= 3")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        if self.frame not in ("pixel", "world"):
            raise ValueError(f"unknown polygon frame {self.frame!r}")
        verts = np.ascontiguousarray(verts)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    def __len__(self) -> int:
        return self.vertices.shape[0]


def polygon_area(poly: Polygon) -> float:
    """Signed shoelace area; positive for counterclockwise rings."""
    v = poly.vertices
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# Pixel contours

_EIGHT = np.ones((3, 3), dtype=int)

# Moore neighborhood in clockwise screen order (rows grow downward).
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labels (0 = background) and component count."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    labels, count = ndimage.label(mask != 0, structure=_EIGHT)
    return labels, int(count)


def trace_component(labels: np.ndarray, lab: int) -> Polygon:
    """Trace the outer boundary ring of one labeled component.

    Moore-neighbor walk over pixels of the component.  The walk state is the
    (pixel, backtrack) pair; the walk is deterministic in that state, so the
    ring is the cycle the state sequence falls into.  Components of one or two
    pixels yield degenerate rings padded to three vertices.
    """
    rows, cols = labels.shape
    pixels = np.argwhere(labels == lab)
    if pixels.size == 0:
        raise ValueError(f"no pixels with label {lab}")
    start = (int(pixels[0][0]), int(pixels[0][1]))

    def fg(r: int, c: int) -> bool:
        return 0 <= r < rows and 0 <= c < cols and labels[r, c] == lab

    ring: list[tuple[int, int]] = []
    seen: dict[tuple[int, int, int, int], int] = {}
    p = start
    b = (start[0], start[1] - 1)  # scan order guarantees this is background
    while True:
        key = (p[0], p[1], b[0], b[1])
        if key in seen:
            ring = ring[seen[key]:]
            break
        seen[key] = len(ring)
        ring.append(p)
        bi = _DIR_INDEX[(b[0] - p[0], b[1] - p[1])]
        nxt = None
        for k in range(1, 9):
            dr, dc = _DIRS[(bi + k) % 8]
            q = (p[0] + dr, p[1] + dc)
            if fg(q[0], q[1]):
                nxt = q
                break
            b = q
        if nxt is None:  # isolated pixel
            break
        p = nxt

    verts = [(float(c), float(r)) for r, c in ring]
    while len(verts) < 3:  # degenerate 1- or 2-pixel blobs
        verts.append(verts[0])
    poly = Polygon(np.array(verts), frame="pixel")
    if polygon_area(poly) < 0.0:
        poly = Polygon(poly.vertices[::-1], frame="pixel")
    return poly


def trace_contours(mask: np.ndarray) -> list[Polygon]:
    """One outer boundary polygon per 8-connected foreground component.

    Rings are counterclockwise (positive shoelace in (x=col, y=row) axes) and
    holes are not reported.  The vertex set of each ring equals the set of
    component pixels that touch the outside through a 4-neighbor.
    """
    labels, count = label_components(mask)
    return [trace_component(labels, lab) for lab in range(1, count + 1)]


# ---------------------------------------------------------------------------
# Hulls and alpha shapes

def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array-like")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInputError("points must be finite")
    return pts


def convex_hull(points) -> Polygon:
    """Minimal convex hull polygon, counterclockwise, collinear points dropped."""
    pts = _as_points(points)
    uniq = np.unique(pts, axis=0)
    if uniq.shape[0] < 3:
        raise DegenerateInputError("convex hull needs at least 3 distinct points")
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    p = uniq[order]

    def cross(o, a, b) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for q in p:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0.0:
            lower.pop()
        lower.append(q)
    upper: list[np.ndarray] = []
    for q in p[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0.0:
            upper.pop()
        upper.append(q)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInputError("points are collinear")
    return Polygon(np.array(hull), frame="world")


def _delaunay(pts: np.ndarray) -> Delaunay:
    try:
        return Delaunay(pts)
    except QhullError:
        # Degenerate layouts (collinear, cocircular) get a tiny deterministic
        # jitter; the seed is fixed so results stay reproducible.
        span = float(np.ptp(pts, axis=0).max()) or 1.0
        rng = np.random.default_rng(0x5EED)
        jitter = (rng.random(pts.shape) - 0.5) * 2e-9 * span
        try:
            return Delaunay(pts + jitter)
        except QhullError as exc:
            raise DegenerateInputError(f"triangulation failed: {exc}") from exc


def _circumradii(pts: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    a = pts[simplices[:, 0]]
    b = pts[simplices[:, 1]]
    c = pts[simplices[:, 2]]
    la = np.linalg.norm(b - c, axis=1)
    lb = np.linalg.norm(a - c, axis=1)
    lc = np.linalg.norm(a - b, axis=1)
    area2 = np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (la * lb * lc) / (2.0 * area2)
    r[area2 == 0.0] = np.inf
    return r


def alpha_shape(points, alpha: float) -> list[Polygon]:
    """Alpha shape: Delaunay triangles with circumradius <= alpha, chained.

    alpha is the probing-disk radius.  Boundary edges (edges of exactly one
    kept triangle) are emitted with the kept region on their left and chained
    into closed rings, so outer rings come out counterclockwise and holes
    clockwise.  May return several disjoint rings, or none when alpha is
    smaller than every circumradius.
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise ValueError("alpha must be a positive finite number")
    pts = _as_points(points)
    pts = np.unique(pts, axis=0)
    if pts.shape[0] < 3:
        raise DegenerateInputError("alpha shape needs at least 3 distinct points")
    tri = _delaunay(pts)
    if tri.simplices.size == 0:
        raise DegenerateInputError("points are collinear")
    keep = tri.simplices[_circumradii(pts, tri.simplices) <= alpha]
    if keep.shape[0] == 0:
        return []

    # Orient every kept triangle counterclockwise, then collect directed
    # edges; edges shared by two triangles appear in both directions and
    # cancel, leaving the boundary with interior on the left.
    a, b, c = keep[:, 0], keep[:, 1], keep[:, 2]
    det = ((pts[b, 0] - pts[a, 0]) * (pts[c, 1] - pts[a, 1])
           - (pts[b, 1] - pts[a, 1]) * (pts[c, 0] - pts[a, 0]))
    flip = det < 0.0
    b2 = np.where(flip, c, b)
    c2 = np.where(flip, b, c)
    edges = set()
    for u, v in ((a, b2), (b2, c2), (c2, a)):
        edges.update(zip(u.tolist(), v.tolist()))
    boundary = sorted(e for e in edges if (e[1], e[0]) not in edges)

    succ: dict[int, list[int]] = {}
    for u, v in boundary:
        succ.setdefault(u, []).append(v)
    for outs in succ.values():
        outs.sort()

    rings: list[Polygon] = []
    unused = set(boundary)
    for u0, v0 in boundary:
        if (u0, v0) not in unused:
            continue
        loop = [u0]
        u, v = u0, v0
        while True:
            unused.discard((u, v))
            loop.append(v)
            if v == u0:
                break
            u, v = v, next(w for w in succ[v] if (v, w) in unused)
        rings.append(Polygon(pts[loop[:-1]], frame="world"))
    return rings


# ---------------------------------------------------------------------------
# Point-in-region

def _on_boundary(pt: np.ndarray, verts: np.ndarray, tol: float) -> bool:
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    ap = pt - a
    seg_len2 = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.where(seg_len2 > 0, np.einsum("ij,ij->i", ap, ab) / np.where(seg_len2 > 0, seg_len2, 1.0), 0.0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    d2 = np.einsum("ij,ij->i", pt - closest, pt - closest)
    return bool(np.any(d2 <= tol * tol))


def point_in_region(point, polygons) -> bool:
    """Even-odd ray-cast membership test; boundary points count as inside.

    Crossing parity is accumulated over all rings together, so a point inside
    an outer ring but also inside a hole ring ends up outside.
    """
    pt = np.asarray(point, dtype=np.float64)
    if pt.shape != (2,) or not np.all(np.isfinite(pt)):
        raise ValueError("point must be a finite (x, y) pair")
    if isinstance(polygons, Polygon):
        polygons = [polygons]
    crossings = 0
    for poly in polygons:
        verts = poly.vertices
        scale = max(1.0, float(np.abs(verts).max()), float(np.abs(pt).max()))
        if _on_boundary(pt, verts, 1e-9 * scale):
            return True
        x1, y1 = verts[:, 0], verts[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        # only edges that straddle the ray's height cross it (and have y2 != y1)
        straddles = (y1 > pt[1]) != (y2 > pt[1])
        x1, y1, x2, y2 = x1[straddles], y1[straddles], x2[straddles], y2[straddles]
        xi = x1 + (pt[1] - y1) * (x2 - x1) / (y2 - y1)
        crossings += int(np.count_nonzero(pt[0] < xi))
    return crossings % 2 == 1


# ---------------------------------------------------------------------------
# Explored map

def _has_spread(pts: np.ndarray) -> bool:
    # True when points are not all (nearly) collinear.
    if pts.shape[0] < 3:
        return False
    centered = pts - pts.mean(axis=0)
    span = float(np.abs(centered).max()) or 1.0
    sv = np.linalg.svd(centered / span, compute_uv=False)
    return bool(sv[-1] > 1e-12)


@dataclass(frozen=True)
class ExploredMap:
    """Accumulated exploration cloud with its alpha-shape coverage polygons.

    polygons = alpha_rings, the alpha shape of the point cloud, followed by
    committed_regions, closed boundary rings adopted wholesale.  Coverage of
    every recorded point requires alpha to be comparable to the local point
    spacing; widely separated lone points fall outside all polygons.
    """

    alpha: float
    points: tuple[tuple[float, float], ...] = ()
    alpha_rings: tuple[Polygon, ...] = ()
    committed_regions: tuple[Polygon, ...] = ()

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise ValueError("alpha must be a positive finite number")

    @property
    def polygons(self) -> tuple[Polygon, ...]:
        return self.alpha_rings + self.committed_regions

    def add_region(self, region: Polygon) -> "ExploredMap":
        return replace(self, committed_regions=self.committed_regions + (region,))


def record_exploration(explored: ExploredMap, surface_points, bottom_point) -> ExploredMap:
    """Append surface samples and a projected bottom point, rebuild alpha_rings."""
    added = [(float(x), float(y)) for x, y in surface_points]
    bx, by = bottom_point
    added.append((float(bx), float(by)))
    points = explored.points + tuple(added)
    cloud = np.unique(np.array(points, dtype=np.float64), axis=0)
    if _has_spread(cloud):
        rebuilt = tuple(alpha_shape(cloud, explored.alpha))
    else:
        rebuilt = ()
    return replace(explored, points=points, alpha_rings=rebuilt)


def explored_covers(explored: ExploredMap, point) -> bool:
    """Whether a point is covered by the explored map.

    The alpha-shape rings form one even-odd complex (inner rings are
    holes), but committed regions are independent coverage areas that may
    overlap it, so they are tested one by one: parity across overlapping
    regions would cancel where coverage is doubled.
    """
    if explored.alpha_rings and point_in_region(point, list(explored.alpha_rings)):
        return True
    return any(point_in_region(point, [r]) for r in explored.committed_regions)


# ---------------------------------------------------------------------------
# Ring text format: one polygon per line

_RING_RE = re.compile(r"^ring:((?:\s+\(-?[0-9.eE+-]+,-?[0-9.eE+-]+\))+)\s*$")


def format_ring(poly: Polygon) -> str:
    pairs = " ".join(f"({x:.6f},{y:.6f})" for x, y in poly.vertices)
    return f"ring: {pairs}"


def parse_ring(line: str, frame: str = "world") -> Polygon:
    m = _RING_RE.match(line.strip())
    if not m:
        raise ValueError(f"not a ring line: {line!r}")
    pairs = re.findall(r"\((-?[0-9.eE+-]+),(-?[0-9.eE+-]+)\)", m.group(1))
    verts = np.array([(float(x), float(y)) for x, y in pairs])
    return Polygon(verts, frame=frame)
