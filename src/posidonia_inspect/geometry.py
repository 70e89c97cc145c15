"""Planar geometry: pixel contours, alpha shapes, explored-area maps.

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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import ndimage
from scipy.spatial import Delaunay, QhullError

from ._rules import number

__all__ = [
    "DegenerateInputError",
    "Polygon",
    "polygon_area",
    "label_components",
    "trace_component",
    "alpha_shape",
    "point_in_region",
    "ExploredMap",
    "record_exploration",
    "format_ring",
]


class DegenerateInputError(ValueError):
    """Raised for inputs without enough geometric content (collinear, < 3 points)."""


@dataclass(frozen=True)
class Polygon:
    """Closed polygon in pixel (col, row) or world (x, y) coordinates."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs an (N, 2) vertex array with N >= 3")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        verts = np.ascontiguousarray(verts)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)


def polygon_area(poly: Polygon) -> float:
    """Signed shoelace area; positive for counterclockwise rings."""
    x, y = poly.vertices.T
    # sum of x[i] * y[i + 1] - x[i + 1] * y[i], the wrap-around term written out
    cross = np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1])
    return 0.5 * float(cross + (x[-1] * y[0] - x[0] * y[-1]))


# ---------------------------------------------------------------------------
# Pixel contours

_EIGHT = np.ones((3, 3), dtype=int)

# Moore neighborhood in clockwise screen order (rows grow downward).
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}
# bit i of a pixel's neighbor byte is its i-th neighbor in reading order
_NEIGHBOR_BIT = {d: i for i, d in enumerate(sorted(_DIRS))}
_ISOLATED = 0xFF


def _moore_step_table() -> bytes:
    """Entry ``neighbors * 8 + back``: the walk's next move from a pixel.

    ``neighbors`` is the pixel's neighbor byte and ``back`` the _DIRS index
    of its backtrack pixel.  The walk turns clockwise from the backtrack to
    the first foreground neighbor, and the last background pixel it passed
    becomes the new backtrack.  An entry packs the step direction in bits
    3-5 and the new backtrack direction, seen from the pixel stepped to, in
    bits 0-2; _ISOLATED marks a pixel without foreground neighbors.
    """
    table = bytearray([_ISOLATED]) * (256 * 8)
    for neighbors in range(1, 256):
        for back in range(8):
            step = next(
                d for d in ((back + k) % 8 for k in range(1, 9))
                if neighbors >> _NEIGHBOR_BIT[_DIRS[d]] & 1
            )
            (pr, pc), (sr, sc) = _DIRS[(step - 1) % 8], _DIRS[step]
            table[neighbors * 8 + back] = step << 3 | _DIR_INDEX[(pr - sr, pc - sc)]
    return bytes(table)


_MOORE_STEP = _moore_step_table()


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labels (0 = background) and component count."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    labels, count = ndimage.label(mask != 0, structure=_EIGHT)
    return labels, int(count)


def trace_component(labels: np.ndarray, lab: int) -> Polygon:
    """Trace the outer boundary ring of one labeled component.

    Moore-neighbor walk over pixels of the component, starting at its first
    pixel in row-major order with the backtrack to its west.  The walk state
    is the (pixel, backtrack) pair; the walk is deterministic in that state, so
    the ring is the cycle the state sequence falls into.  Components of one or
    two pixels yield degenerate rings padded to three vertices.

    The walk runs on the component's bounding box with a one-pixel empty
    border, keyed by flat index: each pixel carries one byte of its eight
    neighbors, and _MOORE_STEP turns that byte and the backtrack direction
    into the step.
    """
    component = labels == lab
    rows = np.flatnonzero(component.any(axis=1))
    if rows.size == 0:
        raise ValueError(f"no pixels with label {lab}")
    cols = np.flatnonzero(component.any(axis=0))
    top, left = int(rows[0]), int(cols[0])
    box = np.zeros((rows[-1] - top + 3, cols[-1] - left + 3), dtype=np.uint8)
    box[1:-1, 1:-1] = component[top:rows[-1] + 1, left:cols[-1] + 1]
    # neighbor bytes: three cells above, west and east, three cells below
    above = box[:, :-2] | box[:, 1:-1] << 1 | box[:, 2:] << 2
    sides = box[1:-1, :-2] | box[1:-1, 2:] << 1
    moore = np.zeros_like(box)
    moore[1:-1, 1:-1] = above[:-2] | sides << 3 | above[2:] << 5
    moore = moore.tobytes()
    stride = box.shape[1]
    offsets = [dr * stride + dc for dr, dc in _DIRS]

    flat = stride + int(np.argmax(box[1]))  # the first pixel of the top row
    back = 6  # west: scan order guarantees it is background
    seen: dict[int, None] = {}  # every state so far, in walk order
    while (state := flat * 8 + back) not in seen:
        seen[state] = None
        move = _MOORE_STEP[moore[flat] * 8 + back]
        if move == _ISOLATED:
            break
        flat += offsets[move >> 3]
        back = move & 7
    walk = list(seen)
    ring = walk[walk.index(state):]
    ring += ring[:1] * (3 - len(ring))  # degenerate 1- or 2-pixel blobs

    r, c = np.divmod(np.array(ring) >> 3, stride)
    poly = Polygon(np.column_stack((c + (left - 1), r + (top - 1))))
    if polygon_area(poly) < 0.0:
        poly = Polygon(poly.vertices[::-1])
    return poly


# ---------------------------------------------------------------------------
# Alpha shapes

def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array-like")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInputError("points must be finite")
    return pts


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
    number("alpha", alpha, 0, lo_open=True)
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
        rings.append(Polygon(pts[loop[:-1]]))
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
    committed_regions: tuple[Polygon, ...] = ()

    def __post_init__(self) -> None:
        number("alpha", self.alpha, 0, lo_open=True)

    @cached_property
    def alpha_rings(self) -> tuple[Polygon, ...]:
        """Alpha shape of the point cloud, triangulated at the first read.

        A map recorded several times before anyone reads it is triangulated
        once; a nearly collinear cloud has no rings.
        """
        cloud = np.unique(np.array(self.points, dtype=np.float64).reshape(-1, 2), axis=0)
        if not _has_spread(cloud):
            return ()
        return tuple(alpha_shape(cloud, self.alpha))

    @property
    def polygons(self) -> tuple[Polygon, ...]:
        return self.alpha_rings + self.committed_regions

    def add_region(self, region: Polygon) -> "ExploredMap":
        return replace(self, committed_regions=self.committed_regions + (region,))


def record_exploration(explored: ExploredMap, points) -> ExploredMap:
    """Append explored points; alpha_rings follows from them at its first read."""
    added = tuple((float(x), float(y)) for x, y in points)
    return replace(explored, points=explored.points + added)


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

def format_ring(poly: Polygon) -> str:
    pairs = " ".join(f"({x:.6f},{y:.6f})" for x, y in poly.vertices)
    return f"ring: {pairs}"
