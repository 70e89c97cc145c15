"""Slow, independent re-derivations used to cross-check the library.

Everything here is written from first principles with a different algorithm
than the implementation under test: O(n^3) edge-test hull, winding-number
membership, a row-vectorised even-odd region mask, flood-fill boundary sets,
and set-based IoU counting.  The
rendering references keep the straightforward per-frame formulas (fancy-index
class lookup, per-pixel noise, last-axis reductions and broadcasting) that the
library computes with cheaper array shapes; they must agree byte for byte.
The HSV, majority-vote, contour, shoelace, meadow-pick and
box-classification references are the library's earlier kernels, kept as
they were so the faster ones can be compared with them bytewise.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from scipy import ndimage

from posidonia_inspect.camera import pixel_grid_world
from posidonia_inspect.geometry import Polygon
from posidonia_inspect.imaging import Raster, add_speckle
from posidonia_inspect.segmentation import _BOXES, NUM_CLASSES, POSIDONIA
from posidonia_inspect.world import _cell_noise, _pose_seed


def brute_hull_vertices(points: np.ndarray) -> set[tuple[float, float]]:
    """Hull vertex set via the O(n^3) test: an edge (i, j) is on the hull iff
    every other point lies strictly on its left."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    verts: set[tuple[float, float]] = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[j] - pts[i]
            rel = pts - pts[i]
            cross = d[0] * rel[:, 1] - d[1] * rel[:, 0]
            mask = np.ones(n, dtype=bool)
            mask[[i, j]] = False
            if np.all(cross[mask] > 0.0):
                verts.add((float(pts[i][0]), float(pts[i][1])))
                verts.add((float(pts[j][0]), float(pts[j][1])))
    return verts


def brute_hull_area(points: np.ndarray) -> float:
    """Hull area from the brute-force vertex set, ordered by angle."""
    verts = np.array(sorted(brute_hull_vertices(points)))
    center = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    v = verts[np.argsort(ang)]
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def winding_inside(point, vertices, include_boundary: bool = True) -> bool:
    """Membership by accumulating signed angles around the point."""
    px, py = float(point[0]), float(point[1])
    verts = np.asarray(vertices, dtype=np.float64)
    n = verts.shape[0]
    # the library's on-edge rule: within 1e-9 * max(1, |ring coords|, |point|)
    tol = 1e-9 * max(1.0, float(np.abs(verts).max()), abs(px), abs(py))
    total = 0.0
    for i in range(n):
        ax, ay = verts[i] - (px, py)
        bx, by = verts[(i + 1) % n] - (px, py)
        if _on_segment(px, py, verts[i], verts[(i + 1) % n], tol):
            return include_boundary
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi  # ~2*pi inside, ~0 outside


def _on_segment(px, py, a, b, tol: float) -> bool:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        t = 0.0
    else:
        t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / len2))
    cx, cy = ax + t * dx, ay + t * dy
    return (px - cx) ** 2 + (py - cy) ** 2 <= tol ** 2


def outer_boundary_pixels(mask: np.ndarray) -> set[tuple[int, int]]:
    """Foreground pixels 4-adjacent to the background region that touches the
    frame, found by flood fill over a padded copy.  Returned as (x, y)."""
    mask = np.asarray(mask) != 0
    rows, cols = mask.shape
    padded = np.zeros((rows + 2, cols + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    outside = np.zeros_like(padded)
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    outside[0, 0] = True
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < rows + 2 and 0 <= cc < cols + 2 and not outside[rr, cc] and not padded[rr, cc]:
                outside[rr, cc] = True
                queue.append((rr, cc))
    result: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            if not mask[r, c]:
                continue
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if outside[r + 1 + dr, c + 1 + dc]:
                    result.add((c, r))
                    break
    return result


def count_components_8(mask: np.ndarray) -> int:
    """8-connected component count by BFS flood fill."""
    mask = np.asarray(mask) != 0
    rows, cols = mask.shape
    seen = np.zeros_like(mask)
    count = 0
    for r0 in range(rows):
        for c0 in range(cols):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            count += 1
            queue = deque([(r0, c0)])
            seen[r0, c0] = True
            while queue:
                r, c = queue.popleft()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            queue.append((rr, cc))
    return count


def iou_by_sets(gt: np.ndarray, pred: np.ndarray, cls: int) -> float:
    """IoU for one class by enumerating pixel index sets."""
    g = {i for i, v in enumerate(np.asarray(gt).ravel().tolist()) if v == cls}
    p = {i for i, v in enumerate(np.asarray(pred).ravel().tolist()) if v == cls}
    union = g | p
    if not union:
        return 1.0
    return len(g & p) / len(union)


def mean_iou_by_sets(pairs, classes) -> float:
    """Mean over (pair, class) elements where the class shows up somewhere."""
    vals = []
    for gt, pred in pairs:
        for cls in classes:
            g = np.asarray(gt)
            p = np.asarray(pred)
            if (g == cls).any() or (p == cls).any():
                vals.append(iou_by_sets(g, p, cls))
    return sum(vals) / len(vals) if vals else 1.0


_EDGE_TOL = 1e-9


def reference_region_mask(pts: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd interior plus edge pixels for one polygon, as a bool grid."""
    xx, yy = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    inside = np.zeros((height, width), dtype=bool)
    boundary = np.zeros_like(inside)
    scale = max(1.0, float(np.abs(pts).max()))
    n = pts.shape[0]
    for k in range(n):
        x1, y1 = pts[k]
        x2, y2 = pts[(k + 1) % n]
        # only rows between the edge's end heights cross it, so y2 != y1 there
        crosses = (y1 > yy) != (y2 > yy)
        if crosses.any():
            xi = x1 + (yy[crosses] - y1) * (x2 - x1) / (y2 - y1)
            inside[crosses] ^= xx[crosses] < xi
        # distance from pixel centers to the segment
        ex, ey = x2 - x1, y2 - y1
        len2 = ex * ex + ey * ey
        if len2 == 0.0:
            d2 = (xx - x1) ** 2 + (yy - y1) ** 2
        else:
            t = np.clip(((xx - x1) * ex + (yy - y1) * ey) / len2, 0.0, 1.0)
            d2 = (xx - (x1 + t * ex)) ** 2 + (yy - (y1 + t * ey)) ** 2
        boundary |= d2 <= (_EDGE_TOL * scale) ** 2
    return inside | boundary


def reference_classes_at(seafloor, wx, wy) -> np.ndarray:
    """Class codes by masked fancy indexing into the map; off-map is sand."""
    x0, y0 = seafloor.origin
    ix = np.floor((np.asarray(wx, dtype=float) - x0) / seafloor.resolution).astype(np.int64)
    iy = np.floor((np.asarray(wy, dtype=float) - y0) / seafloor.resolution).astype(np.int64)
    grid = seafloor.label_map.data
    h, w = grid.shape
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    codes = np.zeros(ix.shape, dtype=np.uint8)
    codes[inside] = grid[iy[inside], ix[inside]]
    return codes


def reference_attenuate(data: np.ndarray, water, path_length: float) -> np.ndarray:
    """clip(in * exp(-cL) + veil * (1 - exp(-cL))) broadcast over the channel axis."""
    att = np.asarray(water.attenuation, dtype=np.float64)
    veil = np.asarray(water.backscatter_veil, dtype=np.float64)
    if data.shape[2] == 1:
        att = np.array([att.mean()])
        veil = np.array([veil.mean()])
    decay = np.exp(-att * path_length)
    return np.clip(data * decay + veil * (1.0 - decay), 0.0, 1.0)


def reference_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hue, saturation, value) with max/min taken as last-axis reductions."""
    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    cmax = rgb.max(axis=2)
    cmin = rgb.min(axis=2)
    delta = cmax - cmin
    sat = np.zeros_like(cmax)
    np.divide(delta, cmax, out=sat, where=cmax > 0.0)
    hue = np.zeros_like(cmax)
    m_r = (cmax == r) & (delta > 0.0)
    m_g = (cmax == g) & (delta > 0.0) & ~m_r
    m_b = (delta > 0.0) & ~m_r & ~m_g
    hue[m_r] = 60.0 * np.mod((g[m_r] - b[m_r]) / delta[m_r], 6.0)
    hue[m_g] = 60.0 * ((b[m_g] - r[m_g]) / delta[m_g] + 2.0)
    hue[m_b] = 60.0 * ((r[m_b] - g[m_b]) / delta[m_b] + 4.0)
    return np.mod(hue, 360.0), sat, cmax


def reference_box_classes(rgb: np.ndarray) -> np.ndarray:
    """Unsmoothed baseline classes, box by box in priority order: each box
    selects only pixels no earlier box took, a box whose hue_lo exceeds its
    hue_hi wraps through 0, and pixels no box takes stay sand (0)."""
    hue, sat, val = reference_hsv(rgb)
    out = np.zeros(hue.shape, dtype=np.uint8)
    free = np.ones(hue.shape, dtype=bool)
    for code, (h0, h1, s0, s1, v0, v1) in _BOXES:
        if h0 <= h1:
            ok = (hue >= h0) & (hue <= h1)
        else:
            ok = (hue >= h0) | (hue <= h1)
        ok &= (sat >= s0) & (sat <= s1)
        ok &= (val >= v0) & (val <= v1)
        hit = ok & free
        out[hit] = code
        free &= ~hit
    return out


def reference_render(scenario, x, y, yaw, altitude) -> tuple[np.ndarray, np.ndarray]:
    """(image, class codes) of one frame, every pixel colored from scratch:
    class lookup, palette, per-pixel cell noise, attenuation, then speckle."""
    floor = scenario.seafloor
    gx, gy = pixel_grid_world(scenario.camera, x, y, yaw, altitude)
    codes = reference_classes_at(floor, gx, gy)
    img = np.asarray(floor.colors, dtype=float)[codes]
    if floor.noise_amplitude > 0.0:
        x0, y0 = floor.origin
        ix = np.floor((gx - x0) / floor.resolution).astype(np.int64)
        iy = np.floor((gy - y0) / floor.resolution).astype(np.int64)
        for c in range(3):
            n = _cell_noise(ix, iy, scenario.seed * 4 + c)
            img[:, :, c] += (2.0 * n - 1.0) * floor.noise_amplitude
        np.clip(img, 0.0, 1.0, out=img)
    out = Raster(reference_attenuate(img, scenario.water, altitude))
    out = add_speckle(out, scenario.water, _pose_seed(scenario, x, y, yaw, altitude))
    return out.data, codes


# The two segment-and-contour kernels as they were before the table-driven
# rewrite: four float convolutions for the vote, a tuple-keyed Moore walk for
# the contour.  The library must return the same bytes.

def reference_majority_smooth(labels: np.ndarray) -> np.ndarray:
    """3x3 majority vote; off-image neighbors do not vote, ties pick the lowest code."""
    kernel = np.ones((3, 3))
    counts = np.stack(
        [
            ndimage.convolve((labels == c).astype(float), kernel, mode="constant", cval=0.0)
            for c in range(NUM_CLASSES)
        ]
    )
    return np.argmax(counts, axis=0).astype(np.uint8)


# Moore neighborhood in clockwise screen order (rows grow downward).
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}


def reference_trace_component(labels: np.ndarray, lab: int) -> Polygon:
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
    poly = Polygon(np.array(verts))
    if reference_polygon_area(poly) < 0.0:
        poly = Polygon(poly.vertices[::-1])
    return poly


def reference_polygon_area(poly: Polygon) -> float:
    """Signed shoelace area with the next vertex taken by np.roll."""
    x, y = poly.vertices[:, 0], poly.vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def reference_meadow_boundary(mask: np.ndarray) -> Polygon | None:
    """Outer ring of the largest posidonia component (lowest label on a
    tie), picked by bincount however many components there are."""
    labels, count = ndimage.label(mask == POSIDONIA, structure=np.ones((3, 3)))
    if count == 0:
        return None
    return reference_trace_component(labels, 1 + int(np.argmax(np.bincount(labels.ravel())[1:])))
