import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import ConvexHull, QhullError

import oracles
from posidonia_inspect.geometry import (
    DegenerateInputError,
    ExploredMap,
    Polygon,
    alpha_shape,
    explored_covers,
    label_components,
    point_in_region,
    polygon_area,
    record_exploration,
    trace_component,
)


@st.composite
def blob_masks(draw):
    """Boolean masks, sometimes ringed by a component that touches every border."""
    mask = draw(hnp.arrays(np.bool_, st.tuples(st.integers(1, 20), st.integers(1, 20))))
    if draw(st.booleans()):
        mask[[0, -1], :] = True
        mask[:, [0, -1]] = True
    return mask


def vertex_set(poly: Polygon) -> set[tuple[float, float]]:
    return {(float(x), float(y)) for x, y in poly.vertices}


def traced_rings(mask: np.ndarray) -> list[Polygon]:
    """The outer ring of each 8-connected component, in label order."""
    labels, count = label_components(mask)
    return [trace_component(labels, lab) for lab in range(1, count + 1)]


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_area_sign(self):
        ccw = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert polygon_area(ccw) == pytest.approx(1.0)
        cw = Polygon(ccw.vertices[::-1])
        assert polygon_area(cw) == pytest.approx(-1.0)


class TestTraceContours:
    def test_solid_block(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        polys = traced_rings(mask)
        assert len(polys) == 1
        expected = {(x, y) for x in (1.0, 2.0, 3.0) for y in (1.0, 2.0, 3.0)} - {(2.0, 2.0)}
        assert vertex_set(polys[0]) == expected
        assert polygon_area(polys[0]) > 0.0

    def test_two_blobs(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:3] = True
        mask[5:7, 5:7] = True
        assert len(traced_rings(mask)) == 2

    def test_single_pixel_degenerate_ring(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        polys = traced_rings(mask)
        assert len(polys) == 1
        assert vertex_set(polys[0]) == {(2.0, 1.0)}
        assert polys[0].vertices.shape == (3, 2)

    def test_diagonal_pair_is_one_component(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        polys = traced_rings(mask)
        assert len(polys) == 1
        assert vertex_set(polys[0]) == {(0.0, 0.0), (1.0, 1.0)}

    def test_empty_mask(self):
        assert traced_rings(np.zeros((4, 4), dtype=bool)) == []

    @given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 14), st.integers(1, 14))))
    @settings(max_examples=120, deadline=None)
    def test_matches_flood_fill_oracle(self, mask):
        polys = traced_rings(mask)
        assert len(polys) == oracles.count_components_8(mask)
        traced = set()
        for poly in polys:
            traced |= {(int(x), int(y)) for x, y in poly.vertices}
        assert traced == oracles.outer_boundary_pixels(mask)

    @given(blob_masks())
    @example(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=bool))  # one pixel
    @example(np.array([[1, 1], [0, 0]], dtype=bool))  # two pixels on the border
    @example(np.eye(5, dtype=bool) | np.eye(5, dtype=bool)[::-1])  # diagonal links only
    @example(np.indices((6, 7)).sum(axis=0) % 2 == 0)  # checkerboard
    @example(np.pad(np.zeros((3, 3), dtype=bool), 2, constant_values=True))  # a hole
    @example(np.ones((4, 5), dtype=bool))
    @settings(max_examples=150, deadline=None)
    def test_each_ring_matches_reference_bytewise(self, mask):
        labels, count = label_components(mask)
        for lab in range(1, count + 1):
            got = trace_component(labels, lab).vertices
            want = oracles.reference_trace_component(labels, lab).vertices
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_missing_label_raises(self):
        labels, _ = label_components(np.eye(3, dtype=bool))
        with pytest.raises(ValueError, match="no pixels with label 2"):
            trace_component(labels, 2)


class TestAlphaShape:
    def test_square_with_center(self):
        pts = [(0, 0), (10, 0), (10, 10), (0, 10), (5, 5)]
        polys = alpha_shape(pts, alpha=20.0)
        assert len(polys) == 1
        assert vertex_set(polys[0]) == {(0, 0), (10, 0), (10, 10), (0, 10)}
        assert polygon_area(polys[0]) == pytest.approx(100.0)

    def test_two_distant_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 6, size=(12, 2))
        b = rng.uniform(0, 6, size=(12, 2)) + (100.0, 0.0)
        polys = alpha_shape(np.vstack([a, b]), alpha=5.0)
        assert len(polys) == 2

    def test_tiny_alpha_gives_nothing(self):
        pts = np.random.default_rng(1).uniform(0, 10, size=(12, 2))
        assert alpha_shape(pts, alpha=1e-6) == []

    def test_huge_alpha_equals_hull(self):
        for seed in range(6):
            pts = np.random.default_rng(seed).uniform(-5, 5, size=(25, 2))
            diameter = np.ptp(pts, axis=0).max()
            polys = alpha_shape(pts, alpha=1e6 * diameter)
            assert len(polys) == 1
            assert vertex_set(polys[0]) == oracles.brute_hull_vertices(pts)
            assert polygon_area(polys[0]) == pytest.approx(oracles.brute_hull_area(pts), rel=1e-9)

    def test_area_monotone_in_alpha(self):
        for seed in range(5):
            pts = np.random.default_rng(seed).uniform(0, 20, size=(30, 2))
            areas = []
            for alpha in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e5):
                polys = alpha_shape(pts, alpha)
                areas.append(sum(polygon_area(p) for p in polys))
            assert all(a2 >= a1 - 1e-9 for a1, a2 in zip(areas, areas[1:]))

    def test_collinear_jitter_fallback(self):
        pts = [(float(i), 2.0 * i) for i in range(6)]
        polys = alpha_shape(pts, alpha=1e9)
        assert isinstance(polys, list)  # jittered; must not crash

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            alpha_shape([(0, 0), (1, 0), (0, 1)], alpha=0.0)

    def test_rejects_too_few(self):
        with pytest.raises(DegenerateInputError):
            alpha_shape([(0, 0), (1, 0)], alpha=1.0)


class TestPointInRegion:
    SQUARE = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]))

    def test_interior(self):
        assert point_in_region((2, 2), [self.SQUARE])

    def test_corner_counts_inside(self):
        assert point_in_region((0, 0), [self.SQUARE])

    def test_edge_counts_inside(self):
        assert point_in_region((2, 0), [self.SQUARE])

    def test_outside(self):
        assert not point_in_region((5, 2), [self.SQUARE])

    def test_empty_region(self):
        assert not point_in_region((0, 0), [])

    def test_hole_ring_excludes(self):
        outer = self.SQUARE
        hole = Polygon(np.array([[1.0, 1.0], [1.0, 3.0], [3.0, 3.0], [3.0, 1.0]]))
        assert not point_in_region((2.0, 2.0), [outer, hole])
        assert point_in_region((0.5, 0.5), [outer, hole])

    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(3, 10), st.just(2)),
                   elements=st.floats(-20, 20)),
        st.tuples(st.floats(-25, 25), st.floats(-25, 25)),
    )
    # a sliver hull whose query lies 1.19e-8 from an edge: on it by the
    # ring-scaled tolerance (1.2e-8), off it by one scaled to that edge (1e-8)
    @example(np.array([[10.0, 1.19e-7], [-12.0, 0.0], [0.0, 0.0]]), (1.0, 0.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_winding_oracle(self, pts, query):
        try:
            hull = Polygon(pts[ConvexHull(pts).vertices])  # counterclockwise in 2-D
        except QhullError:
            return
        got = point_in_region(query, [hull])
        want = oracles.winding_inside(query, hull.vertices)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.floats(0.0, 7.0), st.floats(0.0, 7.0)),
            min_size=3,
            max_size=6,
        )
    )
    def test_matches_region_mask_oracle(self, pts):
        arr = np.asarray(pts, dtype=float)
        try:
            poly = Polygon(arr)
        except ValueError:
            return
        mask = oracles.reference_region_mask(arr, 8, 8)
        for row in range(8):
            for col in range(8):
                want = point_in_region((float(col), float(row)), [poly])
                assert bool(mask[row, col]) == want, (col, row)


class TestExploredMap:
    def test_single_dive_covers_square(self):
        explored = ExploredMap(alpha=20.0)
        surface = [(0, 0), (10, 0), (10, 10), (0, 10)]
        explored = record_exploration(explored, [*surface, (5.0, 5.0)])
        assert len(explored.polygons) == 1
        assert point_in_region((5.0, 5.0), explored.polygons)
        for p in surface:
            assert point_in_region(p, explored.polygons)

    def test_two_distant_dives_two_polygons(self):
        explored = ExploredMap(alpha=20.0)
        square = [(0, 0), (10, 0), (10, 10), (0, 10)]
        explored = record_exploration(explored, [*square, (5.0, 5.0)])
        far = [(x + 200.0, y) for x, y in square]
        explored = record_exploration(explored, [*far, (205.0, 5.0)])
        assert len(explored.polygons) == 2
        assert point_in_region((5.0, 5.0), explored.polygons)
        assert point_in_region((205.0, 5.0), explored.polygons)

    def test_rerecording_is_idempotent(self):
        explored = ExploredMap(alpha=20.0)
        square = [(0, 0), (10, 0), (10, 10), (0, 10)]
        once = record_exploration(explored, [*square, (5.0, 5.0)])
        twice = record_exploration(once, [*square, (5.0, 5.0)])
        assert len(once.polygons) == len(twice.polygons)
        for a, b in zip(once.polygons, twice.polygons):
            assert vertex_set(a) == vertex_set(b)

    def test_too_few_points_no_polygons(self):
        explored = record_exploration(ExploredMap(alpha=5.0), [(1.0, 1.0)])
        assert explored.polygons == ()

    def test_committed_region_survives_rebuild(self):
        region = Polygon(np.array([[50.0, 50.0], [60.0, 50.0], [55.0, 60.0]]))
        explored = ExploredMap(alpha=20.0).add_region(region)
        assert point_in_region((55.0, 53.0), explored.polygons)
        explored = record_exploration(explored, [(0, 0), (1, 0), (0, 1), (0.5, 0.5)])
        assert point_in_region((55.0, 53.0), explored.polygons)
        # alpha rings first, then committed regions: the byte order of polygons.rings
        assert explored.committed_regions == (region,)
        assert explored.polygons == explored.alpha_rings + explored.committed_regions

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ExploredMap(alpha=-1.0)

    def test_rings_follow_from_points_however_built(self):
        pts = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (5.0, 5.0), (30.0, 2.0))
        built = ExploredMap(alpha=20.0, points=pts)
        recorded = record_exploration(ExploredMap(alpha=20.0), pts)
        assert built == recorded
        assert len(built.alpha_rings) == len(recorded.alpha_rings) > 0
        for a, b in zip(built.alpha_rings, recorded.alpha_rings):
            assert np.array_equal(a.vertices, b.vertices)

    def test_recording_does_not_triangulate(self):
        square = [(0, 0), (10, 0), (10, 10), (0, 10)]
        explored = record_exploration(ExploredMap(alpha=20.0), square)
        explored = record_exploration(explored, [(5.0, 5.0)])
        assert "alpha_rings" not in vars(explored)
        assert len(explored.alpha_rings) == 1
        assert "alpha_rings" in vars(explored)  # read once, kept

    def test_covers_union_of_overlapping_regions(self):
        # parity over the combined ring list would cancel where a committed
        # region overlaps the alpha shape; coverage must behave as a union
        square = [(0, 0), (10, 0), (10, 10), (0, 10)]
        explored = record_exploration(ExploredMap(alpha=20.0), [*square, (5.0, 5.0)])
        inner = Polygon(np.array([[3.0, 3.0], [7.0, 3.0], [7.0, 7.0], [3.0, 7.0]]))
        explored = explored.add_region(inner)
        assert not point_in_region((5.0, 5.0), list(explored.polygons))
        assert explored_covers(explored, (5.0, 5.0))
        assert explored_covers(explored, (1.0, 1.0))
        assert not explored_covers(explored, (20.0, 20.0))

    def test_covers_empty_map_is_false(self):
        assert not explored_covers(ExploredMap(alpha=20.0), (0.0, 0.0))

    def test_covers_committed_only(self):
        region = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]]))
        explored = ExploredMap(alpha=20.0).add_region(region)
        assert explored_covers(explored, (2.0, 1.0))
        assert not explored_covers(explored, (9.0, 9.0))

