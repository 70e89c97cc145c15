import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (iou_by_sets, mean_iou_by_sets, reference_box_classes, reference_hsv,
                     reference_majority_smooth, reference_meadow_boundary)
from posidonia_inspect.geometry import label_components
from posidonia_inspect.imaging import Raster, hsv_to_rgb
from posidonia_inspect.segmentation import (
    DEBRIS,
    NUM_CLASSES,
    POSIDONIA,
    ROCKS,
    SAND,
    BaselineSegmenter,
    LabelMask,
    iou,
    majority_smooth,
    mean_iou,
    meadow_boundary,
    read_mask,
    summarize,
    write_mask,
)


@st.composite
def class_masks(draw):
    """1x1 to 40x40 masks of all four codes; 2x2 blocks of one code tie often."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    block = draw(st.sampled_from((1, 2)))
    codes = draw(hnp.arrays(np.uint8, (-(-rows // block), -(-cols // block)),
                            elements=st.integers(0, NUM_CLASSES - 1)))
    return np.kron(codes, np.ones((block, block), dtype=np.uint8))[:rows, :cols]


@st.composite
def color_rasters(draw):
    """RGB data in [0, 1]; a third quantised to eighths, so HSV box edges and
    equal channels (grey, zero saturation) come up often."""
    shape = st.tuples(st.integers(1, 24), st.integers(1, 24), st.just(3))
    data = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    if draw(st.integers(0, 2)) == 0:
        data = np.round(data * 8.0) / 8.0
    return data


def hsv_image(h, s, v, shape=(8, 8)) -> Raster:
    return hsv_to_rgb(np.full(shape, float(h)), np.full(shape, float(s)), np.full(shape, float(v)))


class TestLabelMask:
    def test_accepts_valid_codes(self):
        m = LabelMask(np.array([[0, 1], [2, 3]]))
        assert m.width == 2 and m.height == 2
        assert m.data.dtype == np.uint8

    def test_rejects_float_data(self):
        with pytest.raises(ValueError):
            LabelMask(np.zeros((2, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelMask(np.array([[0, 4]]))
        with pytest.raises(ValueError):
            LabelMask(np.array([[-1, 0]]))

    def test_readonly(self):
        m = LabelMask(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            m.data[0, 0] = 1


class TestMaskIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = LabelMask(rng.integers(0, 4, size=(13, 9), dtype=np.uint8))
        p = tmp_path / "m.pgm"
        write_mask(m, p)
        back = read_mask(p)
        assert np.array_equal(back.data, m.data)

    def test_rejects_high_codes(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([1, 9]))
        with pytest.raises(ValueError):
            read_mask(p)

    def test_rejects_color_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_mask(p)

    def test_rejects_truncated(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n3\n\x00\x01")
        with pytest.raises(ValueError):
            read_mask(p)


class TestBaselineSegmenter:
    def test_classifies_range_centers(self):
        seg = BaselineSegmenter()
        cases = [
            (hsv_image(120.0, 0.7, 0.15), POSIDONIA),
            (hsv_image(200.0, 0.1, 0.12), ROCKS),
            (hsv_image(30.0, 0.4, 0.3), DEBRIS),
            (hsv_image(45.0, 0.3, 0.8), SAND),
        ]
        for img, want in cases:
            got = seg.segment(img)
            assert (got.data == want).all(), f"expected uniform class {want}"

    def test_priority_breaks_overlap(self):
        # hue 30, sat 0.2, val 0.2 sits inside both the rocks and debris boxes;
        # rocks come first in the priority order
        img = hsv_image(30.0, 0.2, 0.2)
        assert (BaselineSegmenter().segment(img).data == ROCKS).all()

    @given(color_rasters())
    @settings(max_examples=150, deadline=None)
    def test_matches_priority_loop_bytewise(self, data):
        got = BaselineSegmenter().segment(Raster(data)).data
        want = majority_smooth(reference_box_classes(data))
        assert got.tobytes() == want.tobytes()

    def test_pixels_on_skipped_bounds_match_reference(self):
        data = np.array([[
            [0.0, 0.3, 0.1],  # posidonia at saturation 1, its skipped upper bound
            [0.2, 0.2, 0.2],  # rocks at hue 0 and saturation 0, its skipped lower bounds
            [0.3, 0.225, np.nextafter(0.225, 1.0)],  # rocks at a hue folded from 360 to 0
            [0.3, 0.24, np.nextafter(0.24, 1.0)],  # rocks at a hue just below 360
            [0.0, 0.0, 0.0],  # black: below the value >= 0.02 bound that rocks keep
        ]])
        hue, sat, val = reference_hsv(data)
        assert sat[0, 0] == 1.0 and hue[0, 1] == sat[0, 1] == 0.0 and hue[0, 3] > 359.0
        assert hue[0, 4] == sat[0, 4] == val[0, 4] == 0.0
        r, g, b = data[0, 2]
        assert 60.0 * ((g - b) / (r - g) + 6.0) == 360.0
        want = reference_box_classes(data)[0]
        assert list(want) == [POSIDONIA, ROCKS, ROCKS, ROCKS, SAND]
        # a one-pixel frame is its own majority, so segment shows the box test alone
        seg = BaselineSegmenter()
        assert [seg.segment(Raster(data[:, i:i + 1])).data[0, 0] for i in range(5)] == list(want)

    @pytest.mark.parametrize("levels", [8, 255])
    def test_quantised_block_rasters_match_reference(self, levels):
        # dark 3x3 blocks of one color, so every class survives the smoothing
        coarse = np.random.default_rng(levels).random((16, 20, 3)) * 0.5
        data = (np.round(coarse * levels) / levels).repeat(3, axis=0).repeat(3, axis=1)
        want = majority_smooth(reference_box_classes(data))
        assert set(np.unique(want)) == {SAND, POSIDONIA, DEBRIS, ROCKS}
        assert BaselineSegmenter().segment(Raster(data)).data.tobytes() == want.tobytes()

    def test_ring_edge_frames_match_reference(self, ring_edge_frames):
        for frame, _ in ring_edge_frames:
            want = majority_smooth(reference_box_classes(frame.data))
            assert 0 < np.count_nonzero(want == POSIDONIA) < want.size
            assert BaselineSegmenter().segment(frame).data.tobytes() == want.tobytes()

    def test_rejects_gray_input(self):
        seg = BaselineSegmenter()
        with pytest.raises(ValueError):
            seg.segment(Raster(np.zeros((4, 4, 1))))

    def test_smoothing_removes_salt(self):
        labels = np.full((7, 7), POSIDONIA, dtype=np.uint8)
        labels[3, 3] = DEBRIS
        out = majority_smooth(labels)
        assert (out == POSIDONIA).all()

    def test_smoothing_tie_prefers_lowest_code(self):
        labels = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        # every pixel sees two of each class
        assert (majority_smooth(labels) == 0).all()

    @given(class_masks())
    @settings(max_examples=150, deadline=None)
    def test_smoothing_matches_reference_bytewise(self, labels):
        got, want = majority_smooth(labels), reference_majority_smooth(labels)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestSummarize:
    def test_fractions_and_presence(self):
        data = np.zeros((10, 10), dtype=np.uint8)
        data[:2, :] = POSIDONIA  # 20%
        data[9, :3] = ROCKS  # 3%
        fractions = summarize(LabelMask(data))
        assert fractions[POSIDONIA] == pytest.approx(0.2)
        assert fractions[ROCKS] == pytest.approx(0.03)
        assert abs(sum(fractions) - 1.0) < 1e-12
        # present at the default presence_min_fraction of 5%
        assert list(fractions >= 0.05) == [True, True, False, False]


class TestMeadowBoundary:
    def test_largest_component_first(self):
        data = np.zeros((12, 12), dtype=np.uint8)
        data[1:3, 1:3] = POSIDONIA  # 4 px
        data[5:10, 5:10] = POSIDONIA  # 25 px
        poly = meadow_boundary(LabelMask(data))
        assert poly.vertices[:, 0].min() >= 5.0

    def test_size_tie_takes_lowest_label(self):
        data = np.zeros((8, 8), dtype=np.uint8)
        data[5:7, 1:3] = POSIDONIA
        data[1:3, 5:7] = POSIDONIA  # same size, first in scan order
        poly = meadow_boundary(LabelMask(data))
        assert poly.vertices[:, 1].max() <= 2.0

    @pytest.mark.parametrize("blobs, count, largest", [
        ((), 0, 0),
        (((2, 2, 5, 7),), 1, 1),
        (((1, 1, 3, 3), (5, 4, 9, 9), (0, 7, 2, 9)), 3, 1),
        (((5, 1, 7, 3), (1, 5, 3, 7)), 2, 2),  # a size tie
    ])
    def test_matches_bincount_reference(self, blobs, count, largest):
        data = np.zeros((10, 10), dtype=np.uint8)
        data[0, 0] = DEBRIS
        for r0, c0, r1, c1 in blobs:
            data[r0:r1, c0:c1] = POSIDONIA
        labels, found = label_components(data == POSIDONIA)
        sizes = list(np.bincount(labels.ravel())[1:])
        # components found, and how many of them share the largest size
        assert (found, sizes.count(max(sizes, default=0))) == (count, largest)
        assert_boundary_matches_reference(data)

    def test_ring_edge_masks_match_reference(self, ring_edge_frames):
        for frame, truth in ring_edge_frames:
            for data in (truth.data, BaselineSegmenter().segment(frame).data):
                assert label_components(data == POSIDONIA)[1] >= 1
                assert_boundary_matches_reference(data)

    def test_no_meadow(self):
        data = np.full((5, 5), ROCKS, dtype=np.uint8)
        assert meadow_boundary(LabelMask(data)) is None

    def test_ignores_other_classes(self):
        data = np.zeros((6, 6), dtype=np.uint8)
        data[0:2, 0:2] = DEBRIS
        data[3:5, 3:5] = POSIDONIA
        poly = meadow_boundary(LabelMask(data))
        assert poly.vertices[:, 0].min() >= 3.0


class TestIoU:
    def test_identical_masks(self):
        m = LabelMask(np.array([[0, 1], [2, 3]]))
        for code in range(4):
            assert iou(m, m, code) == 1.0

    def test_disjoint(self):
        a = LabelMask(np.array([[1, 1], [0, 0]]))
        b = LabelMask(np.array([[0, 0], [1, 1]]))
        assert iou(a, b, POSIDONIA) == 0.0

    def test_known_overlap(self):
        a = LabelMask(np.array([[1, 1, 1, 0]]))
        b = LabelMask(np.array([[0, 1, 1, 1]]))
        assert iou(a, b, POSIDONIA) == pytest.approx(0.5)

    def test_absent_class_scores_one(self):
        a = LabelMask(np.zeros((3, 3), dtype=np.uint8))
        assert iou(a, a, DEBRIS) == 1.0

    def test_shape_mismatch(self):
        a = LabelMask(np.zeros((2, 2), dtype=np.uint8))
        b = LabelMask(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            iou(a, b, SAND)

    @settings(max_examples=80, deadline=None)
    @given(
        a=hnp.arrays(np.uint8, (6, 6), elements=st.integers(0, 3)),
        b=hnp.arrays(np.uint8, (6, 6), elements=st.integers(0, 3)),
    )
    def test_matches_set_oracle(self, a, b):
        for code in range(4):
            assert iou(a, b, code) == pytest.approx(iou_by_sets(a, b, code), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        masks=st.lists(
            st.tuples(
                hnp.arrays(np.uint8, (4, 4), elements=st.integers(0, 3)),
                hnp.arrays(np.uint8, (4, 4), elements=st.integers(0, 3)),
            ),
            min_size=0,
            max_size=4,
        )
    )
    def test_mean_matches_set_oracle(self, masks):
        got = mean_iou(masks)
        want = mean_iou_by_sets(masks, range(4))
        assert got == pytest.approx(want, abs=1e-12)

    def test_mean_empty_pool(self):
        assert mean_iou([]) == 1.0


def assert_boundary_matches_reference(data: np.ndarray) -> None:
    got, want = meadow_boundary(LabelMask(data)), reference_meadow_boundary(data)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.vertices.tobytes() == want.vertices.tobytes()
