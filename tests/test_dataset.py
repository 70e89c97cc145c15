import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posidonia_inspect.dataset import (
    AnnotatedRegion,
    ImageAnnotation,
    SplitSpec,
    augment_image,
    augment_mask,
    enhance_for_rocks,
    parse_annotation,
    rasterize_annotation,
    split,
    split_sizes,
)
from posidonia_inspect.geometry import Polygon, point_in_region
from posidonia_inspect.imaging import Raster, equalize_histogram, gamma_correct
from posidonia_inspect.segmentation import LabelMask


def ann_obj(regions):
    return {"image": "img01", "width": 8, "height": 8, "regions": regions}


SQUARE = [[1.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 4.0]]


class TestAnnotationParsing:
    def test_parse_valid(self):
        ann = parse_annotation(ann_obj([{"class": 1, "points": SQUARE}]))
        assert ann.image == "img01"
        assert len(ann.regions) == 1
        assert ann.regions[0].class_code == 1

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            parse_annotation({"image": "x", "width": 4, "height": 4})

    def test_bad_class(self):
        with pytest.raises(ValueError, match="img01"):
            parse_annotation(ann_obj([{"class": 7, "points": SQUARE}]))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="img01"):
            parse_annotation(ann_obj([{"class": 1, "points": [[0, 0], [1, 1]]}]))

    def test_out_of_bounds_vertex_names_image(self):
        bad = [[0.0, 0.0], [9.5, 0.0], [4.0, 4.0]]
        with pytest.raises(ValueError, match="img01"):
            parse_annotation(ann_obj([{"class": 1, "points": bad}]))

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            ImageAnnotation("x", 0, 4, ())

    def test_bool_class_is_rejected(self):
        with pytest.raises(ValueError, match="img01: region 0: class"):
            parse_annotation(ann_obj([{"class": True, "points": SQUARE}]))

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_bool_dims_are_rejected(self, key):
        obj = {**ann_obj([]), key: True}
        with pytest.raises(ValueError, match=f"img01: {key} must be an integer"):
            parse_annotation(obj)

    @pytest.mark.parametrize("regions", [5, None, {"class": 1}, "regions"])
    def test_regions_must_be_a_list(self, regions):
        with pytest.raises(ValueError, match="img01: 'regions' must be a list"):
            parse_annotation({**ann_obj([]), "regions": regions})

    @pytest.mark.parametrize(
        "image", ["../pe/escaped", "a/b", "/abs", "a\\b", ".", "..", "", 5, None]
    )
    def test_image_must_be_a_plain_file_name(self, image):
        with pytest.raises(ValueError, match="plain file name"):
            parse_annotation({**ann_obj([]), "image": image})

    def test_dotted_file_name_is_accepted(self):
        assert parse_annotation({**ann_obj([]), "image": "dive.01..a"}).image == "dive.01..a"


class TestRasterize:
    def test_square_fill_includes_boundary(self):
        ann = parse_annotation(ann_obj([{"class": 1, "points": SQUARE}]))
        mask = rasterize_annotation(ann)
        want = np.zeros((8, 8), dtype=np.uint8)
        want[1:5, 1:5] = 1
        assert np.array_equal(mask.data, want)

    def test_later_region_wins(self):
        ann = parse_annotation(
            ann_obj(
                [
                    {"class": 1, "points": SQUARE},
                    {"class": 2, "points": [[3.0, 3.0], [6.0, 3.0], [6.0, 6.0], [3.0, 6.0]]},
                ]
            )
        )
        mask = rasterize_annotation(ann)
        assert mask.data[2, 2] == 1
        assert mask.data[4, 4] == 2
        assert mask.data[3, 3] == 2  # overlap goes to the later region

    def test_empty_regions(self):
        ann = parse_annotation(ann_obj([]))
        assert (rasterize_annotation(ann).data == 0).all()

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.floats(0.0, 7.0), st.floats(0.0, 7.0)),
            min_size=3,
            max_size=6,
        )
    )
    def test_matches_point_in_region(self, pts):
        arr = np.asarray(pts, dtype=float)
        try:
            poly = Polygon(arr)
        except ValueError:
            return
        ann = ImageAnnotation("h", 8, 8, (AnnotatedRegion(1, arr),))
        mask = rasterize_annotation(ann)
        for row in range(8):
            for col in range(8):
                want = point_in_region((float(col), float(row)), [poly])
                assert bool(mask.data[row, col]) == want, (col, row)


class TestSplit:
    def test_sizes_small(self):
        assert split_sizes(10, SplitSpec()) == (7, 2, 1)

    def test_sizes_train_rounds_up(self):
        assert split_sizes(3, SplitSpec(0.5, 0.5)) == (2, 1, 0)

    def test_sizes_degenerate(self):
        assert split_sizes(0, SplitSpec()) == (0, 0, 0)
        assert split_sizes(1, SplitSpec()) == (1, 0, 0)
        assert split_sizes(5, SplitSpec(1.0, 0.0)) == (5, 0, 0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.8, 0.3)
        with pytest.raises(ValueError):
            SplitSpec(-0.1, 0.2)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SplitSpec(seed=seed)

    def test_partition(self):
        items = [f"im{i}" for i in range(23)]
        train, val, test = split(items, SplitSpec(seed=5))
        assert sorted(train + val + test) == sorted(items)
        assert len(train) == 17 and len(val) == 4 and len(test) == 2

    def test_seed_determinism(self):
        items = list(range(40))
        assert split(items, SplitSpec(seed=9)) == split(items, SplitSpec(seed=9))
        assert split(items, SplitSpec(seed=9)) != split(items, SplitSpec(seed=10))

    def test_shuffles(self):
        items = list(range(100))
        train, _, _ = split(items, SplitSpec(seed=1))
        assert train != items[: len(train)]


class TestAugment:
    def test_rotate90_matches_numpy(self):
        rng = np.random.default_rng(0)
        img = Raster(rng.random((5, 7, 3)))
        for k in range(4):
            out = augment_image(img, [("rotate90", k)])
            assert np.allclose(out.data, np.rot90(img.data, k))

    def test_flips(self):
        m = LabelMask(np.array([[0, 1], [2, 3]]))
        assert np.array_equal(augment_mask(m, [("flip_h",)]).data, [[1, 0], [3, 2]])
        assert np.array_equal(augment_mask(m, [("flip_v",)]).data, [[2, 3], [0, 1]])

    def test_double_flip_identity(self):
        rng = np.random.default_rng(1)
        img = Raster(rng.random((6, 6, 1)))
        out = augment_image(img, [("flip_h",), ("flip_h",)])
        assert np.array_equal(out.data, img.data)

    def test_bilinear_edge_clamped_ramp(self):
        img = Raster(np.tile([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], (4, 1))[:, :, None])
        # the middle two columns, stretched back to four
        out = augment_image(img, [("zoom_crop", 0.5)])
        assert np.allclose(out.data[0, :, 0], [1.0 / 3.0, 5.0 / 12.0, 7.0 / 12.0, 2.0 / 3.0])

    def test_constant_stays_constant(self):
        img = Raster(np.full((9, 9, 3), 0.37))
        out = augment_image(img, [("rotate90", 1), ("zoom_crop", 0.5)])
        assert np.allclose(out.data, 0.37)

    def test_zoom_crop_keeps_shape(self):
        img = Raster(np.random.default_rng(2).random((12, 16, 3)))
        out = augment_image(img, [("zoom_crop", 0.5)])
        assert out.data.shape == (12, 16, 3)

    def test_zoom_crop_magnifies_center(self):
        data = np.zeros((16, 16, 1))
        data[6:10, 6:10] = 1.0
        out = augment_image(Raster(data), [("zoom_crop", 0.5)])
        # the 4x4 block fills roughly 4x the pixels after the 2x zoom
        assert out.data[:, :, 0].sum() > 2 * data.sum()
        assert out.data[8, 8, 0] == pytest.approx(1.0)

    def test_mask_resample_keeps_codes_exact(self):
        rng = np.random.default_rng(3)
        m = LabelMask(rng.integers(0, 4, (9, 9), dtype=np.uint8))
        out = augment_mask(m, [("zoom_crop", 0.5)])
        assert out.data.dtype == np.uint8
        assert set(np.unique(out.data)) <= set(np.unique(m.data))

    def test_unknown_op(self):
        img = Raster(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError, match="unknown"):
            augment_image(img, [("sharpen",)])

    def test_bad_arity(self):
        img = Raster(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            augment_image(img, [("flip_h", 1)])
        with pytest.raises(ValueError):
            augment_image(img, [("rotate90", 1.5)])
        with pytest.raises(ValueError):
            augment_image(img, [("zoom_crop", 0.0)])

    @pytest.mark.parametrize("op", [("rotate90", True), ("rotate90", False),
                                    ("zoom_crop", True)])
    def test_bool_argument_is_rejected(self, op):
        # True would otherwise count as one quarter turn or the full frame
        with pytest.raises(ValueError, match="got (True|False)"):
            augment_image(Raster(np.zeros((4, 6, 3))), [op])
        with pytest.raises(ValueError, match="got (True|False)"):
            augment_mask(LabelMask(np.zeros((4, 6), dtype=np.uint8)), [op])


class TestEnhance:
    def test_composition(self):
        rng = np.random.default_rng(4)
        img = Raster(rng.random((12, 12, 3)))
        out = enhance_for_rocks(img, gamma=1.5)
        want = gamma_correct(equalize_histogram(img), 1.5)
        assert np.allclose(out.data, want.data)

    def test_gray_supported(self):
        img = Raster(np.linspace(0.0, 1.0, 64).reshape(8, 8, 1))
        out = enhance_for_rocks(img, 1.5)
        assert out.data.shape == (8, 8, 1)
