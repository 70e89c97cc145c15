import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from posidonia_inspect.imaging import (
    WATER_PRESETS,
    Raster,
    WaterModel,
    add_speckle,
    attenuate,
    equalize_histogram,
    gamma_correct,
    hsv_to_rgb,
    read_pnm,
    to_hsv,
    write_pnm,
)
from posidonia_inspect.segmentation import POSIDONIA, read_mask


def gray(values) -> Raster:
    return Raster(np.asarray(values, dtype=np.float64)[:, :, np.newaxis])


def rgb(r, g, b, shape=(1, 1)) -> Raster:
    arr = np.zeros(shape + (3,))
    arr[..., 0], arr[..., 1], arr[..., 2] = r, g, b
    return Raster(arr)


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


def small_images(channels=1):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(channels)),
        elements=unit_floats,
    ).map(Raster)


def odd_width_images(channels):
    # odd widths put the channel planes of neighbouring rows off any even stride
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(0, 6).map(lambda k: 2 * k + 1), st.just(channels)),
        elements=unit_floats,
    ).map(Raster)


class TestRaster:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Raster(np.full((2, 2, 1), 1.5))
        with pytest.raises(ValueError):
            Raster(np.full((2, 2, 1), -0.1))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            Raster(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Raster(np.full((1, 1, 1), np.nan))

    def test_data_is_readonly(self):
        img = gray([[0.5]])
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_among_valid_ones(self, bad):
        arr = np.full((3, 4, 3), 0.5)
        arr[1, 2, 0] = bad
        with pytest.raises(ValueError, match="must be a finite number"):
            Raster(arr)


class TestToHsv:
    def test_pure_red(self):
        hue, sat, val = to_hsv(rgb(1.0, 0.0, 0.0))
        assert (hue[0, 0], sat[0, 0], val[0, 0]) == (0.0, 1.0, 1.0)

    def test_pure_blue(self):
        hue, sat, val = to_hsv(rgb(0.0, 0.0, 1.0))
        assert (hue[0, 0], sat[0, 0], val[0, 0]) == (240.0, 1.0, 1.0)

    def test_mid_gray_is_achromatic(self):
        hue, sat, val = to_hsv(rgb(0.5, 0.5, 0.5))
        assert (hue[0, 0], sat[0, 0], val[0, 0]) == (0.0, 0.0, 0.5)

    def test_black_has_zero_saturation(self):
        _, sat, val = to_hsv(rgb(0.0, 0.0, 0.0))
        assert sat[0, 0] == 0.0 and val[0, 0] == 0.0

    def test_requires_three_channels(self):
        with pytest.raises(ValueError):
            to_hsv(gray([[0.5]]))

    @pytest.mark.parametrize("hsv, want", [
        ((0.0, 1.0, 1.0), (1.0, 0.0, 0.0)),
        ((30.0, 1.0, 1.0), (1.0, 0.5, 0.0)),
        ((60.0, 1.0, 1.0), (1.0, 1.0, 0.0)),
        ((120.0, 1.0, 1.0), (0.0, 1.0, 0.0)),
        ((180.0, 1.0, 1.0), (0.0, 1.0, 1.0)),
        ((240.0, 1.0, 1.0), (0.0, 0.0, 1.0)),
        ((300.0, 1.0, 1.0), (1.0, 0.0, 1.0)),
        ((360.0, 1.0, 1.0), (1.0, 0.0, 0.0)),
        ((0.0, 0.5, 1.0), (1.0, 0.5, 0.5)),
        ((200.0, 0.0, 0.4), (0.4, 0.4, 0.4)),
        ((90.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
    ])
    def test_hsv_to_rgb_of_known_colors(self, hsv, want):
        hue, sat, val = (np.array([[v]]) for v in hsv)
        assert np.allclose(hsv_to_rgb(hue, sat, val).data[0, 0], want, atol=1e-12)

    @given(small_images(channels=3))
    @settings(max_examples=60)
    def test_roundtrip_through_rgb(self, img):
        back = hsv_to_rgb(*to_hsv(img))
        assert np.allclose(back.data, img.data, atol=1e-12)

    @given(small_images(channels=3))
    @settings(max_examples=60)
    def test_value_is_channel_max(self, img):
        assert np.array_equal(to_hsv(img)[2], img.data.max(axis=2))


    @given(odd_width_images(3))
    @settings(max_examples=80)
    def test_matches_axis_reduction_formulas(self, img):
        assert_hsv_matches_mod_reference(img)

    def test_fold_signed_zero_and_achromatic_pixels_match_mod_reference(self):
        data = np.array([[
            [0.9, 0.1, 0.1 + 2**-55],  # a red ratio so small that ratio + 6 rounds to 6
            [0.3, 0.24, np.nextafter(0.24, 1.0)],  # hue just below 360
            [0.5, -0.0, 0.0],  # a red ratio of -0.0
            [0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0],  # black, gray, white
        ]])
        r, g, b = np.moveaxis(data[0], 1, 0)
        delta = np.ptp(data[0], axis=1)
        assert 60.0 * ((g[0] - b[0]) / delta[0] + 6.0) == 360.0
        assert 359.0 < 60.0 * ((g[1] - b[1]) / delta[1] + 6.0) < 360.0
        ratio = (g[2] - b[2]) / delta[2]
        assert ratio == 0.0 and np.signbit(ratio)
        assert not delta[3:].any()
        assert_hsv_matches_mod_reference(Raster(data))

    @pytest.mark.parametrize("levels", [8, 255])
    def test_quantised_rasters_match_mod_reference(self, levels):
        data = np.round(np.random.default_rng(levels).random((48, 64, 3)) * levels) / levels
        r, g, b = np.moveaxis(data, 2, 0)
        cmax, chroma = data.max(axis=2), np.ptp(data, axis=2) > 0.0
        red = chroma & (cmax == r)
        green = chroma & (cmax == g) & ~red
        # each sector, a negative red ratio, and red-green ties, which go to red
        assert green.any() and (chroma & ~red & ~green).any()
        assert (red & (g < b)).any() and (red & (cmax == g)).any()
        assert_hsv_matches_mod_reference(Raster(data))

    def test_ring_edge_frames_match_mod_reference(self, ring_edge_frames):
        for frame, truth in ring_edge_frames:
            assert 0 < np.count_nonzero(truth.data == POSIDONIA) < truth.data.size
            assert_hsv_matches_mod_reference(frame)


def assert_hsv_matches_mod_reference(img: Raster) -> None:
    for plane, expected in zip(to_hsv(img), oracles.reference_hsv(img.data)):
        assert plane.tobytes() == expected.tobytes()


class TestEqualize:
    def test_uniform_ramp_fixed_point(self):
        img = gray([[0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]])
        out = equalize_histogram(img)
        assert np.allclose(out.data, img.data, atol=1.0 / 256.0)

    def test_two_level_stretches_to_extremes(self):
        out = equalize_histogram(gray([[0.2, 0.2, 0.2, 0.8]]))
        assert np.allclose(out.data[0, :, 0], [0.0, 0.0, 0.0, 1.0])

    def test_constant_image_unchanged(self):
        img = gray(np.full((4, 4), 0.37))
        assert np.array_equal(equalize_histogram(img).data, img.data)

    def test_color_preserves_hue_where_value_survives(self):
        arr = np.zeros((2, 2, 3))
        arr[0, 0] = (0.1, 0.4, 0.2)
        arr[0, 1] = (0.8, 0.9, 0.85)
        arr[1, 0] = (0.5, 0.2, 0.6)
        arr[1, 1] = (0.3, 0.3, 0.7)
        out = equalize_histogram(Raster(arr))
        hue_before, _, _ = to_hsv(Raster(arr))
        hue_after, _, val_after = to_hsv(out)
        keep = val_after > 0  # the lowest value bin always maps to 0
        assert np.allclose(hue_before[keep], hue_after[keep], atol=1e-9)

    @given(small_images())
    @settings(max_examples=60)
    def test_preserves_pixel_ordering(self, img):
        out = equalize_histogram(img)
        flat_in = img.data.ravel()
        flat_out = out.data.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= -1e-12)


class TestGamma:
    def test_quarter_to_half(self):
        out = gamma_correct(gray([[0.25]]), gamma=0.5)
        assert out.data[0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_identity(self):
        img = gray([[0.3, 0.9]])
        assert np.array_equal(gamma_correct(img, 1.0).data, img.data)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            gamma_correct(gray([[0.5]]), gamma=bad)

    @given(small_images(), st.floats(0.2, 5.0, allow_nan=False))
    @settings(max_examples=60)
    def test_roundtrip(self, img, g):
        back = gamma_correct(gamma_correct(img, g), 1.0 / g)
        assert np.allclose(back.data, img.data, atol=1e-9)


class TestAttenuate:
    def test_half_value_layer(self):
        water = WaterModel(attenuation=(math.log(2.0),) * 3, backscatter_veil=(0.0,) * 3)
        out = attenuate(rgb(1.0, 1.0, 1.0), water, path_length=1.0)
        assert np.allclose(out.data, 0.5, atol=1e-12)

    def test_zero_path_is_identity(self):
        img = rgb(0.3, 0.6, 0.9)
        out = attenuate(img, WaterModel(), path_length=0.0)
        assert np.allclose(out.data, img.data, atol=1e-15)

    def test_zero_veil_is_pure_decay(self):
        water = WaterModel(attenuation=(0.2, 0.3, 0.4), backscatter_veil=(0.0,) * 3)
        img = rgb(0.8, 0.8, 0.8)
        out = attenuate(img, water, 2.0)
        expect = 0.8 * np.exp(-np.array([0.2, 0.3, 0.4]) * 2.0)
        assert np.allclose(out.data[0, 0], expect, atol=1e-12)

    def test_rejects_negative_path(self):
        with pytest.raises(ValueError):
            attenuate(rgb(1, 1, 1), WaterModel(), -1.0)

    @given(small_images(channels=3), st.floats(0.0, 50.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_contracts_toward_veil(self, img, path, seed):
        rng = np.random.default_rng(seed)
        water = WaterModel(
            attenuation=tuple(rng.uniform(0.0, 2.0, 3)),
            backscatter_veil=tuple(rng.uniform(0.0, 1.0, 3)),
        )
        out = attenuate(img, water, path)
        veil = np.asarray(water.backscatter_veil)
        assert np.all(np.abs(out.data - veil) <= np.abs(img.data - veil) + 1e-12)


    @given(
        st.sampled_from([1, 3]).flatmap(odd_width_images),
        st.floats(0.0, 50.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80)
    def test_matches_broadcast_formula(self, img, path, seed):
        rng = np.random.default_rng(seed)
        water = WaterModel(
            attenuation=tuple(rng.uniform(0.0, 2.0, 3)),
            backscatter_veil=tuple(rng.uniform(0.0, 1.0, 3)),
        )
        out = attenuate(img, water, path)
        assert out.data.shape == img.data.shape
        assert out.data.tobytes() == oracles.reference_attenuate(img.data, water, path).tobytes()


class TestSpeckle:
    def test_dot_count_and_brightness(self):
        img = Raster(np.zeros((1000, 1000, 3)))
        water = WaterModel(speckle_density=10.0, speckle_intensity=0.9)
        out = add_speckle(img, water, 3)
        changed = np.argwhere((out.data != img.data).any(axis=2))
        assert 1 <= len(changed) <= 10
        for r, c in changed:
            assert np.all(out.data[r, c] == 0.9)

    def test_zero_density_unchanged(self):
        img = Raster(np.random.default_rng(0).random((8, 8, 3)))
        # rasters are read-only, so the input itself comes back
        assert add_speckle(img, WaterModel(speckle_density=0.0), 7) is img

    def test_clear_water_places_no_dot_on_default_camera(self):
        # 40 dots per megapixel round to none on 128 x 96 pixels
        img = Raster(np.random.default_rng(0).random((96, 128, 3)))
        assert add_speckle(img, WATER_PRESETS["clear"], 7) is img

    def test_never_darkens(self):
        img = Raster(np.full((100, 100, 3), 0.97))
        water = WaterModel(speckle_density=500.0, speckle_intensity=0.5)
        out = add_speckle(img, water, 1)
        assert np.all(out.data >= img.data)

    def test_same_seed_same_dots(self):
        img = Raster(np.zeros((200, 200, 1)))
        water = WaterModel(speckle_density=100.0)
        assert np.array_equal(add_speckle(img, water, 42).data, add_speckle(img, water, 42).data)


class TestPnm:
    def test_color_roundtrip(self, tmp_path):
        img = Raster(np.random.default_rng(5).random((7, 9, 3)))
        path = tmp_path / "img.ppm"
        write_pnm(img, path)
        back = read_pnm(path)
        assert back.data.shape == img.data.shape
        assert np.allclose(back.data, img.data, atol=0.5 / 255.0 + 1e-12)

    def test_gray_roundtrip(self, tmp_path):
        img = gray(np.linspace(0, 1, 16).reshape(4, 4))
        path = tmp_path / "img.pgm"
        write_pnm(img, path)
        assert np.allclose(read_pnm(path).data, img.data, atol=0.5 / 255.0 + 1e-12)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([0, 255]))
        img = read_pnm(path)
        assert img.data[0, 0, 0] == 0.0 and img.data[0, 1, 0] == 1.0

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_bytes(b"P1\n1 1\n1\n")
        with pytest.raises(ValueError):
            read_pnm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"P6\n0 0\n255\n", b"P5\n3 0\n255\n", b"P5\n0 2\n255\n"])
    def test_rejects_zero_size_naming_the_file(self, tmp_path, header):
        path = tmp_path / "z.pnm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=f"must be positive, got .* in {re.escape(str(path))}$"):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"P5\n-1 -1\n255\n\x00", b"P5\nab 2\n255\n"])
    def test_rejects_non_decimal_header_token_naming_the_file(self, tmp_path, header):
        path = tmp_path / "t.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=f"not a decimal number in {re.escape(str(path))}$"):
            read_pnm(path)

    def test_rejects_maxval_other_than_255_naming_the_file(self, tmp_path):
        path = tmp_path / "m100.ppm"
        path.write_bytes(b"P6\n1 1\n100\n\x00\x00\x00")
        with pytest.raises(ValueError, match=f"got 100 in {re.escape(str(path))}$"):
            read_pnm(path)

    @pytest.mark.parametrize("maxval", [0, 1, 3, 254])
    def test_read_pnm_takes_only_maxval_255(self, tmp_path, maxval):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n%d\n\x00" % maxval)
        with pytest.raises(ValueError, match=f"got {maxval} in {re.escape(str(path))}$"):
            read_pnm(path)

    # (file bytes, start of the message): each fails the header or payload
    # parser that read_pnm and read_mask share
    MALFORMED = {
        "empty": (b"", "unsupported PNM magic b''"),
        "one-byte": (b"P", "unsupported PNM magic b'P'"),
        "ascii-pgm": (b"P2\n1 1\n255\n0\n", "unsupported PNM magic b'P2'"),
        "ascii-ppm": (b"P3\n1 1\n255\n0 0 0\n", "unsupported PNM magic b'P3'"),
        "bitmap": (b"P4\n8 1\n\x00", "unsupported PNM magic b'P4'"),
        "magic-only": (b"P5", "truncated PNM header"),
        "width-only": (b"P5\n4", "truncated PNM header"),
        "no-maxval": (b"P6\n4 4\n", "truncated PNM header"),
        "comment-to-end": (b"P5\n# no size follows", "truncated PNM header"),
        "no-payload": (b"P5\n2 2\n255\n", "truncated PNM payload"),
        "short-gray-payload": (b"P5\n2 2\n255\n\x00\x00\x00", "truncated PNM payload"),
        "short-color-payload": (b"P6\n1 1\n255\n\x00\x00", "truncated PNM payload"),
        "two-byte-maxval": (b"P5\n1 1\n256\n\x00\x00", "unsupported maxval 256"),
        "16-bit-maxval": (b"P5\n1 1\n65535\n\x00\x00", "unsupported maxval 65535"),
        "zero-width": (b"P6\n0 3\n255\n", "PNM width and height must be positive, got 0x3"),
        "zero-height": (b"P5\n5 0\n3\n", "PNM width and height must be positive, got 5x0"),
        "signed-token": (b"P5\n+2 1\n255\n\x00\x00", "PNM header token b'+2' is not"),
        "fractional-token": (b"P5\n1.5 1\n255\n\x00", "PNM header token b'1.5' is not"),
        "hex-maxval": (b"P5\n1 1\n0xff\n\x00", "PNM header token b'0xff' is not"),
        "comment-inside-token": (b"P5\n1# c\n1 255\n\x00", "PNM header token b'1#' is not"),
        "non-ascii-token": (b"P5\n\xd9\xa1 1\n255\n\x00", "PNM header token b'\\xd9\\xa1' is not"),
    }

    @pytest.mark.parametrize("reader", [read_pnm, read_mask])
    @pytest.mark.parametrize("case", MALFORMED)
    def test_rejects_malformed_file_naming_it(self, tmp_path, reader, case):
        data, message = self.MALFORMED[case]
        path = tmp_path / "bad.pnm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value).startswith(message)
        assert str(info.value).endswith(f" in {path}")

    # the header's tokens are separated by any run of whitespace and
    # comments; the maxval ends with exactly one whitespace byte
    @pytest.mark.parametrize("header", [
        b"P5\n2 1\n255\n",
        b"P5 2 1 255 ",
        b"P5\t2\t1\t255\t",
        b"P5\r\n2\r\n1\r\n255\r",
        b"P5\n\n  2   \n\n 1\n255\n",
        b"P5\n# after the magic\n2 1\n255\n",
        b"P5\n2 # after the width\n1\n255\n",
        b"P5\n2 1\n# before the maxval\n#\n255\n",
        b"P5\n0002 001\n0255\n",
    ], ids=["newlines", "spaces", "tabs", "crlf", "runs", "comment-1", "comment-2",
            "comment-3", "leading-zeros"])
    def test_header_layouts_read_alike(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes([0, 255]))
        assert read_pnm(path).data.tolist() == [[[0.0], [1.0]]]

    def test_payload_bytes_that_look_like_whitespace_are_samples(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n3 1\n255\n\n #")
        assert read_pnm(path).data.ravel().tolist() == [10 / 255, 32 / 255, 35 / 255]


class TestWaterModel:
    def test_rejects_negative_attenuation(self):
        with pytest.raises(ValueError):
            WaterModel(attenuation=(-0.1, 0.0, 0.0))

    def test_rejects_bad_veil(self):
        with pytest.raises(ValueError):
            WaterModel(backscatter_veil=(0.0, 2.0, 0.0))

    @pytest.mark.parametrize("field, value", [
        ("attenuation", (math.nan, 0.0, 0.0)),
        ("attenuation", (0.0, math.inf, 0.0)),
        ("backscatter_veil", (0.0, math.nan, 0.0)),
        ("speckle_density", math.nan),
        ("speckle_density", math.inf),
        ("speckle_intensity", math.nan),
    ])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            WaterModel(**{field: value})

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 99999999999999999999999, 1.5, True])
    def test_rng_seed_is_an_int64(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            WaterModel(rng_seed=seed)
