import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from posidonia_inspect.imaging import (
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


class TestToHsv:
    def test_pure_red(self):
        hsv = to_hsv(rgb(1.0, 0.0, 0.0))
        assert (hsv.hue[0, 0], hsv.saturation[0, 0], hsv.value[0, 0]) == (0.0, 1.0, 1.0)

    def test_pure_blue(self):
        hsv = to_hsv(rgb(0.0, 0.0, 1.0))
        assert (hsv.hue[0, 0], hsv.saturation[0, 0], hsv.value[0, 0]) == (240.0, 1.0, 1.0)

    def test_mid_gray_is_achromatic(self):
        hsv = to_hsv(rgb(0.5, 0.5, 0.5))
        assert (hsv.hue[0, 0], hsv.saturation[0, 0], hsv.value[0, 0]) == (0.0, 0.0, 0.5)

    def test_black_has_zero_saturation(self):
        hsv = to_hsv(rgb(0.0, 0.0, 0.0))
        assert hsv.saturation[0, 0] == 0.0 and hsv.value[0, 0] == 0.0

    def test_requires_three_channels(self):
        with pytest.raises(ValueError):
            to_hsv(gray([[0.5]]))

    @given(small_images(channels=3))
    @settings(max_examples=60)
    def test_roundtrip_through_rgb(self, img):
        back = hsv_to_rgb(to_hsv(img))
        assert np.allclose(back.data, img.data, atol=1e-12)

    @given(small_images(channels=3))
    @settings(max_examples=60)
    def test_value_is_channel_max(self, img):
        assert np.array_equal(to_hsv(img).value, img.data.max(axis=2))


    @given(odd_width_images(3))
    @settings(max_examples=80)
    def test_matches_axis_reduction_formulas(self, img):
        hsv = to_hsv(img)
        hue, sat, value = oracles.reference_hsv(img.data)
        assert hsv.hue.tobytes() == hue.tobytes()
        assert hsv.saturation.tobytes() == sat.tobytes()
        assert hsv.value.tobytes() == value.tobytes()


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
        before = to_hsv(Raster(arr))
        after = to_hsv(out)
        keep = after.value > 0  # the lowest value bin always maps to 0
        assert np.allclose(before.hue[keep], after.hue[keep], atol=1e-9)

    @given(small_images())
    @settings(max_examples=60)
    def test_preserves_pixel_ordering(self, img):
        out = equalize_histogram(img)
        flat_in = img.data.ravel()
        flat_out = out.data.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= -1e-12)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            equalize_histogram(gray([[0.5]]), bins=1)


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
        water = WaterModel(attenuation=math.log(2.0), backscatter_veil=0.0)
        out = attenuate(rgb(1.0, 1.0, 1.0), water, path_length=1.0)
        assert np.allclose(out.data, 0.5, atol=1e-12)

    def test_zero_path_is_identity(self):
        img = rgb(0.3, 0.6, 0.9)
        out = attenuate(img, WaterModel(), path_length=0.0)
        assert np.allclose(out.data, img.data, atol=1e-15)

    def test_zero_veil_is_pure_decay(self):
        water = WaterModel(attenuation=(0.2, 0.3, 0.4), backscatter_veil=0.0)
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
        water = WaterModel(speckle_density=10.0, speckle_intensity=0.9, rng_seed=3)
        out = add_speckle(img, water)
        changed = np.argwhere((out.data != img.data).any(axis=2))
        assert 1 <= len(changed) <= 10
        for r, c in changed:
            assert np.all(out.data[r, c] == 0.9)

    def test_zero_density_unchanged(self):
        img = Raster(np.random.default_rng(0).random((8, 8, 3)))
        out = add_speckle(img, WaterModel(speckle_density=0.0))
        assert np.array_equal(out.data, img.data)

    def test_never_darkens(self):
        img = Raster(np.full((100, 100, 3), 0.97))
        water = WaterModel(speckle_density=500.0, speckle_intensity=0.5, rng_seed=1)
        out = add_speckle(img, water)
        assert np.all(out.data >= img.data)

    def test_same_seed_same_dots(self):
        img = Raster(np.zeros((200, 200, 1)))
        water = WaterModel(speckle_density=100.0, rng_seed=42)
        assert np.array_equal(add_speckle(img, water).data, add_speckle(img, water).data)


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


class TestWaterModel:
    def test_rejects_negative_attenuation(self):
        with pytest.raises(ValueError):
            WaterModel(attenuation=(-0.1, 0.0, 0.0))

    def test_rejects_bad_veil(self):
        with pytest.raises(ValueError):
            WaterModel(backscatter_veil=(0.0, 2.0, 0.0))

    def test_scalar_broadcast(self):
        w = WaterModel(attenuation=0.2, backscatter_veil=0.1)
        assert w.attenuation == (0.2, 0.2, 0.2)
        assert w.backscatter_veil == (0.1, 0.1, 0.1)
