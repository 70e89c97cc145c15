"""Synthetic underwater imaging: rasters, color space, enhancement, water effects.

All rasters hold float64 intensities in [0, 1], shape (height, width, channels)
with 1 (gray) or 3 (RGB) channels.  Every operation is pure: inputs are never
mutated and outputs are freshly allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Raster",
    "HsvRaster",
    "WaterModel",
    "WATER_PRESETS",
    "to_hsv",
    "hsv_to_rgb",
    "equalize_histogram",
    "gamma_correct",
    "attenuate",
    "add_speckle",
    "read_pnm",
    "write_pnm",
]


@dataclass(frozen=True)
class Raster:
    """Image with row-major float64 data in [0, 1], 1 or 3 channels."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(f"raster must be (H, W, 1|3), got shape {np.shape(self.data)}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("raster must have positive width and height")
        if not np.all(np.isfinite(arr)):
            raise ValueError("raster intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("raster intensities must lie in [0, 1]")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)  # purity: rasters are immutable once built
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class HsvRaster:
    """Per-pixel hue (degrees, [0, 360)), saturation and value, each (H, W)."""

    hue: np.ndarray
    saturation: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.hue, dtype=np.float64)
        s = np.asarray(self.saturation, dtype=np.float64)
        v = np.asarray(self.value, dtype=np.float64)
        if not (h.shape == s.shape == v.shape) or h.ndim != 2:
            raise ValueError("hue/saturation/value must share one (H, W) shape")
        if h.min() < 0.0 or h.max() >= 360.0:
            raise ValueError("hue must lie in [0, 360)")
        if s.min() < 0.0 or s.max() > 1.0 or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("saturation and value must lie in [0, 1]")
        for name, arr in (("hue", h), ("saturation", s), ("value", v)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _triplet(value, name: str) -> tuple[float, float, float]:
    if np.isscalar(value):
        value = (float(value),) * 3
    t = tuple(float(v) for v in value)
    if len(t) != 3:
        raise ValueError(f"{name} must be a scalar or length-3 sequence")
    return t  # type: ignore[return-value]


@dataclass(frozen=True)
class WaterModel:
    """Optical water column: per-channel attenuation and veil, plus speckle."""

    attenuation: tuple[float, float, float] = (0.05, 0.06, 0.04)
    backscatter_veil: tuple[float, float, float] = (0.02, 0.03, 0.04)
    speckle_density: float = 0.0  # bright dots per megapixel
    speckle_intensity: float = 0.95
    rng_seed: int = 0

    def __post_init__(self) -> None:
        att = _triplet(self.attenuation, "attenuation")
        veil = _triplet(self.backscatter_veil, "backscatter_veil")
        if any(c < 0 for c in att):
            raise ValueError("attenuation coefficients must be >= 0")
        if any(not (0.0 <= v <= 1.0) for v in veil):
            raise ValueError("backscatter_veil must lie in [0, 1]")
        if self.speckle_density < 0:
            raise ValueError("speckle_density must be >= 0")
        if not (0.0 <= self.speckle_intensity <= 1.0):
            raise ValueError("speckle_intensity must lie in [0, 1]")
        object.__setattr__(self, "attenuation", att)
        object.__setattr__(self, "backscatter_veil", veil)


# Named presets, roughly ordered clear -> turbid coastal.
WATER_PRESETS: dict[str, WaterModel] = {
    "clear": WaterModel((0.05, 0.05, 0.05), (0.02, 0.02, 0.025), 40.0, 0.95, 0),
    "coastal": WaterModel((0.12, 0.10, 0.14), (0.04, 0.05, 0.06), 120.0, 0.92, 0),
    "turbid": WaterModel((0.30, 0.26, 0.34), (0.08, 0.10, 0.12), 400.0, 0.90, 0),
}


def to_hsv(img: Raster) -> HsvRaster:
    """Convert an RGB raster to HSV.

    value = max(r, g, b); saturation = (max - min) / max with 0/0 -> 0;
    hue follows the usual piecewise formula, 0 for achromatic pixels.
    """
    if img.channels != 3:
        raise ValueError("to_hsv requires a 3-channel raster")
    rgb = img.data
    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    # chained over the planes: an axis-2 reduction loops over only 3 values
    cmax = np.maximum(np.maximum(r, g), b)
    cmin = np.minimum(np.minimum(r, g), b)
    delta = cmax - cmin

    sat = np.zeros_like(cmax)
    np.divide(delta, cmax, out=sat, where=cmax > 0.0)
    hue = np.zeros_like(cmax)
    m_r = (cmax == r) & (delta > 0.0)
    m_g = (cmax == g) & (delta > 0.0) & ~m_r
    m_b = (delta > 0.0) & ~m_r & ~m_g
    # per-sector ratios lie in [-1, 1] because |diff| <= delta
    hue[m_r] = 60.0 * np.mod((g[m_r] - b[m_r]) / delta[m_r], 6.0)
    hue[m_g] = 60.0 * ((b[m_g] - r[m_g]) / delta[m_g] + 2.0)
    hue[m_b] = 60.0 * ((r[m_b] - g[m_b]) / delta[m_b] + 4.0)
    hue = np.mod(hue, 360.0)
    return HsvRaster(hue=hue, saturation=sat, value=cmax)


def hsv_to_rgb(hsv: HsvRaster) -> Raster:
    """Inverse of to_hsv (exact up to float rounding)."""
    h = hsv.hue / 60.0
    s = hsv.saturation
    v = hsv.value
    c = v * s
    x = c * (1.0 - np.abs(np.mod(h, 2.0) - 1.0))
    m = v - c
    zeros = np.zeros_like(h)
    sector = np.floor(h).astype(int) % 6
    r = np.choose(sector, [c, x, zeros, zeros, x, c])
    g = np.choose(sector, [x, c, c, x, zeros, zeros])
    b = np.choose(sector, [zeros, zeros, x, c, c, x])
    rgb = np.stack([r + m, g + m, b + m], axis=2)
    return Raster(np.clip(rgb, 0.0, 1.0))


def _equalize_channel(chan: np.ndarray, bins: int) -> np.ndarray:
    # Min-normalized CDF mapping; a constant channel maps to itself.
    idx = np.minimum((chan * bins).astype(np.int64), bins - 1)
    hist = np.bincount(idx.ravel(), minlength=bins)
    cdf = np.cumsum(hist) / chan.size
    cdf_min = cdf[np.nonzero(hist)[0][0]]
    if cdf_min >= 1.0:
        return chan.copy()
    out = (cdf[idx] - cdf_min) / (1.0 - cdf_min)
    return np.clip(out, 0.0, 1.0)


def equalize_histogram(img: Raster, bins: int = 256) -> Raster:
    """Histogram equalization via the min-normalized CDF.

    Gray rasters are equalized directly; RGB rasters are converted to HSV,
    the value channel is equalized, and the result converted back, so hue
    and saturation are preserved.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if img.channels == 1:
        out = _equalize_channel(img.data[:, :, 0], bins)
        return Raster(out[:, :, np.newaxis])
    hsv = to_hsv(img)
    value = _equalize_channel(hsv.value, bins)
    return hsv_to_rgb(HsvRaster(hue=hsv.hue, saturation=hsv.saturation, value=value))


def gamma_correct(img: Raster, gamma: float = 1.5) -> Raster:
    """Power-law correction out = in ** gamma. gamma must be > 0.

    The default exponent is a working value chosen for the rock-enhancement
    path; it has not been validated against field imagery.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError("gamma must be a positive finite number")
    return Raster(np.power(img.data, gamma))


def attenuate(img: Raster, water: WaterModel, path_length: float) -> Raster:
    """Attenuate along a water path and add the backscatter veil.

    out = in * exp(-c * L) + veil * (1 - exp(-c * L)) per channel.  With a
    zero veil this is the plain exponential decay law; L = 0 is the identity.
    Gray rasters use the channel-mean coefficient and veil.
    """
    if path_length < 0 or not math.isfinite(path_length):
        raise ValueError("path_length must be finite and >= 0")
    att = np.asarray(water.attenuation, dtype=np.float64)
    veil = np.asarray(water.backscatter_veil, dtype=np.float64)
    if img.channels == 1:
        att = np.array([att.mean()])
        veil = np.array([veil.mean()])
    decay = np.exp(-att * path_length)
    # per-channel factors tiled along a row of the (H, W*C) view, so the
    # arithmetic runs over whole rows instead of broadcasting over C
    h, w, c = img.data.shape
    out = img.data.reshape(h, w * c) * np.tile(decay, w)
    out += np.tile(veil * (1.0 - decay), w)
    np.clip(out, 0.0, 1.0, out=out)
    return Raster(out.reshape(h, w, c))


def add_speckle(img: Raster, water: WaterModel) -> Raster:
    """Scatter bright particle dots over the raster.

    Places round(speckle_density * megapixels) single-pixel dots at positions
    drawn from a generator seeded with water.rng_seed; each hit pixel becomes
    max(current, speckle_intensity) on all channels.  Collisions may land on
    the same pixel, so the count of changed pixels can be lower.
    """
    n = int(round(water.speckle_density * img.width * img.height / 1e6))
    if n == 0:
        return Raster(img.data.copy())
    rng = np.random.default_rng(water.rng_seed)
    ys = rng.integers(0, img.height, size=n)
    xs = rng.integers(0, img.width, size=n)
    out = img.data.copy()
    out[ys, xs, :] = np.maximum(out[ys, xs, :], water.speckle_intensity)
    return Raster(out)


# ---------------------------------------------------------------------------
# PNM (PGM P5 / PPM P6) input and output, maxval 255.

def write_pnm(img: Raster, path) -> None:
    """Write a raster as binary PGM (1 channel) or PPM (3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    quant = np.round(img.data * 255.0).astype(np.uint8)
    if img.channels == 1:
        quant = quant[:, :, 0]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        fh.write(quant.tobytes())


def _read_pnm_tokens(fh, count: int) -> list[int]:
    # Header tokens separated by whitespace; '#' starts a comment to EOL.
    tokens: list[int] = []
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PNM header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch and ch != b"\n":
                ch = fh.read(1)
            continue
        tok = ch
        while True:
            ch = fh.read(1)
            if not ch or ch in b" \t\r\n":
                break
            tok += ch
        tokens.append(int(tok))
    return tokens


def read_pnm(path) -> Raster:
    """Read a binary PGM/PPM file with maxval 255 into a raster."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"unsupported PNM magic {magic!r} in {path}")
        width, height, maxval = _read_pnm_tokens(fh, 3)
        if maxval != 255:
            raise ValueError(f"only maxval 255 is supported, got {maxval}")
        channels = 1 if magic == b"P5" else 3
        raw = fh.read(width * height * channels)
        if len(raw) != width * height * channels:
            raise ValueError(f"truncated PNM payload in {path}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)
    return Raster(arr.astype(np.float64) / 255.0)
