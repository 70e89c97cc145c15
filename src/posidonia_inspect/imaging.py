"""Synthetic underwater imaging: rasters, color space, enhancement, water effects.

All rasters hold float64 intensities in [0, 1], shape (height, width, channels)
with 1 (gray) or 3 (RGB) channels.  Every operation is pure: inputs are never
mutated.  Rasters are read-only, so an operation that changes nothing may
return its input.  A pixelwise operation (gamma, attenuation, speckle)
returns its input's type, so a subclass such as a pose-stamped frame keeps
its extra fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rules import integer, number, vector

__all__ = [
    "Raster",
    "WaterModel",
    "WATER_PRESETS",
    "value_channel",
    "to_hsv",
    "hsv_to_rgb",
    "equalize_histogram",
    "gamma_correct",
    "water_factors",
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
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(f"raster must be (H, W, 1|3), got shape {np.shape(self.data)}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("raster must have positive width and height")
        # a NaN makes both extremes NaN, so two scalars stand for every pixel
        number("raster minimum", float(arr.min()), 0, 1)
        number("raster maximum", float(arr.max()), 0, 1)
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
class WaterModel:
    """Optical water column: per-channel attenuation and veil, plus speckle.

    ``rng_seed`` only salts the speckle: render seeds each frame's dots with
    a hash of the mission seed, this salt and the camera pose.
    """

    attenuation: tuple[float, float, float] = (0.05, 0.06, 0.04)
    backscatter_veil: tuple[float, float, float] = (0.02, 0.03, 0.04)
    speckle_density: float = 0.0  # bright dots per megapixel
    speckle_intensity: float = 0.95
    rng_seed: int = 0

    def __post_init__(self) -> None:
        att = vector("attenuation", self.attenuation, 3, 0)
        veil = vector("backscatter_veil", self.backscatter_veil, 3, 0, 1)
        number("speckle_density", self.speckle_density, 0)
        number("speckle_intensity", self.speckle_intensity, 0, 1)
        integer("rng_seed", self.rng_seed, -(2**63), 2**63)
        object.__setattr__(self, "attenuation", att)
        object.__setattr__(self, "backscatter_veil", veil)


# Named presets, roughly ordered clear -> turbid coastal.
WATER_PRESETS: dict[str, WaterModel] = {
    "clear": WaterModel((0.05, 0.05, 0.05), (0.02, 0.02, 0.025), 40.0, 0.95, 0),
    "coastal": WaterModel((0.12, 0.10, 0.14), (0.04, 0.05, 0.06), 120.0, 0.92, 0),
    "turbid": WaterModel((0.30, 0.26, 0.34), (0.08, 0.10, 0.12), 400.0, 0.90, 0),
}


def value_channel(data: np.ndarray) -> np.ndarray:
    """HSV value of (H, W, 1|3) intensities: the largest channel of each pixel."""
    if data.shape[2] == 1:
        return data[:, :, 0]
    # chained over the planes: an axis-2 reduction loops over only 3 values
    return np.maximum(np.maximum(data[:, :, 0], data[:, :, 1]), data[:, :, 2])


def to_hsv(img: Raster) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert an RGB raster to (hue, saturation, value), each (H, W).

    value = max(r, g, b); saturation = (max - min) / max with 0/0 -> 0;
    hue, in degrees in [0, 360), follows Smith's hexcone sectors, 0 for
    achromatic pixels.
    """
    if img.channels != 3:
        raise ValueError("to_hsv requires a 3-channel raster")
    # one contiguous plane per channel: every pass below then reads unit strides
    r, g, b = np.ascontiguousarray(img.data.transpose(2, 0, 1))
    cmax = np.maximum(np.maximum(r, g), b)
    delta = cmax - np.minimum(np.minimum(r, g), b)

    sat = np.zeros_like(cmax)
    np.divide(delta, cmax, out=sat, where=cmax > 0.0)
    chroma = delta > 0.0
    m_r = chroma & (cmax == r)
    m_g = chroma & (cmax == g) & ~m_r
    m_b = chroma ^ m_r ^ m_g
    hue = np.zeros_like(cmax)
    np.subtract(g, b, out=hue, where=m_r)
    np.subtract(b, r, out=hue, where=m_g)
    np.subtract(r, g, out=hue, where=m_b)
    np.divide(hue, delta, out=hue, where=chroma)
    # Each sector ratio lies in [-1, 1] because |diff| <= delta.  There the
    # red sector's mod(x, 6) is x + 6 for x < 0 and x + 0.0 otherwise (the
    # + 0.0 turns a -0.0 into the +0.0 that numpy's mod returns).
    np.add(hue, 6.0, out=hue, where=m_r & (hue < 0.0))
    np.add(hue, 2.0, out=hue, where=m_g)
    np.add(hue, 4.0, out=hue, where=m_b)
    hue += 0.0
    hue *= 60.0
    # the sectors give [0, 360]; 360 comes only from a tiny negative red
    # ratio rounding up to 6, and mod(hue, 360) would fold it to 0
    np.copyto(hue, 0.0, where=hue == 360.0)
    return hue, sat, cmax


def hsv_to_rgb(hue: np.ndarray, sat: np.ndarray, val: np.ndarray) -> Raster:
    """Inverse of to_hsv (exact up to float rounding)."""
    h = hue / 60.0
    c = val * sat
    x = c * (1.0 - np.abs(np.mod(h, 2.0) - 1.0))
    m = val - c
    zeros = np.zeros_like(h)
    sector = np.floor(h).astype(int) % 6
    r = np.choose(sector, [c, x, zeros, zeros, x, c])
    g = np.choose(sector, [x, c, c, x, zeros, zeros])
    b = np.choose(sector, [zeros, zeros, x, c, c, x])
    rgb = np.stack([r + m, g + m, b + m], axis=2)
    return Raster(np.clip(rgb, 0.0, 1.0))


def _equalize_channel(chan: np.ndarray) -> np.ndarray:
    # Min-normalized CDF mapping over 256 bins; a constant channel maps to itself.
    bins = 256
    idx = np.minimum((chan * bins).astype(np.int64), bins - 1)
    hist = np.bincount(idx.ravel(), minlength=bins)
    cdf = np.cumsum(hist) / chan.size
    cdf_min = cdf[np.nonzero(hist)[0][0]]
    if cdf_min >= 1.0:
        return chan.copy()
    out = (cdf[idx] - cdf_min) / (1.0 - cdf_min)
    return np.clip(out, 0.0, 1.0)


def equalize_histogram(img: Raster) -> Raster:
    """Histogram equalization via the min-normalized CDF.

    Gray rasters are equalized directly; RGB rasters are converted to HSV,
    the value channel is equalized, and the result converted back, so hue
    and saturation are preserved.
    """
    if img.channels == 1:
        out = _equalize_channel(img.data[:, :, 0])
        return Raster(out[:, :, np.newaxis])
    hue, sat, val = to_hsv(img)
    return hsv_to_rgb(hue, sat, _equalize_channel(val))


def gamma_correct(img: Raster, gamma: float) -> Raster:
    """Power-law correction out = in ** gamma. gamma must be > 0."""
    number("gamma", gamma, 0, lo_open=True)
    return replace(img, data=np.power(img.data, gamma))


def water_factors(
    water: WaterModel, path_length: float, channels: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel decay exp(-c * L) and veil term veil * (1 - exp(-c * L)).

    These two vectors are all that :func:`attenuate` reads of the water and
    the path, so paths whose factors are bitwise equal attenuate alike.
    Gray (1-channel) factors use the channel-mean coefficient and veil.
    """
    number("path_length", path_length, 0)
    att = np.asarray(water.attenuation, dtype=np.float64)
    veil = np.asarray(water.backscatter_veil, dtype=np.float64)
    if channels == 1:
        att = np.array([att.mean()])
        veil = np.array([veil.mean()])
    decay = np.exp(-att * path_length)
    return decay, veil * (1.0 - decay)


def attenuate(img: Raster, water: WaterModel, path_length: float) -> Raster:
    """Attenuate along a water path and add the backscatter veil.

    out = in * exp(-c * L) + veil * (1 - exp(-c * L)) per channel.  With a
    zero veil this is the plain exponential decay law; L = 0 is the identity.
    Gray rasters use the channel-mean coefficient and veil.
    """
    decay, veil_term = water_factors(water, path_length, img.channels)
    # per-channel factors tiled along a row of the (H, W*C) view, so the
    # arithmetic runs over whole rows instead of broadcasting over C
    h, w, c = img.data.shape
    out = img.data.reshape(h, w * c) * np.tile(decay, w)
    out += np.tile(veil_term, w)
    np.clip(out, 0.0, 1.0, out=out)
    return replace(img, data=out.reshape(h, w, c))


def add_speckle(img: Raster, water: WaterModel, seed: int) -> Raster:
    """Scatter bright particle dots over the raster.

    Places round(speckle_density * megapixels) single-pixel dots at positions
    drawn from a generator seeded with ``seed``; each hit pixel becomes
    max(current, speckle_intensity) on all channels.  Collisions may land on
    the same pixel, so the count of changed pixels can be lower.  With no dot
    to place, the input raster itself comes back.
    """
    n = int(round(water.speckle_density * img.width * img.height / 1e6))
    if n == 0:
        return img
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, img.height, size=n)
    xs = rng.integers(0, img.width, size=n)
    out = img.data.copy()
    out[ys, xs, :] = np.maximum(out[ys, xs, :], water.speckle_intensity)
    return replace(img, data=out)


# ---------------------------------------------------------------------------
# PNM (PGM P5 / PPM P6) input and output, maxval 255.

def write_pnm(img: Raster, path) -> None:
    """Write a raster as binary PGM (1 channel) or PPM (3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        # rounded in place, 64 rows at a time: a map-sized raster needs no
        # map-sized float temporary
        for top in range(0, img.height, 64):
            samples = img.data[top:top + 64] * 255.0
            np.round(samples, out=samples)
            fh.write(samples.astype(np.uint8).tobytes())


def _read_binary_pnm(path) -> tuple[bytes, int, np.ndarray]:
    """Magic, maxval and (H, W, 1|3) uint8 samples of a binary PGM/PPM file."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"unsupported PNM magic {magic!r} in {path}")
        # width, height and maxval, each ended by one whitespace byte; a '#'
        # between them starts a comment that runs to the end of its line
        tokens: list[int] = []
        tok = b""
        while len(tokens) < 3:
            ch = fh.read(1)
            if ch == b"#" and not tok:
                fh.readline()
            elif ch and ch not in b" \t\r\n":
                tok += ch
            elif tok:
                if not tok.isdigit():
                    raise ValueError(f"PNM header token {tok!r} is not a decimal number in {path}")
                tokens.append(int(tok))
                tok = b""
            elif not ch:
                raise ValueError(f"truncated PNM header in {path}")
        width, height, maxval = tokens
        if maxval > 255:  # samples would take two bytes each
            raise ValueError(f"unsupported maxval {maxval} in {path}")
        if min(width, height) < 1:
            raise ValueError(f"PNM width and height must be positive, got {width}x{height} in {path}")
        channels = 1 if magic == b"P5" else 3
        raw = fh.read(width * height * channels)
        if len(raw) != width * height * channels:
            raise ValueError(f"truncated PNM payload in {path}")
    return magic, maxval, np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)


def read_pnm(path) -> Raster:
    """Read a binary PGM/PPM file with maxval 255 into a raster."""
    _, maxval, arr = _read_binary_pnm(path)
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval} in {path}")
    return Raster(arr.astype(np.float64) / 255.0)
