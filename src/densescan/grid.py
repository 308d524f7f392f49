"""Image data model, padding/cropping, bit-exact file formats, parameter guards.

Images are immutable after construction (the pixel array is marked
read-only), so every operation here is pure and safe to share across
threads. :class:`Image` copies its pixels, except that it adopts an
array that is already frozen and owns its data (float64, C-contiguous,
read-only, ``flags.owndata``). Views of a read-only array are read-only
too, so a builder that freezes its fresh result, holding no writable
view of it, hands it over without a copy.

Every module checks its scalar parameters with the same four guards:
:func:`_integer` (integral, finite and >= a minimum; returns the int, so
``10.0`` becomes ``10``), :func:`_odd` (a spot or PSF side: an odd
integer >= 1; returns the int), :func:`_positive` (finite, > 0) and
:func:`_nonnegative` (finite, >= 0). Anything else, NaN and +-inf
included, raises a ValueError that names the parameter.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DDSF_MAGIC = b"DDSIMG01"
DDSF_HEADER = struct.Struct("<8sIId")  # magic, width, height, pitch


class FormatError(ValueError):
    """A DDSF payload is malformed (bad magic, truncation, size mismatch)."""


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is integral, finite and >= minimum."""
    try:
        if int(value) == value and (minimum is None or value >= minimum):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, +-inf
        pass
    bound = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be an integer{bound}, got {value}")


def _odd(name: str, value) -> int:
    value = _integer(name, value, 1)
    if value % 2 == 0:
        raise ValueError(f"{name} must be odd, got {value}")
    return value


def _positive(name: str, value) -> None:
    if not (value > 0) or not math.isfinite(value):
        raise ValueError(f"{name} must be > 0, got {value}")


def _nonnegative(name: str, value) -> None:
    if not (value >= 0) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class Image:
    """A 2D real-valued intensity grid with a physical pixel pitch.

    Parameters
    ----------
    pixels : np.ndarray
        Row-major float64 array of shape (height, width). Copied and
        frozen (read-only) on construction, unless it is an ndarray that
        is float64, C-contiguous, owns its data and is already read-only:
        such an array is adopted as is. All values must be finite.
    pitch : float
        Physical sampling, nanometers per pixel. Must be positive and
        finite.
    """

    pixels: np.ndarray
    pitch: float

    def __post_init__(self) -> None:
        px = self.pixels
        frozen = (type(px) is np.ndarray and px.dtype == np.float64
                  and px.flags.c_contiguous and px.flags.owndata and not px.flags.writeable)
        if not frozen:
            px = np.array(px, dtype=np.float64, order="C", copy=True)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2D, got ndim={px.ndim}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixel values must all be finite")
        pitch = float(self.pitch)
        if not np.isfinite(pitch) or pitch <= 0.0:
            raise ValueError(f"pitch must be a positive finite value, got {self.pitch}")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "pitch", pitch)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height}, pitch={self.pitch} nm/px)"


@dataclass(frozen=True)
class Rect:
    """Pixel-aligned window. Offsets may be negative in scan-lattice
    coordinates; width and height are always >= 1."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self) -> None:
        for name, minimum in (("x0", None), ("y0", None), ("width", 1), ("height", 1)):
            object.__setattr__(self, name, _integer(f"Rect.{name}", getattr(self, name), minimum))


def new_image(width: int, height: int, pitch: float, fill: float = 0.0) -> Image:
    """Create a constant-filled image.

    Raises ValueError for dimensions that are not integers >= 1, a
    non-positive pitch, or a non-finite fill value.
    """
    width = _integer("width", width, 1)
    height = _integer("height", height, 1)
    if not np.isfinite(fill):
        raise ValueError(f"fill must be finite, got {fill}")
    return Image(np.full((height, width), float(fill)), pitch)


def pad(image: Image, border: int, value: float = 0.0) -> Image:
    """Surround an image with a constant border on all four sides.

    The interior is copied bit-exactly; output dims grow by 2*border per
    axis. border = 0 returns an identical image.
    """
    border = _integer("border", border, 0)
    if border == 0:
        return Image(image.pixels, image.pitch)
    out = np.pad(image.pixels, border, mode="constant", constant_values=float(value))
    return Image(out, image.pitch)


def crop(image: Image, window: Rect) -> Image:
    """Extract a sub-grid. The window must lie fully inside the image."""
    if window.x0 < 0 or window.y0 < 0:
        raise ValueError(f"crop window starts outside the image: ({window.x0}, {window.y0})")
    if window.x0 + window.width > image.width or window.y0 + window.height > image.height:
        raise ValueError(
            f"crop window {window} exceeds image extent {image.width}x{image.height}"
        )
    sub = image.pixels[window.y0 : window.y0 + window.height, window.x0 : window.x0 + window.width]
    return Image(sub, image.pitch)


def save_ddsf(image: Image, path: str | Path) -> None:
    """Write an image in the DDSF binary format (bit-exact round trip).

    Layout: 8-byte ASCII magic ``DDSIMG01``, u32le width, u32le height,
    f64le pitch, then width*height f64le samples, row-major from the
    top-left pixel.
    """
    header = DDSF_HEADER.pack(DDSF_MAGIC, image.width, image.height, image.pitch)
    payload = np.ascontiguousarray(image.pixels, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_ddsf(path: str | Path) -> Image:
    """Read a DDSF file written by :func:`save_ddsf`.

    Raises FormatError with a distinct message for bad magic, truncated
    header or payload, trailing bytes, or invalid header fields.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < DDSF_HEADER.size:
        raise FormatError(f"truncated header: {len(blob)} bytes < {DDSF_HEADER.size}")
    magic, width, height, pitch = DDSF_HEADER.unpack_from(blob)
    if magic != DDSF_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {DDSF_MAGIC!r}")
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    if not np.isfinite(pitch) or pitch <= 0.0:
        raise FormatError(f"invalid pitch {pitch}")
    expected = width * height * 8
    got = len(blob) - DDSF_HEADER.size
    if got < expected:
        raise FormatError(f"truncated payload: {got} bytes < {expected}")
    if got > expected:
        raise FormatError(f"trailing bytes: {got - expected} past the payload")
    data = np.frombuffer(blob, dtype="<f8", count=width * height, offset=DDSF_HEADER.size)
    if not np.all(np.isfinite(data)):
        raise FormatError("non-finite pixel data")
    return Image(data.reshape(height, width), pitch)


def export_pgm(image: Image, path: str | Path, bit_depth: int = 8) -> None:
    """Write a binary PGM (P5) rendering of the image.

    Values are mapped linearly from [min, max] onto [0, 2**bit_depth - 1].
    A constant image maps to mid-gray (2**(bit_depth-1)) so blank canvases
    stay exportable. 16-bit samples are written big-endian per the
    graymap convention.
    """
    if bit_depth not in (8, 16):
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    maxval = (1 << bit_depth) - 1
    px = image.pixels
    lo = float(px.min())
    hi = float(px.max())
    if hi > lo:
        if hi - lo == np.inf:
            # hi - lo overflowed; halving every value is exact and brings it in range
            px, lo, hi = px / 2, lo / 2, hi / 2
        # divide before scaling: for near-degenerate ranges the ratio
        # stays in [0, 1] where a precomputed 1/(hi-lo) would overflow
        scaled = np.rint((px - lo) / (hi - lo) * maxval)
        levels = np.clip(scaled, 0, maxval)
    else:
        levels = np.full(px.shape, float(1 << (bit_depth - 1)))
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    body = levels.astype(">u2" if bit_depth == 16 else "u1").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)
