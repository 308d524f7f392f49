"""Quantitative image comparison and resolution diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import Image


@dataclass(frozen=True)
class MetricsReport:
    """The metrics of :func:`compare`; their order is the text and CSV order."""

    mean_abs: float
    mean_signed: float
    rmse: float
    max_abs: float
    psnr_db: float

    def to_text(self) -> str:
        """Flat key-value block, one metric per line."""
        return "\n".join(f"{f.name} = {getattr(self, f.name)!r}" for f in fields(self))

    def csv_row(self, comparison: str) -> str:
        """Single CSV row in the :data:`CSV_HEADER` column order."""
        return ",".join([comparison] + [repr(getattr(self, f.name)) for f in fields(self)])


CSV_HEADER = ",".join(["comparison"] + [f.name for f in fields(MetricsReport)])


def compare(a: Image, b: Image) -> MetricsReport:
    """Pixelwise difference statistics of a against the reference b.

    PSNR uses the peak of the reference (second) argument; it is the one
    asymmetric field. Identical images report psnr_db = inf.
    """
    if a.width != b.width or a.height != b.height:
        raise ValueError(
            f"image dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    d = a.pixels - b.pixels
    mean_signed = float(np.mean(d))
    rmse = float(np.sqrt(np.mean(np.square(d))))
    d = np.abs(d, out=d)  # d is fresh: its magnitudes overwrite it
    mean_abs = float(np.mean(d))
    max_abs = float(np.max(d))
    peak = float(b.pixels.max())
    if rmse == 0.0:
        psnr = math.inf
    elif peak <= 0.0:
        psnr = -math.inf
    else:
        psnr = 20.0 * math.log10(peak / rmse)
    return MetricsReport(mean_abs, mean_signed, rmse, max_abs, psnr)


def two_point_contrast(image: Image, p1: tuple[int, int], p2: tuple[int, int]) -> float:
    """Dip contrast between two peak locations, in [0, 1].

    Samples the straight segment p1..p2 at nearest pixels and returns
    1 - min(profile) / mean(peaks); 0 when there is no dip (or the peaks
    are not positive). Points are (x, y) pixel coordinates.
    """
    x1, y1 = p1
    x2, y2 = p2
    for (x, y) in (p1, p2):
        if not (0 <= x < image.width and 0 <= y < image.height):
            raise ValueError(f"point ({x}, {y}) outside image "
                             f"{image.width}x{image.height}")
    if p1 == p2:
        raise ValueError("the two points must differ")
    n = max(abs(x2 - x1), abs(y2 - y1)) + 1
    lowest = math.inf
    for i in range(n):
        t = i / (n - 1)
        x = math.floor(x1 + t * (x2 - x1) + 0.5)
        y = math.floor(y1 + t * (y2 - y1) + 0.5)
        lowest = min(lowest, float(image.pixels[y, x]))
    peaks = 0.5 * (float(image.pixels[y1, x1]) + float(image.pixels[y2, x2]))
    if peaks <= 0.0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - lowest / peaks))
