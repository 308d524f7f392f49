"""Ground-truth sample generators with structure finer than the spot.

Targets are binary-valued (0/1) so post-deconvolution ringing and errors
read directly in the metrics. Each spec class renders itself onto a
canvas (``render``), checking that its geometry fits; :func:`generate`
wraps the result in an Image. Generation is deterministic: RandomBlobs
draws its geometry from Python's random.Random, whose sequence is
stability-guaranteed across platforms and versions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .grid import Image, _integer, _positive


@dataclass(frozen=True)
class PointPair:
    """Two single-pixel unit impulses on the center row, ``separation``
    pixels apart."""

    separation: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "separation", _integer("separation", self.separation, 1))

    def render(self, width: int, height: int) -> np.ndarray:
        cy = height // 2
        x1 = width // 2 - self.separation // 2
        x2 = x1 + self.separation
        if x1 < 1 or x2 > width - 2 or cy < 1 or cy > height - 2:
            raise ValueError(
                f"separation {self.separation} does not fit a {width}x{height} canvas "
                "with a 1 px margin"
            )
        out = np.zeros((height, width))
        out[cy, x1] = 1.0
        out[cy, x2] = 1.0
        return out


@dataclass(frozen=True)
class BarGrid:
    """Vertical bars with the given pixel period and duty cycle."""

    period: int
    duty: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _integer("period", self.period, 1))
        if not (0.0 < self.duty < 1.0):
            raise ValueError(f"duty must lie in (0, 1), got {self.duty}")

    def render(self, width: int, height: int) -> np.ndarray:
        on_width = max(1, min(self.period, round(self.period * self.duty)))
        # x % p == x for 0 <= x < width <= p, and numpy ints cannot hold any p
        cols = (np.arange(width) % min(self.period, width)) < on_width
        out = np.zeros((height, width))
        out[:, cols] = 1.0
        return out


@dataclass(frozen=True)
class SiemensStar:
    spokes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "spokes", _integer("spokes", self.spokes, 2))
        if self.spokes > 2**52:  # wedge indices reach 2 spokes; past 2**53 no float is odd
            raise ValueError(f"spokes must be <= 2**52, got {self.spokes}")

    def render(self, width: int, height: int) -> np.ndarray:
        radius = min(width, height) / 2.0 - 1.5
        if radius < 2.0:
            raise ValueError(f"canvas {width}x{height} too small for a star target")
        cy = (height - 1) / 2.0
        cx = (width - 1) / 2.0
        yy, xx = np.mgrid[0:height, 0:width]
        dy = yy - cy
        dx = xx - cx
        angle = np.arctan2(dy, dx) + np.pi  # [0, 2pi]
        wedge = np.floor(angle / (np.pi / self.spokes)).astype(int)
        inside = np.hypot(dy, dx) <= radius
        return np.where(inside & (wedge % 2 == 0), 1.0, 0.0)


@dataclass(frozen=True)
class RandomBlobs:
    count: int
    radius: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _integer("count", self.count, 1))
        _positive("radius", self.radius)

    def render(self, width: int, height: int) -> np.ndarray:
        margin = int(math.ceil(self.radius)) + 1
        if width - margin <= margin or height - margin <= margin:
            raise ValueError(
                f"blob radius {self.radius} does not fit a {width}x{height} canvas"
            )
        rng = random.Random(self.seed)
        out = np.zeros((height, width))
        yy, xx = np.mgrid[0:height, 0:width]
        for _ in range(self.count):
            cx = rng.randrange(margin, width - margin)
            cy = rng.randrange(margin, height - margin)
            out[np.hypot(yy - cy, xx - cx) <= self.radius] = 1.0
        return out


PatternSpec = PointPair | BarGrid | SiemensStar | RandomBlobs


def generate(spec: PatternSpec, width: int, height: int, pitch: float) -> Image:
    """Render a test target; values are 0/1, generation is deterministic.

    Raises ValueError when the requested geometry exceeds the canvas.
    """
    width = _integer("width", width, 1)
    height = _integer("height", height, 1)
    if not isinstance(spec, PatternSpec):
        raise ValueError(f"unknown pattern spec {spec!r}")
    return Image(spec.render(width, height), pitch)
