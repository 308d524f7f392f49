"""Forward model: point-scan simulation, wide-field baseline, noise.

A scan measures, at each lattice site, the spot-weighted sum of the
sample's optical response under the site's footprint. The sample is
extended outside its bounds by the declared background model (the
preprocessed periphery). With step 1 this is exactly a correlation of
the extended sample with the spot; coarser steps subsample that dense
field, so usual-scan outputs are bit-identical to subsampled dense-scan
outputs by construction.

That correlation is one linear map, :class:`ScanOperator`, used by the
fft scan, all four solvers and the wide-field blur. Only the
N + spot_side - 1 sites per axis whose footprint meets an N-px sample
can be nonzero, so it computes the linear correlation on a circular grid
of the next 5-smooth (fast FFT) length >= N + spot_side - 1 per axis,
where the circular product is exact. When extension > spot_side // 2 it
writes the result into a zero lattice, so the zero border is exact;
otherwise (every blur) the result, cropped when extension <
spot_side // 2, is the lattice itself, returned with no copy. Its
inverse FFT transforms back only the rows it keeps (300 of 900 in the
default blur), bitwise equal to ``irfft2`` and crop. The spectral
solvers divide by its transfer in :meth:`~ScanOperator.deconvolve`,
which alone holds their rule: exact only when extension >=
spot_side // 2, it raises below that. The wide-field blur is the same
map with the flipped PSF and no extension, cropped to the 2(N - 1) + 1
taps that can meet an N-px sample. Of the ``SCAN_METHODS``, ``auto``
and ``fft`` run it; ``direct``, the bit-reproducible reference, sums
taps in a fixed order at kept sites.

Lattice convention: sites per axis are c_i = -extension + (step-1)//2 +
i*step for i in range(floor((N + 2*extension)/step)); footprints are
centered on their step cell, which reproduces side-by-side tiling when
the step equals the spot side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Image, _integer, _nonnegative, _odd
from .psf import SpotImage


@dataclass(frozen=True)
class ZeroBackground:
    """Preprocessed periphery: zero response outside the sample."""

    level = 0.0


@dataclass(frozen=True)
class ConstantBackground:
    """Known constant response outside the sample."""

    level: float

    def __post_init__(self) -> None:
        _nonnegative("background level", self.level)


Background = ZeroBackground | ConstantBackground


@dataclass(frozen=True)
class ScanConfig:
    """Scan lattice geometry plus the periphery model."""

    step: int = 1
    extension: int = 0
    background: Background = field(default_factory=ZeroBackground)

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", _integer("step", self.step, 1))
        object.__setattr__(self, "extension", _integer("extension", self.extension, 0))
        if not isinstance(self.background, Background):
            raise ValueError(f"unknown background model {self.background!r}")


def _corr_valid_direct(padded: np.ndarray, kernel: np.ndarray, step: int = 1) -> np.ndarray:
    # Accumulates kernel taps in row-major order at every step-th site
    # (from (step - 1) // 2); each site sums the same taps in the same
    # order at any step, so results are bit-reproducible and a coarse
    # field is bitwise the subsampled dense one.
    off = (step - 1) // 2
    oh, ow = ((n - k + 1) // step for n, k in zip(padded.shape, kernel.shape))
    out = np.zeros((oh, ow))
    for uy in range(kernel.shape[0]):
        row = kernel[uy]
        for ux in range(kernel.shape[1]):
            out += row[ux] * padded[uy + off :: step, ux + off :: step][:oh, :ow]
    return out


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    # m divides 30**m exactly when m has no prime factor above 5
    while pow(30, n, n):
        n += 1
    return n


def _transfer(spot: np.ndarray, grid: tuple[int, int], offset: int) -> np.ndarray:
    """rFFT on ``grid`` of the flipped spot, first tap at ``offset`` (wrapping)."""
    rows, cols = ((np.arange(spot.shape[0]) + offset) % n for n in grid)
    kernel = np.zeros(grid)
    kernel[np.ix_(rows, cols)] = spot[::-1, ::-1]
    return np.fft.rfft2(kernel)


class ScanOperator:
    """The step-1 scan of a sample of ``shape`` (rows, columns), built
    once per (spot, sample shape, extension); see the module docstring.
    The kernel's ``transfer`` is computed on first use.
    """

    def __init__(self, spot: np.ndarray, shape: tuple[int, int], extension: int) -> None:
        ctr = spot.shape[0] // 2
        pad = min(extension, ctr)
        self.spot = spot
        self.shape = shape
        self.extension = extension
        self.grid = tuple(_fast_len(n + 2 * ctr) for n in shape)
        # Only the lattice window of the sites within ctr px of the sample
        # is nonzero; it starts at lattice site extension - pad.
        start = extension - pad
        self._window = (shape[0] + 2 * pad, shape[1] + 2 * pad)
        self.sites = tuple(slice(start, start + n) for n in self._window)
        self._offset = pad - ctr

    @cached_property
    def transfer(self) -> np.ndarray:
        # Fields sit at the grid origin; the kernel's offset puts window
        # site 0 at grid index 0, so no call shifts an input or output.
        return _transfer(self.spot, self.grid, self._offset)

    def forward(self, x: np.ndarray, level: float = 0.0) -> np.ndarray:
        """Scan field of ``x`` with the sample extended by ``level``."""
        # Over a constant periphery the scan is the zero-background scan
        # of x - level plus level times the spot's total weight. Allocating the lattice after
        # the spectrum is freed costs 0.35 MB of peak RSS (pipeline_default, 2-vCPU VM).
        window = self.forward_window(x - level if level else x)
        lattice = tuple(n + 2 * self.extension for n in self.shape)
        if self._window == lattice:  # extension <= spot_side // 2: no zero border
            out = window
        else:
            out = np.zeros(lattice)
            out[self.sites] = window
        if level:
            out += level * float(self.spot.sum())
        return out

    def forward_window(self, x: np.ndarray) -> np.ndarray:
        """The zero-background scan of ``x`` at the window ``sites``; it is 0 elsewhere."""
        spec = self.spectrum(x)
        spec *= self.transfer
        return self._inverse(spec, *self._window)

    def forward_spectrum(self, x: np.ndarray) -> np.ndarray:
        """:meth:`spectrum` of :meth:`forward_window` of ``x``."""
        if self._offset:  # extension < spot_side // 2 crops the grid's correlation
            return self.spectrum(self.forward_window(x))
        return self.spectrum(x) * self.transfer

    def spectrum(self, field: np.ndarray) -> np.ndarray:
        """rFFT on ``grid`` of a field at its origin: a sample or a window of ``sites``."""
        return np.fft.rfft2(field, self.grid)

    def transpose(self, spec: np.ndarray) -> np.ndarray:
        """Transpose of the zero-background scan, applied to a window :meth:`spectrum`."""
        # conj(conj(Y) * H) == Y * conj(H), with no conj(H) temporary
        spec = np.conjugate(spec)
        spec *= self.transfer
        return self._inverse(np.conjugate(spec, out=spec), *self.shape)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Transpose of the zero-background :meth:`forward`."""
        return self.transpose(self.spectrum(y[self.sites]))

    def norm2(self, spec: np.ndarray) -> float:
        """Squared norm of the real grid field whose rFFT is ``spec`` (Parseval)."""
        # each column stands for its mirror too, but 0 and an even grid's Nyquist
        unpaired = spec[:, [0, -1] if self.grid[1] % 2 == 0 else [0]]
        total = 2.0 * np.vdot(spec, spec).real - np.vdot(unpaired, unpaired).real
        return float(total) / np.prod(self.grid)

    def deconvolve(self, y: np.ndarray, divide) -> np.ndarray:
        """``divide(transfer, spectrum)`` of the sites :meth:`adjoint` reads, transformed back."""
        if self._offset:  # the window crops the correlation: no division recovers x
            raise ValueError(f"spectral methods need extension >= {self.spot.shape[0] // 2} "
                             f"(half the spot side), got {self.extension}")
        return self._inverse(divide(self.transfer, self.spectrum(y[self.sites])), *self.shape)

    def _inverse(self, spec: np.ndarray, rows: int, cols: int) -> np.ndarray:
        # irfft2(spec, grid)[:rows, :cols] bitwise: numpy's irfft2 runs this
        # axis-0 ifft, then a last-axis irfft that treats each row on its own.
        return np.fft.irfft(np.fft.ifft(spec, axis=0)[:rows], self.grid[1], axis=1)[:, :cols]


SCAN_METHODS = ("auto", "fft", "direct")


def _scan_field(sample: np.ndarray, kernel: np.ndarray, extension: int,
                level: float, method: str, step: int = 1) -> np.ndarray:
    """Correlation of the level-extended sample with ``kernel`` at every
    ``step``-th lattice site."""
    if method in ("fft", "auto"):
        off = (step - 1) // 2
        dense = ScanOperator(kernel, sample.shape, extension).forward(sample, level)
        return dense[off::step, off::step][: dense.shape[0] // step, : dense.shape[1] // step]
    if method == "direct":
        pad = extension + kernel.shape[0] // 2
        return _corr_valid_direct(np.pad(sample, pad, constant_values=level), kernel, step)
    raise ValueError(f"unknown method {method!r}, expected one of {', '.join(SCAN_METHODS)}")


def scan_dims(sample_width: int, sample_height: int, config: ScanConfig) -> tuple[int, int]:
    """Output (width, height) of :func:`simulate_scan` for this geometry."""
    w = (sample_width + 2 * config.extension) // config.step
    h = (sample_height + 2 * config.extension) // config.step
    return w, h


def simulate_scan(sample: Image, spot: SpotImage, config: ScanConfig,
                  method: str = "auto") -> Image:
    """Simulate a point scan of ``sample`` with the given spot.

    Each output pixel is sum(spot * extended_sample) under the footprint
    at its lattice site; the extended sample equals the background level
    outside the sample bounds. Output pitch is sample pitch times step.
    method is one of ``SCAN_METHODS``, each described in the module docstring.
    """
    out_w, out_h = scan_dims(sample.width, sample.height, config)
    if out_w < 1 or out_h < 1:
        raise ValueError(
            f"step {config.step} too large for scan extent "
            f"{sample.width + 2 * config.extension}x{sample.height + 2 * config.extension}"
        )
    field = _scan_field(sample.pixels, spot.pixels, config.extension,
                        config.background.level, method, config.step)
    return Image(field, sample.pitch * config.step)


def widefield_blur(sample: Image, microscope_psf: Image, method: str = "auto") -> Image:
    """Same-size linear convolution of the sample with a microscope PSF.

    Zero boundary handling (the periphery is preprocessed to zero).
    The PSF must be square with an odd side. Only its central window is
    read: taps over max(H, W) - 1 px from the center never meet the
    sample, so dropping them changes no output (bitwise on ``direct``).
    method is as for :func:`simulate_scan`.
    """
    psf = microscope_psf.pixels
    if psf.shape[0] != psf.shape[1]:
        raise ValueError(f"psf must be square, got {psf.shape[1]}x{psf.shape[0]}")
    _odd("psf side", psf.shape[0])
    cut = max(psf.shape[0] // 2 - (max(sample.pixels.shape) - 1), 0)
    psf = psf[cut : psf.shape[0] - cut, cut : psf.shape[0] - cut]
    # convolution = correlation with the flipped kernel
    return Image(_scan_field(sample.pixels, psf[::-1, ::-1], 0, 0.0, method), sample.pitch)


def add_noise(image: Image, sigma: float, seed: int) -> Image:
    """Add i.i.d. Gaussian noise, N(0, sigma^2) per pixel.

    The generator is numpy's PCG64 ``Generator.standard_normal``, seeded
    with ``seed``; a given (seed, sigma) pair reproduces the output
    bit-identically. sigma = 0 returns the input unchanged.
    """
    _nonnegative("sigma", sigma)
    seed = _integer("seed", seed, 0)
    if sigma == 0.0:
        return image
    gen = np.random.Generator(np.random.PCG64(seed))
    with np.errstate(over="ignore"):  # reported below under sigma's name
        noisy = image.pixels + sigma * gen.standard_normal(image.pixels.shape)
    if not np.all(np.isfinite(noisy)):
        raise ValueError(f"sigma must keep the noisy pixels finite, got {sigma}")
    return Image(noisy, image.pitch)
