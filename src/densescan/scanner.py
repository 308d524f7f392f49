"""Forward model: point-scan simulation, wide-field baseline, noise.

A scan measures, at each lattice site, the spot-weighted sum of the
sample's optical response under the site's footprint. The sample is
extended outside its bounds by the declared background model (the
preprocessed periphery). With step 1 this is exactly a correlation of
the extended sample with the spot; coarser steps subsample that dense
field, so usual-scan outputs are bit-identical to subsampled dense-scan
outputs by construction.

That correlation is one linear map, :class:`ScanOperator`, used by the
fft scan, all four solvers and the wide-field blur of an uneven PSF.
Only the sites within pad = min(extension, spot_side // 2) px of an N-px
sample can be nonzero, N + 2 * pad per axis. It computes them on a
circular grid of the next 5-smooth (fast FFT) length >= N + pad +
spot_side // 2 per axis, the shortest on which no kept site reads a
wrapped sample (overlap-save), so the circular product is exact there:
N + spot_side - 1 when extension >= spot_side // 2. ``forward`` writes
those sites into a fresh zero lattice of N + 2 * extension per axis,
which a step-1 scan hands to :class:`~densescan.grid.Image` frozen. The
transforms run in place: each call fills one spectrum of the grid (a row
rFFT, then the column FFT over it), multiplies or divides it in place and
transforms it back in place, bitwise equal to ``rfft2`` and ``irfft2``;
the inverse writes the rows it keeps, in blocks of about ``_BLOCK``
values, straight into the call's output. The spectral solvers divide by
the transfer in :meth:`~ScanOperator.deconvolve`, which alone holds
their rule: exact only when extension >= spot_side // 2, it raises below.

One allocation rule: an array that outlives the call (``forward``'s
lattice, ``deconvolve``'s sample, ``_even_blur``'s output) is allocated
before the transform's temporaries, so they sit above it in the heap,
whose top can be trimmed; a window or sample made once per solver
iteration (``forward_window``, ``transpose``) is allocated after them.

The wide-field blur is a same-size convolution with no extension; only
the taps within N - 1 px of the centre per axis can meet an N-px sample
(``psf._blur_halves``). A PSF whose window is even in both axes (equal
to both its flips, as every Airy PSF is) has a real, even transfer, so
:func:`_even_blur` builds it from the window's quadrant alone with two
real rFFTs (:func:`_even_transfer`) on the next 5-smooth length >= N + h
per axis; it differs from the complex route by a few ulps. The generated
baseline, :func:`_airy_baseline`, blurs with the quadrant that
``psf._microscope_quadrant`` builds. Any other PSF takes the operator
above, with the flipped square window. Of the ``SCAN_METHODS``, ``auto``
and ``fft`` run the transforms; ``direct``, the bit-reproducible
reference, sums taps in a fixed order at kept sites, for a blur on the
flipped square window.

Lattice convention: sites per axis are c_i = -extension + (step-1)//2 +
i*step for i in range(floor((N + 2*extension)/step)); footprints are
centered on their step cell, which reproduces side-by-side tiling when
the step equals the spot side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Image, _integer, _nonnegative, _odd
from .psf import SpotImage, _blur_halves, _microscope_quadrant

# float64 per row block of _inverse's irfft: a block stays in a core's L2 cache
_BLOCK = 2**15


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


def _wraps(taps: int, n: int, offset: int) -> tuple[tuple[slice, slice], ...]:
    # (taps, indices) slice pairs putting tap i at index (i + offset) % n. Of taps
    # that wrap onto one index the last is written: only the last n taps are kept.
    first = max(taps - n, 0)
    start = (first + offset) % n
    split = min(first + n - start, taps)  # the first tap that wraps to index 0
    return ((slice(first, split), slice(start, start + split - first)),
            (slice(split, taps), slice(0, taps - split)))


def _transfer(spot: np.ndarray, grid: tuple[int, int], offset: int) -> np.ndarray:
    """rFFT on ``grid`` of the flipped spot, first tap at ``offset`` (wrapping);
    bitwise ``rfft2`` of that kernel, but only the spot's rows are row-transformed."""
    flipped = spot[::-1, ::-1]
    taps = np.zeros((spot.shape[0], grid[1]))
    for taps_c, cols in _wraps(spot.shape[1], grid[1], offset):
        taps[:, cols] = flipped[:, taps_c]
    # every other row holds rfft2's transform of a zero row, signed zeros included
    spec = np.empty((grid[0], grid[1] // 2 + 1), complex)
    spec[:] = np.fft.rfft(np.zeros(grid[1]))
    for taps_r, rows in _wraps(spot.shape[0], grid[0], offset):
        np.fft.rfft(taps[taps_r], axis=1, out=spec[rows])
    return np.fft.fft(spec, axis=0, out=spec)


def _spectrum(field: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """rFFT on ``grid`` of a field at its origin, bitwise ``rfft2(field, grid)``: rfftn's
    row rfft, then its zero-padded column fft, run in place."""
    spec = np.empty((grid[0], grid[1] // 2 + 1), complex)
    rows = field.shape[0]
    np.fft.rfft(field, grid[1], axis=1, out=spec[:rows])
    spec[rows:] = 0.0
    return np.fft.fft(spec, axis=0, out=spec)


def _inverse(spec: np.ndarray, grid: tuple[int, int], out: np.ndarray) -> np.ndarray:
    """``irfft2(spec, grid)[:rows, :cols]`` written into ``out`` of (rows, cols), bitwise:
    numpy's irfft2 runs this axis-0 ifft, then a last-axis irfft that treats each row on
    its own, here in blocks of rows of about ``_BLOCK`` values. The ifft overwrites spec,
    which every caller owns."""
    np.fft.ifft(spec, axis=0, out=spec)
    rows, cols = out.shape
    step = max(_BLOCK // grid[1], 1)
    block = np.empty((min(step, rows), grid[1]))
    for i in range(0, rows, step):
        part = block[: rows - i]
        np.fft.irfft(spec[i : i + len(part)], grid[1], axis=1, out=part)
        out[i : i + len(part)] = part[:, :cols]
    return out


class ScanOperator:
    """The step-1 scan of a sample of ``shape`` (rows, columns), built
    once per (spot, sample shape, extension); see the module docstring.
    The kernel's ``transfer`` is computed when the operator is built.
    """

    def __init__(self, spot: np.ndarray, shape: tuple[int, int], extension: int) -> None:
        ctr = spot.shape[0] // 2
        pad = min(extension, ctr)
        self.spot = spot
        self.shape = shape
        self.extension = extension
        self.lattice = tuple(n + 2 * extension for n in shape)
        # A kept site reads up to pad + ctr px outside the sample, so on this
        # grid no read wraps onto the sample (overlap-save). A spot wider than
        # the grid wraps taps onto each other, but only onto residues whose
        # reads from every kept site miss the sample.
        self.grid = tuple(_fast_len(n + pad + ctr) for n in shape)
        # Only the lattice window of the sites within ctr px of the sample
        # is nonzero; it starts at lattice site extension - pad.
        start = extension - pad
        self._window = (shape[0] + 2 * pad, shape[1] + 2 * pad)
        self.sites = tuple(slice(start, start + n) for n in self._window)
        self._offset = pad - ctr
        # Fields sit at the grid origin; the kernel's offset puts window
        # site 0 at grid index 0, so no call shifts an input or output.
        self.transfer = _transfer(spot, self.grid, self._offset)

    def forward(self, x: np.ndarray, level: float = 0.0) -> np.ndarray:
        """Scan field of ``x`` on a fresh ``lattice``, the sample extended by ``level``;
        a level that overflows the transforms raises ValueError."""
        # Over a constant periphery the scan is the zero-background scan
        # of x - level plus level times the spot's total weight.
        out = np.zeros(self.lattice)
        # a huge level overflows the transforms; the check below reports it under its
        # name (None keeps the caller's error state)
        ignore = "ignore" if level else None
        with np.errstate(over=ignore, invalid=ignore):
            spec = self.spectrum(x - level if level else x)
            spec *= self.transfer
            _inverse(spec, self.grid, out[self.sites])
            if level:
                out += level * float(self.spot.sum())
        if level and not np.isfinite(out).all():
            raise ValueError(f"background level must keep the scan finite, got {level}")
        return out

    def forward_window(self, x: np.ndarray) -> np.ndarray:
        """The zero-background scan of ``x`` at the window ``sites``; it is 0 elsewhere."""
        spec = self.spectrum(x)
        spec *= self.transfer
        return _inverse(spec, self.grid, np.empty(self._window))

    def forward_spectrum(self, x: np.ndarray) -> np.ndarray:
        """:meth:`spectrum` of :meth:`forward_window` of ``x``."""
        if self._offset:  # extension < spot_side // 2 crops the grid's correlation
            return self.spectrum(self.forward_window(x))
        spec = self.spectrum(x)
        spec *= self.transfer
        return spec

    def spectrum(self, field: np.ndarray) -> np.ndarray:
        """rFFT on ``grid`` of a field at its origin: a sample or a window of ``sites``."""
        return _spectrum(field, self.grid)

    def transpose(self, spec: np.ndarray) -> np.ndarray:
        """Transpose of the zero-background scan, applied to a window :meth:`spectrum`."""
        # conj(conj(Y) * H) == Y * conj(H), with no conj(H) temporary
        spec = np.conjugate(spec)
        spec *= self.transfer
        return _inverse(np.conjugate(spec, out=spec), self.grid, np.empty(self.shape))

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
        """``divide(transfer, spectrum)`` of the sites :meth:`adjoint` reads, transformed
        back into a fresh sample-shaped array; ``divide`` may overwrite the spectrum, which
        is its own."""
        if self._offset:  # the window crops the correlation: no division recovers x
            raise ValueError(f"spectral methods need extension >= {self.spot.shape[0] // 2} "
                             f"(half the spot side), got {self.extension}")
        out = np.empty(self.shape)
        spec = divide(self.transfer, self.spectrum(y[self.sites]))
        return _inverse(spec, self.grid, out)


def _even_transfer(quadrant: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Rows 0..grid[0] // 2 of the rFFT on ``grid`` of the kernel whose tap (m, n) is
    ``quadrant[|m|, |n|]`` (indices modulo the grid, which must hold its 2 h + 1 taps per
    axis). The kernel is even in both axes, so the transform is real and even: per axis,
    the DFT of an even sequence is twice the real part of the rFFT of its half from tap 0,
    less tap 0."""
    half = np.fft.rfft(quadrant, grid[1], axis=1).real * 2.0
    half -= quadrant[:, :1]
    transfer = np.fft.rfft(half, grid[0], axis=0).real * 2.0
    transfer -= half[:1]
    return transfer


def _even_blur(sample: Image, quadrant: np.ndarray) -> Image:
    """:func:`widefield_blur` of ``sample`` with a PSF that is even in both axes, given as
    its quadrant ``[c:, c:]`` cropped per axis to at most N px (``psf._blur_halves``)."""
    grid = tuple(_fast_len(n + q - 1) for n, q in zip(sample.pixels.shape, quadrant.shape))
    out = np.empty(sample.pixels.shape)
    transfer = _even_transfer(quadrant, grid)
    spec = _spectrum(sample.pixels, grid)
    mid = grid[0] // 2 + 1  # row f >= mid of the spectrum takes transfer row grid[0] - f
    spec[:mid] *= transfer
    spec[mid:] *= transfer[(grid[0] - 1) // 2 : 0 : -1]
    del transfer  # freed before the inverse's row block is allocated
    _inverse(spec, grid, out)
    out.setflags(write=False)  # fresh and owned: Image adopts it without a copy
    return Image(out, sample.pitch)


def _airy_baseline(sample: Image, first_zero_radius: float, side: int) -> Image:
    """The generated baseline: :func:`widefield_blur` of ``sample`` with the PSF
    ``make_microscope_psf(first_zero_radius, side)``, from the quadrant that it reads."""
    return _even_blur(sample, _microscope_quadrant(first_zero_radius, side, sample.pixels.shape))


SCAN_METHODS = ("auto", "fft", "direct")


def _scan_field(sample: np.ndarray, kernel: np.ndarray, extension: int,
                level: float, method: str, step: int = 1) -> np.ndarray:
    """Correlation of the level-extended sample with ``kernel`` at every
    ``step``-th lattice site."""
    if method in ("fft", "auto"):
        dense = ScanOperator(kernel, sample.shape, extension).forward(sample, level)
        dense.setflags(write=False)  # fresh and owned: at step 1 Image adopts it without a copy
        off = (step - 1) // 2
        rows, cols = (n // step for n in dense.shape)
        return dense if step == 1 else dense[off::step, off::step][:rows, :cols]
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
    read: taps over N - 1 px from the center never meet an N-px axis of
    the sample, so dropping them changes no output (bitwise on ``direct``).
    method is as for :func:`simulate_scan`; ``auto`` and ``fft`` blur a
    window that is even in both axes from its quadrant (module docstring).
    """
    psf = microscope_psf.pixels
    if psf.shape[0] != psf.shape[1]:
        raise ValueError(f"psf must be square, got {psf.shape[1]}x{psf.shape[0]}")
    c = _odd("psf side", psf.shape[0]) // 2
    hy, hx = _blur_halves(psf.shape[0], sample.pixels.shape)
    if method in ("auto", "fft"):
        window = psf[c - hy : c + hy + 1, c - hx : c + hx + 1]
        if np.array_equal(window, window[::-1]) and np.array_equal(window, window[:, ::-1]):
            return _even_blur(sample, window[hy:, hx:])
    cut = c - max(hy, hx)
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
    with np.errstate(over="ignore"):  # Image's finiteness check reports it under sigma's name
        noisy = image.pixels + sigma * gen.standard_normal(image.pixels.shape)
    noisy.setflags(write=False)  # fresh and owned: Image adopts it without a copy
    try:
        return Image(noisy, image.pitch)
    except ValueError as exc:
        raise ValueError(f"sigma must keep the noisy pixels finite, got {sigma}") from exc
