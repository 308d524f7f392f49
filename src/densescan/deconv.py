"""Recovery of the sample image from a dense-scan intermediate image.

Four solver families over one forward relation, the step-1
zero-background scan :class:`~densescan.scanner.ScanOperator` (the
intermediate image is the correlation of the zero-extended sample with
the spot). Each request class solves in its own ``solve(op, y)``:

* InverseFilter  - spectral division by the spot's transfer,
  with hard thresholding of small spot-spectrum magnitudes;
* Wiener         - Tikhonov-style damped spectral division;
* RichardsonLucy - multiplicative maximum-likelihood iteration using the
  forward operator and its adjoint;
* LeastSquaresCG - conjugate gradients on the normal equations, applied
  matrix-free through the same operator.

:func:`recover` takes the spot's operator, subtracts a constant known
background's forward response (so every solver sees the zero-background
model) and calls ``solve``. The operator is the one
:func:`~densescan.scanner.simulate_scan` scanned with, shared per spot
object (``scanner._operator``): a scan and every solve on one spot transform
the spot once.

All four solvers share the operator's kernel embedding and FFT grid: the
spectral pair divides by its transfer, exact when extension >=
spot_side // 2 (smaller extensions crop the correlation and are left to
the iterative solvers; :meth:`~densescan.scanner.ScanOperator.deconvolve`
rejects them); RL and CGLS apply it and its adjoint. Sites
farther than spot_side // 2 from the sample carry no sample information;
only RL's start value and CGLS's constant ring term read them; CGLS keeps
the rest of its residual as the window's spectrum on the operator's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Image, Rect, _integer, _nonnegative, _positive
from .psf import SpotImage
from .scanner import Background, ScanOperator, ZeroBackground, _operator

_RL_DIVISION_GUARD = 1e-12  # relative to max|y| over the window


class _SpectralSolve:
    """solve() of the spectral pair; each member divides by ``_divide``, in place
    on the spectrum it is handed."""

    def solve(self, op: ScanOperator, y: np.ndarray) -> tuple[np.ndarray, int, float]:
        return op.deconvolve(y, self._divide), 0, 0.0


@dataclass(frozen=True)
class InverseFilter(_SpectralSolve):
    """Zero spectral components where |H| < threshold * max|H|."""

    threshold: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")

    def _divide(self, h: np.ndarray, yspec: np.ndarray) -> np.ndarray:
        mag = np.abs(h)
        keep = (mag >= self.threshold * mag.max()) & (mag > 0.0)
        np.divide(yspec, h, out=yspec, where=keep)
        yspec[~keep] = 0.0
        return yspec


@dataclass(frozen=True)
class Wiener(_SpectralSolve):
    """Damped spectral division with a scalar noise-to-signal ratio."""

    nsr: float

    def __post_init__(self) -> None:
        _nonnegative("nsr", self.nsr)

    def _divide(self, h: np.ndarray, yspec: np.ndarray) -> np.ndarray:
        denom = np.square(np.abs(h)) + self.nsr
        safe = denom > 0.0
        yspec *= np.conj(h)
        np.divide(yspec, denom, out=yspec, where=safe)
        yspec[~safe] = 0.0
        return yspec


@dataclass(frozen=True)
class RichardsonLucy:
    iterations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterations", _integer("iterations", self.iterations, 0))

    def solve(self, op: ScanOperator, y: np.ndarray) -> tuple[np.ndarray, int, float]:
        x = _richardson_lucy(op, y, self.iterations)
        return x, self.iterations, _relative_residual(x, y, op)


@dataclass(frozen=True)
class LeastSquaresCG:
    tolerance: float
    max_iterations: int

    def __post_init__(self) -> None:
        _positive("tolerance", self.tolerance)
        object.__setattr__(self, "max_iterations",
                           _integer("max_iterations", self.max_iterations, 1))

    def solve(self, op: ScanOperator, y: np.ndarray) -> tuple[np.ndarray, int, float]:
        x, iters, history = _cgls(op, y, self.tolerance, self.max_iterations)
        return x, iters, history[-1] if history else _relative_residual(x, y, op)


DeconvRequest = InverseFilter | Wiener | RichardsonLucy | LeastSquaresCG


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """recovered image plus solver diagnostics.

    residual_norm is the relative data residual ||y - A x|| / ||y|| for
    the iterative solvers and 0 for the spectral ones.
    """

    recovered: Image
    iterations_used: int
    residual_norm: float


def dft2_forward(field) -> np.ndarray:
    """2D discrete Fourier transform (unnormalized forward convention)."""
    arr = np.asarray(field)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D field, got ndim={arr.ndim}")
    return np.fft.fft2(arr)


def dft2_inverse(spectrum) -> np.ndarray:
    """Inverse of :func:`dft2_forward`; together they round-trip to
    identity within 1e-12."""
    arr = np.asarray(spectrum)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D spectrum, got ndim={arr.ndim}")
    return np.fft.ifft2(arr)


def _checked_operator(y: np.ndarray, spot: SpotImage, extension: int, roi: Rect) -> ScanOperator:
    """Check that ``y`` less ``extension`` px per side leaves a sample
    extent holding ``roi``; return the spot's scan operator of that extent."""
    extension = _integer("extension", extension, 0)
    base_h, base_w = (n - 2 * extension for n in y.shape)
    if base_w < 1 or base_h < 1:
        raise ValueError(
            f"extension {extension} inconsistent with intermediate {y.shape[1]}x{y.shape[0]}"
        )
    if roi.x0 < 0 or roi.y0 < 0 or roi.x0 + roi.width > base_w or roi.y0 + roi.height > base_h:
        raise ValueError(f"roi {roi} exceeds the reconstructed extent {base_w}x{base_h}")
    return _operator(spot, (base_h, base_w), extension)


def _crop(field: np.ndarray, roi: Rect) -> np.ndarray:
    return field[roi.y0 : roi.y0 + roi.height, roi.x0 : roi.x0 + roi.width]


def adjoint_apply(image: Image, spot: SpotImage, roi: Rect, extension: int) -> Image:
    """Apply the adjoint of the step-1 zero-background scan operator.

    This is correlation with the 180-degree-rotated spot restricted to
    sample coordinates, cropped to ``roi``.
    """
    op = _checked_operator(image.pixels, spot, extension, roi)
    return Image(_crop(op.adjoint(image.pixels), roi), image.pitch)


def _richardson_lucy(op: ScanOperator, y: np.ndarray, iterations: int,
                     on_iterate=None) -> np.ndarray:
    tiny = np.finfo(np.float64).tiny
    x = np.full(op.shape, max(float(y.mean()), tiny))
    window = y[op.sites]
    # relative to the data, so that RL(c y) = c RL(y) at any scale c
    guard = max(_RL_DIVISION_GUARD * float(np.abs(window).max()), tiny)
    for _ in range(iterations):
        ratio = window / np.maximum(op.forward_window(x), guard)
        # clamp keeps iterates exactly nonnegative even for signed data
        multiplier = np.maximum(op.transpose(op.spectrum(ratio)), 0.0)
        x = x * multiplier
        if on_iterate is not None:
            on_iterate(x)
    return x


def _cgls(op: ScanOperator, y: np.ndarray, tolerance: float,
          max_iterations: int) -> tuple[np.ndarray, int, list[float]]:
    """CGLS on the normal equations; returns (x, iterations, residual history).

    The recorded residual is ||y - A x|| / ||y||, which CGLS decreases
    monotonically. It is kept as the window spectrum ``r`` plus the constant
    ``ring``, ||y||^2 at the sites outside the window, where A x is 0.
    """
    x = np.zeros(op.shape)
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return x, 0, []
    outside = y.copy()
    outside[op.sites] = 0.0
    ring = float(np.vdot(outside, outside))
    r = op.spectrum(y[op.sites])
    s = op.transpose(r)
    p = s.copy()
    gamma = float(np.vdot(s, s))
    history: list[float] = []
    for _ in range(max_iterations):
        q = op.forward_spectrum(p)
        qq = op.norm2(q)
        if qq == 0.0 or gamma == 0.0:
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        relres = float(np.sqrt(op.norm2(r) + ring)) / ynorm
        history.append(relres)
        if relres <= tolerance:
            break
        s = op.transpose(r)
        gamma_next = float(np.vdot(s, s))
        p *= gamma_next / gamma
        p += s
        gamma = gamma_next
    return x, len(history), history


def _relative_residual(x: np.ndarray, y: np.ndarray, op: ScanOperator) -> float:
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return 0.0
    return float(np.linalg.norm(y - op.forward(x))) / ynorm


def recover(intermediate: Image, spot: SpotImage, roi: Rect, extension: int,
            request: DeconvRequest,
            background: Background = ZeroBackground()) -> RecoveryResult:
    """Recover the sample image from a step-1 dense-scan intermediate.

    ``roi`` selects the output window in sample coordinates (the full
    sample is Rect(0, 0, W, H) with W = intermediate.width - 2*extension).
    A constant known background is subtracted via its forward scan
    response before inversion, so every solver sees the zero-background
    model.
    """
    op = _checked_operator(intermediate.pixels, spot, extension, roi)
    if not isinstance(background, Background):
        raise ValueError(f"unknown background model {background!r}")
    if not isinstance(request, DeconvRequest):
        raise ValueError(f"unknown deconvolution request {request!r}")
    y = intermediate.pixels
    if background.level:
        y = y - op.forward(np.zeros(op.shape), background.level)
    x, iterations, residual = request.solve(op, y)
    if x.shape == (roi.height, roi.width):  # the whole sample: Image adopts x, uncropped
        x.setflags(write=False)
    else:
        x = _crop(x, roi)
    return RecoveryResult(Image(x, intermediate.pitch), iterations, residual)
