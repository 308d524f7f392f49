"""Recovery of the sample image from a dense-scan intermediate image.

Four solver families over one forward relation, the step-1
zero-background scan :class:`~densescan.scanner.ScanOperator` (the
intermediate image is the correlation of the zero-extended sample with
the spot):

* InverseFilter  - spectral division by the spot's transfer (below),
  with hard thresholding of small spot-spectrum magnitudes;
* Wiener         - Tikhonov-style damped spectral division;
* RichardsonLucy - multiplicative maximum-likelihood iteration using the
  forward operator and its adjoint;
* LeastSquaresCG - conjugate gradients on the normal equations, applied
  matrix-free through the same operator.

The spectral pair divides the intermediate's rFFT by the spot's transfer
on the intermediate's own grid, N + 2 * extension per axis: only there
is the intermediate's spectrum exactly that transfer times the sample's,
and only when extension >= spot_side // 2; smaller extensions crop the
correlation and are left to the iterative solvers. A grid rounded up to
a fast FFT length would also move the spectral floor min|H|/max|H| that
the default threshold is set against. RL and CGLS apply the operator on
its own minimal 5-smooth grid, built once per solve. Constant known
backgrounds are reduced to the zero-background case by subtracting
their forward response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Image, Rect
from .psf import SpotImage
from .scanner import Background, ConstantBackground, ScanOperator, ZeroBackground, _transfer

_RL_DIVISION_GUARD = 1e-12


@dataclass(frozen=True)
class InverseFilter:
    """Zero spectral components where |H| < threshold * max|H|."""

    threshold: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")


@dataclass(frozen=True)
class Wiener:
    """Damped spectral division with a scalar noise-to-signal ratio."""

    nsr: float

    def __post_init__(self) -> None:
        if not (self.nsr >= 0) or not math.isfinite(self.nsr):
            raise ValueError(f"nsr must be finite and >= 0, got {self.nsr}")


@dataclass(frozen=True)
class RichardsonLucy:
    iterations: int

    def __post_init__(self) -> None:
        if int(self.iterations) != self.iterations or self.iterations < 0:
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations}")
        object.__setattr__(self, "iterations", int(self.iterations))


@dataclass(frozen=True)
class LeastSquaresCG:
    tolerance: float
    max_iterations: int

    def __post_init__(self) -> None:
        if not (self.tolerance > 0) or not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations}"
            )
        object.__setattr__(self, "max_iterations", int(self.max_iterations))


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


def _base_dims(intermediate: Image, extension: int) -> tuple[int, int]:
    if int(extension) != extension or extension < 0:
        raise ValueError(f"extension must be an integer >= 0, got {extension}")
    nw = intermediate.width - 2 * extension
    nh = intermediate.height - 2 * extension
    if nw < 1 or nh < 1:
        raise ValueError(
            f"extension {extension} inconsistent with intermediate "
            f"{intermediate.width}x{intermediate.height}"
        )
    return nw, nh


def _check_roi(roi: Rect, base_w: int, base_h: int) -> None:
    if roi.x0 < 0 or roi.y0 < 0 or roi.x0 + roi.width > base_w or roi.y0 + roi.height > base_h:
        raise ValueError(
            f"roi {roi} exceeds the reconstructed extent {base_w}x{base_h}"
        )


def _crop(field: np.ndarray, roi: Rect) -> np.ndarray:
    return field[roi.y0 : roi.y0 + roi.height, roi.x0 : roi.x0 + roi.width]


def _operator(y: np.ndarray, spot: np.ndarray, extension: int) -> ScanOperator:
    shape = (y.shape[0] - 2 * extension, y.shape[1] - 2 * extension)
    return ScanOperator(spot, shape, extension)


def _spectral_transfer(spot: np.ndarray, shape: tuple[int, int], extension: int) -> np.ndarray:
    """The transfer the spectral pair divides by; see the module docstring."""
    return _transfer(spot, shape, extension - spot.shape[0] // 2)


def adjoint_apply(image: Image, spot: SpotImage, roi: Rect, extension: int) -> Image:
    """Apply the adjoint of the step-1 zero-background scan operator.

    This is correlation with the 180-degree-rotated spot restricted to
    sample coordinates, cropped to ``roi``.
    """
    base_w, base_h = _base_dims(image, extension)
    extension = int(extension)
    _check_roi(roi, base_w, base_h)
    full = _operator(image.pixels, spot.pixels, extension).adjoint(image.pixels)
    return Image(_crop(full, roi), image.pitch)


def _richardson_lucy(y: np.ndarray, spot: np.ndarray, extension: int,
                     iterations: int, on_iterate=None, op=None) -> np.ndarray:
    op = op or _operator(y, spot, extension)
    start = max(float(y.mean()), np.finfo(np.float64).tiny)
    x = np.full(op.shape, start)
    for _ in range(iterations):
        pred = op.forward(x)
        ratio = y / np.maximum(pred, _RL_DIVISION_GUARD)
        # clamp keeps iterates exactly nonnegative even for signed data
        multiplier = np.maximum(op.adjoint(ratio), 0.0)
        x = x * multiplier
        if on_iterate is not None:
            on_iterate(x)
    return x


def _cgls(y: np.ndarray, spot: np.ndarray, extension: int, tolerance: float,
          max_iterations: int, op=None) -> tuple[np.ndarray, int, list[float]]:
    """CGLS on the normal equations; returns (x, iterations, residual history).

    The recorded residual is ||y - A x|| / ||y||, which CGLS decreases
    monotonically.
    """
    op = op or _operator(y, spot, extension)
    x = np.zeros(op.shape)
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return x, 0, []
    r = y.copy()
    s = op.adjoint(r)
    p = s.copy()
    gamma = float(np.vdot(s, s).real)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iterations):
        q = op.forward(p)
        qq = float(np.vdot(q, q).real)
        if qq == 0.0 or gamma == 0.0:
            break
        alpha = gamma / qq
        x = x + alpha * p
        r = r - alpha * q
        iterations += 1
        relres = float(np.linalg.norm(r)) / ynorm
        history.append(relres)
        if relres <= tolerance:
            break
        s = op.adjoint(r)
        gamma_next = float(np.vdot(s, s).real)
        p = s + (gamma_next / gamma) * p
        gamma = gamma_next
    return x, iterations, history


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
    base_w, base_h = _base_dims(intermediate, extension)
    extension = int(extension)
    _check_roi(roi, base_w, base_h)
    if not isinstance(background, (ZeroBackground, ConstantBackground)):
        raise ValueError(f"unknown background model {background!r}")
    y = intermediate.pixels
    level = background.level if isinstance(background, ConstantBackground) else 0.0
    spectral = isinstance(request, (InverseFilter, Wiener))
    op = None if spectral and not level else _operator(y, spot.pixels, extension)
    if level:
        y = y - op.forward(np.zeros(op.shape), level)

    pitch = intermediate.pitch
    if spectral:
        ctr = spot.pixels.shape[0] // 2
        if extension < ctr:
            raise ValueError(
                f"spectral methods need extension >= {ctr} (half the spot side), "
                f"got {extension}"
            )
        h = _spectral_transfer(spot.pixels, y.shape, extension)
        yspec = np.fft.rfft2(y)
        if isinstance(request, InverseFilter):
            mag = np.abs(h)
            keep = (mag >= request.threshold * mag.max()) & (mag > 0.0)
            xspec = np.where(keep, yspec / np.where(keep, h, 1.0), 0.0)
        else:
            denom = np.square(np.abs(h)) + request.nsr
            safe = denom > 0.0
            xspec = np.where(safe, yspec * np.conj(h) / np.where(safe, denom, 1.0), 0.0)
        field = np.fft.irfft2(xspec, y.shape)
        return RecoveryResult(Image(_crop(field, roi), pitch), 0, 0.0)
    if isinstance(request, RichardsonLucy):
        x = _richardson_lucy(y, spot.pixels, extension, request.iterations, op=op)
        res = _relative_residual(x, y, op)
        return RecoveryResult(Image(_crop(x, roi), pitch), request.iterations, res)
    if isinstance(request, LeastSquaresCG):
        x, iters, history = _cgls(y, spot.pixels, extension, request.tolerance,
                                  request.max_iterations, op)
        res = history[-1] if history else _relative_residual(x, y, op)
        return RecoveryResult(Image(_crop(x, roi), pitch), iters, res)
    raise ValueError(f"unknown deconvolution request {request!r}")
