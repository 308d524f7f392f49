"""Recovery of the sample image from a dense-scan intermediate image.

Four solver families over one forward relation, the step-1
zero-background scan :class:`~densescan.scanner.ScanOperator` (the
intermediate image is the correlation of the zero-extended sample with
the spot). Each request class solves in its own ``solve(op, y)``:

* InverseFilter  - spectral division by the spot's transfer (below),
  with hard thresholding of small spot-spectrum magnitudes;
* Wiener         - Tikhonov-style damped spectral division;
* RichardsonLucy - multiplicative maximum-likelihood iteration using the
  forward operator and its adjoint;
* LeastSquaresCG - conjugate gradients on the normal equations, applied
  matrix-free through the same operator.

:func:`recover` builds the operator, subtracts a constant known
background's forward response (so every solver sees the zero-background
model) and calls ``solve``.

The spectral pair divides the intermediate's rFFT by the spot's transfer
on the intermediate's own grid, N + 2 * extension per axis: only there
is the intermediate's spectrum exactly that transfer times the sample's,
and only when extension >= spot_side // 2; smaller extensions crop the
correlation and are left to the iterative solvers. A grid rounded up to
a fast FFT length would also move the spectral floor min|H|/max|H| that
the default threshold is set against. RL and CGLS apply the operator on
its own minimal 5-smooth grid; it transforms the spot on first use, so a
zero-background spectral solve does that only on the intermediate's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Image, Rect
from .psf import SpotImage
from .scanner import Background, ScanOperator, ZeroBackground, _transfer

_RL_DIVISION_GUARD = 1e-12


class _SpectralSolve:
    """solve() of the spectral pair; each member divides by ``_divide``."""

    def solve(self, op: ScanOperator, y: np.ndarray) -> tuple[np.ndarray, int, float]:
        ctr = op.spot.shape[0] // 2
        if op.extension < ctr:
            raise ValueError(
                f"spectral methods need extension >= {ctr} (half the spot side), "
                f"got {op.extension}"
            )
        h = _spectral_transfer(op.spot, y.shape, op.extension)
        return np.fft.irfft2(self._divide(h, np.fft.rfft2(y)), y.shape), 0, 0.0


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
        return np.where(keep, yspec / np.where(keep, h, 1.0), 0.0)


@dataclass(frozen=True)
class Wiener(_SpectralSolve):
    """Damped spectral division with a scalar noise-to-signal ratio."""

    nsr: float

    def __post_init__(self) -> None:
        if not (self.nsr >= 0) or not math.isfinite(self.nsr):
            raise ValueError(f"nsr must be finite and >= 0, got {self.nsr}")

    def _divide(self, h: np.ndarray, yspec: np.ndarray) -> np.ndarray:
        denom = np.square(np.abs(h)) + self.nsr
        safe = denom > 0.0
        return np.where(safe, yspec * np.conj(h) / np.where(safe, denom, 1.0), 0.0)


@dataclass(frozen=True)
class RichardsonLucy:
    iterations: int

    def __post_init__(self) -> None:
        if int(self.iterations) != self.iterations or self.iterations < 0:
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations}")
        object.__setattr__(self, "iterations", int(self.iterations))

    def solve(self, op: ScanOperator, y: np.ndarray) -> tuple[np.ndarray, int, float]:
        x = _richardson_lucy(y, op.spot, op.extension, self.iterations, op=op)
        return x, self.iterations, _relative_residual(x, y, op)


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

    def solve(self, op: ScanOperator, y: np.ndarray) -> tuple[np.ndarray, int, float]:
        x, iters, history = _cgls(y, op.spot, op.extension, self.tolerance,
                                  self.max_iterations, op)
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


def _checked_operator(y: np.ndarray, spot: np.ndarray, extension: int,
                      roi: Rect | None = None) -> ScanOperator:
    """Check that ``y`` less ``extension`` px per side leaves a sample
    extent holding ``roi``; return the scan operator of that extent."""
    if int(extension) != extension or extension < 0:
        raise ValueError(f"extension must be an integer >= 0, got {extension}")
    extension = int(extension)
    base_h, base_w = (n - 2 * extension for n in y.shape)
    if base_w < 1 or base_h < 1:
        raise ValueError(
            f"extension {extension} inconsistent with intermediate {y.shape[1]}x{y.shape[0]}"
        )
    if roi is not None and (roi.x0 < 0 or roi.y0 < 0 or roi.x0 + roi.width > base_w
                            or roi.y0 + roi.height > base_h):
        raise ValueError(f"roi {roi} exceeds the reconstructed extent {base_w}x{base_h}")
    return ScanOperator(spot, (base_h, base_w), extension)


def _crop(field: np.ndarray, roi: Rect) -> np.ndarray:
    return field[roi.y0 : roi.y0 + roi.height, roi.x0 : roi.x0 + roi.width]


def _spectral_transfer(spot: np.ndarray, shape: tuple[int, int], extension: int) -> np.ndarray:
    """The transfer the spectral pair divides by; see the module docstring."""
    return _transfer(spot, shape, extension - spot.shape[0] // 2)


def adjoint_apply(image: Image, spot: SpotImage, roi: Rect, extension: int) -> Image:
    """Apply the adjoint of the step-1 zero-background scan operator.

    This is correlation with the 180-degree-rotated spot restricted to
    sample coordinates, cropped to ``roi``.
    """
    op = _checked_operator(image.pixels, spot.pixels, extension, roi)
    return Image(_crop(op.adjoint(image.pixels), roi), image.pitch)


def _richardson_lucy(y: np.ndarray, spot: np.ndarray, extension: int,
                     iterations: int, on_iterate=None, op=None) -> np.ndarray:
    op = op or _checked_operator(y, spot, extension)
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
    op = op or _checked_operator(y, spot, extension)
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
    op = _checked_operator(intermediate.pixels, spot.pixels, extension, roi)
    if not isinstance(background, Background):
        raise ValueError(f"unknown background model {background!r}")
    if not isinstance(request, DeconvRequest):
        raise ValueError(f"unknown deconvolution request {request!r}")
    y = intermediate.pixels
    if background.level:
        y = y - op.forward(np.zeros(op.shape), background.level)
    x, iterations, residual = request.solve(op, y)
    return RecoveryResult(Image(_crop(x, roi), intermediate.pitch), iterations, residual)
