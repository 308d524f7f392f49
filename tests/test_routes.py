"""The route sweep: each route that computes the scan, the wide-field blur or the generated
baseline's PSF quadrant, against the others, over deterministic hypothesis draws.

Every draw asserts each documented relation of its family once:

- scan: ``auto`` is ``fft`` bitwise, and fft is within 1e-12 of ``direct``; a step-s scan
  is the subsampled step-1 scan bitwise, for both methods; ``forward(x, level)`` is the
  zero lattice plus ``forward_window(x - level)`` plus level * sum(spot); ``spectrum`` is
  ``rfft2``, the pruned inverse the cropped ``irfft2`` and ``_transfer`` the ``rfft2`` of
  the fancy-indexed kernel, all bitwise; ``ConstantBackground(0.0)`` is
  ``ZeroBackground()`` for ``simulate_scan`` and ``recover``.
- blur: the default is ``fft``, and is ``_even_blur`` of the window's quadrant (a window
  even in both axes) or the operator route (any other), bitwise, and within 8 ulp of a
  compensated sum up to 61^2 taps; it is within 1e-15 of the operator route on the whole,
  uncropped PSF, and ``direct`` is the whole PSF's direct sum bitwise.
- baseline: ``_microscope_quadrant`` is the PSF's quadrant bitwise on the crop route and
  within 1e-13 relative on the closed route (1e-14 from 21 px on); ``_airy_baseline`` is
  ``widefield_blur`` of ``make_microscope_psf`` wherever the quadrant is bitwise.

Hand-picked cases are the ``@example`` rows here and the parametrized tests of
test_scanner.py and test_psf.py that call these checks.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densescan.deconv import InverseFilter, LeastSquaresCG, recover
from densescan.grid import Image, Rect
from densescan.psf import (AIRY_FIRST_ZERO, _SERIES_CUTOFF, SpotImage, _microscope_quadrant,
                           make_microscope_psf)
from densescan.scanner import (SCAN_METHODS, ConstantBackground, ScanConfig, ScanOperator,
                               ZeroBackground, _airy_baseline, _even_blur, _scan_field,
                               _transfer, simulate_scan, widefield_blur)

SWEEP = settings(derandomize=True, deadline=None, max_examples=60)
DIRECT_SIDE = 21  # direct scans run up to this spot side, so the sweep stays fast
COMPENSATED_TAPS = 61**2  # and compensated sums up to this many blur taps


def random_spot(rng, side):
    vals = rng.random((side, side)) + 1e-3
    return Image(vals / vals.sum(), 1.0)


def unfolded(quadrant):
    c = quadrant.shape[0] - 1
    full = np.empty((2 * c + 1, 2 * c + 1))
    full[c:, c:] = quadrant
    full[c:, :c] = quadrant[:, :0:-1]
    full[:c] = full[:c:-1]
    return full


def compensated_blur(x, psf):
    # every tap of the blur's square window summed with Neumaier compensation, within
    # about an ulp of the exact convolution (direct's plain running sum is tens of ulps
    # off for a 61^2 window)
    h, w = x.shape
    c = min(psf.shape[0] // 2, max(h, w) - 1)
    mid = psf.shape[0] // 2
    flipped = psf[mid - c : mid + c + 1, mid - c : mid + c + 1][::-1, ::-1]
    padded = np.pad(x, c)
    total, comp = np.zeros((h, w)), np.zeros((h, w))
    for u in range(2 * c + 1):
        for v in range(2 * c + 1):
            term = flipped[u, v] * padded[u : u + h, v : v + w]
            t = total + term
            comp += np.where(np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total)
            total = t
    return total + comp


def v_max(radius, side):
    # the largest J1 argument of the side, as _microscope_quadrant computes it; inf for a
    # tiny radius
    return AIRY_FIRST_ZERO * math.sqrt(2.0) * (side // 2 / radius)


# --- the checks -------------------------------------------------------------------------

def check_transfer(spot, grid, offset):
    """Assert that ``_transfer`` is the rfft2 of the kernel that fancy indexing places,
    the last write winning on a wrapped index; return it."""
    rows, cols = ((np.arange(spot.shape[0]) + offset) % n for n in grid)
    kernel = np.zeros(grid)
    kernel[np.ix_(rows, cols)] = spot[::-1, ::-1]
    want = np.fft.rfft2(kernel)
    assert _transfer(spot, grid, offset).tobytes() == want.tobytes()
    return want


def check_scan(rng, spot, shape, extension, step, level):
    """Assert every scan relation for a sample of ``shape``."""
    side = spot.shape[0]
    op = ScanOperator(spot, shape, extension)
    assert op.transfer.tobytes() == check_transfer(spot, op.grid, op._offset).tobytes()
    x, y = rng.random(shape), rng.standard_normal(op.lattice)
    window = y[op.sites]  # a strided view of the lattice
    for field in (x, window):
        assert op.spectrum(field).tobytes() == np.fft.rfft2(field, op.grid).tobytes()
    full = np.fft.irfft2(np.fft.rfft2(x, op.grid) * op.transfer, op.grid)
    assert op.forward_window(x).tobytes() == full[: window.shape[0], : window.shape[1]].tobytes()
    spec = np.conj(np.conj(np.fft.rfft2(window, op.grid)) * op.transfer)
    full = np.fft.irfft2(spec, op.grid)
    assert op.adjoint(y).tobytes() == full[: shape[0], : shape[1]].tobytes()
    lattice = np.zeros(op.lattice)
    lattice[op.sites] = op.forward_window(x - level)
    lattice += level * float(spot.sum())
    dense = op.forward(x, level)
    assert np.array_equal(dense, lattice)

    sample, image = Image(x, 0.1), SpotImage(Image(spot, 0.1))
    background = ConstantBackground(level) if level else ZeroBackground()
    off = (step - 1) // 2
    for method in SCAN_METHODS if side <= DIRECT_SIDE else ("auto", "fft"):
        field = simulate_scan(sample, image, ScanConfig(1, extension, background), method)
        coarse = simulate_scan(sample, image, ScanConfig(step, extension, background), method)
        assert coarse.pitch == sample.pitch * step
        subsampled = field.pixels[off::step, off::step][: coarse.height, : coarse.width]
        assert coarse.pixels.tobytes() == subsampled.tobytes()
        if method == "direct":
            assert np.max(np.abs(field.pixels - dense)) <= 1e-12
        else:
            assert field.pixels.tobytes() == dense.tobytes()
    if not level:
        zero = ScanConfig(1, extension, ConstantBackground(0.0))
        assert simulate_scan(sample, image, zero).pixels.tobytes() == dense.tobytes()
        # the spectral solve needs extension >= side // 2; a few CGLS steps take the rest
        request = InverseFilter(1e-9) if extension >= side // 2 else LeastSquaresCG(1e-3, 3)
        roi = Rect(0, 0, shape[1], shape[0])
        got = [recover(Image(dense, 0.1), image, roi, extension, request, background)
               .recovered.pixels.tobytes()
               for background in (ZeroBackground(), ConstantBackground(0.0))]
        assert got[0] == got[1]


def check_blur(psf, x):
    """Assert every blur relation for the PSF array ``psf`` and the sample ``x``; return
    whether the blur's window is even in both axes, which takes the quadrant route."""
    sample, image = Image(x, 0.1), Image(psf, 0.1)
    got = widefield_blur(sample, image)
    assert got.pitch == sample.pitch
    assert got.pixels.tobytes() == widefield_blur(sample, image, "fft").pixels.tobytes()
    c = psf.shape[0] // 2
    hy, hx = (min(c, n - 1) for n in x.shape)
    h = max(hy, hx)
    square = psf[c - h : c + h + 1, c - h : c + h + 1]
    window = square[h - hy : h + hy + 1, h - hx : h + hx + 1]
    even = np.array_equal(window, window[::-1]) and np.array_equal(window, window[:, ::-1])
    if even:
        want = _even_blur(sample, window[hy:, hx:]).pixels
    else:
        want = _scan_field(x, square[::-1, ::-1], 0, 0.0, "fft")
    assert got.pixels.tobytes() == want.tobytes()
    # the crop drops only taps that meet zeros: against the whole flipped PSF's scans
    whole = psf[::-1, ::-1]
    assert np.max(np.abs(got.pixels - _scan_field(x, whole, 0, 0.0, "fft"))) <= 1e-15
    direct = widefield_blur(sample, image, "direct").pixels
    assert np.array_equal(direct, _scan_field(x, whole, 0, 0.0, "direct"))
    if square.size <= COMPENSATED_TAPS:
        exact = compensated_blur(x, psf)
        ulp = np.spacing(np.max(np.abs(exact)))
        assert np.max(np.abs(got.pixels - exact)) <= 8 * ulp
        assert np.max(np.abs(got.pixels - direct)) <= np.max(np.abs(direct - exact)) + 8 * ulp
    return even


def check_quadrant(rng, radius, side, shape):
    """Assert the quadrant and baseline relations of ``make_microscope_psf(radius, side)``
    for a sample of ``shape``; return whether the quadrant is the PSF's bitwise."""
    quadrant = _microscope_quadrant(radius, side, shape)
    psf = make_microscope_psf(radius, side, 0.1)
    c = side // 2
    want = psf.pixels[c : c + min(c, shape[0] - 1) + 1, c : c + min(c, shape[1] - 1) + 1]
    assert not quadrant.flags.writeable
    assert quadrant.shape == want.shape
    bitwise = np.array_equal(quadrant, want)
    closed = max(want.shape) - 1 < c and v_max(radius, side) <= _SERIES_CUTOFF
    tol = 1e-13 if side < 21 else 1e-14  # a small side's sum leans on J1 near v = 12
    assert bitwise or closed and np.all(np.abs(quadrant - want) <= tol * want)
    if bitwise:
        sample = Image(rng.random(shape), 0.1)
        baseline = _airy_baseline(sample, radius, side).pixels
        assert baseline.tobytes() == widefield_blur(sample, psf).pixels.tobytes()
    return bitwise


# --- the sweep --------------------------------------------------------------------------

sides = st.integers(0, 50).map(lambda half: 2 * half + 1)
shapes = st.tuples(st.integers(1, 69), st.integers(1, 69))
seeds = st.integers(0, 2**32 - 1)


@st.composite
def scans(draw):
    side, shape = draw(sides), draw(shapes)
    extension = draw(st.integers(0, side + 2))
    step = draw(st.integers(1, min(side + 1, min(shape) + 2 * extension)))
    return side, shape, extension, step, draw(st.sampled_from([0.0, 0.3])), draw(seeds)


@SWEEP
@given(scans())
def test_scan_routes(draw):
    side, shape, extension, step, level, seed = draw
    rng = np.random.default_rng(seed)
    check_scan(rng, random_spot(rng, side).pixels, shape, extension, step, level)


@SWEEP
@given(st.integers(0, 15).map(lambda half: 2 * half + 1), shapes, st.booleans(), seeds)
def test_blur_routes(side, shape, even, seed):
    rng = np.random.default_rng(seed)
    psf = unfolded(rng.random((side // 2 + 1,) * 2)) if even else rng.random((side, side))
    # any 1 x 1 window is even
    assert check_blur(psf / psf.sum(), rng.random(shape)) == (even or side == 1 or
                                                              shape == (1, 1))


@st.composite
def airy_psfs(draw):
    # a radius that puts v_max at the target, on both sides of _SERIES_CUTOFF
    side = 2 * draw(st.integers(0, 150)) + 1
    radius = AIRY_FIRST_ZERO * math.sqrt(2.0) * max(side // 2, 1) / draw(st.floats(0.05, 30.0))
    return radius, side, draw(shapes), draw(seeds)


@SWEEP
@given(airy_psfs())
@example((1e-306, 801, (6, 6), 0))  # v and v_max overflow to inf: the centre alone
@example((0.4520570301754627, 3, (1, 1), 0))  # v_max 11.99: the closed route 4.9e-14 off
def test_quadrant_routes(draw):
    radius, side, shape, seed = draw
    check_quadrant(np.random.default_rng(seed), radius, side, shape)
