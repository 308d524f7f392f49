import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densescan.grid import Image, new_image
from densescan.psf import Disk, Gaussian, make_microscope_psf, make_spot
from densescan.scanner import (
    ConstantBackground,
    ScanConfig,
    ScanOperator,
    ZeroBackground,
    _even_transfer,
    _scan_field,
    add_noise,
    scan_dims,
    simulate_scan,
    widefield_blur,
)

from conftest import NOT_INTEGERS, conv_lattice_oracle, scan_oracle
from test_routes import check_blur, check_scan, check_transfer, random_spot, unfolded


def as_spot(image):
    from densescan.psf import SpotImage

    return SpotImage(image)


# --- geometry ----------------------------------------------------------------

def test_dense_and_usual_dims_small_analog():
    sample = new_image(30, 30, 0.1, 1.0)
    spot = make_spot(Gaussian(3.0), 11)
    dense = simulate_scan(sample, spot, ScanConfig(1, 10))
    assert (dense.width, dense.height) == (50, 50)
    usual = simulate_scan(sample, spot, ScanConfig(11, 0))
    assert (usual.width, usual.height) == (2, 2)  # floor(30/11)
    assert usual.pitch == pytest.approx(0.1 * 11)


def test_scan_dims_helper():
    assert scan_dims(300, 300, ScanConfig(1, 100)) == (500, 500)
    assert scan_dims(300, 300, ScanConfig(101, 0)) == (2, 2)
    assert scan_dims(300, 300, ScanConfig(1, 50)) == (400, 400)


def test_step_larger_than_extent_errors():
    sample = new_image(4, 4, 1.0, 1.0)
    spot = make_spot(Disk(0.5), 1)
    with pytest.raises(ValueError, match="step"):
        simulate_scan(sample, spot, ScanConfig(9, 0))


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(0, 0)
    with pytest.raises(ValueError):
        ScanConfig(1, -1)
    with pytest.raises(ValueError):
        ConstantBackground(-1.0)
    with pytest.raises(ValueError):
        ConstantBackground(float("inf"))
    with pytest.raises(ValueError, match="background level"):
        ConstantBackground(float("nan"))
    for value in (*NOT_INTEGERS, 0):
        with pytest.raises(ValueError, match="step"):
            ScanConfig(value, 0)
    for value in (*NOT_INTEGERS, -1):
        with pytest.raises(ValueError, match="extension"):
            ScanConfig(1, value)
    with pytest.raises(ValueError, match="unknown background model 'x'"):
        ScanConfig(background="x")
    sample, spot = new_image(4, 4, 1.0, 1.0), make_spot(Disk(0.5), 1)
    with pytest.raises(ValueError, match="unknown method 'bogus', expected one of auto, fft"):
        simulate_scan(sample, spot, ScanConfig(), method="bogus")


# --- forward model vs oracles --------------------------------------------------

def test_delta_sifts_to_spot_bit_exact():
    data = np.zeros((31, 31))
    data[15, 15] = 1.0
    sample = Image(data, 1.0)
    spot = make_spot(Gaussian(2.0), 9)
    out = simulate_scan(sample, spot, ScanConfig(1, 4), method="direct")
    expect = np.zeros((39, 39))
    expect[15 : 24, 15 : 24] = spot.pixels  # symmetric spot: correlation == convolution
    assert np.array_equal(out.pixels, expect)


def test_delta_sifts_to_spot_fft_path():
    data = np.zeros((31, 31))
    data[15, 15] = 1.0
    sample = Image(data, 1.0)
    spot = make_spot(Gaussian(2.0), 9)
    out = simulate_scan(sample, spot, ScanConfig(1, 4), method="fft")
    expect = np.zeros((39, 39))
    expect[15 : 24, 15 : 24] = spot.pixels
    assert np.max(np.abs(out.pixels - expect)) < 1e-12


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_matches_quadruple_loop_oracle_random(rng, method):
    for _ in range(4):
        nh, nw = rng.integers(6, 20, size=2)
        side = int(rng.choice([3, 5, 7]))
        step = int(rng.integers(1, 4))
        ext = int(rng.integers(0, side))
        bg_level = float(rng.choice([0.0, 0.3]))
        bg = ZeroBackground() if bg_level == 0.0 else ConstantBackground(bg_level)
        sample = Image(rng.random((nh, nw)), 1.0)
        spot = as_spot(random_spot(rng, side))
        if (nw + 2 * ext) // step < 1 or (nh + 2 * ext) // step < 1:
            continue
        got = simulate_scan(sample, spot, ScanConfig(step, ext, bg), method=method)
        want = scan_oracle(sample.pixels, spot.pixels, step, ext, bg_level)
        assert got.pixels.shape == want.shape
        assert np.max(np.abs(got.pixels - want)) < 1e-12


def test_matches_scipy_fft_oracle(rng):
    # independent FFT route for the step-1 zero-background case,
    # instances up to 64x64 samples and 15x15 spots
    for _ in range(8):
        nh, nw = rng.integers(8, 65, size=2)
        side = int(rng.choice([3, 5, 9, 15]))
        ext = int(rng.integers(0, side))
        sample = Image(rng.random((nh, nw)), 1.0)
        spot = as_spot(random_spot(rng, side))
        got = simulate_scan(sample, spot, ScanConfig(1, ext), method="fft")
        want = conv_lattice_oracle(sample.pixels, spot.pixels, ext)
        assert np.max(np.abs(got.pixels - want)) < 1e-10


def test_zero_padded_linear_convolution_case(rng):
    # extension = half side gives exactly the full linear convolution
    sample = Image(rng.random((16, 16)), 1.0)
    spot = as_spot(random_spot(rng, 5))
    got = simulate_scan(sample, spot, ScanConfig(1, 2))
    from scipy.signal import fftconvolve

    want = fftconvolve(sample.pixels, spot.pixels[::-1, ::-1], mode="full")
    assert got.pixels.shape == want.shape == (20, 20)
    assert np.max(np.abs(got.pixels - want)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_linearity_zero_background(seed):
    rng = np.random.default_rng(seed)
    s1 = Image(rng.random((12, 12)), 1.0)
    s2 = Image(rng.random((12, 12)), 1.0)
    spot = as_spot(random_spot(rng, 5))
    cfg = ScanConfig(1, 3)
    a, b = 1.75, -0.5
    combined = simulate_scan(Image(a * s1.pixels + b * s2.pixels, 1.0), spot, cfg)
    separate = a * simulate_scan(s1, spot, cfg).pixels + b * simulate_scan(s2, spot, cfg).pixels
    assert np.max(np.abs(combined.pixels - separate)) < 1e-12


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_zero_periphery_border_is_bitwise_zero(rng, method):
    side = 9
    sample = Image(rng.random((17, 13)), 1.0)
    spot = as_spot(random_spot(rng, side))
    out = simulate_scan(sample, spot, ScanConfig(1, side - 1), method=method)
    b = (side - 1) // 2
    assert np.all(out.pixels[:b, :] == 0.0)
    assert np.all(out.pixels[-b:, :] == 0.0)
    assert np.all(out.pixels[:, :b] == 0.0)
    assert np.all(out.pixels[:, -b:] == 0.0)
    # interior carries signal
    assert np.any(out.pixels[b:-b, b:-b] != 0.0)


def test_constant_conservation():
    c = 0.73
    sample = new_image(20, 20, 1.0, c)
    spot = make_spot(Gaussian(2.0), 7)
    out = simulate_scan(sample, spot, ScanConfig(1, 6, ConstantBackground(c)))
    assert np.max(np.abs(out.pixels - c)) < 1e-12


@pytest.mark.parametrize("method", ["direct", "fft"])
@pytest.mark.parametrize("step", [2, 3, 5, 7, 12])
def test_usual_equals_subsampled_dense_bit_exact(rng, method, step):
    # spot side 5: steps below, equal to and above it; two non-square samples
    spot = as_spot(random_spot(rng, 5))
    ext = 4
    for shape in ((21, 18), (13, 31)):
        sample = Image(rng.random(shape), 1.0)
        dense = simulate_scan(sample, spot, ScanConfig(1, ext), method=method)
        coarse = simulate_scan(sample, spot, ScanConfig(step, ext), method=method)
        assert coarse.pixels.shape == ((shape[0] + 2 * ext) // step, (shape[1] + 2 * ext) // step)
        off = (step - 1) // 2
        want = dense.pixels[off::step, off::step][: coarse.height, : coarse.width]
        assert np.array_equal(coarse.pixels, want)


# --- scan operator -------------------------------------------------------------
# Forward and adjoint touch only the lattice window of sites within
# pad = min(extension, spot_side // 2) px of the sample (N + 2 * pad per
# axis, from site extension - pad); the rest is exact zero. They run on the
# next 5-smooth length >= N + pad + spot_side // 2 per axis, which may be
# shorter than the spot: its wrapped taps meet no kept site. The tests that
# call check_scan, check_transfer or check_blur are hand-picked rows of the
# route sweep (test_routes.py), which asserts every route relation on them.

@pytest.mark.parametrize("shape, side, ext", [
    ((24, 24), 9, 4),  # square; the adjoint keeps 24 of 32 rows
    ((40, 64), 15, 10),  # grid 54 x 80; a 3-px border outside the window
    ((30, 30), 21, 4),  # extension < spot_side // 2: forward keeps 38 of 45 rows
    ((2, 3), 15, 0),  # the 15-tap spot is wider than the 9 x 10 grid
    ((2, 3), 15, 3),  # and than its 12 rows
    ((120, 700), 9, 4),  # grid 128 x 720: the inverse runs in blocks of 45 rows
])
def test_operator_inverse_equals_full_irfft2_bitwise(shape, side, ext):
    rng = np.random.default_rng(5)
    check_scan(rng, random_spot(rng, side).pixels, shape, ext, 2, 0.0)


def test_operator_grid_sizes(monkeypatch):
    # cli_stages RL/CGLS, the default-size RL/CGLS and fft scan, the default
    # blur (a 599^2 crop of the PSF, extension 0), a non-square blur
    assert ScanOperator(np.ones((15, 15)), (64, 64), 14).grid == (80, 80)
    assert ScanOperator(np.ones((101, 101)), (300, 300), 100).grid == (400, 400)
    assert ScanOperator(np.ones((599, 599)), (300, 300), 0).grid == (600, 600)
    grids = []

    class Spy(ScanOperator):
        def __init__(self, spot, shape, extension):
            super().__init__(spot, shape, extension)
            grids.append((spot.shape, self.grid))

    monkeypatch.setattr("densescan.scanner.ScanOperator", Spy)
    sample = Image(np.random.default_rng(0).random((30, 31)), 1.0)
    psf = make_microscope_psf(3.0, 81)
    widefield_blur(sample, Image(np.roll(psf.pixels, 1, axis=1), 1.0), "fft")  # not even
    assert grids == [((61, 61), (60, 64))]  # 2 * (31 - 1) + 1 taps; 30 + 30 and 31 + 30 -> 64
    # an even PSF is blurred from its quadrant, cropped per axis, on the same grid
    monkeypatch.setattr("densescan.scanner._even_transfer", lambda q, grid: grids.append(
        (q.shape, grid)) or _even_transfer(q, grid))
    widefield_blur(sample, psf, "fft")
    assert grids[1:] == [((30, 31), (60, 64))]


@pytest.mark.parametrize("shape, side, ext", [
    ((10, 12), 7, 3),  # extension == spot_side // 2; N + spot_side - 2 = 15 is 5-smooth
    ((40, 64), 15, 10),  # extension > spot_side // 2
    ((30, 31), 21, 4),  # extension < spot_side // 2: the window is cropped
    ((30, 31), 9, 0),
    ((2, 3), 15, 0),  # the spot is wider than the 9 x 10 grid
    ((2, 3), 15, 3),
])
def test_operator_forward_matches_direct(shape, side, ext):
    rng = np.random.default_rng(2)
    check_scan(rng, random_spot(rng, side).pixels, shape, ext, 2, 0.3)


@pytest.mark.parametrize("shape, side, ext", [
    ((40, 64), 15, 10),
    ((30, 31), 9, 0),
    ((30, 31), 21, 4),  # extension < spot_side // 2
    ((10, 12), 7, 3),
    ((2, 3), 15, 0),  # the spot is wider than the 9 x 10 grid
    ((2, 3), 15, 3),
])
def test_operator_adjoint_dot_test(shape, side, ext):
    rng = np.random.default_rng(4)
    op = ScanOperator(random_spot(rng, side).pixels, shape, ext)
    x = rng.standard_normal(shape)
    y = rng.standard_normal((shape[0] + 2 * ext, shape[1] + 2 * ext))
    lhs = float(np.vdot(op.forward(x), y))
    rhs = float(np.vdot(x, op.adjoint(y)))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@pytest.mark.parametrize("side, grid, offset", [
    (5, (8, 9), 0),
    (7, (12, 10), -3),  # a blur's offset, pad - side // 2 < 0
    (21, (45, 45), -7),  # the first 7 taps wrap onto the end of the grid
    (15, (9, 10), -7),  # the spot is wider than the grid: taps wrap onto each other
    (15, (12, 5), -4),
    (9, (4, 3), 0),
    (1, (30, 40), 0),  # one row: rfft2's signed zeros of the zero rows must survive
])
def test_transfer_places_the_kernel_as_fancy_indexing_does(side, grid, offset):
    # distinct integer taps: any tap out of place changes the transfer
    check_transfer(np.arange(1.0, side * side + 1).reshape(side, side), grid, offset)


@pytest.mark.parametrize("shape, side, ext", [
    ((24, 24), 9, 7),  # the window is a strided view of the lattice
    ((10, 23), 5, 2),  # grid 15 x 27: an odd rFFT length
    ((10, 12), 7, 3),  # the 16 x 18 window has as many rows as the 16 x 18 grid
])
def test_spectrum_is_rfft2_bitwise(shape, side, ext):
    rng = np.random.default_rng(8)
    check_scan(rng, random_spot(rng, side).pixels, shape, ext, 1, 0.0)


def test_spectrum_and_transpose_leave_their_input_unchanged():
    # the transforms run in place on arrays the operator owns; CGLS keeps r after transpose(r)
    rng = np.random.default_rng(9)
    op = ScanOperator(random_spot(rng, 9).pixels, (24, 24), 7)
    x = rng.standard_normal((24, 24))
    kept_x = x.copy()
    r = op.spectrum(x)
    assert np.array_equal(x, kept_x)
    kept_r = r.copy()
    op.transpose(r)
    assert r.tobytes() == kept_r.tobytes()


@pytest.mark.parametrize("shape, side, ext", [
    ((24, 24), 9, 4), ((30, 31), 9, 0), ((2, 3), 15, 3),  # the window is the whole lattice
    ((24, 24), 9, 7),
])
def test_forward_into_a_given_zero_lattice(shape, side, ext):
    rng = np.random.default_rng(6)
    check_scan(rng, random_spot(rng, side).pixels, shape, ext, 3, 0.25)


@pytest.mark.parametrize("ext, step", [(14, 1), (3, 1), (0, 1), (14, 15)])
def test_step_1_fft_field_is_adopted_without_a_copy(ext, step):
    x = np.random.default_rng(7).random((64, 64))
    field = _scan_field(x, make_spot(Gaussian(2.5), 15).pixels, ext, 0.25, "fft", step)
    assert (Image(field, 1.0).pixels is field) == (step == 1)


@pytest.mark.parametrize("step", [1, 15])
@pytest.mark.parametrize("background", [ZeroBackground(), ConstantBackground(0.25)],
                         ids=["zero", "constant"])
def test_default_scan_is_the_fft_operator(step, background):
    # the cli_stages benchmark geometry: a 64 px sample, a 15 px spot, extension 14
    spot = make_spot(Gaussian(2.5), 15).pixels
    check_scan(np.random.default_rng(17), spot, (64, 64), 14, step, background.level)


@pytest.mark.parametrize("psf", [make_microscope_psf(5.0, 11), Image(np.ones((1, 1)), 1.0)],
                         ids=["airy-11", "identity"])
def test_default_blur_is_the_fft_operator(psf):
    assert check_blur(psf.pixels, np.random.default_rng(18).random((64, 64)))


# --- widefield blur ------------------------------------------------------------

def test_widefield_identity_kernel():
    rng = np.random.default_rng(3)
    sample = Image(rng.random((12, 15)), 0.5)
    psf = Image(np.array([[1.0]]), 0.5)
    out = widefield_blur(sample, psf, "direct")
    assert np.array_equal(out.pixels, sample.pixels)
    assert out.pitch == sample.pitch
    default = widefield_blur(sample, psf)
    assert np.max(np.abs(default.pixels - sample.pixels)) <= 1e-15
    assert default.pitch == sample.pitch


def test_widefield_constant_interior():
    c = 2.5
    sample = new_image(40, 40, 1.0, c)
    psf = make_spot(Gaussian(1.5), 9).image  # sum-normalized kernel
    out = widefield_blur(sample, psf)
    assert (out.width, out.height) == (40, 40)
    band = 4  # half the psf side
    interior = out.pixels[band:-band, band:-band]
    assert np.max(np.abs(interior - c)) < 1e-12


def test_widefield_heavy_blur_variance_reduction():
    # conventional-microscope baseline: an Airy PSF three orders wider
    # than the target structure wipes out nearly all variance
    from densescan.cli import PipelineConfig, build_target
    from densescan.psf import make_microscope_psf

    target = build_target(PipelineConfig())
    psf = make_microscope_psf(2000.0, 2001, pitch=0.1)
    blurred = widefield_blur(target, psf)
    band = 50
    v_target = target.pixels[band:-band, band:-band].var()
    v_blurred = blurred.pixels[band:-band, band:-band].var()
    assert v_target / v_blurred >= 100.0


@pytest.mark.parametrize("shape, side", [
    ((20, 20), 61),
    ((40, 64), 161),  # 127 taps, grid 108 x 128
    ((30, 31), 81),  # 61 taps, grid 60 x 64
])
def test_widefield_crop_equals_uncropped_blur(shape, side):
    assert max(shape) - 1 < side // 2  # the PSF is cropped
    psf = make_microscope_psf(3.0, side).pixels
    assert check_blur(psf, np.random.default_rng(11).random(shape))


def test_default_blur_matches_dot_products():
    # the default blur, on its 600^2 grid, at 50 seeded pixels against each
    # pixel's own float64 dot product of the sample with the flipped PSF window
    from densescan.cli import PipelineConfig, build_target

    cfg = PipelineConfig()
    target = build_target(cfg)
    microscope = make_microscope_psf(cfg.microscope_radius, cfg.microscope_side, cfg.pitch)
    blurred = widefield_blur(target, microscope).pixels
    psf = microscope.pixels
    h, w = target.pixels.shape
    c = psf.shape[0] // 2
    rng = np.random.default_rng(19)
    for i, j in zip(rng.integers(0, h, 50), rng.integers(0, w, 50)):
        window = psf[c + i - h + 1 : c + i + 1, c + j - w + 1 : c + j + 1][::-1, ::-1]
        want = np.dot(target.pixels.ravel(), window.ravel())
        assert abs(blurred[i, j] - want) <= 1e-16


BLUR_SHAPES = [(40, 40), (17, 33), (33, 17), (3, 40), (40, 1), (1, 1)]  # 3 rows < 61 // 2


@pytest.mark.parametrize("side", [1, 3, 5, 13, 31, 61])
@pytest.mark.parametrize("shape", BLUR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_even_psf_blur_matches_direct(side, shape):
    rng = np.random.default_rng([side, *shape])
    psf = unfolded(rng.random((side // 2 + 1, side // 2 + 1)))
    assert check_blur(psf / psf.sum(), rng.random(shape))


@pytest.mark.parametrize("shape", BLUR_SHAPES[:4], ids=lambda s: f"{s[0]}x{s[1]}")
def test_asymmetric_psf_blur_takes_the_complex_transfer(shape):
    # a Gaussian spot rolled by 1 px is even in neither axis
    psf = np.roll(make_spot(Gaussian(3.0), 21).pixels, 1, axis=(0, 1))
    assert not check_blur(psf, np.random.default_rng(25).random(shape))


def test_widefield_rejects_bad_psf():
    sample = new_image(8, 8, 1.0, 1.0)
    with pytest.raises(ValueError, match="odd"):
        widefield_blur(sample, new_image(4, 4, 1.0, 1.0))
    with pytest.raises(ValueError, match="square"):
        widefield_blur(sample, new_image(3, 5, 1.0, 1.0))


# --- noise ----------------------------------------------------------------------

def test_noise_sigma_zero_identity():
    im = new_image(8, 8, 1.0, 1.5)
    out = add_noise(im, 0.0, 123)
    assert np.array_equal(out.pixels, im.pixels)


def test_noise_deterministic_for_seed():
    im = new_image(32, 32, 1.0, 0.0)
    a = add_noise(im, 0.1, 42)
    b = add_noise(im, 0.1, 42)
    assert np.array_equal(a.pixels, b.pixels)
    c = add_noise(im, 0.1, 43)
    assert not np.array_equal(a.pixels, c.pixels)


def test_noise_folded_mean():
    # E|N(0, sigma^2)| = sigma * sqrt(2/pi)
    im = new_image(256, 256, 1.0, 0.0)
    out = add_noise(im, 0.1, 7)
    expected = 0.1 * np.sqrt(2.0 / np.pi)
    assert np.mean(np.abs(out.pixels)) == pytest.approx(expected, rel=0.05)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_noise(new_image(2, 2, 1.0, 0.0), -0.1, 1)
    for sigma in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            add_noise(new_image(2, 2, 1.0, 0.0), sigma, 1)
    # finite, but some of the 4096 draws take the pixels past the float64 range
    with pytest.raises(ValueError, match=r"^sigma must keep the noisy pixels finite, got 1e\+308$"):
        add_noise(new_image(64, 64, 1.0, 0.0), 1e308, 1)


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_noise_checks_seed_at_any_sigma(sigma):
    im = new_image(4, 4, 1.0, 0.0)
    for seed in (*NOT_INTEGERS, -1):
        with pytest.raises(ValueError, match="seed"):
            add_noise(im, sigma, seed)
    assert np.array_equal(add_noise(im, sigma, 42.0).pixels, add_noise(im, sigma, 42).pixels)
