import math

import numpy as np
import pytest

from densescan.deconv import (
    InverseFilter,
    LeastSquaresCG,
    RichardsonLucy,
    Wiener,
    _cgls,
    _richardson_lucy,
    adjoint_apply,
    dft2_forward,
    dft2_inverse,
    recover,
)
from densescan.grid import Image, Rect
from densescan.psf import Disk, Gaussian, SpotImage, make_spot
from densescan import scanner
from densescan.scanner import (
    ConstantBackground,
    ScanConfig,
    ScanOperator,
    ZeroBackground,
    simulate_scan,
)

from conftest import NOT_INTEGERS, scan_oracle, spy


def forward(sample, spot, ext, method="fft"):
    return simulate_scan(sample, spot, ScanConfig(1, ext), method=method)


def full_roi(image, ext):
    return Rect(0, 0, image.width - 2 * ext, image.height - 2 * ext)


# --- dft2 ----------------------------------------------------------------------

def test_dft2_zero_in_zero_out():
    spec = dft2_forward(np.zeros((4, 6)))
    assert np.all(spec == 0)


def test_dft2_delta_gives_constant_spectrum():
    field = np.zeros((5, 7))
    field[0, 0] = 1.0
    spec = dft2_forward(field)
    assert np.allclose(spec, np.ones((5, 7)), atol=1e-15)


def test_dft2_roundtrip_identity(rng):
    field = rng.random((33, 47))
    back = dft2_inverse(dft2_forward(field))
    assert np.max(np.abs(back - field)) < 1e-12


def test_dft2_matches_naive_dft(rng):
    # O(n^2) direct evaluation on a small grid
    field = rng.random((7, 5))
    h, w = field.shape
    naive = np.zeros((h, w), dtype=complex)
    for ky in range(h):
        for kx in range(w):
            acc = 0.0 + 0.0j
            for y in range(h):
                for x in range(w):
                    acc += field[y, x] * np.exp(-2j * np.pi * (ky * y / h + kx * x / w))
            naive[ky, kx] = acc
    assert np.max(np.abs(dft2_forward(field) - naive)) < 1e-10


def test_dft2_real_input_conjugate_symmetry(rng):
    field = rng.random((12, 9))
    spec = dft2_forward(field)
    h, w = field.shape
    for ky, kx in [(1, 2), (5, 0), (0, 4), (7, 8), (11, 3)]:
        assert spec[ky, kx] == pytest.approx(np.conj(spec[(-ky) % h, (-kx) % w]), abs=1e-12)


def test_dft2_rejects_wrong_rank():
    with pytest.raises(ValueError):
        dft2_forward(np.zeros(8))
    with pytest.raises(ValueError):
        dft2_inverse(np.zeros((2, 2, 2)))


# --- adjoint ---------------------------------------------------------------------

def test_adjoint_dot_identity(rng):
    for _ in range(6):
        nh, nw = rng.integers(4, 32, size=2)
        side = int(rng.choice([3, 5, 7, 9]))
        ext = int(rng.integers(0, side))
        vals = rng.random((side, side)) + 1e-3
        spot = SpotImage(Image(vals / vals.sum(), 1.0))
        x = Image(rng.standard_normal((nh, nw)), 1.0)
        y = Image(rng.standard_normal((nh + 2 * ext, nw + 2 * ext)), 1.0)
        ax = simulate_scan(x, spot, ScanConfig(1, ext)).pixels
        aty = adjoint_apply(y, spot, Rect(0, 0, nw, nh), ext).pixels
        lhs = float(np.vdot(ax, y.pixels))
        rhs = float(np.vdot(x.pixels, aty))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.pixels) * np.linalg.norm(y.pixels)


def test_adjoint_dot_identity_against_brute_force(rng):
    # A evaluated by the independent quadruple-loop oracle
    nh = nw = 12
    side, ext = 5, 3
    vals = rng.random((side, side))
    spot = SpotImage(Image(vals / vals.sum(), 1.0))
    x = rng.standard_normal((nh, nw))
    y = rng.standard_normal((nh + 2 * ext, nw + 2 * ext))
    ax = scan_oracle(x, spot.pixels, 1, ext)
    aty = adjoint_apply(Image(y, 1.0), spot, Rect(0, 0, nw, nh), ext).pixels
    assert np.vdot(ax, y) == pytest.approx(np.vdot(x, aty), abs=1e-10)


def test_adjoint_identity_kernel_is_crop(rng):
    spot = make_spot(Disk(0.5), 1)
    ext = 3
    y = Image(rng.random((14, 14)), 1.0)
    out = adjoint_apply(y, spot, Rect(0, 0, 8, 8), ext)
    assert np.max(np.abs(out.pixels - y.pixels[3:11, 3:11])) < 1e-12


def test_adjoint_symmetric_spot_on_delta(rng):
    spot = make_spot(Gaussian(1.5), 7)
    ext = 3
    field = np.zeros((15 + 2 * ext, 15 + 2 * ext))
    field[ext + 7, ext + 7] = 1.0
    out = adjoint_apply(Image(field, 1.0), spot, Rect(0, 0, 15, 15), ext)
    expect = np.zeros((15, 15))
    expect[4:11, 4:11] = spot.pixels
    assert np.max(np.abs(out.pixels - expect)) < 1e-12


# --- recover: spectral methods -----------------------------------------------------

def test_identity_kernel_all_methods(rng):
    spot = make_spot(Disk(0.5), 1)
    sample = Image(rng.random((10, 10)) + 0.2, 1.0)
    inter = forward(sample, spot, 0)
    roi = Rect(0, 0, 10, 10)
    for request in (InverseFilter(1e-9), Wiener(0.0), RichardsonLucy(1),
                    LeastSquaresCG(1e-14, 50)):
        res = recover(inter, spot, roi, 0, request)
        assert np.max(np.abs(res.recovered.pixels - inter.pixels)) < 1e-12, request


def test_inverse_filter_noiseless_roundtrip(rng):
    # well conditioned: 9x9 Gaussian spot, all |H| far above threshold
    sample = Image(rng.random((64, 64)), 1.0)
    spot = make_spot(Gaussian(1.0), 9)
    inter = forward(sample, spot, 8)
    res = recover(inter, spot, Rect(0, 0, 64, 64), 8, InverseFilter(1e-9))
    err = np.mean(np.abs(res.recovered.pixels - sample.pixels))
    assert err < 1e-9
    assert res.iterations_used == 0
    assert res.residual_norm == 0.0


def test_inverse_filter_threshold_precondition(rng):
    # the instance above really is well conditioned: the transfer that
    # recover divides by, on the operator's 72^2 grid
    spot = make_spot(Gaussian(1.0), 9)
    op = ScanOperator(spot.pixels, (64, 64), 8)
    h = np.abs(op.transfer)
    assert op.grid == (72, 72) and h.shape == (72, 37)
    assert h.min() > 1e-6 * h.max()


def test_default_spectral_floor_above_threshold():
    # The default spot is chosen so that every component of the transfer
    # the spectral pair divides by, on the operator's 400^2 grid, survives
    # the default inverse threshold: the floor min|H|/max|H| is 1.11e-8.
    from densescan.cli import PipelineConfig, build_spot

    cfg = PipelineConfig()
    op = ScanOperator(build_spot(cfg).pixels, (cfg.roi_height, cfg.roi_width), cfg.extension)
    mag = np.abs(op.transfer)
    assert op.grid == (400, 400) and mag.shape == (400, 201)
    assert mag.min() / mag.max() > cfg.threshold


def test_wiener_approaches_inverse_filter(rng):
    sample = Image(rng.random((64, 64)), 1.0)
    spot = make_spot(Gaussian(0.7), 9)
    inter = forward(sample, spot, 8)
    roi = Rect(0, 0, 64, 64)
    a = recover(inter, spot, roi, 8, InverseFilter(0.0)).recovered.pixels
    b = recover(inter, spot, roi, 8, Wiener(1e-15)).recovered.pixels
    assert np.max(np.abs(a - b)) < 1e-8


def test_spectral_methods_are_linear(rng):
    sample = Image(rng.random((32, 32)), 1.0)
    spot = make_spot(Gaussian(1.0), 9)
    inter = forward(sample, spot, 8)
    doubled = Image(2.0 * inter.pixels, inter.pitch)
    roi = Rect(0, 0, 32, 32)
    for request in (InverseFilter(1e-9), Wiener(1e-6)):
        once = recover(inter, spot, roi, 8, request).recovered.pixels
        twice = recover(doubled, spot, roi, 8, request).recovered.pixels
        assert np.max(np.abs(twice - 2.0 * once)) < 1e-10


def test_recover_sub_window(rng):
    sample = Image(rng.random((32, 32)), 1.0)
    spot = make_spot(Gaussian(1.0), 9)
    inter = forward(sample, spot, 8)
    res = recover(inter, spot, Rect(4, 6, 10, 12), 8, InverseFilter(1e-9))
    assert (res.recovered.width, res.recovered.height) == (10, 12)
    assert np.max(np.abs(res.recovered.pixels - sample.pixels[6:18, 4:14])) < 1e-9


@pytest.mark.parametrize("request_", [
    InverseFilter(1e-9), Wiener(1e-6), RichardsonLucy(3), LeastSquaresCG(1e-10, 3),
], ids=["inverse", "wiener", "rl", "cgls"])
def test_recover_of_the_whole_sample_adopts_the_solve(monkeypatch, rng, request_):
    # the solve's fresh array becomes the recovered image, uncropped and uncopied; a
    # sub-window is still a crop of the same values
    sample = Image(rng.random((20, 30)), 1.0)
    spot = make_spot(Gaussian(1.0), 9)
    inter = forward(sample, spot, 8)
    solved = []
    solve = type(request_).solve

    def keeping(self, op, y):
        solved.append(solve(self, op, y))
        return solved[-1]

    monkeypatch.setattr(type(request_), "solve", keeping)
    whole = recover(inter, spot, Rect(0, 0, 30, 20), 8, request_).recovered.pixels
    assert whole is solved[0][0]
    part = recover(inter, spot, Rect(3, 2, 25, 16), 8, request_).recovered.pixels
    assert part.tobytes() == whole[2:18, 3:28].tobytes()


def test_spectral_solve_is_the_full_irfft2_bitwise(rng):
    # deconvolve's blocked inverse against irfft2 of the same divided spectrum
    spot = make_spot(Gaussian(1.0), 9)
    inter = forward(Image(rng.random((120, 700)), 1.0), spot, 8)  # 120 rows in blocks of 45
    op = ScanOperator(spot.pixels, (120, 700), 8)
    request = InverseFilter(1e-9)
    spec = request._divide(op.transfer, np.fft.rfft2(inter.pixels[op.sites], op.grid))
    want = np.fft.irfft2(spec, op.grid)[:120, :700]
    assert recover(inter, spot, Rect(0, 0, 700, 120), 8, request).recovered.pixels.tobytes() \
        == want.tobytes()


def test_constant_background_reduction(rng):
    level = 0.4
    sample = Image(rng.random((32, 32)), 1.0)
    spot = make_spot(Gaussian(1.0), 9)
    bg = ConstantBackground(level)
    inter = simulate_scan(sample, spot, ScanConfig(1, 8, bg))
    res = recover(inter, spot, Rect(0, 0, 32, 32), 8, InverseFilter(1e-9), background=bg)
    assert np.mean(np.abs(res.recovered.pixels - sample.pixels)) < 1e-9
    # every solver sees the zero-background data once the response is removed
    clean = simulate_scan(sample, spot, ScanConfig(1, 8))
    roi = Rect(0, 0, 32, 32)
    for request in (InverseFilter(1e-9), Wiener(1e-6), RichardsonLucy(20),
                    LeastSquaresCG(1e-30, 20)):
        got = recover(inter, spot, roi, 8, request, background=bg).recovered.pixels
        want = recover(clean, spot, roi, 8, request).recovered.pixels
        assert np.max(np.abs(got - want)) < 1e-11, request


def test_recover_validation_errors(rng):
    spot = make_spot(Gaussian(1.0), 9)
    inter = Image(rng.random((48, 48)), 1.0)
    with pytest.raises(ValueError, match="extension"):
        recover(inter, spot, Rect(0, 0, 48, 48), 30, InverseFilter(0.5))
    with pytest.raises(ValueError, match="roi"):
        recover(inter, spot, Rect(0, 0, 48, 48), 8, InverseFilter(0.5))
    with pytest.raises(ValueError, match="spectral"):
        recover(inter, spot, Rect(0, 0, 44, 44), 2, InverseFilter(0.5))
    with pytest.raises(ValueError, match="unknown deconvolution request"):
        recover(inter, spot, Rect(0, 0, 32, 32), 8, object())
    with pytest.raises(ValueError, match="unknown background model"):
        recover(inter, spot, Rect(0, 0, 32, 32), 8, InverseFilter(0.5), background=object())
    with pytest.raises(ValueError, match="threshold"):
        InverseFilter(1.5)
    with pytest.raises(ValueError):
        Wiener(-1.0)
    with pytest.raises(ValueError):
        RichardsonLucy(-1)
    with pytest.raises(ValueError):
        LeastSquaresCG(0.0, 10)
    with pytest.raises(ValueError):
        LeastSquaresCG(1e-8, 0)
    for value in (*NOT_INTEGERS, -1):
        with pytest.raises(ValueError, match="iterations"):
            RichardsonLucy(value)
        with pytest.raises(ValueError, match="extension"):
            recover(inter, spot, Rect(0, 0, 32, 32), value, InverseFilter(0.5))
        with pytest.raises(ValueError, match="extension"):
            adjoint_apply(inter, spot, Rect(0, 0, 32, 32), value)
    for value in (*NOT_INTEGERS, 0):
        with pytest.raises(ValueError, match="max_iterations"):
            LeastSquaresCG(1e-3, value)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            LeastSquaresCG(value, 10)
        with pytest.raises(ValueError, match="nsr"):
            Wiener(value)
    roi = Rect(0, 0, 32, 32)
    assert np.array_equal(recover(inter, spot, roi, 8.0, RichardsonLucy(3.0)).recovered.pixels,
                          recover(inter, spot, roi, 8, RichardsonLucy(3)).recovered.pixels)


@pytest.mark.parametrize("request_", [
    InverseFilter(1e-9), Wiener(1e-6), RichardsonLucy(3), LeastSquaresCG(1e-10, 3),
], ids=["inverse", "wiener", "rl", "cgls"])
def test_kernel_transforms_per_solve(monkeypatch, rng, request_):
    # The scan and every solver divide by or apply the spot's one operator, so a
    # scan and a solve on one spot transform it once, also when a constant
    # background's response is removed; an equal but distinct spot has its own.
    sample = Image(rng.random((24, 24)), 1.0)
    roi = Rect(0, 0, 24, 24)
    for background in (ZeroBackground(), ConstantBackground(0.3)):
        spot = make_spot(Gaussian(1.0), 9)
        with monkeypatch.context() as patch:
            calls = spy(patch, scanner, "_transfer")
            inter = simulate_scan(sample, spot, ScanConfig(1, 8, background))
            recover(inter, spot, roi, 8, request_, background)
        assert len(calls) == 1, (background, [args[1] for args in calls])  # the grids
        with monkeypatch.context() as patch:
            calls = spy(patch, scanner, "_transfer")
            recover(inter, SpotImage(spot.image), roi, 8, request_, background)
        assert len(calls) == 1, (background, [args[1] for args in calls])


def test_spectral_pair_reads_the_adjoint_sites(rng):
    # Sites farther than spot_side // 2 from the sample carry no sample
    # information: changing them moves neither the adjoint nor the
    # spectral pair's output, bit for bit.
    spot = make_spot(Gaussian(1.5), 7)
    ext, ring = 6, 6 - 7 // 2
    inter = forward(Image(rng.random((20, 20)), 1.0), spot, ext)
    outer = np.ones(inter.pixels.shape, dtype=bool)
    outer[ring:-ring, ring:-ring] = False
    changed = inter.pixels.copy()
    changed[outer] = rng.standard_normal(np.count_nonzero(outer))
    changed = Image(changed, inter.pitch)
    roi = Rect(0, 0, 20, 20)
    assert np.array_equal(adjoint_apply(inter, spot, roi, ext).pixels,
                          adjoint_apply(changed, spot, roi, ext).pixels)
    for request in (InverseFilter(1e-9), Wiener(1e-6)):
        assert np.array_equal(recover(inter, spot, roi, ext, request).recovered.pixels,
                              recover(changed, spot, roi, ext, request).recovered.pixels), request


# --- Richardson-Lucy ---------------------------------------------------------------

def test_rl_zero_iterations_returns_flat_start(rng):
    sample = Image(rng.random((16, 16)) + 0.5, 1.0)
    spot = make_spot(Gaussian(1.0), 5)
    inter = forward(sample, spot, 4)
    res = recover(inter, spot, Rect(0, 0, 16, 16), 4, RichardsonLucy(0))
    assert np.all(res.recovered.pixels == inter.pixels.mean())
    assert res.iterations_used == 0


def test_rl_nonnegative_iterates_clean_and_noisy(rng):
    sample = Image(rng.random((24, 24)), 1.0)
    spot = make_spot(Gaussian(1.2), 7)
    inter = forward(sample, spot, 6)
    noisy = inter.pixels + 0.05 * rng.standard_normal(inter.pixels.shape)
    for y in (inter.pixels, noisy):
        mins = []
        _richardson_lucy(ScanOperator(spot.pixels, (24, 24), 6), y, 25,
                         on_iterate=lambda x: mins.append(x.min()))
        assert len(mins) == 25
        assert all(m >= 0.0 for m in mins)


def test_rl_conserves_flux_on_positive_data(rng):
    sample = Image(rng.random((24, 24)) + 0.5, 1.0)  # strictly positive
    spot = make_spot(Gaussian(1.2), 7)
    inter = forward(sample, spot, 6)
    total_y = inter.pixels.sum()
    sums = []
    _richardson_lucy(ScanOperator(spot.pixels, (24, 24), 6), inter.pixels, 20,
                     on_iterate=lambda x: sums.append(x.sum()))
    for s in sums:
        assert abs(s - total_y) <= 1e-3 * total_y


@pytest.mark.parametrize("ext", [1, 3, 6], ids=["cropped", "half-side", "ring"])
def test_rl_window_iterates_equal_the_lattice_loop(rng, ext):
    # RL forms its ratio on the window sites only; every iterate is bitwise
    # that of the loop over the whole lattice through forward and adjoint.
    spot = make_spot(Gaussian(1.2), 7)
    inter = forward(Image(rng.random((20, 23)), 1.0), spot, ext)
    y = inter.pixels + 0.01 * rng.standard_normal(inter.pixels.shape)
    op = ScanOperator(spot.pixels, (20, 23), ext)
    iterates = []
    _richardson_lucy(op, y, 15, on_iterate=iterates.append)
    x = np.full(op.shape, y.mean())
    guard = 1e-12 * np.abs(y[op.sites]).max()
    for got in iterates:
        ratio = y / np.maximum(op.forward(x), guard)
        x = x * np.maximum(op.adjoint(ratio), 0.0)
        assert np.array_equal(got, x)
    assert len(iterates) == 15


@pytest.mark.parametrize("scale", [1e-5, 1e-12, 1e-100])
def test_rl_is_scale_equivariant(rng, scale):
    # the division guard is relative to the data, so scaling the data scales the answer;
    # an absolute 1e-12 guard returned 0 with residual 1 at scale 1e-12
    sample = Image(rng.random((20, 20)), 1.0)
    spot = make_spot(Gaussian(1.2), 7)
    inter = forward(sample, spot, 6)
    scaled = Image(scale * inter.pixels, 1.0)
    roi = Rect(0, 0, 20, 20)
    ref = recover(inter, spot, roi, 6, RichardsonLucy(20))
    got = recover(scaled, spot, roi, 6, RichardsonLucy(20))
    peak = ref.recovered.pixels.max()
    assert np.max(np.abs(got.recovered.pixels / scale - ref.recovered.pixels)) <= 1e-12 * peak
    assert got.residual_norm == pytest.approx(ref.residual_norm, rel=1e-9)


def test_rl_improves_with_iterations(rng):
    sample = Image(rng.random((24, 24)) + 0.2, 1.0)
    spot = make_spot(Gaussian(1.2), 7)
    inter = forward(sample, spot, 6)
    roi = Rect(0, 0, 24, 24)
    few = recover(inter, spot, roi, 6, RichardsonLucy(2))
    many = recover(inter, spot, roi, 6, RichardsonLucy(200))
    err_few = np.mean(np.abs(few.recovered.pixels - sample.pixels))
    err_many = np.mean(np.abs(many.recovered.pixels - sample.pixels))
    assert err_many < err_few
    assert many.residual_norm < few.residual_norm
    assert many.iterations_used == 200


# --- CGLS ----------------------------------------------------------------------------

def test_cgls_converges_noiseless(rng):
    sample = Image(rng.random((48, 48)), 1.0)
    spot = make_spot(Gaussian(0.6), 9)
    inter = forward(sample, spot, 8)
    x, iters, history = _cgls(ScanOperator(spot.pixels, (48, 48), 8), inter.pixels, 1e-10, 500)
    assert history[-1] <= 1e-10
    assert iters == len(history) <= 500
    assert all(history[i + 1] <= history[i] * (1 + 1e-12) for i in range(len(history) - 1))
    assert np.mean(np.abs(x - sample.pixels)) < 1e-8


def test_cgls_via_recover(rng):
    sample = Image(rng.random((32, 32)), 1.0)
    spot = make_spot(Gaussian(0.6), 9)
    inter = forward(sample, spot, 8)
    res = recover(inter, spot, Rect(0, 0, 32, 32), 8, LeastSquaresCG(1e-10, 500))
    assert res.residual_norm <= 1e-10
    assert 0 < res.iterations_used <= 500
    assert np.mean(np.abs(res.recovered.pixels - sample.pixels)) < 1e-8


def test_cgls_respects_iteration_cap(rng):
    sample = Image(rng.random((24, 24)), 1.0)
    spot = make_spot(Gaussian(1.5), 9)
    inter = forward(sample, spot, 8)
    res = recover(inter, spot, Rect(0, 0, 24, 24), 8, LeastSquaresCG(1e-30, 7))
    assert res.iterations_used == 7


def test_cgls_zero_data(rng):
    spot = make_spot(Gaussian(0.6), 9)
    zero = Image(np.zeros((24, 24)), 1.0)
    res = recover(zero, spot, Rect(0, 0, 8, 8), 8, LeastSquaresCG(1e-10, 50))
    assert np.all(res.recovered.pixels == 0.0)
    assert res.residual_norm == 0.0
    # data only in the ring no iterate can reach: CGLS takes no step and reports the
    # rescanned residual of x = 0
    ring = np.zeros((32, 32))
    ring[0] = 0.5
    res = recover(Image(ring, 1.0), make_spot(Gaussian(0.6), 7), Rect(0, 0, 20, 20), 6,
                  LeastSquaresCG(1e-3, 100))
    assert (res.iterations_used, res.residual_norm) == (0, 1.0)
    assert np.all(res.recovered.pixels == 0.0)


@pytest.mark.parametrize("n, side, ext", [(20, 7, 1), (20, 7, 3), (20, 7, 6), (64, 15, 14)],
                         ids=["cropped", "half-side", "ring-odd-grid", "ring-even-grid"])
def test_cgls_tracked_residual_is_the_true_residual(rng, n, side, ext):
    # CGLS keeps its residual as a window spectrum plus the constant ring
    # term; the last one it records is the rescanned residual.
    spot = make_spot(Gaussian(1.5), side)
    inter = forward(Image(rng.random((n, n)), 1.0), spot, ext)
    y = inter.pixels + 0.01 * rng.standard_normal(inter.pixels.shape)
    op = ScanOperator(spot.pixels, (n, n), ext)
    x, iters, history = _cgls(op, y, 1e-3, 60)
    true = np.linalg.norm(y - op.forward(x)) / np.linalg.norm(y)
    assert iters == len(history) > 0
    assert abs(history[-1] - true) <= 1e-9 * true


def test_cgls_ring_of_a_clean_scan_leaves_no_floor(rng):
    # The ring outside the window is 0 on a clean scan, so a 1e-10 solve
    # converges; a ring term formed as ||y||^2 less the window spectrum's
    # Parseval norm instead keeps a rounding remainder that puts a ~1e-8
    # floor under the residual, and the solve runs out of iterations.
    spot = make_spot(Gaussian(0.6), 7)
    inter = forward(Image(rng.random((20, 20)), 1.0), spot, 6)
    _, iters, history = _cgls(ScanOperator(spot.pixels, (20, 20), 6), inter.pixels, 1e-10, 500)
    assert history[-1] <= 1e-10
    assert iters < 500


@pytest.mark.parametrize("ext", [4, 7], ids=["half-side", "ring"])
def test_cgls_transforms_once_each_way_per_iteration(monkeypatch, rng, ext):
    # With extension >= spot_side // 2, an iteration takes one forward transform
    # (spectrum) and one inverse; the first adjoint adds one of each.
    spot = make_spot(Gaussian(1.5), 9)
    inter = forward(Image(rng.random((24, 24)), 1.0), spot, ext)
    op = ScanOperator(spot.pixels, (24, 24), ext)
    op.transfer  # computed once, outside the count
    spectra = spy(monkeypatch, ScanOperator, "spectrum")
    inverses = spy(monkeypatch, scanner, "_inverse")
    _, iters, _ = _cgls(op, inter.pixels + 0.01 * rng.standard_normal(inter.pixels.shape),
                        1e-30, 12)
    assert iters == 12
    assert {"spectrum": len(spectra), "inverse": len(inverses)} == {
        "spectrum": iters + 1, "inverse": iters + 1}


def _where_inverse(h, yspec, threshold):
    # the out-of-place divide, as a reference for the in-place one
    mag = np.abs(h)
    keep = (mag >= threshold * mag.max()) & (mag > 0.0)
    return np.where(keep, yspec / np.where(keep, h, 1.0), 0.0)


def _where_wiener(h, yspec, nsr):
    denom = np.square(np.abs(h)) + nsr
    safe = denom > 0.0
    return np.where(safe, yspec * np.conj(h) / np.where(safe, denom, 1.0), 0.0)


@pytest.mark.parametrize("solver", [
    InverseFilter(0.0), InverseFilter(0.05),
    InverseFilter(1.0),  # keeps only max|H|
    Wiener(0.0),  # zero denominators where H == 0
    Wiener(1e-3),
], ids=["inverse-0", "inverse-0.05", "inverse-1", "wiener-0", "wiener-1e-3"])
def test_divide_in_place_matches_the_where_form(rng, solver):
    h = rng.standard_normal((12, 7)) + 1j * rng.standard_normal((12, 7))
    h[rng.random(h.shape) < 0.2] = 0.0  # exact zeros, which both divides zero
    yspec = rng.standard_normal((12, 7)) + 1j * rng.standard_normal((12, 7))
    if isinstance(solver, InverseFilter):
        want = _where_inverse(h, yspec, solver.threshold)
    else:
        want = _where_wiener(h, yspec, solver.nsr)
    got = solver._divide(h, yspec)
    assert got is yspec
    assert got.tobytes() == want.tobytes()


# --- works on an extension below half the spot side (operator methods) ---------------

def test_iterative_methods_accept_small_extension(rng):
    sample = Image(rng.random((24, 24)), 1.0)
    spot = make_spot(Gaussian(0.6), 9)
    inter = forward(sample, spot, 1)  # cropped correlation
    roi = Rect(0, 0, 24, 24)
    res = recover(inter, spot, roi, 1, LeastSquaresCG(1e-10, 400))
    assert res.iterations_used < 400  # converged, not stopped at the cap
    assert np.mean(np.abs(res.recovered.pixels - sample.pixels)) < 1e-6
