import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densescan.grid import Image, load_ddsf, save_ddsf
from densescan import psf as psf_module
from densescan.psf import (
    AIRY_FIRST_ZERO,
    _BLOCK,
    _SERIES_CUTOFF,
    _airy_intensity,
    _airy_square_sum,
    _j1_asymptotic,
    _microscope_quadrant,
    AiryCore,
    Disk,
    Gaussian,
    SpotImage,
    bessel_j1,
    make_microscope_psf,
    make_spot,
)

from conftest import NOT_INTEGERS, peak_mib, spy
from test_routes import check_quadrant, v_max

# Values frozen from the power-series oracle
#   J1(x) = sum_m (-1)^m (x/2)^(2m+1) / (m! (m+1)!)
# summed to convergence at 50-digit precision (see j1_series below).
J1_FROZEN = {
    0.0: 0.0,
    0.25: 0.12402597732272692273,
    0.5: 0.24226845767487388638,
    1.0: 0.44005058574493351596,
    2.0: 0.5767248077568733872,
    3.0: 0.33905895852593645893,
    3.8317059702: 3.0257317610332283798e-12,
    5.0: -0.32757913759146522204,
    7.5: 0.13524842757970550518,
    10.0: 0.04347274616886143667,
    11.9: -0.22898324966192405505,
    12.0: -0.22344710449062761237,
    12.1: -0.21574897337692480827,
    13.0: -0.070318052121778371157,
    15.0: 0.20510403861352276115,
    18.5: -0.16663364001001603118,
    22.0: 0.11717778964385170066,
    26.0: 0.01504573058691581115,
    29.5: -0.064304378099192396782,
    30.0: -0.11875106261662293652,
}


def j1_series(x, dps=50):
    """High-precision power-series oracle, summed to convergence."""
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(x)
        term = x / 2
        total = mp.mpf(0)
        m = 0
        while True:
            total += term
            m += 1
            term = -term * (x / 2) ** 2 / (m * (m + 1))
            if abs(term) < mp.mpf(10) ** (-dps + 5):
                return total


# --- bessel_j1 ---------------------------------------------------------------

@pytest.mark.parametrize("x,expected", sorted(J1_FROZEN.items()))
def test_j1_frozen_series_values(x, expected):
    assert bessel_j1(x) == pytest.approx(expected, abs=1e-10)


def test_j1_zero_is_exact():
    assert bessel_j1(0.0) == 0.0


def test_j1_first_zero_constant():
    # root of the series oracle near 3.83, and the J1 value there
    import mpmath as mp

    root = float(mp.findroot(lambda t: j1_series(t), 3.83))
    assert root == pytest.approx(AIRY_FIRST_ZERO, abs=1e-9)
    assert abs(bessel_j1(AIRY_FIRST_ZERO)) < 1e-8


def test_j1_matches_scipy_on_dense_grid():
    from scipy.special import j1 as scipy_j1

    xs = np.linspace(-30.0, 30.0, 24001)
    assert np.max(np.abs(bessel_j1(xs) - scipy_j1(xs))) < 1e-10


def test_j1_odd_symmetry_bitwise():
    xs = np.linspace(0.01, 30.0, 997)
    assert np.array_equal(bessel_j1(-xs), -bessel_j1(xs))


def test_j1_accepts_scalars_and_arrays():
    assert isinstance(bessel_j1(1.0), float)
    out = bessel_j1(np.array([[1.0, 2.0]]))
    assert out.shape == (1, 2)


# bessel_j1 cuts its power series to 16 terms when every series argument is
# within 3.5; the reference is the full 40-term series, written out here.

def j1_series_40(x):
    q = np.square(x / 2.0)
    term = x / 2.0
    total = term.copy()
    for m in range(1, 41):
        term = term * (-q) / (m * (m + 1))
        total += term
    return total


def default_psf_arguments():
    # the J1 arguments of the default 2001-px, radius-2000 microscope PSF
    dy, dx = np.triu_indices(1001)
    v = AIRY_FIRST_ZERO * np.hypot(dy, dx) / 2000.0
    return v[v != 0.0]


@pytest.mark.parametrize("xs", [
    np.linspace(-3.5, 3.5, 1_000_001),
    np.concatenate([np.geomspace(1e-300, 3.5, 20001), -np.geomspace(1e-300, 3.5, 20001)]),
    default_psf_arguments(),
], ids=["linspace", "geomspace", "default-psf"])
def test_j1_short_series_equals_full_series_bitwise(xs):
    assert np.abs(xs).max() <= 3.5
    assert np.array_equal(bessel_j1(xs), j1_series_40(xs))


def test_j1_edge_inputs():
    empty = bessel_j1(np.array([]))
    assert empty.shape == (0,)
    assert isinstance(bessel_j1(np.array(2.0)), float)
    assert bessel_j1(2.0) == j1_series_40(np.array([2.0]))[0]
    assert np.isnan(bessel_j1(float("nan")))
    assert np.isnan(bessel_j1(np.array([np.nan]))).all()
    mixed = bessel_j1(np.array([np.nan, 1.0, -np.nan]))
    assert np.isnan(mixed[[0, 2]]).all()
    assert mixed[1] == j1_series_40(np.array([1.0]))[0]


def test_j1_mixed_span_uses_full_series_per_element():
    # series arguments beyond 3.5 need all 40 terms; beyond 12 the Hankel branch
    xs = np.linspace(-14.0, 14.0, 4001)
    assert np.abs(xs).min() < 3.5 and 3.5 < np.abs(xs[np.abs(xs) <= 12.0]).max()
    ref = np.array([
        (j1_series_40 if abs(x) <= 12.0 else _j1_asymptotic)(np.array([x]))[0] for x in xs
    ])
    assert np.array_equal(bessel_j1(xs), ref)


# --- make_spot ---------------------------------------------------------------

def test_disk_identity_kernel():
    spot = make_spot(Disk(0.5), 1)
    assert spot.side == 1
    assert spot.pixels[0, 0] == 1.0


def test_gaussian_spot_basics():
    spot = make_spot(Gaussian(15.0), 101)
    px = spot.pixels
    assert spot.side == 101
    assert px[50, 50] == px.max()
    assert np.array_equal(px, px[::-1, ::-1])  # point symmetry, bit-exact
    assert abs(px.sum() - 1.0) <= 1e-12


def test_airy_core_first_zero_boundary():
    spot = make_spot(AiryCore(50.0), 101)
    px = spot.pixels
    peak = px.max()
    # on-axis pixel at exactly the first-zero radius
    assert px[50, 100] / peak < 1e-8
    # strictly compact support beyond the first zero
    c = 50
    yy, xx = np.mgrid[0:101, 0:101]
    outside = np.hypot(yy - c, xx - c) > 50.0
    assert np.all(px[outside] == 0.0)


def test_spot_profile_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0)
    with pytest.raises(ValueError):
        Disk(-1.0)
    with pytest.raises(ValueError):
        AiryCore(float("nan"))
    for make, name in ((AiryCore, "first_zero_radius"), (Gaussian, "sigma"), (Disk, "radius")):
        for value in (float("inf"), float("nan"), 0.0):
            with pytest.raises(ValueError, match=f"{name} must be > 0"):
                make(value)


@pytest.mark.parametrize("side", [0, 2, 100, *NOT_INTEGERS])
def test_make_spot_rejects_even_or_empty_side(side):
    with pytest.raises(ValueError, match="spot side"):
        make_spot(Gaussian(1.0), side)


def test_integral_float_side_is_coerced():
    assert np.array_equal(make_spot(Gaussian(1.0), 5.0).pixels,
                          make_spot(Gaussian(1.0), 5).pixels)
    assert np.array_equal(make_microscope_psf(2.0, 5.0).pixels,
                          make_microscope_psf(2.0, 5).pixels)


def test_make_spot_rejects_oversized_support():
    with pytest.raises(ValueError):
        make_spot(Disk(8.0), 9)  # floor(8) > 4
    with pytest.raises(ValueError):
        make_spot(AiryCore(5.0), 9)
    make_spot(Disk(0.9), 1)  # sub-pixel disk still fits


profiles = st.one_of(
    st.floats(0.3, 20.0).map(Gaussian),
    st.floats(0.4, 6.0).map(Disk),
    st.floats(1.0, 6.0).map(AiryCore),
)


@settings(max_examples=40, deadline=None)
@given(profiles, st.integers(6, 20))
def test_spot_invariants_property(profile, half):
    side = 2 * half + 1
    spot = make_spot(profile, side)
    px = spot.pixels
    assert px.min() >= 0.0
    assert abs(px.sum() - 1.0) <= 1e-12
    assert np.array_equal(px, px[::-1, ::-1])


def test_spot_image_validation():
    with pytest.raises(ValueError, match="square"):
        SpotImage(Image(np.full((3, 5), 1.0 / 15), 1.0))
    with pytest.raises(ValueError, match="odd"):
        SpotImage(Image(np.full((4, 4), 1.0 / 16), 1.0))
    with pytest.raises(ValueError, match="normalized"):
        SpotImage(Image(np.full((3, 3), 1.0), 1.0))
    bad = np.full((3, 3), 1.0 / 9)
    bad[0, 0] = -bad[0, 0]
    bad[2, 2] += 2.0 / 9
    with pytest.raises(ValueError, match="nonnegative"):
        SpotImage(Image(bad, 1.0))


def test_make_spot_rejects_foreign_profile():
    with pytest.raises(ValueError, match="unknown spot profile"):
        make_spot(object(), 5)


def test_spot_roundtrip_revalidates(tmp_path):
    spot = make_spot(Gaussian(5.0), 31)
    path = tmp_path / "spot.ddsf"
    save_ddsf(spot.image, path)
    again = SpotImage(load_ddsf(path))  # normalization re-verified on load
    assert np.array_equal(again.pixels, spot.pixels)


# --- make_microscope_psf ------------------------------------------------------

def test_microscope_psf_peak_and_ring():
    psf = make_microscope_psf(20.0, 81)
    px = psf.pixels
    c = 40
    assert px[c, c] == px.max()
    peak = px[c, c]
    # first-zero ring: on-axis local minimum, far below the peak
    assert px[c, c + 20] / peak < 1e-6
    assert px[c, c + 19] > px[c, c + 20] < px[c, c + 21]
    # rings are kept: intensity rises again past the first zero
    assert px[c, c + 25] > px[c, c + 20]


def test_microscope_psf_physical_radius():
    # 2000 px at 0.1 nm/px corresponds to a 200 nm first-zero radius
    psf = make_microscope_psf(2000.0, 101, pitch=0.1)
    assert psf.pitch * 2000.0 == pytest.approx(200.0)
    assert psf.pixels[50, 50] == psf.pixels.max()


def test_microscope_psf_point_symmetry_and_normalization():
    psf = make_microscope_psf(7.5, 41)
    px = psf.pixels
    assert np.array_equal(px, px[::-1, ::-1])
    assert abs(px.sum() - 1.0) <= 1e-12


def test_microscope_psf_rejects_even_side():
    with pytest.raises(ValueError):
        make_microscope_psf(10.0, 40)
    for side in (*NOT_INTEGERS, 0):
        with pytest.raises(ValueError, match="psf side"):
            make_microscope_psf(10.0, side)


# --- octant evaluation ----------------------------------------------------------
# make_spot and make_microscope_psf evaluate a profile on one octant and mirror
# it; the reference evaluates every pixel of the square and normalizes over it.

def full_grid_reference(profile, side):
    off = np.arange(side, dtype=np.float64) - side // 2
    values = profile(np.hypot(off[:, None], off[None, :]))
    return values / values.sum()


@pytest.mark.parametrize("radius, side", [
    (2.0, 1), (2.0, 3), (20.0, 401),
    (3.0, 61),  # v reaches 54 at the corners: the asymptotic J1 branch
])
def test_microscope_psf_equals_full_grid_evaluation(radius, side):
    ref = full_grid_reference(lambda r: _airy_intensity(r, radius), side)
    assert np.array_equal(make_microscope_psf(radius, side).pixels, ref)


def radial_profile(profile):
    if isinstance(profile, Gaussian):
        return lambda r: np.exp(-np.square(r) / (2.0 * profile.sigma**2))
    if isinstance(profile, Disk):
        return lambda r: (r <= profile.radius).astype(np.float64)
    radius = profile.first_zero_radius
    return lambda r: np.where(r > radius, 0.0, _airy_intensity(r, radius))


@pytest.mark.parametrize("profile, side", [
    (Gaussian(0.7), 1), (Gaussian(2.5), 41), (Gaussian(47.0), 101),
    (Disk(0.5), 1), (Disk(1.0), 3), (Disk(12.3), 41),
    (AiryCore(1.0), 3), (AiryCore(2.0), 41), (AiryCore(20.0), 41),
], ids=repr)
def test_make_spot_equals_full_grid_evaluation(profile, side):
    ref = full_grid_reference(radial_profile(profile), side)
    assert np.array_equal(make_spot(profile, side).pixels, ref)


# --- blocked evaluation ----------------------------------------------------------
# _radial_image evaluates the octant in blocks of rows of about _BLOCK radii.

@pytest.mark.parametrize("radius, side", [
    (20.0, 801),  # 401 rows in blocks of 81
    (2000.0, 2001),  # the default microscope PSF: 1001 rows in blocks of 32
])
def test_multi_block_psf_equals_full_grid_evaluation(radius, side):
    assert _BLOCK // (side // 2 + 1) < side // 2 + 1
    ref = full_grid_reference(lambda r: _airy_intensity(r, radius), side)
    assert np.array_equal(make_microscope_psf(radius, side).pixels, ref)


def test_default_psf_peak_memory_is_near_its_output():
    # the output, the blocks, the octant mask and Image's finiteness mask: no
    # full-size temporary and no copy (the builder freezes it and Image adopts it)
    built = []
    peak = peak_mib(lambda: built.append(make_microscope_psf(2000.0, 2001)))
    assert peak <= 1.35 * built[0].pixels.nbytes / 2**20


# --- the blur's window ----------------------------------------------------------------
# _microscope_quadrant gives the quadrant [c:, c:] of the central 2 h + 1 window of the
# microscope PSF that a blur of an (N_0, N_1) sample reads, h = min(c, N - 1) per axis:
# evaluated alone and normalized by the closed-form sum of the full side, or cropped from
# make_microscope_psf. The tests that call check_quadrant are hand-picked rows of the route
# sweep (test_routes.py), which also blurs with the quadrant where it is the PSF's.

def central_quadrant(image, shape):
    c = image.width // 2
    rows, cols = (min(c, n - 1) + 1 for n in shape)
    return image.pixels[c : c + rows, c : c + cols]


@pytest.mark.parametrize("radius, side, half", [
    (2.0, 1, 0), (2.0, 1, 5), (3.0, 61, 30), (3.0, 61, 100), (20.0, 401, 200),
])
def test_microscope_window_is_the_psf_when_it_covers_the_side(radius, side, half):
    assert check_quadrant(np.random.default_rng(0), radius, side, (half + 1, half + 1))


@pytest.mark.parametrize("radius, side, half", [
    (0.7, 801, 5),  # v reaches about 3,100 at the corners: the asymptotic J1 branch
    (3.0, 61, 10),
    (3.0, 801, 100),
    (20.0, 801, 399),  # 401 rows in blocks of 81
    (20.0, 2001, 0),
    (2000.0, 2001, 299),  # the default pipeline's window: 1001 rows in blocks of 32
])
def test_microscope_window_is_the_central_window(radius, side, half):
    check_quadrant(np.random.default_rng(0), radius, side, (half + 1, half + 1))


@pytest.mark.parametrize("radius, side, shape", [
    # the closed route: these sides' closed sums equal the evaluated PSF's sum
    (2000.0, 2001, (300, 300)), (2000.0, 2001, (300, 40)), (40.0, 81, (64, 40)),
    (300.0, 601, (11, 3)), (7.0, 21, (2, 6)),
    # the crop route: v_max above the cutoff, or the window is the whole side
    (20.0, 201, (64, 40)), (20.0, 201, (40, 64)), (3.0, 61, (100, 7)), (40.0, 81, (41, 64)),
])
def test_microscope_quadrant_is_the_psf_quadrant_bitwise(radius, side, shape):
    # cropped per axis, so a sample thinner than the window's half reads fewer rows
    assert check_quadrant(np.random.default_rng(0), radius, side, shape)


# Below v_max = _SERIES_CUTOFF the side's sum is _airy_square_sum, the series of
# (2 J1(v)/v)^2 summed over the square in integers; above it, the PSF is cropped.

@pytest.mark.parametrize("radius, side", [
    (2000.0, 2001),  # the default: v_max 2.7
    (40.0, 81),  # CI's 81 px PSF: 5.4
    (2.0, 1), (0.5, 3), (7.0, 21), (300.0, 601),
    (46.0, 201),  # 11.8, just under the bound
    (1e300, 101),  # v_max 6e-298: term 0 alone
])
def test_closed_sum_matches_fsum_of_the_evaluated_psf(radius, side):
    assert v_max(radius, side) <= _SERIES_CUTOFF
    off = np.arange(side, dtype=np.float64) - side // 2
    want = math.fsum(_airy_intensity(np.hypot(off[:, None], off[None, :]), radius).ravel())
    assert abs(_airy_square_sum(radius, side) - want) <= 1e-14 * want


def test_default_closed_sum_equals_fsum_of_the_full_grid():
    off = np.arange(2001, dtype=np.float64) - 1000
    full = _airy_intensity(np.hypot(off[:, None], off[None, :]), 2000.0)
    assert _airy_square_sum(2000.0, 2001) == math.fsum(full.ravel()) == 2252051.371058277


def test_closed_sum_cost_does_not_grow_with_the_side():
    # the power sums come from Pascal's identity, not from a list of every square
    import time
    import tracemalloc

    tracemalloc.start()
    try:
        start = time.perf_counter()
        total = _airy_square_sum(1e6, 2_000_001)  # v_max 5.4
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0
    assert peak < 2**20
    # the float that summing a list of all 10^6 squares' powers gave, in 5-100 s
    assert total == 722785198236.8671


@pytest.mark.parametrize("radius, side, half, closed", [
    (2000.0, 2001, 299, True),  # the default
    (300.0, 601, 10, True),  # v_max 5.4
    (2000.0, 2001, 990, True), (40.0, 81, 31, True), (46.0, 201, 50, True),
    (1e6, 2_000_001, 63, True),  # a 4e12 px side: its PSF is never built
    # the central-window cases above, whose v_max of 54-3,100 crops the PSF
    (0.7, 801, 5, False), (3.0, 61, 10, False), (3.0, 801, 100, False),
    (20.0, 801, 399, False), (20.0, 2001, 0, False),
    (1e-300, 801, 5, False),  # v_max 2e303
    (1e-306, 801, 5, False),  # v and v_max overflow to inf: the window is the centre alone
    (5e-324, 801, 5, False),
])
def test_microscope_window_sums_in_closed_form_only_where_it_pays(
        monkeypatch, radius, side, half, closed):
    calls = spy(monkeypatch, psf_module, "_airy_square_sum")
    shape = (half + 1, half + 1)
    quadrant = _microscope_quadrant(radius, side, shape)
    assert (v_max(radius, side) <= _SERIES_CUTOFF) == closed
    assert calls == ([(radius, side)] if closed else [])
    assert quadrant.shape == shape
    if side <= 2001:
        want = central_quadrant(make_microscope_psf(radius, side, 0.1), shape)
        assert np.all(np.abs(quadrant - want) <= 1e-14 * want)


@pytest.mark.parametrize("radius, side, half", [
    (0.7, 801, 5), (3.0, 61, 10), (3.0, 801, 100), (20.0, 801, 399), (20.0, 2001, 0),
    (20.0, 201, 63),  # test_cli's small-201 run: v_max 27
])
def test_microscope_window_outside_the_closed_route_is_the_crop(radius, side, half):
    assert v_max(radius, side) > _SERIES_CUTOFF
    assert check_quadrant(np.random.default_rng(0), radius, side, (half + 1, half + 1))


@pytest.mark.parametrize("radius, side, message", [
    (2.0, 4, "psf side must be odd"), (2.0, 0, "psf side must be an integer >= 1"),
    (0.0, 61, "first_zero_radius must be > 0"), (np.nan, 61, "first_zero_radius"),
])
def test_microscope_window_rejects_what_the_psf_rejects(radius, side, message):
    for half in (0, 10, 100):
        with pytest.raises(ValueError, match=message):
            _microscope_quadrant(radius, side, (half + 1, half + 1))
    with pytest.raises(ValueError, match=message):
        make_microscope_psf(radius, side)


def test_j1_all_series_arguments_bitwise():
    # every argument within 12 takes the 40-term series with no gather or scatter
    xs = np.linspace(-12.0, 12.0, 100_100)
    assert np.array_equal(bessel_j1(xs), j1_series_40(xs))
    assert np.array_equal(bessel_j1(xs.reshape(1001, 100)), j1_series_40(xs).reshape(1001, 100))


# --- tiny scale parameters ---------------------------------------------------------
# RuntimeWarnings fail these tests (pyproject filterwarnings).

@pytest.mark.parametrize("sigma", [1e-200, 1e-320, 5e-324])
def test_gaussian_rejects_sigma_whose_variance_underflows(sigma):
    with pytest.raises(ValueError, match="sigma"):
        Gaussian(sigma)


def test_tiny_scales_give_a_delta_without_warnings():
    delta = np.zeros((9, 9))
    delta[4, 4] = 1.0
    # 2 sigma^2 is nonzero here, but -r^2 / (2 sigma^2) overflows to -inf off-centre
    assert np.array_equal(make_spot(Gaussian(1e-160), 9).pixels, delta)
    assert np.array_equal(make_spot(AiryCore(1e-310), 9).pixels, delta)
    # v = AIRY_FIRST_ZERO * r / R overflows off-centre; its intensity limit is 0
    assert np.array_equal(make_microscope_psf(1e-310, 9).pixels, delta)
    assert np.array_equal(_airy_intensity(np.array([0.0, 1.0, np.inf]), 1e-310), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("sigma", [1e154, 1e200, 1.7e308])
def test_huge_gaussian_sigma_gives_the_uniform_spot_without_warnings(sigma):
    # 2 sigma^2 overflows to inf, so every -r^2 / (2 sigma^2) is -0.0 and exp gives 1
    assert np.array_equal(make_spot(Gaussian(sigma), 9).pixels, np.full((9, 9), 1 / 81))
