import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densescan.grid import Image, new_image
from densescan.metrics import CSV_HEADER, compare, two_point_contrast


def test_identical_images():
    im = new_image(4, 4, 1.0, 2.0)
    r = compare(im, im)
    assert r.mean_abs == 0.0
    assert r.mean_signed == 0.0
    assert r.rmse == 0.0
    assert r.max_abs == 0.0
    assert r.psnr_db == math.inf


def test_zero_vs_one_images():
    a = new_image(5, 5, 1.0, 0.0)
    b = new_image(5, 5, 1.0, 1.0)
    r = compare(a, b)
    assert r.mean_abs == 1.0
    assert r.mean_signed == -1.0
    assert r.rmse == 1.0
    assert r.max_abs == 1.0
    assert r.psnr_db == 0.0  # peak 1, rmse 1


def test_symmetry_and_antisymmetry(rng):
    a = Image(rng.random((9, 7)), 1.0)
    b = Image(rng.random((9, 7)), 1.0)
    ab = compare(a, b)
    ba = compare(b, a)
    assert ab.mean_abs == ba.mean_abs
    assert ab.rmse == ba.rmse
    assert ab.max_abs == ba.max_abs
    assert ab.mean_signed == -ba.mean_signed


def test_report_invariants(rng):
    a = Image(rng.standard_normal((16, 16)), 1.0)
    b = Image(rng.standard_normal((16, 16)), 1.0)
    r = compare(a, b)
    assert r.mean_abs <= r.max_abs
    assert r.rmse >= abs(r.mean_signed)


@settings(max_examples=30, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_is_exact(k, seed):
    s = 2.0**k
    rng = np.random.default_rng(seed)
    a = Image(rng.random((6, 6)), 1.0)
    b = Image(rng.random((6, 6)), 1.0)
    base = compare(a, b)
    scaled = compare(Image(s * a.pixels, 1.0), Image(s * b.pixels, 1.0))
    assert scaled.mean_abs == s * base.mean_abs
    assert scaled.rmse == s * base.rmse
    assert scaled.max_abs == s * base.max_abs


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        compare(new_image(3, 3, 1.0, 0.0), new_image(3, 4, 1.0, 0.0))


def test_psnr_uses_reference_peak():
    a = new_image(4, 4, 1.0, 0.0)
    b = new_image(4, 4, 1.0, 10.0)
    r = compare(a, b)  # rmse 10, peak(b) 10
    assert r.psnr_db == pytest.approx(0.0)
    r2 = compare(b, a)  # peak(a) = 0
    assert r2.psnr_db == -math.inf


def test_report_text_and_csv_row():
    im = new_image(2, 2, 1.0, 0.0)
    r = compare(im, im)
    text = r.to_text()
    assert "mean_abs = 0.0" in text
    assert text.count("\n") == 4
    row = r.csv_row("self")
    assert row.split(",")[0] == "self"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.split(",")[5] == "inf"


# --- two_point_contrast -----------------------------------------------------------

def test_contrast_full_dip():
    data = np.zeros((5, 9))
    data[2, 1] = 1.0
    data[2, 7] = 1.0
    im = Image(data, 1.0)
    assert two_point_contrast(im, (1, 2), (7, 2)) == 1.0


def test_contrast_constant_image():
    im = new_image(9, 9, 1.0, 3.0)
    assert two_point_contrast(im, (1, 4), (7, 4)) == 0.0
    # peaks that are not positive give no contrast, whatever lies between them
    for fill in (0.0, -3.0):
        assert two_point_contrast(new_image(9, 9, 1.0, fill), (1, 4), (7, 4)) == 0.0


def test_contrast_no_dip_when_middle_higher():
    data = np.zeros((3, 7))
    data[1, 1:6] = [1.0, 1.5, 2.0, 1.5, 1.0]
    im = Image(data, 1.0)
    assert two_point_contrast(im, (1, 1), (5, 1)) == 0.0


def test_contrast_partial_dip():
    data = np.zeros((3, 5))
    data[1, 0] = 1.0
    data[1, 4] = 1.0
    data[1, 1:4] = 0.25
    im = Image(data, 1.0)
    assert two_point_contrast(im, (0, 1), (4, 1)) == pytest.approx(0.75)


def test_contrast_diagonal_line():
    data = np.ones((6, 6))
    data[0, 0] = 2.0
    data[5, 5] = 2.0
    im = Image(data, 1.0)
    assert two_point_contrast(im, (0, 0), (5, 5)) == pytest.approx(0.5)


def test_contrast_validation():
    im = new_image(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        two_point_contrast(im, (0, 0), (4, 0))
    with pytest.raises(ValueError, match="differ"):
        two_point_contrast(im, (1, 1), (1, 1))
