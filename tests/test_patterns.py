import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densescan.patterns import (
    BarGrid,
    PointPair,
    RandomBlobs,
    SiemensStar,
    generate,
)

from conftest import NOT_INTEGERS


def test_point_pair_exact_layout():
    im = generate(PointPair(20), 300, 300, 0.1)
    px = im.pixels
    on = np.argwhere(px == 1.0)
    assert len(on) == 2
    assert np.count_nonzero(px) == 2
    (y1, x1), (y2, x2) = sorted(map(tuple, on))
    assert y1 == y2 == 150
    assert x2 - x1 == 20
    # physical separation at 0.1 nm/px
    assert (x2 - x1) * im.pitch == pytest.approx(2.0)


def test_point_pair_margin():
    im = generate(PointPair(4), 8, 8, 1.0)
    px = im.pixels
    assert px[0, :].sum() == px[-1, :].sum() == 0.0
    assert px[:, 0].sum() == px[:, -1].sum() == 0.0


def test_bar_grid_duty_arithmetic():
    im = generate(BarGrid(10, 0.5), 300, 300, 0.1)
    assert np.count_nonzero(im.pixels == 1.0) == 45000  # exactly 50%
    assert set(np.unique(im.pixels)) == {0.0, 1.0}


def test_bar_grid_period_structure():
    im = generate(BarGrid(4, 0.25), 8, 3, 1.0)
    expect_cols = np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=float)
    assert np.array_equal(im.pixels, np.tile(expect_cols, (3, 1)))


@pytest.mark.parametrize("period", [7, 8, 9, 24, 10**20])
def test_bar_grid_period_at_or_past_the_canvas(period):
    # Python ints do not overflow, so this oracle takes any period
    on = max(1, min(period, round(period * 0.5)))
    cols = [1.0 if x % period < on else 0.0 for x in range(8)]
    assert np.array_equal(generate(BarGrid(period, 0.5), 8, 2, 1.0).pixels, np.tile(cols, (2, 1)))


def test_siemens_star_binary_with_margin():
    im = generate(SiemensStar(8), 64, 64, 1.0)
    px = im.pixels
    assert set(np.unique(px)) <= {0.0, 1.0}
    assert px.sum() > 0
    assert px[0, :].sum() == px[-1, :].sum() == 0.0
    assert px[:, 0].sum() == px[:, -1].sum() == 0.0


def test_random_blobs_deterministic():
    a = generate(RandomBlobs(5, 8.0, 42), 128, 128, 1.0)
    b = generate(RandomBlobs(5, 8.0, 42), 128, 128, 1.0)
    assert np.array_equal(a.pixels, b.pixels)
    c = generate(RandomBlobs(5, 8.0, 43), 128, 128, 1.0)
    assert not np.array_equal(a.pixels, c.pixels)


def test_random_blobs_frozen_geometry():
    # pins the cross-platform stability of the seeded layout
    im = generate(RandomBlobs(3, 4.0, 7), 64, 64, 1.0)
    on = np.argwhere(im.pixels == 1.0)
    assert im.pixels.sum() == 147.0
    assert tuple(on[0]) == (5, 8)


def test_random_blobs_margin():
    im = generate(RandomBlobs(10, 3.0, 1), 32, 32, 1.0)
    px = im.pixels
    assert px[0, :].sum() == px[-1, :].sum() == 0.0
    assert px[:, 0].sum() == px[:, -1].sum() == 0.0


specs = st.one_of(
    st.integers(2, 12).map(PointPair),
    st.tuples(st.integers(2, 12), st.floats(0.1, 0.9)).map(lambda t: BarGrid(*t)),
    st.integers(2, 16).map(SiemensStar),
    st.tuples(st.integers(1, 6), st.floats(1.0, 4.0), st.integers(0, 999)).map(
        lambda t: RandomBlobs(*t)
    ),
)


@settings(max_examples=40, deadline=None)
@given(specs, st.integers(32, 96), st.integers(32, 96))
def test_generated_targets_in_unit_range_and_nonzero(spec, width, height):
    im = generate(spec, width, height, 0.1)
    px = im.pixels
    assert px.min() >= 0.0
    assert px.max() <= 1.0
    assert np.count_nonzero(px) >= 1


def test_geometry_exceeding_canvas_errors():
    with pytest.raises(ValueError):
        generate(PointPair(400), 300, 300, 0.1)
    with pytest.raises(ValueError):
        generate(RandomBlobs(1, 40.0, 0), 32, 32, 1.0)
    with pytest.raises(ValueError):
        generate(SiemensStar(4), 4, 4, 1.0)


def test_generate_rejects_foreign_spec():
    with pytest.raises(ValueError, match="unknown pattern spec"):
        generate(object(), 32, 32, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PointPair(0)
    with pytest.raises(ValueError):
        BarGrid(0, 0.5)
    with pytest.raises(ValueError):
        BarGrid(10, 1.0)
    with pytest.raises(ValueError):
        SiemensStar(1)
    with pytest.raises(ValueError):
        RandomBlobs(0, 3.0, 1)
    with pytest.raises(ValueError):
        RandomBlobs(1, 0.0, 1)
    for make, name, minimum in ((PointPair, "separation", 1),
                                (lambda v: BarGrid(v, 0.5), "period", 1),
                                (SiemensStar, "spokes", 2),
                                (lambda v: RandomBlobs(v, 3.0, 1), "count", 1),
                                (lambda v: generate(PointPair(2), v, 10, 1.0), "width", 1),
                                (lambda v: generate(PointPair(2), 10, v, 1.0), "height", 1)):
        for value in (*NOT_INTEGERS, minimum - 1):
            with pytest.raises(ValueError, match=name):
                make(value)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radius"):
            RandomBlobs(1, value, 1)
    # wedge indices run to 2 * spokes, and float64 holds no odd integer past 2**53
    generate(SiemensStar(2**52), 16, 16, 1.0)
    with pytest.raises(ValueError, match=r"spokes must be <= 2\*\*52, got 4503599627370497"):
        SiemensStar(2**52 + 1)


@pytest.mark.parametrize("spec, as_int, name", [
    (PointPair(10.0), PointPair(10), "separation"),
    (BarGrid(8.0, 0.5), BarGrid(8, 0.5), "period"),
    (SiemensStar(12.0), SiemensStar(12), "spokes"),
    (RandomBlobs(5.0, 4.0, 42), RandomBlobs(5, 4, 42), "count"),
], ids=["PointPair", "BarGrid", "SiemensStar", "RandomBlobs"])
def test_integral_float_parameters_are_coerced(spec, as_int, name):
    assert type(getattr(spec, name)) is int
    a = generate(spec, 64, 48, 1.0).pixels
    assert np.array_equal(a, generate(as_int, 64, 48, 1.0).pixels)
