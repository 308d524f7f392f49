import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from densescan.grid import (
    FormatError,
    Image,
    Rect,
    crop,
    export_pgm,
    load_ddsf,
    new_image,
    pad,
    save_ddsf,
)

from conftest import NOT_INTEGERS, peak_mib

finite = st.floats(allow_nan=False, allow_infinity=False)
small_images = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 64), st.integers(1, 64)),
    elements=finite,
)
pitches = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def read_pgm(path):
    # minimal independent P5 parser (test oracle)
    blob = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    assert m, "not a binary PGM"
    w, h, maxval = (int(g) for g in m.groups())
    dtype = ">u2" if maxval > 255 else "u1"
    data = np.frombuffer(blob, dtype=dtype, count=w * h, offset=m.end())
    return data.reshape(h, w), maxval


# --- Image / Rect -----------------------------------------------------------

def test_new_image_constant_fill():
    im = new_image(3, 3, 0.1, 0.0)
    assert im.width == 3 and im.height == 3 and im.pitch == 0.1
    assert np.array_equal(im.pixels, np.zeros((3, 3)))


def test_new_image_single_pixel():
    im = new_image(1, 1, 1.0, 2.5)
    assert im.pixels[0, 0] == 2.5


def test_new_image_roi_canvas():
    im = new_image(300, 300, 0.1, 0.0)
    assert (im.width, im.height) == (300, 300)
    assert im.width * im.pitch == pytest.approx(30.0)


@pytest.mark.parametrize("args", [
    (0, 3, 0.1, 0.0),
    (3, 0, 0.1, 0.0),
    (3, 3, 0.0, 0.0),
    (3, 3, -1.0, 0.0),
    (3, 3, 0.1, float("nan")),
    (3, 3, 0.1, float("inf")),
])
def test_new_image_invalid_arguments(args):
    with pytest.raises(ValueError):
        new_image(*args)


def test_new_image_and_pad_name_bad_integers():
    image = new_image(2, 2, 1.0)
    for value in NOT_INTEGERS + (0,):
        with pytest.raises(ValueError, match="^width "):
            new_image(value, 3, 0.1)
        with pytest.raises(ValueError, match="^height "):
            new_image(3, value, 0.1)
    for value in NOT_INTEGERS + (-1,):
        with pytest.raises(ValueError, match="^border "):
            pad(image, value)


def test_image_rejects_non_finite_data():
    # the check reads min and max: each propagates NaN, and one of them holds any inf
    for bad in ((np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)):
        data = np.ones((2, 2))
        data[0, : len(bad)] = bad
        with pytest.raises(ValueError, match="^pixel values must all be finite$"):
            Image(data, 1.0)


def test_image_rejects_wrong_rank():
    with pytest.raises(ValueError):
        Image(np.ones(4), 1.0)


def test_image_is_immutable():
    im = new_image(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        im.pixels[0, 0] = 7.0


# Image copies its pixels unless the array is float64, C-contiguous, owns its
# data and is already read-only; then it adopts the array as is.

def _frozen(a):
    a.setflags(write=False)
    return a


def test_image_copies_a_writable_array():
    data = np.ones((3, 4))
    im = Image(data, 1.0)
    data[0, 0] = 7.0
    assert im.pixels[0, 0] == 1.0
    assert not np.shares_memory(im.pixels, data)
    assert data.flags.writeable


def test_image_adopts_a_frozen_owned_array():
    data = _frozen(np.arange(12.0).reshape(3, 4).copy())
    im = Image(data, 1.0)
    assert np.shares_memory(im.pixels, data)
    assert Image(im.pixels, 2.0).pixels is im.pixels


@pytest.mark.parametrize("data", [
    _frozen(np.ones((6, 4)))[1:4],  # a contiguous view of a read-only base
    np.ones((6, 4))[1:4],  # a contiguous view of a writable base, frozen below
    np.ones((3, 4), dtype=np.float32),
    np.ones((3, 4), dtype=">f8"),
    np.ones((4, 3)).T,  # Fortran order
    np.ones((3, 8))[:, ::2],
], ids=["view-of-frozen", "frozen-view-of-writable", "float32", "big-endian", "transposed", "strided"])
def test_image_copies_other_read_only_arrays(data):
    data.setflags(write=False)
    im = Image(data, 1.0)
    assert not np.shares_memory(im.pixels, data)
    assert im.pixels.dtype == np.float64 and im.pixels.flags.c_contiguous
    assert np.array_equal(im.pixels, data)


def test_image_rejects_non_finite_adopted_data():
    for bad in (np.nan, np.inf):
        data = np.ones((2, 2))
        data[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Image(_frozen(data), 1.0)


def test_rect_validates_dims():
    Rect(-3, -3, 1, 1)  # negative offsets are fine (scan lattice coords)
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 5)
    for i, name in enumerate(("x0", "y0", "width", "height")):
        for value in NOT_INTEGERS + ((0,) if i >= 2 else ()):
            args = [0, 0, 1, 1]
            args[i] = value
            with pytest.raises(ValueError, match=f"Rect\\.{name} "):
                Rect(*args)
    rect = Rect(-1.0, 2.0, 3.0, 4.0)
    assert rect == Rect(-1, 2, 3, 4)
    assert all(type(v) is int for v in (rect.x0, rect.y0, rect.width, rect.height))


# --- pad / crop --------------------------------------------------------------

def test_pad_zero_border_is_identity():
    im = new_image(4, 3, 0.5, 1.25)
    out = pad(im, 0, 9.0)
    assert np.array_equal(out.pixels, im.pixels)
    assert out.pitch == im.pitch


def test_pad_single_pixel():
    im = new_image(1, 1, 1.0, 5.0)
    out = pad(im, 1, 0.0)
    expect = np.zeros((3, 3))
    expect[1, 1] = 5.0
    assert np.array_equal(out.pixels, expect)


def test_pad_roi_to_dense_canvas():
    im = new_image(300, 300, 0.1, 1.0)
    out = pad(im, 100, 0.0)
    assert (out.width, out.height) == (500, 500)
    assert np.array_equal(out.pixels[100:400, 100:400], im.pixels)
    assert out.pixels[0, 0] == 0.0


def test_crop_full_extent_is_identity():
    im = new_image(5, 7, 1.0, 3.0)
    out = crop(im, Rect(0, 0, 5, 7))
    assert np.array_equal(out.pixels, im.pixels)


def test_crop_centered_window_from_padded():
    rng = np.random.default_rng(7)
    im = Image(rng.random((300, 300)), 0.1)
    padded = pad(im, 100, 0.0)
    back = crop(padded, Rect(100, 100, 300, 300))
    assert np.array_equal(back.pixels, im.pixels)


@pytest.mark.parametrize("window", [
    Rect(-1, 0, 2, 2),
    Rect(0, -1, 2, 2),
    Rect(3, 0, 2, 2),
    Rect(0, 0, 5, 2),
])
def test_crop_out_of_bounds(window):
    im = new_image(4, 4, 1.0, 0.0)
    with pytest.raises(ValueError):
        crop(im, window)


@settings(max_examples=50, deadline=None)
@given(small_images, st.integers(0, 8), finite, pitches)
def test_pad_crop_roundtrip_bit_exact(data, border, value, pitch):
    im = Image(data, pitch)
    padded = pad(im, border, value)
    back = crop(padded, Rect(border, border, im.width, im.height))
    assert np.array_equal(back.pixels, im.pixels)


# --- DDSF --------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(small_images, pitches)
def test_ddsf_roundtrip_bit_exact(tmp_path_factory, data, pitch):
    path = tmp_path_factory.mktemp("ddsf") / "x.ddsf"
    im = Image(data, pitch)
    save_ddsf(im, path)
    back = load_ddsf(path)
    assert back.pitch == im.pitch
    assert np.array_equal(back.pixels, im.pixels)


def test_ddsf_file_size(tmp_path):
    im = new_image(500, 500, 0.1, 0.25)
    path = tmp_path / "i.ddsf"
    save_ddsf(im, path)
    assert path.stat().st_size == 24 + 500 * 500 * 8 == 2_000_024


def test_ddsf_bad_magic(tmp_path):
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(2, 2, 1.0, 0.0), path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTDDSF!"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_ddsf(path)


def test_ddsf_truncated_header(tmp_path):
    path = tmp_path / "x.ddsf"
    path.write_bytes(b"DDSIMG01\x02\x00")
    with pytest.raises(FormatError, match="header"):
        load_ddsf(path)


def test_ddsf_truncated_payload(tmp_path):
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(4, 4, 1.0, 1.0), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="payload"):
        load_ddsf(path)


def test_ddsf_trailing_bytes(tmp_path):
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(4, 4, 1.0, 1.0), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FormatError, match="trailing"):
        load_ddsf(path)


def test_ddsf_load_holds_one_payload(tmp_path):
    # the payload is read into the array that Image adopts: no second copy
    path = tmp_path / "x.ddsf"
    im = Image(np.random.default_rng(8).random((501, 501)), 0.1)
    save_ddsf(im, path)
    loaded = []
    peak = peak_mib(lambda: loaded.append(load_ddsf(path)))
    assert np.array_equal(loaded[0].pixels, im.pixels)
    assert peak <= 1.25 * im.pixels.nbytes / 2**20


def test_ddsf_huge_header_on_short_file(tmp_path):
    # a header claiming 65535 x 65535 (34 GB) on a 4-pixel file allocates nothing
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(2, 2, 1.0, 0.0), path)
    blob = bytearray(path.read_bytes())
    blob[8:16] = (65535).to_bytes(4, "little") * 2
    path.write_bytes(bytes(blob))

    def load():
        with pytest.raises(FormatError, match="truncated payload"):
            load_ddsf(path)

    assert peak_mib(load) < 1


@pytest.mark.parametrize("cut", [0, 8], ids=["whole", "truncated"])
def test_ddsf_load_from_a_pipe(tmp_path, cut):
    # a FIFO has no size to check before the read: its payload is read, then checked
    path = tmp_path / "x.ddsf"
    im = Image(np.random.default_rng(9).random((5, 7)), 0.1)
    save_ddsf(im, path)
    blob = path.read_bytes()
    blob = blob[: len(blob) - cut]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(blob,))
    writer.start()
    try:
        if cut:
            with pytest.raises(FormatError, match="truncated payload: 272 bytes < 280"):
                load_ddsf(fifo)
        else:
            back = load_ddsf(fifo)
            assert back.pitch == im.pitch and np.array_equal(back.pixels, im.pixels)
    finally:
        writer.join()


def test_ddsf_zero_dims(tmp_path):
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(2, 2, 1.0, 0.0), path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="dimensions"):
        load_ddsf(path)


@pytest.mark.parametrize("pitch", [0.0, -1.0, np.nan, np.inf], ids=["0", "-1", "nan", "inf"])
def test_ddsf_bad_pitch(tmp_path, pitch):
    # Image checks the pitch; load_ddsf reports its message as a FormatError
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(2, 2, 1.0, 0.0), path)
    blob = bytearray(path.read_bytes())
    blob[16:24] = np.array([pitch], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="pitch"):
        load_ddsf(path)


def test_ddsf_non_finite_payload(tmp_path):
    path = tmp_path / "x.ddsf"
    save_ddsf(new_image(1, 1, 1.0, 0.0), path)
    blob = bytearray(path.read_bytes())
    blob[24:32] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="finite"):
        load_ddsf(path)


# --- PGM ---------------------------------------------------------------------

@pytest.mark.parametrize("depth,mid", [(8, 128), (16, 32768)])
def test_pgm_constant_maps_to_midgray(tmp_path, depth, mid):
    path = tmp_path / "c.pgm"
    export_pgm(new_image(5, 4, 1.0, 3.7), path, depth)
    levels, maxval = read_pgm(path)
    assert maxval == (1 << depth) - 1
    assert np.all(levels == mid)


def test_pgm_two_valued_hits_endpoints(tmp_path):
    data = np.zeros((2, 3))
    data[1, 1] = 1.0
    path = tmp_path / "b.pgm"
    export_pgm(Image(data, 1.0), path, 8)
    levels, _ = read_pgm(path)
    assert set(np.unique(levels)) == {0, 255}
    assert levels[1, 1] == 255


def test_pgm_16bit_big_endian_bytes(tmp_path):
    data = np.array([[0.0, 1.0]])
    path = tmp_path / "be.pgm"
    export_pgm(Image(data, 1.0), path, 16)
    raw = path.read_bytes()
    assert raw.endswith(b"\x00\x00\xff\xff")


def test_pgm_invalid_depth(tmp_path):
    with pytest.raises(ValueError):
        export_pgm(new_image(2, 2, 1.0, 0.0), tmp_path / "x.pgm", 12)


def test_pgm_subnormal_value_range(tmp_path):
    # hi - lo is the smallest subnormal; scaling must not overflow to NaN
    data = np.zeros((1, 2))
    data[0, 1] = 5e-324
    path = tmp_path / "s.pgm"
    with np.errstate(all="raise"):
        export_pgm(Image(data, 1.0), path, 8)
    levels, _ = read_pgm(path)
    assert list(levels.flatten()) == [0, 255]


def _pgm_body(px, bit_depth):
    # the out-of-place scaling, as a reference for export_pgm's in-place one
    maxval = (1 << bit_depth) - 1
    lo, hi = float(px.min()), float(px.max())
    if hi > lo:
        if hi - lo == np.inf:
            px, lo, hi = px / 2, lo / 2, hi / 2
        levels = np.clip(np.rint((px - lo) / (hi - lo) * maxval), 0, maxval)
    else:
        levels = np.full(px.shape, float(1 << (bit_depth - 1)))
    return levels.astype(">u2" if bit_depth == 16 else "u1").tobytes()


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("kind", ["scaled", "constant", "halved"])
def test_pgm_bytes_match_the_out_of_place_scaling(tmp_path, depth, kind):
    rng = np.random.default_rng(11)
    data = {"scaled": 1e3 * rng.standard_normal((9, 13)),
            "constant": np.full((9, 13), 3.7),
            "halved": 1.7e308 * (2.0 * rng.random((9, 13)) - 1.0)}[kind]
    if kind == "halved":
        data[0, :2] = -1.7e308, 1.7e308  # hi - lo overflows
    path = tmp_path / "p.pgm"
    export_pgm(Image(data, 1.0), path, depth)
    assert path.read_bytes().split(b"\n", 3)[3] == _pgm_body(data, depth)


def test_pgm_range_beyond_float_max(tmp_path):
    # hi - lo overflows float64; the levels must still span the range
    data = np.array([[-1e308, 0.0, 1e308]])
    path = tmp_path / "o.pgm"
    with np.errstate(all="raise"):
        export_pgm(Image(data, 1.0), path, 8)
    levels, _ = read_pgm(path)
    assert list(levels.flatten()) == [0, 128, 255]


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 16)),
               elements=st.floats(-1e6, 1e6)),
    st.sampled_from([8, 16]),
)
def test_pgm_reparse_is_monotone(tmp_path_factory, data, depth):
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    im = Image(data, 1.0)
    export_pgm(im, path, depth)
    levels, _ = read_pgm(path)
    assert levels.shape == data.shape
    order = np.argsort(data, axis=None, kind="stable")
    ranked = levels.astype(np.int64).flatten()[order]
    assert np.all(np.diff(ranked) >= 0)


def test_pgm_export_of_generated_target_preserves_dims(tmp_path):
    from densescan.patterns import BarGrid, generate

    im = generate(BarGrid(10, 0.5), 300, 300, 0.1)
    path = tmp_path / "t.pgm"
    export_pgm(im, path, 8)
    levels, _ = read_pgm(path)
    assert levels.shape == (300, 300)
