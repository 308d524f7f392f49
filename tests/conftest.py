"""Shared independent oracles for the scan forward model, and shared test helpers."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from densescan import cli

# Values every integer parameter rejects, besides minimum - 1.
NOT_INTEGERS = (math.inf, -math.inf, math.nan, 2.5)


def scan_oracle(sample, spot, step, extension, bg=0.0):
    """Direct quadruple-loop evaluation of the scan lattice.

    Sites per axis: c_i = -extension + (step-1)//2 + i*step for
    i < floor((N + 2*extension)/step); each output pixel is the
    spot-weighted sum over its footprint, with the sample extended by
    ``bg`` outside its bounds. Pure Python, independent of the library's
    vectorized and FFT paths.
    """
    nh, nw = sample.shape
    k = spot.shape[0]
    ctr = k // 2
    out_h = (nh + 2 * extension) // step
    out_w = (nw + 2 * extension) // step
    off = (step - 1) // 2
    out = np.zeros((out_h, out_w))
    for iy in range(out_h):
        cy = -extension + off + iy * step
        for ix in range(out_w):
            cx = -extension + off + ix * step
            acc = 0.0
            for uy in range(k):
                sy = cy + uy - ctr
                for ux in range(k):
                    sx = cx + ux - ctr
                    if 0 <= sy < nh and 0 <= sx < nw:
                        acc += spot[uy, ux] * sample[sy, sx]
                    else:
                        acc += spot[uy, ux] * bg
            out[iy, ix] = acc
    return out


def conv_lattice_oracle(sample, spot, extension):
    """Step-1 zero-background lattice via scipy's FFT convolution.

    The dense scan is the zero-padded linear correlation of the sample
    with the spot; embed (extension >= half-side) or crop (smaller
    extensions) the full correlation onto the lattice extent.
    """
    from scipy.signal import fftconvolve

    full = fftconvolve(sample, spot[::-1, ::-1], mode="full")
    nh, nw = sample.shape
    ctr = spot.shape[0] // 2
    mh, mw = nh + 2 * extension, nw + 2 * extension
    d = extension - ctr
    if d >= 0:
        out = np.zeros((mh, mw))
        out[d : d + full.shape[0], d : d + full.shape[1]] = full
        return out
    return full[-d : -d + mh, -d : -d + mw]


def peak_mib(call):
    """Tracemalloc's peak, in MiB, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call passes through; return its calls' positional
    arguments, one tuple per call, in order."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def rejected(capsys, argv, code=2):
    """Run ``cli.main(argv)`` and assert that it exits ``code``, prints nothing to stdout
    and creates no ``-o`` path; return its stderr."""
    out = Path(argv[argv.index("-o") + 1])
    assert cli.main(argv) == code
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
