"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[criterion NN] name: PASS/FAIL`` line
(visible with ``pytest -s`` and in failure output). The heavyweight
default harness run is shared through a session fixture.
"""

import hashlib
import time

import numpy as np
import pytest

from densescan.cli import PipelineConfig, inset_pair_points, run_pipeline
from densescan.deconv import (
    InverseFilter,
    Wiener,
    _cgls,
    _richardson_lucy,
    adjoint_apply,
    recover,
)
from densescan.grid import Image, Rect
from densescan.metrics import two_point_contrast
from densescan.patterns import BarGrid, generate
from densescan.psf import Gaussian, SpotImage, make_spot
from densescan.scanner import ScanConfig, ScanOperator, simulate_scan

from conftest import scan_oracle


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_spot(rng, side):
    vals = rng.random((side, side)) + 1e-3
    return SpotImage(Image(vals / vals.sum(), 1.0))


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-default")
    cfg = PipelineConfig()
    t0 = time.perf_counter()
    run = run_pipeline(cfg, out)
    run["duration"] = time.perf_counter() - t0
    run["cfg"] = cfg
    return run


def test_criterion_01_geometry_reproduction():
    target = generate(BarGrid(10, 0.5), 300, 300, 0.1)
    spot = make_spot(Gaussian(47.0), 101, 0.1)

    t0 = time.perf_counter()
    dense_fft = simulate_scan(target, spot, ScanConfig(1, 100), method="fft")
    t_fft = time.perf_counter() - t0

    t0 = time.perf_counter()
    dense_direct = simulate_scan(target, spot, ScanConfig(1, 100), method="direct")
    t_direct = time.perf_counter() - t0

    usual = simulate_scan(target, spot, ScanConfig(101, 0))

    ok = (
        (dense_fft.width, dense_fft.height) == (500, 500)
        and (dense_direct.width, dense_direct.height) == (500, 500)
        and (usual.width, usual.height) == (2, 2)
        and t_fft < 10.0
        and t_direct < 120.0
    )
    _report(1, "geometry reproduction", ok,
            f"dense {dense_fft.width}x{dense_fft.height} (fft {t_fft:.2f}s, "
            f"direct {t_direct:.2f}s), usual {usual.width}x{usual.height}")


def test_criterion_02_noiseless_recovery(default_run):
    err = default_run["reports"]["recovered_vs_expected"].mean_abs
    duration = default_run["duration"]
    ok = err < 1e-8 and duration < 30.0
    _report(2, "noiseless recovery", ok,
            f"mean_abs={err:.3e} (< 1e-8), pipeline {duration:.1f}s (< 30s)")


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        nh, nw = rng.integers(8, 65, size=2)
        side = int(rng.choice([3, 5, 7, 9, 11, 13, 15]))
        ext = int(rng.integers(0, side))
        sample = Image(rng.random((nh, nw)), 1.0)
        spot = random_spot(rng, side)
        method = "fft" if i % 5 == 0 else "direct"
        got = simulate_scan(sample, spot, ScanConfig(1, ext), method=method)
        want = scan_oracle(sample.pixels, spot.pixels, 1, ext)
        worst = max(worst, float(np.max(np.abs(got.pixels - want))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    _report(3, "oracle equivalence", ok,
            f"50 instances, max|diff|={worst:.2e} (< 1e-10), {elapsed:.1f}s (< 60s)")


def test_criterion_04_adjoint_dot_test():
    rng = np.random.default_rng(1004)
    worst_ratio = 0.0
    for _ in range(20):
        nh, nw = rng.integers(4, 33, size=2)
        side = int(rng.choice([3, 5, 7, 9]))
        ext = int(rng.integers(0, side))
        spot = random_spot(rng, side)
        x = Image(rng.standard_normal((nh, nw)), 1.0)
        y = Image(rng.standard_normal((nh + 2 * ext, nw + 2 * ext)), 1.0)
        ax = simulate_scan(x, spot, ScanConfig(1, ext)).pixels
        aty = adjoint_apply(y, spot, Rect(0, 0, nw, nh), ext).pixels
        gap = abs(float(np.vdot(ax, y.pixels)) - float(np.vdot(x.pixels, aty)))
        scale = np.linalg.norm(x.pixels) * np.linalg.norm(y.pixels)
        worst_ratio = max(worst_ratio, gap / scale)
    ok = worst_ratio <= 1e-10
    _report(4, "adjoint dot-test", ok,
            f"20 instances, worst |<Ax,y>-<x,A'y>|/(|x||y|)={worst_ratio:.2e} (<= 1e-10)")


def test_criterion_05_zero_border_invariant():
    rng = np.random.default_rng(1005)
    ok = True
    for i in range(10):
        nh, nw = rng.integers(8, 40, size=2)
        side = int(rng.choice([3, 5, 7, 9, 11]))
        sample = Image(rng.random((nh, nw)), 1.0)
        spot = random_spot(rng, side)
        method = "direct" if i % 2 else "fft"
        out = simulate_scan(sample, spot, ScanConfig(1, side - 1), method=method).pixels
        b = (side - 1) // 2
        if b:
            border_zero = (
                np.all(out[:b, :] == 0.0) and np.all(out[-b:, :] == 0.0)
                and np.all(out[:, :b] == 0.0) and np.all(out[:, -b:] == 0.0)
            )
            ok = ok and border_zero
    _report(5, "zero-border invariant", ok,
            "outer (K-1)/2 border bitwise 0.0 on 10 random instances, both paths")


def test_criterion_06_solver_family_coherence():
    rng = np.random.default_rng(1006)
    sample = Image(rng.random((64, 64)), 1.0)
    roi = Rect(0, 0, 64, 64)

    # Wiener(1e-15) vs InverseFilter(0) on a well-conditioned instance
    spot_w = make_spot(Gaussian(0.7), 9)
    inter_w = simulate_scan(sample, spot_w, ScanConfig(1, 8))
    a = recover(inter_w, spot_w, roi, 8, InverseFilter(0.0)).recovered.pixels
    b = recover(inter_w, spot_w, roi, 8, Wiener(1e-15)).recovered.pixels
    wiener_gap = float(np.max(np.abs(a - b)))

    # RichardsonLucy nonnegativity at every iterate
    spot_rl = make_spot(Gaussian(1.2), 9)
    inter_rl = simulate_scan(sample, spot_rl, ScanConfig(1, 8))
    noisy = inter_rl.pixels + 0.05 * rng.standard_normal(inter_rl.pixels.shape)
    mins = []
    for data in (inter_rl.pixels, noisy):
        _richardson_lucy(ScanOperator(spot_rl.pixels, (64, 64), 8), data, 30,
                         on_iterate=lambda x: mins.append(float(x.min())))
    rl_nonneg = len(mins) == 60 and all(m >= 0.0 for m in mins)

    # CGLS on a noiseless 64x64 / 9x9 instance
    spot_cg = make_spot(Gaussian(0.6), 9)
    inter_cg = simulate_scan(sample, spot_cg, ScanConfig(1, 8))
    _, iters, history = _cgls(ScanOperator(spot_cg.pixels, (64, 64), 8), inter_cg.pixels,
                              1e-10, 500)
    monotone = all(history[i + 1] <= history[i] * (1 + 1e-12)
                   for i in range(len(history) - 1))
    cg_ok = history[-1] <= 1e-10 and iters <= 500 and monotone

    ok = wiener_gap < 1e-8 and rl_nonneg and cg_ok
    _report(6, "solver-family coherence", ok,
            f"wiener-inverse gap {wiener_gap:.2e} (< 1e-8); RL min iterate "
            f"{min(mins):.2e} (>= 0); CGLS {iters} iters, final residual "
            f"{history[-1]:.2e} (<= 1e-10), monotone={monotone}")


def test_criterion_07_resolution_demonstration(default_run):
    cfg = default_run["cfg"]
    (x1, y1), (x2, y2) = inset_pair_points(cfg)
    ext = cfg.extension
    inter = default_run["images"]["intermediate"]
    recovered = default_run["images"]["recovered"]
    c_inter = two_point_contrast(inter, (x1 + ext, y1 + ext), (x2 + ext, y2 + ext))
    c_rec = two_point_contrast(recovered, (x1, y1), (x2, y2))
    sep_nm = cfg.inset_pair_separation * cfg.pitch
    spot_nm = cfg.spot_side * cfg.pitch
    ok = c_inter < 0.05 and c_rec > 0.9
    _report(7, "resolution demonstration", ok,
            f"{sep_nm:g} nm pair vs {spot_nm:g} nm spot: intermediate contrast "
            f"{c_inter:.4f} (< 0.05), recovered {c_rec:.4f} (> 0.9)")


def test_criterion_08_baseline_ordering(default_run):
    conventional = default_run["reports"]["conventional_vs_expected"].mean_abs
    recovered = default_run["reports"]["recovered_vs_expected"].mean_abs
    ratio = conventional / recovered
    ok = ratio > 1e4
    _report(8, "baseline ordering", ok,
            f"conventional/recovered error ratio {ratio:.2e} (> 1e4)")


def test_criterion_09_determinism(default_run, tmp_path):
    rerun = run_pipeline(default_run["cfg"], tmp_path / "rerun")
    names = ("expected", "conventional", "intermediate", "recovered")
    hashes_a = {}
    hashes_b = {}
    for name in names:
        a = (default_run["out_dir"] / f"{name}.ddsf").read_bytes()
        b = (rerun["out_dir"] / f"{name}.ddsf").read_bytes()
        hashes_a[name] = hashlib.sha256(a).hexdigest()
        hashes_b[name] = hashlib.sha256(b).hexdigest()
    ok = hashes_a == hashes_b
    _report(9, "determinism", ok,
            "re-run DDSF sha256 digests identical" if ok else f"{hashes_a} != {hashes_b}")


def test_criterion_10_noise_sensitivity(tmp_path):
    cfg = PipelineConfig()
    cfg.noise_sweep = (0.0, 1e-6, 1e-4, 1e-2)
    run = run_pipeline(cfg, tmp_path / "sweep")
    errs = [run["sweep_reports"][s].mean_abs for s in cfg.noise_sweep]
    increasing = all(errs[i] < errs[i + 1] for i in range(3))
    lines = (tmp_path / "sweep" / "noise_sweep.csv").read_text().strip().splitlines()
    four_rows = len(lines) == 5  # header + one row per sigma
    ok = increasing and four_rows
    _report(10, "noise sensitivity", ok,
            "errors " + " < ".join(f"{e:.3e}" for e in errs)
            + f"; csv rows={len(lines) - 1}")
