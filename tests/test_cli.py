import argparse
import ast
import hashlib
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from densescan import cli, scanner
from densescan.cli import (
    ConfigError,
    PipelineConfig,
    build_parser,
    build_spot,
    build_target,
    config_text,
    inset_pair_points,
    load_config,
    main,
    run_pipeline,
)
from densescan.deconv import recover
from densescan.grid import DDSF_HEADER, DDSF_MAGIC, Rect, load_ddsf, new_image, save_ddsf
from densescan.metrics import CSV_HEADER
from densescan.psf import (AiryCore, Gaussian, SpotImage, _microscope_quadrant,
                           make_microscope_psf, make_spot)
from densescan.scanner import (ConstantBackground, ScanConfig, _even_blur, simulate_scan,
                               widefield_blur)

from conftest import peak_mib, rejected, spy

SMALL_CONFIG = """
# compact harness instance for fast end-to-end checks
roi_width = 64
roi_height = 64
pitch = 0.1
pattern = bar-grid
bar_period = 8
bar_duty = 0.5
inset_pair_separation = 8
inset_center_x = 20
inset_center_y = 20
inset_clear_half = 10
spot_side = 9
spot_sigma = 0.7
extension = 8
microscope_radius = 16.0
microscope_side = 33
"""


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_small_config(tmp_path, extra=""):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG + extra)
    return path


# --- subcommands ----------------------------------------------------------------

def test_gen_sample_bar_grid(tmp_path):
    out = tmp_path / "s.ddsf"
    rc = main(["gen-sample", "--pattern", "bar-grid", "--period", "10",
               "--duty", "0.5", "--size", "300", "--pitch", "0.1", "-o", str(out)])
    assert rc == 0
    im = load_ddsf(out)
    assert (im.width, im.height, im.pitch) == (300, 300, 0.1)
    assert np.count_nonzero(im.pixels) == 45000


def test_gen_sample_point_pair(tmp_path):
    out = tmp_path / "p.ddsf"
    rc = main(["gen-sample", "--pattern", "point-pair", "--sep", "20",
               "--size", "300", "-o", str(out)])
    assert rc == 0
    assert np.count_nonzero(load_ddsf(out).pixels) == 2


def test_missing_required_flag_exits_2(capsys):
    rc = main(["gen-sample", "--pattern", "bar-grid", "--size", "32"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2


def test_gen_spot_default_sigma(tmp_path):
    out = tmp_path / "spot.ddsf"
    rc = main(["gen-spot", "--profile", "gaussian", "--side", "31", "-o", str(out)])
    assert rc == 0
    SpotImage(load_ddsf(out))  # validates normalization


def test_gen_spot_disk_and_airy(tmp_path):
    for profile in ("disk", "airy"):
        out = tmp_path / f"{profile}.ddsf"
        assert main(["gen-spot", "--profile", profile, "--side", "21",
                     "--radius", "6", "-o", str(out)]) == 0
        SpotImage(load_ddsf(out))


def test_gen_spot_rejects_a_sigma_whose_variance_underflows(tmp_path, capsys):
    assert "sigma" in rejected(capsys, ["gen-spot", "--profile", "gaussian", "--side", "9",
                                        "--sigma", "1e-320", "-o", str(tmp_path / "spot.ddsf")])


def test_scan_geometry_via_cli(tmp_path):
    sample = tmp_path / "s.ddsf"
    spot = tmp_path / "k.ddsf"
    out = tmp_path / "y.ddsf"
    assert main(["gen-sample", "--pattern", "bar-grid", "--size", "30",
                 "-o", str(sample)]) == 0
    assert main(["gen-spot", "--profile", "gaussian", "--side", "11",
                 "--sigma", "2", "-o", str(spot)]) == 0
    assert main(["scan", "--sample", str(sample), "--spot", str(spot),
                 "--step", "1", "--extension", "10", "-o", str(out)]) == 0
    im = load_ddsf(out)
    assert (im.width, im.height) == (50, 50)
    assert main(["scan", "--sample", str(sample), "--spot", str(spot),
                 "--step", "11", "--extension", "0", "-o", str(out)]) == 0
    im = load_ddsf(out)
    assert (im.width, im.height) == (2, 2)
    assert im.pitch == pytest.approx(0.1 * 11)


def test_scan_rerun_is_bit_identical(tmp_path):
    sample = tmp_path / "s.ddsf"
    spot = tmp_path / "k.ddsf"
    main(["gen-sample", "--pattern", "random-blobs", "--size", "48", "--count", "4",
          "--radius", "5", "--seed", "11", "-o", str(sample)])
    main(["gen-spot", "--profile", "gaussian", "--side", "9", "--sigma", "1.5",
          "-o", str(spot)])
    a = tmp_path / "a.ddsf"
    b = tmp_path / "b.ddsf"
    for out in (a, b):
        assert main(["scan", "--sample", str(sample), "--spot", str(spot),
                     "--step", "1", "--extension", "8", "-o", str(out)]) == 0
    assert sha256(a) == sha256(b)


def test_scan_missing_file_exits_1(tmp_path, capsys):
    rejected(capsys, ["scan", "--sample", str(tmp_path / "nope.ddsf"),
                      "--spot", str(tmp_path / "nope2.ddsf"), "-o", str(tmp_path / "o.ddsf")], 1)


def test_scan_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ddsf"
    bad.write_bytes(b"not a ddsf image at all")
    assert "format error" in rejected(capsys, ["scan", "--sample", str(bad), "--spot", str(bad),
                                               "-o", str(tmp_path / "o.ddsf")], 1)


def test_scan_invalid_step_exits_2(tmp_path, capsys):
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(8, 8, 1.0, 1.0), sample)
    spot = tmp_path / "k.ddsf"
    main(["gen-spot", "--profile", "disk", "--radius", "0.5", "--side", "1",
          "-o", str(spot)])
    rejected(capsys, ["scan", "--sample", str(sample), "--spot", str(spot),
                      "--step", "0", "-o", str(tmp_path / "o.ddsf")])


@pytest.mark.parametrize("command", ["scan", "deconv", "pipeline"])
def test_huge_constant_background_exits_2_naming_it(tmp_path, capsys, command):
    # the fft route scans x - level, whose transforms overflow at this level
    sample, spot, out = tmp_path / "s.ddsf", tmp_path / "k.ddsf", tmp_path / "out"
    save_ddsf(new_image(32, 32, 1.0, 0.5), sample)
    save_ddsf(make_spot(Gaussian(1.5), 7).image, spot)
    level = ["--background", "constant:1e308"]
    argv = {
        "scan": ["scan", "--sample", str(sample), "--spot", str(spot), "--extension", "6", *level],
        "deconv": ["deconv", "--intermediate", str(sample), "--spot", str(spot),
                   "--extension", "6", "--method", "inverse", *level],
        "pipeline": ["pipeline", "--config",
                     str(write_small_config(tmp_path, "background = constant:1e308\n"))],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = rejected(capsys, [*argv, "-o", str(out)])
    assert "background level must keep the scan finite, got 1e+308" in err


def test_noise_cli_deterministic(tmp_path):
    src = tmp_path / "s.ddsf"
    save_ddsf(new_image(16, 16, 1.0, 0.0), src)
    a = tmp_path / "a.ddsf"
    b = tmp_path / "b.ddsf"
    for out in (a, b):
        assert main(["noise", "--input", str(src), "--sigma", "0.1",
                     "--seed", "5", "-o", str(out)]) == 0
    assert sha256(a) == sha256(b)
    zero = tmp_path / "z.ddsf"
    assert main(["noise", "--input", str(src), "--sigma", "0",
                 "--seed", "5", "-o", str(zero)]) == 0
    assert np.array_equal(load_ddsf(zero).pixels, load_ddsf(src).pixels)


@pytest.mark.parametrize("sigma", ["0.1", "0"])
def test_noise_cli_rejects_negative_seed(tmp_path, capsys, sigma):
    src = tmp_path / "s.ddsf"
    save_ddsf(new_image(4, 4, 1.0, 0.0), src)
    assert "seed must be an integer >= 0, got -1" in rejected(
        capsys, ["noise", "--input", str(src), "--sigma", sigma, "--seed", "-1",
                 "-o", str(tmp_path / "n.ddsf")])


def test_deconv_and_compare_roundtrip(tmp_path, capsys):
    sample = tmp_path / "s.ddsf"
    spot = tmp_path / "k.ddsf"
    inter = tmp_path / "y.ddsf"
    rec = tmp_path / "x.ddsf"
    main(["gen-sample", "--pattern", "random-blobs", "--size", "64", "--count", "5",
          "--radius", "6", "--seed", "3", "-o", str(sample)])
    main(["gen-spot", "--profile", "gaussian", "--side", "9", "--sigma", "1.0",
          "-o", str(spot)])
    assert main(["scan", "--sample", str(sample), "--spot", str(spot),
                 "--step", "1", "--extension", "8", "-o", str(inter)]) == 0
    assert main(["deconv", "--intermediate", str(inter), "--spot", str(spot),
                 "--extension", "8", "--method", "inverse", "--threshold", "1e-9",
                 "-o", str(rec)]) == 0
    assert main(["compare", "--a", str(rec), "--b", str(sample)]) == 0
    out = capsys.readouterr().out
    metrics = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(metrics["mean_abs"]) < 1e-9
    assert set(metrics) == {"mean_abs", "mean_signed", "rmse", "max_abs", "psnr_db"}


def test_deconv_cgls_prints_diagnostics(tmp_path, capsys):
    sample = tmp_path / "s.ddsf"
    spot = tmp_path / "k.ddsf"
    inter = tmp_path / "y.ddsf"
    main(["gen-sample", "--pattern", "bar-grid", "--size", "32", "--period", "8",
          "-o", str(sample)])
    main(["gen-spot", "--profile", "gaussian", "--side", "9", "--sigma", "0.6",
          "-o", str(spot)])
    main(["scan", "--sample", str(sample), "--spot", str(spot), "--step", "1",
          "--extension", "8", "-o", str(inter)])
    assert main(["deconv", "--intermediate", str(inter), "--spot", str(spot),
                 "--extension", "8", "--method", "cgls", "--tol", "1e-10",
                 "--max-iters", "400", "-o", str(tmp_path / "x.ddsf")]) == 0
    out = capsys.readouterr().out
    assert "iterations = " in out
    assert "residual_norm = " in out


def test_blur_with_generated_airy(tmp_path):
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(32, 32, 1.0, 1.0), sample)
    out = tmp_path / "b.ddsf"
    assert main(["blur", "--sample", str(sample), "--airy-radius", "8",
                 "--psf-side", "17", "-o", str(out)]) == 0
    im = load_ddsf(out)
    assert (im.width, im.height) == (32, 32)
    # the same PSF from a file, and from the side --airy-radius 8 implies, 2 ceil(8) + 1
    psf = tmp_path / "psf.ddsf"
    save_ddsf(make_microscope_psf(8.0, 17), psf)
    for source in (["--psf", str(psf)], ["--airy-radius", "8"]):
        again = tmp_path / "again.ddsf"
        assert main(["blur", "--sample", str(sample), *source, "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()


def test_contrast_subcommand(tmp_path, capsys):
    data = np.zeros((5, 9))
    data[2, 1] = 1.0
    data[2, 7] = 1.0
    from densescan.grid import Image

    save_ddsf(Image(data, 1.0), tmp_path / "i.ddsf")
    assert main(["contrast", "--input", str(tmp_path / "i.ddsf"),
                 "--x1", "1", "--y1", "2", "--x2", "7", "--y2", "2"]) == 0
    assert "contrast = 1.0" in capsys.readouterr().out


# --- config handling --------------------------------------------------------------

def test_load_config_defaults_and_overrides(tmp_path):
    path = write_small_config(tmp_path)
    cfg = load_config(path)
    assert cfg.roi_width == 64
    assert cfg.spot_sigma == 0.7
    assert cfg.threshold == 1e-9  # default preserved
    assert cfg.step == 1


def test_config_unknown_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("no_such_knob = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_config_bad_value(tmp_path):
    path = tmp_path / "c.txt"
    for text, message in (("roi_width = banana\n", "bad value for roi_width"),
                          ("background = blue\n", "background must be 'zero' or 'constant")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)


def test_config_bad_syntax(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("roi_width 64\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


def test_config_requires_dense_step(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("step = 2\n")
    with pytest.raises(ConfigError, match="step"):
        load_config(path)


def test_config_not_utf8_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "bin.cfg"
    path.write_bytes(b"\xff\xfe")
    assert rejected(capsys, ["pipeline", "--config", str(path), "-o", str(tmp_path / "run")]) == (
        f"densescan: config error: cannot read config {path}: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n")


def test_config_text_roundtrip(tmp_path):
    # config_text is what run_pipeline writes to run_config.txt
    for extra in ("", "background = constant:0.25\n"):
        cfg = load_config(write_small_config(tmp_path, extra))
        echo = tmp_path / "echo.txt"
        echo.write_text(config_text(cfg))
        again = load_config(echo)
        assert again == cfg
    assert again.background == ConstantBackground(0.25)
    assert "background = constant:0.25\n" in config_text(again)


def test_pipeline_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("definitely_not_a_key = 1\n")
    assert main(["pipeline", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_pipeline_missing_config_exits_2(tmp_path):
    assert main(["pipeline", "--config", str(tmp_path / "absent.txt")]) == 2


# --- pipeline harness ---------------------------------------------------------------

def test_build_target_inset_geometry(tmp_path):
    cfg = load_config(write_small_config(tmp_path))
    target = build_target(cfg)
    (x1, y1), (x2, y2) = inset_pair_points(cfg)
    assert target.pixels[y1, x1] == 1.0
    assert target.pixels[y2, x2] == 1.0
    assert x2 - x1 == 8
    # cleared box is empty except the two probes
    box = target.pixels[10:31, 10:31]
    assert box.sum() == 2.0
    # separation 0 leaves the base pattern; a pair wider than the box does not fit
    base = cli.generate(cli.PATTERNS[cfg.pattern](cfg), 64, 64, cfg.pitch)
    assert np.array_equal(build_target(replace(cfg, inset_pair_separation=0)).pixels, base.pixels)
    with pytest.raises(ConfigError, match="inset pair separation exceeds the cleared box"):
        build_target(replace(cfg, inset_pair_separation=21))


def test_build_target_takes_integral_floats(tmp_path):
    # 10.0 is the integer 10, as for every other integer parameter
    cfg = load_config(write_small_config(tmp_path))
    floats = replace(cfg, inset_pair_separation=8.0, inset_center_x=20.0,
                     inset_center_y=20.0, inset_clear_half=10.0)
    assert np.array_equal(build_target(floats).pixels, build_target(cfg).pixels)
    assert inset_pair_points(floats) == inset_pair_points(cfg)


def test_pipeline_small_end_to_end(tmp_path):
    path = write_small_config(tmp_path)
    rc = main(["pipeline", "--config", str(path), "-o", str(tmp_path / "run")])
    assert rc == 0
    out = tmp_path / "run"
    for name in ("expected", "conventional", "intermediate", "recovered"):
        assert (out / f"{name}.ddsf").exists()
        assert (out / f"{name}.pgm").exists()
    expected = load_ddsf(out / "expected.ddsf")
    intermediate = load_ddsf(out / "intermediate.ddsf")
    recovered = load_ddsf(out / "recovered.ddsf")
    assert (expected.width, expected.height) == (64, 64)
    assert (intermediate.width, intermediate.height) == (80, 80)
    assert (recovered.width, recovered.height) == (64, 64)
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == ["conventional_vs_expected", "intermediate_crop_vs_expected",
                      "recovered_vs_expected"]
    rec_err = float(lines[3].split(",")[1])
    assert rec_err < 1e-9
    assert (out / "run_config.txt").exists()


def test_pipeline_rerun_bit_identical(tmp_path):
    path = write_small_config(tmp_path)
    cfg = load_config(path)
    run_pipeline(cfg, tmp_path / "r1")
    run_pipeline(cfg, tmp_path / "r2")
    for name in ("expected", "conventional", "intermediate", "recovered"):
        assert sha256(tmp_path / "r1" / f"{name}.ddsf") == \
               sha256(tmp_path / "r2" / f"{name}.ddsf")


def test_pipeline_noise_increases_error(tmp_path):
    clean_cfg = load_config(write_small_config(tmp_path))
    noisy_cfg = load_config(write_small_config(tmp_path, "noise_sigma = 1e-3\nnoise_seed = 1\n"))
    clean = run_pipeline(clean_cfg, tmp_path / "clean")
    noisy = run_pipeline(noisy_cfg, tmp_path / "noisy")
    assert noisy["reports"]["recovered_vs_expected"].mean_abs > \
           clean["reports"]["recovered_vs_expected"].mean_abs


def test_pipeline_half_extension_matches(tmp_path):
    # extension = (K-1)/2 gives the minimal 400x400-class lattice; the
    # recovered sample must agree with the extension = K-1 run
    base = load_config(write_small_config(tmp_path))
    half = load_config(write_small_config(tmp_path, "extension = 4\n"))
    full_run = run_pipeline(base, tmp_path / "full")
    half_run = run_pipeline(half, tmp_path / "half")
    inter_half = half_run["images"]["intermediate"]
    assert (inter_half.width, inter_half.height) == (72, 72)
    diff = np.max(np.abs(full_run["images"]["recovered"].pixels -
                         half_run["images"]["recovered"].pixels))
    assert diff < 1e-10


def test_pipeline_noise_sweep_csv(tmp_path):
    cfg = load_config(write_small_config(tmp_path, "noise_sweep = 0 1e-8 1e-6\n"))
    run = run_pipeline(cfg, tmp_path / "sweep")
    lines = (tmp_path / "sweep" / "noise_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    errs = [run["sweep_reports"][s].mean_abs for s in cfg.noise_sweep]
    assert errs[0] < errs[1] < errs[2]


def test_pipeline_noise_sweep_repeated_sigma_keeps_each_row(tmp_path):
    cfg = load_config(write_small_config(tmp_path, "noise_sweep = 0 1e-6 1e-6\n"))
    run = run_pipeline(cfg, tmp_path / "sweep")
    lines = (tmp_path / "sweep" / "noise_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == [
        "recovered_vs_expected[sigma=0]", "recovered_vs_expected[sigma=1e-06]",
        "recovered_vs_expected[sigma=1e-06]"]
    assert lines[2] == lines[3]
    assert sorted(run["sweep_reports"]) == [0.0, 1e-6]


@pytest.mark.parametrize("argv, expected", [
    (["gen-spot", "--profile", "gaussian", "--side", "9", "--sigma", "1e200"],
     np.full((9, 9), 1 / 81)),
    (["gen-sample", "--pattern", "bar-grid", "--size", "16", "--period", str(10**20)],
     np.ones((16, 16))),
], ids=["gaussian-sigma", "bar-period"])
def test_value_past_the_float_or_int64_range_writes_its_limit(tmp_path, argv, expected):
    # the uniform spot of an infinite sigma; every column inside the first 5e19 px bar
    out = tmp_path / "out.ddsf"
    assert main([*argv, "-o", str(out)]) == 0
    assert np.array_equal(load_ddsf(out).pixels, expected)


@pytest.mark.parametrize("argv, message", [
    (["gen-sample", "--pattern", "siemens-star", "--size", "16", "--spokes", str(10**20)],
     "spokes must be <= 2**52, got 100000000000000000000"),
    (["noise", "--input", "{sample}", "--sigma", "1e308"],
     "sigma must keep the noisy pixels finite, got 1e+308"),
], ids=["spokes", "noise-sigma"])
def test_overflowing_value_exits_2_naming_it(tmp_path, capsys, argv, message):
    # RuntimeWarnings are errors under pytest, so this also checks that neither warns
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(64, 64, 1.0, 0.0), sample)
    argv = [a.format(sample=sample) for a in argv] + ["-o", str(tmp_path / "out.ddsf")]
    assert rejected(capsys, argv) == f"densescan: invalid argument: {message}\n"


def test_default_config_is_valid():
    cfg = PipelineConfig()
    assert cfg.roi_width == cfg.roi_height == 300
    assert cfg.spot_side == 101
    assert cfg.extension == 100
    assert cfg.pitch == 0.1
    assert cfg.method == "inverse" and cfg.threshold == 1e-9


def test_minimal_extension_recovers_identically_full_scale():
    # extension = (spot_side-1)/2 keeps the full linear convolution, so
    # the reconstruction matches the extension = spot_side-1 run; the
    # wider lattice's border rows carry no information
    from densescan.deconv import InverseFilter, recover
    from densescan.grid import Rect
    from densescan.scanner import ScanConfig, simulate_scan
    from densescan.cli import build_spot

    cfg = PipelineConfig()
    target = build_target(cfg)
    spot = build_spot(cfg)
    roi = Rect(0, 0, 300, 300)
    runs = {}
    for ext in (50, 100):
        inter = simulate_scan(target, spot, ScanConfig(1, ext))
        assert (inter.width, inter.height) == (300 + 2 * ext,) * 2
        runs[ext] = recover(inter, spot, roi, ext, InverseFilter(1e-9)).recovered.pixels
    mean_gap = np.mean(np.abs(runs[50] - runs[100]))
    assert mean_gap < 1e-10


def test_cli_full_scale_workflow(tmp_path, capsys):
    sample = tmp_path / "sample.ddsf"
    spot = tmp_path / "spot.ddsf"
    inter = tmp_path / "intermediate.ddsf"
    usual = tmp_path / "usual.ddsf"
    rec = tmp_path / "recovered.ddsf"
    assert main(["gen-sample", "--pattern", "bar-grid", "--period", "10",
                 "--duty", "0.5", "--size", "300", "--pitch", "0.1",
                 "-o", str(sample)]) == 0
    assert main(["gen-spot", "--profile", "gaussian", "--side", "101",
                 "--sigma", "47", "--pitch", "0.1", "-o", str(spot)]) == 0
    assert main(["scan", "--sample", str(sample), "--spot", str(spot),
                 "--step", "1", "--extension", "100", "-o", str(inter)]) == 0
    im = load_ddsf(inter)
    assert (im.width, im.height) == (500, 500)
    assert main(["scan", "--sample", str(sample), "--spot", str(spot),
                 "--step", "101", "--extension", "0", "-o", str(usual)]) == 0
    um = load_ddsf(usual)
    assert (um.width, um.height) == (2, 2)
    assert um.pitch == pytest.approx(10.1)
    assert main(["deconv", "--intermediate", str(inter), "--spot", str(spot),
                 "--extension", "100", "--method", "inverse",
                 "--threshold", "1e-9", "-o", str(rec)]) == 0
    assert main(["compare", "--a", str(rec), "--b", str(sample)]) == 0
    out = capsys.readouterr().out
    metrics = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(metrics["mean_abs"]) < 1e-8


# --- one source for the CLI flags and the config keys -------------------------------

# Every option of every subcommand, except -h: option strings, default,
# type, choices and whether it is required.
CLI_SURFACE = {
    "gen-sample": [
        (["--pattern"], None, None, ["bar-grid", "point-pair", "siemens-star", "random-blobs"],
         True),
        (["--size"], None, int, None, True),
        (["--pitch"], 0.1, float, None, False),
        (["--period"], 10, int, None, False),
        (["--duty"], 0.5, float, None, False),
        (["--sep"], 20, int, None, False),
        (["--spokes"], 12, int, None, False),
        (["--count"], 5, int, None, False),
        (["--radius"], 8.0, float, None, False),
        (["--seed"], 42, int, None, False),
        (["-o", "--output"], None, None, None, True),
    ],
    "gen-spot": [
        (["--profile"], None, None, ["gaussian", "airy", "disk"], True),
        (["--side"], None, int, None, True),
        (["--sigma"], None, float, None, False),
        (["--radius"], None, float, None, False),
        (["--pitch"], 0.1, float, None, False),
        (["-o", "--output"], None, None, None, True),
    ],
    "scan": [
        (["--sample"], None, None, None, True),
        (["--spot"], None, None, None, True),
        (["--step"], 1, int, None, False),
        (["--extension"], 0, int, None, False),
        (["--background"], "zero", None, None, False),
        (["--method"], "auto", None, ["auto", "fft", "direct"], False),
        (["-o", "--output"], None, None, None, True),
    ],
    "blur": [
        (["--sample"], None, None, None, True),
        (["--psf"], None, None, None, False),
        (["--airy-radius"], None, float, None, False),
        (["--psf-side"], None, int, None, False),
        (["-o", "--output"], None, None, None, True),
    ],
    "noise": [
        (["--input"], None, None, None, True),
        (["--sigma"], None, float, None, True),
        (["--seed"], 1, int, None, False),
        (["-o", "--output"], None, None, None, True),
    ],
    "deconv": [
        (["--intermediate"], None, None, None, True),
        (["--spot"], None, None, None, True),
        (["--extension"], None, int, None, True),
        (["--background"], "zero", None, None, False),
        (["--method"], None, None, ["inverse", "wiener", "rl", "cgls"], True),
        (["--threshold"], 1e-9, float, None, False),
        (["--nsr"], 1e-4, float, None, False),
        (["--iters"], 50, int, None, False),
        (["--tol"], 1e-10, float, None, False),
        (["--max-iters"], 500, int, None, False),
        (["-o", "--output"], None, None, None, True),
    ],
    "compare": [
        (["--a"], None, None, None, True),
        (["--b"], None, None, None, True),
    ],
    "contrast": [
        (["--input"], None, None, None, True),
        (["--x1"], None, int, None, True),
        (["--y1"], None, int, None, True),
        (["--x2"], None, int, None, True),
        (["--y2"], None, int, None, True),
    ],
    "pipeline": [
        (["--config"], None, None, None, True),
        (["-o", "--output"], None, None, None, False),
    ],
}


def test_cli_imports_no_private_psf_or_scanner_name():
    # the generated baseline is scanner's one call; cli knows no route of its own
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("psf", "scanner")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [
            (a.option_strings, a.default, a.type,
             None if a.choices is None else list(a.choices), a.required)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }
    assert surface == CLI_SURFACE


def test_blur_needs_exactly_one_psf_source(tmp_path, capsys):
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(8, 8, 1.0, 1.0), sample)
    base = ["blur", "--sample", str(sample), "-o", str(tmp_path / "b.ddsf")]
    rejected(capsys, base)
    assert "not allowed with" in rejected(capsys, [*base, "--psf", str(sample),
                                                   "--airy-radius", "2"])


def test_blur_psf_side_needs_a_generated_psf(tmp_path, capsys):
    # rejected before any file is read: the sample path does not exist
    assert "--psf-side" in rejected(capsys, ["blur", "--sample", str(tmp_path / "absent.ddsf"),
                                             "--psf", str(tmp_path / "psf.ddsf"),
                                             "--psf-side", "5", "-o", str(tmp_path / "b.ddsf")])


@pytest.mark.parametrize("extra", [
    "noise_sigma = -1\n",
    "noise_sigma = nan\n",
    "noise_sweep = nan\n",
    "threshold = 2\n",
    "method = rl\niterations = -3\n",
    "spot_side = 10\n",
    "noise_seed = -1\nnoise_sweep = 1e-3\n",
    "inset_pair_separation = -5\n",
], ids=lambda extra: extra.strip().replace(" = ", "=").replace("\n", ","))
def test_pipeline_rejects_bad_config_before_running(tmp_path, capsys, extra):
    path = write_small_config(tmp_path, extra)
    assert "config error" in rejected(capsys, ["pipeline", "--config", str(path),
                                               "-o", str(tmp_path / "run")])


@pytest.mark.parametrize("overrides, message", [
    ({"method": "nope"}, "method"),
    ({"pgm_depth": 12}, "pgm_depth"),
    ({"microscope_side": 4}, "psf side"),
    ({"roi_width": 0}, "width"),
    ({"spot_side": 15, "extension": 6, "method": "inverse"}, "spectral methods need extension"),
    ({"inset_center_x": 30.5}, "inset_center_x must be an integer"),
    ({"inset_center_y": None}, "inset_center_y must be an integer"),
    ({"inset_clear_half": -1}, "inset_clear_half must be an integer >= 0"),
    ({"inset_pair_separation": -5}, "inset_pair_separation must be an integer >= 0"),
], ids=["method-nope", "pgm_depth-12", "microscope_side-4", "roi_width-0", "extension-6",
        "inset_center_x-30.5", "inset_center_y-None", "inset_clear_half--1",
        "inset_pair_separation--5"])
def test_run_pipeline_validates_config_built_in_code(tmp_path, overrides, message):
    cfg = replace(load_config(write_small_config(tmp_path)), **overrides)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=message):
        run_pipeline(cfg, out)
    assert not out.exists()


def test_pipeline_synthesizes_the_spot_once(tmp_path, monkeypatch):
    calls = spy(monkeypatch, cli, "make_spot")
    path = write_small_config(tmp_path)
    assert main(["pipeline", "--config", str(path), "-o", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_default_pipeline_blurs_with_the_full_psf(tmp_path):
    # the pipeline builds only the PSF window that the blur reads, normalized over the
    # full side: its baseline is the blur with the full 2001^2 PSF
    cfg = PipelineConfig()
    conventional = run_pipeline(cfg, tmp_path / "run")["images"]["conventional"]
    psf = make_microscope_psf(cfg.microscope_radius, cfg.microscope_side, cfg.pitch)
    want = widefield_blur(build_target(cfg), psf)
    assert conventional.pitch == want.pitch
    assert np.max(np.abs(conventional.pixels - want.pixels)) <= 1e-16


def test_default_pipeline_peak_memory(tmp_path):
    # the 2001^2 PSF alone is 30.5 MiB; the 300^2 quadrant the blur reads is 0.7 MiB.
    # 8.31 MiB measured (numpy 2.4.6), so 1.19 MiB of margin
    assert peak_mib(lambda: run_pipeline(PipelineConfig(), tmp_path / "run")) <= 9.5


def test_default_blur_and_recovery_peak_memory():
    # the transforms run in place: one grid spectrum per call (600^2 for the blur,
    # 400^2 for the inverse solve) besides the transfer, which is the real 301^2 half
    # of an even kernel's for the blur. The blur measured 4.39 MiB (numpy 2.4.6), so
    # 0.61 MiB of margin
    cfg = PipelineConfig()
    expected, spot = build_target(cfg), build_spot(cfg)
    quadrant = _microscope_quadrant(cfg.microscope_radius, cfg.microscope_side,
                                    expected.pixels.shape)
    assert peak_mib(lambda: _even_blur(expected, quadrant)) <= 5.0
    inter = simulate_scan(expected, spot, ScanConfig(cfg.step, cfg.extension), cfg.scan_method)
    roi = Rect(0, 0, cfg.roi_width, cfg.roi_height)
    request = cli.SOLVERS[cfg.method](cfg)
    assert peak_mib(lambda: recover(inter, spot, roi, cfg.extension, request)) <= 4.5


# a 64 px run's 64^2 quadrant of a 201^2 PSF (v_max 27, cropped from the full PSF), and
# the default run's 300^2 quadrant of the 2001^2 PSF (normalized by the closed-form sum)
@pytest.mark.parametrize("extra", [
    "microscope_radius = 20\nmicroscope_side = 201\n",
    # a 64 x 40 run: the 40 x 64 quadrant of a 201^2 PSF (v_max 9.0, the closed sum)
    "roi_height = 40\nmicroscope_radius = 60.0\nmicroscope_side = 201\n",
    None,
], ids=["small-201", "small-64x40", "default"])
def test_blur_airy_radius_writes_the_pipeline_baseline(tmp_path, extra):
    # blur --airy-radius builds the PSF quadrant the pipeline builds, so it writes the
    # pipeline's conventional image byte for byte
    cfg = PipelineConfig() if extra is None else load_config(write_small_config(tmp_path, extra))
    run = tmp_path / "run"
    run_pipeline(cfg, run)
    out = tmp_path / "blur.ddsf"
    assert main(["blur", "--sample", str(run / "expected.ddsf"),
                 "--airy-radius", repr(cfg.microscope_radius),
                 "--psf-side", str(cfg.microscope_side), "-o", str(out)]) == 0
    assert out.read_bytes() == (run / "conventional.ddsf").read_bytes()


def test_blur_airy_radius_peak_memory(tmp_path):
    # the 2001^2 PSF alone is 30.5 MiB; the 300^2 quadrant a 300^2 blur reads is 0.7 MiB
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(300, 300, 0.1, 1.0), sample)
    codes = []
    assert peak_mib(lambda: codes.append(main(["blur", "--sample", str(sample), "--airy-radius",
                                               "2000", "--psf-side", "2001",
                                               "-o", str(tmp_path / "b.ddsf")]))) <= 20
    assert codes == [0]


def test_blur_airy_radius_with_a_huge_side(tmp_path):
    # the 16 px sample reads a 16^2 quadrant of a 2,000,001^2 PSF, whose sum is in closed form
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(16, 16, 0.1, 1.0), sample)
    out = tmp_path / "b.ddsf"
    assert main(["blur", "--sample", str(sample), "--airy-radius", "1e6", "-o", str(out)]) == 0
    assert load_ddsf(out).pixels.shape == (16, 16)


@pytest.mark.parametrize("args", [
    ["--airy-radius", "1e155"], ["--airy-radius", "1e200"],  # the side's sum overflows
    ["--airy-radius", "5", "--psf-side", "1" * 401],  # the side itself overflows a float
    ["--airy-radius", "1e308"],  # v_max is 5.4, but the side's sum overflows
], ids=["radius-1e155", "radius-1e200", "side-401-digits", "radius-1e308"])
def test_blur_rejects_a_psf_whose_sum_overflows(tmp_path, capsys, args):
    import time

    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(16, 16, 0.1, 1.0), sample)
    start = time.perf_counter()
    err = rejected(capsys, ["blur", "--sample", str(sample), *args, "-o", str(tmp_path / "b.ddsf")])
    assert time.perf_counter() - start < 5.0
    assert "psf side and first_zero_radius must keep the PSF's sum finite" in err


@pytest.mark.parametrize("extra, message", [
    ("inset_center_x = 2\n", "inset clear box"),
    ("microscope_side = 4\n", "psf side"),
], ids=["inset_center_x=2", "microscope_side=4"])
def test_pipeline_failing_run_creates_no_directory(tmp_path, capsys, extra, message):
    path = write_small_config(tmp_path, extra)
    err = rejected(capsys, ["pipeline", "--config", str(path), "-o", str(tmp_path / "run")])
    assert message in err
    assert "config error" in err


@pytest.mark.parametrize("sigma", [float("nan"), -1.0], ids=["nan", "-1"])
def test_bad_noise_sweep_fails_before_the_microscope_psf(tmp_path, monkeypatch, sigma):
    calls = spy(monkeypatch, scanner, "_microscope_quadrant")
    cfg = replace(load_config(write_small_config(tmp_path)), noise_sweep=(sigma,))
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="^noise_sweep: sigma must be finite and >= 0"):
        run_pipeline(cfg, out)
    assert calls == []
    assert not out.exists()


def test_bad_solve_fails_before_the_microscope_psf(tmp_path, monkeypatch):
    # the method's own solve runs before the baseline's PSF is built
    calls = spy(monkeypatch, scanner, "_microscope_quadrant")
    cfg = replace(load_config(write_small_config(tmp_path)),
                  spot_side=15, extension=6, method="inverse")
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="spectral methods need extension"):
        run_pipeline(cfg, out)
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("size", ["0", "-3"])
def test_gen_sample_rejects_bad_size_as_the_size(tmp_path, capsys, size):
    assert "size must be an integer >= 1" in rejected(
        capsys, ["gen-sample", "--pattern", "bar-grid", "--size", size,
                 "-o", str(tmp_path / "sample.ddsf")])


@pytest.mark.parametrize("profile, side", [("gaussian", "0"), ("airy", "-3")])
def test_gen_spot_rejects_bad_side_as_the_side(tmp_path, capsys, profile, side):
    assert "spot side must be an integer >= 1" in rejected(
        capsys, ["gen-spot", "--profile", profile, "--side", side,
                 "-o", str(tmp_path / "spot.ddsf")])


@pytest.mark.parametrize("radius", ["inf", "nan", "-3"])
def test_blur_rejects_bad_airy_radius(tmp_path, capsys, radius):
    sample = tmp_path / "s.ddsf"
    save_ddsf(new_image(8, 8, 1.0, 1.0), sample)
    assert "first_zero_radius must be > 0" in rejected(
        capsys, ["blur", "--sample", str(sample), "--airy-radius", radius,
                 "-o", str(tmp_path / "b.ddsf")])


def test_ddsf_with_a_bad_pitch_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "p.ddsf"
    path.write_bytes(DDSF_HEADER.pack(DDSF_MAGIC, 1, 1, float("nan")) + bytes(8))
    assert main(["compare", "--a", str(path), "--b", str(path)]) == 1
    assert capsys.readouterr().err == (
        "densescan: format error: pitch must be a positive finite value, got nan\n")


def test_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    # a stage that raises stands in for an allocation too large for the machine
    message = "Unable to allocate 74.5 GiB for an array with shape (100001, 100001)"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate", no_memory)
    assert rejected(capsys, ["gen-sample", "--pattern", "bar-grid", "--size", "100001",
                             "-o", str(tmp_path / "x.ddsf")], 1) == (
        f"densescan: out of memory: {message}\n")


# --- an output that cannot be written fails before the work -------------------------

@pytest.mark.parametrize("where, message", [
    ("nodir/x.ddsf", "[Errno 2] No such file or directory"),
    ("file/x.ddsf", "[Errno 20] Not a directory"),
], ids=["missing-directory", "under-a-file"])
def test_deconv_unwritable_output_fails_before_the_solve(tmp_path, monkeypatch, capsys,
                                                         where, message):
    inter, spot = tmp_path / "inter.ddsf", tmp_path / "spot.ddsf"
    save_ddsf(new_image(20, 20, 1.0, 1.0), inter)
    save_ddsf(make_spot(Gaussian(1.0), 5).image, spot)
    (tmp_path / "file").write_text("")
    calls = spy(monkeypatch, cli, "recover")
    out = tmp_path / where
    err = rejected(capsys, ["deconv", "--intermediate", str(inter), "--spot", str(spot),
                            "--extension", "4", "--method", "cgls", "--max-iters", "5",
                            "-o", str(out)], 1)
    assert calls == []
    assert err == f"densescan: {message}: {str(out)!r}\n"


@pytest.mark.parametrize("command", ["deconv", "gen-sample"])
def test_output_that_is_a_directory_fails_before_the_work(tmp_path, capsys, command):
    inter, spot = tmp_path / "inter.ddsf", tmp_path / "spot.ddsf"
    save_ddsf(new_image(20, 20, 1.0, 1.0), inter)
    save_ddsf(make_spot(Gaussian(1.0), 5).image, spot)
    out = tmp_path / "outdir"
    out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    args = {"deconv": ["--intermediate", str(inter), "--spot", str(spot), "--extension", "4",
                       "--method", "cgls", "--max-iters", "5"],
            "gen-sample": ["--pattern", "bar-grid", "--size", "8"]}[command]
    assert main([command, *args, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"densescan: [Errno 21] Is a directory: {str(out)!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("where, message", [
    ("file/run", "[Errno 20] Not a directory"),
    ("file/a/run", "[Errno 20] Not a directory"),
    ("file", "[Errno 17] File exists"),
], ids=["under-a-file", "deeper-under-a-file", "a-file"])
def test_pipeline_unwritable_output_fails_before_any_stage(tmp_path, monkeypatch, capsys,
                                                          where, message):
    (tmp_path / "file").write_text("")
    calls = spy(monkeypatch, cli, "build_spot")
    path = write_small_config(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / where
    assert main(["pipeline", "--config", str(path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err == f"densescan: {message}: {str(out)!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_pipeline_makes_its_missing_output_directories(tmp_path):
    out = tmp_path / "a" / "b" / "run"
    run_pipeline(load_config(write_small_config(tmp_path)), out)
    assert (out / "metrics.csv").is_file()


def test_readme_config_block_is_the_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.cfg"
    path.write_text(block)
    assert load_config(path) == PipelineConfig()
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]]
    assert keys == [f.name for f in fields(PipelineConfig)]


DEFAULT_CONFIG_TEXT = "\n".join([
    "roi_width = 300", "roi_height = 300", "pitch = 0.1", "pattern = bar-grid",
    "bar_period = 10", "bar_duty = 0.5", "pair_separation = 20", "star_spokes = 12",
    "blob_count = 5", "blob_radius = 8.0", "blob_seed = 42",
    "inset_pair_separation = 20", "inset_center_x = 75", "inset_center_y = 75",
    "inset_clear_half = 30", "spot_profile = gaussian", "spot_side = 101",
    "spot_sigma = 47.0", "spot_radius = 50.0", "step = 1", "extension = 100",
    "background = zero", "scan_method = fft", "microscope_radius = 2000.0",
    "microscope_side = 2001", "noise_sigma = 0.0", "noise_seed = 1", "noise_sweep = ",
    "method = inverse", "threshold = 1e-09", "nsr = 0.0001", "iterations = 50",
    "tolerance = 1e-10", "max_iterations = 500", "output_dir = out", "pgm_depth = 8",
]) + "\n"


def test_default_config_text_is_pinned():
    assert config_text(PipelineConfig()) == DEFAULT_CONFIG_TEXT


# --- one parser per process ----------------------------------------------------------

@pytest.mark.parametrize("profile, derived", [
    ("gaussian", Gaussian(31 / 6)),
    ("airy", AiryCore(15)),
], ids=["gaussian", "airy"])
def test_gen_spot_derived_default_does_not_leak_between_calls(tmp_path, profile, derived):
    # main reuses its parser: the --sigma/--radius the side-7 call derives must not
    # become the default of the next call, which omits them too
    small, out, ref = tmp_path / "small.ddsf", tmp_path / "spot.ddsf", tmp_path / "ref.ddsf"
    assert main(["gen-spot", "--profile", profile, "--side", "7", "-o", str(small)]) == 0
    assert main(["gen-spot", "--profile", profile, "--side", "31", "-o", str(out)]) == 0
    save_ddsf(make_spot(derived, 31, 0.1).image, ref)
    assert out.read_bytes() == ref.read_bytes()


def test_usage_error_then_valid_call(tmp_path, capsys):
    out = tmp_path / "s.ddsf"
    assert main(["gen-sample", "--pattern", "bar-grid", "-o", str(out)]) == 2
    assert "--size" in capsys.readouterr().err
    assert main(["gen-sample", "--pattern", "bar-grid", "--size", "16", "-o", str(out)]) == 0
    assert load_ddsf(out).width == 16


def test_help_twice_prints_the_same(capsys):
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("usage: densescan")


def test_second_main_call_builds_no_parser(tmp_path, monkeypatch):
    assert main(["gen-sample", "--pattern", "bar-grid", "--size", "8",
                 "-o", str(tmp_path / "a.ddsf")]) == 0
    built = spy(monkeypatch, argparse.ArgumentParser, "__init__")
    assert main(["gen-sample", "--pattern", "bar-grid", "--size", "8",
                 "-o", str(tmp_path / "b.ddsf")]) == 0
    assert built == []
