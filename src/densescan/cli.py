"""Command-line interface: pipeline steps as subcommands plus the
end-to-end simulation harness.

Exit codes: 0 success, 1 runtime or file-format error, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .deconv import (
    DeconvRequest,
    InverseFilter,
    LeastSquaresCG,
    RichardsonLucy,
    Wiener,
    recover,
)
from .grid import FormatError, Image, Rect, crop, export_pgm, load_ddsf, save_ddsf
from .metrics import CSV_HEADER, compare, two_point_contrast
from .patterns import BarGrid, PatternSpec, PointPair, RandomBlobs, SiemensStar, generate
from .psf import AiryCore, Disk, Gaussian, SpotImage, make_microscope_psf, make_spot
from .scanner import (
    Background,
    ConstantBackground,
    ScanConfig,
    ZeroBackground,
    add_noise,
    simulate_scan,
    widefield_blur,
)


class ConfigError(ValueError):
    """A pipeline config file could not be parsed or validated."""


def _parse_background(text: str) -> Background:
    if text == "zero":
        return ZeroBackground()
    if text.startswith("constant:"):
        return ConstantBackground(float(text.split(":", 1)[1]))
    raise ValueError(f"background must be 'zero' or 'constant:<level>', got {text!r}")


def _format_background(bg: Background) -> str:
    if isinstance(bg, ZeroBackground):
        return "zero"
    return f"constant:{bg.level!r}"


@dataclass
class PipelineConfig:
    """Resolved harness parameters; defaults reproduce the reference
    simulation experiment (300x300 ROI at 0.1 nm/px, 101x101 spot,
    dense scan with extension 100, inverse-filter recovery)."""

    roi_width: int = 300
    roi_height: int = 300
    pitch: float = 0.1
    pattern: str = "bar-grid"
    bar_period: int = 10
    bar_duty: float = 0.5
    pair_separation: int = 20
    star_spokes: int = 12
    blob_count: int = 5
    blob_radius: float = 8.0
    blob_seed: int = 42
    inset_pair_separation: int = 20
    inset_center_x: int = 75
    inset_center_y: int = 75
    inset_clear_half: int = 30
    spot_profile: str = "gaussian"
    spot_side: int = 101
    # sigma 47.0 keeps the spot-spectrum floor above the 1e-9 inverse
    # threshold; tests/test_deconv.py::test_default_spectral_floor_above_threshold.
    spot_sigma: float = 47.0
    spot_radius: float = 50.0
    step: int = 1
    extension: int = 100
    background: Background = field(default_factory=ZeroBackground)
    scan_method: str = "fft"
    microscope_radius: float = 2000.0
    microscope_side: int = 2001
    noise_sigma: float = 0.0
    noise_seed: int = 1
    noise_sweep: tuple[float, ...] = ()
    method: str = "inverse"
    threshold: float = 1e-9
    nsr: float = 1e-4
    iterations: int = 50
    tolerance: float = 1e-10
    max_iterations: int = 500
    output_dir: str = "out"
    pgm_depth: int = 8


_CONVERTERS = {
    "roi_width": int, "roi_height": int, "pitch": float,
    "pattern": str, "bar_period": int, "bar_duty": float,
    "pair_separation": int, "star_spokes": int,
    "blob_count": int, "blob_radius": float, "blob_seed": int,
    "inset_pair_separation": int, "inset_center_x": int,
    "inset_center_y": int, "inset_clear_half": int,
    "spot_profile": str, "spot_side": int, "spot_sigma": float, "spot_radius": float,
    "step": int, "extension": int, "background": _parse_background,
    "scan_method": str, "microscope_radius": float, "microscope_side": int,
    "noise_sigma": float, "noise_seed": int,
    "noise_sweep": lambda s: tuple(float(v) for v in s.replace(",", " ").split()),
    "method": str, "threshold": float, "nsr": float, "iterations": int,
    "tolerance": float, "max_iterations": int,
    "output_dir": str, "pgm_depth": int,
}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment).

    Unknown keys and conversion failures raise ConfigError. Keys not
    present keep their defaults.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        conv = _CONVERTERS.get(key)
        if conv is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    cfg = replace(PipelineConfig(), **overrides)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: PipelineConfig) -> None:
    if cfg.pattern not in ("bar-grid", "point-pair", "siemens-star", "random-blobs"):
        raise ConfigError(f"unknown pattern {cfg.pattern!r}")
    if cfg.spot_profile not in ("gaussian", "airy", "disk"):
        raise ConfigError(f"unknown spot profile {cfg.spot_profile!r}")
    if cfg.method not in ("inverse", "wiener", "rl", "cgls"):
        raise ConfigError(f"unknown solver method {cfg.method!r}")
    if cfg.scan_method not in ("fft", "direct", "auto"):
        raise ConfigError(f"unknown scan method {cfg.scan_method!r}")
    if cfg.pgm_depth not in (8, 16):
        raise ConfigError(f"pgm_depth must be 8 or 16, got {cfg.pgm_depth}")
    if cfg.step != 1:
        raise ConfigError("the pipeline harness requires step = 1 (dense scan)")
    for s in cfg.noise_sweep:
        if s < 0:
            raise ConfigError(f"noise_sweep sigmas must be >= 0, got {s}")


def config_text(cfg: PipelineConfig) -> str:
    """Flat key = value echo of a resolved config (reproducibility record)."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "background":
            text = _format_background(value)
        elif f.name == "noise_sweep":
            text = " ".join(repr(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def base_pattern_spec(cfg: PipelineConfig) -> PatternSpec:
    if cfg.pattern == "bar-grid":
        return BarGrid(cfg.bar_period, cfg.bar_duty)
    if cfg.pattern == "point-pair":
        return PointPair(cfg.pair_separation)
    if cfg.pattern == "siemens-star":
        return SiemensStar(cfg.star_spokes)
    return RandomBlobs(cfg.blob_count, cfg.blob_radius, cfg.blob_seed)


def inset_pair_points(cfg: PipelineConfig) -> tuple[tuple[int, int], tuple[int, int]]:
    """(x, y) coordinates of the two inset impulses, in sample pixels."""
    sep = cfg.inset_pair_separation
    x1 = cfg.inset_center_x - sep // 2
    return (x1, cfg.inset_center_y), (x1 + sep, cfg.inset_center_y)


def build_target(cfg: PipelineConfig) -> Image:
    """The harness ground truth: the base pattern, optionally with a
    cleared box holding a two-impulse resolution probe."""
    image = generate(base_pattern_spec(cfg), cfg.roi_width, cfg.roi_height, cfg.pitch)
    if cfg.inset_pair_separation <= 0:
        return image
    half = cfg.inset_clear_half
    cx, cy = cfg.inset_center_x, cfg.inset_center_y
    if cx - half < 0 or cy - half < 0 or cx + half >= cfg.roi_width or cy + half >= cfg.roi_height:
        raise ConfigError("inset clear box exceeds the canvas")
    if cfg.inset_pair_separation // 2 > half or cfg.inset_pair_separation > 2 * half:
        raise ConfigError("inset pair separation exceeds the cleared box")
    data = image.pixels.copy()
    data[cy - half : cy + half + 1, cx - half : cx + half + 1] = 0.0
    (x1, y1), (x2, y2) = inset_pair_points(cfg)
    data[y1, x1] = 1.0
    data[y2, x2] = 1.0
    return Image(data, cfg.pitch)


def build_spot(cfg: PipelineConfig) -> SpotImage:
    if cfg.spot_profile == "gaussian":
        profile = Gaussian(cfg.spot_sigma)
    elif cfg.spot_profile == "airy":
        profile = AiryCore(cfg.spot_radius)
    else:
        profile = Disk(cfg.spot_radius)
    return make_spot(profile, cfg.spot_side, cfg.pitch)


def build_request(cfg: PipelineConfig) -> DeconvRequest:
    if cfg.method == "inverse":
        return InverseFilter(cfg.threshold)
    if cfg.method == "wiener":
        return Wiener(cfg.nsr)
    if cfg.method == "rl":
        return RichardsonLucy(cfg.iterations)
    return LeastSquaresCG(cfg.tolerance, cfg.max_iterations)


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path | None = None) -> dict:
    """Run the full harness and write all artifacts.

    Emits expected/conventional/intermediate/recovered as DDSF plus PGM,
    metrics.csv (three comparisons), run_config.txt, and, when the config
    lists ``noise_sweep`` sigmas, noise_sweep.csv with one recovery row
    per sigma (each injected into the clean intermediate at the fixed
    noise seed).
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    expected = build_target(cfg)
    spot = build_spot(cfg)
    scan_cfg = ScanConfig(cfg.step, cfg.extension, cfg.background)
    clean_intermediate = simulate_scan(expected, spot, scan_cfg, cfg.scan_method)
    intermediate = clean_intermediate
    if cfg.noise_sigma > 0:
        intermediate = add_noise(clean_intermediate, cfg.noise_sigma, cfg.noise_seed)

    microscope = make_microscope_psf(cfg.microscope_radius, cfg.microscope_side, cfg.pitch)
    conventional = widefield_blur(expected, microscope)

    roi = Rect(0, 0, cfg.roi_width, cfg.roi_height)
    request = build_request(cfg)
    result = recover(intermediate, spot, roi, cfg.extension, request, cfg.background)

    images = {
        "expected": expected,
        "conventional": conventional,
        "intermediate": intermediate,
        "recovered": result.recovered,
    }
    for name, image in images.items():
        save_ddsf(image, out / f"{name}.ddsf")
        export_pgm(image, out / f"{name}.pgm", cfg.pgm_depth)

    window = Rect(cfg.extension, cfg.extension, cfg.roi_width, cfg.roi_height)
    reports = {
        "conventional_vs_expected": compare(conventional, expected),
        "intermediate_crop_vs_expected": compare(crop(intermediate, window), expected),
        "recovered_vs_expected": compare(result.recovered, expected),
    }
    with open(out / "metrics.csv", "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for label, report in reports.items():
            fh.write(report.csv_row(label) + "\n")

    sweep_reports = {}
    if cfg.noise_sweep:
        with open(out / "noise_sweep.csv", "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for sigma in cfg.noise_sweep:
                noisy = add_noise(clean_intermediate, sigma, cfg.noise_seed)
                res = recover(noisy, spot, roi, cfg.extension, request, cfg.background)
                report = compare(res.recovered, expected)
                label = f"recovered_vs_expected[sigma={sigma:g}]"
                sweep_reports[sigma] = report
                fh.write(report.csv_row(label) + "\n")

    (out / "run_config.txt").write_text(config_text(cfg))
    return {
        "out_dir": out,
        "images": images,
        "reports": reports,
        "sweep_reports": sweep_reports,
        "result": result,
    }


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_gen_sample(args: argparse.Namespace) -> int:
    if args.pattern == "bar-grid":
        spec: PatternSpec = BarGrid(args.period, args.duty)
    elif args.pattern == "point-pair":
        spec = PointPair(args.sep)
    elif args.pattern == "siemens-star":
        spec = SiemensStar(args.spokes)
    else:
        spec = RandomBlobs(args.count, args.radius, args.seed)
    image = generate(spec, args.size, args.size, args.pitch)
    save_ddsf(image, args.output)
    return 0


def _cmd_gen_spot(args: argparse.Namespace) -> int:
    if args.profile == "gaussian":
        sigma = args.sigma if args.sigma is not None else args.side / 6.0
        profile = Gaussian(sigma)
    else:
        radius = args.radius if args.radius is not None else (args.side - 1) // 2
        profile = AiryCore(radius) if args.profile == "airy" else Disk(radius)
    save_ddsf(make_spot(profile, args.side, args.pitch).image, args.output)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    sample = load_ddsf(args.sample)
    spot = SpotImage(load_ddsf(args.spot))
    config = ScanConfig(args.step, args.extension, _parse_background(args.background))
    out = simulate_scan(sample, spot, config, args.method)
    save_ddsf(out, args.output)
    return 0


def _cmd_blur(args: argparse.Namespace) -> int:
    sample = load_ddsf(args.sample)
    if args.psf is not None:
        psf = load_ddsf(args.psf)
    elif args.airy_radius is not None:
        side = args.psf_side
        if side is None:
            side = 2 * int(np.ceil(args.airy_radius)) + 1
        psf = make_microscope_psf(args.airy_radius, side, sample.pitch)
    else:
        raise ValueError("blur needs either --psf or --airy-radius")
    save_ddsf(widefield_blur(sample, psf), args.output)
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    image = load_ddsf(args.input)
    save_ddsf(add_noise(image, args.sigma, args.seed), args.output)
    return 0


def _cmd_deconv(args: argparse.Namespace) -> int:
    intermediate = load_ddsf(args.intermediate)
    spot = SpotImage(load_ddsf(args.spot))
    if args.method == "inverse":
        request: DeconvRequest = InverseFilter(args.threshold)
    elif args.method == "wiener":
        request = Wiener(args.nsr)
    elif args.method == "rl":
        request = RichardsonLucy(args.iters)
    else:
        request = LeastSquaresCG(args.tol, args.max_iters)
    width = intermediate.width - 2 * args.extension
    height = intermediate.height - 2 * args.extension
    if width < 1 or height < 1:
        raise ValueError(
            f"extension {args.extension} inconsistent with intermediate "
            f"{intermediate.width}x{intermediate.height}"
        )
    roi = Rect(0, 0, width, height)
    result = recover(intermediate, spot, roi, args.extension, request,
                     _parse_background(args.background))
    save_ddsf(result.recovered, args.output)
    if isinstance(request, (RichardsonLucy, LeastSquaresCG)):
        print(f"iterations = {result.iterations_used}")
        print(f"residual_norm = {result.residual_norm!r}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare(load_ddsf(args.a), load_ddsf(args.b))
    print(report.to_text())
    return 0


def _cmd_contrast(args: argparse.Namespace) -> int:
    image = load_ddsf(args.input)
    value = two_point_contrast(image, (args.x1, args.y1), (args.x2, args.y2))
    print(f"contrast = {value!r}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    run_pipeline(cfg, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densescan",
        description="Dense-scan imaging simulator and deconvolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-sample", help="generate a ground-truth test target")
    p.add_argument("--pattern", required=True,
                   choices=["bar-grid", "point-pair", "siemens-star", "random-blobs"])
    p.add_argument("--size", type=int, required=True, help="square canvas side, px")
    p.add_argument("--pitch", type=float, default=0.1, help="nm per pixel")
    p.add_argument("--period", type=int, default=10)
    p.add_argument("--duty", type=float, default=0.5)
    p.add_argument("--sep", type=int, default=20)
    p.add_argument("--spokes", type=int, default=12)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_sample)

    p = sub.add_parser("gen-spot", help="generate a scan spot image")
    p.add_argument("--profile", required=True, choices=["gaussian", "airy", "disk"])
    p.add_argument("--side", type=int, required=True, help="odd side, px")
    p.add_argument("--sigma", type=float, default=None, help="gaussian sigma (default side/6)")
    p.add_argument("--radius", type=float, default=None,
                   help="airy first zero / disk radius (default (side-1)/2)")
    p.add_argument("--pitch", type=float, default=0.1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_spot)

    p = sub.add_parser("scan", help="simulate a point scan")
    p.add_argument("--sample", required=True)
    p.add_argument("--spot", required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--extension", type=int, default=0)
    p.add_argument("--background", default="zero", help="zero or constant:<level>")
    p.add_argument("--method", default="auto", choices=["auto", "fft", "direct"])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("blur", help="wide-field microscope baseline")
    p.add_argument("--sample", required=True)
    p.add_argument("--psf", default=None, help="DDSF psf image")
    p.add_argument("--airy-radius", type=float, default=None,
                   help="generate an Airy PSF with this first-zero radius, px")
    p.add_argument("--psf-side", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_blur)

    p = sub.add_parser("noise", help="add seeded Gaussian noise")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("deconv", help="recover the sample from an intermediate image")
    p.add_argument("--intermediate", required=True)
    p.add_argument("--spot", required=True)
    p.add_argument("--extension", type=int, required=True)
    p.add_argument("--background", default="zero")
    p.add_argument("--method", required=True, choices=["inverse", "wiener", "rl", "cgls"])
    p.add_argument("--threshold", type=float, default=1e-9)
    p.add_argument("--nsr", type=float, default=1e-4)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_deconv)

    p = sub.add_parser("compare", help="print difference metrics of two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True, help="reference image (PSNR peak)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("contrast", help="two-point dip contrast")
    p.add_argument("--input", required=True)
    p.add_argument("--x1", type=int, required=True)
    p.add_argument("--y1", type=int, required=True)
    p.add_argument("--x2", type=int, required=True)
    p.add_argument("--y2", type=int, required=True)
    p.set_defaults(func=_cmd_contrast)

    p = sub.add_parser("pipeline", help="run the full harness from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", default=None, help="override the config output_dir")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"densescan: format error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"densescan: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"densescan: config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"densescan: invalid argument: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
