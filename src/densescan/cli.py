"""Command-line interface: pipeline steps as subcommands plus the
end-to-end simulation harness.

Exit codes: 0 success, 1 runtime or file-format error, 2 usage or
configuration error.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .deconv import InverseFilter, LeastSquaresCG, RichardsonLucy, Wiener, recover
from .grid import (FormatError, Image, Rect, _integer, _positive, crop, export_pgm,
                   load_ddsf, save_ddsf)
from .metrics import CSV_HEADER, compare, two_point_contrast
from .patterns import BarGrid, PointPair, RandomBlobs, SiemensStar, generate
from .psf import AiryCore, Disk, Gaussian, SpotImage, make_microscope_psf, make_spot
from .scanner import (
    SCAN_METHODS,
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
    # sigma 47.0 puts the spot-spectrum floor min|H|/max|H| at 1.11e-8, above the 1e-9 inverse
    # threshold; tests/test_deconv.py::test_default_spectral_floor_above_threshold.
    spot_sigma: float = 47.0
    spot_radius: float = 50.0
    step: int = 1
    extension: int = 100
    background: Background = field(
        default_factory=ZeroBackground,
        metadata={"parse": _parse_background, "format": _format_background},
    )
    scan_method: str = "fft"
    microscope_radius: float = 2000.0
    microscope_side: int = 2001
    noise_sigma: float = 0.0
    noise_seed: int = 1
    noise_sweep: tuple[float, ...] = field(default=(), metadata={
        "parse": lambda text: tuple(float(v) for v in text.replace(",", " ").split()),
        "format": lambda sigmas: " ".join(repr(v) for v in sigmas),
    })
    method: str = "inverse"
    threshold: float = 1e-9
    nsr: float = 1e-4
    iterations: int = 50
    tolerance: float = 1e-10
    max_iterations: int = 500
    output_dir: str = "out"
    pgm_depth: int = 8


# One name -> constructor table per family. A constructor reads PipelineConfig
# field names, so it takes the harness config or a subcommand's arguments, whose
# options that set a config key store under that key (see _config_option).
PATTERNS = {
    "bar-grid": lambda c: BarGrid(c.bar_period, c.bar_duty),
    "point-pair": lambda c: PointPair(c.pair_separation),
    "siemens-star": lambda c: SiemensStar(c.star_spokes),
    "random-blobs": lambda c: RandomBlobs(c.blob_count, c.blob_radius, c.blob_seed),
}
PROFILES = {
    "gaussian": lambda c: Gaussian(c.spot_sigma),
    "airy": lambda c: AiryCore(c.spot_radius),
    "disk": lambda c: Disk(c.spot_radius),
}
SOLVERS = {
    "inverse": lambda c: InverseFilter(c.threshold),
    "wiener": lambda c: Wiener(c.nsr),
    "rl": lambda c: RichardsonLucy(c.iterations),
    "cgls": lambda c: LeastSquaresCG(c.tolerance, c.max_iterations),
}

_FIELDS = {f.name: f for f in fields(PipelineConfig)}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment).

    Unknown keys and conversion failures raise ConfigError. A value is
    parsed by its field's ``parse`` metadata, else by the field's type;
    keys not present keep their defaults. Names, ``pgm_depth`` and
    ``step`` are checked here; the stages check every other value when
    :func:`run_pipeline` builds them.
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
        f = _FIELDS.get(key)
        if f is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = f.metadata.get("parse", f.type)(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    cfg = replace(PipelineConfig(), **overrides)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: PipelineConfig) -> None:
    # Only what no stage checks before the first write: the name lookups (a miss is a
    # KeyError), pgm_depth (export_pgm checks it after expected.ddsf exists) and step.
    for key, names in (("pattern", PATTERNS), ("spot_profile", PROFILES),
                       ("method", SOLVERS), ("scan_method", SCAN_METHODS)):
        if getattr(cfg, key) not in names:
            raise ConfigError(f"unknown {key} {getattr(cfg, key)!r}")
    if cfg.pgm_depth not in (8, 16):
        raise ConfigError(f"pgm_depth must be 8 or 16, got {cfg.pgm_depth}")
    if cfg.step != 1:
        raise ConfigError("the pipeline harness requires step = 1 (dense scan)")


def config_text(cfg: PipelineConfig) -> str:
    """Flat key = value echo of a resolved config (reproducibility record)."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        fmt = f.metadata.get("format", repr if isinstance(value, float) else str)
        lines.append(f"{f.name} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def _inset(cfg: PipelineConfig) -> tuple[int, int, int, int]:
    """The checked inset (separation, center x, center y, clear half-width)."""
    return (_integer("inset_pair_separation", cfg.inset_pair_separation, 0),
            _integer("inset_center_x", cfg.inset_center_x),
            _integer("inset_center_y", cfg.inset_center_y),
            _integer("inset_clear_half", cfg.inset_clear_half, 0))


def inset_pair_points(cfg: PipelineConfig) -> tuple[tuple[int, int], tuple[int, int]]:
    """(x, y) coordinates of the two inset impulses, in sample pixels."""
    sep, cx, cy, _ = _inset(cfg)
    return (cx - sep // 2, cy), (cx + sep - sep // 2, cy)


def build_target(cfg: PipelineConfig) -> Image:
    """The harness ground truth: the base pattern, optionally with a
    cleared box holding a two-impulse resolution probe."""
    image = generate(PATTERNS[cfg.pattern](cfg), cfg.roi_width, cfg.roi_height, cfg.pitch)
    sep, cx, cy, half = _inset(cfg)
    if sep == 0:
        return image
    if cx - half < 0 or cy - half < 0 or cx + half >= cfg.roi_width or cy + half >= cfg.roi_height:
        raise ConfigError("inset clear box exceeds the canvas")
    if sep > 2 * half:
        raise ConfigError("inset pair separation exceeds the cleared box")
    data = image.pixels.copy()
    data[cy - half : cy + half + 1, cx - half : cx + half + 1] = 0.0
    (x1, y1), (x2, y2) = inset_pair_points(cfg)
    data[y1, x1] = data[y2, x2] = 1.0
    return Image(data, cfg.pitch)


def build_spot(cfg: PipelineConfig) -> SpotImage:
    return make_spot(PROFILES[cfg.spot_profile](cfg), cfg.spot_side, cfg.pitch)


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path | None = None) -> dict:
    """Run the full harness and write all artifacts.

    Emits expected/conventional/intermediate/recovered as DDSF plus PGM,
    metrics.csv (three comparisons), run_config.txt, and, when the config
    lists ``noise_sweep`` sigmas, noise_sweep.csv with one recovery row
    per sigma (each injected into the clean intermediate at the fixed
    noise seed). Every stage is built and every result computed before
    the first file is written: each value is checked by the stage that
    uses it, so a bad one raises ConfigError with no output written.
    """
    _validate_config(cfg)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)

    try:
        # the cheap constructors first, so their bad values fail fast
        request = SOLVERS[cfg.method](cfg)
        spot = build_spot(cfg)

        expected = build_target(cfg)
        scan_cfg = ScanConfig(cfg.step, cfg.extension, cfg.background)
        clean_intermediate = simulate_scan(expected, spot, scan_cfg, cfg.scan_method)
        # sigma 0 returns the input; the seed is checked even then
        intermediate = add_noise(clean_intermediate, cfg.noise_sigma, cfg.noise_seed)

        roi = Rect(0, 0, cfg.roi_width, cfg.roi_height)
        # one (sigma, report) per noise_sweep entry, so a repeated sigma keeps its row
        sweep = []
        for sigma in cfg.noise_sweep:
            try:
                noisy = add_noise(clean_intermediate, sigma, cfg.noise_seed)
            except ValueError as exc:
                raise ValueError(f"noise_sweep: {exc}") from exc
            swept = recover(noisy, spot, roi, cfg.extension, request, cfg.background)
            sweep.append((sigma, compare(swept.recovered, expected)))

        microscope = make_microscope_psf(cfg.microscope_radius, cfg.microscope_side, cfg.pitch)
        conventional = widefield_blur(expected, microscope)

        result = recover(intermediate, spot, roi, cfg.extension, request, cfg.background)

        window = Rect(cfg.extension, cfg.extension, cfg.roi_width, cfg.roi_height)
        reports = {
            "conventional_vs_expected": compare(conventional, expected),
            "intermediate_crop_vs_expected": compare(crop(intermediate, window), expected),
            "recovered_vs_expected": compare(result.recovered, expected),
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    images = {
        "expected": expected,
        "conventional": conventional,
        "intermediate": intermediate,
        "recovered": result.recovered,
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, image in images.items():
        save_ddsf(image, out / f"{name}.ddsf")
        export_pgm(image, out / f"{name}.pgm", cfg.pgm_depth)
    (out / "metrics.csv").write_text(_csv_text(reports.items()))
    if sweep:
        (out / "noise_sweep.csv").write_text(_csv_text(
            (f"recovered_vs_expected[sigma={sigma:g}]", report) for sigma, report in sweep))
    (out / "run_config.txt").write_text(config_text(cfg))
    return {
        "out_dir": out,
        "images": images,
        "reports": reports,
        "sweep_reports": dict(sweep),
        "result": result,
    }


def _csv_text(rows) -> str:
    """The CSV header and a line per (label, MetricsReport) row."""
    return "".join(line + "\n" for line in [CSV_HEADER, *(r.csv_row(label) for label, r in rows)])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the image that main writes to -o, or None

def _cmd_gen_sample(args: argparse.Namespace) -> Image:
    _integer("size", args.size, 1)  # under its own name, not as generate's width
    return generate(PATTERNS[args.pattern](args), args.size, args.size, args.pitch)


def _cmd_gen_spot(args: argparse.Namespace) -> Image:
    _integer("spot side", args.spot_side, 1)  # before the defaults below derive from it
    if args.spot_sigma is None:
        args.spot_sigma = args.spot_side / 6.0
    if args.spot_radius is None:
        args.spot_radius = (args.spot_side - 1) // 2
    return build_spot(args).image


def _cmd_scan(args: argparse.Namespace) -> Image:
    sample = load_ddsf(args.sample)
    spot = SpotImage(load_ddsf(args.spot))
    config = ScanConfig(args.step, args.extension, _parse_background(args.background))
    return simulate_scan(sample, spot, config, args.scan_method)


def _cmd_blur(args: argparse.Namespace) -> Image:
    if args.psf is not None and args.microscope_side is not None:
        raise ValueError("--psf-side sizes a generated PSF; it cannot be used with --psf")
    sample = load_ddsf(args.sample)
    if args.psf is not None:
        psf = load_ddsf(args.psf)
    else:
        radius, side = args.microscope_radius, args.microscope_side
        if side is None:
            _positive("first_zero_radius", radius)  # before ceil() sees it
            side = 2 * math.ceil(radius) + 1
        psf = make_microscope_psf(radius, side, sample.pitch)
    return widefield_blur(sample, psf)


def _cmd_noise(args: argparse.Namespace) -> Image:
    return add_noise(load_ddsf(args.input), args.noise_sigma, args.noise_seed)


def _cmd_deconv(args: argparse.Namespace) -> Image:
    intermediate = load_ddsf(args.intermediate)
    spot = SpotImage(load_ddsf(args.spot))
    request = SOLVERS[args.method](args)
    ext = args.extension
    # recover, not Rect, reports an extension that leaves no sample
    roi = Rect(0, 0, max(intermediate.width - 2 * ext, 1),
               max(intermediate.height - 2 * ext, 1))
    result = recover(intermediate, spot, roi, ext, request, _parse_background(args.background))
    if isinstance(request, (RichardsonLucy, LeastSquaresCG)):
        print(f"iterations = {result.iterations_used}")
        print(f"residual_norm = {result.residual_norm!r}")
    return result.recovered


def _cmd_compare(args: argparse.Namespace) -> None:
    print(compare(load_ddsf(args.a), load_ddsf(args.b)).to_text())


def _cmd_contrast(args: argparse.Namespace) -> None:
    image = load_ddsf(args.input)
    value = two_point_contrast(image, (args.x1, args.y1), (args.x2, args.y2))
    print(f"contrast = {value!r}")


def _cmd_pipeline(args: argparse.Namespace) -> None:
    run_pipeline(load_config(args.config), args.output)  # -o names its directory


def _config_option(parser, flag: str, key: str, **kwargs) -> None:
    """Add ``flag``, stored as config key ``key`` with that field's type and default."""
    f = _FIELDS[key]
    if f.type in (int, float):
        kwargs["type"] = f.type
    if not kwargs.get("required"):
        kwargs.setdefault("default", f.default)
    if "choices" not in kwargs:
        kwargs["metavar"] = flag.lstrip("-").replace("-", "_").upper()
    parser.add_argument(flag, dest=key, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densescan",
        description="Dense-scan imaging simulator and deconvolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-sample", help="generate a ground-truth test target")
    _config_option(p, "--pattern", "pattern", required=True, choices=PATTERNS)
    p.add_argument("--size", type=int, required=True, help="square canvas side, px")
    _config_option(p, "--pitch", "pitch", help="nm per pixel")
    for flag, key in (("--period", "bar_period"), ("--duty", "bar_duty"),
                      ("--sep", "pair_separation"), ("--spokes", "star_spokes"),
                      ("--count", "blob_count"), ("--radius", "blob_radius"),
                      ("--seed", "blob_seed")):
        _config_option(p, flag, key)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_sample)

    p = sub.add_parser("gen-spot", help="generate a scan spot image")
    _config_option(p, "--profile", "spot_profile", required=True, choices=PROFILES)
    _config_option(p, "--side", "spot_side", required=True, help="odd side, px")
    _config_option(p, "--sigma", "spot_sigma", default=None,
                   help="gaussian sigma (default side/6)")
    _config_option(p, "--radius", "spot_radius", default=None,
                   help="airy first zero / disk radius (default (side-1)/2)")
    _config_option(p, "--pitch", "pitch")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_spot)

    p = sub.add_parser("scan", help="simulate a point scan")
    p.add_argument("--sample", required=True)
    p.add_argument("--spot", required=True)
    _config_option(p, "--step", "step")
    _config_option(p, "--extension", "extension", default=0)
    _config_option(p, "--background", "background", default="zero",
                   help="zero or constant:<level>")
    _config_option(p, "--method", "scan_method", default="auto", choices=SCAN_METHODS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("blur", help="wide-field microscope baseline")
    p.add_argument("--sample", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--psf", default=None, help="DDSF psf image")
    _config_option(source, "--airy-radius", "microscope_radius", default=None,
                   help="generate an Airy PSF with this first-zero radius, px")
    _config_option(p, "--psf-side", "microscope_side", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_blur)

    p = sub.add_parser("noise", help="add seeded Gaussian noise")
    p.add_argument("--input", required=True)
    _config_option(p, "--sigma", "noise_sigma", required=True)
    _config_option(p, "--seed", "noise_seed")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("deconv", help="recover the sample from an intermediate image")
    p.add_argument("--intermediate", required=True)
    p.add_argument("--spot", required=True)
    _config_option(p, "--extension", "extension", required=True)
    _config_option(p, "--background", "background", default="zero")
    _config_option(p, "--method", "method", required=True, choices=SOLVERS)
    for flag, key in (("--threshold", "threshold"), ("--nsr", "nsr"),
                      ("--iters", "iterations"), ("--tol", "tolerance"),
                      ("--max-iters", "max_iterations")):
        _config_option(p, flag, key)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_deconv)

    p = sub.add_parser("compare", help="print difference metrics of two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True, help="reference image (PSNR peak)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("contrast", help="two-point dip contrast")
    p.add_argument("--input", required=True)
    for flag in ("--x1", "--y1", "--x2", "--y2"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(func=_cmd_contrast)

    p = sub.add_parser("pipeline", help="run the full harness from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", default=None, help="override the config output_dir")
    p.set_defaults(func=_cmd_pipeline)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree ``main`` parses with, built on first use; handlers change only their namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        image = args.func(args)
        if image is not None:
            save_ddsf(image, args.output)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
