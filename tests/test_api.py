"""The library half of the contract: every public name densescan exports."""

import dataclasses
import inspect

import densescan


def _members(cls) -> dict:
    # public attributes of the densescan classes in cls's MRO, dataclass fields aside
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    out = {}
    for klass in reversed(cls.__mro__):
        if not klass.__module__.startswith("densescan"):
            continue
        for name, value in vars(klass).items():
            if name.startswith("_") or name in fields:
                continue
            if isinstance(value, property):
                out[name] = "property"
            else:
                out[name] = str(inspect.signature(value)) if callable(value) else repr(value)
    return out


def library_surface(package) -> dict:
    """name -> signature or value; a class maps to (signature, fields, members)
    and an exception class to its bases."""
    surface = {}
    for name, obj in sorted(vars(package).items()):
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            surface[name] = tuple(b.__name__ for b in obj.__mro__[1:-1])
        elif inspect.isclass(obj):
            fields = ([(f.name, str(f.type)) for f in dataclasses.fields(obj)]
                      if dataclasses.is_dataclass(obj) else [])
            surface[name] = (str(inspect.signature(obj)), fields, _members(obj))
        elif callable(obj) and not hasattr(obj, "__args__"):  # a union alias has __args__
            surface[name] = str(inspect.signature(obj))
        else:
            surface[name] = repr(obj)
    return surface


_RENDER_SPOT = {"render": "(self, side: 'int') -> 'np.ndarray'"}
_RENDER_PATTERN = {"render": "(self, width: 'int', height: 'int') -> 'np.ndarray'"}
_SOLVE = {"solve": "(self, op: 'ScanOperator', y: 'np.ndarray') -> "
                   "'tuple[np.ndarray, int, float]'"}

LIBRARY_SURFACE = {
    "AIRY_FIRST_ZERO": "3.8317059702",
    "AiryCore": ("(first_zero_radius: 'float') -> None",
                 [("first_zero_radius", "float")], _RENDER_SPOT),
    "Background": "densescan.scanner.ZeroBackground | densescan.scanner.ConstantBackground",
    "BarGrid": ("(period: 'int', duty: 'float') -> None",
                [("period", "int"), ("duty", "float")], _RENDER_PATTERN),
    "ConstantBackground": ("(level: 'float') -> None", [("level", "float")], {}),
    "DeconvRequest": "densescan.deconv.InverseFilter | densescan.deconv.Wiener | "
                     "densescan.deconv.RichardsonLucy | densescan.deconv.LeastSquaresCG",
    "Disk": ("(radius: 'float') -> None", [("radius", "float")], _RENDER_SPOT),
    "FormatError": ("ValueError", "Exception", "BaseException"),
    "Gaussian": ("(sigma: 'float') -> None", [("sigma", "float")], _RENDER_SPOT),
    "Image": ("(pixels: 'np.ndarray', pitch: 'float') -> None",
              [("pixels", "np.ndarray"), ("pitch", "float")],
              {"width": "property", "height": "property"}),
    "InverseFilter": ("(threshold: 'float') -> None", [("threshold", "float")], _SOLVE),
    "LeastSquaresCG": ("(tolerance: 'float', max_iterations: 'int') -> None",
                       [("tolerance", "float"), ("max_iterations", "int")], _SOLVE),
    "MetricsReport": (
        "(mean_abs: 'float', mean_signed: 'float', rmse: 'float', max_abs: 'float', "
        "psnr_db: 'float') -> None",
        [("mean_abs", "float"), ("mean_signed", "float"), ("rmse", "float"),
         ("max_abs", "float"), ("psnr_db", "float")],
        {"to_text": "(self) -> 'str'", "csv_row": "(self, comparison: 'str') -> 'str'"}),
    "PatternSpec": "densescan.patterns.PointPair | densescan.patterns.BarGrid | "
                   "densescan.patterns.SiemensStar | densescan.patterns.RandomBlobs",
    "PointPair": ("(separation: 'int') -> None", [("separation", "int")], _RENDER_PATTERN),
    "RandomBlobs": ("(count: 'int', radius: 'float', seed: 'int') -> None",
                    [("count", "int"), ("radius", "float"), ("seed", "int")], _RENDER_PATTERN),
    "RecoveryResult": (
        "(recovered: 'Image', iterations_used: 'int', residual_norm: 'float') -> None",
        [("recovered", "Image"), ("iterations_used", "int"), ("residual_norm", "float")], {}),
    "Rect": ("(x0: 'int', y0: 'int', width: 'int', height: 'int') -> None",
             [("x0", "int"), ("y0", "int"), ("width", "int"), ("height", "int")], {}),
    "RichardsonLucy": ("(iterations: 'int') -> None", [("iterations", "int")], _SOLVE),
    "ScanConfig": (
        "(step: 'int' = 1, extension: 'int' = 0, background: 'Background' = <factory>) -> None",
        [("step", "int"), ("extension", "int"), ("background", "Background")], {}),
    "SiemensStar": ("(spokes: 'int') -> None", [("spokes", "int")], _RENDER_PATTERN),
    "SpotImage": ("(image: 'Image') -> None", [("image", "Image")],
                  {"side": "property", "pixels": "property"}),
    "SpotProfile": "densescan.psf.AiryCore | densescan.psf.Gaussian | densescan.psf.Disk",
    "Wiener": ("(nsr: 'float') -> None", [("nsr", "float")], _SOLVE),
    "ZeroBackground": ("() -> None", [], {"level": "0.0"}),
    "add_noise": "(image: 'Image', sigma: 'float', seed: 'int') -> 'Image'",
    "adjoint_apply":
        "(image: 'Image', spot: 'SpotImage', roi: 'Rect', extension: 'int') -> 'Image'",
    "bessel_j1": "(x)",
    "compare": "(a: 'Image', b: 'Image') -> 'MetricsReport'",
    "crop": "(image: 'Image', window: 'Rect') -> 'Image'",
    "dft2_forward": "(field) -> 'np.ndarray'",
    "dft2_inverse": "(spectrum) -> 'np.ndarray'",
    "export_pgm": "(image: 'Image', path: 'str | Path', bit_depth: 'int' = 8) -> 'None'",
    "generate": "(spec: 'PatternSpec', width: 'int', height: 'int', pitch: 'float') -> 'Image'",
    "load_ddsf": "(path: 'str | Path') -> 'Image'",
    "make_microscope_psf":
        "(first_zero_radius: 'float', side: 'int', pitch: 'float' = 1.0) -> 'Image'",
    "make_spot": "(profile: 'SpotProfile', side: 'int', pitch: 'float' = 1.0) -> 'SpotImage'",
    "new_image": "(width: 'int', height: 'int', pitch: 'float', fill: 'float' = 0.0) -> 'Image'",
    "pad": "(image: 'Image', border: 'int', value: 'float' = 0.0) -> 'Image'",
    "recover": "(intermediate: 'Image', spot: 'SpotImage', roi: 'Rect', extension: 'int', "
               "request: 'DeconvRequest', background: 'Background' = ZeroBackground()) -> "
               "'RecoveryResult'",
    "save_ddsf": "(image: 'Image', path: 'str | Path') -> 'None'",
    "scan_dims":
        "(sample_width: 'int', sample_height: 'int', config: 'ScanConfig') -> 'tuple[int, int]'",
    "simulate_scan": "(sample: 'Image', spot: 'SpotImage', config: 'ScanConfig', "
                     "method: 'str' = 'auto') -> 'Image'",
    "two_point_contrast":
        "(image: 'Image', p1: 'tuple[int, int]', p2: 'tuple[int, int]') -> 'float'",
    "widefield_blur":
        "(sample: 'Image', microscope_psf: 'Image', method: 'str' = 'auto') -> 'Image'",
}


def test_library_surface_is_pinned():
    assert library_surface(densescan) == LIBRARY_SURFACE
