"""Span recording for the traced benchmark run.

A :class:`Tracer` wraps the public densescan names that ``densescan.cli``
and the workloads call. While an op is traced, each call records a
span (op id, span id, parent span id, name, start, end, attributes); the
op itself is the root span ``op``. Outside a traced op the original
functions are back in place. A tracer built with ``only`` wraps just those
names; the benchmark times the checked solve of every op that way.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
from collections import Counter

# Public names recorded, by home module. Each is wrapped in its home module
# (the workloads call it there) and in densescan.cli, which imports
# it by name.
TRACED = {
    "cli": ("main", "run_pipeline"),
    "patterns": ("generate",),
    "psf": ("make_spot", "make_microscope_psf"),
    "scanner": ("simulate_scan", "widefield_blur", "add_noise"),
    "deconv": ("recover",),
    "grid": ("save_ddsf", "load_ddsf", "export_pgm"),
    "metrics": ("compare",),
}

_SOLVERS = {"InverseFilter": "inverse", "Wiener": "wiener",
            "RichardsonLucy": "rl", "LeastSquaresCG": "cgls"}

# Layers reported as per-op busy time (inclusive span duration).
BUSY_LAYERS = (
    "psf.make_microscope_psf", "scanner.widefield_blur",
    "scanner.simulate_scan.fft", "scanner.simulate_scan.direct",
    "scanner.simulate_scan.auto",
    "deconv.recover.inverse", "deconv.recover.wiener",
    "grid.save_ddsf", "grid.load_ddsf", "grid.export_pgm",
    "patterns.generate", "psf.make_spot", "scanner.add_noise", "metrics.compare",
)
# Layers that call other traced layers, reported as self time.
SELF_LAYERS = ("cli.main", "cli.run_pipeline")


def _arg(args, kwargs, index, key, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _span_name(name: str, args, kwargs) -> str:
    # The scan path and the solver family are what the layer metrics
    # separate, so they become part of the span name.
    if name == "scanner.simulate_scan":
        return f"{name}.{_arg(args, kwargs, 3, 'method', 'auto')}"
    if name == "deconv.recover":
        kind = type(_arg(args, kwargs, 4, "request")).__name__
        return f"{name}.{_SOLVERS.get(kind, kind)}"
    return name


def _attrs(name: str, args, kwargs, result) -> dict:
    if name == "deconv.recover":
        return {"iterations": result.iterations_used}
    if name in ("grid.save_ddsf", "grid.export_pgm"):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    return {}


class Tracer:
    """Records spans of traced ops in memory; see :meth:`op`.

    ``only``, if given, is the set of names (``"deconv.recover"``) to wrap.
    """

    def __init__(self, only=None) -> None:
        self.spans: list[list] = []  # [op, id, parent, name, start, end, attrs]
        self._stack: list[int] = []
        self._op = None
        cli = sys.modules["densescan.cli"]
        self._patches = []
        for home, names in TRACED.items():
            module = sys.modules[f"densescan.{home}"]
            for attr in names:
                if only is not None and f"{home}.{attr}" not in only:
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(f"{home}.{attr}", original)
                for target in {module, cli}:
                    if getattr(target, attr, None) is original:
                        self._patches.append((target, attr, original, wrapper))

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._op, len(self.spans), parent, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(_span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[6] = _attrs(name, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: install the wrappers and record the root span."""
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        self._op = op_id
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON span per line."""
        keys = ("op", "id", "parent", "name", "start", "end", "attrs")
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                rec = dict(zip(keys, span))
                rec["start"] -= t0
                rec["end"] -= t0
                fh.write(json.dumps(rec) + "\n")


def per_op(spans) -> dict[int, dict]:
    """Per traced op id: root duration and, per span name, call count, busy
    time, self time (duration minus child spans), solver iterations and
    bytes written."""
    child = Counter()
    for _, sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    ops: dict = {}
    for op, sid, parent, name, start, end, attrs in spans:
        o = ops.setdefault(op, {"dur": 0.0, "calls": Counter(), "busy": Counter(),
                                "self": Counter(), "iters": Counter(), "bytes": 0})
        dur = end - start
        if parent is None:
            o["dur"] = dur
        o["calls"][name] += 1
        o["busy"][name] += dur
        o["self"][name] += dur - child[sid]
        o["iters"][name] += attrs.get("iterations", 0)
        o["bytes"] += attrs.get("bytes", 0)
    return ops


def layer_metrics(ops: list[dict], overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}, each the median over ops."""
    def med(values):
        return float(statistics.median(values))

    out = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.s"] = (med(o["busy"][layer] for o in ops), "s")
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (med(o["self"][layer] for o in ops), "s")
    for solver in ("rl", "cgls"):
        name = f"deconv.recover.{solver}"
        out[f"deconv.{solver}.iter_s"] = (
            med(o["busy"][name] / o["iters"][name] if o["iters"][name] else 0.0
                for o in ops), "s")
    out["deconv.cgls.iters"] = (med(o["iters"]["deconv.recover.cgls"] for o in ops), "count")
    out["grid.bytes_written"] = (med(o["bytes"] for o in ops), "B")
    out["trace.uncovered_frac"] = (med(o["self"]["op"] / o["dur"] for o in ops), "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def closure_error(ops: list[dict]) -> float:
    """Largest |sum of self times - root duration| over ops, in seconds.

    Self times partition the root span, so this is rounding only."""
    return max(abs(sum(o["self"].values()) - o["dur"]) for o in ops)
