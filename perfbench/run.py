#!/usr/bin/env python3
"""Benchmark for densescan, run from the repository root.

    python3 perfbench/run.py --workload pipeline_default --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in its own process as one closed-loop client with one
op in flight. The program is imported from ``src/`` next to this
directory and receives only the inputs the workload generates from
``--seed``. What the outputs are checked against is computed first,
untimed. Set-up (input generation and one untimed warm-up op per distinct
input) is then repeated SETUP_ROUNDS times; ``setup_s`` is the import time plus the
median round. The timed phase runs ops for ``--seconds`` and verifies
each one.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops on the same inputs, writes the spans to ``.perfbench/spans/`` and
prints the per-layer metrics. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a record with
the environment goes to ``.perfbench/results/``.

``--smoke`` runs one untraced and one traced op per workload and checks
that the emitted metric names are exactly those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_program() -> float:
    """Import densescan from ROOT/src; return the import time in seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import densescan.cli  # noqa: F401  (numpy comes with it)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import densescan from {src}: {exc}")
    elapsed = time.perf_counter() - t0
    import densescan
    if Path(densescan.__file__).resolve().parent != (src / "densescan").resolve():
        sys.exit(f"perfbench: densescan was imported from {densescan.__file__}, not {src}")
    return elapsed


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "fft": "numpy.fft (pocketfft), one thread",
    }


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _mean_of_key_medians(pairs) -> float:
    """Mean over input keys of the median value per key, for (key, value)
    pairs; each distinct input weighs the same however often it ran."""
    by_key: dict = {}
    for key, value in pairs:
        by_key.setdefault(key, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_key.values()) if by_key else 0.0


def measure(workload_cls, seed: int, seconds: float, traced: bool, rounds: int,
            import_s: float, workdir: Path) -> dict:
    """Set up ``rounds`` times, then run ops for ``seconds``."""
    from spans import Tracer, closure_error, layer_metrics, per_op
    from workloads import Outcome

    problems = []
    workdir.mkdir(parents=True)
    workload = workload_cls(seed, workdir)  # untimed: the reference outputs
    setups = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        # One warm-up op per distinct input, so that set-up time does not
        # depend on which input the seed puts first.
        for n in range(workload.INPUTS):
            t0 = time.perf_counter()
            ran = workload.run(n)
            elapsed += time.perf_counter() - t0
            warm = workload.check(n, ran)
            if not warm.ok:
                problems.append(f"warm-up op {n}: {warm.problem}")
        setups.append(elapsed)

    # Every op runs under a tracer: traced ops under the full one, the
    # others under one that times only the checked solve. With tracing on,
    # ops alternate untraced and traced on the same input sequence.
    full = Tracer() if traced else None
    light = Tracer(only=("deconv.recover",))
    records = []  # (traced, op seconds, Outcome)
    start = time.perf_counter()
    i = 0
    while True:
        traced_op = traced and i % 2 == 1
        n = i // 2 if traced else i
        t0 = time.perf_counter()
        try:
            with (full if traced_op else light).op(i):
                ran = workload.run(n)
            dt = time.perf_counter() - t0
            outcome = workload.check(n, ran)
        except Exception as exc:  # a failed op is counted, not fatal
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(False, problem=f"{type(exc).__name__}: {exc}")
        records.append((traced_op, dt, outcome))
        if not outcome.ok:
            problems.append(f"op {i}: {outcome.problem}")
        i += 1
        if time.perf_counter() - start >= seconds and (not traced or i >= 2):
            break
    elapsed = time.perf_counter() - start

    solves = per_op(light.spans)
    plain = [(i, dt, o) for i, (t, dt, o) in enumerate(records) if not t]
    checked = [(o.key, solves[i]) for i, _, o in plain if o.ok]
    wrong = [(i, s["calls"][workload_cls.SOLVE]) for i, s in solves.items()
             if s["calls"][workload_cls.SOLVE] != 1]
    if wrong:
        problems.append(f"(op, {workload_cls.SOLVE} calls) not one per op: {wrong[:5]}")
    op_p50 = _median(dt for _, dt, _ in plain)
    ok = sum(o.ok for _, _, o in records)
    result = {
        "attempted": len(records),
        "failed": len(records) - ok,
        "op_count_untraced": len(plain),
        "elapsed_s": elapsed,
        "setup_rounds_s": setups,
        "import_s": import_s,
        "end_to_end": {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "op_s.p50": (op_p50, "s"),
            "verified_frac": (ok / len(records), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "time_to_tol_s": (_mean_of_key_medians(
                (key, s["busy"][workload_cls.SOLVE]) for key, s in checked), "s"),
            "recovery_mae": (_mean_of_key_medians(
                (o.key, o.mae) for _, _, o in plain if o.ok), "a.u."),
        },
        "ops_per_s": ok / elapsed,
        "failed_frac": (len(records) - ok) / len(records),
    }
    if traced:
        ops = list(per_op(full.spans).values())
        traced_p50 = _median(dt for t, dt, _ in records if t)
        result["per_layer"] = layer_metrics(ops, traced_p50 / op_p50 - 1.0)
        result["closure_error_s"] = closure_error(ops)
        result["tracer"] = full
        if result["closure_error_s"] > 1e-6:
            problems.append(f"span self times miss the op time by {result['closure_error_s']}s")
    result["problems"] = problems[:20]
    result["correct"] = not problems
    return result


def _fmt(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(args, import_s: float) -> int:
    from workloads import WORKLOADS

    env = environment()
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                      SETUP_ROUNDS, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}"
    for line in res["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed}: {res['attempted']} ops in "
          f"{res['elapsed_s']:.3f} s, ops_per_s {res['ops_per_s']:.6g} 1/s, "
          f"failed_frac {res['failed_frac']:.4g}")
    for name, (value, unit) in res["end_to_end"].items():
        extra = f"  (n={res['op_count_untraced']})" if name == "op_s.p50" else ""
        print(f"# {name} = {value:.6g} {unit}{extra}")
    if args.trace:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        res.pop("tracer").write(spans_dir / f"{tag}.jsonl",
                                {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"# span closure error = {res['closure_error_s']:.3g} s")
        for name, (value, unit) in res["per_layer"].items():
            print(f"# {name} = {value:.6g} {unit}")
    metrics = _fmt(res["per_layer"] if args.trace else res["end_to_end"])
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in res.items() if k not in ("end_to_end", "per_layer")}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, end_to_end=_fmt(res["end_to_end"]),
                  per_layer=_fmt(res.get("per_layer", {})))
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def smoke(seed: int, import_s: float) -> int:
    """One untraced and one traced op per workload; metric names must match
    BENCHMARK.json exactly."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
    for name, cls in WORKLOADS.items():
        workdir = OUT / f"work-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            res = measure(cls, seed, 0, True, 1, import_s, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not res["correct"]:
            failures.append(f"{name}: {res['problems']}")
        for key in ("end_to_end", "per_layer"):
            emitted = {m: unit for m, (_, unit) in res[key].items()}
            if emitted != declared[key]:
                failures.append(f"{name} {key}: emitted {emitted}, declared {declared[key]}")
        print(f"# smoke {name}: {res['attempted']} ops, correct={res['correct']}")
    for line in failures:
        print(f"perfbench smoke: {line}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not failures else "failed"}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    import_s = import_program()
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(args.seed, import_s)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
