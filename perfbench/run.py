"""Benchmark of the chident paper pipeline: forward, diagnose and invert.

    python3 perfbench/run.py --workload forward --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from
``src/`` next to this directory.  Each invocation makes the shared input
(paper-preset run over the window (0, 0.008], restricted, noise seeded by
``--seed``) and checks the pipeline's accuracy on it, measures set-up
in fresh processes, then runs the workload
as a single-threaded closed loop of identical passes for ``--seconds``
seconds.  Human-readable lines come first; the last line of standard
output is one JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "slices",
    "work_per_ref": "1/slice",
    "peak_rss_mb": "MB",
    "recon_error.f": "ratio",
    "recon_error.b": "ratio",
    "recon_error.joint": "ratio",
    "coarea_defect": "ratio",
}


def cap_blas_threads() -> int:
    """One BLAS/OpenMP thread: the loop has one caller, and a second thread
    would only contend with other guests for the host's other CPU."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def tail(values: list, unit: str) -> str:
    """The highest integer percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "no percentile has >= 10 samples beyond it"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} {unit}"


def measure_setup(workload: str, workdir: Path) -> list:
    """Set-up seconds of fresh processes: import, config, input loading."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(workdir)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def cache_sizes() -> str:
    """Per-instance cache sizes of CPU 0, as the kernel reports them."""
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out.append(f"L{level} {size} (cpus {shared})")
    return ", ".join(out) or "cache sizes unknown"


def machine_record(nproc: int) -> list:
    import numpy
    import scipy

    return [
        f"machine: nproc {nproc}, {platform.machine()}, {cache_sizes()}",
        f"software: Python {platform.python_version()}, NumPy {numpy.__version__}, "
        f"SciPy {scipy.__version__}",
        "threads: " + ", ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
        + ", lcurve_select(threads=1), one caller",
    ]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("forward", "diagnose", "invert"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chident" / "__init__.py").is_file():
        print(f"perfbench: no chident package under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import pipeline
    import tracing

    t_import = time.perf_counter() - t_import
    for line in machine_record(nproc) + [pipeline.working_sets()]:
        print(line)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}; closed loop, 1 process, 1 caller")

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    tracer = tracing.Tracer() if args.trace else None
    ops = pipeline.Tally()
    ctx = pipeline.PassContext(ops, workdir, args.seed, tracer)
    try:
        # the fixed phases: the same work on every workload, traced as "fixed"
        with tracer.installed("fixed") if tracer else nullcontext():
            t0 = time.perf_counter()
            ctx.shared = pipeline.make_shared_inputs(workdir, args.seed, ops, ctx.span)
            print(f"shared input: 400-step paper run, checks, restriction, noise "
                  f"(delta {pipeline.DELTA:g}, seed {args.seed}) in "
                  f"{time.perf_counter() - t0:.2f} s (not part of any metric)")
            inputs = pipeline.prepare(args.workload, workdir)
            try:  # also the warm-up: every layer a pass uses has run once
                reference = pipeline.reference_accuracy(ctx.shared, inputs.params, ops)
            except pipeline.PassAborted:
                reference = {}
        setup_times = [] if args.trace else measure_setup(args.workload, workdir)
        records = pipeline.run_passes(
            pipeline.PASSES[args.workload], inputs, ctx, args.seconds, tracer
        )
        if tracer is not None:
            tracer.dump(WORK_ROOT / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in records if not r.traced]
    walls = sorted(r.wall for r in plain)
    unit_name = pipeline.UNIT_NAMES[args.workload]
    print(f"passes: {len(plain)} plain"
          + (f", {len(records) - len(plain)} traced" if tracer else "")
          + f"; {plain[0].units if plain else 0} {unit_name} per pass")
    print("pass walls (s): " + ", ".join(
        f"{r.wall:.4f}{'*' if r.traced else ''}" for r in records))
    print("reference slice, median per pass (ms): " + ", ".join(
        f"{1e3 * r.ref:.3f}" for r in records))
    if not args.trace:
        busy = sum(walls)
        rel = sorted(r.wall_ref for r in plain)
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)} "
              f"(in-process import {t_import:.3f} s)")
        print(f"wall_s: median {pipeline.median(walls):.4f} s of {len(walls)} passes; "
              f"{tail(walls, 's')}; work_per_s "
              f"{sum(r.units for r in plain) / busy if busy else 0.0:.4g} {unit_name}/s")
        print(f"wall_ref: median {pipeline.median(rel):.4f} of {len(rel)} passes; "
              f"{tail(rel, 'slices')}")
        values = {
            "setup_s": pipeline.median(setup_times),
            "wall_ref": pipeline.median(rel),
            "work_per_ref": sum(r.units for r in plain) / sum(rel) if rel else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **reference,
        }
        metrics = {
            name: {"value": values.get(name), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracing.layer_metrics(tracer, records, reference).items()
        }
    attempted = max(ops.attempted, 1)
    print(f"fail_ratio: {ops.failed}/{ops.attempted} = {ops.failed / attempted:.4g}")
    for note in ops.notes[:20]:
        print(f"  failure: {note}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']!s:>24} {m['unit']}")
    print(f"seed {args.seed}")
    print(json.dumps({
        "correct": ops.failed == 0 and bool(records),
        "attempted": attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
