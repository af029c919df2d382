"""Checks of the benchmark itself (about two minutes).

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced runs with one seed must give identical deterministic
counters, every run must print exactly the metrics BENCHMARK.json names,
the command must fail without printing a result where the package
sources are missing, and the reference kernel's NumPy and SciPy calls
must stay out of the trace.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = (
    "forward.newton_iters",
    "data.level_crossings_calls",
    "data.root_solves",
    "inverse.cg_iters",
)
EXERCISED = {
    "forward": "forward.newton_iters",
    "diagnose": "data.level_crossings_calls",
    "invert": "inverse.cg_iters",
}


def run(workload, seed, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _names_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_exactly(workload):
    first = run(workload, 5, trace=1)
    second = run(workload, 5, trace=1)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        assert got == _names_units("per_layer")
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"][EXERCISED[workload]]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    res = run("invert", 2, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == _names_units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("forward", 0, trace=0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_kernel_is_invisible_to_the_tracer():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import reference
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed("probe"):
        reference.ReferenceKernel().one_slice()
    assert not tracer.spans
    assert not tracer.counts["probe"]
