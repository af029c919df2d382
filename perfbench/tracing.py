"""Spans and counters at the layer boundaries, installed from outside.

``Tracer.install`` replaces the module attributes through which one
chident layer calls another (and the NumPy/SciPy entry points the hot
layers use) with wrappers that record a span per call: name, request
(the pass it belongs to), parent span, start and end.  Counters are kept
per request at the same boundaries.  ``uninstall`` restores the
originals.  An attribute that no longer exists is skipped, so the trace
keeps working when a later version of the package removes a boundary;
its metrics then read 0.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.sparse

from chident import data, forward, inverse, meshbasis, model
from chident import io as chio
from pipeline import median


def _save_bytes(_result, args, kwargs):
    return {"io.bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _load_bytes(_result, args, kwargs):
    return {"io.bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _steps(result, _args, _kwargs):
    return {"forward.steps": result.n_states - 1}


def _jacobian(result, _args, _kwargs):
    return {"forward.jac_nnz.max": result.nnz}


def _roots_kept(result, _args, _kwargs):
    return {"data.roots_kept": len(result)}


def _t_bytes(result, _args, _kwargs):
    return {"inverse.T_bytes.max": result.T.nbytes}


def _cg_iters(result, _args, _kwargs):
    return {"inverse.cg_iters": result.cg_iterations}


# (span name, owner, attribute, counter hook); one span name may cover
# several attributes bound to the same function.
BOUNDARIES = [
    ("forward.simulate", forward, "simulate", _steps),
    ("forward.splu", forward, "splu", None),
    ("forward.jacobian", scipy.sparse, "bmat", _jacobian),
    ("meshbasis.weighted_gram", meshbasis, "weighted_gram", None),
    ("meshbasis.weighted_gram", forward, "weighted_gram", None),
    ("meshbasis.basis_matrix", meshbasis, "basis_matrix", None),
    ("meshbasis.basis_matrix", forward, "basis_matrix", None),
    ("meshbasis.basis_matrix", data, "basis_matrix", None),
    ("meshbasis.basis_matrix", inverse, "basis_matrix", None),
    ("model.eval_matrix", model.NaturalSplineGrid, "eval_matrix", None),
    ("io.save", chio, "save_trajectory", _save_bytes),
    ("io.load", chio, "load_trajectory", _load_bytes),
    ("io.load", chio, "load_observation", _load_bytes),
    ("data.restrict", data, "restrict_to_data_grid", None),
    ("data.inject_noise", data, "inject_noise", None),
    ("data.observability_report", data, "build_observability_report", None),
    ("data.observable_range", data, "observable_range", None),
    ("data.level_crossings", data, "level_crossings", None),
    ("data.coarea", data, "coarea_coefficients", None),
    ("inverse.assemble.f", inverse, "assemble_identify_f", _t_bytes),
    ("inverse.assemble.b", inverse, "assemble_identify_b", _t_bytes),
    ("inverse.assemble.joint", inverse, "assemble_identify_joint", _t_bytes),
    ("inverse.normal_system", inverse.AssembledProblem, "normal_system", None),
    ("inverse.solve", inverse, "tikhonov_solve", _cg_iters),
    ("inverse.lcurve", inverse, "lcurve_select", None),
    ("inverse.direct", inverse, "tikhonov_solve_direct", None),
]

# counted, not timed: called tens of thousands of times per pass
COUNTED = [
    ("data.root_solves", np, "roots", None),
    ("data.root_finder", data, "_real_roots_unit", _roots_kept),
]


class Tracer:
    """In-memory spans and per-request counters."""

    def __init__(self):
        self.spans = []           # [name, request, parent, start, end]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.request = "setup"
        self.active = False
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self.request, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[3] = time.perf_counter()
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _count(self, name, hook, result, args, kwargs):
        counts = self.counts[self.request]
        counts[name] += 1
        if hook is not None:
            for key, value in hook(result, args, kwargs).items():
                if key.endswith(".max"):
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value

    def _timed(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, hook, result, args, kwargs)
            return result

        return wrapper

    def _counted(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, hook, result, args, kwargs)
            return result

        return wrapper

    def install(self):
        for table, make in ((BOUNDARIES, self._timed), (COUNTED, self._counted)):
            for name, owner, attr, hook in table:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, request):
        self.request = request
        self.install()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    # --- summaries ---------------------------------------------------------

    def totals(self, request) -> dict:
        """Busy seconds per span name, and the simulate self time."""
        out = defaultdict(float)
        child = defaultdict(float)
        for name, req, parent, start, end in self.spans:
            if req != request:
                continue
            out[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for i, (name, req, _, start, end) in enumerate(self.spans):
            if req == request and name == "forward.simulate":
                out["forward.self"] += (end - start) - child[i]
        return out

    def durations_ms(self, name, requests) -> np.ndarray:
        return np.array(
            [1e3 * (end - start) for n, req, _, start, end in self.spans
             if n == name and req in requests]
        )

    def dump(self, path):
        """Write the spans as JSON lines: name, request, parent, start, duration."""
        import json

        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, req, parent, start, end in self.spans:
                fh.write(json.dumps([name, req, parent, round(start - t0, 9),
                                     round(end - start, 9)]) + "\n")


def layer_metrics(tracer, records, reference) -> dict:
    """Per-layer busy times and counters of a traced run.

    A layer that the traced passes use reports its per-pass median over
    them.  A layer they do not use reports its figure in the run's fixed
    phases (shared input, set-up, reference check), which are the same
    on every workload, so no entry is a constant 0.
    """
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    totals = {req: tracer.totals(req) for req in [r.index for r in traced] + ["fixed"]}

    def source(span):
        used = [r.index for r in traced if tracer.counts[r.index].get(span)]
        return used or ["fixed"]

    def busy(span, key=None):
        return median([totals[req].get(key or span, 0.0) for req in source(span)])

    def count(span, key=None):
        return median([tracer.counts[req].get(key or span, 0.0) for req in source(span)])

    def pct(span, q, key=None):
        d = tracer.durations_ms(key or span, set(source(span)))
        return float(np.percentile(d, q)) if len(d) else 0.0

    sim = "forward.simulate"
    newton = count(sim, "forward.splu")
    steps = count(sim, "forward.steps")
    roots = count("data.root_solves")
    route_devs = [r.values["route_dev"] for r in traced if "route_dev" in r.values]
    return {
        "forward.simulate_s": (busy(sim), "s"),
        "forward.self_s": (busy(sim, "forward.self"), "s"),
        "forward.newton_iters": (newton, "count"),
        "forward.newton_iters_per_step": (newton / steps if steps else 0.0, "ratio"),
        "forward.splu_s": (busy(sim, "forward.splu"), "s"),
        "forward.splu_ms.p50": (pct(sim, 50, "forward.splu"), "ms"),
        "forward.splu_ms.p99": (pct(sim, 99, "forward.splu"), "ms"),
        "forward.jacobian_s": (busy(sim, "forward.jacobian"), "s"),
        "forward.jac_nnz": (count(sim, "forward.jac_nnz.max"), "count"),
        "meshbasis.weighted_gram_calls": (count("meshbasis.weighted_gram"), "count"),
        "meshbasis.weighted_gram_s": (busy("meshbasis.weighted_gram"), "s"),
        "meshbasis.basis_matrix_calls": (count("meshbasis.basis_matrix"), "count"),
        "meshbasis.basis_matrix_s": (busy("meshbasis.basis_matrix"), "s"),
        "model.mass_energy_s": (busy("model.mass_energy"), "s"),
        "model.eval_matrix_s": (busy("model.eval_matrix"), "s"),
        "io.save_s": (busy("io.save"), "s"),
        "io.load_s": (busy("io.load"), "s"),
        "io.bytes": (count("io.save", "io.bytes"), "B"),
        "data.restrict_s": (busy("data.restrict"), "s"),
        "data.inject_noise_s": (busy("data.inject_noise"), "s"),
        "data.observability_report_s": (busy("data.observability_report"), "s"),
        "data.observable_range_s": (busy("data.observable_range"), "s"),
        "data.level_crossings_calls": (count("data.level_crossings"), "count"),
        "data.level_crossings_s": (busy("data.level_crossings"), "s"),
        "data.level_crossings_ms.p50": (pct("data.level_crossings", 50), "ms"),
        "data.level_crossings_ms.p99": (pct("data.level_crossings", 99), "ms"),
        "data.root_solves": (roots, "count"),
        "data.root_yield": (
            count("data.root_solves", "data.roots_kept") / roots if roots else 0.0, "ratio"
        ),
        "data.coarea_calls": (count("data.coarea"), "count"),
        "data.coarea_s": (busy("data.coarea"), "s"),
        "inverse.assemble_s.f": (busy("inverse.assemble.f"), "s"),
        "inverse.assemble_s.b": (busy("inverse.assemble.b"), "s"),
        "inverse.assemble_s.joint": (busy("inverse.assemble.joint"), "s"),
        "inverse.T_bytes": (count("inverse.assemble.joint", "inverse.T_bytes.max"), "B"),
        "inverse.normal_system_s": (busy("inverse.normal_system"), "s"),
        "inverse.solve_s": (busy("inverse.solve"), "s"),
        "inverse.solve_ms.p50": (pct("inverse.solve", 50), "ms"),
        "inverse.solve_ms.p99": (pct("inverse.solve", 99), "ms"),
        "inverse.cg_iters": (count("inverse.solve", "inverse.cg_iters"), "count"),
        "inverse.lcurve_s": (busy("inverse.lcurve"), "s"),
        "inverse.direct_s": (busy("inverse.direct"), "s"),
        "inverse.route_dev": (
            median(route_devs) if route_devs else reference.get("route_dev", 0.0), "ratio"
        ),
        "trace.overhead_s": (
            median([r.wall for r in traced]) - median([r.wall for r in plain]), "s"
        ),
        "pass.wall_s": (median([r.wall for r in plain]), "s"),
        "pass.work_per_s": (
            sum(r.units for r in plain) / sum(r.wall for r in plain) if plain else 0.0, "1/s"
        ),
        "ref.slice_ms": (1e3 * median([r.ref for r in records]), "ms"),
    }
