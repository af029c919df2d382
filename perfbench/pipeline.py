"""The three benchmark workloads and their closed loop, on chident's public API.

Every call into the package goes through a module attribute
(``forward.simulate``, ``data.level_crossings`` ...) at call time, so the
tracer in ``tracing.py`` can wrap those attributes without any edit to
the package.  A pass does a fixed amount of work on fixed inputs and
checks its outputs; ``Tally`` counts every public call and every check
it makes, and a failure never escapes a pass.  ``run_passes`` runs one
workload's passes back to back, one caller, for a given time.
"""

from __future__ import annotations

import gc
import inspect
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from reference import SegmentClock

from chident import config, data, forward, inverse, meshbasis, model
from chident import io as chio

DELTA = 1e-3              # noise level of the shared observation
# Pass sizes: a 20 s run holds about 7 (diagnose) to 35 (forward) passes.
# Passes are timed in segments against the reference kernel
# (reference.SegmentClock), each segment one or a few public calls.
FORWARD_STEPS = 25        # forward: the first 25 steps of the paper run
RANGE_STRIDE = 40         # diagnose: ranges at every 40th window time (5 of 200)
REF_SLICES = 4            # reference-kernel slices (about 8 ms each) per segment
REFERENCE_ALPHA = {"f": 1e-10, "b": 1e-6, "joint": 1e-9}
ERROR_LIMIT = {"f": 0.10, "b": 0.10, "joint": 0.15}     # criteria 07-09
MASS_DRIFT_LIMIT = 1e-10                                 # criterion 01
ENERGY_RISE_LIMIT = 1e-10                                # criterion 02
LEVELS_PER_RANGE = inspect.signature(data.observable_range).parameters[
    "n_levels"
].default

TRAJECTORY_FILE = "trajectory.bin"
OBSERVATION_FILE = "observation.bin"


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


class PassAborted(Exception):
    """A counted call raised; the rest of the pass is skipped."""


@dataclass
class Tally:
    """Operations attempted and failed: public calls and output checks."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the pass boundary must keep running
            self.failed += 1
            self.notes.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            raise PassAborted from exc

    def check(self, name: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {name}")
        return bool(ok)


@dataclass
class Inputs:
    """What set-up hands to the timed passes."""

    cfg: config.RunConfig
    params: model.ModelParams
    trajectory: object = None      # diagnose: the shared forward run
    observation: object = None     # invert: the shared noisy observation
    times: np.ndarray | None = None


def window_times(obs) -> np.ndarray:
    """Observation times in the paper window (0, 0.008]."""
    lo, hi = config.paper_preset().data.window
    t = obs.times
    return t[(t > max(lo, 0.0)) & (t <= hi + 1e-12)]


def make_shared_inputs(workdir: Path, seed: int, ops: Tally, span):
    """Paper-preset run over the window, restricted and perturbed once.

    Writes both containers into ``workdir``, checks the run (criteria
    01-02) and the trajectory container's round trip, and returns the
    noisy observation.  Deterministic except for the noise, which depends
    only on ``seed``.
    """
    cfg = config.paper_preset()
    params = cfg.model_params()
    fe = meshbasis.quadratic_fe(meshbasis.build_mesh(cfg.forward.n_cells))
    phi0 = meshbasis.interpolate(fe, cfg.initial_fn())
    traj = forward.simulate(phi0, params, t_end=cfg.data.window[1], tau=cfg.forward.tau)
    check_conservation(traj, params, ops, span)
    chio.save_trajectory(traj, workdir / TRAJECTORY_FILE)
    back = chio.load_trajectory(workdir / TRAJECTORY_FILE)
    ops.check(
        "trajectory container round trip",
        np.array_equal(back.phi, traj.phi) and np.array_equal(back.mu, traj.mu),
    )
    obs = data.restrict_to_data_grid(traj, cfg.data.factor)
    noisy, _ = data.inject_noise(obs, DELTA, seed)
    chio.save_observation(noisy, workdir / OBSERVATION_FILE)
    return noisy


def check_conservation(traj, params, ops: Tally, span) -> None:
    """Mass and energy series of a run, checked against criteria 01-02."""

    def series(fn):
        return np.array([fn(traj.phi_field(k)) for k in range(traj.n_states)])

    with span("model.mass_energy"):
        masses = ops.call(series, model.mass)
        energies = ops.call(series, lambda phi: model.energy(phi, params))
    drift = float(np.max(np.abs(masses - masses[0])))
    rise = float(np.max(np.diff(energies)))
    ops.check(f"mass drift {drift:.2e} <= {MASS_DRIFT_LIMIT:g}", drift <= MASS_DRIFT_LIMIT)
    ops.check(f"energy rise {rise:.2e} <= {ENERGY_RISE_LIMIT:g}", rise <= ENERGY_RISE_LIMIT)


def prepare(workload: str, workdir: Path) -> Inputs:
    """Build the paper config and load the workload's input container."""
    cfg = config.paper_preset()
    inputs = Inputs(cfg, cfg.model_params())
    if workload == "diagnose":
        inputs.trajectory = chio.load_trajectory(workdir / TRAJECTORY_FILE)
    elif workload == "invert":
        inputs.observation = chio.load_observation(workdir / OBSERVATION_FILE)
        inputs.times = window_times(inputs.observation)
    return inputs


# --- shared pieces of the invert path -------------------------------------


def assemble(kind: str, obs, times, params, ops: Tally):
    gamma = params.gamma
    grid = model.param_grid()
    if kind == "f":
        return ops.call(inverse.assemble_identify_f, obs, gamma, params.b, times, grid)
    if kind == "b":
        return ops.call(inverse.assemble_identify_b, obs, gamma, params.F, times, grid)
    return ops.call(inverse.assemble_identify_joint, obs, gamma, times, grid)


def recon_error(kind: str, problem, coefficients, params, attained) -> float:
    """Range-restricted relative error as in criteria 07-09.

    For the joint problem the larger of the b and f' errors.
    """
    grid = problem.grid
    fprime = lambda s: params.f(s, 1)
    if kind == "f":
        c_sol = model.SplineParameter(grid, coefficients, name="c")
        rec = inverse.recover_fprime(c_sol, params.b)
        return inverse.range_restricted_error(rec, fprime, attained)
    if kind == "b":
        b_sol = model.SplineParameter(grid, coefficients, name="b")
        return inverse.range_restricted_error(b_sol, params.b, attained)
    b_vals, c_vals = problem.split(coefficients)
    b_sol = model.SplineParameter(grid, b_vals, name="b")
    c_sol = model.SplineParameter(grid, c_vals, name="c")
    quotient = lambda s: c_sol(s) / np.clip(b_sol(s), 1e-8, None)
    return max(
        inverse.range_restricted_error(b_sol, params.b, attained),
        inverse.range_restricted_error(quotient, fprime, attained),
    )


def attained_union(obs, times, ops: Tally):
    return ops.call(
        data.merge_intervals, [data.attained_range(obs, t) for t in times]
    )


def coarea_defect(report, params) -> float:
    """Median co-area residual against the true b and c = b f'."""
    res = report.residual(params.b, lambda s: params.b(s) * params.f(s, 1))
    return float(np.median(res)) if len(res) else float("nan")


def solve_kind(kind, obs, times, params, attained, ops: Tally, alphas=None):
    """Reference-alpha solve, optional L-curve, and the direct cross-check.

    Returns (recon error, CG-versus-direct deviation, number of solves).
    The deviation is recorded, not gated: at alpha = 1e-10 it is about
    3e-7, above criterion 11's 1e-10.
    """
    alpha = REFERENCE_ALPHA[kind]
    problem = assemble(kind, obs, times, params, ops)
    sol = ops.call(inverse.tikhonov_solve, problem, alpha)
    err = recon_error(kind, problem, sol.coefficients, params, attained)
    if alphas is not None:
        ops.call(inverse.lcurve_select, problem, alphas, threads=1)
    direct = ops.call(inverse.tikhonov_solve_direct, problem, alpha)
    ops.check(
        f"recon_error.{kind} {err:.4f} <= {ERROR_LIMIT[kind]}", err <= ERROR_LIMIT[kind]
    )
    ops.check(
        f"{kind}: both solver routes return finite coefficients",
        np.all(np.isfinite(sol.coefficients)) and np.all(np.isfinite(direct.coefficients)),
    )
    dev = float(
        np.linalg.norm(sol.coefficients - direct.coefficients)
        / np.linalg.norm(direct.coefficients)
    )
    return err, dev, 2 + (len(alphas) if alphas is not None else 0)


def reference_accuracy(obs, params, ops: Tally) -> dict:
    """Accuracy figures of the shared observation, computed untimed.

    Every workload reports them, so a change to any layer that moves the
    pipeline's accuracy shows on every workload.  The L-curve of
    identify-f runs here too, so that every inverse entry point has run
    once before any pass is timed.
    """
    times = window_times(obs)
    attained = attained_union(obs, times, ops)
    out = {"route_dev": 0.0}
    for kind in REFERENCE_ALPHA:
        alphas = inverse.default_alpha_grid() if kind == "f" else None
        err, dev, _ = solve_kind(kind, obs, times, params, attained, ops, alphas)
        out[f"recon_error.{kind}"] = err
        out["route_dev"] = max(out["route_dev"], dev)
    report = ops.call(
        data.build_observability_report, obs, params.gamma, params.F,
        threshold_rel=config.paper_preset().inverse.threshold,
    )
    out["coarea_defect"] = coarea_defect(report, params)
    return out


# --- the passes ---------------------------------------------------------------


@dataclass
class PassResult:
    units: int                       # workload units completed
    values: dict = field(default_factory=dict)


def forward_pass(inputs: Inputs, ctx) -> PassResult:
    """`chident simulate --preset paper`, cut to its first FORWARD_STEPS steps."""
    cfg, params, ops = inputs.cfg, inputs.params, ctx.ops
    fe = ops.call(meshbasis.quadratic_fe, meshbasis.build_mesh(cfg.forward.n_cells))
    phi0 = ops.call(meshbasis.interpolate, fe, cfg.initial_fn())
    tau = cfg.forward.tau
    traj = ops.call(
        forward.simulate, phi0, params, t_end=FORWARD_STEPS * tau, tau=tau
    )
    ctx.split()
    check_conservation(traj, params, ops, ctx.span)
    ops.call(chio.save_trajectory, traj, ctx.workdir / "forward_pass.bin")
    return PassResult(traj.n_states - 1)


def diagnose_pass(inputs: Inputs, ctx) -> PassResult:
    """Data layer of `make-data` and `identify`: restrict, noise, diagnostics."""
    cfg, params, ops = inputs.cfg, inputs.params, ctx.ops
    gamma, threshold = params.gamma, cfg.inverse.threshold
    obs = ops.call(data.restrict_to_data_grid, inputs.trajectory, cfg.data.factor)
    noisy, _ = ops.call(data.inject_noise, obs, DELTA, ctx.seed)
    report = ops.call(
        data.build_observability_report, noisy, gamma, params.F, threshold_rel=threshold
    )
    ctx.split()
    range_times = window_times(noisy)[::RANGE_STRIDE]
    attained, observable = [], []
    for t in range_times:
        attained.append(ops.call(data.attained_range, noisy, t))
        observable.append(
            ops.call(data.observable_range, noisy, gamma, params.F, t, threshold_rel=threshold)
        )
        ctx.split()
    ops.check(
        "noise realization matches the shared observation",
        np.array_equal(noisy.coef, ctx.shared.coef),
    )
    ops.check(
        "observable levels lie inside the attained range",
        all(
            lo - 1e-12 <= a <= b <= hi + 1e-12
            for (lo, hi), ivs in zip(attained, observable)
            for a, b in ivs
        ),
    )
    ops.check("co-area defect is finite", np.isfinite(coarea_defect(report, params)))
    units = len(report.rows) + LEVELS_PER_RANGE * (len(report.times) + len(range_times))
    return PassResult(units)


def invert_pass(inputs: Inputs, ctx) -> PassResult:
    """identify-f, -b and -joint: reference solve, L-curve, direct cross-check."""
    obs, times, params, ops = inputs.observation, inputs.times, inputs.params, ctx.ops
    alphas = inverse.default_alpha_grid()
    solves, route_dev = 0, 0.0
    attained = attained_union(obs, times, ops)
    for kind in REFERENCE_ALPHA:
        ctx.split()
        _, dev, n = solve_kind(kind, obs, times, params, attained, ops, alphas)
        solves += n
        route_dev = max(route_dev, dev)
    return PassResult(solves, {"route_dev": route_dev})


PASSES = {"forward": forward_pass, "diagnose": diagnose_pass, "invert": invert_pass}

UNIT_NAMES = {
    "forward": "time steps",
    "diagnose": "(time, level) evaluations",
    "invert": "Tikhonov solves",
}


# --- the closed loop ----------------------------------------------------------


class PassContext:
    """What a pass needs besides its inputs."""

    def __init__(self, ops, workdir, seed, tracer):
        self.ops = ops
        self.workdir = workdir
        self.seed = seed
        self.shared = None         # the shared noisy observation
        self.clock = None          # the SegmentClock of the timed passes
        self._tracer = tracer

    def split(self):
        """Close a timed segment of the running pass (a no-op outside the loop)."""
        if self.clock is not None:
            self.clock.split()

    def span(self, name):
        """A benchmark-side span, recorded only while the tracer is installed."""
        if self._tracer is None or not self._tracer.active:
            return nullcontext()
        return self._tracer.span(name)


@dataclass
class PassRecord:
    index: int
    traced: bool
    wall: float                 # seconds, the sum of the pass's segments
    wall_ref: float             # the same in reference slices (SegmentClock)
    ref: float                  # median reference seconds per slice in the pass
    units: int
    values: dict = field(default_factory=dict)


def run_passes(pass_fn, inputs, ctx, seconds, tracer) -> list:
    """Closed loop of identical passes; a traced run alternates plain and traced."""
    ctx.clock = clock = SegmentClock(REF_SLICES)
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        gc.collect()  # every pass starts from the same heap state
        clock.start()
        try:
            if traced:
                with tracer.installed(i):
                    result = pass_fn(inputs, ctx)
            else:
                result = pass_fn(inputs, ctx)
        except PassAborted:
            result = None
        except Exception as exc:  # a pass must never end the run
            ctx.ops.attempted += 1
            ctx.ops.failed += 1
            ctx.ops.notes.append(f"pass {i}: {exc!r}")
            result = None
        wall, wall_ref, ref = clock.stop()
        if result is not None:
            records.append(
                PassRecord(i, traced, wall, wall_ref, ref, result.units, result.values)
            )
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or i >= 2):
            ctx.clock = None
            return records


def working_sets() -> str:
    """Computed sizes of the arrays the workloads sweep (all fit in L3)."""
    cfg = config.paper_preset()
    dof = 2 * cfg.forward.n_cells                       # quadratic FE
    states = FORWARD_STEPS + 1
    obs_dof = cfg.forward.n_cells // cfg.data.factor    # cubic spline
    n_win = round(cfg.data.window[1] / (cfg.data.factor * cfg.forward.tau))
    cols = 2 * model.param_grid().n_knots
    return (
        f"working sets: forward-pass trajectory {states * 2 * dof * 8 / 1e6:.2f} MB "
        f"({states} states x 2 fields x {dof} dof x 8 B), Newton matrix "
        f"{2 * dof} x {2 * dof} sparse; shared trajectory "
        f"{(n_win * cfg.data.factor + 1) * 2 * dof * 8 / 1e6:.2f} MB; joint T "
        f"{n_win * obs_dof * cols * 8 / 1e6:.2f} MB ({n_win * obs_dof} x {cols} x 8 B)"
    )
