"""Batch command-line front end.

Subcommands: ``simulate`` (forward run), ``make-data`` (observation
grid + diagnostics), ``identify`` (assemble/solve/post-process),
``lcurve`` (regularization-parameter sweep), ``verify`` (invariant
suite).  ``main`` loads the configuration, makes the output directory,
runs the command, writes ``<command>_report.json`` with the configuration
echo, and prints the command's summary line with the wall time.  Exit
codes: 0 success, 1 configuration/validation error, a malformed command
line or an unreadable/unwritable path, 2 numerical failure, 3
invariant-suite failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .meshbasis import build_mesh, interpolate, quadratic_fe
from .model import PHASE_INTERVAL, NaturalSplineGrid, SplineParameter
from .forward import simulate
from .data import (
    attained_ranges, build_observability_report, inject_noise, merge_intervals,
    observable_range, restrict_to_data_grid,
)
from .inverse import (
    B_FLOOR, IDENTIFY_B, IDENTIFY_F, assemble_problem, lcurve_select,
    range_restricted_error, recover_fprime, select_indices, tikhonov_solve,
)
from .checks import conservation, run_invariant_suite
from .config import (
    LAYER_ERRORS, ConfigError, RunConfig, config_from_file, config_text, layer_rule,
    paper_preset, validate_config,
)
from . import io as chio

__all__ = ["main"]

# OSError: an input or output path that cannot be read or written
_VALIDATION_ERRORS = (ConfigError, chio.IOError_, OSError)

_SOLUTION_GRID = np.linspace(*PHASE_INTERVAL, 401)


def _load_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        cfg = config_from_file(args.config)
    elif args.preset and args.preset != "paper":
        raise ConfigError(f"unknown preset {args.preset!r}")
    else:
        cfg = paper_preset()
    if args.out:
        cfg.output.directory = args.out
    if args.seed is not None:
        cfg.data.seed = args.seed
    # the overrides bypass build_config, so check the result again
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# subcommands: each takes the loaded configuration, the parsed arguments
# and the output directory, and returns its report fields, its summary
# line and its exit code

def cmd_simulate(cfg: RunConfig, args, out: Path):
    params = cfg.model_params()
    fe = quadratic_fe(build_mesh(cfg.forward.n_cells))
    phi0 = interpolate(fe, cfg.initial_fn())
    traj = simulate(phi0, params, t_end=cfg.forward.t_end, tau=cfg.forward.tau)

    check = conservation(traj, params).values
    report = {
        "n_steps": traj.n_states - 1,
        "mass_initial": check["masses"][0],
        "mass_drift_max": check["mass_drift"],
        "energy_initial": check["energies"][0],
        "energy_final": check["energies"][-1],
        "max_energy_increase": check["energy_rise"],
        "energy_monotone": check["energy_monotone"],
        "solver": asdict(traj.telemetry),
        "trajectory_file": "trajectory.bin",
    }
    chio.save_trajectory(traj, out / "trajectory.bin")
    return report, (
        f"simulate: {report['n_steps']} steps, mass drift "
        f"{report['mass_drift_max']:.3e}, max energy increase "
        f"{report['max_energy_increase']:.3e}"
    ), 0


def cmd_make_data(cfg: RunConfig, args, out: Path):
    traj_path = Path(args.trajectory) if args.trajectory else out / "trajectory.bin"
    traj = chio.load_trajectory(traj_path)
    # the trajectory on disk need not come from this configuration
    with layer_rule("data.factor"):
        data = restrict_to_data_grid(traj, cfg.data.factor)
    noise = None
    if cfg.data.delta > 0.0:
        data, record = inject_noise(data, cfg.data.delta, cfg.data.seed)
        noise = asdict(record)
    params = cfg.model_params()
    report_obj = build_observability_report(
        data, params.gamma, params.F, threshold_rel=cfg.inverse.threshold,
    )
    chio.save_observation(data, out / "observation.bin")
    chio.diagnostics_csv(report_obj, out / "diagnostics.csv")
    report = {
        "provenance": data.provenance,
        "delta": data.delta,
        "interp_sup": data.interp_sup,
        "interp_l2": data.interp_l2,
        "n_times": data.n_times,
        "tau_data": data.tau_data,
        "noise": noise,
        "observation_file": "observation.bin",
        "diagnostics_file": "diagnostics.csv",
    }
    return report, (
        f"make-data: {data.n_times} snapshots on {data.basis.mesh.n_cells} cells, "
        f"provenance {data.provenance}"
    ), 0


def _selected_times(cfg: RunConfig, data) -> np.ndarray:
    if cfg.data.times is not None:
        key, times = "data.times", np.asarray(cfg.data.times, dtype=float)
    else:
        lo, hi = cfg.data.window if cfg.data.window else (0.0, float(data.times[-1]))
        key = "data.window"
        times = data.times[(data.times > max(lo, 0.0)) & (data.times <= hi + 1e-12)]
    # only here is the observation grid known
    with layer_rule(key):
        select_indices(data, times)
    return times


def _load_problem(cfg: RunConfig, args, out: Path):
    """Observation, selected times, model and assembled problem."""
    obs_path = Path(args.observation) if args.observation else out / "observation.bin"
    data = chio.load_observation(obs_path)
    params = cfg.model_params()
    times = _selected_times(cfg, data)
    problem = assemble_problem(
        cfg.inverse.kind, data, params, times, NaturalSplineGrid(cfg.inverse.sigma)
    )
    return data, times, params, problem


def _range_masks(data, times, params, threshold):
    """Union of attained and observable ranges over the selected times."""
    attained = merge_intervals(attained_ranges(data, times))
    observable = merge_intervals(
        iv
        for ivs in observable_range(data, params.gamma, params.F, times, threshold_rel=threshold)
        for iv in ivs
    )
    return attained, observable


def _mask_of(intervals, s_grid):
    mask = np.zeros(len(s_grid), dtype=bool)
    for a, b in intervals:
        mask |= (s_grid >= a) & (s_grid <= b)
    return mask


def cmd_identify(cfg: RunConfig, args, out: Path):
    data, times, params, problem = _load_problem(cfg, args, out)
    grid = problem.grid

    if cfg.inverse.alpha is None:
        alpha, lcurve = lcurve_select(problem, cfg.inverse.alpha_grid)
        chio.lcurve_csv(lcurve, out / "lcurve.csv")
    else:
        alpha = cfg.inverse.alpha
    sol = tikhonov_solve(problem, alpha)

    attained, observable = _range_masks(data, times, params, cfg.inverse.threshold)
    kind = cfg.inverse.kind
    truth_fprime = lambda s: params.f(s, 1)

    results = {}
    files = []

    def emit(tag, recon, truth, intervals, knots_of=None):
        mask = _mask_of(intervals, _SOLUTION_GRID)
        path = out / f"solution_{tag}.csv"
        chio.solution_csv(
            path, _SOLUTION_GRID, truth(_SOLUTION_GRID), recon(_SOLUTION_GRID), mask
        )
        files.append(path.name)
        results[f"error_{tag}"] = range_restricted_error(recon, truth, intervals)
        spline = recon if knots_of is None else knots_of
        if spline is not None:
            chio.parameter_csv(
                out / f"knots_{tag}.csv", spline.grid.knots, spline.values
            )
            files.append(f"knots_{tag}.csv")

    if kind == IDENTIFY_F:
        c_sol = SplineParameter(grid, sol.coefficients, name="c")
        fprime = recover_fprime(c_sol, params.b)
        emit("fprime", fprime, truth_fprime, attained)
        results["error_c"] = range_restricted_error(c_sol, params.c, attained)
    elif kind == IDENTIFY_B:
        b_sol = SplineParameter(grid, sol.coefficients, name="b")
        emit("b", b_sol, params.b, observable or attained)
    else:
        b_vals, c_vals = problem.split(sol.coefficients)
        b_sol = SplineParameter(grid, b_vals, name="b")
        c_sol = SplineParameter(grid, c_vals, name="c")
        emit("b", b_sol, params.b, attained)
        # plot/score f' as the pointwise quotient: knots outside the
        # identified range carry no data, so dividing spline values there
        # can hit non-positive mobility; the guarded quotient agrees with
        # c/b wherever the range mask is set
        quotient = lambda s: c_sol(s) / np.clip(b_sol(s), B_FLOOR, None)
        emit("fprime", quotient, truth_fprime, attained, knots_of=c_sol)

    sf = problem.standard_form()
    sv = sf.s
    report = {
        "kind": kind,
        "alpha": alpha,
        "alpha_selection": "fixed" if cfg.inverse.alpha is not None else "lcurve",
        "times_used": [float(t) for t in times],
        "residual_norm": sol.residual_norm,
        "solution_norm": sol.solution_norm,
        # data misfit no coefficients reach, null directions counted
        "rho0": sf.rho0,
        "singular_values": sv.tolist(),
        # sum of the filter factors s^2 / (s^2 + alpha) of the solve
        "effective_rank": float(np.sum(sv**2 / (sv**2 + alpha))),
        "delta": data.delta,
        "provenance": data.provenance,
        "attained_range": [list(iv) for iv in attained],
        "observable_range": [list(iv) for iv in observable],
        "files": files,
        **results,
    }
    err_bits = ", ".join(f"{k} = {v:.4f}" for k, v in results.items())
    return report, f"identify ({kind}): alpha {alpha:.3e}, {err_bits}", 0


def cmd_lcurve(cfg: RunConfig, args, out: Path):
    *_, problem = _load_problem(cfg, args, out)
    alpha, curve = lcurve_select(problem, cfg.inverse.alpha_grid)
    chio.lcurve_csv(curve, out / "lcurve.csv")
    report = {
        "kind": cfg.inverse.kind,
        "alpha_star": alpha,
        "corner_index": curve.corner_index,
        "corner_at_grid_end": curve.corner_at_grid_end,
        "n_flagged": int(np.sum(curve.flagged)),
        "lcurve_file": "lcurve.csv",
    }
    return report, f"lcurve ({cfg.inverse.kind}): corner alpha {alpha:.3e}", 0


def cmd_verify(cfg: RunConfig, args, out: Path):
    results = run_invariant_suite(cfg)
    passed = sum(r.passed for r in results)
    report = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": passed == len(results),
    }
    return (report, f"verify: {passed}/{len(results)} checks passed",
            0 if report["all_passed"] else 3)


# ---------------------------------------------------------------------------
# entrypoint

# name -> (help, command, the input path flag it adds to the common four)
COMMANDS = {
    "simulate": ("run the forward solver", cmd_simulate, None),
    "make-data": ("restrict a trajectory to the data grid", cmd_make_data, "--trajectory"),
    "identify": ("assemble and solve an identification run", cmd_identify, "--observation"),
    "lcurve": ("regularization-parameter sweep", cmd_lcurve, "--observation"),
    "verify": ("run the invariant suite", cmd_verify, None),
}


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a ConfigError, exit 1, like a malformed
    configuration; the subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="chident", description="Phase-field parameter identification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _, path_flag) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key=value configuration file")
        p.add_argument("--preset", help="built-in preset name (paper)")
        p.add_argument("--out", help="output directory (overrides output.directory)")
        p.add_argument("--seed", type=int, help="noise seed (overrides data.seed)")
        if path_flag:
            p.add_argument(path_flag, help=f"{path_flag[2:]} container path")
    return ap


def _drive(args) -> int:
    """Load, time and run one command, then write its report and summary."""
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    report, summary, code = COMMANDS[args.command][1](cfg, args, out)
    chio.write_json_report(
        out / f"{args.command.replace('-', '_')}_report.json",
        {"config": cfg.as_dict(), "config_text": config_text(cfg), **report},
    )
    print(f"{summary}  [{time.perf_counter() - t0:.1f}s]")
    return code


def main(argv=None) -> int:
    try:
        return _drive(build_parser().parse_args(argv))
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LAYER_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
