"""Batch command-line front end.

Subcommands: ``simulate`` (forward run), ``make-data`` (observation
grid + diagnostics), ``identify`` (assemble/solve/post-process),
``lcurve`` (regularization-parameter sweep), ``verify`` (invariant
suite).  Exit codes: 0 success, 1 configuration/validation error,
2 numerical failure, 3 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .meshbasis import (
    BasisError,
    MeshError,
    AssemblyError,
    assemble_grams,
    build_mesh,
    cubic_spline_basis,
    dual_norm_Hm1,
    interpolate,
    quadratic_fe,
)
from .model import (
    ModelError,
    ModelParams,
    NaturalSplineGrid,
    ParameterError,
    SplineParameter,
)
from .forward import (
    MobilityError,
    NewtonError,
    SolverError,
    energy_series,
    mass_series,
    simulate,
    verify_scaling_invariance,
)
from .data import (
    DataError,
    attained_range,
    attained_ranges,
    build_observability_report,
    coarea_coefficients,
    inject_noise,
    merge_intervals,
    observable_range,
    restrict_to_data_grid,
)
from .inverse import (
    IDENTIFY_B,
    IDENTIFY_F,
    IDENTIFY_JOINT,
    InverseError,
    assemble_problem,
    default_alpha_grid,
    lcurve_select,
    perturbation_scaling_probe,
    range_restricted_error,
    recover_fprime,
    tikhonov_solve,
)
from .config import (
    ConfigError,
    RunConfig,
    config_from_file,
    config_text,
    paper_preset,
)
from . import io as chio

__all__ = ["main", "run_invariant_suite"]

_VALIDATION_ERRORS = (ConfigError, chio.IOError_, FileNotFoundError)
_NUMERICAL_ERRORS = (
    SolverError, NewtonError, MobilityError, InverseError,
    DataError, ModelError, ParameterError, MeshError, BasisError,
    AssemblyError,
)

_SOLUTION_GRID = np.linspace(-1.0, 1.0, 401)


def _load_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        cfg = config_from_file(args.config)
    elif args.preset:
        if args.preset != "paper":
            raise ConfigError(f"unknown preset {args.preset!r}")
        cfg = paper_preset()
    else:
        cfg = paper_preset()
    if args.out:
        cfg.output.directory = args.out
    if args.seed is not None:
        cfg.data.seed = args.seed
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.output.directory)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _echo(cfg: RunConfig) -> dict:
    return {"config": cfg.as_dict(), "config_text": config_text(cfg)}


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out = _outdir(cfg)
    params = cfg.model_params()
    fe = quadratic_fe(build_mesh(cfg.forward.n_cells))
    phi0 = interpolate(fe, cfg.initial_fn())
    traj = simulate(phi0, params, t_end=cfg.forward.t_end, tau=cfg.forward.tau)

    masses = mass_series(traj)
    energies = energy_series(traj, params)
    increases = np.diff(energies)
    report = {
        **_echo(cfg),
        "n_steps": traj.n_states - 1,
        "mass_initial": masses[0],
        "mass_drift_max": float(np.max(np.abs(masses - masses[0]))),
        "energy_initial": energies[0],
        "energy_final": energies[-1],
        "max_energy_increase": float(np.max(increases)) if len(increases) else 0.0,
        "energy_monotone": bool(np.all(increases <= 1e-10)),
        "solver": asdict(traj.telemetry),
        "trajectory_file": "trajectory.bin",
    }
    chio.save_trajectory(traj, out / "trajectory.bin")
    chio.write_json_report(out / "simulate_report.json", report)
    wall = time.perf_counter() - t0
    print(
        f"simulate: {report['n_steps']} steps, mass drift "
        f"{report['mass_drift_max']:.3e}, max energy increase "
        f"{report['max_energy_increase']:.3e}  [{wall:.1f}s]"
    )
    return 0


def cmd_make_data(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out = _outdir(cfg)
    traj_path = Path(args.trajectory) if args.trajectory else out / "trajectory.bin"
    traj = chio.load_trajectory(traj_path)
    data = restrict_to_data_grid(traj, cfg.data.factor)
    noise = None
    if cfg.data.delta > 0.0:
        data, record = inject_noise(data, cfg.data.delta, cfg.data.seed)
        noise = {
            "delta": record.delta,
            "seed": record.seed,
            "sup_h3": record.sup_h3,
            "sup_rate_dual": record.sup_rate_dual,
            "omega": record.omega,
            "t_peak": record.t_peak,
        }
    params = cfg.model_params()
    report_obj = build_observability_report(
        data, cfg.forward.gamma, params.F,
        threshold_rel=cfg.inverse.threshold,
    )
    chio.save_observation(data, out / "observation.bin")
    chio.diagnostics_csv(report_obj, out / "diagnostics.csv")
    report = {
        **_echo(cfg),
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
    chio.write_json_report(out / "make_data_report.json", report)
    wall = time.perf_counter() - t0
    print(
        f"make-data: {data.n_times} snapshots on {data.basis.mesh.n_cells} cells, "
        f"provenance {data.provenance}  [{wall:.1f}s]"
    )
    return 0


def _selected_times(cfg: RunConfig, data) -> np.ndarray:
    if cfg.data.times is not None:
        times = np.asarray(cfg.data.times, dtype=float)
    else:
        lo, hi = cfg.data.window if cfg.data.window else (0.0, float(data.times[-1]))
        times = data.times[(data.times > max(lo, 0.0)) & (data.times <= hi + 1e-12)]
        times = times[times > 0.0]
    if len(times) == 0:
        raise ConfigError("data.window: no usable observation times selected")
    return times


def _load_problem(cfg: RunConfig, args):
    """Observation, selected times, assembled problem and alpha sweep grid."""
    out = _outdir(cfg)
    obs_path = Path(args.observation) if args.observation else out / "observation.bin"
    data = chio.load_observation(obs_path)
    params = cfg.model_params()
    grid = NaturalSplineGrid(-1.0, 1.0, cfg.inverse.sigma)
    times = _selected_times(cfg, data)
    problem = assemble_problem(
        cfg.inverse.kind, data, cfg.forward.gamma, times, grid,
        mobility=params.b, potential=params.F,
    )
    alphas = (np.asarray(cfg.inverse.alpha_grid)
              if cfg.inverse.alpha_grid else default_alpha_grid())
    return out, data, times, problem, alphas


def _range_masks(cfg: RunConfig, data, times):
    """Union of attained and observable ranges over the selected times."""
    params = cfg.model_params()
    attained = merge_intervals(attained_ranges(data, times))
    observable = merge_intervals(
        iv
        for t in times
        for iv in observable_range(
            data, cfg.forward.gamma, params.F, t, threshold_rel=cfg.inverse.threshold
        )
    )
    return attained, observable


def _mask_of(intervals, s_grid):
    mask = np.zeros(len(s_grid), dtype=bool)
    for a, b in intervals:
        mask |= (s_grid >= a) & (s_grid <= b)
    return mask


def cmd_identify(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out, data, times, problem, alphas = _load_problem(cfg, args)
    params = cfg.model_params()
    grid = problem.grid

    if cfg.inverse.alpha is None:
        alpha, lcurve = lcurve_select(problem, alphas)
        chio.lcurve_csv(lcurve, out / "lcurve.csv")
    else:
        alpha = cfg.inverse.alpha
    sol = tikhonov_solve(problem, alpha)

    attained, observable = _range_masks(cfg, data, times)
    kind = cfg.inverse.kind
    truth_b = params.b
    truth_c = lambda s: params.b(s) * params.f(s, 1)
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
        results["error_c"] = range_restricted_error(c_sol, truth_c, attained)
    elif kind == IDENTIFY_B:
        b_sol = SplineParameter(grid, sol.coefficients, name="b")
        emit("b", b_sol, truth_b, observable or attained)
    else:
        b_vals, c_vals = problem.split(sol.coefficients)
        b_sol = SplineParameter(grid, b_vals, name="b")
        c_sol = SplineParameter(grid, c_vals, name="c")
        emit("b", b_sol, truth_b, attained)
        # plot/score f' as the pointwise quotient: knots outside the
        # identified range carry no data, so dividing spline values there
        # can hit non-positive mobility; the guarded quotient agrees with
        # c/b wherever the range mask is set
        quotient = lambda s: c_sol(s) / np.clip(b_sol(s), 1e-8, None)
        emit("fprime", quotient, truth_fprime, attained, knots_of=c_sol)

    sv = problem.standard_form().s
    report = {
        **_echo(cfg),
        "kind": kind,
        "alpha": alpha,
        "alpha_selection": "fixed" if cfg.inverse.alpha is not None else "lcurve",
        "times_used": [float(t) for t in times],
        "residual_norm": sol.residual_norm,
        "solution_norm": sol.solution_norm,
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
    chio.write_json_report(out / "identify_report.json", report)
    wall = time.perf_counter() - t0
    err_bits = ", ".join(f"{k} = {v:.4f}" for k, v in results.items())
    print(f"identify ({kind}): alpha {alpha:.3e}, {err_bits}  [{wall:.1f}s]")
    return 0


def cmd_lcurve(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out, _, _, problem, alphas = _load_problem(cfg, args)
    alpha, curve = lcurve_select(problem, alphas)
    chio.lcurve_csv(curve, out / "lcurve.csv")
    report = {
        **_echo(cfg),
        "kind": cfg.inverse.kind,
        "alpha_star": alpha,
        "corner_index": curve.corner_index,
        "n_flagged": int(np.sum(curve.flagged)),
        "lcurve_file": "lcurve.csv",
    }
    chio.write_json_report(out / "lcurve_report.json", report)
    wall = time.perf_counter() - t0
    print(f"lcurve ({cfg.inverse.kind}): corner alpha {alpha:.3e}  [{wall:.1f}s]")
    return 0


# ---------------------------------------------------------------------------
# invariant suite

def run_invariant_suite(cfg: RunConfig, printer=print) -> list:
    """Run the five structural checks on a short reference problem.

    Returns a list of (name, passed, detail) triples; the CLI maps any
    failure to exit code 3.  Each check is independent; a failure does
    not stop the suite.
    """
    params = cfg.model_params()
    n = cfg.forward.n_cells
    tau = cfg.forward.tau
    t_end = min(cfg.forward.t_end, 100 * tau)
    results = []

    def record(name, passed, detail):
        results.append((name, bool(passed), detail))
        printer(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    fe = quadratic_fe(build_mesh(n))
    phi0 = interpolate(fe, cfg.initial_fn())
    try:
        traj = simulate(phi0, params, t_end=t_end, tau=tau)
        masses = mass_series(traj)
        drift = float(np.max(np.abs(masses - masses[0])))
        energies = energy_series(traj, params)
        rise = float(np.max(np.diff(energies)))
        record("conservation", drift <= 1e-10 and rise <= 1e-10,
               f"mass drift {drift:.2e}, max energy increase {rise:.2e}")
    except _NUMERICAL_ERRORS as exc:
        record("conservation", False, f"solver failure: {exc}")
        traj = None

    try:
        check = verify_scaling_invariance(
            phi0, params, d=2.0, c=1.0, t_end=min(t_end, 20 * tau), tau=tau
        )
        record(
            "scaling-invariance",
            check.max_rel_phi_dev <= 1e-8 and check.max_rel_mu_dev <= 1e-6,
            f"phi dev {check.max_rel_phi_dev:.2e}, mu dev {check.max_rel_mu_dev:.2e}",
        )
    except _NUMERICAL_ERRORS as exc:
        record("scaling-invariance", False, f"failure: {exc}")

    try:
        basis = cubic_spline_basis(build_mesh(400))
        grams = assemble_grams(basis)
        f1 = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
        y = grams.M_L2 @ f1.coef
        target = (1.0 / np.sqrt(2.0)) / np.sqrt(1.0 + 4.0 * np.pi**2)
        got = dual_norm_Hm1(y, grams)
        record("dual-norm", abs(got - target) <= 1e-4,
               f"|{got:.6f} - {target:.6f}| = {abs(got - target):.2e}")
    except _NUMERICAL_ERRORS as exc:
        record("dual-norm", False, f"failure: {exc}")

    if traj is not None:
        try:
            data = restrict_to_data_grid(traj, cfg.data.factor)
            good = total = 0
            worst = 0.0
            for k in range(2, 31, 2):
                t = k * data.tau_data / 2.0
                if t <= 0 or t > data.times[-1] + 1e-12:
                    continue
                lo, hi = attained_range(data, t)
                for frac in np.linspace(0.12, 0.88, 7):
                    s = lo + frac * (hi - lo)
                    smp = coarea_coefficients(data, cfg.forward.gamma, s, t)
                    if smp.degenerate:
                        continue
                    lhs = smp.A_b * params.b(s) + smp.A_c * params.b(s) * params.f(s, 1)
                    rel = abs(lhs - smp.A) / max(abs(smp.A), smp.A_c)
                    total += 1
                    good += rel <= 5e-2
                    worst = max(worst, rel)
            record("coarea-identity", good >= 20,
                   f"{good}/{total} samples below 5e-2 (worst {worst:.3f})")
        except _NUMERICAL_ERRORS as exc:
            record("coarea-identity", False, f"failure: {exc}")

        try:
            data = restrict_to_data_grid(traj, cfg.data.factor)
            times = data.times[1:min(6, data.n_times)]
            grid = NaturalSplineGrid(-1.0, 1.0, cfg.inverse.sigma)
            knots = grid.knots
            deltas = (1e-2, 1e-3, 1e-4)
            slopes = {}
            x_c = params.b(knots) * params.f(knots, 1)
            x_b = params.b(knots)
            probes = (
                (IDENTIFY_F, x_c, {"mobility": params.b}),
                (IDENTIFY_B, x_b, {"potential": params.F}),
                (IDENTIFY_JOINT, np.concatenate([x_b, x_c]), {}),
            )
            for kind, x_truth, extra in probes:
                probe = perturbation_scaling_probe(
                    kind, data, cfg.forward.gamma, deltas, x_truth, times,
                    grid=grid, seed=cfg.data.seed + 17, **extra,
                )
                slopes[kind] = probe.slope
            ok = all(abs(v - 1.0) <= 0.2 for v in slopes.values())
            record("perturbation-scaling", ok,
                   ", ".join(f"{k} slope {v:.3f}" for k, v in slopes.items()))
        except _NUMERICAL_ERRORS as exc:
            record("perturbation-scaling", False, f"failure: {exc}")

    return results


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    out = _outdir(cfg)
    results = run_invariant_suite(cfg)
    report = {
        **_echo(cfg),
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in results
        ],
        "all_passed": all(p for _, p, _ in results),
    }
    chio.write_json_report(out / "verify_report.json", report)
    wall = time.perf_counter() - t0
    print(f"verify: {sum(p for _, p, _ in results)}/{len(results)} checks passed "
          f"[{wall:.1f}s]")
    return 0 if report["all_passed"] else 3


# ---------------------------------------------------------------------------
# entrypoint

def _add_common(p):
    p.add_argument("--config", help="path to a key=value configuration file")
    p.add_argument("--preset", help="built-in preset name (paper)")
    p.add_argument("--out", help="output directory (overrides output.directory)")
    p.add_argument("--seed", type=int, help="noise seed (overrides data.seed)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chident",
        description="Phase-field parameter identification toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the forward solver")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("make-data", help="restrict a trajectory to the data grid")
    _add_common(p)
    p.add_argument("--trajectory", help="trajectory container path")
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("identify", help="assemble and solve an identification run")
    _add_common(p)
    p.add_argument("--observation", help="observation container path")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("lcurve", help="regularization-parameter sweep")
    _add_common(p)
    p.add_argument("--observation", help="observation container path")
    p.set_defaults(func=cmd_lcurve)

    p = sub.add_parser("verify", help="run the invariant suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
