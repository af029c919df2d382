"""The package surface that the benchmark harness in ``perfbench/`` calls.

``perfbench/pipeline.py`` and ``perfbench/tracing.py`` reach the package
through module attributes, keywords and result fields that no other
caller may use.  The benchmark's own test takes minutes, so this one
makes the same calls, in the same form, on the shared reference data:
removing or renaming any of them fails here first.
"""

import inspect

import numpy as np
import pytest

from chident import config, data, inverse, model
from chident.meshbasis import cell_polys

from conftest import GAMMA


def test_restriction_and_noise_calls(reference_run):
    # pipeline.py restricts its trajectory and perturbs it in this form,
    # and checks that a seed gives the same noise in every pass
    traj, _ = reference_run
    cfg = config.paper_preset()
    obs = data.restrict_to_data_grid(traj, cfg.data.factor)
    assert np.isfinite(obs.interp_sup) and np.isfinite(obs.interp_l2)
    noisy, _ = data.inject_noise(obs, 1e-3, 41)
    again, _ = data.inject_noise(obs, 1e-3, 41)
    assert np.array_equal(noisy.coef, again.coef)


def test_observable_range_keywords_and_level_count(reference_data, params, window_times):
    # pipeline.py reads the level count per range from the signature
    default = inspect.signature(data.observable_range).parameters["n_levels"].default
    assert default == 201
    t = window_times[0]
    ivs = data.observable_range(reference_data, GAMMA, params.F, t, threshold_rel=1e-3)
    lo, hi = data.attained_range(reference_data, t)
    assert ivs and all(lo <= a <= b <= hi for a, b in ivs)
    report = data.build_observability_report(
        reference_data, GAMMA, params.F, times=window_times[:2], threshold_rel=1e-3
    )
    assert np.isfinite(
        np.median(report.residual(params.b, lambda s: params.b(s) * params.f(s, 1)))
    )


def test_report_reaches_level_crossings_through_the_module(
    reference_data, params, window_times, monkeypatch
):
    # tracing.py counts the report's level-set work by wrapping this attribute
    real, calls = data.level_crossings, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(data, "level_crossings", counting)
    report = data.build_observability_report(
        reference_data, GAMMA, params.F, times=window_times[:2], threshold_rel=1e-3
    )
    # one call for the whole report: each time's own 7 levels, then the
    # same levels at the partner time (the two rows of a two-time report
    # partner each other), each level cut from its time's snapshot
    assert len(calls) == 1 and len(report.times) == 2
    own = [[row.s for row in report.rows if row.t == t] for t in report.times]
    (cubics, levels), = calls
    assert np.array_equal(levels, own[0] + own[1] + own[0] + own[1])
    coef = reference_data.coef[reference_data.indices_of(report.times)]
    for i, k in enumerate(np.repeat([0, 1, 1, 0], 7)):
        own_cubics = cell_polys(reference_data.basis, coef[k])
        assert np.array_equal(cubics.phi[cubics.rows[i]], own_cubics), i


@pytest.mark.parametrize("kind", ["f", "b", "joint"])
def test_assemble_problem_reaches_each_kind_through_the_module(
    reference_data, params, window_times, monkeypatch, kind
):
    # tracing.py times the assemblies by wrapping these attributes, so a
    # call of assemble_problem keeps the inverse.assemble.* spans
    name = f"assemble_identify_{kind}"
    real, calls = getattr(inverse, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inverse, name, counting)
    problem = inverse.assemble_problem(f"identify-{kind}", reference_data, params,
                                       window_times[:2], model.param_grid())
    assert len(calls) == 1 and problem.kind == f"identify-{kind}"


def test_default_param_grid():
    # pipeline.py builds its grid and sizes its joint columns by calling
    # param_grid() with no arguments: the paper grid of 21 knots
    grid = model.param_grid()
    assert grid.n_knots == 21 and grid.spacing == 0.1


def test_assembly_and_solver_calls(reference_data, params, window_times):
    times = window_times[:3]
    grid = model.param_grid()
    problems = {
        "f": inverse.assemble_identify_f(reference_data, GAMMA, params.b, times, grid),
        "b": inverse.assemble_identify_b(reference_data, GAMMA, params.F, times, grid),
        "joint": inverse.assemble_identify_joint(reference_data, GAMMA, times, grid),
    }
    alphas = inverse.default_alpha_grid()
    for kind, problem in problems.items():
        sol = inverse.tikhonov_solve(problem, 1e-9)
        # tracing.py sums this field over the solves
        assert sol.cg_iterations == 0
        direct = inverse.tikhonov_solve_direct(problem, 1e-9)
        assert np.all(np.isfinite(direct.coefficients)), kind
        alpha, curve = inverse.lcurve_select(problem, alphas, threads=1)
        assert alpha in alphas
        sols = [inverse.tikhonov_solve(problem, a) for a in alphas]
        assert curve.residual_norms.tolist() == [s.residual_norm for s in sols], kind
        assert curve.solution_norms.tolist() == [s.solution_norm for s in sols], kind
    attained = data.merge_intervals([data.attained_range(reference_data, t) for t in times])
    c_vals = inverse.tikhonov_solve(problems["f"], 1e-10).coefficients
    c_sol = model.SplineParameter(grid, c_vals, name="c")
    rec = inverse.recover_fprime(c_sol, params.b)
    err = inverse.range_restricted_error(rec, lambda s: params.f(s, 1), attained)
    assert 0.0 <= err < 1.0
    b_vals, c_vals = problems["joint"].split(np.zeros(problems["joint"].n_cols))
    assert len(b_vals) == len(c_vals) == grid.n_knots
