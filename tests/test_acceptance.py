"""Acceptance criteria: one test per criterion, one verdict line each.

Every criterion prints a ``CRITERION nn PASS/FAIL`` line through the
terminal-summary hook in conftest.  Criteria 01-06 run the check
functions of ``chident.checks`` on the reference fixtures, so their
bounds are that module's constants; the bounds of their own extras (the
runtime of 01, the refinement orders of 04 and 05, the sine crossings of
05) and of criteria 07-12 are stated next to the assertions.  Frozen
oracle values carry their derivations in comments.
"""

import numpy as np
import pytest

from chident.meshbasis import build_mesh, cubic_spline_basis, interpolate
from chident.model import NaturalSplineGrid, SplineParameter, param_grid
from chident.checks import (
    coarea_identity, conservation, dual_norm, dual_norm_at, perturbation_scaling,
    scaling_invariance,
)
from chident.data import (
    attained_ranges, coarea_coefficients, coarea_residual, inject_noise, merge_intervals,
    observable_range,
)
from chident.inverse import (
    assemble_identify_b, assemble_identify_f, assemble_identify_joint, lcurve_select,
    range_restricted_error, recover_fprime, tikhonov_solve, tikhonov_solve_direct,
)

from conftest import GAMMA, crossings_of, record_criterion, toy_problem


# --------------------------------------------------------------------------
# shared assemblies

@pytest.fixture(scope="module")
def attained_union(reference_data, window_times):
    return merge_intervals(attained_ranges(reference_data, window_times))


@pytest.fixture(scope="module")
def problem_f(reference_data, params, window_times):
    grid = param_grid()  # 21 knots at spacing 0.1
    return assemble_identify_f(reference_data, GAMMA, params.b, window_times, grid)


@pytest.fixture(scope="module")
def conserved(reference_run, params):
    return conservation(reference_run[0], params)


# --------------------------------------------------------------------------
# criteria

def test_criterion_01_mass_conservation(reference_run, conserved):
    wall = reference_run[1]
    ok = conserved.values["mass_conserved"] and wall <= 60.0
    record_criterion(1, "mass-conservation", ok,
                     f"mass drift {conserved.values['mass_drift']:.2e}, runtime {wall:.1f}s")
    assert conserved.values["mass_conserved"]
    assert wall <= 60.0


def test_criterion_02_energy_dissipation(reference_run, conserved):
    ok = conserved.values["energy_monotone"]
    record_criterion(2, "energy-dissipation", ok,
                     f"max energy increase {conserved.values['energy_rise']:.2e} "
                     f"over {reference_run[0].n_states - 1} steps")
    assert ok


def test_criterion_03_scaling_invariance(reference_run, params):
    chk = scaling_invariance(reference_run[0], params)
    record_criterion(3, "scaling-invariance", chk.passed, chk.detail)
    assert chk.passed


def test_criterion_04_dual_norm():
    chk = dual_norm()
    errs = [abs(got - target) for got, target in map(dual_norm_at, (100, 200))]
    errs.append(chk.values["error"])
    refines = errs[0] > errs[1] > errs[2]
    record_criterion(4, "dual-norm", chk.passed and refines,
                     f"{chk.detail}; refinement " + " > ".join(f"{e:.2e}" for e in errs))
    assert chk.passed
    assert refines


def _coarea_residuals(data, anchor, params):
    """Identity residuals (``data.coarea_residual``) over the deterministic
    (t, s) protocol, NaN at the degenerate samples.

    Times are the first fifteen even multiples of the observation step;
    levels are seven interior fractions of the range attained on the
    ``anchor`` container, so both resolutions are probed at identical
    (t, s) pairs.
    """
    times = 4e-5 * np.arange(2, 31, 2)
    lo, hi = np.array(attained_ranges(anchor, times)).T
    levels = lo[:, None] + np.linspace(0.12, 0.88, 7) * (hi - lo)[:, None]
    sample = coarea_coefficients(data, GAMMA, levels.ravel(), np.repeat(times, 7))
    ok = ~sample.degenerate
    rel = np.full(len(ok), np.nan)
    rel[ok] = coarea_residual(sample.s[ok], sample.A_b[ok], sample.A_c[ok], sample.A[ok],
                              params.b, lambda s: params.b(s) * params.f(s, 1))
    return rel


def test_criterion_05_coarea_identity(reference_data, refined_data, params):
    coarse = _coarea_residuals(reference_data, reference_data, params)
    fine = _coarea_residuals(refined_data, reference_data, params)
    common = ~np.isnan(coarse) & ~np.isnan(fine)
    rc, rf = coarse[common], fine[common]
    chk = coarea_identity(rc)
    passing = chk.values["passing"]

    # refinement: the same (t, s) samples shrink on the finer grids
    shrink_all = float(rf.mean() / rc.mean())
    shrink_pass = float(rf[passing].mean() / rc[passing].mean())

    # interpolated sine profile: closed-form crossing functionals
    basis = cubic_spline_basis(build_mesh(4096))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    cr = crossings_of(f, [0.0])
    a_c = float(np.sum(np.abs(cr.slope)))
    a_b = -GAMMA * float(np.sum(cr.third * np.sign(cr.slope)))
    sine_c = abs(a_c - 4.0 * np.pi)
    sine_b = abs(a_b - 16.0 * GAMMA * np.pi**3)

    ok = (chk.passed and shrink_all < 0.8 and shrink_pass < 0.9
          and sine_c <= 1e-6 and sine_b <= 1e-6)
    record_criterion(
        5, "coarea-identity", ok,
        f"{chk.detail}; refinement shrinks residuals x{shrink_all:.2f} (all) "
        f"x{shrink_pass:.2f} (passing); sine |A_c - 4pi| = {sine_c:.1e}, "
        f"|A_b - 16*gamma*pi^3| = {sine_b:.1e} (<=1e-6)")
    assert chk.passed
    assert shrink_all < 0.8
    assert shrink_pass < 0.9
    assert sine_c <= 1e-6 and sine_b <= 1e-6


def test_criterion_06_perturbation_scaling(reference_data, params, window_times):
    chk = perturbation_scaling(reference_data, GAMMA, params, param_grid(),
                               window_times[::40], seed=1234)
    record_criterion(6, "perturbation-scaling", chk.passed, chk.detail)
    assert chk.passed


def test_criterion_07_identify_f(problem_f, params, attained_union):
    sol = tikhonov_solve(problem_f, 1e-10)
    c_sol = SplineParameter(problem_f.grid, sol.coefficients, name="c")
    fprime = recover_fprime(c_sol, params.b)
    err = range_restricted_error(fprime, lambda s: params.f(s, 1),
                                 attained_union)
    ok = err <= 0.10
    record_criterion(7, "identify-f", ok,
                     f"alpha 1e-10: relative f' error {err:.4f} on "
                     f"{attained_union} (<= 0.10)")
    assert ok


def test_criterion_08_identify_b(reference_data, params, window_times,
                                 attained_union):
    grid = param_grid()
    problem = assemble_identify_b(reference_data, GAMMA, params.F,
                                  window_times, grid)
    sol = tikhonov_solve(problem, 1e-6)
    b_sol = SplineParameter(grid, sol.coefficients, name="b")
    observable = merge_intervals(
        iv for t in window_times[::10]
        for iv in observable_range(reference_data, GAMMA, params.F, t)
    )
    err = range_restricted_error(b_sol, params.b,
                                 observable or attained_union)
    ok = err <= 0.10
    record_criterion(8, "identify-b", ok,
                     f"alpha 1e-6: relative b error {err:.4f} on "
                     f"{observable} (<= 0.10)")
    assert ok


def test_criterion_09_identify_joint(reference_data, params, window_times,
                                     attained_union):
    grid = param_grid()
    problem = assemble_identify_joint(reference_data, GAMMA, window_times, grid)
    sol = tikhonov_solve(problem, 1e-9)
    b_vals, c_vals = problem.split(sol.coefficients)
    b_sol = SplineParameter(grid, b_vals, name="b")
    c_sol = SplineParameter(grid, c_vals, name="c")
    fprime = lambda s: c_sol(s) / np.clip(b_sol(s), 1e-8, None)
    err_b = range_restricted_error(b_sol, params.b, attained_union)
    err_f = range_restricted_error(fprime, lambda s: params.f(s, 1),
                                   attained_union)
    ok = err_b <= 0.15 and err_f <= 0.15
    record_criterion(9, "identify-joint", ok,
                     f"alpha 1e-9: b error {err_b:.4f}, f' error {err_f:.4f} "
                     "(each <= 0.15)")
    assert err_b <= 0.15
    assert err_f <= 0.15


def test_criterion_10_noise_ladder(reference_data, params, window_times,
                                   attained_union):
    grid = param_grid()
    errs = []
    for k in range(5):
        delta = 1e-2 * 2.0**-k
        noisy, _ = inject_noise(reference_data, delta, seed=100 + k)
        problem = assemble_identify_f(noisy, GAMMA, params.b,
                                      window_times, grid)
        sol = tikhonov_solve(problem, delta)  # alpha_k = delta_k
        fprime = recover_fprime(
            SplineParameter(grid, sol.coefficients), params.b
        )
        errs.append(range_restricted_error(fprime, lambda s: params.f(s, 1),
                                           attained_union))
    errs = np.array(errs)
    ok = bool(np.all(errs[1:] <= 1.5 * errs[:-1]))
    record_criterion(10, "noise-ladder", ok,
                     "errors " + " -> ".join(f"{e:.4f}" for e in errs)
                     + " (non-increasing within factor 1.5)")
    assert ok


def test_criterion_11_dual_route_agreement(reference_data, params, window_times):
    # scalar toy: both routes against the closed form x = 1/(1 + alpha)
    scalar = toy_problem([[1.0]], [1.0])
    dev_scalar = 0.0
    for alpha in (1e-1, 1e-3, 1e-6):
        exact = 1.0 / (1.0 + alpha)
        xc = tikhonov_solve(scalar, alpha).coefficients[0]
        xd = tikhonov_solve_direct(scalar, alpha).coefficients[0]
        dev_scalar = max(dev_scalar, abs(xc - exact), abs(xd - exact))

    # seven-column diagonal toy at moderate conditioning
    sv = 10.0 ** -np.arange(7)
    rng = np.random.default_rng(7)
    g = rng.standard_normal(7)
    toy = toy_problem(np.diag(sv), sv + 1e-3 * g / np.linalg.norm(g))
    dev_toy = 0.0
    for alpha in (1e-1, 1e-2):
        xc = tikhonov_solve(toy, alpha).coefficients
        xd = tikhonov_solve_direct(toy, alpha).coefficients
        dev_toy = max(dev_toy, np.linalg.norm(xc - xd) / np.linalg.norm(xd))

    # assembled nine-column problem from the reference data
    grid9 = NaturalSplineGrid(0.25)
    real = assemble_identify_f(reference_data, GAMMA, params.b,
                               window_times[::10], grid9)
    dev_real = 0.0
    for alpha in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        xc = tikhonov_solve(real, alpha).coefficients
        xd = tikhonov_solve_direct(real, alpha).coefficients
        dev_real = max(dev_real, np.linalg.norm(xc - xd) / np.linalg.norm(xd))

    # alpha-monotonicity of both norms on every sweep
    mono = True
    for problem, alphas in ((toy, np.logspace(-1, -11, 21)),
                            (real, np.logspace(-1, -5, 11))):
        _, curve = lcurve_select(problem, alphas)
        rho, eta = curve.residual_norms, curve.solution_norms
        mono &= bool(np.all(np.diff(rho) <= rho[:-1] * 1e-12))
        mono &= bool(np.all(np.diff(eta) >= -eta[:-1] * 1e-12))
        mono &= not curve.flagged.any()

    ok = dev_scalar <= 1e-10 and dev_toy <= 1e-10 and dev_real <= 1e-10 and mono
    record_criterion(
        11, "dual-route-agreement", ok,
        f"scalar dev {dev_scalar:.1e}, toy dev {dev_toy:.1e}, assembled dev "
        f"{dev_real:.1e} (each <= 1e-10); norm monotonicity on every sweep: "
        f"{mono}")
    assert dev_scalar <= 1e-10
    assert dev_toy <= 1e-10
    assert dev_real <= 1e-10
    assert mono


def test_criterion_12_lcurve_corner(problem_f):
    # toy with a known spectrum: corner within one grid step of the
    # brute-force error minimizer
    sv = 10.0 ** -np.arange(7)
    rng = np.random.default_rng(7)
    x_true = np.ones(7)
    g = rng.standard_normal(7)
    toy = toy_problem(np.diag(sv), sv * x_true + 1e-3 * g / np.linalg.norm(g))
    alphas = np.logspace(-1, -11, 21)
    alpha_star, curve = lcurve_select(toy, alphas)
    errs = [
        np.linalg.norm(tikhonov_solve_direct(toy, a).coefficients - x_true)
        for a in alphas
    ]
    brute = int(np.argmin(errs))
    gap = abs(curve.corner_index - brute)

    # reference-problem corner: informational, logged but not gating --
    # clean interpolation-only data has no noise floor, so the corner
    # sits far above the tiny alpha that a noise-matched pick would use
    alpha_ref, _ = lcurve_select(problem_f)
    within_decade = abs(np.log10(alpha_ref / 1e-10)) <= 1.0

    ok = gap <= 1
    record_criterion(
        12, "lcurve-corner", ok,
        f"toy corner idx {curve.corner_index} vs brute-force {brute} "
        f"(gap {gap} <= 1); reference corner alpha {alpha_ref:.2e}, "
        f"within a decade of 1e-10: {within_decade} (soft, informational)")
    assert gap <= 1
