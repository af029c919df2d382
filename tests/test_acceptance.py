"""Acceptance criteria: one test per criterion, one verdict line each.

Every criterion prints a ``CRITERION nn PASS/FAIL`` line through the
terminal-summary hook in conftest.  Numeric thresholds are stated next
to the assertions; frozen oracle values carry their derivations in
comments.
"""

import numpy as np
import pytest

from chident.meshbasis import (
    assemble_grams,
    build_mesh,
    cubic_spline_basis,
    dual_norm_Hm1,
    interpolate,
    quadratic_fe,
)
from chident.model import (
    NaturalSplineGrid,
    SplineParameter,
    default_initial_profile,
    energy,
    param_grid,
)
from chident.forward import mass_series, verify_scaling_invariance
from chident.data import (
    attained_range,
    coarea_coefficients,
    inject_noise,
    merge_intervals,
    observable_range,
)
from chident.inverse import (
    assemble_identify_b,
    assemble_identify_f,
    assemble_identify_joint,
    lcurve_select,
    perturbation_scaling_probe,
    range_restricted_error,
    recover_fprime,
    tikhonov_solve,
    tikhonov_solve_direct,
)

from conftest import GAMMA, crossings_of, record_criterion, toy_problem


# --------------------------------------------------------------------------
# shared assemblies

@pytest.fixture(scope="module")
def attained_union(reference_data, window_times):
    return merge_intervals(
        [attained_range(reference_data, t) for t in window_times]
    )


@pytest.fixture(scope="module")
def problem_f(reference_data, params, window_times):
    grid = param_grid()  # 21 knots at spacing 0.1
    return assemble_identify_f(reference_data, GAMMA, params.b, window_times, grid)


# --------------------------------------------------------------------------
# criteria

def test_criterion_01_mass_conservation(reference_run):
    traj, wall = reference_run
    masses = mass_series(traj)
    drift = float(np.max(np.abs(masses - 0.1)))
    ok = drift <= 1e-10 and wall <= 60.0
    record_criterion(1, "mass-conservation",
                     ok, f"max |mass - 0.1| = {drift:.2e}, runtime {wall:.1f}s")
    assert drift <= 1e-10
    assert wall <= 60.0


def test_criterion_02_energy_dissipation(reference_run, params):
    traj, _ = reference_run
    energies = np.array(
        [energy(traj.phi_field(k), params) for k in range(traj.n_states)]
    )
    rise = float(np.max(np.diff(energies)))
    ok = rise <= 1e-10
    record_criterion(2, "energy-dissipation", ok,
                     f"max energy increase {rise:.2e} over {traj.n_states - 1} steps")
    assert ok


def test_criterion_03_scaling_invariance(params):
    fe = quadratic_fe(build_mesh(200))
    phi0 = interpolate(fe, default_initial_profile)
    chk = verify_scaling_invariance(phi0, params, d=2.0, c=1.0,
                                    t_end=0.02, tau=2e-5)
    ok = chk.max_rel_phi_dev <= 1e-8 and chk.max_rel_mu_dev <= 1e-6
    record_criterion(3, "scaling-invariance", ok,
                     f"d=2 c=1: phi dev {chk.max_rel_phi_dev:.2e} (<=1e-8), "
                     f"mu dev {chk.max_rel_mu_dev:.2e} (<=1e-6)")
    assert chk.max_rel_phi_dev <= 1e-8
    assert chk.max_rel_mu_dev <= 1e-6


def test_criterion_04_dual_norm():
    # 1/sqrt(2) / sqrt(1 + 4 pi^2): H^-1 norm of the L2 functional of
    # sin(2 pi x) under the zero-mean H1 pairing
    target = (1.0 / np.sqrt(2.0)) / np.sqrt(1.0 + 4.0 * np.pi**2)
    errs = {}
    for n in (100, 200, 400):
        basis = cubic_spline_basis(build_mesh(n))
        grams = assemble_grams(basis)
        f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
        errs[n] = abs(dual_norm_Hm1(grams.mass(f.coef), grams) - target)
    ok = errs[400] <= 1e-4 and errs[100] > errs[200] > errs[400]
    record_criterion(4, "dual-norm", ok,
                     f"n=400 error {errs[400]:.2e} (<=1e-4), refinement "
                     f"{errs[100]:.2e} > {errs[200]:.2e} > {errs[400]:.2e}")
    assert errs[400] <= 1e-4
    assert errs[100] > errs[200] > errs[400]


def _coarea_residuals(data, anchor, params):
    """Identity residuals over the deterministic (t, s) protocol.

    Times are the first fifteen even multiples of the observation step;
    levels are seven interior fractions of the range attained on the
    ``anchor`` container, so both resolutions are probed at identical
    (t, s) pairs.  Degenerate samples are left out.
    """
    keys, levels, times = [], [], []
    for k in range(2, 31, 2):
        t = 4e-5 * k
        lo, hi = attained_range(anchor, t)
        for i, frac in enumerate(np.linspace(0.12, 0.88, 7)):
            keys.append((k, i))
            levels.append(lo + frac * (hi - lo))
            times.append(t)
    sample = coarea_coefficients(data, GAMMA, levels, times)
    ok = ~sample.degenerate
    s, a_b, a_c, a = sample.s[ok], sample.A_b[ok], sample.A_c[ok], sample.A[ok]
    pred = params.b(s) * a_b + params.b(s) * params.f(s, 1) * a_c
    rel = np.abs(a - pred) / np.maximum(np.abs(a), np.abs(pred))
    return dict(zip([key for key, keep in zip(keys, ok) if keep], rel.tolist()))


def test_criterion_05_coarea_identity(reference_data, refined_data, params):
    coarse = _coarea_residuals(reference_data, reference_data, params)
    fine = _coarea_residuals(refined_data, reference_data, params)
    common = sorted(set(coarse) & set(fine))
    rc = np.array([coarse[k] for k in common])
    rf = np.array([fine[k] for k in common])
    passing = rc <= 5e-2
    n_pass = int(passing.sum())

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

    ok = (n_pass >= 20 and shrink_all < 0.8 and shrink_pass < 0.9
          and sine_c <= 1e-6 and sine_b <= 1e-6)
    record_criterion(
        5, "coarea-identity", ok,
        f"{n_pass}/{len(common)} samples <= 5e-2 (need >= 20); refinement "
        f"shrinks residuals x{shrink_all:.2f} (all) x{shrink_pass:.2f} "
        f"(passing); sine |A_c - 4pi| = {sine_c:.1e}, "
        f"|A_b - 16*gamma*pi^3| = {sine_b:.1e} (<=1e-6)")
    assert n_pass >= 20
    assert shrink_all < 0.8
    assert shrink_pass < 0.9
    assert sine_c <= 1e-6 and sine_b <= 1e-6


def test_criterion_06_perturbation_scaling(reference_data, params, window_times):
    grid = param_grid()
    knots = grid.knots
    deltas = (1e-2, 1e-3, 1e-4)
    times = window_times[::40]
    x_c = params.b(knots) * params.f(knots, 1)
    x_b = params.b(knots)
    slopes = {}
    for kind, x_truth, extra in (
        ("identify-f", x_c, {"mobility": params.b}),
        ("identify-b", x_b, {"potential": params.F}),
        ("identify-joint", np.concatenate([x_b, x_c]), {}),
    ):
        probe = perturbation_scaling_probe(
            kind, reference_data, GAMMA, deltas, x_truth, times, grid=grid, **extra
        )
        slopes[kind] = (probe.slope, probe.slope_data)
    ok = all(abs(s - 1.0) <= 0.2 and abs(sd - 1.0) <= 0.2
             for s, sd in slopes.values())
    record_criterion(6, "perturbation-scaling", ok,
                     ", ".join(f"{k} slopes {s:.3f}/{sd:.3f}"
                               for k, (s, sd) in slopes.items()))
    assert ok


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
