"""Tikhonov solves, the L-curve, and the assembly validations."""

import numpy as np
import pytest

from chident.meshbasis import build_mesh, cubic_spline_basis, interpolate
from chident.model import NaturalSplineGrid, SplineParameter, default_params, param_grid
from chident.data import ObservationData
from chident.inverse import (
    AssembledProblem,
    InverseError,
    assemble_identify_b,
    assemble_identify_f,
    assemble_identify_joint,
    default_alpha_grid,
    lcurve_select,
    perturbation_scaling_probe,
    range_restricted_error,
    recover_fprime,
    tikhonov_solve,
    tikhonov_solve_direct,
)

GAMMA = 0.003


class _ShimGrams:
    """Identity observation gram over ``n`` degrees of freedom."""

    def __init__(self, n):
        self.basis = type("_B", (), {"dof_count": n})()

    def solve_M(self, v):
        return np.asarray(v, dtype=float).copy()


class _ShimR:
    """Identity penalty."""

    def apply(self, x):
        return np.asarray(x, dtype=float).copy()

    def solve(self, x):
        return np.asarray(x, dtype=float).copy()


def _toy(T, y):
    T = np.atleast_2d(np.asarray(T, dtype=float))
    y = np.asarray(y, dtype=float)
    return AssembledProblem(
        kind="toy", T=T, y=y, grams=_ShimGrams(T.shape[0]), R=_ShimR(),
        grid=None, times=np.array([0.0]), data_hash="toy",
    )


@pytest.mark.parametrize("alpha", [1e-1, 1e-3, 1e-6])
def test_scalar_closed_form(alpha):
    # min (x - 1)^2 + alpha x^2  ->  x = 1 / (1 + alpha)
    problem = _toy([[1.0]], [1.0])
    sol = tikhonov_solve(problem, alpha)
    exact = 1.0 / (1.0 + alpha)
    assert sol.coefficients[0] == pytest.approx(exact, rel=1e-12)
    assert sol.residual_norm == pytest.approx(alpha / (1.0 + alpha), rel=1e-10)
    assert sol.solution_norm == pytest.approx(exact, rel=1e-10)
    direct = tikhonov_solve_direct(problem, alpha)
    assert direct.coefficients[0] == pytest.approx(exact, rel=1e-12)


def test_zero_data_gives_zero_solution():
    sol = tikhonov_solve(_toy([[1.0]], [0.0]), 1e-3)
    assert sol.coefficients[0] == 0.0
    assert sol.residual_norm == 0.0 and sol.solution_norm == 0.0


def test_alpha_validation():
    problem = _toy([[1.0]], [1.0])
    with pytest.raises(InverseError):
        tikhonov_solve(problem, 0.0)
    with pytest.raises(InverseError):
        tikhonov_solve(problem, -1e-3)


def _diag_toy():
    sv = 10.0 ** -np.arange(7)
    rng = np.random.default_rng(7)
    x_true = np.ones(7)
    g = rng.standard_normal(7)
    y = sv * x_true + 1e-3 * g / np.linalg.norm(g)
    return _toy(np.diag(sv), y), x_true


def test_lcurve_corner_matches_brute_force():
    problem, x_true = _diag_toy()
    alphas = np.logspace(-1, -11, 21)
    alpha_star, curve = lcurve_select(problem, alphas)
    assert curve.corner_index == 12
    assert alpha_star == pytest.approx(1e-7, rel=1e-12)
    assert not curve.flagged.any()
    errs = [
        np.linalg.norm(tikhonov_solve_direct(problem, a).coefficients - x_true)
        for a in alphas
    ]
    brute = int(np.argmin(errs))
    assert abs(curve.corner_index - brute) <= 1


def test_lcurve_monotone_and_routes_agree():
    problem, _ = _diag_toy()
    alphas = np.logspace(-1, -11, 21)
    _, curve = lcurve_select(problem, alphas)
    rho, eta = curve.residual_norms, curve.solution_norms
    assert np.all(np.diff(rho) <= rho[:-1] * 1e-12)
    assert np.all(np.diff(eta) >= -eta[:-1] * 1e-12)
    for alpha in (1e-1, 1e-2):
        xc = tikhonov_solve(problem, alpha).coefficients
        xd = tikhonov_solve_direct(problem, alpha).coefficients
        assert np.linalg.norm(xc - xd) <= 1e-10 * np.linalg.norm(xd)


def test_lcurve_grid_validation():
    problem, _ = _diag_toy()
    with pytest.raises(InverseError):
        lcurve_select(problem, np.logspace(-1, -11, 5))  # too few points
    with pytest.raises(InverseError):
        lcurve_select(problem, np.logspace(-11, -1, 21))  # increasing
    with pytest.raises(InverseError):
        lcurve_select(problem, np.logspace(-1, -3, 12))  # under four decades
    g = default_alpha_grid()
    assert len(g) >= 10 and np.log10(g[0] / g[-1]) >= 4.0


def test_recover_fprime_quotient():
    grid = param_grid()
    c_sol = SplineParameter(grid, np.full(grid.n_knots, 2.4), name="c")
    fp = recover_fprime(c_sol, lambda s: np.full_like(np.asarray(s, float), 1.2))
    assert np.allclose(fp.values, 2.0, atol=1e-14)
    with pytest.raises(InverseError):
        recover_fprime(c_sol, lambda s: np.full_like(np.asarray(s, float), -1.0))


def test_range_restricted_error_cases():
    one = lambda s: np.ones_like(np.asarray(s, float))
    two = lambda s: 2.0 * np.ones_like(np.asarray(s, float))
    assert range_restricted_error(one, one, [(0.0, 1.0)]) == 0.0
    assert range_restricted_error(one, two, [(0.0, 1.0)]) == pytest.approx(0.5)
    # union of disjoint pieces behaves like one interval for constants
    assert range_restricted_error(one, two, [(0.0, 0.5), (2.0, 2.5)]) == (
        pytest.approx(0.5)
    )
    with pytest.raises(InverseError):
        range_restricted_error(one, two, [])
    with pytest.raises(InverseError):
        range_restricted_error(one, two, [(1.0, 1.0)])
    zero = lambda s: np.zeros_like(np.asarray(s, float))
    with pytest.raises(InverseError):
        range_restricted_error(one, zero, [(0.0, 1.0)])


def test_assembly_time_validation(reference_data, params):
    with pytest.raises(InverseError):
        assemble_identify_f(reference_data, GAMMA, params.b, [])
    with pytest.raises(InverseError):
        assemble_identify_f(reference_data, GAMMA, params.b, [0.0])
    with pytest.raises(InverseError):
        assemble_identify_f(reference_data, GAMMA, params.b, [4e-4, 4e-4])
    from chident.data import DataError

    with pytest.raises(DataError):
        assemble_identify_f(reference_data, GAMMA, params.b, [1.23e-5])


def test_assembly_rejects_out_of_range_data():
    basis = cubic_spline_basis(build_mesh(16))
    coef = np.vstack([
        interpolate(basis, lambda x: np.full_like(x, 0.2)).coef,
        interpolate(basis, lambda x: 1.5 * np.cos(2 * np.pi * x)).coef,
    ])
    data = ObservationData(basis=basis, times=np.array([0.0, 1e-4]),
                           coef=coef, tau_data=1e-4)
    params = default_params(GAMMA)
    with pytest.raises(InverseError):
        assemble_identify_f(data, GAMMA, params.b, [1e-4])


def test_problem_shapes_and_cache(reference_data, params, window_times):
    grid = NaturalSplineGrid(-1.0, 1.0, 0.25)
    times = window_times[::40]
    problem = assemble_identify_f(reference_data, GAMMA, params.b, times, grid)
    assert problem.kind == "identify-f"
    assert problem.n_cols == grid.n_knots
    assert problem.n_blocks == len(times)
    assert problem.T.shape == (len(times) * problem.block_size, grid.n_knots)
    first = problem.standard_form()
    assert problem.standard_form() is first  # cached
    k = grid.n_knots
    assert first.r_k.shape == first.L.shape == first.vt.shape == (k, k)
    assert np.array_equal(first.r_k, np.triu(first.r_k))
    # R-factor of the whitened operator: R_k' R_k = sum_i T_i' M^-1 T_i
    gram = sum(t.T @ problem.grams.solve_M(t)
               for t in problem.T.reshape(problem.n_blocks, problem.block_size, k))
    assert np.allclose(first.r_k.T @ first.r_k, gram,
                       rtol=0, atol=1e-10 * abs(gram).max())
    assert np.allclose(first.L @ first.L.T, problem.R.R, rtol=1e-12, atol=0)
    assert np.allclose(first.vt @ first.vt.T, np.eye(k), atol=1e-12)
    assert np.all(first.s > 0) and np.all(np.diff(first.s) <= 0)
    assert first.residual > 0


def test_real_problem_routes_agree(reference_data, params, window_times):
    grid = NaturalSplineGrid(-1.0, 1.0, 0.25)
    problem = assemble_identify_f(reference_data, GAMMA, params.b,
                                  window_times[::40], grid)
    for alpha in (1e-2, 1e-4):
        xc = tikhonov_solve(problem, alpha).coefficients
        xd = tikhonov_solve_direct(problem, alpha).coefficients
        assert np.linalg.norm(xc - xd) <= 1e-10 * np.linalg.norm(xd)


def _dense_stacked_lstsq(problem, alpha):
    """Reference: lstsq on [L_M^-1 T; sqrt(alpha) L_R'] with L_M L_M' = M."""
    from scipy.linalg import cholesky, solve_triangular

    chol_m = cholesky(problem.grams.M.toarray(), lower=True)
    bs, k = problem.block_size, problem.n_cols
    blocks = [slice(i * bs, (i + 1) * bs) for i in range(problem.n_blocks)]
    t_w = np.vstack([solve_triangular(chol_m, problem.T[sl], lower=True)
                     for sl in blocks])
    y_w = np.concatenate([solve_triangular(chol_m, problem.y[sl], lower=True)
                          for sl in blocks])
    chol_r = np.linalg.cholesky(problem.apply_regularizer(np.eye(k)))
    a = np.vstack([t_w, np.sqrt(alpha) * chol_r.T])
    return np.linalg.lstsq(a, np.concatenate([y_w, np.zeros(k)]), rcond=None)[0]


@pytest.mark.parametrize("kind, alpha", [("identify-f", 1e-10), ("identify-joint", 1e-9)])
def test_paper_alpha_matches_dense_stacked_lstsq(reference_data, params, window_times,
                                                 kind, alpha):
    grid = param_grid()
    if kind == "identify-f":
        problem = assemble_identify_f(reference_data, GAMMA, params.b, window_times, grid)
    else:
        problem = assemble_identify_joint(reference_data, GAMMA, window_times, grid)
    sol = tikhonov_solve(problem, alpha)
    ref = _dense_stacked_lstsq(problem, alpha)
    assert np.linalg.norm(sol.coefficients - ref) <= 1e-8 * np.linalg.norm(ref)
    # closed-form norms against the ones recomputed from the coefficients
    recomputed = problem.weighted_misfit(problem.T @ sol.coefficients - problem.y)
    assert sol.residual_norm == pytest.approx(recomputed, rel=1e-10)
    assert sol.solution_norm == pytest.approx(problem.penalty_norm(sol.coefficients),
                                              rel=1e-10)


def test_joint_split_and_guard(reference_data, window_times):
    grid = NaturalSplineGrid(-1.0, 1.0, 0.25)
    problem = assemble_identify_joint(reference_data, GAMMA, window_times[::40], grid)
    assert problem.n_cols == 2 * grid.n_knots
    sol = tikhonov_solve(problem, 1e-6)
    b_vals, c_vals = problem.split(sol.coefficients)
    assert b_vals.shape == c_vals.shape == (grid.n_knots,)
    single = assemble_identify_f(reference_data, GAMMA, lambda s: 1.0 + 0 * s,
                                 window_times[::40], grid)
    with pytest.raises(InverseError):
        single.split(np.zeros(grid.n_knots))


def test_probe_slope_band(reference_data, params, window_times):
    grid = param_grid()
    x_c = params.b(grid.knots) * params.f(grid.knots, 1)
    probe = perturbation_scaling_probe(
        "identify-f", reference_data, GAMMA, (1e-2, 1e-3), x_c,
        window_times[::100], mobility=params.b, grid=grid,
    )
    assert probe.kind == "identify-f"
    assert probe.operator_dev.shape == (2,)
    assert np.all(probe.operator_dev > 0) and np.all(probe.data_dev > 0)
    assert 0.8 <= probe.slope <= 1.2
    assert 0.8 <= probe.slope_data <= 1.2
