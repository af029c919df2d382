"""Tikhonov solves, the L-curve, and the assembly validations."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chident import checks, meshbasis
from chident.meshbasis import (
    build_mesh,
    cubic_spline_basis,
    interpolate,
    quadrature_rule,
)
from sparse_oracle import assembled_gram, basis_matrix, dual_norm_sq, gauss_points, weighted_gram
from chident.model import NaturalSplineGrid, SplineParameter, default_params, param_grid
from chident import inverse
from chident.data import DataError, ObservationData, attained_ranges, inject_noise
from chident.inverse import (
    InverseError,
    assemble_identify_f,
    assemble_identify_joint,
    default_alpha_grid,
    lcurve_select,
    range_restricted_error,
    recover_fprime,
    tikhonov_solve,
    tikhonov_solve_direct,
)

from conftest import toy_problem

GAMMA = 0.003


@pytest.mark.parametrize("alpha", [1e-1, 1e-3, 1e-6])
def test_scalar_closed_form(alpha):
    # min (x - 1)^2 + alpha x^2  ->  x = 1 / (1 + alpha)
    problem = toy_problem([[1.0]], [1.0])
    sol = tikhonov_solve(problem, alpha)
    exact = 1.0 / (1.0 + alpha)
    assert sol.coefficients[0] == pytest.approx(exact, rel=1e-12)
    assert sol.residual_norm == pytest.approx(alpha / (1.0 + alpha), rel=1e-10)
    assert sol.solution_norm == pytest.approx(exact, rel=1e-10)
    direct = tikhonov_solve_direct(problem, alpha)
    assert direct.coefficients[0] == pytest.approx(exact, rel=1e-12)


def test_zero_data_gives_zero_solution():
    sol = tikhonov_solve(toy_problem([[1.0]], [0.0]), 1e-3)
    assert sol.coefficients[0] == 0.0
    assert sol.residual_norm == 0.0 and sol.solution_norm == 0.0


def test_alpha_validation():
    problem = toy_problem([[1.0]], [1.0])
    for alpha in (0.0, -1e-3, np.inf):
        with pytest.raises(InverseError):
            tikhonov_solve(problem, alpha)


def _diag_toy():
    sv = 10.0 ** -np.arange(7)
    rng = np.random.default_rng(7)
    x_true = np.ones(7)
    g = rng.standard_normal(7)
    y = sv * x_true + 1e-3 * g / np.linalg.norm(g)
    return toy_problem(np.diag(sv), y), x_true


def test_lcurve_corner_matches_brute_force():
    problem, x_true = _diag_toy()
    alphas = np.logspace(-1, -11, 21)
    alpha_star, curve = lcurve_select(problem, alphas)
    assert curve.corner_index == 12
    assert not curve.corner_at_grid_end
    assert [i for i in range(1, 20) if replace(curve, corner_index=i).corner_at_grid_end] == [1, 19]
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


def _lcurve_loop(rho, eta, slack=1e-12):
    """Reference: noise-floor flags and Menger curvature, one point at a time."""
    x, y = np.log(rho), np.log(eta)
    flagged = np.zeros(len(rho), dtype=bool)
    for i in range(1, len(rho)):
        if rho[i] > rho[i - 1] * (1.0 + slack) or eta[i] < eta[i - 1] * (1.0 - slack):
            flagged[i] = True
    curv = np.full(len(rho), np.nan)
    for i in range(1, len(rho) - 1):
        if flagged[i - 1] or flagged[i] or flagged[i + 1]:
            continue
        v1 = np.array([x[i] - x[i - 1], y[i] - y[i - 1]])
        v2 = np.array([x[i + 1] - x[i], y[i + 1] - y[i]])
        cross = v1[0] * v2[1] - v1[1] * v2[0]
        l1, l2 = np.hypot(*v1), np.hypot(*v2)
        l3 = np.hypot(x[i + 1] - x[i - 1], y[i + 1] - y[i - 1])
        if min(l1, l2, l3) == 0.0:
            continue
        curv[i] = -2.0 * cross / (l1 * l2 * l3)
    return flagged, curv


def test_lcurve_flags_and_curvature_match_loop(monkeypatch):
    # prescribed norms: a random monotone curve, one point past the noise
    # floor (rho rises), and one repeated point (a zero-length chord)
    rng = np.random.default_rng(11)
    rho = np.cumsum(rng.uniform(0.1, 1.0, 16))[::-1].copy()
    eta = np.cumsum(rng.uniform(0.1, 1.0, 16))
    rho[5] = rho[4] * 1.5
    rho[11], eta[11] = rho[10], eta[10]
    alphas = np.logspace(-1, -11, 16)
    norms = dict(zip(alphas.tolist(), zip(rho, eta)))

    def fake_filtered(sf, alpha):
        return (None, *norms[float(alpha)])

    monkeypatch.setattr(inverse, "_filtered", fake_filtered)
    _, curve = lcurve_select(SimpleNamespace(standard_form=lambda: None), alphas)
    flagged, curv = _lcurve_loop(rho, eta)
    assert flagged[5] and not flagged[11] and np.isnan(curv[11])
    assert np.array_equal(curve.flagged, flagged)
    assert np.array_equal(curve.curvature, curv, equal_nan=True)
    assert curve.corner_index == int(np.nanargmax(curv))


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


@pytest.mark.parametrize("bad, at", [(np.nan, 10), (np.inf, 0), (-1.0, 20)])
def test_lcurve_grid_rejects_a_non_finite_or_negative_entry(bad, at):
    # NaN fails every comparison and an infinite first entry still decreases,
    # so neither trips a test for non-positive or non-decreasing entries alone
    problem, _ = _diag_toy()
    alphas = np.logspace(-1, -11, 21)
    alphas[at] = bad
    with pytest.raises(InverseError, match="finite, positive and strictly decreasing"):
        lcurve_select(problem, alphas)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
def test_direct_route_rejects_a_non_finite_or_negative_alpha(alpha):
    problem, _ = _diag_toy()
    with pytest.raises(InverseError, match="finite and nonnegative"):
        tikhonov_solve_direct(problem, alpha)


def test_direct_route_at_alpha_zero_solves_a_full_rank_toy():
    problem, _ = _diag_toy()
    sol = tikhonov_solve_direct(problem, 0.0)
    assert sol.alpha == 0.0
    np.testing.assert_allclose(sol.coefficients, problem.y / np.diag(problem.T), rtol=1e-10)


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


def test_noise_and_assembly_share_the_closed_phase_interval():
    # equal spline coefficients v give node values of exactly v
    basis = cubic_spline_basis(build_mesh(8))

    def constant(v):
        return ObservationData(basis=basis, times=np.array([0.0, 1e-4]),
                               coef=np.full((2, basis.dof_count), v), tau_data=1e-4)

    params = default_params(GAMMA)
    for v in (1.0, -1.0):
        assemble_identify_f(constant(v), GAMMA, params.b, [1e-4])
    with pytest.raises(InverseError, match=r"phase interval \[-1, 1\]"):
        assemble_identify_f(constant(np.nextafter(1.0, 2.0)), GAMMA, params.b, [1e-4])
    with pytest.raises(DataError, match=r"phase interval \[-1, 1\]"):
        inject_noise(constant(0.9), 1e3, seed=0)


def _assemble_per_time(data, kind, times, grid, mobility=None, potential=None,
                       n_quad=inverse.N_QUAD):
    """Reference (T, y, m): one time at a time, from sparse evaluation
    matrices; m stacks identify-f's mobility functionals (b(phi) phi''', psi_i')."""
    w = quadrature_rule(data.basis.mesh, n_quad)[1]
    points = gauss_points(data.basis, n_quad)
    e = [basis_matrix(data.basis, points, r) for r in range(4)]
    m_l2 = weighted_gram(e[0], e[0], w)
    nk, bs = grid.n_knots, data.basis.dof_count
    blocks_t, blocks_y, blocks_m = [], [], []
    for k in data.indices_of(times):
        c = data.coef[k]
        phi_q, dphi_q, d3_q = e[0] @ c, e[1] @ c, e[3] @ c
        theta = grid.eval_matrix(phi_q)
        my = m_l2 @ ((c - data.coef[k - 1]) / data.tau_data)
        if kind == "f":
            blocks_t.append(-(e[1].T @ ((w * dphi_q)[:, None] * theta)))
            blocks_m.append(e[1].T @ (w * mobility(phi_q) * d3_q))
            blocks_y.append(my - GAMMA * blocks_m[-1])
        elif kind == "b":
            dmu_q = -GAMMA * d3_q + potential(phi_q, 2) * dphi_q
            blocks_t.append(-(e[1].T @ ((w * dmu_q)[:, None] * theta)))
            blocks_y.append(my)
        else:
            blocks_t.append(np.hstack([
                GAMMA * (e[1].T @ ((w * d3_q)[:, None] * theta)),
                -(e[1].T @ ((w * dphi_q)[:, None] * theta)),
            ]))
            blocks_y.append(my)
    assert blocks_t[0].shape == (bs, 2 * nk if kind == "joint" else nk)
    m = np.concatenate(blocks_m) if blocks_m else None
    return np.vstack(blocks_t), np.concatenate(blocks_y), m


@pytest.mark.parametrize("kind", ["f", "b", "joint"])
def test_blocked_assembly_matches_per_time_oracle(reference_data, params, window_times,
                                                  kind):
    # three full assembly blocks and a partial last one (the joint problem
    # takes half as many times per block), in no particular order
    n_times = 3 * inverse._ASSEMBLY_BLOCK + 1
    pick = np.random.default_rng(5).permutation(len(window_times))[:n_times]
    times = window_times[pick]
    assert np.any(np.diff(times) < 0)
    # the snapshot rows hold at snapshot 0 too, which no time selects
    idx = np.concatenate([[0], reference_data.indices_of(times)])
    bs = reference_data.basis.dof_count
    # on the fine grid an interface cell spans up to 16 pieces, so the row
    # width is far above its paper-grid value, and cells where phi nears 1
    # sit in the last piece, where p0 is clamped
    for grid in (param_grid(), NaturalSplineGrid(0.02)):
        # the b weight mu' = gamma phi''' - F''(phi) phi' nearly cancels where
        # phi is near a well, so the two routes' rounding of phi' (summed in
        # different orders) shows there, most on the fine grid (1.3e-13)
        tol = 2e-13 if kind == "b" and grid.spacing < 0.1 else 1e-13
        problem = inverse.assemble_problem(f"identify-{kind}", reference_data, params, times, grid)
        g_ref, y_ref, m_ref = _assemble_per_time(
            reference_data, kind, reference_data.times[idx], grid,
            mobility=params.b, potential=params.F,
        )
        t_ref, y_ref = g_ref[bs:], y_ref[bs:]
        assert problem.T.shape == t_ref.shape and problem.y.shape == y_ref.shape
        assert np.max(np.abs(problem.T - t_ref)) <= tol * np.max(np.abs(t_ref))
        assert np.max(np.abs(problem.y - y_ref)) <= tol * np.max(np.abs(y_ref))
        g, m = inverse._snapshot_rows(reference_data, GAMMA, f"identify-{kind}", idx,
                                      grid, mobility=params.b, potential=params.F)
        assert np.max(np.abs(g.reshape(g_ref.shape) - g_ref)) <= tol * np.max(np.abs(g_ref))
        assert (m is None) == (m_ref is None)
        if m is not None:
            assert np.max(np.abs(m.ravel() - m_ref)) <= tol * np.max(np.abs(m_ref))


def test_assembly_is_exact_where_every_cell_stays_in_one_knot_piece(params, monkeypatch):
    # phi = 0.05 + a cos(2 pi x) on 8 cells keeps every (cell, time) in the
    # paper grid's knot piece [0, 0.1], where theta_j(phi) phi' psi_i' has
    # degree 13 and theta_j(phi) phi''' psi_i' degree 11: N_QUAD points
    # integrate both exactly, as 48 do, and 6 points (exact to degree 11)
    # miss the first by 2.7e-11
    basis = cubic_spline_basis(build_mesh(8))
    amps = (0.045, 0.044, 0.043)
    coef = np.vstack([
        interpolate(basis, lambda x, a=a: 0.05 + a * np.cos(2 * np.pi * x)).coef
        for a in amps
    ])
    data = ObservationData(basis=basis, times=1e-4 * np.arange(len(amps)),
                           coef=coef, tau_data=1e-4)
    assert all(0.0 < lo and hi < 0.1 for lo, hi in attained_ranges(data, data.times))
    grid, times = param_grid(), data.times[1:]

    def assemble(n_quad):
        monkeypatch.setattr(inverse, "N_QUAD", n_quad)
        return {kind: inverse.assemble_problem(f"identify-{kind}", data, params, times, grid)
                for kind in ("f", "joint")}

    got, few, ref = assemble(inverse.N_QUAD), assemble(6), assemble(48)
    for kind, want in ref.items():
        assert np.max(np.abs(got[kind].T - want.T)) <= 1e-14 * np.max(np.abs(want.T))
        assert np.max(np.abs(got[kind].y - want.y)) <= 1e-14 * np.max(np.abs(want.y))
        assert np.max(np.abs(few[kind].T - want.T)) > 1e-12 * np.max(np.abs(want.T))


@pytest.mark.parametrize("kind", ["f", "b", "joint"])
def test_assembly_rows_stay_on_grid_at_its_ends(params, kind):
    # phi = a cos(2 pi x) reaches the first and the last knot piece of the
    # fine grid, and a cell on its flanks spans about 20 pieces.  The cells
    # next to x = 0 reach the last piece, so without p0 <= n_knots - width
    # the rows of the last dof would run past the block's last column.
    basis = cubic_spline_basis(build_mesh(16))
    amps = (0.99, 0.985, 0.98, 0.975)
    coef = np.vstack([
        interpolate(basis, lambda x, a=a: a * np.cos(2 * np.pi * x)).coef for a in amps
    ])
    data = ObservationData(basis=basis, times=1e-4 * np.arange(len(amps)),
                           coef=coef, tau_data=1e-4)
    grid = NaturalSplineGrid(0.02)
    times = data.times[1:]
    problem = inverse.assemble_problem(f"identify-{kind}", data, params, times, grid)
    t_ref, y_ref, _ = _assemble_per_time(
        data, kind, times, grid, mobility=params.b, potential=params.F
    )
    assert np.max(np.abs(problem.T - t_ref)) <= 1e-13 * np.max(np.abs(t_ref))
    assert np.max(np.abs(problem.y - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))


# tracemalloc peak minus T.nbytes of a paper-window assembly.  Dense
# 2 n_knots-wide local-weight rows, one time per block, measured
# 1.7000-1.7002 MB for the joint problem (numpy 2, one BLAS thread).  With
# piece-relative rows at eight times per block (four for the joint problem)
# and every other block temporary freed before the rows exist, identify-b
# measures 1.432 MB and the joint problem 1.416 MB at 8 Gauss points per
# cell (numpy 2.4, one BLAS thread).  identify-f measures 1.593 MB: its
# mobility functionals, 0.16 MB, are an array of their own beside T.
ASSEMBLY_EXTRA_BYTES = 1.70e6


@pytest.mark.parametrize("kind", inverse.PROBLEM_KINDS)
def test_assembly_memory_beside_T(kind, window_times, reference_data, params):
    grid = param_grid()

    def build():
        return inverse.assemble_problem(kind, reference_data, params, window_times, grid)

    build()  # warm caches
    tracemalloc.start()
    try:
        problem = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - problem.T.nbytes <= ASSEMBLY_EXTRA_BYTES


def _fold_per_block(problem):
    """Reference R-factor of the whitened [T | y], one time block per QR call."""
    bs, k = problem.block_size, problem.n_cols
    minv = problem.grams.factor.solve(np.eye(bs))
    whiten = np.linalg.cholesky(0.5 * (minv + minv.T))
    r = np.zeros((0, k + 1))
    for i in range(problem.n_blocks):
        sl = slice(i * bs, (i + 1) * bs)
        rows = whiten.T @ np.column_stack([problem.T[sl], problem.y[sl]])
        r = np.linalg.qr(np.vstack([r, rows]), mode="r")
    return r


def test_chunked_fold_matches_per_block_fold(reference_data, params, window_times):
    grid = NaturalSplineGrid(0.25)
    # two full QR chunks and a partial one: the second, with R already
    # k + 1 rows, fills the whole fold buffer, which dgeqrt overwrites in place
    n_times = 2 * inverse._FOLD_CHUNK + 3
    problem = assemble_identify_f(reference_data, GAMMA, params.b,
                                  window_times[::8][:n_times], grid)
    assert problem.n_blocks == n_times
    ref = _fold_per_block(problem)
    gram = ref.T @ ref                   # whitened [T | y] Gram
    k = problem.n_cols
    sf = problem.standard_form()
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(sf.r_k.T @ sf.r_k - gram[:k, :k])) <= 1e-12 * scale
    assert np.max(np.abs(sf.r_k.T @ sf.c - gram[:k, k])) <= 1e-12 * scale
    assert sf.residual == pytest.approx(abs(ref[k, k]), rel=1e-12)


def test_fold_with_fewer_rows_than_columns(reference_data, params, window_times):
    # one time on the 0.02 grid: 100 whitened rows against 102 columns, so
    # dgeqrt returns a 100-row trapezoid and the last two R rows are padding
    grid = NaturalSplineGrid(0.02)
    problem = assemble_identify_f(reference_data, GAMMA, params.b,
                                  window_times[100:101], grid)
    k = problem.n_cols
    assert problem.T.shape == (100, k) and k + 1 == 102
    ref = _fold_per_block(problem)
    ref = np.vstack([ref, np.zeros((k + 1 - ref.shape[0], k + 1))])
    gram = ref.T @ ref
    sf = problem.standard_form()
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(sf.r_k.T @ sf.r_k - gram[:k, :k])) <= 1e-12 * scale
    assert np.max(np.abs(sf.r_k.T @ sf.c - gram[:k, k])) <= 1e-12 * scale
    assert sf.residual == 0.0


def test_standard_form_factors_no_gram_again(reference_data, params, window_times,
                                            monkeypatch):
    # a fresh container: its H1 gram has no band factor and no whitening yet
    data = ObservationData(reference_data.basis, reference_data.times,
                           reference_data.coef, reference_data.tau_data)
    problem = assemble_identify_joint(data, GAMMA, window_times[::40],
                                      NaturalSplineGrid(0.25))

    def refuse(*args, **kwargs):
        raise AssertionError("the standard form must reuse the stored factors")

    # the band Cholesky of M is the one factorization left to make
    monkeypatch.setattr(meshbasis, "dpbtrs", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    sf = problem.standard_form()
    monkeypatch.undo()
    assert np.array_equal(sf.L, np.kron(np.eye(2), problem.R.L))
    ref = _fold_per_block(problem)
    gram = ref.T @ ref
    k = problem.n_cols
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(sf.r_k.T @ sf.r_k - gram[:k, :k])) <= 1e-12 * scale
    assert np.max(np.abs(sf.r_k.T @ sf.c - gram[:k, k])) <= 1e-12 * scale


def test_rejected_qr_argument_raises(reference_data, params, window_times, monkeypatch):
    problem = assemble_identify_f(reference_data, GAMMA, params.b, window_times[::40],
                                  NaturalSplineGrid(0.25))
    calls = []

    def bad_argument(nb, a, overwrite_a=0):
        calls.append(a.shape)
        return a, np.zeros((nb, min(a.shape))), -1

    monkeypatch.setattr(inverse, "dgeqrt", bad_argument)
    with pytest.raises(InverseError, match="argument 1"):
        problem.standard_form()
    assert len(calls) == 1


def test_weighted_misfit_matches_sparse_gram_solve(reference_data, params, window_times):
    problem = assemble_identify_f(reference_data, GAMMA, params.b, window_times[::40],
                                  NaturalSplineGrid(0.25))
    grams = problem.grams
    h1 = (assembled_gram(grams.basis, grams.m_local)
          + assembled_gram(grams.basis, grams.k_local)).tocsr()
    x = np.random.default_rng(5).standard_normal(problem.n_cols)
    for residual in (problem.y, problem.T @ x - problem.y):
        blocks = residual.reshape(problem.n_blocks, problem.block_size)
        ref = np.sqrt(sum(dual_norm_sq(h1, b) for b in blocks))
        assert abs(problem.weighted_misfit(residual) - ref) <= 1e-13 * ref


def test_rho0_is_the_least_squares_residual(reference_data, params, window_times):
    # on the paper grid R_k has a numerically null direction (the knot at
    # s = -1, which no data reaches); its beta is rounding noise that the QR
    # route alone splits between rho and beta, and rho0 counts it
    problem = assemble_identify_f(reference_data, GAMMA, params.b, window_times,
                                  param_grid())
    sf = problem.standard_form()
    k, bs = problem.n_cols, problem.block_size
    assert sf.s.min() <= sf.s.max() * k * np.finfo(float).eps
    whiten = problem.grams.whitening
    a = np.vstack([whiten @ t for t in problem.T.reshape(-1, bs, k)])
    b = (problem.y.reshape(-1, bs) @ whiten.T).ravel()
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    assert sf.rho0 == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-10)
    ref = _fold_per_block(problem)
    x = np.linalg.lstsq(ref[:k, :k], ref[:k, k], rcond=None)[0]
    ref_rho0 = np.hypot(ref[k, k], np.linalg.norm(ref[:k, :k] @ x - ref[:k, k]))
    assert sf.rho0 == pytest.approx(ref_rho0, rel=1e-10)


def test_problem_shapes_and_cache(reference_data, params, window_times):
    grid = NaturalSplineGrid(0.25)
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
    gram = sum(t.T @ problem.grams.factor.solve(t)
               for t in problem.T.reshape(problem.n_blocks, problem.block_size, k))
    assert np.allclose(first.r_k.T @ first.r_k, gram,
                       rtol=0, atol=1e-10 * abs(gram).max())
    assert np.allclose(first.L @ first.L.T, problem.R.R, rtol=1e-12, atol=0)
    assert np.allclose(first.vt @ first.vt.T, np.eye(k), atol=1e-12)
    assert np.all(first.s > 0) and np.all(np.diff(first.s) <= 0)
    assert first.residual > 0


def test_real_problem_routes_agree(reference_data, params, window_times):
    grid = NaturalSplineGrid(0.25)
    problem = assemble_identify_f(reference_data, GAMMA, params.b,
                                  window_times[::40], grid)
    for alpha in (1e-2, 1e-4):
        xc = tikhonov_solve(problem, alpha).coefficients
        xd = tikhonov_solve_direct(problem, alpha).coefficients
        assert np.linalg.norm(xc - xd) <= 1e-10 * np.linalg.norm(xd)


def _dense_stacked_lstsq(problem, alpha):
    """Reference: lstsq on [L_M^-1 T; sqrt(alpha) L_R'] with L_M L_M' = M."""
    from scipy.linalg import cholesky, solve_triangular

    eye = np.eye(problem.block_size)
    chol_m = cholesky(problem.grams.mass(eye) + problem.grams.stiffness(eye), lower=True)
    bs, k = problem.block_size, problem.n_cols
    blocks = [slice(i * bs, (i + 1) * bs) for i in range(problem.n_blocks)]
    t_w = np.vstack([solve_triangular(chol_m, problem.T[sl], lower=True)
                     for sl in blocks])
    y_w = np.concatenate([solve_triangular(chol_m, problem.y[sl], lower=True)
                          for sl in blocks])
    n_blocks = 2 if problem.kind == "identify-joint" else 1
    chol_r = np.linalg.cholesky(np.kron(np.eye(n_blocks), problem.R.R))
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
    grid = NaturalSplineGrid(0.25)
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
    # a slope is nan unless both of its deviations are positive, so the
    # band also asserts that both noise levels move the operator and the data
    grid = param_grid()
    noisy = [inject_noise(reference_data, delta, seed=1234)[0] for delta in (1e-2, 1e-3)]
    slope, slope_data = checks.perturbation_slopes(
        "identify-f", reference_data, noisy, params, window_times[::100], grid
    )
    assert 0.8 <= slope <= 1.2
    assert 0.8 <= slope_data <= 1.2


@pytest.mark.parametrize("kind", inverse.PROBLEM_KINDS)
def test_true_coefficients_match_each_kind_layout(reference_data, params, window_times, kind):
    # the model's own coefficients leave 0.018 (f), 0.100 (b) and 0.101
    # (joint) of the data misfit on the clean paper window; the joint truth
    # with its b and c halves swapped leaves 39 times the misfit
    grid = param_grid()
    problem = inverse.assemble_problem(kind, reference_data, params, window_times, grid)
    x = inverse.true_coefficients(kind, params, grid)
    assert x.shape == (problem.n_cols,)
    misfit_y = problem.weighted_misfit(problem.y)
    assert problem.weighted_misfit(problem.T @ x - problem.y) <= 0.2 * misfit_y
    if kind == inverse.IDENTIFY_JOINT:
        b_vals, c_vals = problem.split(x)
        assert np.array_equal(b_vals, params.b(grid.knots))
        assert np.array_equal(c_vals, params.c(grid.knots))
        swapped = np.concatenate([c_vals, b_vals])
        assert problem.weighted_misfit(problem.T @ swapped - problem.y) > misfit_y
