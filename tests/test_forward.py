"""Implicit stepper: conservation, dissipation, scaling, failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from chident.meshbasis import (
    build_mesh,
    eval_field,
    interpolate,
    quadratic_fe,
    quadrature_rule,
)
from sparse_oracle import basis_matrix, weighted_gram
from chident.model import (
    ModelParams,
    SplineParameter,
    default_params,
    default_initial_profile,
    energy,
    mass,
    param_grid,
)
from chident import forward
from chident.forward import (
    MobilityError,
    NewtonError,
    SolverError,
    mass_series,
    simulate,
    verify_scaling_invariance,
)


@pytest.fixture(scope="module")
def short_traj():
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(64))
    phi0 = interpolate(fe, default_initial_profile)
    return simulate(phi0, params, t_end=4e-4, tau=2e-5), params


def test_trajectory_layout(short_traj):
    traj, _ = short_traj
    assert traj.n_states == 21
    assert traj.phi.shape == (21, traj.basis.dof_count)
    assert traj.mu.shape == traj.phi.shape
    assert np.allclose(traj.times, 2e-5 * np.arange(21), atol=1e-18)


def test_mass_conserved(short_traj):
    traj, _ = short_traj
    masses = mass_series(traj)
    assert masses.shape == (traj.n_states,)
    assert np.max(np.abs(masses - masses[0])) < 1e-12
    assert masses[0] == pytest.approx(0.1, abs=1e-10)


def test_energy_dissipates(short_traj):
    traj, params = short_traj
    energies = np.array(
        [energy(traj.phi_field(k), params) for k in range(traj.n_states)]
    )
    assert np.all(np.diff(energies) <= 1e-12)
    assert energies[-1] < energies[0]


def test_initial_chemical_potential_constant_state():
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(32))
    c = 0.2
    phi0 = interpolate(fe, lambda x: np.full_like(x, c))
    mu0 = simulate(phi0, params, t_end=2e-5, tau=2e-5).mu_field(0)
    xi = np.linspace(0, 1, 101)
    assert np.max(np.abs(eval_field(mu0, xi) - params.f(c, 0))) < 1e-9


def test_scaling_invariance_identity():
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(64))
    phi0 = interpolate(fe, default_initial_profile)
    chk = verify_scaling_invariance(phi0, params, d=1.0, c=0.0,
                                    t_end=2e-4, tau=2e-5)
    assert chk.max_rel_phi_dev < 1e-13
    assert chk.max_rel_mu_dev < 1e-13


def test_scaling_invariance_affine_quick():
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(64))
    phi0 = interpolate(fe, default_initial_profile)
    chk = verify_scaling_invariance(phi0, params, d=2.0, c=1.0,
                                    t_end=2e-4, tau=2e-5)
    assert chk.max_rel_phi_dev < 1e-10
    assert chk.max_rel_mu_dev < 1e-8


def test_negative_mobility_rejected():
    grid = param_grid()
    params = default_params(0.003)
    bad = ModelParams(
        gamma=0.003,
        b=SplineParameter(grid, grid.knots.copy(), name="b"),  # b(s) = s
        F=params.F,
    )
    fe = quadratic_fe(build_mesh(32))
    phi0 = interpolate(fe, default_initial_profile)
    with pytest.raises(MobilityError):
        simulate(phi0, bad, t_end=4e-5, tau=2e-5)


def test_time_grid_validation():
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(32))
    phi0 = interpolate(fe, default_initial_profile)
    with pytest.raises(SolverError):
        simulate(phi0, params, t_end=2.7e-5, tau=2e-5)
    with pytest.raises(SolverError):
        simulate(phi0, params, t_end=-1e-4, tau=2e-5)
    with pytest.raises(SolverError):
        simulate(phi0, params, t_end=2e-5, tau=0.0)


def _two_half_steps(phi0, params, tau):
    """End state of one step of length tau taken as two half steps."""
    return simulate(phi0, params, t_end=tau, tau=0.5 * tau).phi[-1]


def _singular_gbtrf(ab, kl, ku, **kw):
    """What LAPACK gbtrf returns when it meets an exactly zero pivot."""
    return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1


def test_singular_jacobian_is_bisected(monkeypatch):
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(32)), default_initial_profile)
    phi_half = _two_half_steps(phi0, params, 2e-5)
    real, calls = forward.dgbtrf, []

    def singular_once(ab, kl, ku, **kw):
        calls.append(ab.shape)
        if len(calls) == 1:
            return _singular_gbtrf(ab, kl, ku, **kw)
        return real(ab, kl, ku, **kw)

    monkeypatch.setattr(forward, "dgbtrf", singular_once)
    traj = simulate(phi0, params, t_end=2e-5, tau=2e-5)
    assert len(calls) > 1
    assert np.allclose(traj.phi[1], phi_half, atol=1e-12)

    monkeypatch.setattr(forward, "dgbtrf", _singular_gbtrf)
    with pytest.raises(NewtonError, match="singular"):
        simulate(phi0, params, t_end=2e-5, tau=2e-5, max_bisect=2)


def test_half_step_after_zero_pivot_refactors(monkeypatch):
    # the zero pivot is met when the second step refactors, while the
    # first step's factor at tau is still held
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(32)), default_initial_profile)
    tau = 2e-5
    one = simulate(phi0, params, t_end=tau, tau=tau)
    phi_ref = _two_half_steps(one.phi_field(1), params, tau)
    real_factorize = forward._ForwardContext.factorize
    real_update = forward._ForwardContext.newton_update
    real_trf, log, trf_calls = forward.dgbtrf, [], []

    def factorize(ctx, tau_f, point_values):
        log.append(("factorize", tau_f))
        return real_factorize(ctx, tau_f, point_values)

    def newton_update(ctx, r1, r2):
        log.append(("solve", ctx.factor_tau))
        return real_update(ctx, r1, r2)

    def trf(ab, kl, ku, **kw):
        trf_calls.append(ab.shape)
        if len(trf_calls) == one.telemetry.factorizations + 1:
            return _singular_gbtrf(ab, kl, ku, **kw)
        return real_trf(ab, kl, ku, **kw)

    monkeypatch.setattr(forward._ForwardContext, "factorize", factorize)
    monkeypatch.setattr(forward._ForwardContext, "newton_update", newton_update)
    monkeypatch.setattr(forward, "dgbtrf", trf)
    traj = simulate(phi0, params, t_end=2 * tau, tau=tau)
    assert traj.telemetry.bisections == 1
    k = [i for i, e in enumerate(log) if e == ("factorize", tau)][-1]
    # the attempt at tau solved with the first step's factor before refactoring
    assert log[:k].count(("factorize", tau)) == one.telemetry.factorizations
    assert log[:k].count(("solve", tau)) > one.telemetry.solves
    # the half steps factor afresh at tau / 2 before their first solve
    assert log[k + 1] == ("factorize", 0.5 * tau)
    assert {e[1] for e in log[k + 1:]} == {0.5 * tau}
    assert np.allclose(traj.phi[2], phi_ref, atol=1e-12)


def test_rejected_gbsv_argument_is_not_bisected(monkeypatch):
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(32)), default_initial_profile)
    calls = []

    def bad_argument(ab, kl, ku, **kw):
        calls.append(ab.shape)
        return ab, np.zeros(ab.shape[1], dtype=np.int32), -3

    monkeypatch.setattr(forward, "dgbtrf", bad_argument)
    with pytest.raises(SolverError, match="argument 3") as info:
        simulate(phi0, params, t_end=2e-5, tau=2e-5)
    assert not isinstance(info.value, NewtonError)
    assert len(calls) == 1


def test_mobility_failure_on_an_iterate_is_bisected():
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(32)), default_initial_profile)
    phi_half = _two_half_steps(phi0, params, 2e-5)
    calls = []

    def negative_once(s, order=0):
        calls.append(order)
        out = params.b(s, order)
        return -np.abs(out) if len(calls) == 1 else out

    flaky = ModelParams(gamma=params.gamma, b=negative_once, F=params.F)
    traj = simulate(phi0, flaky, t_end=2e-5, tau=2e-5)
    assert len(calls) > 1
    assert np.allclose(traj.phi[1], phi_half, atol=1e-12)


def test_inadmissible_start_state_is_not_bisected(monkeypatch):
    grid = param_grid()
    params = default_params(0.003)
    bad = ModelParams(
        gamma=0.003,
        b=SplineParameter(grid, grid.knots.copy(), name="b"),  # b(s) = s
        F=params.F,
    )
    phi0 = interpolate(quadratic_fe(build_mesh(32)), default_initial_profile)
    real, taus = forward._newton_step, []

    def counting(ctx, phi_n, phi, mu, tau, tol, max_iter):
        taus.append(tau)
        return real(ctx, phi_n, phi, mu, tau, tol, max_iter)

    monkeypatch.setattr(forward, "_newton_step", counting)
    with pytest.raises(MobilityError):
        simulate(phi0, bad, t_end=2e-5, tau=2e-5)
    assert taus == [2e-5]


def _bmat_route(ctx, phi_n, phi, mu, tau):
    """Residual and Jacobian assembled from weighted grams and sp.bmat."""
    params, gamma = ctx.params, ctx.params.gamma
    M, K = ctx.M, ctx.K
    x, w = quadrature_rule(ctx.basis.mesh, ctx.t0.weights.shape[1])
    e0, e1 = basis_matrix(ctx.basis, x, 0), basis_matrix(ctx.basis, x, 1)
    phi_q = e0 @ phi
    k_b = weighted_gram(e1, e1, w * params.b(phi_q))
    r1 = M @ (phi - phi_n) + tau * (k_b @ mu)
    r2 = M @ mu - gamma * (K @ phi) - e0.T @ (w * params.f(phi_q))
    c_mat = weighted_gram(e1, e0, w * params.b(phi_q, 1) * (e1 @ mu))
    m_fp = weighted_gram(e0, e0, w * params.f(phi_q, 1))
    jac = sp.bmat(
        [[M + tau * c_mat, tau * k_b], [-gamma * K - m_fp, M]], format="csc"
    )
    return r1, r2, jac


@pytest.mark.parametrize("n_cells", [4, 5, 16, 64])
def test_fixed_pattern_assembly_matches_bmat_route(n_cells, band_dense):
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(n_cells))
    ctx = forward._ForwardContext(fe, params)
    rng = np.random.default_rng(n_cells)
    dof = fe.dof_count

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for tau in (2e-5, 0.37):
        phi_n = rng.uniform(-0.9, 0.9, dof)
        phi = rng.uniform(-0.9, 0.9, dof)
        mu = rng.standard_normal(dof)
        r1, r2, point_values = ctx.residual(phi_n, phi, mu, tau)
        dense = band_dense(ctx.pattern, ctx.jacobian(tau, point_values))
        q1, q2, ref = _bmat_route(ctx, phi_n, phi, mu, tau)
        assert rel(r1, q1) <= 1e-13 and rel(r2, q2) <= 1e-13
        dense_ref = ref.toarray()
        assert dense.shape == ref.shape and np.count_nonzero(dense) == ref.nnz
        for rows in (slice(0, dof), slice(dof, None)):
            for cols in (slice(0, dof), slice(dof, None)):
                assert rel(dense[rows, cols], dense_ref[rows, cols]) <= 1e-13


@pytest.mark.parametrize("n_cells", [4, 5, 16, 64])
def test_banded_newton_step_matches_splu(n_cells):
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(n_cells))
    ctx = forward._ForwardContext(fe, params)
    rng = np.random.default_rng(100 + n_cells)
    dof = fe.dof_count
    for tau in (2e-5, 2e-3, 0.37):
        phi_n = rng.uniform(-0.9, 0.9, dof)
        phi = rng.uniform(-0.9, 0.9, dof)
        mu = rng.standard_normal(dof)
        r1, r2, point_values = ctx.residual(phi_n, phi, mu, tau)
        ctx.factorize(tau, point_values)
        delta = ctx.newton_update(r1, r2)
        assert delta.shape == (2, dof)
        jac = _bmat_route(ctx, phi_n, phi, mu, tau)[2]
        rhs, step = np.concatenate([r1, r2]), delta.ravel()
        # normwise backward error: a few ulp whatever the conditioning
        assert np.max(np.abs(jac @ step - rhs)) <= 1e-14 * (
            abs(jac).sum(axis=1).max() * np.max(np.abs(step))
        )
        # these rough random states reach a condition number near 1e6 at
        # tau = 0.37, where two backward-stable solvers differ beyond 1e-12
        if tau < 0.1:
            ref = splu(jac).solve(rhs)
            assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


# Factorizations (= Jacobian builds) and band solves (= Newton updates) of
# the short 64-cell run under the chord rule
SHORT_RUN_FACTORIZATIONS = 21
SHORT_RUN_SOLVES = 80


def test_newton_count_is_pinned_and_runs_are_deterministic():
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(64)), default_initial_profile)
    runs = [simulate(phi0, params, t_end=4e-4, tau=2e-5) for _ in range(2)]
    for run in runs:
        assert run.telemetry.factorizations == SHORT_RUN_FACTORIZATIONS
        assert run.telemetry.solves == SHORT_RUN_SOLVES
        assert run.telemetry.bisections == 0
    assert runs[0].n_states == 21
    assert runs[0].telemetry == runs[1].telemetry
    assert np.array_equal(runs[0].phi, runs[1].phi)
    assert np.array_equal(runs[0].mu, runs[1].mu)
