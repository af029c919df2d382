"""Implicit stepper: conservation, dissipation, scaling, failure modes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from chident import checks, config
from chident.meshbasis import (
    PeriodicField,
    build_mesh,
    interpolate,
    quadratic_fe,
    quadrature_rule,
)
from sparse_oracle import (
    assembled_gram,
    basis_matrix,
    dual_norm_sq,
    gauss_points,
    weighted_gram,
)
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
    simulate,
)

from conftest import WORK_PINS, eval_field


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


def _masses(traj):
    return np.array([mass(traj.phi_field(k)) for k in range(traj.n_states)])


def test_mass_conserved(short_traj):
    traj, _ = short_traj
    masses = _masses(traj)
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
    traj = simulate(phi0, params, t_end=2e-5, tau=2e-5)
    mu0 = PeriodicField(traj.basis, traj.mu[0])
    xi = np.linspace(0, 1, 101)
    assert np.max(np.abs(eval_field(mu0, xi) - params.f(c, 0))) < 1e-9


def test_scaling_invariance_identity(short_traj):
    phi_dev, mu_dev = checks.scaling_deviations(*short_traj, d=1.0, c=0.0)
    assert phi_dev < 1e-13
    assert mu_dev < 1e-13


def test_scaling_invariance_affine_quick(short_traj):
    phi_dev, mu_dev = checks.scaling_deviations(*short_traj, d=2.0, c=1.0)
    assert phi_dev < 1e-10
    assert mu_dev < 1e-8


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
        simulate(phi0, params, t_end=2e-5, tau=2e-5)


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

    def newton_update(ctx, r):
        log.append(("solve", ctx.factor_tau))
        return real_update(ctx, r)

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

    def counting(ctx, phi_n, mu, tau, guess=None):
        taus.append(tau)
        return real(ctx, phi_n, mu, tau, guess)

    monkeypatch.setattr(forward, "_newton_step", counting)
    with pytest.raises(MobilityError):
        simulate(phi0, bad, t_end=2e-5, tau=2e-5)
    assert taus == [2e-5]


def _sparse_grams(ctx):
    """The context's L2 gram and stiffness matrix, summed into CSR matrices."""
    return (assembled_gram(ctx.basis, ctx.grams.m_local),
            assembled_gram(ctx.basis, ctx.grams.k_local))


def _bmat_route(ctx, phi_n, phi, mu, tau):
    """Residual and Jacobian assembled from weighted grams and sp.bmat."""
    params, gamma = ctx.params, ctx.params.gamma
    M, K = _sparse_grams(ctx)
    n_quad = ctx.t0.weights.shape[1]
    w = quadrature_rule(ctx.basis.mesh, n_quad)[1]
    points = gauss_points(ctx.basis, n_quad)
    e0, e1 = basis_matrix(ctx.basis, points, 0), basis_matrix(ctx.basis, points, 1)
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
        r, point_values = ctx.residual(ctx.to_band(phi, mu), phi_n[fe.cell_dofs()], tau)
        r1, r2 = r[ctx.pattern.position]
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
        r, point_values = ctx.residual(ctx.to_band(phi, mu), phi_n[fe.cell_dofs()], tau)
        ctx.factorize(tau, point_values)
        delta = ctx.newton_update(r)
        assert delta.shape == r.shape == (2 * dof,)
        jac = _bmat_route(ctx, phi_n, phi, mu, tau)[2]
        position = ctx.pattern.position
        rhs, step = r[position].ravel(), delta[position].ravel()
        # normwise backward error: a few ulp whatever the conditioning
        assert np.max(np.abs(jac @ step - rhs)) <= 1e-14 * (
            abs(jac).sum(axis=1).max() * np.max(np.abs(step))
        )
        # these rough random states reach a condition number near 1e6 at
        # tau = 0.37, where two backward-stable solvers differ beyond 1e-12
        if tau < 0.1:
            ref = splu(jac).solve(rhs)
            assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_cells", [4, 5, 16, 64])
def test_band_dual_norm_matches_sparse_gram_solve(n_cells):
    # Newton residuals of the third step, at its start state, at the linear
    # extrapolation of the last two states and at the quadratic one it uses
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(n_cells)), default_initial_profile)
    tau = 2e-5
    traj = simulate(phi0, params, t_end=2 * tau, tau=tau)
    ctx = forward._ForwardContext(traj.basis, params)
    m, k = _sparse_grams(ctx)
    h1 = (m + k).tocsr()
    phi, mu = traj.phi, traj.mu
    for start in ((phi[2], mu[2]), (2 * phi[2] - phi[1], 2 * mu[2] - mu[1]),
                  (forward._extrapolate(phi, 2), forward._extrapolate(mu, 2))):
        r = ctx.residual(ctx.to_band(*start), phi[2][traj.basis.cell_dofs()], tau)[0]
        r1, r2 = r[ctx.pattern.position]
        ref = np.sqrt(dual_norm_sq(h1, r1) + dual_norm_sq(h1, r2))
        assert ref > 0.0
        assert abs(ctx.dual_norm(r) - ref) <= 1e-13 * ref


def test_forward_run_never_imports_scipy_sparse():
    # the grams are element grams and every band is in LAPACK storage, so
    # neither the command line nor a forward run loads scipy.sparse
    code = (
        "import sys, chident.cli\n"
        "assert 'scipy.sparse' not in sys.modules, 'import chident.cli'\n"
        "from chident.meshbasis import build_mesh, interpolate, quadratic_fe\n"
        "from chident.model import default_initial_profile, default_params\n"
        "from chident.forward import simulate\n"
        "phi0 = interpolate(quadratic_fe(build_mesh(16)), default_initial_profile)\n"
        "simulate(phi0, default_params(0.003), t_end=6e-5, tau=2e-5)\n"
        "assert 'scipy.sparse' not in sys.modules, 'simulate'\n"
    )
    src = str(Path(forward.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr


def test_forward_bits_ignore_blas_thread_count():
    # the trajectory of 100 paper steps and one band solve, hashed in child
    # processes with one and with two OpenBLAS threads
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from chident import config, forward\n"
        "from chident.meshbasis import build_mesh, interpolate, quadratic_fe\n"
        "cfg = config.paper_preset()\n"
        "fe = quadratic_fe(build_mesh(cfg.forward.n_cells))\n"
        "tau, params = cfg.forward.tau, cfg.model_params()\n"
        "traj = forward.simulate(interpolate(fe, cfg.initial_fn()), params, 100 * tau, tau)\n"
        "ctx = forward._ForwardContext(fe, params)\n"
        "phi, mu = traj.phi[-1], traj.mu[-1]\n"
        "r, point_values = ctx.residual(ctx.to_band(phi, mu), phi[fe.cell_dofs()], tau)\n"
        "ctx.factorize(tau, point_values)\n"
        "v = np.random.default_rng(0).standard_normal(r.shape)\n"
        "parts = (traj.phi, traj.mu, r, ctx.newton_update(v))\n"
        "print(hashlib.sha256(b''.join(a.tobytes() for a in parts)).hexdigest())\n"
    )
    src = str(Path(forward.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": n},
        )
        for n in ("1", "2")
    ]
    outs = [child.communicate(timeout=120) for child in children]
    for child, (_, err) in zip(children, outs):
        assert child.returncode == 0, err
    one, two = (out for out, _ in outs)
    assert one == two


def test_warm_start_skips_first_step_and_half_steps(monkeypatch):
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(32)), default_initial_profile)
    tau = 2e-5
    real_step, calls = forward._newton_step, []

    def recording(ctx, phi_n, mu, tau_s, guess=None):
        calls.append((tau_s, guess))
        if len(calls) == 4:
            raise NewtonError("forced failure of the fourth step")
        return real_step(ctx, phi_n, mu, tau_s, guess)

    monkeypatch.setattr(forward, "_newton_step", recording)
    traj = simulate(phi0, params, t_end=5 * tau, tau=tau)
    assert [(t, g is None) for t, g in calls] == [
        (tau, True), (tau, False), (tau, False), (tau, False),
        (tau / 2, True), (tau / 2, True), (tau, False),
    ]
    # the guess of step k + 1, from the recorded states up to x[k]
    formulas = {
        1: lambda x: 2.0 * x[1] - x[0],
        2: lambda x: 3.0 * x[2] - 3.0 * x[1] + x[0],
        3: lambda x: 4.0 * x[3] - 6.0 * x[2] + 4.0 * x[1] - x[0],
        4: lambda x: 4.0 * x[4] - 6.0 * x[3] + 4.0 * x[2] - x[1],
    }
    for k, (_, guess) in zip(formulas, (calls[1], calls[2], calls[3], calls[6])):
        assert np.array_equal(guess[0], formulas[k](traj.phi))
        assert np.array_equal(guess[1], formulas[k](traj.mu))
    assert traj.telemetry.bisections == 1


def test_guess_is_exact_on_cubic_states_and_keeps_mass(monkeypatch):
    # states cubic in time along directions of zero mass: from the fourth
    # step on the guess is the next state to rounding, and every guess has
    # the mass of the step's start state
    fe = quadratic_fe(build_mesh(32))
    phi0 = interpolate(fe, default_initial_profile)
    rng = np.random.default_rng(24)
    dirs = rng.standard_normal((3, 2, fe.dof_count))
    dirs -= np.array([[mass(PeriodicField(fe, v)) for v in d] for d in dirs])[..., None]
    origin, guesses = [], []

    def cubic_states(ctx, phi_n, mu, tau, guess=None):
        if not origin:
            origin.extend((phi_n, mu))
        guesses.append((phi_n, guess))
        s = len(guesses) / 4.0
        phi, mu = (x0 + s * d1 + s**2 * d2 + s**3 * d3
                   for x0, d1, d2, d3 in zip(origin, *dirs))
        return phi, mu, 1, 0.0

    monkeypatch.setattr(forward, "_newton_step", cubic_states)
    traj = simulate(phi0, default_params(0.003), t_end=8 * 2e-5, tau=2e-5)
    assert guesses[0][1] is None and len(guesses) == 8
    for k, (phi_n, guess) in enumerate(guesses[1:], start=1):
        m_n = mass(PeriodicField(fe, phi_n))
        assert abs(mass(PeriodicField(fe, guess[0])) - m_n) <= 1e-14 * abs(m_n)
        if k >= 3:
            for got, want in zip(guess, (traj.phi[k + 1], traj.mu[k + 1])):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _work(traj):
    stats = traj.telemetry
    return stats.factorizations, stats.solves, stats.bisections


def test_paper_preset_first_steps_are_pinned():
    # the forward workload of the benchmark: the first 25 paper steps
    cfg = config.paper_preset()
    phi0 = interpolate(quadratic_fe(build_mesh(cfg.forward.n_cells)), cfg.initial_fn())
    tau = cfg.forward.tau
    assert _work(simulate(phi0, cfg.model_params(), t_end=25 * tau, tau=tau)) \
        == WORK_PINS["paper_25"]


def test_reference_run_work_is_pinned(reference_run):
    assert _work(reference_run[0]) == WORK_PINS["reference"]


def test_newton_count_is_pinned_and_runs_are_deterministic():
    params = default_params(0.003)
    phi0 = interpolate(quadratic_fe(build_mesh(64)), default_initial_profile)
    runs = [simulate(phi0, params, t_end=4e-4, tau=2e-5) for _ in range(2)]
    for run in runs:
        assert _work(run) == WORK_PINS["short"]
    assert runs[0].n_states == 21
    assert runs[0].telemetry == runs[1].telemetry
    assert np.array_equal(runs[0].phi, runs[1].phi)
    assert np.array_equal(runs[0].mu, runs[1].mu)


def test_step_ends_after_its_first_update_from_a_converged_start():
    # the uniform state is a steady state: every step starts with a residual
    # under the tolerance and still makes the one update that ties its mass
    # to phi_n, from the one factor built at the first step
    phi0 = interpolate(quadratic_fe(build_mesh(64)), lambda x: np.full_like(x, 0.1))
    traj = simulate(phi0, default_params(0.003), t_end=20 * 2e-5, tau=2e-5)
    assert _work(traj) == (1, 20, 0)
    assert traj.telemetry.max_newton_iters == 1
    masses = _masses(traj)
    assert np.max(np.abs(masses - masses[0])) <= 1e-15


def test_reference_run_ends_steps_converged_with_exact_mass(reference_run):
    # a step ends at its first residual under the tolerance after an update,
    # and that update leaves the mass of phi_n to rounding
    traj = reference_run[0]
    assert 0.0 < traj.telemetry.worst_residual <= forward.NEWTON_TOL
    masses = _masses(traj)
    assert np.max(np.abs(masses - masses[0])) <= 1e-14 * abs(masses[0])
