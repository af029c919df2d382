"""Fully implicit time stepping for the mixed Cahn-Hilliard system.

One step solves, in weak form on the periodic FE space,

    (phi - phi_n, v) + tau (b(phi) grad mu, grad v) = 0
    (mu, w) - gamma (grad phi, grad w) - (f(phi), w) = 0

by a Newton iteration on the stacked (phi, mu) unknowns.  The implicit
Euler discretization keeps the mass integral constant step by step; the
Newton iteration is driven to the dual-norm residual tolerance and then
polished by one extra iteration so that conservation holds to rounding
over long runs.  The unknowns are ordered with the FE dofs folded
(0, n-1, 1, n-2, ...) and phi/mu interleaved, which makes the periodic
Jacobian a pure band; it is assembled straight into LAPACK band storage
through a pattern fixed once per run and factored and solved by one
``dgbsv`` call per Newton iteration.  Failed steps (Newton
failure, singular Jacobian, or a non-positive mobility along an iterate)
are retried with recursive step halving, unless the mobility is already
non-positive at the start of the step, where halving cannot help.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv
from scipy.sparse.linalg import spsolve

from .meshbasis import (
    BlockPattern,
    GramPair,
    PeriodicField,
    SpatialBasis,
    assemble_grams,
    element_grams,
    gauss_table,
)
from .model import ModelParams, energy, mass


class SolverError(RuntimeError):
    """Time stepping failed."""


class NewtonError(SolverError):
    """Newton iteration did not converge within the iteration budget."""


class MobilityError(SolverError):
    """Mobility evaluated non-positive along the current iterate."""


@dataclass
class Trajectory:
    """Discrete states of one simulation, on the uniform time grid."""

    basis: SpatialBasis
    tau: float
    times: np.ndarray
    phi: np.ndarray        # (n_states, dof)
    mu: np.ndarray         # (n_states, dof)

    @property
    def n_states(self) -> int:
        return len(self.times)

    def phi_field(self, k: int) -> PeriodicField:
        return PeriodicField(self.basis, self.phi[k])

    def mu_field(self, k: int) -> PeriodicField:
        return PeriodicField(self.basis, self.mu[k])


class _ForwardContext:
    """Quadrature tables, gram matrices and the Newton Jacobian pattern.

    The Jacobian of one implicit step,

        [[M + tau C, tau K_b], [-gamma K - M_f', M]],

    keeps the sparsity pattern of the basis, which ``BlockPattern`` lays
    out as a band.  The pattern and the constant blocks are set up here
    once; each Newton iteration only builds the cell-local blocks of K_b
    (b-weighted stiffness), C (b' mu' coupling) and M_f' (f'-weighted
    mass) and scatters them into the band array.  Fields are
    evaluated at the quadrature points, and functionals tested against
    the basis, through the cached cell tables ``t0`` (values) and ``t1``
    (gradients).
    """

    def __init__(self, basis: SpatialBasis, params: ModelParams, n_quad: int = 8):
        self.basis = basis
        self.params = params
        self.t0 = gauss_table(basis, n_quad, 0)
        self.t1 = gauss_table(basis, n_quad, 1)
        self.grams: GramPair = assemble_grams(basis)
        self.M = self.grams.M_L2
        self.K = self.grams.K
        self.pattern = BlockPattern(
            basis,
            2,
            [(0, 0), (0, 1), (1, 0)],
            {(0, 0): self.M, (1, 1): self.M, (1, 0): -params.gamma * self.K},
        )

    def _test(self, tab, v: np.ndarray) -> np.ndarray:
        """Pairings (v, psi_i) (or with psi_i') of point values, weights included."""
        return tab.scatter(tab.weights * v.reshape(tab.weights.shape))

    def residual_norm(self, r1: np.ndarray, r2: np.ndarray) -> float:
        z = self.grams.solve_M(np.column_stack([r1, r2]))
        return float(np.sqrt(max(r1 @ z[:, 0] + r2 @ z[:, 1], 0.0)))

    def min_mobility(self, phi: np.ndarray) -> float:
        return float(np.min(self.params.b(self.t0.gather(phi).ravel())))

    def initial_mu(self, phi: np.ndarray) -> np.ndarray:
        """L2 projection of -gamma lap(phi) + f(phi) onto the basis."""
        params = self.params
        rhs = params.gamma * (self.K @ phi) + self._test(
            self.t0, params.f(self.t0.gather(phi).ravel())
        )
        return spsolve(self.M.tocsc(), rhs)

    def residual(self, phi_n, phi, mu, tau):
        """Newton residual (r1, r2) at (phi, mu) and the point values it used.

        Raises MobilityError if the mobility is non-positive at a
        quadrature point of phi.
        """
        params = self.params
        phi_q = self.t0.gather(phi).ravel()
        b_q = params.b(phi_q)
        if np.min(b_q) <= 0.0:
            raise MobilityError(
                f"mobility reached {np.min(b_q):.3e} at a quadrature point"
            )
        mu_grad_q = self.t1.gather(mu).ravel()
        r1 = self.M @ (phi - phi_n) + tau * self._test(self.t1, b_q * mu_grad_q)
        r2 = (
            self.M @ mu
            - params.gamma * (self.K @ phi)
            - self._test(self.t0, params.f(phi_q))
        )
        return r1, r2, (phi_q, b_q, mu_grad_q)

    def jacobian(self, tau, point_values) -> np.ndarray:
        """Newton Jacobian, in band storage, from the values ``residual`` returned."""
        params = self.params
        phi_q, b_q, mu_grad_q = point_values
        w = self.t0.weights
        shape = w.shape
        v0, v1 = self.t0.table, self.t1.table
        k_b = element_grams(v1, v1, w * b_q.reshape(shape))
        c = element_grams(v1, v0, w * (params.b(phi_q, 1) * mu_grad_q).reshape(shape))
        m_fp = element_grams(v0, v0, w * params.f(phi_q, 1).reshape(shape))
        return self.pattern.assemble(tau * c, tau * k_b, -m_fp)

    def newton_update(self, tau, point_values, r1, r2) -> np.ndarray:
        """Solve J (dphi, dmu) = (r1, r2) on the band; returns rows dphi, dmu."""
        pattern = self.pattern
        rhs = np.empty(pattern.size)
        rhs[pattern.position] = (r1, r2)
        _, _, x, info = dgbsv(
            pattern.kl,
            pattern.ku,
            self.jacobian(tau, point_values),
            rhs,
            overwrite_ab=1,
            overwrite_b=1,
        )
        if info > 0:
            raise NewtonError(
                f"singular Newton Jacobian: zero pivot U[{info}, {info}]"
            )
        if info < 0:
            raise SolverError(f"dgbsv rejected argument {-info}")
        return x[pattern.position]


def _newton_step(
    ctx: _ForwardContext,
    phi_n: np.ndarray,
    phi: np.ndarray,
    mu: np.ndarray,
    tau: float,
    tol: float,
    max_iter: int,
):
    """Advance one implicit Euler step from phi_n, warm-started at (phi, mu)."""
    phi = phi.copy()
    mu = mu.copy()
    first_norm = None
    polish_left = 1
    for it in range(max_iter):
        r1, r2, point_values = ctx.residual(phi_n, phi, mu, tau)
        rnorm = ctx.residual_norm(r1, r2)
        if not np.isfinite(rnorm):
            raise NewtonError("Newton residual is not finite")
        if first_norm is None:
            first_norm = rnorm
        if rnorm <= tol:
            if polish_left == 0:
                return phi, mu, it
            polish_left -= 1
        elif rnorm > 1e6 * max(first_norm, 1.0):
            raise NewtonError(f"Newton iteration diverged (residual {rnorm:.3e})")
        dphi, dmu = ctx.newton_update(tau, point_values, r1, r2)
        phi -= dphi
        mu -= dmu
    raise NewtonError(
        f"no convergence in {max_iter} Newton iterations (residual {rnorm:.3e})"
    )


def _advance(ctx, phi_n, mu_n, tau, tol, max_iter, depth, max_depth):
    try:
        phi, mu, _ = _newton_step(ctx, phi_n, phi_n, mu_n, tau, tol, max_iter)
        return phi, mu
    except (NewtonError, MobilityError):
        # halving the step cannot help when its start state is inadmissible
        if depth >= max_depth or ctx.min_mobility(phi_n) <= 0.0:
            raise
    half = 0.5 * tau
    phi_h, mu_h = _advance(ctx, phi_n, mu_n, half, tol, max_iter, depth + 1, max_depth)
    return _advance(ctx, phi_h, mu_h, half, tol, max_iter, depth + 1, max_depth)


def simulate(
    phi0: PeriodicField,
    params: ModelParams,
    t_end: float,
    tau: float,
    newton_tol: float = 1e-12,
    max_newton: int = 25,
    max_bisect: int = 8,
    n_quad: int = 8,
) -> Trajectory:
    """Run the stepper from ``phi0`` to ``t_end`` on a uniform time grid.

    ``t_end`` must be an integer multiple of ``tau`` up to rounding.  On a
    Newton failure (no convergence, a singular Jacobian, or a non-positive
    mobility along an iterate) the step is bisected (recursively, up to
    ``max_bisect`` levels); recorded states stay on the uniform grid.  A
    step whose start state already has a non-positive mobility fails at
    once with ``MobilityError``.
    """
    if not tau > 0.0 or not t_end > 0.0:
        raise SolverError("tau and t_end must be positive")
    n_steps = round(t_end / tau)
    if n_steps < 1 or abs(n_steps * tau - t_end) > 1e-8 * max(tau, t_end):
        raise SolverError(
            f"t_end = {t_end} is not an integer multiple of tau = {tau}"
        )
    ctx = _ForwardContext(phi0.basis, params, n_quad)
    dof = phi0.basis.dof_count
    phi = np.empty((n_steps + 1, dof))
    mu = np.empty((n_steps + 1, dof))
    phi[0] = phi0.coef
    mu[0] = ctx.initial_mu(phi0.coef)
    for k in range(n_steps):
        phi[k + 1], mu[k + 1] = _advance(
            ctx, phi[k], mu[k], tau, newton_tol, max_newton, 0, max_bisect
        )
    times = np.arange(n_steps + 1) * tau
    return Trajectory(phi0.basis, tau, times, phi, mu)


@dataclass
class ScalingCheck:
    """Deviations between a rescaled run and the transformed reference."""

    d: float
    c: float
    max_rel_phi_dev: float
    max_abs_phi_dev: float
    max_rel_mu_dev: float
    max_abs_mu_dev: float


def verify_scaling_invariance(
    phi0: PeriodicField,
    params: ModelParams,
    d: float,
    c: float,
    t_end: float,
    tau: float,
    **kw,
) -> ScalingCheck:
    """Run the model and its (d, c) rescaling from the same initial state.

    The phase trajectories should agree and the rescaled chemical
    potential should equal mu / d + c; the report carries the largest
    L2 deviations over the time grid, absolute and relative.
    """
    from .model import scale_params

    base = simulate(phi0, params, t_end, tau, **kw)
    scaled = simulate(phi0, scale_params(params, d, c), t_end, tau, **kw)
    grams = assemble_grams(phi0.basis)

    def l2(v):
        return float(np.sqrt(max(v @ (grams.M_L2 @ v), 0.0)))

    ones = np.ones(phi0.basis.dof_count)
    rel_phi = abs_phi = rel_mu = abs_mu = 0.0
    for k in range(base.n_states):
        dphi = l2(scaled.phi[k] - base.phi[k])
        mu_ref = base.mu[k] / d + c * ones
        dmu = l2(scaled.mu[k] - mu_ref)
        abs_phi = max(abs_phi, dphi)
        abs_mu = max(abs_mu, dmu)
        rel_phi = max(rel_phi, dphi / max(l2(base.phi[k]), 1e-300))
        rel_mu = max(rel_mu, dmu / max(l2(mu_ref), 1e-300))
    return ScalingCheck(d, c, rel_phi, abs_phi, rel_mu, abs_mu)


def mass_series(traj: Trajectory, n_quad: int = 8) -> np.ndarray:
    """Mass integral at every recorded state."""
    return np.array(
        [mass(traj.phi_field(k), n_quad) for k in range(traj.n_states)]
    )


def energy_series(traj: Trajectory, params: ModelParams, n_quad: int = 8) -> np.ndarray:
    """Free energy at every recorded state."""
    return np.array(
        [energy(traj.phi_field(k), params, n_quad) for k in range(traj.n_states)]
    )

