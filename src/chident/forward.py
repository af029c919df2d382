"""Fully implicit time stepping for the mixed Cahn-Hilliard system.

One step solves, in weak form on the periodic FE space,

    (phi - phi_n, v) + tau (b(phi) grad mu, grad v) = 0
    (mu, w) - gamma (grad phi, grad w) - (f(phi), w) = 0

by a Newton iteration on the stacked (phi, mu) unknowns.  The implicit
Euler discretization keeps the mass integral constant step by step; the
Newton iteration is driven to the dual-norm residual tolerance and then
polished by one extra iteration so that conservation holds to rounding
over long runs.  The Newton Jacobian is assembled into a sparsity pattern
fixed once per run and factorized by SuperLU.  Failed steps (Newton
failure, singular Jacobian, or a non-positive mobility along an iterate)
are retried with recursive step halving, unless the mobility is already
non-positive at the start of the step, where halving cannot help.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .meshbasis import (
    BlockPattern,
    GramPair,
    PeriodicField,
    SpatialBasis,
    assemble_grams,
    basis_matrix,
    cell_shape_table,
    element_grams,
    quadrature_rule,
)
from .model import ModelParams, mass


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

    keeps the sparsity pattern of the basis.  The pattern and the constant
    blocks are set up here once; each Newton iteration only builds the
    cell-local blocks of K_b (b-weighted stiffness), C (b' mu' coupling)
    and M_f' (f'-weighted mass) and scatters them into it.
    """

    def __init__(self, basis: SpatialBasis, params: ModelParams, n_quad: int = 8):
        self.basis = basis
        self.params = params
        self.x, self.w = quadrature_rule(basis.mesh, n_quad)
        self.e0 = basis_matrix(basis, self.x, 0).tocsc()
        self.e1 = basis_matrix(basis, self.x, 1).tocsc()
        self.e0t = self.e0.T.tocsr()
        self.e1t = self.e1.T.tocsr()
        self.v0 = cell_shape_table(basis, n_quad, 0)
        self.v1 = cell_shape_table(basis, n_quad, 1)
        self.grams: GramPair = assemble_grams(basis)
        self.M = self.grams.M_L2
        self.K = self.grams.K
        self.pattern = BlockPattern(
            basis,
            2,
            [(0, 0), (0, 1), (1, 0)],
            {(0, 0): self.M, (1, 1): self.M, (1, 0): -params.gamma * self.K},
        )

    def residual_norm(self, r1: np.ndarray, r2: np.ndarray) -> float:
        z = self.grams.solve_M(np.column_stack([r1, r2]))
        return float(np.sqrt(max(r1 @ z[:, 0] + r2 @ z[:, 1], 0.0)))

    def min_mobility(self, phi: np.ndarray) -> float:
        return float(np.min(self.params.b(self.e0 @ phi)))

    def initial_mu(self, phi: np.ndarray) -> np.ndarray:
        """L2 projection of -gamma lap(phi) + f(phi) onto the basis."""
        params = self.params
        rhs = params.gamma * (self.K @ phi) + self.e0t @ (
            self.w * params.f(self.e0 @ phi)
        )
        return sp.linalg.spsolve(self.M.tocsc(), rhs)

    def residual(self, phi_n, phi, mu, tau):
        """Newton residual (r1, r2) at (phi, mu) and the point values it used.

        Raises MobilityError if the mobility is non-positive at a
        quadrature point of phi.
        """
        params = self.params
        phi_q = self.e0 @ phi
        b_q = params.b(phi_q)
        if np.min(b_q) <= 0.0:
            raise MobilityError(
                f"mobility reached {np.min(b_q):.3e} at a quadrature point"
            )
        mu_grad_q = self.e1 @ mu
        r1 = self.M @ (phi - phi_n) + tau * (self.e1t @ (self.w * b_q * mu_grad_q))
        r2 = (
            self.M @ mu
            - params.gamma * (self.K @ phi)
            - self.e0t @ (self.w * params.f(phi_q))
        )
        return r1, r2, (phi_q, b_q, mu_grad_q)

    def jacobian(self, tau, point_values) -> sp.csc_matrix:
        """Newton Jacobian from the point values ``residual`` returned."""
        params = self.params
        phi_q, b_q, mu_grad_q = point_values
        shape = (self.basis.mesh.n_cells, -1)
        w = self.w.reshape(shape)
        v0, v1 = self.v0, self.v1
        k_b = element_grams(v1, v1, w * b_q.reshape(shape))
        c = element_grams(v1, v0, w * (params.b(phi_q, 1) * mu_grad_q).reshape(shape))
        m_fp = element_grams(v0, v0, w * params.f(phi_q, 1).reshape(shape))
        return self.pattern.assemble(tau * c, tau * k_b, -m_fp)


def initial_chemical_potential(
    phi0: PeriodicField, params: ModelParams, n_quad: int = 8
) -> PeriodicField:
    """L2 projection of -gamma lap(phi0) + f(phi0) onto the basis."""
    ctx = _ForwardContext(phi0.basis, params, n_quad)
    return PeriodicField(phi0.basis, ctx.initial_mu(phi0.coef))


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
        try:
            lu = splu(ctx.jacobian(tau, point_values))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NewtonError(f"singular Newton Jacobian: {exc}") from exc
        delta = lu.solve(np.concatenate([r1, r2]))
        ndof = len(phi)
        phi -= delta[:ndof]
        mu -= delta[ndof:]
    raise NewtonError(
        f"no convergence in {max_iter} Newton iterations (residual {rnorm:.3e})"
    )


def step(
    phi_n: PeriodicField,
    mu_n: PeriodicField,
    params: ModelParams,
    tau: float,
    newton_tol: float = 1e-12,
    max_newton: int = 25,
    n_quad: int = 8,
):
    """Single implicit Euler step; returns the new (phi, mu) fields."""
    if not tau > 0.0:
        raise SolverError(f"time step must be positive, got {tau}")
    ctx = _ForwardContext(phi_n.basis, params, n_quad)
    phi, mu, _ = _newton_step(
        ctx, phi_n.coef, phi_n.coef, mu_n.coef, tau, newton_tol, max_newton
    )
    return PeriodicField(phi_n.basis, phi), PeriodicField(phi_n.basis, mu)


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


def mu_gradient_sup(traj: Trajectory, k: int, n_sample: int = 2000) -> float:
    """Sup of |grad mu| at state k, sampled on a uniform grid."""
    x = np.linspace(0.0, 1.0, n_sample, endpoint=False)
    from .meshbasis import eval_field

    return float(np.max(np.abs(eval_field(traj.mu_field(k), x, 1))))
