"""Fully implicit time stepping for the mixed Cahn-Hilliard system.

One step solves, in weak form on the periodic FE space,

    (phi - phi_n, v) + tau (b(phi) grad mu, grad v) = 0
    (mu, w) - gamma (grad phi, grad w) - (f(phi), w) = 0

by a Newton iteration on the stacked (phi, mu) unknowns.  The implicit
Euler discretization keeps the mass integral constant step by step; the
Newton iteration is driven to the dual-norm residual tolerance and then
polished by one extra iteration so that conservation holds to rounding
over long runs.  Failed steps (Newton failure, singular Jacobian, or a
non-positive mobility along an iterate) are retried with recursive step
halving.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .meshbasis import (
    GramPair,
    PeriodicField,
    SpatialBasis,
    assemble_grams,
    basis_matrix,
    quadrature_rule,
    weighted_gram,
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
    """Quadrature tables and gram matrices reused across steps."""

    def __init__(self, basis: SpatialBasis, params: ModelParams, n_quad: int = 8):
        self.basis = basis
        self.params = params
        self.x, self.w = quadrature_rule(basis.mesh, n_quad)
        self.e0 = basis_matrix(basis, self.x, 0).tocsc()
        self.e1 = basis_matrix(basis, self.x, 1).tocsc()
        self.grams: GramPair = assemble_grams(basis)
        self.M = self.grams.M_L2
        self.K = self.grams.K

    def residual_norm(self, r1: np.ndarray, r2: np.ndarray) -> float:
        z1 = self.grams.solve_M(r1)
        z2 = self.grams.solve_M(r2)
        return float(np.sqrt(max(r1 @ z1 + r2 @ z2, 0.0)))


def initial_chemical_potential(
    phi0: PeriodicField, params: ModelParams, n_quad: int = 8
) -> PeriodicField:
    """L2 projection of -gamma lap(phi0) + f(phi0) onto the basis."""
    ctx = _ForwardContext(phi0.basis, params, n_quad)
    rhs = params.gamma * (ctx.K @ phi0.coef) + ctx.e0.T @ (
        ctx.w * params.f(ctx.e0 @ phi0.coef)
    )
    mu = sp.linalg.spsolve(ctx.M.tocsc(), rhs)
    return PeriodicField(phi0.basis, mu)


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
    params = ctx.params
    gamma = params.gamma
    M, K, e0, e1, w = ctx.M, ctx.K, ctx.e0, ctx.e1, ctx.w
    phi = phi.copy()
    mu = mu.copy()
    first_norm = None
    polish_left = 1
    for it in range(max_iter):
        phi_q = e0 @ phi
        b_q = params.b(phi_q)
        if np.min(b_q) <= 0.0:
            raise MobilityError(
                f"mobility reached {np.min(b_q):.3e} at a quadrature point"
            )
        k_b = weighted_gram(e1, e1, w * b_q)
        r1 = M @ (phi - phi_n) + tau * (k_b @ mu)
        r2 = M @ mu - gamma * (K @ phi) - e0.T @ (w * params.f(phi_q))
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
        mu_grad_q = e1 @ mu
        c_mat = weighted_gram(e1, e0, w * params.b(phi_q, 1) * mu_grad_q)
        m_fp = weighted_gram(e0, e0, w * params.f(phi_q, 1))
        jac = sp.bmat(
            [
                [M + tau * c_mat, tau * k_b],
                [-gamma * K - m_fp, M],
            ],
            format="csc",
        )
        try:
            lu = splu(jac)
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
        if depth >= max_depth:
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
    ``max_bisect`` levels); recorded states stay on the uniform grid.
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
    mu[0] = initial_chemical_potential(phi0, params, n_quad).coef
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
