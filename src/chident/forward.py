"""Fully implicit time stepping for the mixed Cahn-Hilliard system.

One step solves, in weak form on the periodic FE space,

    (phi - phi_n, v) + tau (b(phi) grad mu, grad v) = 0
    (mu, w) - gamma (grad phi, grad w) - (f(phi), w) = 0

by a chord (simplified) Newton iteration on the stacked (phi, mu)
unknowns: each iteration solves with the last band LU factor of the
Jacobian and refactors at the current iterate only when needed, the
contraction-monitored rule of Deuflhard (Newton Methods for Nonlinear
Problems, 2004) and of Hairer-Wanner (Solving ODEs II, IV.8).  The
unknowns are ordered with the FE dofs folded (0, n-1, 1, n-2, ...) and
phi/mu interleaved, which makes the periodic Jacobian a pure band; it is
assembled straight into LAPACK band storage through a pattern fixed once
per run, factored by ``dgbtrf`` and solved by ``dgbtrs``.  The factor is
rebuilt when there is none, when the step length differs from the one
it was built at (bisection), when the residual contracted by less than
``THETA`` over the last iteration, and after a failed attempt.  The
iterate stays in that band order for the whole step: the residual is
one cell-local product per cell, M (phi - phi_n) and the other linear
terms together with the nonlinear ones, and one scatter-add onto the
cells' rows; its dual norm is one ``dtbtrs`` sweep with the H1 gram's
band Cholesky factor, the update is ``dgbtrs`` on it as it is, and only
the accepted state is put back in dof order.  The results do not
depend on the BLAS thread count.  Every step after the first starts
from a polynomial extrapolation of the last states (cubic from the
fourth step on), the standard starting value of Hairer-Wanner IV.8; it
leaves a smaller first residual than a linear start.

Convergence is judged on the true residual, in the dual norm, and a
step ends at the first residual within the tolerance that follows an
update made in that step; a step whose start already meets it still
makes that one update.  The update keeps mass exact, from a frozen
factor too: the phi-rows of every Jacobian built here have column sums
1^T (M + tau C) = 1^T M and 1^T K_b = 0, and the phi-residual's sum is
1^T M (phi - phi_n), so any update removes the mass defect of the
iterate against phi_n, and the implicit Euler discretization keeps the
mass integral constant step by step.  The 1000-step paper run makes 519
factorizations for its 1861 updates.  Failed steps (Newton failure,
singular Jacobian, or a non-positive mobility along an iterate) are
retried with recursive step halving, unless the mobility is already
non-positive at the start of the step, where halving cannot help.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .meshbasis import (
    BandCholesky,
    BlockPattern,
    GramPair,
    PeriodicField,
    SpatialBasis,
    assemble_grams,
    element_grams,
    gauss_table,
)
from .model import N_QUAD, ModelParams


class SolverError(RuntimeError):
    """Time stepping failed."""


class NewtonError(SolverError):
    """Newton iteration did not converge within the iteration budget."""


class MobilityError(SolverError):
    """Mobility evaluated non-positive along the current iterate."""


# contraction ratio |r_k| / |r_{k-1}| above which the chord iteration
# rebuilds and refactors the Jacobian at the current iterate
THETA = 0.01
# a step converges once its dual-norm residual is at most NEWTON_TOL, within
# MAX_NEWTON updates; a failed step is halved at most MAX_BISECT levels deep
NEWTON_TOL = 1e-12
MAX_NEWTON = 25
MAX_BISECT = 8


@dataclass
class SolverTelemetry:
    """Deterministic work counts and extremes of one simulation.

    ``max_newton_iters`` is the most updates one accepted step took (at
    least 1), ``bisections`` counts the steps that were halved,
    ``worst_residual`` is the largest final dual-norm residual of an
    accepted step, at most ``NEWTON_TOL`` since a step ends at its first
    converged residual after an update, and ``min_mobility`` the
    smallest mobility at a quadrature point of any Newton iterate.
    """

    factorizations: int = 0
    solves: int = 0
    max_newton_iters: int = 0
    bisections: int = 0
    worst_residual: float = 0.0
    min_mobility: float = float("inf")


@dataclass
class Trajectory:
    """Discrete states of one simulation, on the uniform time grid.

    ``telemetry`` holds the solver counts of the run that produced the
    states; it is not part of the stored container.
    """

    basis: SpatialBasis
    tau: float
    times: np.ndarray
    phi: np.ndarray        # (n_states, dof)
    mu: np.ndarray         # (n_states, dof)
    telemetry: SolverTelemetry | None = field(default=None, compare=False, repr=False)

    @property
    def n_states(self) -> int:
        return len(self.times)

    def phi_field(self, k: int) -> PeriodicField:
        return PeriodicField(self.basis, self.phi[k])


class _ForwardContext:
    """Quadrature tables, gram matrices, the Jacobian pattern and its factor.

    The Jacobian of one implicit step,

        [[M + tau C, tau K_b], [-gamma K - M_f', M]],

    keeps the sparsity pattern of the basis, which ``BlockPattern`` lays
    out as a band.  The pattern and the constant blocks are set up here
    once; each Jacobian build only makes the cell-local blocks of K_b
    (b-weighted stiffness), C (b' mu' coupling) and M_f' (f'-weighted
    mass) and scatters them into the band array.

    The Newton iterate, the residual and the update are band vectors:
    arrays of the pattern's ``size`` in its ``position`` order, phi and
    mu interleaved on the folded dofs.  The residual is built cell by
    cell from the iterate's values on the rows ``cell_rows`` of each
    cell's dofs: fields at the quadrature points come from the cached
    cell tables ``t0`` (values) and ``t1`` (gradients), and one small
    matrix, the same on every cell, maps the cell's phi - phi_n, phi and
    mu coefficients and its point values of tau b mu' and f to the
    cell's rows of M (phi - phi_n) + tau K_b mu and M mu - gamma K phi -
    (f, psi).  One ``bincount`` onto ``cell_rows`` sums them; phi_n's
    cell values are gathered once per step.  Read as a (dof, 2) array, a
    band vector holds phi and mu as columns in the folded order of the
    H1 gram's band Cholesky factor L, so the dual norm ||L^-1 r|| is one
    ``dtbtrs`` sweep with it.

    The context keeps the band LU factor of the last Jacobian it built,
    with the step length it was built at.  ``factorize`` replaces it,
    ``drop_factor`` discards it after a failed attempt, and
    ``newton_update`` solves with it; ``telemetry`` counts both.
    """

    def __init__(self, basis: SpatialBasis, params: ModelParams):
        self.basis = basis
        self.params = params
        self.t0 = gauss_table(basis, N_QUAD, 0)
        self.t1 = gauss_table(basis, N_QUAD, 1)
        self.grams: GramPair = assemble_grams(basis)
        m_local, k_local = self.grams.m_local, self.grams.k_local
        self.pattern = BlockPattern(
            basis, 2, [(0, 0), (0, 1), (1, 0)],
            {(0, 0): m_local, (1, 1): m_local, (1, 0): -params.gamma * k_local},
        )
        # band-vector rows of the phi and mu dofs of every cell, (n_cells, 2, n_local)
        self.cell_rows = self.pattern.position[:, basis.cell_dofs()].transpose(1, 0, 2).copy()
        # a cell's (phi - phi_n, phi, mu, tau b mu', f) -> its (phi, mu) rows
        # of the residual, quadrature weights folded in
        m, k, w = m_local[0], k_local[0], self.t0.weights[0][:, None]
        n_local, n_quad = len(m), len(w)
        op = np.zeros((3 * n_local + 2 * n_quad, 2, n_local))
        dphi, phi, mu, flux, f = np.split(op, np.cumsum([n_local] * 3 + [n_quad]))
        dphi[:, 0], phi[:, 1], mu[:, 1] = m.T, -params.gamma * k.T, m.T
        flux[:, 0], f[:, 1] = w * self.t1.table, -w * self.t0.table
        self._cell_op = op.reshape(len(op), -1)
        self.factor_tau = None          # step length of the held factor
        self._lu = None
        self.telemetry = SolverTelemetry()

    def to_band(self, phi: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Band vector of the state (phi, mu)."""
        x = np.empty(self.pattern.size)
        x[self.pattern.position] = (phi, mu)
        return x

    def from_band(self, x: np.ndarray):
        """The (phi, mu) coefficient vectors of a band vector."""
        return x[self.pattern.position]

    def dual_norm(self, r: np.ndarray) -> float:
        """H^-1 norm of the residual pair, through the H1 gram's band factor."""
        return self.grams.factor.dual_norm(r.reshape(-1, 2))

    def min_mobility(self, phi: np.ndarray) -> float:
        return float(np.min(self.params.b(self.t0.gather(phi).ravel())))

    def initial_mu(self, phi: np.ndarray) -> np.ndarray:
        """L2 projection of -gamma lap(phi) + f(phi) onto the basis."""
        params, t0 = self.params, self.t0
        f_q = params.f(t0.gather(phi).ravel()).reshape(t0.weights.shape)
        rhs = params.gamma * self.grams.stiffness(phi) + t0.scatter(t0.weights * f_q)
        return BandCholesky(self.basis, self.grams.m_local).solve(rhs)

    def residual(self, x: np.ndarray, phi_n_cells: np.ndarray, tau: float):
        """Newton residual at the band vector x and the point values it used.

        ``phi_n_cells`` holds the step's start state on every cell,
        ``phi_n[basis.cell_dofs()]``.  Raises MobilityError if the
        mobility is non-positive at a quadrature point of phi.
        """
        params = self.params
        rows, shape = self.cell_rows, self.t0.weights.shape
        cells = x.take(rows)
        phi_c, mu_c = cells[:, 0], cells[:, 1]
        phi_q = (phi_c @ self.t0.table.T).ravel()
        b_q = params.b(phi_q)
        b_min = float(b_q.min())
        if b_min <= 0.0:
            raise MobilityError(f"mobility reached {b_min:.3e} at a quadrature point")
        stats = self.telemetry
        stats.min_mobility = min(stats.min_mobility, b_min)
        mu_grad_q = (mu_c @ self.t1.table.T).ravel()
        terms = (phi_c - phi_n_cells, cells.reshape(len(cells), -1),
                 (tau * b_q * mu_grad_q).reshape(shape), params.f(phi_q).reshape(shape))
        local = np.concatenate(terms, axis=1) @ self._cell_op
        r = np.bincount(rows.ravel(), weights=local.ravel(), minlength=self.pattern.size)
        return r, (phi_q, b_q, mu_grad_q)

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

    def factorize(self, tau, point_values) -> None:
        """Build the Jacobian at the given point values and hold its band LU."""
        self.drop_factor()
        pattern = self.pattern
        lu, piv, info = dgbtrf(
            self.jacobian(tau, point_values), pattern.kl, pattern.ku, overwrite_ab=1
        )
        if info > 0:
            raise NewtonError(
                f"singular Newton Jacobian: zero pivot U[{info}, {info}]"
            )
        if info < 0:
            raise SolverError(f"dgbtrf rejected argument {-info}")
        self._lu, self.factor_tau = (lu, piv), tau
        self.telemetry.factorizations += 1

    def drop_factor(self) -> None:
        self._lu = self.factor_tau = None

    def newton_update(self, r: np.ndarray) -> np.ndarray:
        """Solve J dx = r with the held factor; r and dx are band vectors."""
        pattern = self.pattern
        lu, piv = self._lu
        dx, info = dgbtrs(lu, pattern.kl, pattern.ku, r, piv)
        if info != 0:
            raise SolverError(f"dgbtrs rejected argument {-info}")
        self.telemetry.solves += 1
        return dx


def _newton_step(ctx: _ForwardContext, phi_n, mu, tau, guess=None):
    """Advance one implicit Euler step from phi_n.

    The iteration starts from ``guess``, a (phi, mu) pair, or else from
    (phi_n, mu).  Chord iteration: the held factor serves every update
    until the step length changes or the residual contracts by less than
    ``THETA``, and then the Jacobian is rebuilt at the current iterate.
    The step ends at the first residual within ``NEWTON_TOL`` after at
    least one update: that update ties the mass to phi_n, whatever the
    start's residual.  Returns the new state, the number of updates made
    and the final residual norm.
    """
    start = (phi_n, mu) if guess is None else guess
    x = ctx.to_band(*start)
    phi_n_cells = phi_n[ctx.basis.cell_dofs()]
    first_norm = last_norm = None
    for it in range(MAX_NEWTON):
        r, point_values = ctx.residual(x, phi_n_cells, tau)
        rnorm = ctx.dual_norm(r)
        if not np.isfinite(rnorm):
            raise NewtonError("Newton residual is not finite")
        if first_norm is None:
            first_norm = rnorm
        if rnorm <= NEWTON_TOL and it > 0:
            phi, mu = ctx.from_band(x)
            return phi, mu, it, rnorm
        if rnorm > 1e6 * max(first_norm, 1.0):
            raise NewtonError(f"Newton iteration diverged (residual {rnorm:.3e})")
        if ctx.factor_tau != tau or (
            last_norm is not None and rnorm > THETA * last_norm
        ):
            ctx.factorize(tau, point_values)
        x -= ctx.newton_update(r)
        last_norm = rnorm
    raise NewtonError(
        f"no convergence in {MAX_NEWTON} Newton iterations (residual {rnorm:.3e})"
    )


def _advance(ctx, phi_n, mu_n, tau, guess=None, depth=0):
    try:
        phi, mu, iters, rnorm = _newton_step(ctx, phi_n, mu_n, tau, guess)
        stats = ctx.telemetry
        stats.max_newton_iters = max(stats.max_newton_iters, iters)
        stats.worst_residual = max(stats.worst_residual, rnorm)
        return phi, mu
    except (NewtonError, MobilityError):
        ctx.drop_factor()
        # halving the step cannot help when its start state is inadmissible
        if depth >= MAX_BISECT or ctx.min_mobility(phi_n) <= 0.0:
            raise
    ctx.telemetry.bisections += 1
    half = 0.5 * tau
    phi_h, mu_h = _advance(ctx, phi_n, mu_n, half, depth=depth + 1)
    return _advance(ctx, phi_h, mu_h, half, depth=depth + 1)


def _extrapolate(x: np.ndarray, k: int) -> np.ndarray:
    """Polynomial extrapolation of x[k + 1] from x[k], x[k - 1], ... (k >= 1).

    Cubic from k = 3 on, quadratic at k = 2 and linear at k = 1; the
    weights sum to 1, so the mass of a conserved field is kept.
    """
    if k >= 3:
        return 4.0 * x[k] - 6.0 * x[k - 1] + 4.0 * x[k - 2] - x[k - 3]
    if k == 2:
        return 3.0 * x[k] - 3.0 * x[k - 1] + x[k - 2]
    return 2.0 * x[k] - x[k - 1]


def step_count(t_end: float, tau: float) -> int:
    """Number of steps of length ``tau`` to ``t_end``: t_end / tau, which
    must be a positive integer up to a rounding of 1e-8 max(tau, t_end)."""
    if not tau > 0.0 or not t_end > 0.0:
        raise SolverError(f"tau = {tau} and t_end = {t_end} must be positive")
    n_steps = round(t_end / tau)
    if n_steps < 1 or abs(n_steps * tau - t_end) > 1e-8 * max(tau, t_end):
        raise SolverError(
            f"t_end = {t_end} is not a positive integer multiple of tau = {tau}"
        )
    return n_steps


def simulate(phi0: PeriodicField, params: ModelParams, t_end: float, tau: float) -> Trajectory:
    """Run the stepper from ``phi0`` to ``t_end`` on a uniform time grid.

    ``t_end`` must pass ``step_count``.  Every step after the first
    starts its Newton iteration from a polynomial
    extrapolation of the last states (x = phi and mu): the cubic
    4 x_n - 6 x_(n-1) + 4 x_(n-2) - x_(n-3) from the fourth step on, the
    quadratic 3 x_n - 3 x_(n-1) + x_(n-2) at the third and the linear
    2 x_n - x_(n-1) at the second.  The weights sum to 1, so the guess
    keeps the phase mass of phi_n.  On a Newton failure (no
    convergence, a singular Jacobian, or a non-positive mobility along
    an iterate) the step is bisected (recursively, up to ``MAX_BISECT``
    levels), and the half steps start from their own start state;
    recorded states stay on the uniform grid.  A step whose start state
    already has a non-positive mobility fails at once with
    ``MobilityError``.  The returned trajectory carries the run's
    ``SolverTelemetry``.
    """
    n_steps = step_count(t_end, tau)
    ctx = _ForwardContext(phi0.basis, params)
    dof = phi0.basis.dof_count
    phi = np.empty((n_steps + 1, dof))
    mu = np.empty((n_steps + 1, dof))
    phi[0] = phi0.coef
    mu[0] = ctx.initial_mu(phi0.coef)
    for k in range(n_steps):
        guess = None if k == 0 else (_extrapolate(phi, k), _extrapolate(mu, k))
        phi[k + 1], mu[k + 1] = _advance(ctx, phi[k], mu[k], tau, guess)
    times = np.arange(n_steps + 1) * tau
    return Trajectory(phi0.basis, tau, times, phi, mu, ctx.telemetry)
