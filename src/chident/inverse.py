"""Equation-error identification of mobility and potential derivatives.

Inserting the observed snapshots into the weak form of the evolution
turns each unknown coefficient function into the solution of a linear
least-squares problem: the operator rows pair a parameter spline
(composed with the data) against gradients of the observation basis,
the right-hand side collects difference quotients, and the misfit is
measured per time block in the discrete H^-1 norm.  Tikhonov
regularization with a squared-H2 penalty on the parameter knots makes
the problems stable; alpha is either supplied or picked by an L-curve
scan.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .data import ObservationData, inject_noise, time_derivative
from .meshbasis import GramPair, basis_matrix, quadrature_rule
from .model import (
    NaturalSplineGrid,
    RegularizerGram,
    SplineParameter,
    assemble_param_gram,
    param_grid,
)

IDENTIFY_F = "identify-f"
IDENTIFY_B = "identify-b"
IDENTIFY_JOINT = "identify-joint"


class InverseError(ValueError):
    """Invalid assembly or solve request."""


@dataclass(frozen=True)
class StandardForm:
    """One factorization of a Tikhonov problem that serves every alpha.

    With C C' = M^-1 per block, the whitened system [C' T_i | C' y_i]
    stacked over the time blocks has the R-factor [[R_k, c], [0, rho]],
    so the misfit is ||R_k x - c||^2 + rho^2; ``residual`` = |rho| is the
    part of the data no coefficients can reach.  With L L' = R and
    z = L' x the penalty is ||z||^2, and R_k L^-T = U diag(s) V' turns
    each alpha into filter factors on ``beta`` = U' c.
    """

    r_k: np.ndarray
    c: np.ndarray
    L: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    beta: np.ndarray
    residual: float


@dataclass
class AssembledProblem:
    """Stacked equation-error system for one problem kind.

    ``T`` holds one row block per selected time (identical dof layout),
    ``y`` the matching functionals.  The misfit norm applies the inverse
    observation-space H1 gram per block; ``R`` is the parameter
    smoothness gram (block-diagonal over (b, c) for the joint problem).
    """

    kind: str
    T: np.ndarray
    y: np.ndarray
    grams: GramPair
    R: RegularizerGram
    grid: NaturalSplineGrid
    times: np.ndarray
    data_hash: str
    _factor: StandardForm | None = field(default=None, repr=False)

    @property
    def block_size(self) -> int:
        return self.grams.basis.dof_count

    @property
    def n_blocks(self) -> int:
        return len(self.times)

    @property
    def n_cols(self) -> int:
        return self.T.shape[1]

    def _blocks(self, vec: np.ndarray) -> np.ndarray:
        return vec.reshape(self.n_blocks, self.block_size)

    def weighted_misfit(self, residual: np.ndarray) -> float:
        """Block H^-1 aggregate of a stacked residual vector."""
        acc = 0.0
        for r in self._blocks(residual):
            acc += r @ self.grams.solve_M(r)
        return float(np.sqrt(max(acc, 0.0)))

    def standard_form(self) -> StandardForm:
        """Cached standard-form factorization, built on the first solve.

        The whitened rows are folded into a (k+1)-column R-factor one
        time block at a time, so the whitened operator is never formed.
        """
        if self._factor is None:
            k, bs = self.n_cols, self.block_size
            minv = self.grams.solve_M(np.eye(bs))
            whiten = np.linalg.cholesky(0.5 * (minv + minv.T))
            r = np.zeros((0, k + 1))
            for i in range(self.n_blocks):
                sl = slice(i * bs, (i + 1) * bs)
                rows = whiten.T @ np.column_stack([self.T[sl], self.y[sl]])
                r = np.linalg.qr(np.vstack([r, rows]), mode="r")
            # no more rows than columns: pad, the out-of-range residual is 0
            r = np.vstack([r, np.zeros((k + 1 - r.shape[0], k + 1))])
            pen = self.apply_regularizer(np.eye(k))
            chol = np.linalg.cholesky(0.5 * (pen + pen.T))
            u, sv, vt = np.linalg.svd(
                solve_triangular(chol, r[:k, :k].T, lower=True).T
            )
            self._factor = StandardForm(
                r_k=r[:k, :k], c=r[:k, k], L=chol, s=sv, vt=vt,
                beta=u.T @ r[:k, k], residual=float(abs(r[k, k])),
            )
        return self._factor

    def apply_regularizer(self, x: np.ndarray) -> np.ndarray:
        if self.kind == IDENTIFY_JOINT:
            n = self.grid.n_knots
            return np.concatenate(
                [self.R.apply(x[:n]), self.R.apply(x[n:])]
            )
        return self.R.apply(x)

    def penalty_norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(x @ self.apply_regularizer(x), 0.0)))

    def split(self, x: np.ndarray):
        """Unstack a joint solution into (b values, c values)."""
        if self.kind != IDENTIFY_JOINT:
            raise InverseError("split applies to the joint problem only")
        n = self.grid.n_knots
        return x[:n].copy(), x[n:].copy()


def _select_indices(data: ObservationData, times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise InverseError("no observation times selected")
    idx = np.array([data.index_of(t) for t in times])
    if np.any(idx == 0):
        raise InverseError(
            "selected times must have a predecessor on the data grid"
        )
    if len(np.unique(idx)) != len(idx):
        raise InverseError("duplicate observation times selected")
    return idx


def _check_phase_values(data: ObservationData, idx: np.ndarray):
    from .meshbasis import spline_node_values

    vals = spline_node_values(data.coef[idx])
    if not np.all(np.isfinite(vals)):
        raise InverseError("data values are not finite")
    if np.max(np.abs(vals)) > 1.0:
        raise InverseError(
            f"data values leave [-1, 1] (max |phi| = {np.max(np.abs(vals)):.6f})"
        )


class _AssemblyTables:
    """Quadrature point tables of the observation basis, built once."""

    def __init__(self, data: ObservationData, n_quad: int):
        self.x, self.w = quadrature_rule(data.basis.mesh, n_quad)
        self.e = [basis_matrix(data.basis, self.x, r) for r in range(4)]


def _assemble(
    data: ObservationData,
    gamma: float,
    kind: str,
    times,
    grid: NaturalSplineGrid | None,
    n_quad: int,
    mobility=None,
    potential=None,
) -> AssembledProblem:
    idx = _select_indices(data, times)
    _check_phase_values(data, idx)
    if grid is None:
        grid = param_grid()
    tab = _AssemblyTables(data, n_quad)
    reg = assemble_param_gram(grid)
    nk = grid.n_knots
    ncols = 2 * nk if kind == IDENTIFY_JOINT else nk
    bs = data.basis.dof_count
    T = np.empty((len(idx) * bs, ncols))
    y = np.empty(len(idx) * bs)
    m_l2 = data.grams.M_L2
    for out, k in enumerate(idx):
        t = float(data.times[k])
        c = data.coef[k]
        phi_q = tab.e[0] @ c
        dphi_q = tab.e[1] @ c
        theta = grid.eval_matrix(phi_q)
        dtau = time_derivative(data, t).coef
        sl = slice(out * bs, (out + 1) * bs)
        if kind == IDENTIFY_F:
            d3_q = tab.e[3] @ c
            T[sl] = -(tab.e[1].T @ ((tab.w * dphi_q)[:, None] * theta))
            y[sl] = m_l2 @ dtau - gamma * (
                tab.e[1].T @ (tab.w * mobility(phi_q) * d3_q)
            )
        elif kind == IDENTIFY_B:
            # gradient of mu = -gamma lap(phi) + f(phi) taken exactly on the
            # spline snapshot; differencing a re-interpolated nodal mu field
            # would double up interpolation error
            d3_q = tab.e[3] @ c
            dmu_q = -gamma * d3_q + potential(phi_q, 2) * dphi_q
            T[sl] = -(tab.e[1].T @ ((tab.w * dmu_q)[:, None] * theta))
            y[sl] = m_l2 @ dtau
        else:
            d3_q = tab.e[3] @ c
            T[sl, :nk] = gamma * (tab.e[1].T @ ((tab.w * d3_q)[:, None] * theta))
            T[sl, nk:] = -(tab.e[1].T @ ((tab.w * dphi_q)[:, None] * theta))
            y[sl] = m_l2 @ dtau
    return AssembledProblem(
        kind=kind,
        T=T,
        y=y,
        grams=data.grams,
        R=reg,
        grid=grid,
        times=np.asarray([float(data.times[k]) for k in idx]),
        data_hash=data.fingerprint(),
    )


def assemble_identify_f(
    data: ObservationData,
    gamma: float,
    mobility,
    times,
    grid: NaturalSplineGrid | None = None,
    n_quad: int = 12,
) -> AssembledProblem:
    """Equation-error system for c = b f' with the mobility known.

    Row block at time t: T_ij = -(theta_j(phi) phi', psi_i') and
    y_i = (d_tau phi, psi_i) - gamma (b(phi) phi''', psi_i').
    """
    from .model import mobility_floor

    if mobility_floor(mobility) <= 0.0:
        raise InverseError("known mobility must be strictly positive")
    return _assemble(data, gamma, IDENTIFY_F, times, grid, n_quad, mobility=mobility)


def assemble_identify_b(
    data: ObservationData,
    gamma: float,
    potential,
    times,
    grid: NaturalSplineGrid | None = None,
    n_quad: int = 12,
) -> AssembledProblem:
    """Equation-error system for the mobility with the potential known.

    The chemical potential is rebuilt from the snapshots; row block
    T_ij = -(theta_j(phi) mu', psi_i') and y_i = (d_tau phi, psi_i).
    """
    return _assemble(data, gamma, IDENTIFY_B, times, grid, n_quad, potential=potential)


def assemble_identify_joint(
    data: ObservationData,
    gamma: float,
    times,
    grid: NaturalSplineGrid | None = None,
    n_quad: int = 12,
) -> AssembledProblem:
    """Equation-error system for (b, c) together, no known parameters.

    Column blocks: gamma (theta_j(phi) phi''', psi_i') for b and
    -(theta_j(phi) phi', psi_i') for c; y_i = (d_tau phi, psi_i).
    A single observation time cannot separate b from c, so that case
    only warns.
    """
    times_arr = np.atleast_1d(np.asarray(times, dtype=float))
    if len(times_arr) < 2:
        warnings.warn(
            "joint identification from fewer than two times is rank deficient",
            stacklevel=2,
        )
    return _assemble(data, gamma, IDENTIFY_JOINT, times_arr, grid, n_quad)


@dataclass
class RegularizedSolution:
    """Tikhonov minimizer at one alpha, with its residual and penalty norms."""

    kind: str
    coefficients: np.ndarray
    alpha: float
    residual_norm: float
    solution_norm: float
    cg_iterations: int = 0  # always 0; perfbench/tracing.py still reads it


def tikhonov_solve(problem: AssembledProblem, alpha: float) -> RegularizedSolution:
    """Minimize the weighted misfit plus alpha times the penalty.

    Applies the filter factors s / (s^2 + alpha) of the cached standard
    form; the residual norm sqrt(sum (alpha beta / (s^2 + alpha))^2 +
    rho^2) and the penalty norm ||z|| come in closed form.
    """
    if not alpha > 0.0:
        raise InverseError(f"alpha must be positive, got {alpha}")
    sf = problem.standard_form()
    denom = sf.s**2 + alpha
    z = sf.s * sf.beta / denom
    x = solve_triangular(sf.L, sf.vt.T @ z, lower=True, trans="T")
    return RegularizedSolution(
        kind=problem.kind,
        coefficients=x,
        alpha=float(alpha),
        residual_norm=float(np.hypot(np.linalg.norm(alpha * sf.beta / denom),
                                     sf.residual)),
        solution_norm=float(np.linalg.norm(z)),
    )


def tikhonov_solve_direct(
    problem: AssembledProblem, alpha: float
) -> RegularizedSolution:
    """Cross-check: least squares on [R_k; sqrt(alpha) L'] x = [c; 0].

    Uses the same R-factor but no SVD; the norms are recomputed from the
    returned coefficients.
    """
    if alpha < 0.0:
        raise InverseError(f"alpha must be nonnegative, got {alpha}")
    sf = problem.standard_form()
    k = problem.n_cols
    x = np.linalg.lstsq(
        np.vstack([sf.r_k, np.sqrt(alpha) * sf.L.T]),
        np.concatenate([sf.c, np.zeros(k)]),
        rcond=None,
    )[0]
    residual = problem.T @ x - problem.y
    return RegularizedSolution(
        kind=problem.kind,
        coefficients=x,
        alpha=float(alpha),
        residual_norm=problem.weighted_misfit(residual),
        solution_norm=problem.penalty_norm(x),
    )


@dataclass
class LCurve:
    """Residual/penalty trade-off over a decreasing alpha grid."""

    alphas: np.ndarray
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    curvature: np.ndarray        # discrete Menger curvature, nan at the ends
    flagged: np.ndarray          # noise-floor points (non-monotone segments)
    corner_index: int
    solutions: list


def default_alpha_grid() -> np.ndarray:
    return np.logspace(-4, -12, 16)


def lcurve_select(
    problem: AssembledProblem,
    alphas=None,
    threads: int = 1,  # unused; perfbench/pipeline.py still passes threads=1
):
    """Scan a decreasing alpha grid and pick the L-curve corner.

    The corner maximizes the discrete (Menger) curvature of the
    log residual / log penalty polyline, restricted to triples whose
    points behave monotonically; points past the noise floor (residual
    or penalty moving the wrong way as alpha decreases) are flagged and
    excluded.  Returns (alpha_star, curve).  Every alpha reuses the one
    cached standard-form factorization.
    """
    alphas = default_alpha_grid() if alphas is None else np.asarray(alphas, float)
    if len(alphas) < 10:
        raise InverseError("alpha grid needs at least 10 points")
    if np.any(alphas <= 0.0) or np.any(np.diff(alphas) >= 0.0):
        raise InverseError("alpha grid must be positive and strictly decreasing")
    if np.log10(alphas[0] / alphas[-1]) < 4.0:
        raise InverseError("alpha grid must span at least four decades")
    sols = [tikhonov_solve(problem, a) for a in alphas]
    rho = np.array([s.residual_norm for s in sols])
    eta = np.array([s.solution_norm for s in sols])
    if np.any(rho <= 0.0) or np.any(eta <= 0.0):
        raise InverseError("degenerate L-curve (zero residual or penalty)")
    x = np.log(rho)
    y = np.log(eta)

    # noise floor: as alpha decreases rho must not increase, eta not decrease
    flagged = np.zeros(len(alphas), dtype=bool)
    slack = 1e-12
    for i in range(1, len(alphas)):
        if rho[i] > rho[i - 1] * (1.0 + slack) or eta[i] < eta[i - 1] * (1.0 - slack):
            flagged[i] = True

    curv = np.full(len(alphas), np.nan)
    for i in range(1, len(alphas) - 1):
        if flagged[i - 1] or flagged[i] or flagged[i + 1]:
            continue
        v1 = np.array([x[i] - x[i - 1], y[i] - y[i - 1]])
        v2 = np.array([x[i + 1] - x[i], y[i + 1] - y[i]])
        cross = v1[0] * v2[1] - v1[1] * v2[0]
        l1 = np.hypot(*v1)
        l2 = np.hypot(*v2)
        l3 = np.hypot(x[i + 1] - x[i - 1], y[i + 1] - y[i - 1])
        if min(l1, l2, l3) == 0.0:
            continue
        # sign flip: corners bending toward the origin get positive curvature
        curv[i] = -2.0 * cross / (l1 * l2 * l3)
    if not np.any(np.isfinite(curv)):
        raise InverseError("no valid interior point for corner selection")
    corner = int(np.nanargmax(curv))
    curve = LCurve(
        alphas=alphas,
        residual_norms=rho,
        solution_norms=eta,
        curvature=curv,
        flagged=flagged,
        corner_index=corner,
        solutions=sols,
    )
    return float(alphas[corner]), curve


def recover_fprime(
    c_sol: SplineParameter, b, b_floor: float = 1e-8
) -> SplineParameter:
    """Pointwise quotient f' = c / b refitted on the same knots."""
    knots = c_sol.grid.knots
    b_knots = np.asarray(b(knots), dtype=float)
    if np.min(b_knots) < b_floor:
        raise InverseError(
            f"mobility falls below the positivity floor ({np.min(b_knots):.3e})"
        )
    return SplineParameter(c_sol.grid, c_sol.values / b_knots, name="fprime")


def range_restricted_error(
    reconstruction, truth, intervals, n_quad: int = 32
) -> float:
    """Relative L2 distance of two parameter functions over interval unions."""
    ivs = [(float(a), float(b)) for a, b in intervals if float(b) > float(a)]
    if not ivs:
        raise InverseError("empty range for error evaluation")
    g, wref = np.polynomial.legendre.leggauss(n_quad)
    num = den = 0.0
    for a, b in ivs:
        s = 0.5 * (a + b) + 0.5 * (b - a) * g
        w = 0.5 * (b - a) * wref
        rec = np.asarray(reconstruction(s), dtype=float)
        tru = np.asarray(truth(s), dtype=float)
        num += w @ (rec - tru) ** 2
        den += w @ tru**2
    if den <= 0.0:
        raise InverseError("truth vanishes identically on the range")
    return float(np.sqrt(num / den))


@dataclass
class PerturbationProbe:
    """Measured operator and data perturbations against the noise level."""

    kind: str
    deltas: np.ndarray
    operator_dev: np.ndarray    # ||(T^delta - T) x_truth|| in the block norm
    data_dev: np.ndarray        # ||y^delta - y|| in the block norm
    slope: float                # log-log fit of operator_dev vs delta
    slope_data: float


def perturbation_scaling_probe(
    kind: str,
    data: ObservationData,
    gamma: float,
    deltas,
    x_truth: np.ndarray,
    times,
    mobility=None,
    potential=None,
    grid: NaturalSplineGrid | None = None,
    seed: int = 1234,
    n_quad: int = 12,
) -> PerturbationProbe:
    """Measure how assembly perturbations scale with the noise level.

    For each delta a noise realization is injected into clean data, the
    chosen problem kind is reassembled, and ||(T^delta - T) x_truth|| and
    ||y^delta - y|| are evaluated in the block-weighted dual norm.  The
    report carries the fitted log-log slopes (the stability bounds
    predict slope one).
    """

    def build(d: ObservationData) -> AssembledProblem:
        if kind == IDENTIFY_F:
            return assemble_identify_f(d, gamma, mobility, times, grid, n_quad)
        if kind == IDENTIFY_B:
            return assemble_identify_b(d, gamma, potential, times, grid, n_quad)
        if kind == IDENTIFY_JOINT:
            return assemble_identify_joint(d, gamma, times, grid, n_quad)
        raise InverseError(f"unknown problem kind {kind!r}")

    deltas = np.asarray(list(deltas), dtype=float)
    clean = build(data)
    x_truth = np.asarray(x_truth, dtype=float)
    if x_truth.shape != (clean.n_cols,):
        raise InverseError(
            f"x_truth has shape {x_truth.shape}, expected ({clean.n_cols},)"
        )
    op_dev = np.empty(len(deltas))
    y_dev = np.empty(len(deltas))
    for i, delta in enumerate(deltas):
        noisy, _ = inject_noise(data, float(delta), seed=seed)
        pert = build(noisy)
        op_dev[i] = clean.weighted_misfit((pert.T - clean.T) @ x_truth)
        y_dev[i] = clean.weighted_misfit(pert.y - clean.y)
    pos = (op_dev > 0.0) & (deltas > 0.0)
    slope = float(
        np.polyfit(np.log(deltas[pos]), np.log(op_dev[pos]), 1)[0]
    ) if np.count_nonzero(pos) >= 2 else np.nan
    posy = (y_dev > 0.0) & (deltas > 0.0)
    slope_y = float(
        np.polyfit(np.log(deltas[posy]), np.log(y_dev[posy]), 1)[0]
    ) if np.count_nonzero(posy) >= 2 else np.nan
    return PerturbationProbe(kind, deltas, op_dev, y_dev, slope, slope_y)
