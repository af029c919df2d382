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
from scipy.linalg.lapack import dgeqrt

from .data import ObservationData
from .meshbasis import GramPair, gauss_table, spline_node_values
from .model import (
    ModelParams,
    NaturalSplineGrid,
    RegularizerGram,
    SplineParameter,
    assemble_param_gram,
    leaves_phase_interval,
    mobility_floor,
    param_grid,
)

IDENTIFY_F = "identify-f"
IDENTIFY_B = "identify-b"
IDENTIFY_JOINT = "identify-joint"
PROBLEM_KINDS = (IDENTIFY_F, IDENTIFY_B, IDENTIFY_JOINT)


# Gauss points per observation cell of the assembly.  On a (cell, time)
# whose points stay in one knot piece, theta_j(phi) is a cubic of the cubic
# phi, degree 9 in x, so theta_j(phi) phi' psi_i' (identify-f and the joint
# c-block) has degree 13 and theta_j(phi) phi''' psi_i' (the joint b-block)
# degree 11: 7 points integrate both exactly.  The eighth point serves the
# cells whose phi crosses a knot value, exact under no fixed rule: on the
# seed-0 noisy paper observation T lies 5.0e-4 (f), 5.8e-4 (b), 6.0e-4
# (joint) from a 48-point assembly (relative, Frobenius), 1.1e-3, 1.2e-3,
# 1.5e-3 at 7 points, which save 5-9 % of the assembly time but raise each
# reference-alpha error of the benchmark (f by 7.6e-4 relative).  The known
# parameter of identify-b and identify-f lifts their degree past the rule.
N_QUAD = 8
# Gauss-Legendre points per interval of ``range_restricted_error``, and
# the rule on [-1, 1], built once
ERROR_QUAD = 32
_ERROR_NODES, _ERROR_WEIGHTS = np.polynomial.legendre.leggauss(ERROR_QUAD)
_ERROR_NODES.flags.writeable = _ERROR_WEIGHTS.flags.writeable = False
# smallest known mobility at a knot that ``recover_fprime`` divides by
B_FLOOR = 1e-8


class InverseError(ValueError):
    """Invalid assembly or solve request."""


@dataclass(frozen=True)
class StandardForm:
    """One factorization of a Tikhonov problem that serves every alpha.

    With W' W = M^-1, the whitened system [W T_i | W y_i] stacked over
    the time blocks has the R-factor [[R_k, c], [0, rho]], so the misfit
    is ||R_k x - c||^2 + rho^2; ``residual`` = |rho| is the part of the
    data no coefficients can reach.  With L L' = R and z = L' x the
    penalty is ||z||^2, and R_k L^-T = U diag(s) V' turns each alpha into
    filter factors on ``beta`` = U' c.
    """

    r_k: np.ndarray
    c: np.ndarray
    L: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    beta: np.ndarray
    residual: float

    @property
    def rho0(self) -> float:
        """Least-squares residual of the whitened stack, null directions
        counted: hypot(``residual``, ||beta_i|| over s_i <= tol) with tol =
        max(s) k eps as in numpy's ``matrix_rank``.  Where s_i is rounding
        noise, so is beta_i, and the QR route alone decides whether
        ``residual`` holds it; this value does not depend on that route.
        """
        tol = self.s.max() * len(self.s) * np.finfo(float).eps
        return float(np.hypot(self.residual, np.linalg.norm(self.beta[self.s <= tol])))


# time blocks per QR call of the standard-form fold
_FOLD_CHUNK = 10
# columns per block of that QR (the nb of LAPACK dgeqrt): fastest of 4-16
# on the 1043 x 43 joint and 1022 x 22 chunks, one BLAS thread
_QR_BLOCK = 8


@dataclass
class AssembledProblem:
    """Stacked equation-error system for one problem kind.

    ``T`` holds one row block per selected time (identical dof layout),
    ``y`` the matching functionals.  The misfit norm applies the inverse
    observation-space H1 gram per block; ``R`` is the parameter
    smoothness gram, whose factor ``penalty_factor`` carries the penalty
    (block-diagonal over (b, c) for the joint problem).
    """

    kind: str
    T: np.ndarray
    y: np.ndarray
    grams: GramPair
    R: RegularizerGram
    grid: NaturalSplineGrid
    times: np.ndarray
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
        """Block H^-1 aggregate sqrt(sum_i r_i' M^-1 r_i) of a stacked residual."""
        factor = self.grams.factor
        return factor.dual_norm(self._blocks(residual)[:, factor.order].T)

    def standard_form(self) -> StandardForm:
        """Cached standard-form factorization, built on the first solve.

        The whitened rows [W T_i | W y_i], with W the ``whitening`` of
        the grams, are folded into a (k+1)-column R-factor ``_FOLD_CHUNK``
        time blocks per call of LAPACK ``dgeqrt``, a compact-WY blocked
        Householder QR with ``_QR_BLOCK`` columns per block; R is the
        upper triangle of the first k+1 rows (fewer when the stack has
        fewer rows than columns).  Only one chunk of whitened rows exists
        at a time, so the whitened operator is never formed.
        """
        if self._factor is None:
            k, bs = self.n_cols, self.block_size
            whiten = self.grams.whitening
            t_blocks = self.T.reshape(self.n_blocks, bs, k)
            y_blocks = self._blocks(self.y)
            # the R rows so far sit just above the chunk's whitened rows, in
            # one Fortran-order buffer that a full chunk hands to dgeqrt
            # without a copy; R has n_r rows, fewer than k + 1 only while the
            # stack has fewer rows than columns
            buf = np.empty((k + 1 + _FOLD_CHUNK * bs, k + 1), order="F")
            n_r = 0
            for i in range(0, self.n_blocks, _FOLD_CHUNK):
                blocks = slice(i, min(i + _FOLD_CHUNK, self.n_blocks))
                body = buf[k + 1:k + 1 + (blocks.stop - i) * bs]
                np.matmul(whiten, t_blocks[blocks], out=body[:, :k].reshape(-1, bs, k))
                np.matmul(y_blocks[blocks], whiten.T, out=body[:, k].reshape(-1, bs))
                stack = buf[k + 1 - n_r:k + 1 + len(body)]
                qr, _, info = dgeqrt(min(_QR_BLOCK, *stack.shape), stack, 1)
                if info != 0:
                    raise InverseError(f"dgeqrt rejected argument {-info}")
                n_r = min(len(stack), k + 1)
                buf[k + 1 - n_r:k + 1] = np.triu(qr[:n_r])
            # no more rows than columns: pad, the out-of-range residual is 0
            r = np.vstack([buf[k + 1 - n_r:k + 1], np.zeros((k + 1 - n_r, k + 1))])
            chol = self.penalty_factor
            u, sv, vt = np.linalg.svd(
                solve_triangular(chol, r[:k, :k].T, lower=True).T
            )
            self._factor = StandardForm(
                r_k=r[:k, :k], c=r[:k, k], L=chol, s=sv, vt=vt,
                beta=u.T @ r[:k, k], residual=float(abs(r[k, k])),
            )
        return self._factor

    @property
    def penalty_factor(self) -> np.ndarray:
        """Lower Cholesky factor of the penalty gram: ``R.L``, or its block
        diagonal over (b, c) for the joint problem."""
        if self.kind == IDENTIFY_JOINT:
            return np.kron(np.eye(2), self.R.L)
        return self.R.L

    def penalty_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.penalty_factor.T @ x))

    def split(self, x: np.ndarray):
        """Unstack a joint solution into (b values, c values)."""
        if self.kind != IDENTIFY_JOINT:
            raise InverseError("split applies to the joint problem only")
        n = self.grid.n_knots
        return x[:n].copy(), x[n:].copy()


def select_indices(data: ObservationData, times) -> np.ndarray:
    """Grid index of each of the times, which must be at least one, lie on
    the observation grid after its first time and select distinct states."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise InverseError("no observation times selected")
    idx = data.indices_of(times)
    if np.any(idx == 0):
        raise InverseError(
            "selected times must have a predecessor on the data grid"
        )
    if len(np.unique(idx)) != len(idx):
        raise InverseError("two times select the same observation")
    return idx


# observation times per assembly block, halved for the joint problem's two
# column blocks.  The block's (point, 2 width) piece-relative local-weight
# rows, 0.51 MB on the paper grid, and the four scaled local weights beside
# them set the peak memory of the assembly; every other temporary of a block
# is freed before the rows are allocated
_ASSEMBLY_BLOCK = 8


def _snapshot_rows(
    data: ObservationData,
    gamma: float,
    kind: str,
    idx: np.ndarray,
    grid: NaturalSplineGrid,
    mobility=None,
    potential=None,
):
    """Rows G[i] = (theta_j(phi) g, psi_i') of the snapshots phi =
    data.coef[idx[i]], any indices, and for identify-f their mobility
    functionals (b(phi) phi''', psi_i') (else None).

    At a point in knot piece k, theta_j is m_left D[k, j] + m_right
    D[k + 1, j] + v_left [k == j] + v_right [k + 1 == j], D the grid's
    curvature map, so each Gauss point carries four local weights, scaled
    by w g, into a row relative to p0, the first piece of its (cell,
    snapshot).  One psi' product, one bincount and [D; I] give the rows.
    """
    tabs = [gauss_table(data.basis, N_QUAD, r) for r in (0, 1, 3)]
    cell_dofs, psi1 = tabs[1].cell_dofs, tabs[1].table
    n_cells, n_local = cell_dofs.shape
    table = np.vstack([t.table for t in tabs])   # rows: (order, point)
    w = tabs[0].weights.T[:, :, None]            # (point, cell, 1)
    nk = grid.n_knots
    knot_map = np.vstack([grid.curvature_map, np.eye(nk)])
    n_g = 2 if kind == IDENTIFY_JOINT else 1
    bs = data.basis.dof_count
    step = max(1, _ASSEMBLY_BLOCK // n_g)
    # flat (snapshot, dof) row of every (local dof, cell, snapshot) of a
    # block, and the first column of its (row, g) in the block's bincount;
    # a shorter last block uses the leading snapshots
    dof_time = cell_dofs.T[:, :, None] + bs * np.arange(step)
    row_start = (dof_time[..., None] * n_g + np.arange(n_g)) * (2 * nk)
    G = np.empty((len(idx), bs, n_g * nk))
    mob = np.empty((len(idx), bs)) if kind == IDENTIFY_F else None

    def point_weights(start, stop):
        """Knot piece of every (point, cell, snapshot) of idx[start:stop]
        and its four local weights scaled by w g: the (m, v) pairs of the
        left and the right knot as complex (g, point) arrays.  For
        identify-f the mobility functionals go into ``mob`` here.
        """
        nb = stop - start
        cells = data.coef[idx[start:stop]].T[cell_dofs].transpose(1, 0, 2)
        # phi, d phi / dx and d3 phi / dx3 as (point, cell, snapshot)
        phi_q, dphi_q, d3_q = (table @ cells.reshape(n_local, -1)).reshape(
            3, N_QUAD, n_cells, nb
        )
        if kind == IDENTIFY_F:
            gs = [-dphi_q]
            b_q = mobility(phi_q.ravel()).reshape(phi_q.shape)
            local = psi1.T @ (w * b_q * d3_q).reshape(N_QUAD, -1)
            mob[start:stop] = np.bincount(
                dof_time[:, :, :nb].ravel(), local.ravel(), bs * nb
            ).reshape(nb, bs)
        elif kind == IDENTIFY_B:
            # gradient of mu = -gamma lap(phi) + f(phi) taken exactly on the
            # spline snapshot; differencing a re-interpolated nodal mu field
            # would double up interpolation error
            fp_q = potential(phi_q.ravel(), 2).reshape(phi_q.shape)
            gs = [gamma * d3_q - fp_q * dphi_q]
        else:
            gs = [gamma * d3_q, -dphi_q]
        wg = np.empty((n_g, phi_q.size))
        for out, g in zip(wg, gs):
            np.multiply(w, g, out=out.reshape(g.shape))
        piece, (m_left, m_right, v_left, v_right) = grid.local_weights(phi_q.ravel())
        pairs = np.empty((2, n_g, piece.size), complex)
        for pair, m, v in ((pairs[0], m_left, v_left), (pairs[1], m_right, v_right)):
            np.multiply(wg, m, out=pair.real)
            np.multiply(wg, v, out=pair.imag)
        return piece.reshape(phi_q.shape), pairs

    def add_block(start, stop):
        """G rows of the snapshots idx[start:stop]."""
        nb = stop - start
        piece, pairs = point_weights(start, stop)
        p0 = piece.min(axis=0)
        width = int((piece - p0).max()) + 2
        p0 = np.minimum(p0, nk - width)
        # rows as (point, (cell, snapshot, g, j, m/v)) for the psi' product,
        # each (m, v) pair one complex entry, so that two scatters place all
        # four weights: the row of (point, g) starts at complex offset
        # (point n_g + g) width, and base, laid out (g, point) like the
        # pairs, walks its left and right knot
        base = np.arange(0, piece.size * n_g * width, width).reshape(-1, n_g).T
        base += (piece - p0).ravel()
        # each array is dropped once consumed, so that none of them shares
        # the block's peak with the rows
        del piece
        rows = np.zeros(base.size * width, complex)
        rows[base] = pairs[0]
        base += 1
        rows[base] = pairs[1]
        del base, pairs
        local = psi1.T @ rows.view(float).reshape(N_QUAD, -1)
        del rows
        # (local dof, cell, snapshot, g, j, m/v) -> ((snapshot, dof), g, m/v nk + p0 + j)
        offsets = (np.arange(width)[:, None] + np.arange(2) * nk).ravel()
        target = (row_start[:, :, :nb] + p0[:, :, None])[..., None] + offsets
        sums = np.bincount(target.ravel(), local.ravel(), bs * nb * n_g * 2 * nk)
        del target, local
        np.matmul(sums.reshape(-1, 2 * nk), knot_map, out=G[start:stop].reshape(-1, nk))

    # one call per block, so a block's temporaries are gone before the next
    for start in range(0, len(idx), step):
        add_block(start, min(start + step, len(idx)))
    return G, mob


def _assemble(
    data: ObservationData,
    gamma: float,
    kind: str,
    times,
    grid: NaturalSplineGrid | None,
    mobility=None,
    potential=None,
) -> AssembledProblem:
    """Backward equation error of every time t_k: T = G(phi_k) and
    y = M (phi_k - phi_{k-1}) / tau_data, less gamma times the mobility
    functional of phi_k for identify-f (``_snapshot_rows``)."""
    idx = select_indices(data, times)
    vals = spline_node_values(data.coef[idx])
    if not np.all(np.isfinite(vals)):
        raise InverseError("data values are not finite")
    if leaves_phase_interval(vals):
        raise InverseError(
            "data values leave the phase interval [-1, 1] "
            f"(max |phi| = {np.max(np.abs(vals)):.6f})"
        )
    grid = param_grid() if grid is None else grid
    # before T exists, so the difference quotients do not add to its peak
    y = data.grams.mass((data.coef[idx] - data.coef[idx - 1]) / data.tau_data)
    T, mob = _snapshot_rows(data, gamma, kind, idx, grid, mobility, potential)
    if mob is not None:
        y -= gamma * mob
    return AssembledProblem(
        kind=kind, T=T.reshape(-1, T.shape[2]), y=y.ravel(), grams=data.grams,
        R=assemble_param_gram(grid), grid=grid, times=data.times[idx],
    )


def assemble_identify_f(
    data: ObservationData,
    gamma: float,
    mobility,
    times,
    grid: NaturalSplineGrid | None = None,
) -> AssembledProblem:
    """Equation-error system for c = b f' with the mobility known.

    Row block at time t: T_ij = -(theta_j(phi) phi', psi_i') and
    y_i = (d_tau phi, psi_i) - gamma (b(phi) phi''', psi_i').
    """
    if mobility_floor(mobility) <= 0.0:
        raise InverseError("known mobility must be strictly positive")
    return _assemble(data, gamma, IDENTIFY_F, times, grid, mobility=mobility)


def assemble_identify_b(
    data: ObservationData,
    gamma: float,
    potential,
    times,
    grid: NaturalSplineGrid | None = None,
) -> AssembledProblem:
    """Equation-error system for the mobility with the potential known.

    The chemical potential is rebuilt from the snapshots; row block
    T_ij = -(theta_j(phi) mu', psi_i') and y_i = (d_tau phi, psi_i).
    """
    return _assemble(data, gamma, IDENTIFY_B, times, grid, potential=potential)


def assemble_identify_joint(
    data: ObservationData,
    gamma: float,
    times,
    grid: NaturalSplineGrid | None = None,
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
    return _assemble(data, gamma, IDENTIFY_JOINT, times_arr, grid)


def assemble_problem(
    kind: str,
    data: ObservationData,
    params: ModelParams,
    times,
    grid: NaturalSplineGrid | None = None,
) -> AssembledProblem:
    """Equation-error system of one problem kind under the model ``params``:
    gamma throughout, the known mobility for identify-f and the known
    potential for identify-b."""
    if kind == IDENTIFY_F:
        return assemble_identify_f(data, params.gamma, params.b, times, grid)
    if kind == IDENTIFY_B:
        return assemble_identify_b(data, params.gamma, params.F, times, grid)
    if kind == IDENTIFY_JOINT:
        return assemble_identify_joint(data, params.gamma, times, grid)
    raise InverseError(f"unknown problem kind {kind!r}")


def true_coefficients(kind: str, params: ModelParams, grid: NaturalSplineGrid) -> np.ndarray:
    """Knot values that problem ``kind`` solves for under the model
    ``params``: c = b f' (identify-f), b (identify-b), or [b; c] in the
    order of ``AssembledProblem.split`` (identify-joint)."""
    if kind == IDENTIFY_F:
        return params.c(grid.knots)
    if kind == IDENTIFY_B:
        return params.b(grid.knots)
    if kind == IDENTIFY_JOINT:
        return np.concatenate([params.b(grid.knots), params.c(grid.knots)])
    raise InverseError(f"unknown problem kind {kind!r}")


@dataclass
class RegularizedSolution:
    """Tikhonov minimizer at one alpha, with its residual and penalty norms."""

    kind: str
    coefficients: np.ndarray
    alpha: float
    residual_norm: float
    solution_norm: float
    cg_iterations: int = 0  # always 0; perfbench/tracing.py still reads it


def _filtered(sf: StandardForm, alpha: float):
    """Standard-form solution z = s beta / (s^2 + alpha) at one alpha, with
    the residual norm sqrt(sum (alpha beta / (s^2 + alpha))^2 + rho^2) and
    the penalty norm ||z|| in closed form."""
    denom = sf.s**2 + alpha
    z = sf.s * sf.beta / denom
    residual_norm = float(np.hypot(np.linalg.norm(alpha * sf.beta / denom), sf.residual))
    return z, residual_norm, float(np.linalg.norm(z))


def tikhonov_solve(problem: AssembledProblem, alpha: float) -> RegularizedSolution:
    """Minimize the weighted misfit plus alpha times the penalty.

    Applies the filter factors s / (s^2 + alpha) of the cached standard
    form; both norms come in closed form (``_filtered``).
    """
    checked_alpha(alpha)
    sf = problem.standard_form()
    z, residual_norm, solution_norm = _filtered(sf, alpha)
    x = solve_triangular(sf.L, sf.vt.T @ z, lower=True, trans="T")
    return RegularizedSolution(
        kind=problem.kind,
        coefficients=x,
        alpha=float(alpha),
        residual_norm=residual_norm,
        solution_norm=solution_norm,
    )


def tikhonov_solve_direct(
    problem: AssembledProblem, alpha: float
) -> RegularizedSolution:
    """Cross-check: least squares on [R_k; sqrt(alpha) L'] x = [c; 0].

    Uses the same R-factor but no SVD; the norms are recomputed from the
    returned coefficients.
    """
    if not 0.0 <= alpha < np.inf:
        raise InverseError(f"alpha must be finite and nonnegative, got {alpha}")
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

    @property
    def corner_at_grid_end(self) -> bool:
        """Whether the corner is the first or the last interior point, where
        the curvature may still be rising toward the end of the grid."""
        return self.corner_index in (1, len(self.alphas) - 2)


def default_alpha_grid() -> np.ndarray:
    return np.logspace(-4, -12, 16)


def checked_alpha(alpha) -> float:
    """``alpha`` as a float, if it is a Tikhonov weight: finite and positive."""
    if not 0.0 < alpha < np.inf:
        raise InverseError(f"alpha must be finite and positive, got {alpha}")
    return float(alpha)


def checked_alpha_grid(alphas) -> np.ndarray:
    """``alphas`` as a float array, if it is an L-curve grid: finite,
    positive, strictly decreasing, at least 10 points and at least four
    decades."""
    alphas = np.asarray(alphas, dtype=float)
    if not (np.all((alphas > 0.0) & (alphas < np.inf)) and np.all(np.diff(alphas) < 0.0)):
        raise InverseError("the alpha grid must be finite, positive and strictly decreasing")
    if len(alphas) < 10:
        raise InverseError("the alpha grid needs at least 10 points")
    if np.log10(alphas[0] / alphas[-1]) < 4.0:
        raise InverseError("the alpha grid must span at least four decades")
    return alphas


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
    alphas = default_alpha_grid() if alphas is None else checked_alpha_grid(alphas)
    sf = problem.standard_form()
    rho, eta = np.array([_filtered(sf, a)[1:] for a in alphas]).T
    if np.any(rho <= 0.0) or np.any(eta <= 0.0):
        raise InverseError("degenerate L-curve (zero residual or penalty)")
    x = np.log(rho)
    y = np.log(eta)

    # noise floor: as alpha decreases rho must not increase, eta not decrease
    slack = 1e-12
    flagged = np.zeros(len(alphas), dtype=bool)
    flagged[1:] = (rho[1:] > rho[:-1] * (1.0 + slack)) | (eta[1:] < eta[:-1] * (1.0 - slack))

    # Menger curvature at each interior point i from the chords i-1 -> i,
    # i -> i+1 and i-1 -> i+1
    dx, dy = np.diff(x), np.diff(y)
    cross = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    l1, l2 = np.hypot(dx[:-1], dy[:-1]), np.hypot(dx[1:], dy[1:])
    l3 = np.hypot(x[2:] - x[:-2], y[2:] - y[:-2])
    usable = ~(flagged[:-2] | flagged[1:-1] | flagged[2:]) & np.all([l1, l2, l3], axis=0)
    curv = np.full(len(alphas), np.nan)
    # sign flip: corners bending toward the origin get positive curvature
    curv[1:-1][usable] = -2.0 * cross[usable] / (l1 * l2 * l3)[usable]
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
    )
    return float(alphas[corner]), curve


def recover_fprime(c_sol: SplineParameter, b) -> SplineParameter:
    """Pointwise quotient f' = c / b refitted on the same knots."""
    knots = c_sol.grid.knots
    b_knots = np.asarray(b(knots), dtype=float)
    if np.min(b_knots) < B_FLOOR:
        raise InverseError(
            f"mobility falls below the positivity floor ({np.min(b_knots):.3e})"
        )
    return SplineParameter(c_sol.grid, c_sol.values / b_knots, name="fprime")


def range_restricted_error(reconstruction, truth, intervals) -> float:
    """Relative L2 distance of two parameter functions over interval unions."""
    ivs = [(float(a), float(b)) for a, b in intervals if float(b) > float(a)]
    if not ivs:
        raise InverseError("empty range for error evaluation")
    num = den = 0.0
    for a, b in ivs:
        s = 0.5 * (a + b) + 0.5 * (b - a) * _ERROR_NODES
        w = 0.5 * (b - a) * _ERROR_WEIGHTS
        rec = np.asarray(reconstruction(s), dtype=float)
        tru = np.asarray(truth(s), dtype=float)
        num += w @ (rec - tru) ** 2
        den += w @ tru**2
    if den <= 0.0:
        raise InverseError("truth vanishes identically on the range")
    return float(np.sqrt(num / den))
