"""Observation pipeline: data grids, noise, level sets, identifiability.

Simulated trajectories are restricted to a coarser space-time grid and
re-expanded in periodic cubic splines; everything downstream (difference
quotients, chemical potential reconstruction, noise injection, level-set
diagnostics, inverse assembly) works on these spline snapshots.  The
piecewise-cubic form from ``meshbasis.cell_polys`` makes ranges, level-set
crossings, and indicator integrals exactly computable, which the co-area
diagnostics rely on; norms over the whole torus use the cached Gauss-point
tables of ``meshbasis.gauss_table``.  The level-set layer cuts every cell
cubic at the closed-form roots of phi' into monotone pieces: their end
values bound the cell, a level crosses each at most once (bracketed Newton
steps find it), and the observable range is the image under phi of the
pieces, cut again where |mu'| = threshold, on which mu' is steep.
``coarea_coefficients`` takes (time, level) pairs as two 1-D arrays of
equal length, and every field of its result is an array over the pairs.
It looks the times up once, builds each distinct snapshot's cell tables
(``CellCubics``) once, and cuts them with one ``level_crossings`` call,
which takes those tables and a 1-D array of levels and returns one table
of crossings, each carrying the index of its level.  Entry i equals a
call with pair i alone.  ``observable_range`` takes one time or a 1-D
array of times, so a caller with several times makes one call.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .meshbasis import (
    PERIODIC_CUBIC_SPLINE,
    GramPair,
    SpatialBasis,
    assemble_grams,
    build_mesh,
    cell_polys,
    cell_shape_values,
    cubic_spline_basis,
    dual_norm_Hm1,
    gauss_table,
    interpolate_many,
    poly_vals,
    spline_node_values,
)
from .forward import Trajectory
from .model import leaves_phase_interval


class DataError(ValueError):
    """Invalid observation-grid request or out-of-range data."""


@dataclass
class ObservationData:
    """Spline snapshots of the phase field on the observation grid; their
    noise state is ``delta`` alone, and ``provenance`` follows from it."""

    basis: SpatialBasis
    times: np.ndarray
    coef: np.ndarray               # (n_times, dof) spline coefficients
    tau_data: float
    delta: float = 0.0             # injected noise level, 0 = clean
    interp_sup: float = 0.0        # sup-in-time H1 restriction discrepancy
    interp_l2: float = 0.0         # L2-in-time H1 restriction discrepancy
    _grams: GramPair | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.basis.kind != PERIODIC_CUBIC_SPLINE:
            raise DataError("observation data must live in the spline basis")
        self.times = np.asarray(self.times, dtype=float)
        self.coef = np.asarray(self.coef, dtype=float)
        if self.coef.shape != (len(self.times), self.basis.dof_count):
            raise DataError(
                f"coefficient array has shape {self.coef.shape}, expected "
                f"({len(self.times)}, {self.basis.dof_count})"
            )

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def provenance(self) -> str:
        if self.delta > 0.0:
            return "interpolation+synthetic-noise"
        return "interpolation-only"

    @property
    def grams(self) -> GramPair:
        if self._grams is None:
            self._grams = assemble_grams(self.basis)
        return self._grams

    def indices_of(self, times) -> np.ndarray:
        """Grid index of each of the times: the nearest multiple of
        ``tau_data``, which must hold a stored time within 1e-9 relative."""
        t = np.asarray(times, dtype=float).reshape(-1)
        k = np.rint(t / self.tau_data)
        # fmax/fmin send NaN to 0, so an off-range or NaN k differs from idx
        idx = np.fmin(np.fmax(k, 0.0), self.n_times - 1.0).astype(np.intp)
        on_grid = (idx == k) & (
            np.abs(self.times[idx] - t)
            <= 1e-9 * np.fmax(np.abs(t), max(self.tau_data, 1e-300))
        )
        if not on_grid.all():
            raise DataError(
                f"t = {t[np.argmin(on_grid)]} is not on the observation time grid"
            )
        return idx


# doubles in each temporary array of the restriction's discrepancy loop:
# blocks of states this small stay in L2 cache (on the paper run and a
# Xeon with 4 MiB of L2, 2^15 was the fastest of 2^11 ... 2^17)
_RESTRICT_BLOCK_DOUBLES = 2**15


def data_mesh_cells(n_cells: int, n_steps: int, factor: int) -> int:
    """Cells of the data mesh that ``factor`` makes of a run of ``n_cells``
    cells and ``n_steps`` steps: the factor must be a positive integer that
    divides both and leaves at least four data cells."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise DataError(f"coarsening factor must be a positive integer, got {factor}")
    if n_cells % factor or n_steps % factor:
        raise DataError(
            f"factor {factor} does not divide mesh ({n_cells} cells) "
            f"and step count ({n_steps})"
        )
    if n_cells // factor < 4:
        raise DataError(
            f"factor {factor} leaves {n_cells} / {factor} = {n_cells // factor} "
            "data cells, need >= 4"
        )
    return n_cells // factor


def restrict_to_data_grid(traj: Trajectory, factor: int = 2) -> ObservationData:
    """Subsample a trajectory in space and time and re-expand in splines.

    Every ``factor``-th state is kept and interpolated through the FE
    vertex values on the coarsened mesh (``data_mesh_cells``).  The
    returned container records the H1 discrepancy between the spline
    snapshots and the originating FE states (sup over kept times, and an
    L2-in-time aggregate), which quantifies the data error of a clean
    restriction.
    """
    mesh = build_mesh(data_mesh_cells(traj.basis.mesh.n_cells, traj.n_states - 1, factor))
    basis = cubic_spline_basis(mesh)
    # FE vertex v sits at dof 2v; coarse node j is fine vertex j * factor
    vert_dofs = 2 * factor * np.arange(mesh.n_cells)
    kept = np.arange(0, traj.n_states, factor)
    values = traj.phi[kept][:, vert_dofs]
    coef = interpolate_many(basis, values)

    # interpolation discrepancy in H1, measured on the fine quadrature.  The
    # fine Gauss points sit at the same local coordinates in every coarse
    # cell, so one table takes a coarse cell's four spline coefficients to
    # the values and x-slopes there, and one takes a fine cell's three FE
    # coefficients to the same; both lay them out by (fine cell, order,
    # point), as are the weights.  On a fine cell the coarse cubic and the
    # FE quadratic leave integrands of degree <= 6, which the 4-point rule
    # (exact to degree 7) integrates exactly
    fine = [gauss_table(traj.basis, 4, r) for r in (0, 1)]
    u_fine = ((np.arange(factor)[:, None] + fine[0].points) / factor).ravel()
    coarse_table = np.stack(
        [cell_shape_values(basis, u_fine, r).reshape(factor, 4, 4) for r in (0, 1)], axis=1
    ).reshape(-1, 4).T                                       # (4, factor * 2 * 4)
    fe_table = np.concatenate([tab.table for tab in fine]).T  # (3, 2 * 4)
    w = np.stack([fine[0].weights] * 2, axis=1).ravel()      # (n_fine * 2 * 4,)
    coarse_dofs, fe_dofs = basis.cell_dofs(), traj.basis.cell_dofs()
    errs = np.empty(len(kept))
    block = max(1, _RESTRICT_BLOCK_DOUBLES // w.size)
    for start in range(0, len(kept), block):
        sl = slice(start, start + block)
        diff = (coef[sl][:, coarse_dofs].reshape(-1, 4) @ coarse_table).reshape(-1, w.size)
        fe = traj.phi[kept[sl]][:, fe_dofs].reshape(-1, 3) @ fe_table
        diff -= fe.reshape(diff.shape)
        np.square(diff, out=diff)
        errs[sl] = diff @ w
    errs = np.sqrt(np.maximum(errs, 0.0))
    tau_data = factor * traj.tau
    trapz = np.ones(len(kept))
    trapz[0] = trapz[-1] = 0.5
    interp_l2 = float(np.sqrt(tau_data * np.sum(trapz * errs**2)))
    return ObservationData(
        basis=basis,
        times=traj.times[kept].copy(),
        coef=coef,
        tau_data=tau_data,
        interp_sup=float(errs.max()),
        interp_l2=interp_l2,
    )


def _chemical_potentials(
    data: ObservationData, gamma: float, potential, ks: np.ndarray
) -> np.ndarray:
    """Spline coefficients (len(ks), dof) of mu = -gamma phi'' + f(phi) at
    the grid indices ks: phi'' and f(phi) at the observation nodes (the
    spline is C2, so the nodal phi'' is unambiguous), re-interpolated.
    The nodal values are the B-spline node rows (1, 4, 1) / 6 and
    (1, -2, 1) n^2 of the coefficients."""
    c = data.coef[ks]
    n = data.basis.mesh.n_cells
    d2_nodes = (np.roll(c, 1, axis=-1) - 2.0 * c + np.roll(c, -1, axis=-1)) * n**2
    mu_nodes = -gamma * d2_nodes.ravel() + potential(spline_node_values(c).ravel(), 1)
    return interpolate_many(data.basis, mu_nodes.reshape(len(ks), -1))


# --- noise ----------------------------------------------------------------


@dataclass
class NoiseRecord:
    """Attained size of one injected noise realization."""

    delta: float
    seed: int
    sup_h3: float            # max over times of the spatial H3 norm
    sup_rate_dual: float     # max over times of the H^-1 difference-quotient norm
    omega: float
    t_peak: float


def _spline_h3_norm(basis: SpatialBasis, coef: np.ndarray) -> float:
    acc = 0.0
    for order in range(4):
        tab = gauss_table(basis, 4, order)
        acc += tab.weights.ravel() @ tab.gather(coef).ravel() ** 2
    return float(np.sqrt(max(acc, 0.0)))


# Fourier modes of the spatial noise profile
NOISE_MODES = 8


def checked_noise_level(delta) -> float:
    """``delta`` as a float, if it is a noise level: finite and nonnegative."""
    if not 0.0 <= delta < np.inf:
        raise DataError(f"noise level must be finite and nonnegative, got {delta}")
    return float(delta)


def inject_noise(data: ObservationData, delta: float, seed: int = 0):
    """Add a separable perturbation eta(x, t) = p(x) q(t) to the snapshots.

    The spatial profile p is a random Fourier sum of ``NOISE_MODES``
    modes with decaying coefficients, re-expanded in the data spline space
    and scaled so that its H3 norm equals ``delta`` exactly.  The temporal
    factor q(t) = cos(omega (t - t_peak)) peaks at a randomly chosen data
    time with |q| <= 1, and omega is capped so that the H^-1 norm of the
    backward difference quotient of eta stays below ``delta`` as well.
    Both attained measures scale linearly in ``delta`` by construction
    and are returned in the accompanying record.  Only clean snapshots
    take noise: on a container whose own ``delta`` is already > 0, a
    second ``delta`` would not bound the total perturbation, so any
    ``delta`` > 0 raises ``DataError`` (``delta`` = 0 returns a copy).

    Returns the perturbed container and the noise record.
    """
    checked_noise_level(delta)
    if delta == 0.0:
        same = replace(data, times=data.times.copy(), coef=data.coef.copy())
        return same, NoiseRecord(0.0, seed, 0.0, 0.0, 0.0, float(data.times[0]))
    if data.delta > 0.0:
        raise DataError(
            f"snapshots already carry synthetic noise (delta = {data.delta}); "
            "noise is added to clean snapshots only"
        )

    rng = np.random.default_rng(seed)
    nodes = data.basis.mesh.nodes()
    profile = np.zeros_like(nodes)
    for k in range(1, NOISE_MODES + 1):
        a, b = rng.standard_normal(2) / k**2
        profile += a * np.cos(2.0 * np.pi * k * nodes) + b * np.sin(
            2.0 * np.pi * k * nodes
        )
    p_coef = interpolate_many(data.basis, profile[None, :])[0]
    h3 = _spline_h3_norm(data.basis, p_coef)
    if h3 == 0.0:
        raise DataError("degenerate noise profile")
    p_coef *= delta / h3

    p_dual = dual_norm_Hm1(data.grams.mass(p_coef), data.grams)
    omega = 0.9 * delta / p_dual
    t_peak = float(rng.choice(data.times))
    q = np.cos(omega * (data.times - t_peak))

    coef = data.coef + q[:, None] * p_coef[None, :]
    if leaves_phase_interval(spline_node_values(coef)):
        raise DataError("perturbed snapshots leave the phase interval [-1, 1]")

    sup_h3 = float(np.max(np.abs(q))) * delta
    dq = np.abs(np.diff(q)) / data.tau_data
    sup_rate = float(dq.max(initial=0.0)) * p_dual
    noisy = replace(data, times=data.times.copy(), coef=coef, delta=float(delta))
    return noisy, NoiseRecord(float(delta), seed, sup_h3, sup_rate, omega, t_peak)


# --- piecewise-cubic diagnostics -------------------------------------------


def _monotone_pieces(p: np.ndarray):
    """Cut local cubics where phi' = 0, so that phi is monotone between cuts.

    ``p`` holds monomial coefficients (..., 4).  Returns the cuts (..., 4):
    0, the roots of phi' in (0, 1) in increasing order, 1.0 in place of a
    missing root, and 1; and the values of phi at the cuts (..., 4).
    """
    r = _unit_interval_roots(3.0 * p[..., 3], 2.0 * p[..., 2], p[..., 1])
    cuts = np.empty(r.shape[:-1] + (4,))
    cuts[..., 0] = 0.0
    np.minimum(r[..., 0], r[..., 1], out=cuts[..., 1])
    np.maximum(r[..., 0], r[..., 1], out=cuts[..., 2])
    cuts[..., 3] = 1.0
    return cuts, poly_vals(p[..., None, :], cuts)


def attained_ranges(data: ObservationData, times) -> list[tuple[float, float]]:
    """Exact range over the torus of the snapshot at each of the times.

    phi is monotone between the cuts of ``_monotone_pieces``, so the range
    is one min and one max over the values at the cuts of every cell.
    """
    vals = _monotone_pieces(cell_polys(data.basis, data.coef[data.indices_of(times)]))[1]
    return list(zip(vals.min(axis=(-2, -1)).tolist(), vals.max(axis=(-2, -1)).tolist()))


def attained_range(data: ObservationData, t: float) -> tuple[float, float]:
    """Exact range of the snapshot at time t over the torus."""
    return attained_ranges(data, [t])[0]


# Newton-bisection stops once every step is this small, or after this many
_NEWTON_STEP_TOL = 1e-15
_NEWTON_MAX_ITERS = 60


@dataclass
class CellCubics:
    """Cell cubics of phi, phi' and phi''' (``cell_polys`` orders 0, 1 and
    3) of a stack of snapshots, and the snapshot that each level of a
    level-set call cuts.  A call builds one, so each snapshot's tables are
    built once however many levels cut it."""

    basis: SpatialBasis
    phi: np.ndarray      # (n_snapshots, n_cells, 4)
    slope: np.ndarray    # (n_snapshots, n_cells, 4)
    third: np.ndarray    # (n_snapshots, n_cells): phi''' is constant on a cell
    rows: np.ndarray     # (n_levels,): the snapshot that level i cuts


def cell_cubics(basis: SpatialBasis, coef: np.ndarray, rows) -> CellCubics:
    """``CellCubics`` of the snapshots ``coef`` (n_snapshots, dof), with
    level i cutting snapshot ``rows[i]``."""
    return CellCubics(
        basis, cell_polys(basis, coef), cell_polys(basis, coef, 1),
        cell_polys(basis, coef, 3)[..., 0], np.asarray(rows, dtype=np.intp),
    )


def _level_roots(cub: CellCubics, levels: np.ndarray):
    """Crossings of each level with its snapshot (``cub.rows``).

    A monotone piece (``_monotone_pieces``) holds one crossing when its
    half-open value range [start, end) holds s, so a piece constant at the
    level holds none.  A cell ends at the next cell's value at their knot,
    so a crossing at a knot lies in exactly one piece.  All held (level,
    piece) pairs are solved together by Newton steps from the secant
    point, kept inside their brackets by bisection; a level stops in the
    iteration where its own largest step is small enough, so its roots do
    not depend on the other levels or snapshots.  Returns (level index,
    cell, local coordinate), by level and cell.
    """
    cuts, vals = _monotone_pieces(cub.phi)
    vals = np.where(cuts == 1.0, np.concatenate([vals[..., 1:, :1], vals[..., :1, :1]], -2), vals)
    # a piece that holds s lies in a cell whose value bounds hold s; only
    # the pieces of those few cells are tested
    s = levels[:, None]
    lev, cells = np.nonzero(
        (vals.min(axis=-1)[cub.rows] <= s) & (s <= vals.max(axis=-1)[cub.rows])
    )
    snap = cub.rows[lev]
    start, end = vals[snap, cells, :-1], vals[snap, cells, 1:]
    s = levels[lev, None]
    cand, piece = np.nonzero(((start <= s) & (s < end)) | ((end < s) & (s <= start)))
    lev, cells, snap = lev[cand], cells[cand], snap[cand]
    s = levels[lev]
    lo, hi = cuts[snap, cells, piece], cuts[snap, cells, piece + 1]
    v0, v1 = start[cand, piece], end[cand, piece]
    rising = v1 > v0
    u = lo + (s - v0) / (v1 - v0) * (hi - lo)
    p = cub.phi[snap, cells]
    dp = p[:, 1:] * [1.0, 2.0, 3.0]                 # phi' in u, constant term first
    active = np.ones(len(levels), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITERS):
            g = poly_vals(p, u) - s
            right = (g < 0.0) == rising             # the root lies right of u
            lo = np.where(right, u, lo)
            hi = np.where(right, hi, u)
            newton = np.where(g == 0.0, u, u - g / ((dp[:, 2] * u + dp[:, 1]) * u + dp[:, 0]))
            # keep a zero step or one strictly inside the bracket; a step
            # onto an end would revisit a point and can cycle, so bisect
            keep = (newton == u) | ((lo < newton) & (newton < hi))
            nxt = np.where(keep, newton, 0.5 * (lo + hi))
            step = np.zeros(len(levels))
            np.maximum.at(step, lev, np.abs(nxt - u))
            u = np.where(active[lev], nxt, u)
            active &= ~(step <= _NEWTON_STEP_TOL)
            if not active.any():
                break
    return lev, cells, u


@dataclass
class LevelCrossings:
    """Level-set crossings, one entry per crossing, sorted by level and
    then by x."""

    s: np.ndarray          # the levels of the call
    level: np.ndarray      # index of each crossing's level in s
    x: np.ndarray          # crossing locations in [0, 1)
    slope: np.ndarray      # phi' there
    third: np.ndarray      # phi''' there (midpoint-interpolated, second order)


def level_crossings(cub: CellCubics, levels) -> LevelCrossings:
    """All points of {phi = s} with slopes and third derivatives, for each
    level s of the 1-D array ``levels``.

    ``cub`` holds the cell tables of the snapshots, and ``cub.rows[i]``
    names the snapshot that level i cuts.  The entries with ``level == i``
    equal those of a call with level i alone on its snapshot.  Each
    monotone piece whose half-open value range [start, end) holds s gives
    one crossing (``_level_roots``), so a crossing at a cut or a knot is
    counted once; a piece constant at the level gives none, and the
    co-area sample there is degenerate either way.  The spline's third
    derivative is piecewise constant, which is only first-order accurate
    at an arbitrary point but second-order accurate at cell midpoints;
    the reported value therefore interpolates the two nearest midpoint
    values linearly, restoring second-order pointwise accuracy.  At a
    knot this is the average of the two adjacent cells' values.
    """
    levels = np.asarray(levels, dtype=float)
    lev, jk, uk = _level_roots(cub, levels)
    h = cub.basis.mesh.h
    n = cub.basis.mesh.n_cells
    # a root a rounding step below u = 1 in the last cell lands on x = 1
    xk = ((jk + uk) * h) % 1.0
    order = np.lexsort((xk, lev))
    lev, xk, uk, jk = lev[order], xk[order], uk[order], jk[order]
    snap = cub.rows[lev]
    slope = poly_vals(cub.slope[snap, jk], uk)
    # between the midpoints of this cell and its nearer neighbour
    upper = uk >= 0.5
    t = np.where(upper, uk - 0.5, uk + 0.5)
    left = np.where(upper, jk, (jk - 1) % n)
    third = (1.0 - t) * cub.third[snap, left] + t * cub.third[snap, (left + 1) % n]
    return LevelCrossings(levels, lev, xk, slope, third)


def _antiderivatives(basis: SpatialBasis, coef: np.ndarray):
    """Tables of int_0^x of the splines ``coef`` (n_fields, dof): per-cell
    antiderivatives in u, scaled by h (n_fields, n_cells, 5), and their
    running sums at the knots (n_fields, n_cells + 1)."""
    p = cell_polys(basis, coef)
    anti = np.zeros((*p.shape[:-1], 5))
    anti[..., 1:] = basis.mesh.h * p / np.arange(1, 5)
    steps = np.cumsum(anti[..., 1:].sum(axis=-1), axis=-1)
    return anti, np.concatenate([np.zeros((len(p), 1)), steps], axis=-1)


def _integrate(mesh, tables, rows, x):
    """int_0^x of field ``rows`` of the ``_antiderivatives`` tables, exactly
    per piece, at points x in [0, 1]; ``rows`` broadcasts with x."""
    anti, cum = tables
    cells, u = mesh.locate(x)
    a = anti[rows, cells]
    val = a[..., 1] * u + a[..., 2] * u**2 + a[..., 3] * u**3 + a[..., 4] * u**4
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, cum[rows, -1], cum[rows, cells] + val))


@dataclass
class CoareaSample:
    """Level-set functionals at an array of (time, level) pairs; every
    field is an array over the pairs."""

    t: np.ndarray            # the time of each pair
    s: np.ndarray            # the level of each pair
    A_b: np.ndarray          # -gamma sum phi''' sign(phi')
    A_c: np.ndarray          # sum |phi'|
    A: np.ndarray            # int over {phi < s} of the difference quotient
    n_crossings: np.ndarray
    min_slope: np.ndarray    # smallest |phi'| among crossings, 0 without any
    degenerate: np.ndarray
    sup_slope: np.ndarray    # sup of |phi'| over the cell midpoints and knots, at t


# a co-area sample is degenerate when some crossing slope falls below this
# fraction of sup |phi'|
DEGENERACY_REL = 0.05


def _level_sums(lev: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum of the weights of each of n levels, float64 also without any
    entry (where ``np.bincount`` gives int64)."""
    return np.bincount(lev, weights, n).astype(float, copy=False)


def coarea_coefficients(data: ObservationData, gamma: float, s, t) -> CoareaSample:
    """Evaluate the level-set identity ingredients at (t, s) pairs.

    For smooth enough data the triple satisfies A_b b(s) + A_c c(s) = A
    with c = b f'.  A integrates the difference quotient over the
    sublevel set {phi < s}: testing the weak form of the evolution with
    the regularized indicator and integrating by parts produces exactly
    this orientation alongside the signs of A_b and A_c.  The sample is
    flagged degenerate when there is no crossing or some crossing slope
    falls below ``DEGENERACY_REL`` times the sup of |phi'|.

    ``s`` and ``t`` are 1-D arrays of equal length, and pair i is
    (t[i], s[i]).  Every field of the result is an array over the pairs,
    from one ``level_crossings`` call on the ``CellCubics`` of the
    distinct times, and entry i equals that of a call with pair i alone.
    The times are looked up once, and each difference quotient is the
    backward one at its index.
    """
    times = np.asarray(t, dtype=float)
    levels = np.asarray(s, dtype=float)
    if times.ndim != 1 or times.shape != levels.shape:
        raise DataError(f"times {times.shape} do not pair with levels {levels.shape}")
    idx = data.indices_of(times)
    ks = np.unique(idx)                      # the distinct times' indices
    rows = np.searchsorted(ks, idx)
    if len(ks) and ks[0] == 0:
        raise DataError(
            f"t = {times[np.argmin(idx)]} has no predecessor for the difference quotient"
        )
    cub = cell_cubics(data.basis, data.coef[ks], rows)
    cr = level_crossings(cub, levels)
    mesh = data.basis.mesh
    tables = _antiderivatives(data.basis, (data.coef[ks] - data.coef[ks - 1]) / data.tau_data)
    total = tables[1][:, -1]
    # sup |phi'| over the cell midpoints and the knots, per time
    sup_slope = np.maximum(
        np.max(np.abs(poly_vals(cub.slope, 0.5)), axis=-1),
        np.max(np.abs(cub.slope[..., 0]), axis=-1),
    )

    n = len(levels)
    lev, x, abs_slope = cr.level, cr.x, np.abs(cr.slope)
    snap = rows[lev]
    counts = np.bincount(lev, minlength=n)
    crossed = counts > 0
    a_b = -gamma * _level_sums(lev, cr.third * np.sign(cr.slope), n)
    a_c = _level_sums(lev, abs_slope, n)
    min_slope = np.full(n, np.inf)
    np.minimum.at(min_slope, lev, abs_slope)

    # integrate the difference quotient over {phi < s}: the gaps between
    # consecutive crossings of a level (its last wrapping to its first)
    # whose midpoint lies below the level
    first = np.cumsum(counts) - counts
    nxt = np.arange(1, len(x) + 1)
    nxt[(first + counts - 1)[crossed]] = first[crossed]
    left, right = x, x[nxt]
    wrap = right <= left
    mid = 0.5 * (left + np.where(wrap, right + 1.0, right))
    cells, u = mesh.locate(mid)
    below = poly_vals(cub.phi[snap, cells], u) < levels[lev]
    # one antiderivative lookup for both ends of every gap
    ends = _integrate(mesh, tables, np.concatenate([snap, snap]), np.concatenate([left, right]))
    ia, ib = ends[:len(x)], ends[len(x):]
    gap = np.where(wrap, total[snap] - ia + ib, ib - ia)
    a_val = _level_sums(lev[below], gap[below], n)
    if not crossed.all():
        # no crossing: phi lies wholly above or below the level, or equals
        # it, so its value at x = 0 tells whether {phi < s} is the torus
        a_val = np.where(crossed, a_val, np.where(levels > cub.phi[rows, 0, 0], total[rows], 0.0))
        # and A_b = +0 (not -gamma * 0) and smallest slope 0
        a_b[~crossed] = min_slope[~crossed] = 0.0

    degenerate = ~crossed | (min_slope < DEGENERACY_REL * sup_slope[rows])
    return CoareaSample(times, levels, a_b, a_c, a_val, counts, min_slope, degenerate,
                        sup_slope[rows])


def merge_intervals(intervals):
    """Union of closed intervals as a sorted disjoint list."""
    ivs = sorted((float(a), float(b)) for a, b in intervals if b >= a)
    out = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _unit_interval_roots(a, b, c):
    """Roots in (0, 1) of a u^2 + b u + c, two per entry of the broadcast
    shape of a, b and c, in a trailing axis of 2; 1.0 marks none.

    The pair q / a, c / q with q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2
    avoids cancellation, and c / q is the root when a = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.empty(q.shape + (2,))
        np.divide(q, a, out=roots[..., 0])
        np.divide(c, q, out=roots[..., 1])
    roots[~((roots > 0.0) & (roots < 1.0))] = 1.0
    return roots


# Absolute floor under the relative threshold of ``observable_range``.  On a
# snapshot that is constant up to rounding, mu' is rounding noise (below
# 1e-12 on 8-100 cells), and the verdict must not rest on it; the paper
# observation has sup |mu'| between 22 and 60.
MU_GRAD_FLOOR = 1e-9
# levels spread over the attained range by ``observable_range``
RANGE_LEVELS = 201


def observable_range(
    data: ObservationData,
    gamma: float,
    potential,
    t,
    threshold_rel: float = 1e-3,
    n_levels: int = RANGE_LEVELS,
):
    """Levels whose crossings see a nonzero chemical-potential gradient.

    Of ``n_levels`` levels spread evenly inside the attained range, keeps
    those with at least one crossing where |mu'| exceeds the threshold
    (relative to sup |mu'| at that time, but never below
    ``MU_GRAD_FLOOR``).  No level is solved for: these are the levels
    that phi takes on the steep set {|mu'| > threshold}.  Each cell is
    split where mu' = +-threshold and where phi' = 0, all roots of
    quadratics; on each piece phi is monotone and |mu'| - threshold keeps
    one sign, so the values phi takes on a steep piece are the closed interval between its
    end values, and a level is observable iff one such interval holds it.
    The tie, a crossing exactly where |mu'| = threshold, counts as
    observable when |mu'| exceeds the threshold on either side of it.
    Returns a list of closed level intervals for one time ``t``, or one
    such list per time for a 1-D array of times; the tables of all times
    are built together, and list i equals the call with ``t[i]`` alone.
    """
    ks = data.indices_of(t)
    m = len(ks)
    mu = _chemical_potentials(data, gamma, potential, ks)
    # the cells of all times in one column, (m * n_cells, 4)
    p = cell_polys(data.basis, data.coef[ks]).reshape(-1, 4)
    pieces, vals = _monotone_pieces(p)
    lo, hi = vals.reshape(m, -1).min(axis=1), vals.reshape(m, -1).max(axis=1)
    span = hi - lo                                  # of the attained ranges
    grad = gauss_table(data.basis, 8, 1).gather(mu).reshape(m, -1)
    threshold = np.maximum(threshold_rel * np.max(np.abs(grad), axis=1), MU_GRAD_FLOOR)
    levels = lo[:, None] + (np.arange(1, n_levels + 1) / (n_levels + 1)) * span[:, None]
    d = cell_polys(data.basis, mu, 1).reshape(-1, 4)  # mu' = d0 + d1 u + d2 u^2
    thr = np.repeat(threshold, data.basis.mesh.n_cells)
    # cut also where mu' = thr and where mu' = -thr: one root call on both
    # constant terms, two roots each
    cuts = np.sort(np.concatenate([
        pieces,
        _unit_interval_roots(
            d[:, 2:3], d[:, 1:2], d[:, :1] - thr[:, None] * [1.0, -1.0]
        ).reshape(-1, 4),
    ], axis=1), axis=1)
    mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    steep = (np.abs(poly_vals(d[:, None, :], mid)) > thr[:, None]).reshape(m, -1)
    ends = poly_vals(p[:, None, :], cuts)
    lower = np.minimum(ends[:, :-1], ends[:, 1:]).reshape(m, -1)
    upper = np.maximum(ends[:, :-1], ends[:, 1:]).reshape(m, -1)
    out = []
    for i in range(m):
        if span[i] <= 0.0:
            out.append([])
            continue
        # level s lies in #{lower <= s} - #{upper < s} of the steep images
        below = np.searchsorted(np.sort(lower[i][steep[i]]), levels[i], "right")
        under = np.searchsorted(np.sort(upper[i][steep[i]]), levels[i], "left")
        out.append(_level_runs(levels[i], below > under))
    return out if np.ndim(t) else out[0]


def _level_runs(levels: np.ndarray, good: np.ndarray) -> list[tuple[float, float]]:
    """(first, last) level of each run of consecutive ``good`` levels."""
    flags = np.concatenate(([False], good, [False]))
    # the flag changes at each run's start and one past its end, in turn
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    return list(zip(levels[edges[::2]].tolist(), levels[edges[1::2] - 1].tolist()))


def _column_scaled_cond(mats: np.ndarray) -> np.ndarray:
    """Condition numbers of a stack (n, 2, 2) of row matrices after
    scaling each matrix's columns to unit norm; ``inf`` where a column
    is zero.

    The (A_b, A_c) rows of one level at two times give the linear system
    for the pair (b(s), c(s)); its condition number tells whether the
    two are separable there.
    """
    scale = np.linalg.norm(mats, axis=1)
    usable = np.all(scale != 0.0, axis=1)
    cond = np.full(len(mats), np.inf)
    cond[usable] = np.linalg.cond(mats[usable] / scale[usable, None, :])
    return cond


# levels sampled per observation time in the observability report
LEVELS_PER_TIME = 7


@dataclass
class ObservabilityRow:
    t: float
    s: float
    A_b: float
    A_c: float
    A: float
    cond: float
    in_attained: bool
    in_observable: bool
    degenerate: bool


@dataclass
class ObservabilityReport:
    """Level-set diagnostics over a grid of observation times and levels."""

    times: np.ndarray
    attained: list
    observable: list
    rows: list

    def residual(self, b_fn, c_fn) -> np.ndarray:
        """``coarea_residual`` on the non-degenerate rows."""
        s, a_b, a_c, a = np.array(
            [(r.s, r.A_b, r.A_c, r.A) for r in self.rows if not r.degenerate], dtype=float
        ).reshape(-1, 4).T
        return coarea_residual(s, a_b, a_c, a, b_fn, c_fn)


def coarea_residual(s, a_b, a_c, a, b_fn, c_fn) -> np.ndarray:
    """Relative defect |A_b b(s) + A_c c(s) - A| / max(|A|, |A_c|) of the
    level-set identity at the levels s, from one call each of ``b_fn`` and
    ``c_fn``."""
    pred = a_b * b_fn(s) + a_c * c_fn(s)
    return np.abs(pred - a) / np.maximum(np.abs(a), np.abs(a_c))


def build_observability_report(
    data: ObservationData,
    gamma: float,
    potential,
    times=None,
    threshold_rel: float = 1e-3,
) -> ObservabilityReport:
    """Tabulate level-set functionals over sampled (time, level) pairs.

    Levels are ``LEVELS_PER_TIME`` interior quantiles of each attained
    range.  Each row pairs the time with its successor (or predecessor,
    at the boundary) for the two-time independence condition number
    (``_column_scaled_cond``, ``inf`` when either sample is degenerate).
    All (time, level) slots, each row's at its own time and then at its
    partner time, are sampled in one ``coarea_coefficients`` call, and the
    observable ranges of all times come from one ``observable_range`` call.
    """
    if times is None:
        idx = np.unique(np.linspace(1, data.n_times - 1, 5).astype(int))
        times = data.times[idx]
    times = np.asarray(sorted(float(t) for t in times))
    attained = attained_ranges(data, times)
    observable = observable_range(data, gamma, potential, times, threshold_rel=threshold_rel)
    fractions = (np.arange(LEVELS_PER_TIME) + 1.0) / (LEVELS_PER_TIME + 1.0)
    lo, hi = np.asarray(attained, dtype=float).reshape(-1, 2).T
    levels = lo[:, None] + fractions * (hi - lo)[:, None]
    n = len(times)
    partner = np.append(np.arange(1, n), max(n - 2, 0))[:n]
    # slot (0, j) is row j at its own time, slot (1, j) the same row at its
    # partner time
    slot_times = np.repeat(np.stack([times, times[partner]]), LEVELS_PER_TIME, axis=1)
    sample = coarea_coefficients(data, gamma, np.tile(levels.ravel(), 2), slot_times.ravel())
    a_b, a_c, a_val, degenerate = (
        a.reshape(slot_times.shape) for a in (sample.A_b, sample.A_c, sample.A, sample.degenerate)
    )

    # row j: its (A_b, A_c) at its own time, then at its partner time
    cond = _column_scaled_cond(np.stack([a_b, a_c], axis=-1).swapaxes(0, 1))
    cond[degenerate.any(axis=0)] = np.inf
    rows = [
        ObservabilityRow(
            t=float(times[i]),
            s=s,
            A_b=ab,
            A_c=ac,
            A=a,
            cond=c,
            in_attained=attained[i][0] <= s <= attained[i][1],
            in_observable=any(a0 <= s <= a1 for a0, a1 in observable[i]),
            degenerate=dg,
        )
        for i, s, ab, ac, a, c, dg in zip(
            np.repeat(np.arange(n), LEVELS_PER_TIME).tolist(),
            levels.ravel().tolist(), a_b[0].tolist(), a_c[0].tolist(),
            a_val[0].tolist(), cond.tolist(), degenerate[0].tolist(),
        )
    ]
    return ObservabilityReport(times, attained, observable, rows)
