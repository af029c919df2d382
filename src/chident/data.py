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
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .meshbasis import (
    PERIODIC_CUBIC_SPLINE,
    GramPair,
    PeriodicField,
    SpatialBasis,
    assemble_grams,
    build_mesh,
    cell_polys,
    cubic_spline_basis,
    dual_norm_Hm1,
    eval_field,
    gauss_table,
    interpolate_many,
    poly_vals,
    spline_node_values,
)
from .forward import Trajectory


class DataError(ValueError):
    """Invalid observation-grid request or out-of-range data."""


@dataclass
class ObservationData:
    """Spline snapshots of the phase field on the observation grid."""

    basis: SpatialBasis
    times: np.ndarray
    coef: np.ndarray               # (n_times, dof) spline coefficients
    tau_data: float
    delta: float = 0.0             # injected noise level, 0 = clean
    provenance: str = "interpolation-only"
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
    def grams(self) -> GramPair:
        if self._grams is None:
            self._grams = assemble_grams(self.basis)
        return self._grams

    def index_of(self, t: float) -> int:
        k = int(round(t / self.tau_data))
        if k < 0 or k >= self.n_times or abs(self.times[k] - t) > 1e-9 * max(
            self.tau_data, abs(t), 1e-300
        ):
            raise DataError(f"t = {t} is not on the observation time grid")
        return k

    def phi_field(self, k: int) -> PeriodicField:
        return PeriodicField(self.basis, self.coef[k])

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.int64(self.basis.mesh.n_cells).tobytes())
        h.update(self.times.tobytes())
        h.update(np.ascontiguousarray(self.coef).tobytes())
        return h.hexdigest()[:16]


def restrict_to_data_grid(traj: Trajectory, factor: int = 2) -> ObservationData:
    """Subsample a trajectory in space and time and re-expand in splines.

    Every ``factor``-th state is kept and interpolated through the FE
    vertex values on the coarsened mesh.  The returned container records
    the H1 discrepancy between the spline snapshots and the originating
    FE states (sup over kept times, and an L2-in-time aggregate), which
    quantifies the data error of a clean restriction.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise DataError(f"coarsening factor must be a positive integer, got {factor}")
    n_fine = traj.basis.mesh.n_cells
    n_steps = traj.n_states - 1
    if n_fine % factor or n_steps % factor:
        raise DataError(
            f"factor {factor} does not divide mesh ({n_fine} cells) "
            f"and step count ({n_steps})"
        )
    mesh = build_mesh(n_fine // factor)
    basis = cubic_spline_basis(mesh)
    # FE vertex v sits at dof 2v; coarse node j is fine vertex j * factor
    vert_dofs = 2 * factor * np.arange(mesh.n_cells)
    kept = np.arange(0, traj.n_states, factor)
    values = traj.phi[kept][:, vert_dofs]
    coef = interpolate_many(basis, values)

    # interpolation discrepancy in H1, measured on the fine quadrature: the
    # fine Gauss points sit at the same local coordinates in every coarse
    # cell, so the coarse field there is its cell cubics times their powers
    fine = [gauss_table(traj.basis, 8, r) for r in (0, 1)]
    u_fine = (np.arange(factor)[:, None] + fine[0].points) / factor
    powers = np.vander(u_fine.ravel(), 4, increasing=True).T
    w_fine = fine[0].weights.reshape(mesh.n_cells, -1)
    errs = np.empty(len(kept))
    # blocks of states keep each temporary near 1 MB
    block = max(1, 2**17 // w_fine.size)
    for start in range(0, len(kept), block):
        sl = slice(start, start + block)
        acc = 0.0
        for r in (0, 1):
            coarse = cell_polys(basis, coef[sl], r) @ powers
            diff = coarse - fine[r].gather(traj.phi[kept[sl]]).reshape(coarse.shape)
            acc = acc + np.sum(w_fine * diff**2, axis=(1, 2))
        errs[sl] = np.sqrt(np.maximum(acc, 0.0))
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


def time_derivative(data: ObservationData, t: float) -> PeriodicField:
    """Backward difference quotient of the snapshots at a data time."""
    k = data.index_of(t)
    if k == 0:
        raise DataError(f"t = {t} has no predecessor on the data grid")
    dcoef = (data.coef[k] - data.coef[k - 1]) / data.tau_data
    return PeriodicField(data.basis, dcoef)


def chemical_potential_from_data(
    data: ObservationData, gamma: float, potential, t: float
) -> PeriodicField:
    """Spline reconstruction of mu = -gamma phi'' + f(phi) at a data time.

    phi'' and f(phi) are evaluated at the observation nodes (the spline is
    C2, so the nodal second derivative is unambiguous) and re-interpolated.
    """
    k = data.index_of(t)
    nodes = data.basis.mesh.nodes()
    phi_nodes = eval_field(data.phi_field(k), nodes)
    d2_nodes = eval_field(data.phi_field(k), nodes, 2)
    mu_nodes = -gamma * d2_nodes + potential(phi_nodes, 1)
    coef = interpolate_many(data.basis, mu_nodes[None, :])[0]
    return PeriodicField(data.basis, coef)


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


def inject_noise(
    data: ObservationData, delta: float, seed: int = 0, n_modes: int = 8
):
    """Add a separable perturbation eta(x, t) = p(x) q(t) to the snapshots.

    The spatial profile p is a random truncated Fourier sum with decaying
    coefficients, re-expanded in the data spline space and scaled so that
    its H3 norm equals ``delta`` exactly.  The temporal factor
    q(t) = cos(omega (t - t_peak)) peaks at a randomly chosen data time
    with |q| <= 1, and omega is capped so that the H^-1 norm of the
    backward difference quotient of eta stays below ``delta`` as well.
    Both attained measures scale linearly in ``delta`` by construction
    and are returned in the accompanying record.

    Returns the perturbed container and the noise record.
    """
    if not 0.0 <= delta < np.inf:
        raise DataError(f"noise level must be finite and nonnegative, got {delta}")
    if delta == 0.0:
        clean = ObservationData(
            basis=data.basis,
            times=data.times.copy(),
            coef=data.coef.copy(),
            tau_data=data.tau_data,
            delta=0.0,
            provenance=data.provenance,
            interp_sup=data.interp_sup,
            interp_l2=data.interp_l2,
        )
        return clean, NoiseRecord(0.0, seed, 0.0, 0.0, 0.0, float(data.times[0]))

    rng = np.random.default_rng(seed)
    nodes = data.basis.mesh.nodes()
    profile = np.zeros_like(nodes)
    for k in range(1, n_modes + 1):
        a, b = rng.standard_normal(2) / k**2
        profile += a * np.cos(2.0 * np.pi * k * nodes) + b * np.sin(
            2.0 * np.pi * k * nodes
        )
    p_coef = interpolate_many(data.basis, profile[None, :])[0]
    h3 = _spline_h3_norm(data.basis, p_coef)
    if h3 == 0.0:
        raise DataError("degenerate noise profile")
    p_coef *= delta / h3

    p_dual = dual_norm_Hm1(data.grams.M_L2 @ p_coef, data.grams)
    omega = 0.9 * delta / p_dual
    t_peak = float(rng.choice(data.times))
    q = np.cos(omega * (data.times - t_peak))

    coef = data.coef + q[:, None] * p_coef[None, :]
    vals = spline_node_values(coef)
    if np.max(np.abs(vals)) >= 1.0:
        raise DataError(
            "perturbed snapshots leave the admissible phase range (-1, 1)"
        )

    sup_h3 = float(np.max(np.abs(q))) * delta
    dq = np.abs(np.diff(q)) / data.tau_data
    sup_rate = float(dq.max(initial=0.0)) * p_dual
    noisy = ObservationData(
        basis=data.basis,
        times=data.times.copy(),
        coef=coef,
        tau_data=data.tau_data,
        delta=float(delta),
        provenance="interpolation+synthetic-noise",
        interp_sup=data.interp_sup,
        interp_l2=data.interp_l2,
    )
    return noisy, NoiseRecord(float(delta), seed, sup_h3, sup_rate, omega, t_peak)


# --- piecewise-cubic diagnostics -------------------------------------------


def _monotone_pieces(p: np.ndarray):
    """Cut local cubics where phi' = 0, so that phi is monotone between cuts.

    ``p`` holds monomial coefficients (..., 4).  Returns the cuts (..., 4):
    0, the roots of phi' in (0, 1) in increasing order, 1.0 in place of a
    missing root, and 1; and the values of phi at the cuts (..., 4).
    """
    r = _unit_interval_roots(3.0 * p[..., 3], 2.0 * p[..., 2], p[..., 1])
    lo, hi = np.minimum(r[..., 0], r[..., 1]), np.maximum(r[..., 0], r[..., 1])
    cuts = np.stack([np.zeros_like(lo), lo, hi, np.ones_like(lo)], axis=-1)
    return cuts, poly_vals(p[..., None, :], cuts)


def piece_value_bounds(basis: SpatialBasis, coef: np.ndarray) -> np.ndarray:
    """Exact (min, max) of a spline on each cell.

    ``coef`` is one coefficient vector or a stack (..., dof), as for
    ``cell_polys``; the result has shape (..., n_cells, 2).
    """
    vals = np.moveaxis(_monotone_pieces(cell_polys(basis, coef))[1], -1, 0)
    # pairwise over the four cuts: a reduction along a short axis is slower
    return np.stack([reduce(np.minimum, vals), reduce(np.maximum, vals)], axis=-1)


def attained_ranges(data: ObservationData, times) -> list[tuple[float, float]]:
    """Exact range over the torus of the snapshot at each of the times."""
    idx = [data.index_of(t) for t in times]
    bounds = piece_value_bounds(data.basis, data.coef[idx])
    return list(zip(bounds[..., 0].min(axis=-1).tolist(), bounds[..., 1].max(axis=-1).tolist()))


def attained_range(data: ObservationData, t: float) -> tuple[float, float]:
    """Exact range of the snapshot at time t over the torus."""
    bounds = piece_value_bounds(data.basis, data.coef[data.index_of(t)])
    return float(bounds[:, 0].min()), float(bounds[:, 1].max())


# Newton-bisection stops once every step is this small, or after this many
_NEWTON_STEP_TOL = 1e-15
_NEWTON_MAX_ITERS = 60


def _level_roots(f: PeriodicField, s: float):
    """Crossings of a snapshot with the level s, before merging.

    A monotone piece (``_monotone_pieces``) holds one crossing when its
    half-open value range [start, end) holds s, so a piece constant at the
    level holds none.  A cell ends at the next cell's value at their knot,
    so a crossing at a knot lies in exactly one piece.  All held pieces are
    solved together by Newton steps from the secant point, kept inside
    their brackets by bisection.  Returns (cell, local coordinate), by cell.
    """
    p = cell_polys(f.basis, f.coef)
    cuts, vals = _monotone_pieces(p)
    vals = np.where(cuts == 1.0, np.concatenate([vals[1:, :1], vals[:1, :1]]), vals)
    start, end = vals[:, :-1], vals[:, 1:]
    cells, piece = np.nonzero(((start <= s) & (s < end)) | ((end < s) & (s <= start)))
    lo, hi = cuts[cells, piece], cuts[cells, piece + 1]
    v0, v1 = start[cells, piece], end[cells, piece]
    rising = v1 > v0
    u = lo + (s - v0) / (v1 - v0) * (hi - lo)
    p = p[cells]
    dp = p[:, 1:] * [1.0, 2.0, 3.0]                 # phi' in u, constant term first
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
            step = np.max(np.abs(nxt - u), initial=0.0)
            u = nxt
            if step <= _NEWTON_STEP_TOL:
                break
    return cells, u


@dataclass
class LevelCrossings:
    """Level-set crossings of one snapshot at one level."""

    s: float
    x: np.ndarray          # sorted crossing locations in [0, 1)
    slope: np.ndarray      # phi' there
    third: np.ndarray      # phi''' there (midpoint-interpolated, second order)


def level_crossings(f: PeriodicField, s: float) -> LevelCrossings:
    """All points of {phi = s} with slopes and third derivatives.

    Each monotone piece whose half-open value range [start, end) holds s
    gives one crossing (``_level_roots``); a piece constant at the level
    gives none, and the co-area sample there is degenerate either way.
    Crossings closer than 1e-9 are merged.  The spline's third derivative
    is piecewise constant, which is only first-order accurate at an
    arbitrary point but second-order accurate at cell midpoints; the
    reported value therefore interpolates the two nearest midpoint values
    linearly, restoring second-order pointwise accuracy.  A crossing merged
    onto a knot gets the average of the two adjacent pieces, which is the
    same rule at the knot position.
    """
    pcs, us = _level_roots(f, float(s))
    if not len(us):
        return LevelCrossings(s, np.empty(0), np.empty(0), np.empty(0))
    h = f.basis.mesh.h
    # a root a rounding step below u = 1 in the last cell lands on x = 1
    xs = ((pcs + us) * h) % 1.0
    order = np.argsort(xs)
    xs = xs[order]
    us = us[order]
    pcs = pcs[order]

    n = f.basis.mesh.n_cells
    # merge duplicates across cell boundaries (including the wrap-around)
    keep, merged_node = [], []
    i = 0
    m = len(xs)
    while i < m:
        j = i
        while j + 1 < m and xs[j + 1] - xs[i] < 1e-9 * max(h, 1.0):
            j += 1
        keep.append(i)
        merged_node.append(j > i or us[i] < 1e-9 or us[i] > 1.0 - 1e-9)
        i = j + 1
    if len(keep) > 1 and (xs[keep[0]] + 1.0) - xs[keep[-1]] < 1e-9 * max(h, 1.0):
        keep = keep[:-1]
        merged_node[0] = True
        merged_node = merged_node[:-1]

    uk, jk = us[keep], pcs[keep]
    slope = poly_vals(cell_polys(f.basis, f.coef, 1)[jk], uk)
    p3 = cell_polys(f.basis, f.coef, 3)[:, 0]
    # snapped to a knot: halfway between the adjacent cell midpoints
    jr = np.where(uk < 0.5, jk, (jk + 1) % n)
    at_knot = 0.5 * (p3[(jr - 1) % n] + p3[jr])
    # otherwise: between the midpoints of this cell and its nearer neighbour
    upper = uk >= 0.5
    t = np.where(upper, uk - 0.5, uk + 0.5)
    left = np.where(upper, jk, (jk - 1) % n)
    between = (1.0 - t) * p3[left] + t * p3[(left + 1) % n]
    third = np.where(merged_node, at_knot, between)
    return LevelCrossings(s, xs[keep], slope, third)


def spline_antiderivative(f: PeriodicField):
    """Closure evaluating int_0^x f for x in [0, 1], exactly per piece."""
    p = cell_polys(f.basis, f.coef)
    h = f.basis.mesh.h
    # antiderivative in u, scaled by h
    anti = np.zeros((p.shape[0], 5))
    anti[:, 1:] = h * p / np.arange(1, 5)
    cum = np.concatenate([[0.0], np.cumsum(anti[:, 1:].sum(axis=1))])

    def integral(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return float(cum[-1])
        cells, u = f.basis.mesh.locate(x)
        j = int(cells)
        val = anti[j, 1] * u + anti[j, 2] * u**2 + anti[j, 3] * u**3 + anti[j, 4] * u**4
        return float(cum[j] + val)

    return integral


@dataclass
class CoareaSample:
    """Level-set functionals of one (time, level) pair."""

    t: float
    s: float
    A_b: float             # -gamma sum phi''' sign(phi')
    A_c: float             # sum |phi'|
    A: float               # int over {phi < s} of the difference quotient
    n_crossings: int
    min_slope: float       # smallest |phi'| among crossings
    degenerate: bool
    sup_slope: float       # sup of |phi'| over the cell midpoints and knots

    def degenerate_at(self, degeneracy_rel: float) -> bool:
        """No crossing, or some crossing slope below degeneracy_rel sup |phi'|."""
        return self.n_crossings == 0 or self.min_slope < degeneracy_rel * self.sup_slope


def coarea_coefficients(
    data: ObservationData,
    gamma: float,
    s: float,
    t: float,
    degeneracy_rel: float = 0.05,
) -> CoareaSample:
    """Evaluate the level-set identity ingredients at one (t, s) pair.

    For smooth enough data the triple satisfies A_b b(s) + A_c c(s) = A
    with c = b f'.  A integrates the difference quotient over the
    sublevel set {phi < s}: testing the weak form of the evolution with
    the regularized indicator and integrating by parts produces exactly
    this orientation alongside the signs of A_b and A_c.  The sample is
    flagged degenerate when there is no crossing or some crossing slope
    falls below ``degeneracy_rel`` times the sup of |phi'|.
    """
    k = data.index_of(t)
    if k == 0:
        raise DataError(f"t = {t} has no predecessor for the difference quotient")
    f = data.phi_field(k)
    cr = level_crossings(f, s)
    dphi = time_derivative(data, t)
    integral = spline_antiderivative(dphi)
    # sup |phi'| over the cell midpoints and the knots
    p1 = cell_polys(f.basis, f.coef, 1)
    sup_slope = float(max(np.max(np.abs(poly_vals(p1, 0.5))), np.max(np.abs(p1[:, 0]))))
    if len(cr.x) == 0:
        lo, hi = attained_range(data, t)
        a_val = integral(1.0) if s > hi else 0.0
        return CoareaSample(t, s, 0.0, 0.0, a_val, 0, 0.0, True, sup_slope)

    a_b = -gamma * float(np.sum(cr.third * np.sign(cr.slope)))
    a_c = float(np.sum(np.abs(cr.slope)))

    # integrate the difference quotient over {phi < s}: the gaps between
    # consecutive crossings whose midpoint lies below the level
    left = cr.x
    right = np.roll(left, -1)
    wrap = right <= left
    mid = 0.5 * (left + np.where(wrap, right + 1.0, right))
    below = eval_field(f, mid) < s
    a_val = 0.0
    for a, b, wrapped in zip(left[below], right[below], wrap[below]):
        if wrapped:
            a_val += integral(1.0) - integral(a) + integral(b)
        else:
            a_val += integral(b) - integral(a)

    min_slope = float(np.min(np.abs(cr.slope)))
    degenerate = min_slope < degeneracy_rel * sup_slope
    return CoareaSample(
        t, s, a_b, a_c, a_val, len(cr.x), min_slope, degenerate, sup_slope
    )


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
    """Roots in (0, 1) of a u^2 + b u + c, two per row; 1.0 marks none.

    The pair q / a, c / q with q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2
    avoids cancellation, and c / q is the root when a = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.stack([q / a, c / q], axis=-1)
    return np.where((roots > 0.0) & (roots < 1.0), roots, 1.0)


# Absolute floor under the relative threshold of ``observable_range``.  On a
# snapshot that is constant up to rounding, mu' is rounding noise (below
# 1e-12 on 8-100 cells), and the verdict must not rest on it; the paper
# observation has sup |mu'| between 22 and 60.
MU_GRAD_FLOOR = 1e-9


def observable_range(
    data: ObservationData,
    gamma: float,
    potential,
    t: float,
    threshold: float | None = None,
    threshold_rel: float = 1e-3,
    n_levels: int = 201,
):
    """Levels whose crossings see a nonzero chemical-potential gradient.

    Of ``n_levels`` levels spread evenly inside the attained range, keeps
    those with at least one crossing where |mu'| exceeds the threshold
    (relative to sup |mu'| at that time, but never below
    ``MU_GRAD_FLOOR``, unless an absolute value is given).  No level is
    solved for: these are the levels that phi takes on the steep set
    {|mu'| > threshold}.  Each cell is split where
    mu' = +-threshold and where phi' = 0, all roots of quadratics; on each
    piece phi is monotone and |mu'| - threshold keeps one sign, so the
    values phi takes on a steep piece are the closed interval between its
    end values, and a level is observable iff one such interval holds it.
    The tie, a crossing exactly where |mu'| = threshold, counts as
    observable when |mu'| exceeds the threshold on either side of it.
    Returns a list of closed level intervals.
    """
    k = data.index_of(t)
    mu = chemical_potential_from_data(data, gamma, potential, t)
    lo, hi = attained_range(data, t)
    span = hi - lo
    if span <= 0.0:
        return []
    if threshold is None:
        grad = gauss_table(data.basis, 8, 1).gather(mu.coef)
        threshold = max(threshold_rel * float(np.max(np.abs(grad))), MU_GRAD_FLOOR)
    levels = lo + (np.arange(1, n_levels + 1) / (n_levels + 1)) * span
    p = cell_polys(data.basis, data.coef[k])
    d = cell_polys(data.basis, mu.coef, 1)          # mu' = d0 + d1 u + d2 u^2
    cuts = np.sort(np.concatenate([
        _monotone_pieces(p)[0],
        _unit_interval_roots(d[:, 2], d[:, 1], d[:, 0] - threshold),
        _unit_interval_roots(d[:, 2], d[:, 1], d[:, 0] + threshold),
    ], axis=1), axis=1)
    mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    steep = np.abs(poly_vals(d[:, None, :], mid)) > threshold
    ends = poly_vals(p[:, None, :], cuts)
    left, right = ends[:, :-1][steep], ends[:, 1:][steep]
    # level s lies in #{lower <= s} - #{upper < s} of the steep images
    lower = np.sort(np.minimum(left, right))
    upper = np.sort(np.maximum(left, right))
    good = np.searchsorted(lower, levels, "right") > np.searchsorted(upper, levels, "left")
    intervals = []
    i = 0
    while i < n_levels:
        if good[i]:
            j = i
            while j + 1 < n_levels and good[j + 1]:
                j += 1
            intervals.append((float(levels[i]), float(levels[j])))
            i = j + 1
        else:
            i += 1
    return intervals


def independence_check(
    data: ObservationData,
    gamma: float,
    s: float,
    t1: float,
    t2: float,
    cond_cap: float = 1e4,
):
    """Condition the 2x2 system built from (A_b, A_c) rows at two times.

    Two observation times at a fixed level give the linear system for
    the pair (b(s), c(s)); its column-scaled condition number tells
    whether the two are separable there.  Returns (condition, verdict,
    row matrix).  Degenerate level sets at either time are an error.
    """
    samples = [coarea_coefficients(data, gamma, s, t) for t in (t1, t2)]
    return _independence(samples, cond_cap)


def _independence(samples, cond_cap: float):
    """``independence_check`` on two co-area samples of one level.

    The degeneracy test is that of ``coarea_coefficients`` at its default
    ``degeneracy_rel`` of 0.05, whatever the samples were flagged with.
    """
    for sample in samples:
        if sample.degenerate_at(0.05):
            raise DataError(
                f"degenerate level set at (s, t) = ({sample.s:g}, {sample.t:g})"
            )
    mat = np.asarray([[sample.A_b, sample.A_c] for sample in samples])
    scale = np.linalg.norm(mat, axis=0)
    if np.any(scale == 0.0):
        return np.inf, False, mat
    cond = float(np.linalg.cond(mat / scale))
    return cond, cond < cond_cap, mat


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
        """Relative defect of A_b b + A_c c = A on the non-degenerate rows."""
        out = []
        for r in self.rows:
            if r.degenerate:
                continue
            pred = r.A_b * b_fn(r.s) + r.A_c * c_fn(r.s)
            out.append(abs(pred - r.A) / max(abs(r.A), abs(r.A_c)))
        return np.asarray(out)


def build_observability_report(
    data: ObservationData,
    gamma: float,
    potential,
    times=None,
    levels_per_time: int = 7,
    threshold_rel: float = 1e-3,
    cond_cap: float = 1e4,
    degeneracy_rel: float = 0.05,
) -> ObservabilityReport:
    """Tabulate level-set functionals over sampled (time, level) pairs.

    Levels are interior quantiles of each attained range.  Each row pairs
    the time with its successor (or predecessor, at the boundary) for
    the two-time independence condition number.
    """
    if times is None:
        idx = np.unique(np.linspace(1, data.n_times - 1, 5).astype(int))
        times = data.times[idx]
    times = np.asarray(sorted(float(t) for t in times))
    for t in times:
        if data.index_of(t) == 0:
            raise DataError("observability rows need a predecessor time")
    attained = attained_ranges(data, times)
    observable = [
        observable_range(data, gamma, potential, t, threshold_rel=threshold_rel)
        for t in times
    ]
    rows = []
    for i, t in enumerate(times):
        lo, hi = attained[i]
        span = hi - lo
        fractions = (np.arange(levels_per_time) + 1.0) / (levels_per_time + 1.0)
        partner = times[i + 1] if i + 1 < len(times) else times[i - 1]
        for frac in fractions:
            s = lo + frac * span
            sample = coarea_coefficients(data, gamma, s, t, degeneracy_rel)
            other = coarea_coefficients(data, gamma, s, partner)
            try:
                cond, _, _ = _independence([sample, other], cond_cap)
            except DataError:
                cond = np.inf
            in_obs = any(a <= s <= b for a, b in observable[i])
            rows.append(
                ObservabilityRow(
                    t=float(t),
                    s=float(s),
                    A_b=sample.A_b,
                    A_c=sample.A_c,
                    A=sample.A,
                    cond=cond,
                    in_attained=lo <= s <= hi,
                    in_observable=in_obs,
                    degenerate=sample.degenerate,
                )
            )
    return ObservabilityReport(times, attained, observable, rows)
