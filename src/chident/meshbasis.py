"""Periodic 1D meshes, spatial basis families, gram matrices, dual norms.

Everything lives on the unit interval identified with the 1-torus.  Two
basis families are provided: quadratic Lagrange finite elements (used by
the time stepper) and periodic cubic B-splines (used for the observation
grid).  Gram matrices carry the L2 and H1 inner products; the discrete
H^-1 dual norm is evaluated through a banded Cholesky factor of the H1
gram, with the dofs in the folded order that makes the periodic gram a
pure band.
On each cell a field is a cubic in the local coordinate, from the cell's
coefficients and fixed shape polynomials: ``gauss_table`` evaluates these
at the Gauss points (fields there, and the gram matrices), ``cell_polys``
and ``poly_vals`` at arbitrary points.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

QUADRATIC_FE = "quadratic-fe"
PERIODIC_CUBIC_SPLINE = "periodic-cubic-spline"

_KINDS = (QUADRATIC_FE, PERIODIC_CUBIC_SPLINE)

# Monomial coefficients of the reference shape functions on u in [0, 1].
# Rows are local shape functions, columns are powers 1, u, u^2, u^3.
_FE_POLY = np.array(
    [
        [1.0, -3.0, 2.0, 0.0],   # left vertex
        [0.0, 4.0, -4.0, 0.0],   # midpoint
        [0.0, -1.0, 2.0, 0.0],   # right vertex
    ]
)

# Uniform periodic cubic B-spline restricted to one cell.  The four
# overlapping splines on cell j carry the coefficients with global
# indices j-1, j, j+1, j+2 (mod n).
_BSPLINE_POLY = np.array(
    [
        [1.0, -3.0, 3.0, -1.0],
        [4.0, 0.0, -6.0, 3.0],
        [1.0, 3.0, 3.0, -3.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
) / 6.0

_MAX_ORDER = {QUADRATIC_FE: 1, PERIODIC_CUBIC_SPLINE: 3}

# d/du on monomial coefficients: (a0, a1, a2, a3) @ _DIFF_U = (a1, 2 a2, 3 a3, 0)
_DIFF_U = np.diag([1.0, 2.0, 3.0], -1)


class MeshError(ValueError):
    """Invalid mesh construction request."""


class BasisError(ValueError):
    """Invalid basis kind, derivative order, or evaluation request."""


class AssemblyError(RuntimeError):
    """A gram matrix failed a symmetry or positivity sanity check."""


@dataclass(frozen=True)
class PeriodicMesh:
    """Uniform partition of the unit torus into ``n_cells`` intervals."""

    n_cells: int

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_cells) * self.h

    def locate(self, x):
        """Return (cell index, local coordinate in [0, 1)) for each point."""
        xw = np.mod(np.asarray(x, dtype=float), 1.0)
        u = xw * self.n_cells
        cells = np.floor(u).astype(np.int64)
        # defend against xw*n rounding up to n at the right edge
        cells = np.minimum(cells, self.n_cells - 1)
        return cells, u - cells


def build_mesh(n_cells: int) -> PeriodicMesh:
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 4:
        raise MeshError(f"n_cells must be an integer >= 4, got {n_cells!r}")
    return PeriodicMesh(int(n_cells))


def _shape_table(kind: str) -> np.ndarray:
    return _FE_POLY if kind == QUADRATIC_FE else _BSPLINE_POLY


def poly_vals(polys: np.ndarray, u) -> np.ndarray:
    """Horner evaluation of monomial coefficients (..., 4) at local coordinates u.

    The leading shape ``polys.shape[:-1]`` and the shape of ``u`` broadcast.
    """
    vals = polys[..., 3]
    for k in (2, 1, 0):
        vals = vals * u + polys[..., k]
    return vals


@dataclass(frozen=True)
class SpatialBasis:
    """A periodic spatial basis on a uniform mesh.

    ``quadratic-fe`` has two degrees of freedom per cell (vertex value and
    midpoint value, 2 * n_cells total); ``periodic-cubic-spline`` has one
    coefficient per cell.
    """

    kind: str
    mesh: PeriodicMesh

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise BasisError(f"unknown basis kind {self.kind!r}")

    @property
    def dof_count(self) -> int:
        n = self.mesh.n_cells
        return 2 * n if self.kind == QUADRATIC_FE else n

    @property
    def max_order(self) -> int:
        return _MAX_ORDER[self.kind]

    def cell_dofs(self) -> np.ndarray:
        """Global dof indices of the local shape functions, per cell (read-only)."""
        return _cell_dofs(self.kind, self.mesh.n_cells)

    def dof_nodes(self) -> np.ndarray:
        """Collocation points: FE dof locations, or spline cell nodes."""
        if self.kind == QUADRATIC_FE:
            return np.arange(self.dof_count) * (0.5 * self.mesh.h)
        return self.mesh.nodes()


@lru_cache(maxsize=64)
def _cell_dofs(kind: str, n_cells: int) -> np.ndarray:
    cells = np.arange(n_cells)[:, None]
    if kind == QUADRATIC_FE:
        local = np.mod(2 * cells + np.arange(3)[None, :], 2 * n_cells)
    else:
        local = np.mod(cells + np.arange(-1, 3)[None, :], n_cells)
    local.flags.writeable = False
    return local


@lru_cache(maxsize=64)
def _dof_terms(kind: str, n_cells: int) -> tuple:
    """Scatter-add plan of ``cell_dofs``: for k = 0, 1, ... the dofs that
    receive a k-th cell term (``slice(None)`` when all of them do) and the
    flat (cell, local dof) position of that term.  Each dof's positions
    increase with k, and every dof has a first term."""
    flat = _cell_dofs(kind, n_cells).ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat)
    # rank of each position among those of its dof
    rank = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
    plan = []
    for k in range(counts.max()):
        pos = order[rank == k]
        dofs = flat[pos]
        if len(dofs) == len(counts):
            dofs = slice(None)
        else:
            dofs.flags.writeable = False
        pos.flags.writeable = False
        plan.append((dofs, pos))
    return tuple(plan)


def _check_order(basis: SpatialBasis, order: int) -> None:
    if order < 0 or order > basis.max_order:
        raise BasisError(f"derivative order {order} out of range for {basis.kind}")


def quadratic_fe(mesh: PeriodicMesh) -> SpatialBasis:
    return SpatialBasis(QUADRATIC_FE, mesh)


def cubic_spline_basis(mesh: PeriodicMesh) -> SpatialBasis:
    return SpatialBasis(PERIODIC_CUBIC_SPLINE, mesh)


@lru_cache(maxsize=64)
def _gauss_legendre(n_points: int):
    """Gauss-Legendre points on [0, 1] and weights on [-1, 1], read-only."""
    g, w = np.polynomial.legendre.leggauss(n_points)
    u = 0.5 * (g + 1.0)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def quadrature_rule(mesh: PeriodicMesh, n_points: int):
    """Gauss-Legendre points and weights on every cell of the mesh.

    Returns global points ``x`` of shape (n_cells * n_points,) ordered
    cell by cell, and matching weights that include the cell length.
    """
    u, w = _gauss_legendre(n_points)
    h = mesh.h
    x = (np.arange(mesh.n_cells)[:, None] * h + u[None, :] * h).ravel()
    weights = np.tile(0.5 * w * h, mesh.n_cells)
    return x, weights


@dataclass
class PeriodicField:
    """A scalar periodic field expanded in a spatial basis."""

    basis: SpatialBasis
    coef: np.ndarray

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        if self.coef.shape != (self.basis.dof_count,):
            raise BasisError(
                f"coefficient vector has shape {self.coef.shape}, "
                f"expected ({self.basis.dof_count},)"
            )


def cell_polys(basis: SpatialBasis, coef: np.ndarray, order: int = 0) -> np.ndarray:
    """Monomial coefficients in u of d^order f / dx^order on every cell.

    ``coef`` is one coefficient vector or a stack (..., dof); the result
    has shape (..., n_cells, 4), and on cell j at x = (j + u) h the
    derivative equals ``poly_vals(result[..., j, :], u)``.  The derivative
    order is capped by the basis family: 1 for quadratic elements, 3 for
    cubic splines.
    """
    _check_order(basis, order)
    polys = np.asarray(coef, dtype=float)[..., basis.cell_dofs()] @ _shape_table(basis.kind)
    for _ in range(order):
        polys = (polys @ _DIFF_U) * basis.mesh.n_cells   # d/dx = n d/du
    return polys


@lru_cache(maxsize=64)
def _collocation_spectrum(n: int) -> np.ndarray:
    """FFT of the first column of the circulant spline collocation matrix.

    Its entries are 2/3 + cos(2 pi k / n) / 3 >= 1/3, so the system is
    never singular.  Read-only.
    """
    ker = np.zeros(n)
    ker[0] = 4.0 / 6.0
    ker[1] = 1.0 / 6.0
    ker[-1] = 1.0 / 6.0
    spectrum = np.fft.fft(ker)
    spectrum.flags.writeable = False
    return spectrum


def interpolate(basis: SpatialBasis, values) -> PeriodicField:
    """Interpolate nodal data (callable or value array) in the basis.

    Quadratic elements collocate at vertices and midpoints, so the
    coefficients are the nodal values themselves.  Periodic splines
    collocate at the cell nodes (``interpolate_many``).
    """
    if callable(values):
        values = values(basis.dof_nodes())
    values = np.asarray(values, dtype=float)
    if values.shape != (basis.dof_count,):
        raise BasisError(
            f"expected {basis.dof_count} nodal values, got shape {values.shape}"
        )
    return PeriodicField(basis, interpolate_many(basis, values[None, :])[0])


def spline_node_values(coef: np.ndarray) -> np.ndarray:
    """Nodal values of a periodic cubic spline from its coefficients.

    Works on a single coefficient vector or a stack (..., n).
    """
    return (np.roll(coef, 1, axis=-1) + 4.0 * coef + np.roll(coef, -1, axis=-1)) / 6.0


def interpolate_many(basis: SpatialBasis, values: np.ndarray) -> np.ndarray:
    """Row-wise interpolation of a (n_fields, dof) value array.

    For periodic splines the circulant collocation system is solved by
    FFT, row by row, against the cached spectrum of its kernel.
    """
    values = np.asarray(values, dtype=float)
    if basis.kind == QUADRATIC_FE:
        return values.copy()
    spectrum = _collocation_spectrum(basis.dof_count)
    return np.fft.ifft(np.fft.fft(values, axis=-1) / spectrum, axis=-1).real


def cell_shape_values(basis: SpatialBasis, u, order: int = 0) -> np.ndarray:
    """d^order psi_l / dx^order at the local coordinates u (1-D) of a cell.

    On the uniform mesh the table, of shape (len(u), n_local), is the
    same on every cell.
    """
    _check_order(basis, order)
    polys = _shape_table(basis.kind)
    for _ in range(order):
        polys = polys @ _DIFF_U
    vals = poly_vals(polys, np.asarray(u, dtype=float)[:, None])
    return vals * float(basis.mesh.n_cells) ** order


def cell_shape_table(basis: SpatialBasis, n_quad: int, order: int = 0) -> np.ndarray:
    """d^order psi_l / dx^order at the Gauss points of one cell.

    The points are those of ``quadrature_rule`` inside a cell; the table
    has shape (n_quad, n_local).
    """
    return cell_shape_values(basis, _gauss_legendre(n_quad)[0], order)


@dataclass(frozen=True, eq=False)
class GaussTable:
    """One derivative order of a basis at the Gauss points of every cell.

    On the uniform mesh the shape values ``table`` (n_quad, n_local) are
    the same on every cell, so evaluating a field at all quadrature points
    is a gather of its cell coefficients and one matrix product, and the
    transposed evaluation is the same product followed by a scatter-add
    over ``cell_dofs``.  ``points`` (n_quad,) are the local coordinates of
    the Gauss points in a cell, and ``weights`` (n_cells, n_quad) those of
    ``quadrature_rule``, cell by cell.
    """

    cell_dofs: np.ndarray
    table: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    dof_terms: tuple

    def gather(self, coef: np.ndarray) -> np.ndarray:
        """Point values E @ coef: (..., dof) -> (..., n_cells, n_quad)."""
        return coef[..., self.cell_dofs] @ self.table.T

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """Adjoint of ``gather``, E^T v: (..., n_cells, n_quad) -> (..., dof)."""
        local = np.moveaxis(v @ self.table, (-2, -1), (0, 1))
        return np.moveaxis(_cell_sum(self.dof_terms, local), 0, -1)


def _cell_sum(dof_terms: tuple, local: np.ndarray) -> np.ndarray:
    """Scatter-add of cell-local values (n_cells, n_local, ...) onto the dofs: (dof, ...).

    ``dof_terms`` is the plan of ``_dof_terms``.  Each dof adds its cell
    terms from 0.0 in increasing (cell, local dof) position, the order of
    a ``bincount`` over ``cell_dofs``, so the sums are those of that
    bincount bit for bit.
    """
    flat = local.reshape(-1, *local.shape[2:])
    out = flat[dof_terms[0][1]]
    # from 0.0, as a bincount: a first term -0.0 sums to +0.0
    out += 0.0
    for dofs, pos in dof_terms[1:]:
        out[dofs] += flat[pos]
    return out


def gauss_table(basis: SpatialBasis, n_quad: int, order: int = 0) -> GaussTable:
    """Cached ``GaussTable`` of a basis, built once per (kind, n_cells, n_quad, order)."""
    return _gauss_table(basis.kind, basis.mesh.n_cells, n_quad, order)


@lru_cache(maxsize=64)
def _gauss_table(kind: str, n_cells: int, n_quad: int, order: int) -> GaussTable:
    basis = SpatialBasis(kind, PeriodicMesh(n_cells))
    table = cell_shape_table(basis, n_quad, order)
    weights = quadrature_rule(basis.mesh, n_quad)[1].reshape(n_cells, n_quad)
    for arr in (table, weights):
        arr.flags.writeable = False
    return GaussTable(
        basis.cell_dofs(), table, _gauss_legendre(n_quad)[0], weights, _dof_terms(kind, n_cells)
    )


def element_grams(rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cell-local rows^T diag(w_c) cols for every cell c at once.

    ``rows`` and ``cols`` are cell shape tables (n_quad, n_local) and ``w``
    holds the weights per cell, shape (n_cells, n_quad); the result has
    shape (n_cells, n_local, n_local).  The contraction over the points is
    one matrix product against the table of shape-function products.
    """
    n_quad, n_local = rows.shape
    products = (rows[:, :, None] * cols[:, None, :]).reshape(n_quad, -1)
    return (w @ products).reshape(len(w), n_local, n_local)


def _folded_order(n: int) -> np.ndarray:
    """Indices 0, n-1, 1, n-2, ...: neighbours on the torus stay near."""
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    return order


class BlockPattern:
    """Block matrix assembled cell by cell into LAPACK general-band storage.

    The matrix has ``n_blocks`` x ``n_blocks`` blocks of the basis size.
    Each block (I, J) in ``cell_blocks`` receives one dense local matrix
    per cell, at the dofs ``cell_dofs()`` of block I (rows) and block J
    (columns).  ``constant``, a mapping (I, J) -> cell-local matrices of
    shape (n_cells, n_local, n_local), goes the same way into a base
    array once, so ``assemble`` costs one scatter-add per call.

    Unknowns are ordered by ``_folded_order`` of the dofs, with the blocks
    interleaved inside each dof: ``position[I, d]`` is the row of dof d of
    block I.  Cells then touch only nearby rows, also across the periodic
    wrap, so the matrix is a pure band with ``kl`` sub- and ``ku``
    super-diagonals, read off the pattern.  ``assemble`` returns the
    Fortran-ordered (2 kl + ku + 1, size) array that LAPACK ``gbtrf``
    factors in place: entry (i, j) sits at row kl + ku + i - j, column j.
    The base array ``_base`` holds the constant blocks alone in that
    layout, flat in column-major order.
    """

    def __init__(self, basis: SpatialBasis, n_blocks: int, cell_blocks, constant):
        dof = basis.dof_count
        self.size = n_blocks * dof
        self.position = np.empty((n_blocks, dof), dtype=np.int64)
        self.position[:, _folded_order(dof)] = (
            n_blocks * np.arange(dof) + np.arange(n_blocks)[:, None]
        )
        # global (row, column) of local entry (i, j) of cell c, flat in (c, i, j) order
        cd = basis.cell_dofs()
        r_loc = np.repeat(cd, cd.shape[1], axis=1).ravel()
        c_loc = np.tile(cd, (1, cd.shape[1])).ravel()
        blocks = list(cell_blocks) + list(constant)
        rows = np.concatenate([self.position[i, r_loc] for i, _ in blocks])
        cols = np.concatenate([self.position[j, c_loc] for _, j in blocks])
        self.kl = int(np.max(rows - cols))
        self.ku = int(np.max(cols - rows))
        self.n_band_rows = 2 * self.kl + self.ku + 1
        # flat index into the column-major band array
        slots = self.kl + self.ku + rows - cols + self.n_band_rows * cols
        n_cell_entries = len(cell_blocks) * len(r_loc)
        self._cell_slots = slots[:n_cell_entries]
        self._base = np.bincount(
            slots[n_cell_entries:],
            weights=np.concatenate([np.ravel(v) for v in constant.values()] + [np.zeros(0)]),
            minlength=self.n_band_rows * self.size,
        )

    def assemble(self, *cell_values: np.ndarray) -> np.ndarray:
        """Base plus the per-cell local matrices, one array per cell block."""
        vals = np.concatenate([v.ravel() for v in cell_values])
        ab = np.bincount(self._cell_slots, weights=vals, minlength=len(self._base))
        ab += self._base
        return ab.reshape(self.size, self.n_band_rows).T


# exact Gauss point counts for products of two shape functions
_GRAM_QUAD = {QUADRATIC_FE: 3, PERIODIC_CUBIC_SPLINE: 4}


class BandCholesky:
    """Cholesky factor A = L L' of a symmetric positive definite gram, as a band.

    The gram is the sum of the assembled element grams ``local``.  In
    ``_folded_order`` the dofs that share a cell stay near each other,
    also across the periodic wrap, so each term is the lower band (entry
    (i, j), i >= j, at row i - j) of a one-block ``BlockPattern``, read
    straight off the rows kl + ku and below of its base array; their sum
    goes to LAPACK ``dpbtrf`` once.  Summed after assembly, the small
    L2 part is rounded once against the stiffness; near-constant dual
    norms are sensitive to that rounding.  ``dual_norm`` is the one dual
    norm route: sqrt(r' A^-1 r) = ||L^-1 r|| by one ``dtbtrs`` sweep,
    ``whiten``, on rows already in the folded order ``order``.  ``solve``
    is one ``dpbtrs`` call, permuting into that order and back around it.
    """

    def __init__(self, basis: SpatialBasis, *local: np.ndarray):
        patterns = [BlockPattern(basis, 1, [], {(0, 0): a}) for a in local]
        self.order = _folded_order(basis.dof_count)
        band = sum(p._base.reshape(p.size, p.n_band_rows).T[p.kl + p.ku:] for p in patterns)
        self._factor, info = dpbtrf(band, lower=1)
        if info != 0:
            raise AssemblyError(f"gram is not positive definite (dpbtrf info {info})")

    def whiten(self, r: np.ndarray) -> np.ndarray:
        """L^-1 r, with the rows of r in folded order, by one ``dtbtrs`` sweep."""
        x, info = dtbtrs(self._factor, r, uplo="L")
        if info != 0:
            raise AssemblyError(f"dtbtrs failed with info {info}")
        return x

    def dual_norm(self, r: np.ndarray) -> float:
        """||L^-1 r||, over all columns of r, with the rows of r in folded order."""
        x = self.whiten(r).ravel(order="K")
        return float(np.sqrt(x @ x))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for one vector or for stacked columns."""
        x, info = dpbtrs(self._factor, np.asarray(rhs, dtype=float)[self.order], lower=1)
        if info != 0:
            raise AssemblyError(f"dpbtrs rejected argument {-info}")
        out = np.empty_like(x)
        out[self.order] = x
        return out


@dataclass
class GramPair:
    """L2 and stiffness element grams of a basis, one matrix per cell.

    ``mass`` and ``stiffness`` multiply with the assembled matrices.  The
    H1 gram M, their sum, is factored on first use, once, as a symmetric
    band (``factor``): with P the permutation to the folded order,
    P M P' = L L'.  Everything else derived from M comes from that
    factor: the forward, data and inverse layers take their H^-1 norms
    from its ``dual_norm``, and ``whitening`` W = L^-1 P, built once on
    first use, is shared by every problem assembled on these grams.
    """

    basis: SpatialBasis
    m_local: np.ndarray
    k_local: np.ndarray
    _factor: BandCholesky | None = field(default=None, repr=False)
    _whitening: np.ndarray | None = field(default=None, repr=False)

    @property
    def factor(self) -> BandCholesky:
        """Band Cholesky factor of the H1 gram, built on first use."""
        if self._factor is None:
            self._factor = BandCholesky(self.basis, self.m_local, self.k_local)
        return self._factor

    @property
    def whitening(self) -> np.ndarray:
        """W = L^-1 P (read-only), built on first use by one ``whiten`` sweep
        of the permuted identity, so that W' W = M^-1 and ||W r||^2 = r' M^-1 r."""
        if self._whitening is None:
            factor = self.factor
            self._whitening = factor.whiten(np.eye(self.basis.dof_count)[factor.order])
            self._whitening.flags.writeable = False
        return self._whitening

    def _product(self, local: np.ndarray, v) -> np.ndarray:
        """Assembled ``local`` times v: gather, one product per cell, scatter-add."""
        cd = self.basis.cell_dofs()
        v = np.asarray(v, dtype=float)
        # stacked rows become columns: (n_local, n_local) @ (n_local, n_rows) per cell
        columns = np.moveaxis(v, -1, 0)[cd].reshape(*cd.shape, -1)
        out = _cell_sum(_dof_terms(self.basis.kind, self.basis.mesh.n_cells), local @ columns)
        return np.moveaxis(out, 0, -1).reshape(v.shape)

    def mass(self, v) -> np.ndarray:
        """L2 gram times one vector, or times each row of a stack (..., dof)."""
        return self._product(self.m_local, v)

    def stiffness(self, v) -> np.ndarray:
        """Stiffness matrix times one vector, or times each row of a stack (..., dof)."""
        return self._product(self.k_local, v)


def assemble_grams(basis: SpatialBasis) -> GramPair:
    """Element L2 grams and stiffness matrices of a basis.

    They come from the cached cell tables; the quadrature
    (``_GRAM_QUAD``) integrates the products exactly.  The element grams
    are checked for symmetry and symmetrized, and the assembled L2 gram
    is checked for a positive diagonal.
    """
    nq = _GRAM_QUAD[basis.kind]

    def gram(order):
        tab = gauss_table(basis, nq, order)
        local = element_grams(tab.table, tab.table, tab.weights)
        local_t = local.transpose(0, 2, 1)
        scale = max(float(np.max(np.abs(local))), 1.0)
        if np.max(np.abs(local - local_t)) > 1e-12 * scale:
            raise AssemblyError("assembled gram deviates from symmetry")
        return (local + local_t) * 0.5

    m = gram(0)
    diagonal = np.diagonal(m, axis1=1, axis2=2)
    if _cell_sum(_dof_terms(basis.kind, basis.mesh.n_cells), diagonal).min() <= 0.0:
        raise AssemblyError("L2 gram has a non-positive diagonal entry")
    return GramPair(basis, m, gram(1))


def dual_norm_Hm1(y: np.ndarray, grams: GramPair) -> float:
    """Discrete H^-1 norm of a functional given by its coefficient vector.

    ``y[i]`` is the action of the functional on basis function i.  The
    norm is sqrt(y^T M^-1 y) = ||L^-1 y|| with M = L L^T the H1 gram,
    from the cached band factor's ``dual_norm``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (grams.basis.dof_count,):
        raise BasisError(
            f"functional vector has shape {y.shape}, "
            f"expected ({grams.basis.dof_count},)"
        )
    factor = grams.factor
    return factor.dual_norm(y[factor.order])
