"""Sparse reference routes: the independent oracles for the tests.

``chident.meshbasis`` turns coefficients into values through its cell
tables and cell polynomials only.  The tests check those against the
route below, which locates every point again, evaluates the shape
functions from its own copy of their monomial tables and builds an
explicit sparse matrix E with E[p, i] = d^order psi_i(x_p).  The banded
Cholesky gram solve is checked against SuperLU on the sparse gram.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from chident.meshbasis import QUADRATIC_FE, BasisError, SpatialBasis

# Monomial coefficients of the reference shape functions on u in [0, 1].
# Rows are local shape functions, columns are powers 1, u, u^2, u^3.
_FE_POLY = np.array(
    [
        [1.0, -3.0, 2.0, 0.0],   # left vertex
        [0.0, 4.0, -4.0, 0.0],   # midpoint
        [0.0, -1.0, 2.0, 0.0],   # right vertex
    ]
)

# Uniform periodic cubic B-spline restricted to one cell; the four
# overlapping splines on cell j carry the coefficients j-1, j, j+1, j+2.
_BSPLINE_POLY = np.array(
    [
        [1.0, -3.0, 3.0, -1.0],
        [4.0, 0.0, -6.0, 3.0],
        [1.0, 3.0, 3.0, -3.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
) / 6.0


def _shape_table(kind: str) -> np.ndarray:
    return _FE_POLY if kind == QUADRATIC_FE else _BSPLINE_POLY


def _poly_eval(table: np.ndarray, u: np.ndarray, order: int) -> np.ndarray:
    """Evaluate d^order/du^order of each shape polynomial at local points.

    Returns an array of shape (len(u), n_local).
    """
    # derivative of the monomial coefficient table
    coef = table.copy()
    for _ in range(order):
        coef = coef[:, 1:] * np.arange(1, coef.shape[1])
    if coef.shape[1] == 0:
        return np.zeros((len(u), table.shape[0]))
    # Horner in u
    vals = np.full((len(u), table.shape[0]), coef[:, -1])
    for k in range(coef.shape[1] - 2, -1, -1):
        vals = vals * u[:, None] + coef[:, k]
    return vals


def basis_matrix(basis: SpatialBasis, x, order: int = 0) -> sp.csr_matrix:
    """Sparse evaluation matrix E with E[p, i] = d^order psi_i (x_p).

    The rows of ``E @ coef`` are point values of the expanded field.
    """
    if order < 0 or order > basis.max_order:
        raise BasisError(
            f"derivative order {order} out of range for {basis.kind}"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cells, u = basis.mesh.locate(x)
    vals = _poly_eval(_shape_table(basis.kind), u, order)
    vals *= float(basis.mesh.n_cells) ** order  # d/dx = n d/du
    cols = basis.cell_dofs()[cells]
    rows = np.repeat(np.arange(len(x)), basis.dofs_per_cell)
    mat = sp.csr_matrix(
        (vals.ravel(), (rows, cols.ravel())),
        shape=(len(x), basis.dof_count),
    )
    return mat


def weighted_gram(
    rows: sp.spmatrix, cols: sp.spmatrix, w: np.ndarray
) -> sp.csr_matrix:
    """Assemble rows^T diag(w) cols from point-evaluation matrices."""
    return (rows.T @ sp.diags(w) @ cols).tocsr()


def gram_solve(mat: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """mat^-1 rhs by a SuperLU factorization of the sparse matrix."""
    return splu(sp.csc_matrix(mat)).solve(np.asarray(rhs, dtype=float))
