"""Mesh, bases, quadrature, gram matrices, and the dual norm."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chident.meshbasis import (
    PERIODIC_CUBIC_SPLINE,
    QUADRATIC_FE,
    BasisError,
    BlockPattern,
    MeshError,
    PeriodicField,
    SpatialBasis,
    assemble_grams,
    build_mesh,
    cell_shape_table,
    cubic_spline_basis,
    dual_norm_Hm1,
    element_grams,
    eval_field,
    gauss_table,
    interpolate,
    interpolate_many,
    quadratic_fe,
    quadrature_rule,
    spline_node_values,
)
from sparse_oracle import basis_matrix, gram_solve, weighted_gram

# 1/sqrt(2) divided by sqrt(1 + 4 pi^2): the H^-1 norm of the L2
# functional of sin(2 pi x) against the zero-mean H1 pairing.
DUAL_NORM_SIN = (1.0 / np.sqrt(2.0)) / np.sqrt(1.0 + 4.0 * np.pi**2)


def _sin(x):
    return np.sin(2.0 * np.pi * x)


def test_mesh_geometry():
    mesh = build_mesh(10)
    assert mesh.n_cells == 10
    assert mesh.h == pytest.approx(0.1)
    nodes = mesh.nodes()
    assert nodes.shape == (10,)
    assert np.allclose(nodes, np.arange(10) / 10.0)


def test_mesh_locate_wraps():
    mesh = build_mesh(8)
    cells, u = mesh.locate(np.array([0.0, 0.999, 1.0, -0.125]))
    assert cells[2] == 0 and u[2] == pytest.approx(0.0)
    assert cells[3] == 7
    assert np.all((0.0 <= u) & (u < 1.0))


def test_quadrature_exactness():
    mesh = build_mesh(10)
    x, w = quadrature_rule(mesh, 4)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # degree-5 monomial is integrated exactly by 4-point Gauss per cell
    assert w @ x**5 == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert w @ np.cos(2 * np.pi * x) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("make", [quadratic_fe, cubic_spline_basis])
def test_interpolation_reproduces_nodal_values(make):
    basis = make(build_mesh(16))
    rng = np.random.default_rng(0)
    xi = np.linspace(0, 1, 201)
    f = interpolate(basis, _sin)
    assert np.max(np.abs(eval_field(f, xi) - _sin(xi))) < 2e-3
    # interpolation nodes are reproduced exactly
    nodes = basis.mesh.nodes()
    g = interpolate(basis, lambda x: np.cos(2 * np.pi * x))
    assert np.max(np.abs(eval_field(g, nodes) - np.cos(2 * np.pi * nodes))) < 1e-12


def test_interpolate_many_matches_single():
    basis = cubic_spline_basis(build_mesh(20))
    nodes = basis.mesh.nodes()
    vals = np.vstack([_sin(nodes), np.cos(2 * np.pi * nodes)])
    coef = interpolate_many(basis, vals)
    single = interpolate(basis, _sin)
    assert np.allclose(coef[0], single.coef, atol=1e-14)
    assert np.allclose(spline_node_values(coef)[0], vals[0], atol=1e-12)


def test_spline_derivatives_converge():
    errs = []
    for n in (50, 100, 200):
        basis = cubic_spline_basis(build_mesh(n))
        f = interpolate(basis, _sin)
        xi = np.linspace(0, 1, 401)
        d1 = eval_field(f, xi, 1)
        errs.append(np.max(np.abs(d1 - 2 * np.pi * np.cos(2 * np.pi * xi))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_periodic_wraparound():
    basis = cubic_spline_basis(build_mesh(16))
    f = interpolate(basis, _sin)
    assert eval_field(f, 0.0) == pytest.approx(eval_field(f, 1.0), abs=1e-14)
    x = np.array([0.25])
    assert eval_field(f, x)[0] == pytest.approx(eval_field(f, x + 1.0)[0], abs=1e-12)


@pytest.mark.parametrize("make", [quadratic_fe, cubic_spline_basis])
def test_gram_matrices_structure(make):
    basis = make(build_mesh(12))
    grams = assemble_grams(basis)
    m = grams.M_L2.toarray() if hasattr(grams.M_L2, "toarray") else np.asarray(grams.M_L2)
    k = grams.K.toarray() if hasattr(grams.K, "toarray") else np.asarray(grams.K)
    # partition of unity: the L2 gram sums to the domain length
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m, m.T, atol=1e-14)
    # constants lie in the stiffness kernel
    assert np.max(np.abs(k @ np.ones(basis.dof_count))) < 1e-12
    # M = M_L2 + K (full H1 gram)
    mh1 = grams.M.toarray() if hasattr(grams.M, "toarray") else np.asarray(grams.M)
    assert np.allclose(mh1, m + k, atol=1e-12)


def test_solve_M_roundtrip():
    basis = cubic_spline_basis(build_mesh(16))
    grams = assemble_grams(basis)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(basis.dof_count)
    w = grams.solve_M(grams.M @ v)
    assert np.allclose(w, v, atol=1e-10)
    # matrix right-hand sides are solved column-consistently
    vm = rng.standard_normal((basis.dof_count, 3))
    wm = grams.solve_M(grams.M @ vm)
    assert np.allclose(wm, vm, atol=1e-10)


@pytest.mark.parametrize("kind", [QUADRATIC_FE, PERIODIC_CUBIC_SPLINE])
@pytest.mark.parametrize("n_cells", [4, 5, 16, 64])
def test_banded_cholesky_solve_matches_splu(kind, n_cells):
    basis = SpatialBasis(kind, build_mesh(n_cells))
    grams = assemble_grams(basis)
    rng = np.random.default_rng(n_cells)
    # right-hand sides M v, errors in the H1 norm: on a random right-hand
    # side the quadratic-element gram at 64 cells (condition 8.7e4) puts
    # SuperLU 1.4e-12 from an iteratively refined solution, the band 5e-14
    for v in (rng.standard_normal(basis.dof_count),
              rng.standard_normal((basis.dof_count, 3))):
        rhs = grams.M @ v
        got, ref = grams.solve_M(rhs), gram_solve(grams.M, rhs)
        assert got.shape == rhs.shape
        err = got - ref
        h1 = lambda u: np.sqrt(np.sum(u * (grams.M @ u)))
        assert h1(err) <= 1e-13 * h1(ref)


def test_weighted_gram_matches_l2_gram():
    basis = cubic_spline_basis(build_mesh(10))
    x, w = quadrature_rule(basis.mesh, 8)
    e0 = basis_matrix(basis, x, 0)
    m_quad = weighted_gram(e0, e0, w).toarray()
    m_ref = assemble_grams(basis, n_quad=8).M_L2.toarray()
    assert np.allclose(m_quad, m_ref, atol=1e-13)


@pytest.mark.parametrize("n_cells", [4, 9])
def test_block_pattern_matches_weighted_gram(n_cells, band_dense):
    # four local splines per cell wrap around the periodic ends
    basis = cubic_spline_basis(build_mesh(n_cells))
    x, w = quadrature_rule(basis.mesh, 6)
    e0, e1 = basis_matrix(basis, x, 0), basis_matrix(basis, x, 1)
    weights = w * (2.0 + np.sin(2.0 * np.pi * x))
    m = assemble_grams(basis).M_L2
    pattern = BlockPattern(basis, 2, [(0, 1), (1, 0)], {(0, 0): m, (1, 1): 2 * m})
    local = weights.reshape(n_cells, -1)
    v0, v1 = cell_shape_table(basis, 6, 0), cell_shape_table(basis, 6, 1)
    got = band_dense(
        pattern,
        pattern.assemble(element_grams(v1, v1, local), element_grams(v1, v0, local)),
    )
    dof = basis.dof_count
    ref = np.block(
        [
            [m.toarray(), weighted_gram(e1, e1, weights).toarray()],
            [weighted_gram(e1, e0, weights).toarray(), 2 * m.toarray()],
        ]
    )
    assert got.shape == (2 * dof, 2 * dof)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))
    with pytest.raises(BasisError):
        cell_shape_table(basis, 6, 4)


def test_block_pattern_without_constant_blocks(band_dense):
    basis = cubic_spline_basis(build_mesh(9))
    x, w = quadrature_rule(basis.mesh, 4)
    tab = gauss_table(basis, 4, 0)
    pattern = BlockPattern(basis, 1, [(0, 0)], {})
    got = band_dense(pattern, pattern.assemble(element_grams(tab.table, tab.table, tab.weights)))
    e0 = basis_matrix(basis, x, 0)
    ref = weighted_gram(e0, e0, w).toarray()
    assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "kind, half_band", [(QUADRATIC_FE, 9), (PERIODIC_CUBIC_SPLINE, 13)]
)
def test_block_pattern_band_holds_the_periodic_wrap(kind, half_band, band_dense):
    # without the fold, the cells across the periodic wrap would couple the
    # first and last dofs and widen the band to the matrix size
    for n_cells in (4, 5, 16, 64, 200):
        basis = SpatialBasis(kind, build_mesh(n_cells))
        dof, cd = basis.dof_count, basis.cell_dofs()
        blocks = [(0, 0), (0, 1), (1, 0), (1, 1)]
        m = assemble_grams(basis).M_L2
        pattern = BlockPattern(basis, 2, blocks, {(1, 0): m})
        assert max(pattern.kl, pattern.ku) <= half_band
        assert np.array_equal(np.sort(pattern.position.ravel()), np.arange(2 * dof))
        ab = pattern.assemble(*[np.ones((n_cells,) + cd.shape[1:] * 2)] * 4)
        ref = np.zeros((2 * dof, 2 * dof))
        ref[dof:, :dof] = m.toarray()
        for i, j in blocks:
            for c in range(n_cells):
                ref[np.ix_(cd[c] + i * dof, cd[c] + j * dof)] += 1.0
        # every entry landed inside the band, and nothing else did
        assert ab.sum() == pytest.approx(ref.sum(), rel=1e-14)
        assert np.allclose(band_dense(pattern, ab), ref, rtol=0.0, atol=1e-15)


@settings(max_examples=60)
@given(
    kind=st.sampled_from([QUADRATIC_FE, PERIODIC_CUBIC_SPLINE]),
    n_cells=st.integers(4, 64),
    n_quad=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_gauss_table_matches_basis_matrix(kind, n_cells, n_quad, seed):
    basis = SpatialBasis(kind, build_mesh(n_cells))
    x, w = quadrature_rule(basis.mesh, n_quad)
    rng = np.random.default_rng(seed)
    # basis_matrix locates every global point again, which puts a rounding
    # error of up to about n_cells ulp into its local coordinate; the
    # cached table evaluates at the reference points themselves
    tol = 8 * n_cells * np.finfo(float).eps

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for order in range(basis.max_order + 1):
        tab = gauss_table(basis, n_quad, order)
        assert gauss_table(basis, n_quad, order) is tab
        assert np.array_equal(tab.weights.ravel(), w)
        e = basis_matrix(basis, x, order)
        coef = rng.standard_normal((3, basis.dof_count))
        v = rng.standard_normal((3, n_cells, n_quad))
        ref = (e @ coef.T).T.reshape(3, n_cells, n_quad)
        assert rel(tab.gather(coef), ref) <= tol
        assert rel(tab.gather(coef[0]), ref[0]) <= tol
        ref_t = (e.T @ v.reshape(3, -1).T).T
        assert rel(tab.scatter(v), ref_t) <= tol
        assert rel(tab.scatter(v[1]), ref_t[1]) <= tol
    with pytest.raises(BasisError):
        gauss_table(basis, n_quad, basis.max_order + 1)


def _periodic_circulant(n, row):
    """Sparse symmetric circulant with row[k] on the k-th off-diagonals."""
    offsets = np.arange(1 - len(row), len(row))
    rows = np.repeat(np.arange(n), len(offsets))
    cols = (rows + np.tile(offsets, n)) % n
    vals = np.tile(np.asarray(row)[np.abs(offsets)], n)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("n_cells", [16, 100, 200, 1000])
def test_grams_match_closed_form(n_cells):
    h = 1.0 / n_cells

    def rel(a, b):
        return abs(a - b).max() / abs(b).max()

    fe = quadratic_fe(build_mesh(n_cells))
    cd = fe.cell_dofs()
    rows, cols = np.repeat(cd, 3, axis=1).ravel(), np.tile(cd, (1, 3)).ravel()
    m_loc = h / 30.0 * np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]])
    k_loc = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]]) / (3.0 * h)
    shape = (fe.dof_count, fe.dof_count)
    grams = assemble_grams(fe)
    assert rel(grams.M_L2, sp.csr_matrix((np.tile(m_loc.ravel(), n_cells), (rows, cols)), shape)) <= 1e-15
    assert rel(grams.K, sp.csr_matrix((np.tile(k_loc.ravel(), n_cells), (rows, cols)), shape)) <= 1e-15

    grams = assemble_grams(cubic_spline_basis(build_mesh(n_cells)))
    m_row = h * np.array([2416.0, 1191.0, 120.0, 1.0]) / 5040.0
    k_row = np.array([2.0 / 3.0, -1.0 / 8.0, -1.0 / 5.0, -1.0 / 120.0]) / h
    assert rel(grams.M_L2, _periodic_circulant(n_cells, m_row)) <= 1e-15
    assert rel(grams.K, _periodic_circulant(n_cells, k_row)) <= 1e-15


@settings(max_examples=60)
@given(
    kind=st.sampled_from([QUADRATIC_FE, PERIODIC_CUBIC_SPLINE]),
    n_cells=st.integers(4, 64),
    seed=st.integers(0, 2**32 - 1),
    points=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=30),
)
def test_eval_field_matches_sparse_oracle(kind, n_cells, seed, points):
    basis = SpatialBasis(kind, build_mesh(n_cells))
    f = PeriodicField(basis, np.random.default_rng(seed).uniform(-1.0, 1.0, basis.dof_count))
    # random points inside and outside [0, 1), and every dof node exactly
    x = np.concatenate([points, basis.dof_nodes(), [1.0, -1.0]])
    for order in range(basis.max_order + 1):
        ref = basis_matrix(basis, x, order) @ f.coef
        got = eval_field(f, x, order)
        # both routes locate the points alike; they differ in the order of
        # the rounding in d^order/dx^order = n^order d^order/du^order
        tol = 64 * np.finfo(float).eps * float(n_cells) ** order
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= tol
        scalar = eval_field(f, float(x[0]), order)
        assert isinstance(scalar, float) and abs(scalar - ref[0]) <= tol
    for order in (-1, basis.max_order + 1):
        with pytest.raises(BasisError):
            eval_field(f, x, order)


def test_dual_norm_oracle_and_convergence():
    errs = {}
    for n in (100, 200, 400):
        basis = cubic_spline_basis(build_mesh(n))
        grams = assemble_grams(basis)
        f = interpolate(basis, _sin)
        val = dual_norm_Hm1(grams.M_L2 @ f.coef, grams)
        errs[n] = abs(val - DUAL_NORM_SIN)
    assert errs[400] < 1e-8
    assert errs[100] > errs[200] > errs[400]
    # fourth-order convergence leaves a factor well above 8 per halving
    assert errs[100] / errs[200] > 8.0
    assert errs[200] / errs[400] > 8.0


def test_basis_matrix_orders():
    basis = cubic_spline_basis(build_mesh(64))
    f = interpolate(basis, _sin)
    xi = np.linspace(0, 1, 97)
    d2 = basis_matrix(basis, xi, 2) @ f.coef
    assert np.max(np.abs(d2 + (2 * np.pi) ** 2 * _sin(xi))) < 0.05
    with pytest.raises(BasisError):
        basis_matrix(basis, xi, 4)


def test_mesh_validation():
    with pytest.raises(MeshError):
        build_mesh(0)
    with pytest.raises(MeshError):
        build_mesh(-5)
