"""Mesh, bases, quadrature, gram matrices, and the dual norm."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_circulant
from hypothesis import given, settings
from hypothesis import strategies as st

from chident import meshbasis
from chident.meshbasis import (
    PERIODIC_CUBIC_SPLINE,
    QUADRATIC_FE,
    AssemblyError,
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
    gauss_table,
    interpolate,
    interpolate_many,
    quadratic_fe,
    quadrature_rule,
    spline_node_values,
)
from sparse_oracle import assembled_gram, basis_matrix, dual_norm_sq, gram_solve, weighted_gram

from conftest import eval_field

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


@pytest.mark.parametrize("n", [4, 8, 100, 400])
def test_interpolate_many_equals_solve_circulant(n):
    basis = cubic_spline_basis(build_mesh(n))
    ker = np.zeros(n)
    ker[[0, 1, -1]] = [4.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal((1, n)), rng.standard_normal((5, n))):
        assert np.array_equal(interpolate_many(basis, values), solve_circulant(ker, values.T).T)


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


def _dense_grams(grams):
    """Assembled L2 gram and stiffness matrix, as the products with the identity."""
    eye = np.eye(grams.basis.dof_count)
    return grams.mass(eye), grams.stiffness(eye)


@pytest.mark.parametrize("make", [quadratic_fe, cubic_spline_basis])
def test_gram_matrices_structure(make):
    basis = make(build_mesh(12))
    grams = assemble_grams(basis)
    m, k = _dense_grams(grams)
    # partition of unity: the L2 gram sums to the domain length
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m, m.T, atol=1e-14)
    # constants lie in the stiffness kernel
    assert np.max(np.abs(grams.stiffness(np.ones(basis.dof_count)))) < 1e-12
    # one vector and stacked rows give the same products
    v = np.random.default_rng(3).standard_normal((2, basis.dof_count))
    assert np.allclose(grams.mass(v[1]), m @ v[1], rtol=0.0, atol=1e-15)
    assert np.allclose(grams.stiffness(v), v @ k, rtol=0.0, atol=1e-12)
    # the factor is that of the H1 gram M_L2 + K
    assert np.allclose(grams.factor.solve(m + k), np.eye(basis.dof_count), atol=1e-12)


def _gram_oracle(basis, order):
    """Sparse sum of the element grams, then (a + a^T) / 2 on the sparse matrix."""
    tab = gauss_table(basis, meshbasis._GRAM_QUAD[basis.kind], order)
    a = assembled_gram(basis, element_grams(tab.table, tab.table, tab.weights))
    return ((a + a.T) * 0.5).tocsr()


@pytest.mark.parametrize(
    "basis",
    [cubic_spline_basis(build_mesh(8)), cubic_spline_basis(build_mesh(100)), quadratic_fe(build_mesh(200))],
    ids=["spline-8", "spline-100", "fe-200"],
)
def test_gram_symmetry_check_and_sparse_oracle(basis, monkeypatch):
    grams = assemble_grams(basis)
    for got, order in zip(_dense_grams(grams), (0, 1)):
        want = _gram_oracle(basis, order)
        assert np.array_equal(got, want.toarray()), order
    real = meshbasis.element_grams

    def skewed(rows, cols, w):
        local = real(rows, cols, w)
        local[3, 0, 1] += 1e-9 * max(np.max(np.abs(local)), 1.0)
        return local

    monkeypatch.setattr(meshbasis, "element_grams", skewed)
    with pytest.raises(AssemblyError, match="symmetry"):
        assemble_grams(basis)


def test_factor_solve_roundtrip():
    basis = cubic_spline_basis(build_mesh(16))
    grams = assemble_grams(basis)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(basis.dof_count)
    w = grams.factor.solve(grams.mass(v) + grams.stiffness(v))
    assert np.allclose(w, v, atol=1e-10)
    # matrix right-hand sides are solved column-consistently
    vm = rng.standard_normal((3, basis.dof_count))
    wm = grams.factor.solve((grams.mass(vm) + grams.stiffness(vm)).T)
    assert np.allclose(wm, vm.T, atol=1e-10)


@pytest.mark.parametrize("n_cells", [4, 5, 16, 100])
def test_whitening_inverts_the_sparse_h1_gram(n_cells, monkeypatch):
    # W = L^-1 P comes from the band factor alone: no dense solve
    def no_solve(*args, **kwargs):
        raise AssertionError("whitening must not solve with the gram")

    monkeypatch.setattr(meshbasis, "dpbtrs", no_solve)
    basis = cubic_spline_basis(build_mesh(n_cells))
    grams = assemble_grams(basis)
    w = grams.whitening
    assert grams.whitening is w and not w.flags.writeable
    h1_gram = (_gram_oracle(basis, 0) + _gram_oracle(basis, 1)).toarray()
    assert np.max(np.abs(w @ h1_gram @ w.T - np.eye(basis.dof_count))) <= 1e-12
    # rows in folded order are lower triangular, and ||W r|| is the dual norm
    assert np.array_equal(w[:, grams.factor.order], np.tril(w[:, grams.factor.order]))
    r = np.random.default_rng(n_cells).standard_normal(basis.dof_count)
    assert np.linalg.norm(w @ r) == pytest.approx(dual_norm_Hm1(r, grams), rel=1e-14)


@pytest.mark.parametrize("kind", [QUADRATIC_FE, PERIODIC_CUBIC_SPLINE])
@pytest.mark.parametrize("n_cells", [4, 5, 16, 64])
def test_banded_cholesky_solve_matches_splu(kind, n_cells):
    basis = SpatialBasis(kind, build_mesh(n_cells))
    grams = assemble_grams(basis)
    h1_gram = _gram_oracle(basis, 0) + _gram_oracle(basis, 1)
    rng = np.random.default_rng(n_cells)
    # right-hand sides M v, errors in the H1 norm: on a random right-hand
    # side the quadratic-element gram at 64 cells (condition 8.7e4) puts
    # SuperLU 1.4e-12 from an iteratively refined solution, the band 5e-14
    for v in (rng.standard_normal(basis.dof_count),
              rng.standard_normal((basis.dof_count, 3))):
        rhs = h1_gram @ v
        got, ref = grams.factor.solve(rhs), gram_solve(h1_gram, rhs)
        assert got.shape == rhs.shape
        err = got - ref
        h1 = lambda u: np.sqrt(np.sum(u * (h1_gram @ u)))
        assert h1(err) <= 1e-13 * h1(ref)


def test_weighted_gram_matches_l2_gram():
    basis = cubic_spline_basis(build_mesh(10))
    x, w = quadrature_rule(basis.mesh, 8)
    e0 = basis_matrix(basis, x, 0)
    m_quad = weighted_gram(e0, e0, w).toarray()
    m_ref = assemble_grams(basis).mass(np.eye(basis.dof_count))
    assert np.allclose(m_quad, m_ref, atol=1e-13)


@pytest.mark.parametrize("n_cells", [4, 9])
def test_block_pattern_matches_weighted_gram(n_cells, band_dense):
    # four local splines per cell wrap around the periodic ends
    basis = cubic_spline_basis(build_mesh(n_cells))
    x, w = quadrature_rule(basis.mesh, 6)
    e0, e1 = basis_matrix(basis, x, 0), basis_matrix(basis, x, 1)
    weights = w * (2.0 + np.sin(2.0 * np.pi * x))
    grams = assemble_grams(basis)
    m = grams.mass(np.eye(basis.dof_count))
    pattern = BlockPattern(
        basis, 2, [(0, 1), (1, 0)], {(0, 0): grams.m_local, (1, 1): 2 * grams.m_local}
    )
    local = weights.reshape(n_cells, -1)
    v0, v1 = cell_shape_table(basis, 6, 0), cell_shape_table(basis, 6, 1)
    got = band_dense(
        pattern,
        pattern.assemble(element_grams(v1, v1, local), element_grams(v1, v0, local)),
    )
    dof = basis.dof_count
    ref = np.block(
        [
            [m, weighted_gram(e1, e1, weights).toarray()],
            [weighted_gram(e1, e0, weights).toarray(), 2 * m],
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
        grams = assemble_grams(basis)
        pattern = BlockPattern(basis, 2, blocks, {(1, 0): grams.m_local})
        assert max(pattern.kl, pattern.ku) <= half_band
        assert np.array_equal(np.sort(pattern.position.ravel()), np.arange(2 * dof))
        ab = pattern.assemble(*[np.ones((n_cells,) + cd.shape[1:] * 2)] * 4)
        ref = np.zeros((2 * dof, 2 * dof))
        ref[dof:, :dof] = grams.mass(np.eye(dof))
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

    def sparse_grams(basis):
        # the products are checked against this sum in test_gram_symmetry_check_and_sparse_oracle
        grams = assemble_grams(basis)
        return assembled_gram(basis, grams.m_local), assembled_gram(basis, grams.k_local)

    fe = quadratic_fe(build_mesh(n_cells))
    cd = fe.cell_dofs()
    rows, cols = np.repeat(cd, 3, axis=1).ravel(), np.tile(cd, (1, 3)).ravel()
    m_loc = h / 30.0 * np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]])
    k_loc = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]]) / (3.0 * h)
    shape = (fe.dof_count, fe.dof_count)
    m, k = sparse_grams(fe)
    assert rel(m, sp.csr_matrix((np.tile(m_loc.ravel(), n_cells), (rows, cols)), shape)) <= 1e-15
    assert rel(k, sp.csr_matrix((np.tile(k_loc.ravel(), n_cells), (rows, cols)), shape)) <= 1e-15

    m, k = sparse_grams(cubic_spline_basis(build_mesh(n_cells)))
    m_row = h * np.array([2416.0, 1191.0, 120.0, 1.0]) / 5040.0
    k_row = np.array([2.0 / 3.0, -1.0 / 8.0, -1.0 / 5.0, -1.0 / 120.0]) / h
    assert rel(m, _periodic_circulant(n_cells, m_row)) <= 1e-15
    assert rel(k, _periodic_circulant(n_cells, k_row)) <= 1e-15


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
        val = dual_norm_Hm1(grams.mass(f.coef), grams)
        errs[n] = abs(val - DUAL_NORM_SIN)
    assert errs[400] < 1e-8
    assert errs[100] > errs[200] > errs[400]
    # fourth-order convergence leaves a factor well above 8 per halving
    assert errs[100] / errs[200] > 8.0
    assert errs[200] / errs[400] > 8.0


@pytest.mark.parametrize("kind", [QUADRATIC_FE, PERIODIC_CUBIC_SPLINE])
@pytest.mark.parametrize("n_cells", [4, 5, 16, 64])
def test_dual_norm_matches_sparse_gram_solve(kind, n_cells):
    basis = SpatialBasis(kind, build_mesh(n_cells))
    grams = assemble_grams(basis)
    h1_gram = _gram_oracle(basis, 0) + _gram_oracle(basis, 1)
    rng = np.random.default_rng(n_cells)
    for y in (rng.standard_normal(basis.dof_count), grams.mass(interpolate(basis, _sin).coef)):
        ref = np.sqrt(dual_norm_sq(h1_gram, y))
        assert abs(dual_norm_Hm1(y, grams) - ref) <= 1e-13 * ref
    with pytest.raises(BasisError, match="shape"):
        dual_norm_Hm1(np.ones(basis.dof_count + 1), grams)


@pytest.mark.parametrize("info", [-2, 3])
def test_failed_tbtrs_raises(info, monkeypatch):
    grams = assemble_grams(cubic_spline_basis(build_mesh(16)))
    calls = []

    def failing(ab, b, uplo="U", **kw):
        calls.append(uplo)
        return np.asarray(b, dtype=float), info

    monkeypatch.setattr(meshbasis, "dtbtrs", failing)
    with pytest.raises(AssemblyError, match=f"dtbtrs failed with info {info}"):
        dual_norm_Hm1(np.ones(16), grams)
    assert calls == ["L"]


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
