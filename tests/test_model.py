"""Constitutive functions, spline parameters, energy/mass, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from chident.meshbasis import (
    build_mesh,
    cubic_spline_basis,
    interpolate,
    quadratic_fe,
    quadrature_rule,
)
from sparse_oracle import basis_matrix
from chident.model import (
    ModelError,
    ModelParams,
    NaturalSplineGrid,
    PHASE_INTERVAL,
    ParameterError,
    RegularizerGram,
    SplineParameter,
    assemble_param_gram,
    default_initial_profile,
    default_params,
    energy,
    leaves_phase_interval,
    mass,
    mobility_floor,
    param_grid,
    scale_params,
)


def test_default_potential_values():
    params = default_params(0.003)
    # F(s) = (s - 0.99)^2 (s + 0.99)^4
    assert params.F(0.0) == pytest.approx(0.99**6, rel=1e-14)
    assert params.F(0.99) == pytest.approx(0.0, abs=1e-14)
    assert params.F(-0.99) == pytest.approx(0.0, abs=1e-14)
    # F'(0) = 2 * 0.99^5
    assert params.F(0.0, 1) == pytest.approx(2.0 * 0.99**5, rel=1e-13)
    # f(s, k) is the (k+1)-th derivative of the potential
    s = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(params.f(s, 0), params.F(s, 1), atol=1e-14)
    assert np.allclose(params.f(s, 1), params.F(s, 2), atol=1e-14)


def test_default_mobility_values():
    params = default_params(0.003)
    # b(s) = (1 - s)^4 (1 + s)^2 + 0.2
    assert params.b(0.0) == pytest.approx(1.2, rel=1e-14)
    assert params.b(1.0) == pytest.approx(0.2, rel=1e-14)
    assert params.b(-1.0) == pytest.approx(0.2, rel=1e-14)
    assert params.b(0.5) == pytest.approx(0.5**4 * 1.5**2 + 0.2, rel=1e-14)
    assert mobility_floor(params.b) == pytest.approx(0.2, rel=1e-6)


@pytest.mark.parametrize("which", ["F", "b"])
def test_closed_form_derivatives_consistent(which):
    params = default_params(0.003)
    p = getattr(params, which)
    s = np.linspace(-0.8, 0.8, 9)
    h = 1e-6
    fd1 = (p(s + h) - p(s - h)) / (2 * h)
    assert np.max(np.abs(fd1 - p(s, 1))) < 1e-6 * max(1.0, np.max(np.abs(fd1)))
    fd2 = (p(s + h, 1) - p(s - h, 1)) / (2 * h)
    assert np.max(np.abs(fd2 - p(s, 2))) < 1e-5 * max(1.0, np.max(np.abs(fd2)))


# the closed forms written with ``**``, as in the model's documentation
_LITERAL_FORMS = {
    "F": (
        lambda s: (s - 0.99) ** 2 * (s + 0.99) ** 4,
        lambda s: 2.0 * (s - 0.99) * (s + 0.99) ** 4 + 4.0 * (s - 0.99) ** 2 * (s + 0.99) ** 3,
        lambda s: 2.0 * (s + 0.99) ** 4 + 16.0 * (s - 0.99) * (s + 0.99) ** 3
        + 12.0 * (s - 0.99) ** 2 * (s + 0.99) ** 2,
    ),
    "b": (
        lambda s: (1.0 - s) ** 4 * (1.0 + s) ** 2 + 0.2,
        lambda s: -4.0 * (1.0 - s) ** 3 * (1.0 + s) ** 2 + 2.0 * (1.0 - s) ** 4 * (1.0 + s),
        lambda s: 12.0 * (1.0 - s) ** 2 * (1.0 + s) ** 2
        - 16.0 * (1.0 - s) ** 3 * (1.0 + s) + 2.0 * (1.0 - s) ** 4,
    ),
}


@pytest.mark.parametrize("which", ["F", "b"])
def test_closed_forms_match_literal_powers(which):
    p = getattr(default_params(0.003), which)
    s = np.linspace(-1.5, 1.5, 30001)
    for order, literal in enumerate(_LITERAL_FORMS[which]):
        ref = literal(s)
        assert np.max(np.abs(p(s, order) - ref)) <= 1e-14 * np.max(np.abs(ref))


def _curvature_map_per_row(grid):
    """Reference: the knot second-derivative map with its right-hand side
    filled one row at a time (the former construction)."""
    n, sig = grid.n_knots, grid.spacing
    m = n - 2
    ab = np.zeros((3, m))
    ab[0, 1:] = 1.0
    ab[1, :] = 4.0
    ab[2, :-1] = 1.0
    rhs = np.zeros((m, n))
    for j in range(m):
        rhs[j, j] += 6.0 / sig**2
        rhs[j, j + 1] -= 12.0 / sig**2
        rhs[j, j + 2] += 6.0 / sig**2
    d = np.zeros((n, n))
    d[1:-1, :] = solve_banded((1, 1), ab, rhs)
    return d


@pytest.mark.parametrize("spacing", [0.1, 0.25, 2.0 / 3.0, 0.02, 0.025])
def test_curvature_map_matches_per_row_construction(spacing):
    # 12 / sig^2 is 2 (6 / sig^2) exactly, so the two agree bit for bit
    grid = NaturalSplineGrid(spacing)
    assert np.array_equal(grid.curvature_map, _curvature_map_per_row(grid))
    assert grid.knots[0] == -1.0 and grid.knots[-1] == 1.0


def test_natural_spline_grid_matches_reference():
    grid = NaturalSplineGrid(0.25)
    assert grid.n_knots == 9
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.n_knots)
    ref = CubicSpline(grid.knots, vals, bc_type="natural")
    s = np.linspace(-1.0, 1.0, 157)
    for order in (0, 1, 2):
        ours = grid.eval_matrix(s, order) @ vals
        assert np.max(np.abs(ours - ref(s, order))) < 1e-10


def test_natural_spline_reproduces_linears():
    grid = param_grid()  # [-1, 1] at spacing 0.1
    assert grid.n_knots == 21
    s = np.linspace(-1.0, 1.0, 101)
    line = SplineParameter(grid, 2.0 * grid.knots + 0.5)
    assert np.max(np.abs(line(s) - (2.0 * s + 0.5))) < 1e-12
    assert np.max(np.abs(line(s, 1) - 2.0)) < 1e-10
    # partition of unity in the evaluation matrix
    e0 = grid.eval_matrix(s, 0)
    assert np.allclose(np.asarray(e0).sum(axis=1), 1.0, atol=1e-12)


def _eval_matrix_add_at(grid, s, order):
    """Evaluation matrix accumulated with np.add.at (the former construction).

    Its weights are the same products as ``local_weights``, so the two
    constructions must agree bit for bit; the arithmetic of the weights is
    checked against literal powers in ``test_local_weights_match_literal_powers``.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    sig = grid.spacing
    piece = np.clip(np.floor((s - grid.lo) / sig).astype(np.int64), 0, grid.n_knots - 2)
    u = (s - grid.knots[piece]) / sig
    npts = len(s)
    rows = np.arange(npts)
    v_part = np.zeros((npts, grid.n_knots))
    m_part = np.zeros((npts, grid.n_knots))
    if order == 0:
        v_left, v_right = 1.0 - u, u
        m_left = sig**2 / 6.0 * ((1.0 - u) * (1.0 - u) * (1.0 - u) - (1.0 - u))
        m_right = sig**2 / 6.0 * (u * u * u - u)
    elif order == 1:
        v_left, v_right = np.full(npts, -1.0 / sig), np.full(npts, 1.0 / sig)
        m_left = sig / 6.0 * (1.0 - 3.0 * (1.0 - u) ** 2)
        m_right = sig / 6.0 * (3.0 * u**2 - 1.0)
    else:
        v_left = v_right = np.zeros(npts)
        m_left, m_right = 1.0 - u, u
    np.add.at(v_part, (rows, piece), v_left)
    np.add.at(v_part, (rows, piece + 1), v_right)
    np.add.at(m_part, (rows, piece), m_left)
    np.add.at(m_part, (rows, piece + 1), m_right)
    return v_part + m_part @ grid.curvature_map


@settings(max_examples=50)
@given(
    spacing=st.sampled_from([0.1, 0.25, 0.5, 2.0 / 3.0]),
    order=st.integers(0, 2),
    data=st.data(),
)
def test_eval_matrix_matches_add_at_construction(spacing, order, data):
    grid = NaturalSplineGrid(spacing)
    inside = st.floats(-1.0, 1.0, allow_nan=False)
    beyond = st.floats(-3.0, 3.0, allow_nan=False)
    knots = st.sampled_from(list(grid.knots))
    s = np.array(data.draw(st.lists(st.one_of(inside, beyond, knots), min_size=1, max_size=40)))
    assert np.array_equal(grid.eval_matrix(s, order), _eval_matrix_add_at(grid, s, order))


@pytest.mark.parametrize("make_basis", [quadratic_fe, cubic_spline_basis])
@pytest.mark.parametrize("n_cells", [16, 64, 200])
def test_mass_and_energy_match_basis_matrix_quadrature(make_basis, n_cells):
    params = default_params(0.003)
    basis = make_basis(build_mesh(n_cells))
    rng = np.random.default_rng(n_cells)
    x, w = quadrature_rule(basis.mesh, 8)
    e0, e1 = basis_matrix(basis, x, 0), basis_matrix(basis, x, 1)
    for _ in range(3):
        phi = interpolate(basis, default_initial_profile)
        phi.coef += 0.05 * rng.standard_normal(basis.dof_count)
        m_ref = w @ (e0 @ phi.coef)
        grad, vals = e1 @ phi.coef, e0 @ phi.coef
        e_ref = w @ (0.5 * params.gamma * grad**2 + params.F(vals))
        assert abs(mass(phi) - m_ref) <= 1e-14 * abs(m_ref)
        assert abs(energy(phi, params) - e_ref) <= 1e-14 * abs(e_ref)


def test_phase_interval_is_closed():
    lo, hi = PHASE_INTERVAL
    assert not leaves_phase_interval(np.array([lo, 0.0, hi]))
    for bad in (np.nextafter(hi, 2.0), np.nextafter(lo, -2.0), np.nan):
        assert leaves_phase_interval(np.array([0.0, bad]))


def test_spline_parameter_validation():
    grid = param_grid()
    with pytest.raises(ParameterError):
        SplineParameter(grid, np.ones(5))
    # one knot span divides [-1, 1] evenly but leaves no interior knot
    with pytest.raises(ParameterError, match="at least two knot spans"):
        NaturalSplineGrid(2.0)
    with pytest.raises(ParameterError, match="evenly divide"):
        NaturalSplineGrid(0.3)
    with pytest.raises(ParameterError, match="spacing must be positive"):
        NaturalSplineGrid(0.0)
    # at most 2001 knots, so the dense curvature map takes at most 32 MB
    assert NaturalSplineGrid(1e-3).n_knots == 2001
    with pytest.raises(ParameterError, match="too small: 2002 knots, more than 2001"):
        NaturalSplineGrid(2.0 / 2001)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_model_params_need_a_positive_finite_gamma(gamma):
    params = default_params(0.003)
    with pytest.raises(ModelError, match="gamma must be positive and finite"):
        ModelParams(gamma, params.b, params.F)


def test_mass_and_energy_of_constant():
    basis = cubic_spline_basis(build_mesh(32))
    params = default_params(0.003)
    c = 0.3
    phi = interpolate(basis, lambda x: np.full_like(x, c))
    assert mass(phi) == pytest.approx(c, abs=1e-14)
    # gradient term vanishes, so the energy is just F(c)
    assert energy(phi, params) == pytest.approx(params.F(c), rel=1e-12)


def test_mass_of_profile():
    basis = cubic_spline_basis(build_mesh(200))
    from chident.model import default_initial_profile

    phi = interpolate(basis, default_initial_profile)
    assert mass(phi) == pytest.approx(0.1, abs=1e-10)


def test_scale_params_relations():
    params = default_params(0.003)
    d, c = 2.0, 1.0
    scaled = scale_params(params, d, c)
    s = np.linspace(-0.9, 0.9, 11)
    assert scaled.gamma == pytest.approx(params.gamma / d, rel=1e-14)
    assert np.allclose(scaled.b(s), d * params.b(s), rtol=1e-13)
    assert np.allclose(scaled.F(s, 1), params.F(s, 1) / d + c, rtol=1e-13)
    assert np.allclose(scaled.F(s, 2), params.F(s, 2) / d, rtol=1e-13)
    with pytest.raises(ModelError):
        scale_params(params, 0.0)


def test_scale_params_spline_branch():
    grid = param_grid()
    params = default_params(0.003)
    b_spline = SplineParameter(grid, params.b(grid.knots), name="b")
    p2 = ModelParams(gamma=0.003, b=b_spline, F=params.F)
    scaled = scale_params(p2, 2.0, 1.0)
    s = np.linspace(-1.0, 1.0, 41)
    assert np.allclose(scaled.b(s), 2.0 * b_spline(s), rtol=1e-12)


def test_param_gram_is_spd_h2():
    grid = NaturalSplineGrid(0.25)
    reg = assemble_param_gram(grid)
    r = reg.R
    assert np.allclose(r, r.T, atol=1e-12)
    w = np.linalg.eigvalsh(r)
    assert w.min() > 0.0
    # the squared-H2 norm of a linear function has no curvature part:
    # it must equal the L2 + H1 pieces alone, computed on [-1, 1]
    line = 2.0 * grid.knots + 0.5
    # integral of (2s + 0.5)^2 over [-1, 1] = 8/3 + 0.5; of 2^2 = 8
    expect = 8.0 / 3.0 + 0.5 + 8.0
    assert line @ (r @ line) == pytest.approx(expect, rel=1e-10)


def test_param_gram_keeps_its_cholesky_factor():
    reg = assemble_param_gram(NaturalSplineGrid(0.1))
    assert not reg.L.flags.writeable and not reg.R.flags.writeable
    assert np.array_equal(reg.L, np.tril(reg.L))
    assert np.max(np.abs(reg.L @ reg.L.T - reg.R)) <= 1e-13 * np.max(np.abs(reg.R))
    with pytest.raises(ParameterError, match="positive definite"):
        RegularizerGram(reg.grid, -reg.R)


_LITERAL_WEIGHTS = (
    lambda u, sig: (sig**2 / 6.0 * ((1.0 - u) ** 3 - (1.0 - u)),
                    sig**2 / 6.0 * (u**3 - u), 1.0 - u, u),
    lambda u, sig: (sig / 6.0 * (1.0 - 3.0 * (1.0 - u) ** 2),
                    sig / 6.0 * (3.0 * u**2 - 1.0),
                    np.full_like(u, -1.0 / sig), np.full_like(u, 1.0 / sig)),
    lambda u, sig: (1.0 - u, u, np.zeros_like(u), np.zeros_like(u)),
)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("spacing", [0.02, 0.1, 0.25, 2.0 / 3.0])
def test_local_weights_match_literal_powers(spacing, order):
    grid = NaturalSplineGrid(spacing)
    # inside the grid and up to 3 beyond either end, where the end pieces
    # extend with u far outside [0, 1]
    s = np.concatenate([np.linspace(-1.0, 1.0, 2001), np.linspace(-4.0, 4.0, 2001)])
    piece, weights = grid.local_weights(s, order)
    u = (s - grid.knots[piece]) / grid.spacing
    ref = np.array(_LITERAL_WEIGHTS[order](u, grid.spacing))
    assert np.max(np.abs(np.array(weights) - ref)) <= 1e-14 * np.max(np.abs(ref))
