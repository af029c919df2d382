"""Observation grid, difference quotients, level sets, noise."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chident import data as chdata
from chident.meshbasis import (
    PeriodicField,
    assemble_grams,
    build_mesh,
    cell_polys,
    cubic_spline_basis,
    eval_field,
    interpolate,
    poly_vals,
    quadratic_fe,
    quadrature_rule,
)
from chident.model import default_params
from chident.data import (
    DataError,
    ObservationData,
    attained_range,
    attained_ranges,
    build_observability_report,
    chemical_potential_from_data,
    coarea_coefficients,
    independence_check,
    inject_noise,
    level_crossings,
    merge_intervals,
    observable_range,
    piece_value_bounds,
    restrict_to_data_grid,
    spline_antiderivative,
    time_derivative,
)

GAMMA = 0.003


def _constant_data(c=0.25, n=16, n_times=3, tau=1e-4):
    basis = cubic_spline_basis(build_mesh(n))
    coef = np.tile(interpolate(basis, lambda x: np.full_like(x, c)).coef,
                   (n_times, 1))
    return ObservationData(basis=basis, times=tau * np.arange(n_times),
                           coef=coef, tau_data=tau)


def test_restriction_layout(reference_run, reference_data):
    traj, _ = reference_run
    data = reference_data
    assert data.n_times == (traj.n_states - 1) // 2 + 1
    assert data.tau_data == pytest.approx(2 * traj.tau, rel=1e-15)
    assert np.allclose(data.times, traj.times[::2], atol=1e-18)
    assert data.provenance == "interpolation-only"
    assert data.delta == 0.0
    # the restriction interpolates the FE vertex values exactly
    nodes = data.basis.mesh.nodes()
    k = data.n_times // 2
    ours = eval_field(data.phi_field(k), nodes)
    fine = eval_field(traj.phi_field(2 * k), nodes)
    assert np.max(np.abs(ours - fine)) < 1e-13
    # recorded interpolation discrepancies are small but nonzero
    assert 0.0 < data.interp_sup < 1.0
    assert 0.0 < data.interp_l2 <= data.interp_sup * np.sqrt(
        data.tau_data * data.n_times
    )


def test_restriction_validation(reference_run):
    traj, _ = reference_run
    with pytest.raises(DataError):
        restrict_to_data_grid(traj, 3)  # divides neither 200 nor 1000 evenly
    with pytest.raises(DataError):
        restrict_to_data_grid(traj, 0)


def test_observation_container_validation():
    basis = cubic_spline_basis(build_mesh(8))
    with pytest.raises(DataError):
        ObservationData(basis=basis, times=np.array([0.0, 1e-4]),
                        coef=np.zeros((3, basis.dof_count)), tau_data=1e-4)
    fe = quadratic_fe(build_mesh(8))
    with pytest.raises(DataError):
        ObservationData(basis=fe, times=np.array([0.0]),
                        coef=np.zeros((1, fe.dof_count)), tau_data=1e-4)


def test_index_of(reference_data):
    assert reference_data.index_of(0.0) == 0
    assert reference_data.index_of(4e-5) == 1
    assert reference_data.index_of(0.02) == reference_data.n_times - 1
    with pytest.raises(DataError):
        reference_data.index_of(1e-5)  # off the observation grid
    with pytest.raises(DataError):
        reference_data.index_of(0.02 + 4e-5)


def test_time_derivative_is_backward_difference(reference_data):
    k = 5
    t = float(reference_data.times[k])
    d = time_derivative(reference_data, t)
    expect = (reference_data.coef[k] - reference_data.coef[k - 1]) / reference_data.tau_data
    assert np.array_equal(d.coef, expect)
    with pytest.raises(DataError):
        time_derivative(reference_data, 0.0)


def test_attained_range_bounds_nodal_values(reference_data):
    t = float(reference_data.times[100])
    lo, hi = attained_range(reference_data, t)
    vals = eval_field(reference_data.phi_field(100),
                      np.linspace(0, 1, 2001))
    assert lo <= vals.min() + 1e-12 and hi >= vals.max() - 1e-12
    assert hi - lo < 2.0
    bounds = piece_value_bounds(reference_data.basis, reference_data.coef[100])
    assert bounds.shape == (reference_data.basis.mesh.n_cells, 2)
    assert np.all(bounds[:, 0] <= bounds[:, 1])
    # a stack of snapshots gives each snapshot's own bounds and ranges
    stacked = piece_value_bounds(reference_data.basis, reference_data.coef[[7, 100]])
    assert np.array_equal(stacked[1], bounds)
    times = reference_data.times[[7, 100]]
    assert attained_ranges(reference_data, times) == [attained_range(reference_data, t) for t in times]


def test_level_crossings_on_sine():
    basis = cubic_spline_basis(build_mesh(200))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    cr = level_crossings(f, 0.0)
    assert len(cr.x) == 2
    assert np.allclose(np.sort(cr.x), [0.0, 0.5], atol=1e-10)
    assert np.allclose(np.abs(cr.slope), 2 * np.pi, rtol=1e-7)
    # crossing points actually sit on the level
    assert np.max(np.abs(eval_field(f, cr.x) - 0.0)) < 1e-9
    # third derivative from midpoint interpolation is second-order accurate
    target = -((2 * np.pi) ** 3) * np.cos(2 * np.pi * cr.x)
    assert np.max(np.abs(cr.third - target)) / np.max(np.abs(target)) < 5e-4


def test_level_crossings_off_level():
    basis = cubic_spline_basis(build_mesh(64))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    assert len(level_crossings(f, 1.5).x) == 0
    cr = level_crossings(f, 0.5)
    assert len(cr.x) == 2
    assert np.max(np.abs(eval_field(f, cr.x) - 0.5)) < 1e-9


def test_sine_level_functionals_high_resolution():
    # frozen oracle: at 4096 cells the crossing functionals of the
    # interpolated sine hit their closed forms to better than 1e-6
    basis = cubic_spline_basis(build_mesh(4096))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    cr = level_crossings(f, 0.0)
    a_c = float(np.sum(np.abs(cr.slope)))
    a_b = -GAMMA * float(np.sum(cr.third * np.sign(cr.slope)))
    assert abs(a_c - 4 * np.pi) < 1e-6
    assert abs(a_b - 16 * GAMMA * np.pi**3) < 1e-6


def test_coarea_sample_fields(reference_data, params):
    rels = []
    for t in (8e-4, 1.6e-3):
        lo, hi = attained_range(reference_data, t)
        for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
            s = lo + frac * (hi - lo)
            sm = coarea_coefficients(reference_data, GAMMA, s, t)
            assert sm.t == t and sm.s == s
            assert sm.n_crossings >= 2 and sm.n_crossings % 2 == 0
            assert sm.min_slope > 0.0
            if not sm.degenerate:
                pred = params.b(s) * sm.A_b + params.b(s) * params.f(s, 1) * sm.A_c
                rels.append(abs(sm.A - pred) / max(abs(sm.A), abs(pred)))
    # the identity is resolved at several of these levels on this grid
    assert sum(r < 5e-2 for r in rels) >= 3


def test_coarea_degenerate_outside_range(reference_data):
    t = 8e-4
    lo, hi = attained_range(reference_data, t)
    above = coarea_coefficients(reference_data, GAMMA, hi + 0.1, t)
    assert above.degenerate and above.n_crossings == 0
    below = coarea_coefficients(reference_data, GAMMA, lo - 0.1, t)
    assert below.degenerate and below.n_crossings == 0
    # sublevel set orientation: below the range the set is empty, above
    # it is the whole torus, whose difference-quotient integral is the
    # mass rate of the interpolated snapshots -- zero up to the
    # interpolation transfer between grids
    assert below.A == 0.0
    assert abs(above.A) < 1e-5
    with pytest.raises(DataError):
        coarea_coefficients(reference_data, GAMMA, 0.1, 0.0)


def test_merge_intervals():
    assert merge_intervals([(0, 1), (0.5, 2), (3, 4)]) == [(0.0, 2.0), (3.0, 4.0)]
    assert merge_intervals([]) == []
    assert merge_intervals([(1, 0)]) == []  # empty interval dropped
    assert merge_intervals([(0, 1), (1, 2)]) == [(0.0, 2.0)]


def test_observable_range_constant_data_is_empty():
    data = _constant_data()
    params = default_params(GAMMA)
    assert observable_range(data, GAMMA, params.F, data.times[1]) == []
    lo, hi = attained_range(data, data.times[1])
    assert lo == pytest.approx(0.25, abs=1e-12)
    assert hi == pytest.approx(0.25, abs=1e-12)
    # constant up to rounding: the attained span is about 1e-17 and sup |mu'|
    # rounding noise near 1e-16, which the absolute floor keeps out
    basis = cubic_spline_basis(build_mesh(9))
    flat = ObservationData(basis=basis, times=[0.0], coef=np.full((1, 9), 0.32177206377279066),
                           tau_data=1e-4)
    assert observable_range(flat, GAMMA, params.F, 0.0) == []
    assert _observable_range_loop(flat, GAMMA, params.F, 0.0) == []


def test_observable_range_inside_attained(reference_data, params):
    t = 4e-3
    ivs = observable_range(reference_data, GAMMA, params.F, t)
    assert ivs
    lo, hi = attained_range(reference_data, t)
    for a, b in ivs:
        assert a >= lo - 1e-9 and b <= hi + 1e-9 and a < b
    # a harsher relative threshold cannot enlarge the observable set
    harsher = observable_range(reference_data, GAMMA, params.F, t, threshold_rel=0.5)
    measure = lambda u: sum(b - a for a, b in u)
    assert measure(harsher) <= measure(ivs) + 1e-12


def test_chemical_potential_nodal_consistency(reference_data, params):
    t = 4e-3
    nodes = reference_data.basis.mesh.nodes()
    mu = chemical_potential_from_data(reference_data, GAMMA, params.F, t)
    f = reference_data.phi_field(reference_data.index_of(t))
    direct = -GAMMA * eval_field(f, nodes, 2) + params.f(eval_field(f, nodes), 0)
    assert np.max(np.abs(eval_field(mu, nodes) - direct)) < 1e-12


def test_independence_check(reference_data):
    cond, ok, mat = independence_check(reference_data, GAMMA, 0.1, 0.002, 0.006)
    assert mat.shape == (2, 2)
    assert ok and 1.0 <= cond < 100.0
    lo, hi = attained_range(reference_data, 0.002)
    with pytest.raises(DataError):
        independence_check(reference_data, GAMMA, hi + 0.05, 0.002, 0.006)


def test_spline_antiderivative_matches_closed_form():
    basis = cubic_spline_basis(build_mesh(200))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    integral = spline_antiderivative(f)
    for x in (0.1, 0.25, 0.5, 0.77):
        expect = (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
        assert integral(x) == pytest.approx(expect, abs=1e-8)
    assert integral(0.0) == 0.0
    assert integral(1.0) == pytest.approx(0.0, abs=1e-12)  # zero-mean field


def test_antiderivative_total_equals_mass(reference_data):
    from chident.model import mass

    f = reference_data.phi_field(10)
    integral = spline_antiderivative(f)
    assert integral(1.0) == pytest.approx(mass(f), abs=1e-13)


def test_inject_noise_calibration_and_reproducibility(reference_data):
    noisy1, rec1 = inject_noise(reference_data, 1e-3, seed=11)
    noisy1b, _ = inject_noise(reference_data, 1e-3, seed=11)
    noisy2, rec2 = inject_noise(reference_data, 1e-2, seed=11)
    other, _ = inject_noise(reference_data, 1e-3, seed=12)

    # the attained sup-in-time H3 size is exactly the requested level
    assert rec1.sup_h3 == pytest.approx(1e-3, rel=1e-12)
    assert rec1.sup_rate_dual <= 1e-3 * (1 + 1e-9)
    assert noisy1.delta == 1e-3 and noisy1.provenance != reference_data.provenance

    # bitwise reproducible per seed, different across seeds
    assert np.array_equal(noisy1.coef, noisy1b.coef)
    assert not np.array_equal(noisy1.coef, other.coef)

    # the realization is linear in the noise level: the temporal factor
    # does not depend on delta, so the perturbation scales by 10 exactly
    # (up to cosine rounding amplified by omega * t)
    d1 = noisy1.coef - reference_data.coef
    d2 = noisy2.coef - reference_data.coef
    assert rec1.omega == pytest.approx(rec2.omega, rel=1e-12)
    assert np.max(np.abs(d2 - 10.0 * d1)) <= 1e-9 * np.max(np.abs(d2))


def test_inject_noise_edge_cases(reference_data):
    clean, rec = inject_noise(reference_data, 0.0, seed=3)
    assert rec.sup_h3 == 0.0
    assert np.array_equal(clean.coef, reference_data.coef)
    for delta in (-1e-3, np.nan, np.inf):
        with pytest.raises(DataError):
            inject_noise(reference_data, delta)


@pytest.mark.parametrize("degeneracy_rel", [0.05, 0.4])
def test_report_samples_each_pair_once(reference_data, params, monkeypatch,
                                       degeneracy_rel):
    real, calls = chdata.coarea_coefficients, []

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(chdata, "coarea_coefficients", counting)
    report = build_observability_report(
        reference_data, GAMMA, params.F, degeneracy_rel=degeneracy_rel
    )
    monkeypatch.undo()
    assert len(report.rows) == 35 and len(calls) == 2 * len(report.rows)
    # oracle: the row's sample and the two-time check from the public functions
    for i, row in enumerate(report.rows):
        k = list(report.times).index(row.t)
        partner = report.times[k + 1] if k + 1 < len(report.times) else report.times[k - 1]
        sample = coarea_coefficients(reference_data, GAMMA, row.s, row.t, degeneracy_rel)
        try:
            cond, _, _ = independence_check(reference_data, GAMMA, row.s, row.t, partner)
        except DataError:
            cond = np.inf
        assert (row.A_b, row.A_c, row.A, row.degenerate) == (
            sample.A_b, sample.A_c, sample.A, sample.degenerate
        ), i
        assert row.cond == cond, i


def test_observability_report_smoke(reference_data, params):
    times = reference_data.times[[10, 50]]
    report = build_observability_report(
        reference_data, GAMMA, params.F, times=times, levels_per_time=5
    )
    assert np.allclose(report.times, times)
    assert len(report.rows) == 10
    for row in report.rows:
        assert row.t in times
        assert row.cond > 0.0  # inf marks an unusable partner time
    assert any(np.isfinite(r.cond) for r in report.rows)
    assert report.attained and report.observable


# --- monotone-piece root kernel against the per-cell np.roots loop ---------


def _np_roots_unit(poly, tol=1e-10):
    """Reference: real roots in [0, 1) of one local cubic through np.roots."""
    coeffs = poly[::-1].copy()
    lead = np.max(np.abs(coeffs))
    if lead == 0.0:
        return np.empty(0)
    nz = np.nonzero(np.abs(coeffs) > 1e-14 * lead)[0]
    coeffs = coeffs[nz[0]:]
    if len(coeffs) < 2:
        return np.empty(0)
    r = np.roots(coeffs)
    r = r[np.abs(r.imag) < 1e-8].real
    r = r[(r >= -tol) & (r < 1.0 - tol)]
    return np.clip(r, 0.0, 1.0)


def _level_roots_loop(f, s):
    """Reference: cells bracketed by their value bounds, padded by 1e-12,
    and one np.roots call per bracketed cell."""
    p0 = cell_polys(f.basis, f.coef)
    bounds = piece_value_bounds(f.basis, f.coef)
    pad = 1e-12 * max(1.0, np.max(np.abs(bounds)))
    cells = np.nonzero((bounds[:, 0] - pad <= s) & (s <= bounds[:, 1] + pad))[0]
    polys = p0[cells]
    polys[:, 0] -= s
    per_cell = [_np_roots_unit(poly) for poly in polys]
    rows = np.repeat(cells, [len(r) for r in per_cell])
    return rows, np.concatenate([np.empty(0), *per_cell])


@settings(max_examples=40)
@given(
    n_cells=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    flat_degree=st.sampled_from([None, 0, 1, 2]),
)
def test_level_roots_match_per_cell_np_roots(n_cells, seed, flat_degree):
    rng = np.random.default_rng(seed)
    basis = cubic_spline_basis(build_mesh(n_cells))
    coef = rng.uniform(-0.9, 0.9, n_cells)
    if flat_degree is not None:
        # coefficients on a polynomial of this degree make the pieces
        # inside the run drop to that degree
        run = (rng.integers(n_cells) + np.arange(rng.integers(4, n_cells + 1))) % n_cells
        k = np.arange(len(run)) / len(run)
        coef[run] = np.polyval(rng.uniform(-0.4, 0.4, flat_degree + 1), k)
    f = PeriodicField(basis, coef)
    p0 = cell_polys(basis, coef)
    lo, hi = float(p0[:, 0].min()), float(p0[:, 0].max())
    levels = np.concatenate([
        rng.uniform(lo, hi, 3),
        p0[rng.integers(n_cells, size=3), 0],      # exact node values
        [p0[run[1], 0]] if flat_degree is not None else [],
        [lo - 0.5, hi + 0.5],                      # outside the range
    ])
    p1 = cell_polys(basis, coef, 1)
    sup_slope = np.max(np.abs(poly_vals(p1[:, None, :], np.linspace(0.0, 1.0, 9))))
    h = 1.0 / n_cells
    real = chdata._level_roots
    for s in levels:
        got = level_crossings(f, s)
        chdata._level_roots = _level_roots_loop
        try:
            ref = level_crossings(f, s)
        finally:
            chdata._level_roots = real
        assert np.all((got.x >= 0.0) & (got.x < 1.0))
        assert np.all(np.abs(eval_field(f, got.x) - s) <= 1e-12)
        # cells on which the spline is the constant s, to rounding
        flat = np.all(np.abs(p0 - [s, 0.0, 0.0, 0.0]) <= 1e-14, axis=1)
        if flat.any():
            # no crossing inside a constant piece: a knot between two
            # constant cells is inside it, the knots at its ends are not
            side = [basis.mesh.locate(got.x + d)[0] for d in (-1e-6 * h, 1e-6 * h)]
            assert not np.any(flat[side[0]] & flat[side[1]])
            continue
        # s touches the spline at a knot where phi' = 0: np.roots splits
        # the double root by up to sqrt(eps), so the reference may report
        # it twice; both routes must still put crossings at the same places
        if np.any((np.abs(p0[:, 0] - s) <= 1e-12) & (np.abs(p1[:, 0]) <= 1e-12 * sup_slope)):
            assert np.all(_periodic_dist(got.x, ref.x) <= 1e-6 * h)
            assert np.all(_periodic_dist(ref.x, got.x) <= 1e-6 * h)
            continue
        assert len(got.x) == len(ref.x)
        steep = np.abs(got.slope) >= 1e-3 * sup_slope
        assert np.all(_periodic_dist(got.x[steep], ref.x) <= 1e-12)


def _periodic_dist(x, ref):
    """Distance on the unit torus from each point of x to its nearest in ref."""
    dist = np.abs(x[:, None] - ref[None, :])
    return np.min(np.minimum(dist, 1.0 - dist), axis=1, initial=np.inf)


def _observable_range_loop(data, gamma, potential, t, threshold_rel=1e-3, n_levels=201):
    """Reference: one level_crossings and one eval_field call per level."""
    f = data.phi_field(data.index_of(t))
    mu = chemical_potential_from_data(data, gamma, potential, t)
    lo, hi = attained_range(data, t)
    xq, _ = quadrature_rule(data.basis.mesh, 8)
    threshold = max(threshold_rel * float(np.max(np.abs(eval_field(mu, xq, 1)))),
                    chdata.MU_GRAD_FLOOR)
    levels = lo + (np.arange(1, n_levels + 1) / (n_levels + 1)) * (hi - lo)
    good = []
    for s in levels:
        cr = level_crossings(f, s)
        good.append(len(cr.x) > 0 and np.max(np.abs(eval_field(mu, cr.x, 1))) > threshold)
    intervals, i = [], 0
    for flag, run in itertools.groupby(good):
        n = len(list(run))
        if flag:
            intervals.append((float(levels[i]), float(levels[i + n - 1])))
        i += n
    return intervals


def test_batched_level_sets_match_loop_oracle(reference_data, params, window_times, monkeypatch):
    times = window_times[[0, 49, 99, 149, 199]]
    batched = [observable_range(reference_data, GAMMA, params.F, t) for t in times]
    f = reference_data.phi_field(reference_data.index_of(times[2]))
    lo, hi = attained_range(reference_data, times[2])
    levels = lo + np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * (hi - lo)
    crossings = [level_crossings(f, s) for s in levels]

    monkeypatch.setattr(chdata, "_level_roots", _level_roots_loop)
    for t, ivs in zip(times, batched):
        assert ivs == _observable_range_loop(reference_data, GAMMA, params.F, t)
    for s, cr in zip(levels, crossings):
        ref = level_crossings(f, s)
        for name in ("x", "slope", "third"):
            got, want = getattr(cr, name), getattr(ref, name)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _random_periodic_spline(n_cells, seed, shape):
    """Spline coefficients: rough noise, a few smooth modes, smooth with a
    flat run, or one value repeated (a snapshot constant up to rounding)."""
    rng = np.random.default_rng(seed)
    if shape == "constant":
        return np.full(n_cells, rng.uniform(-0.9, 0.9))
    if shape == "rough":
        return rng.uniform(-0.9, 0.9, n_cells)
    x = np.arange(n_cells) / n_cells
    coef = sum(rng.standard_normal() / k**2 * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
               for k in range(1, 5))
    coef = 0.8 * coef / np.max(np.abs(coef))
    if shape == "flat-run":
        # coefficients on a polynomial of degree 0-2 over a run of nodes,
        # which leaves at least one node out
        run = (rng.integers(n_cells) + np.arange(rng.integers(4, n_cells))) % n_cells
        coef[run] = np.polyval(rng.uniform(-0.4, 0.4, rng.integers(1, 4)), np.arange(len(run)) / len(run))
    return coef


@settings(max_examples=40)
@given(
    n_cells=st.integers(8, 40),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["rough", "smooth", "flat-run", "constant"]),
    threshold_rel=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]),
)
def test_observable_range_matches_loop_on_random_splines(n_cells, seed, shape, threshold_rel):
    basis = cubic_spline_basis(build_mesh(n_cells))
    coef = _random_periodic_spline(n_cells, seed, shape)
    data = ObservationData(basis=basis, times=[0.0], coef=coef[None], tau_data=1e-4)
    potential = default_params(GAMMA).F
    got = observable_range(data, GAMMA, potential, 0.0, threshold_rel=threshold_rel)
    assert got == _observable_range_loop(data, GAMMA, potential, 0.0, threshold_rel)
    if shape == "constant":
        assert got == []

    # piece bounds against phi at the cell ends and at the np.roots of phi'
    p = cell_polys(basis, coef)
    bounds = piece_value_bounds(basis, coef)
    for poly, (lo, hi) in zip(p, bounds):
        u = np.concatenate([[0.0, 1.0], _np_roots_unit(poly[1:] * [1.0, 2.0, 3.0])])
        vals = poly_vals(poly, u)
        assert abs(lo - vals.min()) <= 1e-14 and abs(hi - vals.max()) <= 1e-14

    # sup |mu'| exactly: mu' is a quadratic on each cell, so the sup sits at
    # an end or at the vertex of some piece
    mu = chemical_potential_from_data(data, GAMMA, potential, 0.0)
    d = cell_polys(basis, mu.coef, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(np.nan_to_num(-d[:, 1] / (2.0 * d[:, 2])), 0.0, 1.0)
    sup = max(np.max(np.abs(poly_vals(d, u))) for u in (0.0, 1.0, vertex))
    assert observable_range(data, GAMMA, potential, 0.0, threshold=sup * (1.0 + 1e-9)) == []
