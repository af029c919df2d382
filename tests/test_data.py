"""Observation grid, difference quotients, level sets, noise."""

import itertools
import re
from dataclasses import replace

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
    gauss_table,
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
    coarea_coefficients,
    inject_noise,
    level_crossings,
    merge_intervals,
    observable_range,
    restrict_to_data_grid,
)

from conftest import GAMMA, crossings_of, eval_field


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
    ours = eval_field(PeriodicField(data.basis, data.coef[k]), nodes)
    fine = eval_field(traj.phi_field(2 * k), nodes)
    assert np.max(np.abs(ours - fine)) < 1e-13
    # recorded interpolation discrepancies are small but nonzero
    assert 0.0 < data.interp_sup < 1.0
    assert 0.0 < data.interp_l2 <= data.interp_sup * np.sqrt(
        data.tau_data * data.n_times
    )


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_restriction_discrepancy_matches_an_eight_point_rule(reference_run, factor):
    # on a fine cell the coarse cubic and the FE quadratic leave integrands
    # of degree <= 6, so the restriction's 4-point rule agrees with 8
    # points, evaluated here order by order from the cell cubics
    traj, _ = reference_run
    n = 101                                     # 100 steps: every factor divides them
    traj = replace(traj, times=traj.times[:n], phi=traj.phi[:n], mu=traj.mu[:n])
    data = restrict_to_data_grid(traj, factor)
    kept = traj.phi[::factor]
    # the states fill more than one block of the discrepancy loop, and
    # the last block only in part
    block = chdata._RESTRICT_BLOCK_DOUBLES // (traj.basis.mesh.n_cells * 2 * 4)
    assert len(kept) > block and len(kept) % block
    fine = [gauss_table(traj.basis, 8, r) for r in (0, 1)]
    cells = np.arange(traj.basis.mesh.n_cells)
    coarse_cell = cells // factor
    u = ((cells % factor)[:, None] + fine[0].points) / factor
    acc = 0.0
    for r in (0, 1):
        coarse = poly_vals(cell_polys(data.basis, data.coef, r)[:, coarse_cell, None, :], u)
        acc = acc + np.sum(fine[0].weights * (coarse - fine[r].gather(kept)) ** 2, axis=(1, 2))
    errs = np.sqrt(acc)
    trapz = np.ones(len(errs))
    trapz[[0, -1]] = 0.5
    assert data.interp_sup == pytest.approx(errs.max(), rel=1e-13)
    l2 = np.sqrt(data.tau_data * np.sum(trapz * errs**2))
    assert data.interp_l2 == pytest.approx(l2, rel=1e-13)


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


def test_indices_of_on_and_off_the_grid(reference_data):
    last = reference_data.n_times - 1
    assert reference_data.indices_of([0.0, 4e-5, 0.02]).tolist() == [0, 1, last]
    # off the observation grid, and past its end
    for off in (1e-5, 0.02 + 4e-5):
        with pytest.raises(DataError):
            reference_data.indices_of([4e-5, off])
    # off the index range although a stored time matches: with tau_data
    # halved, t = 0.02 rounds to index 2 (n_times - 1)
    halved = replace(reference_data, tau_data=0.5 * reference_data.tau_data)
    with pytest.raises(DataError):
        halved.indices_of([0.02])


def _index_of_loop(data, t):
    """Reference: the scalar lookup, nearest multiple of tau_data on the grid."""
    k = int(round(t / data.tau_data))
    if k < 0 or k >= data.n_times or abs(data.times[k] - t) > 1e-9 * max(
        data.tau_data, abs(t), 1e-300
    ):
        raise DataError(f"t = {t} is not on the observation time grid")
    return k


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40))
def test_indices_of_matches_the_per_time_rule(reference_data, window_times, seed, size):
    data, rng = reference_data, np.random.default_rng(seed)
    times = rng.choice(window_times, size, replace=False)
    expect = [_index_of_loop(data, t) for t in times]
    assert data.indices_of(times).tolist() == expect
    assert [data.indices_of([t])[0] for t in times] == expect
    # an off-grid time anywhere in the batch raises the per-time error
    i = rng.integers(size)
    times[i] += 0.25 * data.tau_data
    off = times[i]
    with pytest.raises(DataError) as expected:
        _index_of_loop(data, off)
    message = f"^{re.escape(str(expected.value))}$"
    with pytest.raises(DataError, match=message):
        data.indices_of(times)
    with pytest.raises(DataError, match=message):
        data.indices_of([off])


def _one_pair(data, s, t):
    """``coarea_coefficients`` at the one pair (t, s): arrays of length 1."""
    return coarea_coefficients(data, GAMMA, [s], [t])


def _integral(f, x):
    """int_0^x of the spline field f at the points x, from the co-area's
    antiderivative tables."""
    return chdata._integrate(f.basis.mesh, chdata._antiderivatives(f.basis, f.coef[None]), 0, x)


def _piece_bounds(basis, coef):
    """Exact (min, max) of a spline (or a stack, (..., dof)) on each cell:
    the extremes of its values at the cuts of ``_monotone_pieces``."""
    vals = chdata._monotone_pieces(cell_polys(basis, coef))[1]
    return np.stack([vals.min(axis=-1), vals.max(axis=-1)], axis=-1)


def test_coarea_difference_quotient_is_backward(reference_data):
    k = 5
    t = float(reference_data.times[k])
    expect = (reference_data.coef[k] - reference_data.coef[k - 1]) / reference_data.tau_data
    # above the attained range {phi < s} is the torus, so A integrates the
    # difference quotient over all of it
    d = PeriodicField(reference_data.basis, expect)
    assert _one_pair(reference_data, 2.0, t).A[0] == _integral(d, 1.0)
    with pytest.raises(DataError, match="no predecessor"):
        _one_pair(reference_data, 0.0, 0.0)


def test_attained_range_bounds_nodal_values(reference_data):
    t = float(reference_data.times[100])
    lo, hi = attained_range(reference_data, t)
    vals = eval_field(PeriodicField(reference_data.basis, reference_data.coef[100]),
                      np.linspace(0, 1, 2001))
    assert lo <= vals.min() + 1e-12 and hi >= vals.max() - 1e-12
    assert hi - lo < 2.0
    bounds = _piece_bounds(reference_data.basis, reference_data.coef[100])
    assert bounds.shape == (reference_data.basis.mesh.n_cells, 2)
    assert np.all(bounds[:, 0] <= bounds[:, 1])
    # a stack of snapshots gives each snapshot's own bounds and ranges
    stacked = _piece_bounds(reference_data.basis, reference_data.coef[[7, 100]])
    assert np.array_equal(stacked[1], bounds)
    times = reference_data.times[[7, 100]]
    assert attained_ranges(reference_data, times) == [attained_range(reference_data, t) for t in times]


def test_level_crossings_on_sine():
    basis = cubic_spline_basis(build_mesh(200))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    cr = crossings_of(f, [0.0])
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
    assert len(crossings_of(f, [1.5]).x) == 0
    cr = crossings_of(f, [0.5])
    assert len(cr.x) == 2
    assert np.max(np.abs(eval_field(f, cr.x) - 0.5)) < 1e-9


def test_sine_level_functionals_high_resolution():
    # frozen oracle: at 4096 cells the crossing functionals of the
    # interpolated sine hit their closed forms to better than 1e-6
    basis = cubic_spline_basis(build_mesh(4096))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    cr = crossings_of(f, [0.0])
    a_c = float(np.sum(np.abs(cr.slope)))
    a_b = -GAMMA * float(np.sum(cr.third * np.sign(cr.slope)))
    assert abs(a_c - 4 * np.pi) < 1e-6
    assert abs(a_b - 16 * GAMMA * np.pi**3) < 1e-6


def test_coarea_sample_fields(reference_data, params):
    times, levels = [], []
    for t in (8e-4, 1.6e-3):
        lo, hi = attained_range(reference_data, t)
        times += [t] * 5
        levels += [lo + frac * (hi - lo) for frac in (0.2, 0.35, 0.5, 0.65, 0.8)]
    sm = coarea_coefficients(reference_data, GAMMA, levels, times)
    assert np.array_equal(sm.t, times) and np.array_equal(sm.s, levels)
    assert np.all(sm.n_crossings >= 2) and np.all(sm.n_crossings % 2 == 0)
    assert np.all(sm.min_slope > 0.0)
    ok = ~sm.degenerate
    s, a = sm.s[ok], sm.A[ok]
    pred = params.b(s) * sm.A_b[ok] + params.c(s) * sm.A_c[ok]
    rels = np.abs(a - pred) / np.maximum(np.abs(a), np.abs(pred))
    # the identity is resolved at several of these levels on this grid
    assert np.sum(rels < 5e-2) >= 3


def test_coarea_degenerate_outside_range(reference_data):
    t = 8e-4
    lo, hi = attained_range(reference_data, t)
    sample = coarea_coefficients(reference_data, GAMMA, [hi + 0.1, lo - 0.1], [t, t])
    assert np.all(sample.degenerate) and not np.any(sample.n_crossings)
    # no crossing: the two sums and the smallest slope are +0.0
    vals = np.concatenate([sample.A_b, sample.A_c, sample.min_slope])
    assert np.all(vals == 0.0) and not np.signbit(vals).any()
    # sublevel set orientation: below the range the set is empty, above
    # it is the whole torus, whose difference-quotient integral is the
    # mass rate of the interpolated snapshots -- zero up to the
    # interpolation transfer between grids
    above, below = sample.A
    assert below == 0.0
    assert abs(above) < 1e-5
    with pytest.raises(DataError):
        _one_pair(reference_data, 0.1, 0.0)


def test_coarea_fields_are_float_for_every_batch_size(reference_data):
    t = 8e-4
    hi = attained_range(reference_data, t)[1]
    # no pair, and one pair that no crossing reaches: no bincount entry
    for levels, times in (([], []), ([hi + 0.1], [t])):
        sample = coarea_coefficients(reference_data, GAMMA, levels, times)
        for name in ("A_b", "A_c", "A", "min_slope"):
            value = getattr(sample, name)
            assert value.dtype == np.float64 and value.shape == (len(levels),), name


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


def test_observable_range_looks_its_time_up_once(reference_data, params, monkeypatch):
    calls = []
    real = ObservationData.indices_of

    def counted(self, times):
        calls.append(times)
        return real(self, times)

    monkeypatch.setattr(ObservationData, "indices_of", counted)
    assert observable_range(reference_data, GAMMA, params.F, 4e-3)
    assert len(calls) == 1
    # an array of times is looked up in one call as well
    assert len(observable_range(reference_data, GAMMA, params.F, [4e-3, 2e-3, 4e-3])) == 3
    assert len(calls) == 2


def test_coarea_coefficients_look_their_time_up_once(reference_data, monkeypatch):
    calls = []
    real = ObservationData.indices_of

    def counted(self, times):
        calls.append(times)
        return real(self, times)

    monkeypatch.setattr(ObservationData, "indices_of", counted)
    # levels below, inside and above the attained range, at one time
    sample = coarea_coefficients(reference_data, GAMMA, np.array([-2.0, 0.0, 2.0]), [4e-3] * 3)
    assert len(calls) == 1
    assert list(sample.n_crossings == 0) == [True, False, True]
    # and at two times
    times = [4e-3, 2e-3, 4e-3]
    sample = coarea_coefficients(reference_data, GAMMA, np.array([-2.0, 0.0, 2.0]), times)
    assert len(calls) == 2
    assert list(sample.n_crossings == 0) == [True, False, True]


def test_chemical_potential_nodal_consistency(reference_data, params):
    t = 4e-3
    nodes = reference_data.basis.mesh.nodes()
    ks = reference_data.indices_of([t])
    mu = PeriodicField(reference_data.basis,
                       chdata._chemical_potentials(reference_data, GAMMA, params.F, ks)[0])
    f = PeriodicField(reference_data.basis, reference_data.coef[ks[0]])
    direct = -GAMMA * eval_field(f, nodes, 2) + params.f(eval_field(f, nodes), 0)
    assert np.max(np.abs(eval_field(mu, nodes) - direct)) < 1e-12


def _two_time_cond(data, s, t1, t2):
    """The report's two-time condition number of level s from one
    one-pair co-area call per time: ``inf`` when either sample is degenerate."""
    samples = [_one_pair(data, s, t) for t in (t1, t2)]
    if any(sample.degenerate[0] for sample in samples):
        return np.inf
    mat = np.array([[sample.A_b[0], sample.A_c[0]] for sample in samples])
    return float(chdata._column_scaled_cond(mat[None])[0])


def test_independence_check(reference_data):
    assert 1.0 <= _two_time_cond(reference_data, 0.1, 0.002, 0.006) < 100.0
    lo, hi = attained_range(reference_data, 0.002)
    assert _two_time_cond(reference_data, hi + 0.05, 0.002, 0.006) == np.inf


def test_column_scaled_cond_matches_per_matrix_cond():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((6, 2, 2))
    mats[2, :, 1] = 0.0                       # zero column
    mats[4] = [[1.0, 2.0], [2.0, 4.0]]        # singular
    got = chdata._column_scaled_cond(mats)
    for i, mat in enumerate(mats):
        scale = np.linalg.norm(mat, axis=0)
        want = np.inf if np.any(scale == 0.0) else float(np.linalg.cond(mat / scale))
        assert got[i] == want, i
    assert got[2] == np.inf and got[4] > 1e15


def _level_runs_loop(levels, good):
    """Reference: the per-level scan that ``_level_runs`` replaced."""
    n_levels = len(levels)
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


def test_level_runs_match_loop():
    levels = np.linspace(-0.3, 0.7, 201)
    rng = np.random.default_rng(9)
    cases = [
        np.zeros(201, bool),                              # none observable
        np.ones(201, bool),                               # all observable
        np.r_[np.ones(5, bool), np.zeros(191, bool), np.ones(5, bool)],   # both ends
        np.r_[True, np.zeros(199, bool), True],           # single levels at both ends
        np.arange(201) % 2 == 0,                          # alternating
        *(rng.random(201) < p for p in (0.1, 0.5, 0.9)),
    ]
    for good in cases:
        assert chdata._level_runs(levels, good) == _level_runs_loop(levels, good)
    assert chdata._level_runs(levels[:0], np.zeros(0, bool)) == []


def test_antiderivative_matches_closed_form():
    basis = cubic_spline_basis(build_mesh(200))
    f = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    x = np.array([0.1, 0.25, 0.5, 0.77])
    expect = (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
    assert _integral(f, x) == pytest.approx(expect, abs=1e-8)
    assert _integral(f, 0.0) == 0.0
    assert _integral(f, 1.0) == pytest.approx(0.0, abs=1e-12)  # zero-mean field


def test_antiderivative_total_equals_mass(reference_data):
    from chident.model import mass

    f = PeriodicField(reference_data.basis, reference_data.coef[10])
    assert _integral(f, 1.0) == pytest.approx(mass(f), abs=1e-13)


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
    # zero noise on a noisy container keeps its noise level and provenance
    noisy, _ = inject_noise(reference_data, 1e-3, seed=3)
    same, rec = inject_noise(noisy, 0.0, seed=3)
    assert rec.delta == 0.0 and np.array_equal(same.coef, noisy.coef)
    assert (same.delta, same.provenance) == (1e-3, "interpolation+synthetic-noise")
    # a second noise draw would report only its own delta, not the total
    with pytest.raises(DataError, match="already carry synthetic noise"):
        inject_noise(noisy, 1e-3, seed=4)
    for delta in (-1e-3, np.nan, np.inf):
        with pytest.raises(DataError):
            inject_noise(reference_data, delta)


def test_report_samples_each_pair_once(reference_data, params, monkeypatch):
    real, calls = chdata.coarea_coefficients, []

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(chdata, "coarea_coefficients", counting)
    report = build_observability_report(reference_data, GAMMA, params.F)
    monkeypatch.undo()
    # one call for every slot: each row's level at its own time, then each
    # row's level at its partner time (row k partners time k + 1, the last
    # row time k - 1)
    n_times = len(report.times)
    assert len(report.rows) == 35 and len(calls) == 1
    own = [[row.s for row in report.rows if row.t == t] for t in report.times]
    partner_of = [k + 1 if k + 1 < n_times else k - 1 for k in range(n_times)]
    assert all(len(levels) == 7 for levels in own)
    levels, times = calls[0]
    assert np.array_equal(levels, sum(own, []) * 2)
    assert np.array_equal(times, np.repeat(
        np.concatenate([report.times, report.times[partner_of]]), 7
    ))
    # oracle: the row's sample and the two-time check from one call per level
    for i, row in enumerate(report.rows):
        k = list(report.times).index(row.t)
        partner = report.times[k + 1] if k + 1 < len(report.times) else report.times[k - 1]
        sample = _one_pair(reference_data, row.s, row.t)
        assert (row.A_b, row.A_c, row.A, row.degenerate) == (
            sample.A_b[0], sample.A_c[0], sample.A[0], sample.degenerate[0]
        ), i
        assert row.cond == _two_time_cond(reference_data, row.s, row.t, partner), i


def test_residual_equals_the_row_formula(reference_data, params):
    report = build_observability_report(reference_data, GAMMA, params.F)
    b_fn = params.b
    c_fn = params.c
    # mark every third row degenerate, so that some rows are skipped
    report.rows = [replace(row, degenerate=row.degenerate or i % 3 == 0)
                   for i, row in enumerate(report.rows)]
    expected = [
        abs(r.A_b * b_fn(r.s) + r.A_c * c_fn(r.s) - r.A) / max(abs(r.A), abs(r.A_c))
        for r in report.rows if not r.degenerate
    ]
    assert 0 < len(expected) < len(report.rows)
    assert _bits(report.residual(b_fn, c_fn)) == _bits(np.array(expected))
    # no usable row
    report.rows = [replace(row, degenerate=True) for row in report.rows]
    empty = report.residual(b_fn, c_fn)
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_observability_report_smoke(reference_data, params):
    times = reference_data.times[[10, 50]]
    report = build_observability_report(reference_data, GAMMA, params.F, times=times)
    assert np.allclose(report.times, times)
    assert len(report.rows) == 14
    for row in report.rows:
        assert row.t in times
        assert row.cond > 0.0  # inf marks an unusable partner time
    assert any(np.isfinite(r.cond) for r in report.rows)
    assert report.attained and report.observable
    # a time without predecessor, or off the grid, anywhere in the list
    for bad in (0.0, float(times[0]) + 1e-5):
        with pytest.raises(DataError):
            build_observability_report(reference_data, GAMMA, params.F,
                                       times=[times[1], bad])


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


def _stacked_unit_interval_roots(a, b, c):
    """Reference: the quadratic roots of ``_unit_interval_roots`` by the same
    formulas, stacked into a new array and masked by ``np.where``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.stack([q / a, c / q], axis=-1)
    return np.where((roots > 0.0) & (roots < 1.0), roots, 1.0)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def test_unit_interval_roots_match_stacked_formula_bit_for_bit():
    # a = 0 (c / q is the root), a = b = 0 with c nonzero and zero, a
    # negative discriminant, a double root, roots exactly at 0 and at 1,
    # and signed zeros
    a, b, c = np.array([
        [0.0, 2.0, -1.0], [0.0, -2.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
        [1.0, 0.0, 1.0], [1.0, -1.0, 0.25], [1.0, -0.5, 0.0], [1.0, -1.5, 0.5],
        [-1.0, 1.5, -0.5], [1.0, -2.0, 1.0], [-0.0, -0.0, -0.0], [2.0, -0.0, -0.5],
    ]).T
    got = chdata._unit_interval_roots(a, b, c)
    assert _same_bits(got, _stacked_unit_interval_roots(a, b, c))
    np.testing.assert_array_equal(got[[0, 5, 6, 7]], [[1.0, 0.5], [0.5, 0.5], [0.5, 1.0],
                                                      [1.0, 0.5]])
    assert np.all(got[[2, 3, 4, 9, 10]] == 1.0)
    rng = np.random.default_rng(11)
    a, b, c = rng.standard_normal((3, 500))
    a[::7] = 0.0
    assert _same_bits(chdata._unit_interval_roots(a, b, c),
                      _stacked_unit_interval_roots(a, b, c))
    # broadcast as ``observable_range`` solves two constant terms per row
    c2 = c[:, None] + [-0.3, 0.3]
    assert _same_bits(chdata._unit_interval_roots(a[:, None], b[:, None], c2),
                      _stacked_unit_interval_roots(a[:, None], b[:, None], c2))


def test_monotone_pieces_on_random_cubics():
    rng = np.random.default_rng(12)
    p = rng.standard_normal((40, 3, 4))
    p[::5, :, 3] = 0.0                             # quadratics: one cut at most
    p[1::5, :, 2:] = 0.0                           # lines: no cut
    cuts, vals = chdata._monotone_pieces(p)
    r = _stacked_unit_interval_roots(3.0 * p[..., 3], 2.0 * p[..., 2], p[..., 1])
    lo, hi = np.minimum(r[..., 0], r[..., 1]), np.maximum(r[..., 0], r[..., 1])
    stacked = np.stack([np.zeros_like(lo), lo, hi, np.ones_like(lo)], axis=-1)
    assert _same_bits(cuts, stacked)
    assert _same_bits(vals, poly_vals(p[..., None, :], stacked))
    for poly, cut in zip(p.reshape(-1, 4), cuts.reshape(-1, 4)):
        dpoly = np.append(poly[1:] * [1.0, 2.0, 3.0], 0.0)   # phi'
        # the cuts inside (0, 1) are the roots of phi' there
        inside = _np_roots_unit(dpoly[:3])
        inside = np.sort(inside[inside > 0.0])
        np.testing.assert_allclose(cut[1:1 + len(inside)], inside, rtol=1e-9, atol=1e-12)
        assert np.all(cut[1 + len(inside):] == 1.0) and cut[0] == 0.0
        # phi' keeps one sign on each piece
        for u0, u1 in zip(cut[:-1], cut[1:]):
            slope = poly_vals(dpoly, np.linspace(u0, u1, 9)[1:-1])
            assert np.all(slope >= -1e-12) or np.all(slope <= 1e-12)


def _level_roots_loop(cub, levels):
    """Reference: per level, the cells of its snapshot bracketed by their
    value bounds, padded by 1e-12, and one np.roots call per bracketed cell."""
    found = []                                   # (level index, cell, u)
    for k, s in enumerate(levels):
        p0 = cub.phi[cub.rows[k]]
        vals = chdata._monotone_pieces(p0)[1]
        bounds = np.stack([vals.min(axis=-1), vals.max(axis=-1)], axis=-1)
        pad = 1e-12 * max(1.0, np.max(np.abs(bounds)))
        for cell in np.nonzero((bounds[:, 0] - pad <= s) & (s <= bounds[:, 1] + pad))[0]:
            poly = p0[cell] - [s, 0.0, 0.0, 0.0]
            found += [(k, cell, u) for u in _np_roots_unit(poly)]
    lev, cells, us = np.array(found, dtype=float).reshape(-1, 3).T
    return lev.astype(int), cells.astype(int), us


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
        got = crossings_of(f, [s])
        chdata._level_roots = _level_roots_loop
        try:
            ref = crossings_of(f, [s])
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
    """Reference: the crossings of every level from one level_crossings
    call and |mu'| at all of them from one eval_field call; a level is good
    when |mu'| exceeds the threshold at one of its own crossings."""
    ks = data.indices_of([t])
    f = PeriodicField(data.basis, data.coef[ks[0]])
    mu = PeriodicField(data.basis, chdata._chemical_potentials(data, gamma, potential, ks)[0])
    lo, hi = attained_range(data, t)
    xq, _ = quadrature_rule(data.basis.mesh, 8)
    threshold = max(threshold_rel * float(np.max(np.abs(eval_field(mu, xq, 1)))),
                    chdata.MU_GRAD_FLOOR)
    levels = lo + (np.arange(1, n_levels + 1) / (n_levels + 1)) * (hi - lo)
    cr = crossings_of(f, levels)
    steep = np.abs(eval_field(mu, cr.x, 1)) > threshold
    good = np.zeros(n_levels, dtype=bool)
    good[cr.level[steep]] = True
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
    k = reference_data.indices_of([times[2]])[0]
    f = PeriodicField(reference_data.basis, reference_data.coef[k])
    lo, hi = attained_range(reference_data, times[2])
    levels = lo + np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * (hi - lo)
    crossings = [crossings_of(f, [s]) for s in levels]

    monkeypatch.setattr(chdata, "_level_roots", _level_roots_loop)
    for t, ivs in zip(times, batched):
        assert ivs == _observable_range_loop(reference_data, GAMMA, params.F, t)
    for s, cr in zip(levels, crossings):
        ref = crossings_of(f, [s])
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
    bounds = _piece_bounds(basis, coef)
    for poly, (lo, hi) in zip(p, bounds):
        u = np.concatenate([[0.0, 1.0], _np_roots_unit(poly[1:] * [1.0, 2.0, 3.0])])
        vals = poly_vals(poly, u)
        assert abs(lo - vals.min()) <= 1e-14 and abs(hi - vals.max()) <= 1e-14

    # sup |mu'| exactly: mu' is a quadratic on each cell, so the sup sits at
    # an end or at the vertex of some piece
    mu = chdata._chemical_potentials(data, GAMMA, potential, [0])[0]
    d = cell_polys(basis, mu, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(np.nan_to_num(-d[:, 1] / (2.0 * d[:, 2])), 0.0, 1.0)
    sup = max(np.max(np.abs(poly_vals(d, u))) for u in (0.0, 1.0, vertex))
    # the threshold is relative to the largest |mu'| at the Gauss points
    # (at most sup), and never below MU_GRAD_FLOOR
    gauss_sup = float(np.max(np.abs(gauss_table(basis, 8, 1).gather(mu))))
    just_above = sup * (1.0 + 1e-9) / gauss_sup if gauss_sup > 0.0 else 1.0
    assert observable_range(data, GAMMA, potential, 0.0, threshold_rel=just_above) == []


# --- an array of levels or pairs against one call per level or pair ------


_PER_LEVEL = ("s", "A_b", "A_c", "A", "n_crossings", "min_slope", "degenerate")


def _assert_level_array_matches_scalar_calls(data, t, levels):
    """Every field of an array call at one time equals the one-level and
    one-pair calls', level by level and bit by bit: the crossings with
    ``level == i`` and entry i of each sample field."""
    f = PeriodicField(data.basis, data.coef[data.indices_of([t])[0]])
    cr = crossings_of(f, levels)
    sample = coarea_coefficients(data, GAMMA, levels, np.full(len(levels), t))
    assert np.array_equal(cr.s, levels) and np.all(np.diff(cr.level) >= 0)
    for name in _PER_LEVEL:
        assert getattr(sample, name).shape == (len(levels),), name
    for i, s in enumerate(levels):
        one = crossings_of(f, [s])
        assert np.array_equal(one.s, [s]) and not np.any(one.level)
        for name in ("x", "slope", "third"):
            assert np.array_equal(getattr(cr, name)[cr.level == i], getattr(one, name)), name
        pair = _one_pair(data, s, t)
        for name in ("t", "sup_slope") + _PER_LEVEL:
            assert _bits(getattr(sample, name)[i]) == _bits(getattr(pair, name)), (i, name)


def _bits(value) -> bytes:
    """The bytes of a scalar or array value, so that -0.0 differs from 0.0."""
    return np.asarray(value).tobytes()


def test_time_array_coarea_equals_scalar_calls(reference_data, window_times):
    # four distinct times, unsorted and repeated, each with levels inside
    # its range, at its bounds and outside it (which no crossing reaches);
    # one snapshot has a tenth of the others' slopes, so that the sup |phi'|
    # of another time would move its degenerate flags
    coef = reference_data.coef.copy()
    coef[reference_data.indices_of([window_times[60]])] *= 0.1
    data = replace(reference_data, coef=coef)
    rng = np.random.default_rng(11)
    times, levels = [], []
    for t in window_times[[120, 5, 199, 5, 60]]:
        lo, hi = attained_range(data, t)
        cut = np.concatenate([rng.uniform(lo, hi, 5), [lo, hi, lo - 0.1, hi + 0.1]])
        times += [t] * len(cut)
        levels += cut.tolist()
    order = rng.permutation(len(times))
    times, levels = np.array(times)[order], np.array(levels)[order]
    sample = coarea_coefficients(data, GAMMA, levels, times)
    assert np.array_equal(sample.t, times) and np.any(sample.n_crossings == 0)
    for i, (t, s) in enumerate(zip(times, levels)):
        one = _one_pair(data, s, t)
        for name in ("t", "sup_slope") + _PER_LEVEL:
            assert _bits(getattr(sample, name)[i]) == _bits(getattr(one, name)), (i, name)
    # pairs are two 1-D arrays of equal length
    for bad_levels, bad_times in ((levels[:3], times[:2]), (levels[0], times[0])):
        with pytest.raises(DataError, match="do not pair"):
            coarea_coefficients(data, GAMMA, bad_levels, bad_times)


@pytest.mark.parametrize("threshold_rel", [1e-3, 0.5])
def test_time_array_observable_range_equals_per_time_calls(
    reference_data, params, window_times, threshold_rel
):
    # every window time, with one snapshot replaced by one that is constant
    # up to rounding (its attained span is about 1e-16, sup |mu'| near 1e-12)
    c = 0.32177206377279066
    flat = np.full(reference_data.basis.dof_count, c)
    flat[::3] = np.nextafter(c, 1.0)
    coef = reference_data.coef.copy()
    coef[reference_data.indices_of([window_times[100]])] = flat
    # and one with a tenth of the amplitude, whose threshold is its own
    coef[reference_data.indices_of([window_times[50]])] *= 0.1
    data = replace(reference_data, coef=coef)
    lo, hi = attained_range(data, window_times[100])
    assert 0.0 < hi - lo < 1e-15
    batched = observable_range(data, GAMMA, params.F, window_times, threshold_rel=threshold_rel)
    assert batched == [
        observable_range(data, GAMMA, params.F, t, threshold_rel=threshold_rel)
        for t in window_times
    ]
    assert batched[100] == [] and all(batched[:100]) and all(batched[101:])


@settings(max_examples=40)
@given(
    n_cells=st.integers(8, 40),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["rough", "smooth", "flat-run", "constant"]),
)
def test_level_array_calls_equal_scalar_calls(n_cells, seed, shape):
    rng = np.random.default_rng(seed)
    basis = cubic_spline_basis(build_mesh(n_cells))
    coef = _random_periodic_spline(n_cells, seed, shape)
    before = coef + 1e-3 * rng.standard_normal(n_cells)
    data = ObservationData(basis=basis, times=[0.0, 1e-4], coef=[before, coef], tau_data=1e-4)
    lo, hi = attained_range(data, 1e-4)
    levels = rng.permutation(np.concatenate([
        rng.uniform(lo, hi, 4),
        cell_polys(basis, coef)[rng.integers(n_cells, size=3), 0],   # exact knot values
        [lo, hi],                                                    # tangent touches
        [lo - 0.1, hi + 0.1],                                        # outside the range
    ]))
    _assert_level_array_matches_scalar_calls(data, 1e-4, levels)
    # no levels: empty tables
    empty = crossings_of(PeriodicField(data.basis, data.coef[1]), [])
    for a in (empty.s, empty.level, empty.x, empty.slope, empty.third):
        assert a.shape == (0,)
    sample = coarea_coefficients(data, GAMMA, [], [])
    for name in _PER_LEVEL:
        assert getattr(sample, name).shape == (0,), name


def test_level_array_keeps_every_root_and_knot_crossings():
    # phi has a double zero at the knot x = 0 (and one at x = 0.25); just
    # above zero, roots on either side of x = 0 lie closer than 1e-9, and
    # every root of every level is kept
    basis = cubic_spline_basis(build_mesh(12))
    coef = np.full(12, 0.5)
    coef[[11, 0, 1]] = coef[[2, 3, 4]] = [0.2, -0.1, 0.2]
    h = basis.mesh.h
    knot_level = cell_polys(basis, coef)[1, 0]      # phi crosses it at the knots h and 2h
    levels = np.array([1e-18, 0.3, 1e-17, 1e-16, -0.05, 2.0, knot_level])
    cubics = chdata.cell_cubics(basis, coef[None], [0] * len(levels))
    lev, cells, u = chdata._level_roots(cubics, levels)
    cr = level_crossings(cubics, levels)
    for k in range(len(levels)):
        assert np.array_equal(cr.x[cr.level == k], np.sort(((cells + u)[lev == k] * h) % 1.0))
    assert np.min(np.diff(cr.x[cr.level == 0])) < 1e-9

    # on a knot, phi''' is the average of the two adjacent cells' values
    p3 = cell_polys(basis, coef, 3)[:, 0]
    knot_x, knot_third = (a[cr.level == len(levels) - 1] for a in (cr.x, cr.third))
    for j in (1, 2):
        (i,) = np.flatnonzero(knot_x == j * h)
        assert knot_third[i] == 0.5 * (p3[j - 1] + p3[j])
    data = ObservationData(basis=basis, times=[0.0, 1e-4], coef=[0.9 * coef, coef], tau_data=1e-4)
    _assert_level_array_matches_scalar_calls(data, 1e-4, levels)


@settings(max_examples=40)
@given(
    n_cells=st.integers(8, 40),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["rough", "smooth"]),
)
def test_transversal_crossings_alternate_around_the_torus(n_cells, seed, shape):
    # a duplicated or lost crossing leaves an odd count or two slopes of one
    # sign in a row
    basis = cubic_spline_basis(build_mesh(n_cells))
    coef = _random_periodic_spline(n_cells, seed, shape)
    bounds = _piece_bounds(basis, coef)
    lo, hi = bounds[:, 0].min(), bounds[:, 1].max()
    u = np.linspace(0.0, 1.0, 65)[:, None]
    sup_slope = np.max(np.abs(poly_vals(cell_polys(basis, coef, 1), u)))
    levels = lo + np.random.default_rng(seed).uniform(0.01, 0.99, 6) * (hi - lo)
    cr = crossings_of(PeriodicField(basis, coef), levels)
    for k in range(len(levels)):
        slope = cr.slope[cr.level == k]
        if np.min(np.abs(slope), initial=np.inf) < 1e-6 * sup_slope:
            continue
        signs = np.sign(slope)
        assert len(signs) >= 2 and len(signs) % 2 == 0
        assert np.all(signs != np.roll(signs, 1))
