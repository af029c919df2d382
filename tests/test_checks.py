"""The structural check functions on hand-built inputs: negative controls
that each check fails where its bound says it must."""

import dataclasses

import numpy as np

from chident import checks


def test_conservation_fails_on_a_late_mass_shift(reference_run, params):
    """Shifting one late phi state by a constant of 1e-9 moves its mass by
    1e-9 on the unit torus: the drift half fails, the energy half, whose
    steps fall by at least 4.7e-6, still holds."""
    traj, _ = reference_run
    phi = traj.phi.copy()
    phi[-10] += 1e-9
    chk = checks.conservation(dataclasses.replace(traj, phi=phi), params)
    assert not chk.passed
    assert not chk.values["mass_conserved"]
    assert chk.values["energy_monotone"]
    assert abs(chk.values["mass_drift"] - 1e-9) <= 1e-12
    assert chk.detail.startswith(f"mass drift {chk.values['mass_drift']:.2e}")
    assert checks.conservation(traj, params).passed


def test_coarea_identity_needs_its_minimum_of_passing_samples():
    bound, need = checks.COAREA_RESIDUAL_MAX, checks.COAREA_MIN_SAMPLES
    above = [2 * bound] * 10
    chk = checks.coarea_identity([bound] * need + above)
    assert chk.passed
    assert chk.detail == f"{need}/{need + 10} samples below 5e-2 (worst {2 * bound:.3f})"
    assert np.array_equal(chk.values["passing"], [True] * need + [False] * 10)
    assert not checks.coarea_identity([bound] * (need - 1) + above).passed
    assert not checks.coarea_identity([]).passed
