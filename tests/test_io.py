"""Binary containers, manifests, CSV formatting, JSON reports."""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chident.meshbasis import build_mesh, cubic_spline_basis, quadratic_fe, interpolate
from chident.model import default_params, default_initial_profile
from chident.forward import simulate
from chident.data import ObservationData, restrict_to_data_grid, inject_noise
from chident import io as chio


@pytest.fixture(scope="module")
def tiny_traj():
    params = default_params(0.003)
    fe = quadratic_fe(build_mesh(16))
    phi0 = interpolate(fe, default_initial_profile)
    return simulate(phi0, params, t_end=8e-5, tau=2e-5)


def test_trajectory_roundtrip(tiny_traj, tmp_path):
    path = tmp_path / "traj.bin"
    chio.save_trajectory(tiny_traj, path)
    back = chio.load_trajectory(path)
    assert back.tau == tiny_traj.tau
    assert back.basis.kind == tiny_traj.basis.kind
    assert back.basis.mesh.n_cells == 16
    assert np.array_equal(back.times, tiny_traj.times)
    assert np.array_equal(back.phi, tiny_traj.phi)
    assert np.array_equal(back.mu, tiny_traj.mu)


def test_trajectory_manifest(tiny_traj, tmp_path):
    path = tmp_path / "traj.bin"
    chio.save_trajectory(tiny_traj, path)
    manifest = (tmp_path / "traj.bin.manifest").read_text(encoding="utf-8")
    fields = dict(line.split(" = ", 1) for line in manifest.strip().splitlines())
    assert fields["container"] == "trajectory"
    assert fields["basis"] == "quadratic-fe"
    assert int(fields["n_states"]) == tiny_traj.n_states
    assert float(fields["tau"]) == tiny_traj.tau
    # the recorded digest matches the payload bytes on disk
    blob = path.read_bytes()
    header_len = len(blob) - tiny_traj.n_states * (
        1 + 2 * tiny_traj.basis.dof_count) * 8
    assert fields["payload_sha256"] == hashlib.sha256(blob[header_len:]).hexdigest()


def test_save_is_deterministic(tiny_traj, tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    chio.save_trajectory(tiny_traj, a)
    chio.save_trajectory(tiny_traj, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.bin.manifest").read_text() == (
        tmp_path / "b.bin.manifest").read_text()


def test_observation_roundtrip(tiny_traj, tmp_path):
    data = restrict_to_data_grid(tiny_traj, 2)
    noisy, _ = inject_noise(data, 1e-4, seed=9)
    path = tmp_path / "obs.bin"
    chio.save_observation(noisy, path)
    back = chio.load_observation(path)
    assert back.tau_data == noisy.tau_data
    assert back.delta == noisy.delta
    assert back.provenance == noisy.provenance
    assert back.interp_sup == noisy.interp_sup
    assert back.interp_l2 == noisy.interp_l2
    assert np.array_equal(back.times, noisy.times)
    assert np.array_equal(back.coef, noisy.coef)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _observations(draw):
    """Random observation containers: every finite double, signed zeros included."""
    n_cells = draw(st.integers(4, 24))
    n_times = draw(st.integers(1, 6))
    return ObservationData(
        basis=cubic_spline_basis(build_mesh(n_cells)),
        times=draw(hnp.arrays(float, n_times, elements=_FINITE)),
        coef=draw(hnp.arrays(float, (n_times, n_cells), elements=_FINITE)),
        tau_data=draw(_FINITE),
        delta=draw(_FINITE),
        provenance=draw(st.sampled_from(["interpolation-only", "interpolation+synthetic-noise"])),
        interp_sup=draw(_FINITE),
        interp_l2=draw(_FINITE),
    )


@settings(max_examples=40)
@given(data=_observations())
def test_observation_container_round_trip(data):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
        chio.save_observation(data, first)
        back = chio.load_observation(first)
        assert back.basis == data.basis
        assert np.array_equal(back.times, data.times)
        assert np.array_equal(back.coef, data.coef)
        for name in ("tau_data", "delta", "provenance", "interp_sup", "interp_l2"):
            assert getattr(back, name) == getattr(data, name)
        chio.save_observation(back, second)
        assert second.read_bytes() == first.read_bytes()
        manifest = lambda p: p.with_suffix(".bin.manifest").read_bytes()
        assert manifest(second) == manifest(first)


def test_container_kind_and_magic_checks(tiny_traj, tmp_path):
    traj_path = tmp_path / "traj.bin"
    chio.save_trajectory(tiny_traj, traj_path)
    with pytest.raises(chio.IOError_, match="not an observation"):
        chio.load_observation(traj_path)

    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"NOPE" + traj_path.read_bytes()[4:])
    with pytest.raises(chio.IOError_, match="magic"):
        chio.load_trajectory(bad_magic)

    blob = bytearray(traj_path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)  # unsupported version
    bad_version = tmp_path / "v99.bin"
    bad_version.write_bytes(bytes(blob))
    with pytest.raises(chio.IOError_, match="version"):
        chio.load_trajectory(bad_version)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(traj_path.read_bytes()[:-16])
    with pytest.raises(chio.IOError_, match="payload length"):
        chio.load_trajectory(truncated)


def test_fmt_float_shortest_roundtrip():
    cases = [0.1, 1e-10, 2e-5, 0.003, 1.0 / 3.0, -1.5, 0.0]
    for v in cases:
        s = chio.fmt_float(v)
        assert float(s) == v
    assert chio.fmt_float(0.1) == "0.1"
    assert chio.fmt_float(2e-5) == "2e-05"
    assert chio.fmt_float(float("nan")) == "nan"
    assert chio.fmt_float(float("inf")) == "inf"
    assert chio.fmt_float(float("-inf")) == "-inf"


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    chio.write_csv(path, ("a", "b", "c"),
                   [(0.1, True, 3), (np.float64(2e-5), np.bool_(False), "x")])
    text = path.read_bytes().decode("utf-8")
    assert text == "a,b,c\n0.1,1,3\n2e-05,0,x\n"


def test_csv_helpers_headers(tmp_path):
    s = np.array([0.0, 0.5])
    chio.solution_csv(tmp_path / "s.csv", s, s + 1, s + 2,
                      np.array([True, False]))
    first = (tmp_path / "s.csv").read_text().splitlines()
    assert first[0] == "s,truth,reconstruction,mask"
    assert first[1] == "0.0,1.0,2.0,1"

    chio.parameter_csv(tmp_path / "p.csv", s, s + 1)
    assert (tmp_path / "p.csv").read_text().splitlines()[0] == "knot,value"


def test_json_report(tmp_path):
    payload = {
        "zeta": np.float64(0.25),
        "alpha": 1e-10,
        "flag": np.bool_(True),
        "n": np.int64(3),
        "name": "run",
    }
    path = tmp_path / "r.json"
    chio.write_json_report(path, payload)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["alpha"] == 1e-10
    assert back["flag"] is True
    assert back["n"] == 3
    # keys are sorted for deterministic bytes
    assert text.index('"alpha"') < text.index('"flag"') < text.index('"zeta"')
    chio.write_json_report(tmp_path / "r2.json", payload)
    assert (tmp_path / "r2.json").read_bytes() == path.read_bytes()
