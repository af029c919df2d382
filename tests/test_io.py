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
from chident.data import DataError, ObservationData, restrict_to_data_grid, inject_noise
from chident import cli
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


@pytest.fixture(scope="module")
def containers(tiny_traj, tmp_path_factory):
    """A valid container of each kind, by kind name."""
    tmp = tmp_path_factory.mktemp("containers")
    return {
        "trajectory": chio.save_trajectory(tiny_traj, tmp / "traj.bin").read_bytes(),
        "observation": chio.save_observation(
            restrict_to_data_grid(tiny_traj, 2), tmp / "obs.bin").read_bytes(),
    }


def _field(offset, new):
    """Edit that replaces the u32 header field at ``offset`` by new(old)."""
    def edit(blob):
        (old,) = struct.unpack_from("<I", blob, offset)
        return blob[:offset] + struct.pack("<I", new(old)) + blob[offset + 4:]
    return edit


# header fields: magic 0, version 4, kind 8, n_cells 12, basis code 16,
# n_states 20, dof 24, n_scalars 28; the scalars follow from byte 32
_MALFORMED = [
    ("shorter than the header", lambda b: b[:31], "31 bytes, fewer than the 32-byte container header"),
    ("empty file", lambda b: b"", "0 bytes, fewer than the 32-byte container header"),
    ("bad magic", lambda b: b"NOPE" + b[4:], "bad magic"),
    ("unsupported version", _field(4, lambda v: 99), "container version 99"),
    ("unknown kind", _field(8, lambda v: 7), "holds kind 7"),
    ("fewer than 4 cells", _field(12, lambda v: 3), "n_cells must be an integer >= 4"),
    ("other kind's basis", _field(16, lambda v: 3 - v), "has basis code"),
    ("no states", _field(20, lambda v: 0), "holds no states"),
    ("dof not the basis's", _field(24, lambda v: v + 1), "dof mismatch"),
    ("scalar count past the end", _field(28, lambda v: 2**20), "declares 1048576 scalars"),
    ("cut inside the scalar block", lambda b: b[:36], "ends inside its scalar block"),
    ("payload cut short", lambda b: b[:-16], "payload length"),
    ("trailing bytes", lambda b: b + bytes(8), "payload length"),
]
_WRONG_SCALAR_COUNT = {"trajectory": 0, "observation": 1}
_LOADERS = {"trajectory": chio.load_trajectory, "observation": chio.load_observation}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize(
    "edit, match", [case[1:] for case in _MALFORMED] + [(None, "scalars, not")],
    ids=[case[0] for case in _MALFORMED] + ["wrong scalar count"],
)
def test_malformed_container_raises_io_error(containers, kind, edit, match, tmp_path, capsys):
    """The one reader names the defect of every malformed file, and the
    command line that reads it exits 1 with the message, no traceback."""
    if edit is None:
        edit = _field(28, lambda v: _WRONG_SCALAR_COUNT[kind])
    path = tmp_path / "bad.bin"
    path.write_bytes(edit(containers[kind]))
    with pytest.raises(chio.IOError_, match=match):
        _LOADERS[kind](path)
    command = (["make-data", "--trajectory", str(path)] if kind == "trajectory"
               else ["identify", "--observation", str(path)])
    assert cli.main(command + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_container_of_the_other_kind_is_refused(containers, tmp_path):
    for kind, other in (("trajectory", "observation"), ("observation", "trajectory")):
        path = tmp_path / f"{kind}.bin"
        path.write_bytes(containers[kind])
        with pytest.raises(chio.IOError_, match=f"not an? {other}"):
            _LOADERS[other](path)


def test_noisy_container_without_manifest_keeps_its_noise_state(tiny_traj, tmp_path):
    """Provenance follows the stored delta, so a copied container whose
    manifest is lost still refuses a second noise draw."""
    noisy, _ = inject_noise(restrict_to_data_grid(tiny_traj, 2), 1e-3, seed=5)
    path = chio.save_observation(noisy, tmp_path / "obs.bin")
    path.with_suffix(".bin.manifest").unlink()
    back = chio.load_observation(path)
    assert back.delta == 1e-3
    assert back.provenance == "interpolation+synthetic-noise"
    with pytest.raises(DataError, match="already carry synthetic noise"):
        inject_noise(back, 1e-3)


def test_manifest_is_not_read_back(tiny_traj, tmp_path):
    """A manifest whose provenance line contradicts delta changes nothing."""
    clean = restrict_to_data_grid(tiny_traj, 2)
    noisy, _ = inject_noise(clean, 1e-3, seed=5)
    for data, lie in ((clean, "interpolation+synthetic-noise"),
                      (noisy, "interpolation-only")):
        path = chio.save_observation(data, tmp_path / "obs.bin")
        manifest = path.with_suffix(".bin.manifest")
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace(f"provenance = {data.provenance}",
                                         f"provenance = {lie}"), encoding="utf-8")
        assert f"provenance = {lie}" in manifest.read_text(encoding="utf-8")
        back = chio.load_observation(path)
        assert (back.delta, back.provenance) == (data.delta, data.provenance)


def test_fmt_float_shortest_roundtrip():
    cases = [0.1, 1e-10, 2e-5, 0.003, 1.0 / 3.0, -1.5, 0.0]
    for v in cases:
        s = chio.fmt_float(v)
        assert float(s) == v
    assert chio.fmt_float(0.1) == "0.1"
    assert chio.fmt_float(2e-5) == "2e-05"


@pytest.mark.parametrize("v, text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (-0.0, "-0.0"), (1e-300, "1e-300"), (np.float64("nan"), "nan"),
])
def test_fmt_float_special_values(v, text):
    assert chio.fmt_float(v) == text


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
