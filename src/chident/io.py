"""Serialization: binary field containers, CSV plot data, JSON reports.

Containers are self-describing little-endian binary files (magic,
version, dimensions, 64-bit floats).  Trajectories and observations go
through one writer and one reader keyed by the container kind, and the
reader raises ``IOError_`` on any file it cannot account for.  A text
manifest beside each container is written for external integrity checks
and never read back.  CSV floats use the shortest decimal representation
that round-trips, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from collections import namedtuple
from pathlib import Path

import numpy as np

from .meshbasis import MeshError, build_mesh, cubic_spline_basis, quadratic_fe
from .forward import Trajectory
from .data import ObservationData

__all__ = [
    "IOError_",
    "MAGIC",
    "CONTAINER_VERSION",
    "save_trajectory",
    "load_trajectory",
    "save_observation",
    "load_observation",
    "fmt_float",
    "write_csv",
    "diagnostics_csv",
    "solution_csv",
    "lcurve_csv",
    "parameter_csv",
    "write_json_report",
]


class IOError_(RuntimeError):
    """Container is malformed or inconsistent."""


MAGIC = b"CHID"
CONTAINER_VERSION = 1
# magic, version, kind, n_cells, basis code, n_states, dof, n_scalars
_HEADER = struct.Struct("<4s7I")
_BASIS_CODES = {"quadratic-fe": 1, "periodic-cubic-spline": 2}
# a container kind: its code and name, the builder of its basis, and the
# attributes it stores: scalars in the header, the times and then each
# (n_states, dof) field in the payload
_Kind = namedtuple("_Kind", "code name basis scalars fields")
_TRAJECTORY = _Kind(1, "trajectory", quadratic_fe, ("tau",), ("phi", "mu"))
_OBSERVATION = _Kind(2, "observation", cubic_spline_basis,
                     ("tau_data", "delta", "interp_sup", "interp_l2"), ("coef",))


def _save(kind: _Kind, box, path, **notes) -> Path:
    """Write ``box`` as a ``kind`` container plus its text manifest, which
    lists the shape fields, then ``notes``, then the payload digest."""
    path = Path(path)
    basis, n_states = box.basis, len(box.times)
    scalars = [getattr(box, name) for name in kind.scalars]
    head = _HEADER.pack(
        MAGIC, CONTAINER_VERSION, kind.code, basis.mesh.n_cells,
        _BASIS_CODES[basis.kind], n_states, basis.dof_count, len(scalars),
    ) + struct.pack(f"<{len(scalars)}d", *scalars)
    arrays = [box.times] + [getattr(box, name) for name in kind.fields]
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    path.write_bytes(head + body)
    manifest = {
        "container": kind.name,
        "version": CONTAINER_VERSION,
        "n_cells": basis.mesh.n_cells,
        "basis": basis.kind,
        "n_states": n_states,
        "dof": basis.dof_count,
        **notes,
        "payload_sha256": hashlib.sha256(body).hexdigest(),
    }
    text = "".join(f"{k} = {v}\n" for k, v in manifest.items())
    path.with_suffix(path.suffix + ".manifest").write_text(text, encoding="utf-8")
    return path


def _load(kind: _Kind, path) -> dict:
    """Constructor arguments of the ``kind`` container at ``path``;
    ``IOError_`` on any defect of the file."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise IOError_(f"{path} has {len(buf)} bytes, fewer than the "
                       f"{_HEADER.size}-byte container header")
    magic, version, code, n_cells, basis_code, n_states, dof, n_scalars = (
        _HEADER.unpack_from(buf))
    if magic != MAGIC:
        raise IOError_(f"bad magic {magic!r}; not a field container")
    if version != CONTAINER_VERSION:
        raise IOError_(f"unsupported container version {version}")
    if code != kind.code:
        article = "an" if kind.name[0] in "aeiou" else "a"
        raise IOError_(f"{path} holds kind {code}, not {article} {kind.name}")
    try:
        basis = kind.basis(build_mesh(n_cells))
    except MeshError as exc:
        raise IOError_(f"{kind.name} container: {exc}") from exc
    if basis_code != _BASIS_CODES[basis.kind]:
        raise IOError_(f"{kind.name} container has basis code {basis_code}")
    if dof != basis.dof_count:
        raise IOError_(f"dof mismatch: header {dof}, basis {basis.dof_count}")
    if n_states == 0:
        raise IOError_(f"{kind.name} container holds no states")
    if n_scalars != len(kind.scalars):
        raise IOError_(f"{kind.name} container declares {n_scalars} scalars, not "
                       f"{len(kind.scalars)}")
    offset = _HEADER.size + 8 * n_scalars
    if len(buf) < offset:
        raise IOError_(f"{path} ends inside its scalar block")
    scalars = struct.unpack_from(f"<{n_scalars}d", buf, _HEADER.size)
    need = n_states * (1 + len(kind.fields) * dof) * 8
    if len(buf) - offset != need:
        raise IOError_(f"payload length {len(buf) - offset}, expected {need}")
    raw = np.frombuffer(buf, dtype="<f8", offset=offset).copy()
    fields = raw[n_states:].reshape(len(kind.fields), n_states, dof)
    return {"basis": basis, "times": raw[:n_states],
            **dict(zip(kind.scalars, scalars)), **dict(zip(kind.fields, fields))}


def save_trajectory(traj: Trajectory, path) -> Path:
    """Write a trajectory container plus its text manifest."""
    return _save(_TRAJECTORY, traj, path, tau=fmt_float(traj.tau),
                 t_end=fmt_float(traj.times[-1]))


def load_trajectory(path) -> Trajectory:
    return Trajectory(**_load(_TRAJECTORY, path))


def save_observation(data: ObservationData, path) -> Path:
    """Write an observation container plus its text manifest."""
    return _save(_OBSERVATION, data, path, tau_data=fmt_float(data.tau_data),
                 t_end=fmt_float(data.times[-1]), delta=fmt_float(data.delta),
                 provenance=data.provenance, interp_sup=fmt_float(data.interp_sup),
                 interp_l2=fmt_float(data.interp_l2))


def load_observation(path) -> ObservationData:
    """Its provenance follows from the stored delta; the manifest is not read."""
    return ObservationData(**_load(_OBSERVATION, path))


# ---------------------------------------------------------------------------
# CSV emission

def fmt_float(v) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(v))


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return fmt_float(v)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
    return path


def diagnostics_csv(report, path) -> Path:
    """Level-set diagnostics table: one row per sampled (t, s)."""
    rows = [
        (r.t, r.s, r.A_b, r.A_c, r.A, r.cond, r.in_attained, r.in_observable)
        for r in report.rows
    ]
    return write_csv(path, ("t", "s", "A_b", "A_c", "A", "cond", "in_R", "in_Rtilde"),
                     rows)


def solution_csv(path, s_grid, truth, reconstruction, mask) -> Path:
    """Reconstruction plot data on a level grid, with range mask."""
    rows = zip(s_grid, truth, reconstruction, mask)
    return write_csv(path, ("s", "truth", "reconstruction", "mask"), rows)


def lcurve_csv(curve, path) -> Path:
    corner = np.arange(len(curve.alphas)) == curve.corner_index
    rows = zip(curve.alphas, curve.residual_norms, curve.solution_norms,
               curve.curvature, curve.flagged, corner)
    return write_csv(
        path,
        ("alpha", "residual_norm", "solution_norm", "curvature", "flagged", "corner"),
        rows,
    )


def parameter_csv(path, knots, values) -> Path:
    return write_csv(path, ("knot", "value"), zip(knots, values))


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v).__name__} in a report")


def write_json_report(path, payload: dict) -> Path:
    path = Path(path)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True,
                      default=_jsonable)
    path.write_text(text + "\n", encoding="utf-8")
    return path
