"""Run configuration: flat key=value files with dotted section paths.

A configuration is a plain-text file of ``section.key = value`` lines
(``#`` comments and blank lines allowed).  One ordered key table maps
every ``section.key`` to its parser and its echo formatter:
:func:`parse_config` turns the text into a dictionary, :func:`build_config`
parses each entry through the table onto a typed :class:`RunConfig` and
validates it, and :func:`config_text` renders every key back through the
same table, so the echo re-runs the configuration it came from.  Defaults
live only in the block dataclasses; :func:`paper_preset` is the defaults
with the reference experiment's observation window.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import DataError, checked_noise_level, data_mesh_cells
from .forward import SolverError, step_count
from .inverse import PROBLEM_KINDS, InverseError, checked_alpha, checked_alpha_grid
from .meshbasis import AssemblyError, BasisError, MeshError, build_mesh
from .model import (
    ModelError,
    ModelParams,
    NaturalSplineGrid,
    ParameterError,
    SplineParameter,
    default_initial_profile,
    default_mobility,
    default_potential,
)

__all__ = [
    "ConfigError",
    "LAYER_ERRORS",
    "layer_rule",
    "ForwardBlock",
    "DataBlock",
    "InverseBlock",
    "OutputBlock",
    "RunConfig",
    "parse_config",
    "build_config",
    "config_from_file",
    "paper_preset",
    "config_text",
    "PROBLEM_KINDS",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


# every error type the numerical layers raise
LAYER_ERRORS = (
    SolverError, InverseError, DataError, ModelError, ParameterError,
    MeshError, BasisError, AssemblyError,
)


@contextmanager
def layer_rule(path: str):
    """Re-raise a numerical layer's rejection of an input as a ConfigError
    naming the configuration key ``path``: each input rule is written once,
    in the layer that relies on it."""
    try:
        yield
    except LAYER_ERRORS as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class ForwardBlock:
    gamma: float = 0.003
    potential: str = "default"
    mobility: str = "default"
    initial: str = "default"
    initial_constant: float = 0.1
    n_cells: int = 200
    tau: float = 2e-5
    t_end: float = 0.02


@dataclass
class DataBlock:
    factor: int = 2
    delta: float = 0.0
    seed: int = 0
    window: tuple | None = (0.0, 0.02)
    times: tuple | None = None


@dataclass
class InverseBlock:
    kind: str = "identify-f"
    alpha: float | None = 1e-10
    alpha_grid: tuple | None = None
    sigma: float = 0.1
    threshold: float = 1e-3


@dataclass
class OutputBlock:
    directory: str = "out"


@dataclass
class RunConfig:
    forward: ForwardBlock = field(default_factory=ForwardBlock)
    data: DataBlock = field(default_factory=DataBlock)
    inverse: InverseBlock = field(default_factory=InverseBlock)
    output: OutputBlock = field(default_factory=OutputBlock)

    # ---- materialized model ingredients -------------------------------
    def potential_fn(self):
        return _make_parameter(
            self.forward.potential, "forward.potential", default_potential
        )

    def mobility_fn(self):
        return _make_parameter(
            self.forward.mobility, "forward.mobility", default_mobility
        )

    def initial_fn(self):
        spec_str = self.forward.initial
        if spec_str == "default":
            return default_initial_profile
        if spec_str == "constant":
            value = self.forward.initial_constant
            return lambda x: np.full_like(np.asarray(x, dtype=float), value)
        raise ConfigError(
            f"forward.initial: unknown profile id {spec_str!r}"
        )

    def model_params(self):
        return ModelParams(
            gamma=self.forward.gamma,
            b=self.mobility_fn(),
            F=self.potential_fn(),
        )

    def as_dict(self) -> dict:
        return asdict(self)


def _make_parameter(spec_str: str, path: str, default_factory):
    if spec_str == "default":
        return default_factory()
    if spec_str.startswith("spline:"):
        values = [_to_float(v, f"{path}: malformed spline value")
                  for v in spec_str[len("spline:"):].split(",")]
        if len(values) < 3:
            raise ConfigError(f"{path}: spline needs at least three values")
        with layer_rule(path):
            return SplineParameter(NaturalSplineGrid.with_knots(len(values)),
                                   np.asarray(values))
    raise ConfigError(
        f"{path}: unknown id {spec_str!r} (catalog: default, or spline:v0,v1,...)"
    )


# ---------------------------------------------------------------------------
# parsing

def parse_config(text: str) -> dict:
    """Parse ``section.key = value`` lines into a flat string dictionary."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: key must be a dotted path, got {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _to_float(raw: str, path: str) -> float:
    try:
        v = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: expected a number, got {raw!r}") from exc
    if not np.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {raw!r}")
    return v


def _to_int(raw: str, path: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: expected an integer, got {raw!r}") from exc


def _to_range(raw: str, path: str) -> tuple:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{path}: expected 'start:end', got {raw!r}")
    lo, hi = (_to_float(p, path) for p in parts)
    if not lo < hi:
        raise ConfigError(f"{path}: start must be below end, got {raw!r}")
    return (lo, hi)


def _to_times(raw: str, path: str) -> tuple:
    return tuple(_to_float(v, path) for v in raw.split(","))


def _to_alpha(raw: str, path: str) -> float | None:
    return None if raw == "auto" else _to_float(raw, path)


def _to_grid(raw: str, path: str) -> tuple:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{path}: expected 'high:low:count', got {raw!r}")
    hi = _to_float(parts[0], path)
    lo = _to_float(parts[1], path)
    count = _to_int(parts[2], path)
    # geomspace returns high and low exactly, so the echo re-parses to this
    # grid; without positive ends and count, (high, low) fails the check
    grid = np.geomspace(hi, lo, count) if min(hi, lo, count) > 0 else (hi, lo)
    with layer_rule(path):
        return tuple(float(v) for v in checked_alpha_grid(grid))


def _optional(echo):
    """Echo formatter that leaves the key out while its value is None."""
    return lambda v: None if v is None else echo(v)


_FLOAT = (_to_float, repr)
_INT = (_to_int, str)
_TEXT = (lambda raw, path: raw, str)

# Every key, in echo order: ``section.key`` -> (parse(raw, path), echo(value))
# for the field ``RunConfig.<section>.<key>``; an echo of None omits the line.
_KEYS = {
    "forward.gamma": _FLOAT,
    "forward.potential": _TEXT,
    "forward.mobility": _TEXT,
    "forward.initial": _TEXT,
    "forward.initial_constant": _FLOAT,
    "forward.n_cells": _INT,
    "forward.tau": _FLOAT,
    "forward.t_end": _FLOAT,
    "data.factor": _INT,
    "data.delta": _FLOAT,
    "data.seed": _INT,
    "data.window": (_to_range, _optional(lambda w: f"{w[0]!r}:{w[1]!r}")),
    "data.times": (_to_times, _optional(lambda ts: ",".join(map(repr, ts)))),
    "inverse.kind": _TEXT,
    "inverse.alpha": (_to_alpha, lambda a: "auto" if a is None else repr(a)),
    "inverse.alpha_grid": (
        _to_grid,
        _optional(lambda g: f"{float(g[0])!r}:{float(g[-1])!r}:{len(g)}"),
    ),
    "inverse.sigma": _FLOAT,
    "inverse.threshold": _FLOAT,
    "output.directory": _TEXT,
}


def build_config(entries: dict) -> RunConfig:
    """Validate a parsed key/value mapping into a RunConfig."""
    if "output.formats" in entries:
        # retired key: no writer ever read it, but older echoes carry it;
        # a FutureWarning is shown by default, so command-line users see it
        warnings.warn("output.formats is no longer read; the key is ignored",
                      FutureWarning, stacklevel=2)
        entries = {k: v for k, v in entries.items() if k != "output.formats"}
    cfg = RunConfig()
    for path, (parse, _) in _KEYS.items():
        if path in entries:
            section, key = path.split(".")
            setattr(getattr(cfg, section), key, parse(entries[path], path))
    if "data.times" in entries:
        if "data.window" in entries:
            raise ConfigError(
                "data.times: give either data.times or data.window, not both"
            )
        cfg.data.window = None
    unknown = sorted(set(entries) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Check every value; a rule that a numerical layer enforces is that
    layer's own check, called here through ``layer_rule``."""
    fw, db, iv, ob = cfg.forward, cfg.data, cfg.inverse, cfg.output
    # building the model checks gamma and the two parameter specs
    with layer_rule("forward.gamma"):
        cfg.model_params()
    cfg.initial_fn()  # checks the profile id
    with layer_rule("forward.n_cells"):
        build_mesh(fw.n_cells)
    with layer_rule("forward.t_end"):
        n_steps = step_count(fw.t_end, fw.tau)
    with layer_rule("data.factor"):
        data_mesh_cells(fw.n_cells, n_steps, db.factor)
    with layer_rule("data.delta"):
        checked_noise_level(db.delta)
    if db.seed < 0:
        raise ConfigError(f"data.seed: must be >= 0, got {db.seed}")
    if db.times is not None and any(t <= 0 or t > fw.t_end for t in db.times):
        raise ConfigError("data.times: every time must lie in (0, t_end]")
    if db.window is not None and db.window[1] > fw.t_end + 1e-12:
        raise ConfigError(
            f"data.window: end {db.window[1]} exceeds forward.t_end {fw.t_end}"
        )
    if iv.kind not in PROBLEM_KINDS:
        raise ConfigError(
            f"inverse.kind: {iv.kind!r} is not one of {', '.join(PROBLEM_KINDS)}"
        )
    if iv.alpha is not None:
        with layer_rule("inverse.alpha"):
            checked_alpha(iv.alpha)
    with layer_rule("inverse.sigma"):
        NaturalSplineGrid(iv.sigma)
    if iv.threshold < 0:
        raise ConfigError(f"inverse.threshold: must be >= 0, got {iv.threshold}")
    if not ob.directory:
        raise ConfigError("output.directory: must not be empty")


def config_from_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not a UTF-8 text file ({err.reason})")
    return build_config(parse_config(text))


def paper_preset() -> RunConfig:
    """The built-in preset reproducing the reference experiment setup."""
    return RunConfig(data=DataBlock(window=(0.0, 0.008)))


def config_text(cfg: RunConfig) -> str:
    """Render a RunConfig back to its flat text form (config echo)."""
    lines = []
    for path, (_, echo) in _KEYS.items():
        section, key = path.split(".")
        text = echo(getattr(getattr(cfg, section), key))
        if text is not None:
            lines.append(f"{path} = {text}")
    return "\n".join(lines) + "\n"
