"""Key=value configuration parsing, validation, and round-tripping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chident.cli import _selected_times
from chident.config import (
    PROBLEM_KINDS,
    ConfigError,
    build_config,
    config_from_file,
    config_text,
    paper_preset,
    parse_config,
)
from chident.data import ObservationData, data_mesh_cells
from chident.forward import step_count
from chident.meshbasis import build_mesh, cubic_spline_basis
from chident.model import NaturalSplineGrid


def test_builtin_preset_values():
    cfg = paper_preset()
    assert cfg.forward.gamma == 0.003
    assert cfg.forward.n_cells == 200
    assert cfg.forward.tau == 2e-5
    assert cfg.forward.t_end == 0.02
    assert cfg.data.factor == 2
    assert cfg.data.delta == 0.0
    assert cfg.data.window == (0.0, 0.008)
    assert cfg.inverse.kind == "identify-f"
    assert cfg.inverse.alpha == 1e-10
    assert cfg.inverse.sigma == 0.1
    params = cfg.model_params()
    assert params.gamma == 0.003
    assert params.b(0.0) == pytest.approx(1.2)


def test_parse_config_grammar():
    text = """
    # comment
    forward.gamma = 0.004   # trailing comment
    forward.n_cells = 100

    inverse.kind = identify-b
    """
    entries = parse_config(text)
    assert entries == {
        "forward.gamma": "0.004",
        "forward.n_cells": "100",
        "inverse.kind": "identify-b",
    }


@pytest.mark.parametrize("bad, fragment", [
    ("forward.gamma 0.004", "expected"),
    ("gamma = 0.004", "dotted"),
    ("forward.gamma = 1\nforward.gamma = 2", "duplicate"),
])
def test_parse_config_errors(bad, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(bad)


def test_build_config_overrides_and_unknown_keys():
    cfg = build_config(parse_config(
        "forward.n_cells = 64\nforward.tau = 1e-4\nforward.t_end = 1e-2\n"
        "data.window = 0:1e-2"))
    assert cfg.forward.n_cells == 64
    assert cfg.forward.tau == 1e-4
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        build_config({"forward.bogus": "1"})
    with pytest.raises(ConfigError, match="forward.n_cells"):
        build_config({"forward.n_cells": "abc"})


@pytest.mark.parametrize("overrides, fragment", [
    ({"forward.gamma": "-1"}, "forward.gamma"),
    ({"forward.n_cells": "3"}, "forward.n_cells"),
    ({"forward.t_end": "3e-5"}, "multiple"),
    ({"data.factor": "3"}, "data.factor"),
    ({"data.delta": "-0.1"}, "data.delta"),
    ({"inverse.kind": "identify-q"}, "inverse.kind"),
    ({"inverse.alpha": "0"}, "inverse.alpha"),
    ({"inverse.sigma": "0.3"}, "evenly divide"),
    ({"data.window": "0:0.5"}, "exceeds"),
    ({"output.directory": ""}, "output.directory"),
    ({"data.times": "4e-5,nan"}, "finite"),
    ({"data.seed": "-3"}, "data.seed"),
    ({"inverse.sigma": "2"}, "inverse.sigma: need 0 < sigma <= 1"),
    ({"forward.mobility": "spline:1,1"}, "forward.mobility: spline needs at least three"),
    ({"forward.potential": "spline:1,1"}, "forward.potential: spline needs at least three"),
    ({"forward.mobility": "spline:nan,1,1"}, "forward.mobility: .*must be finite"),
    ({"forward.potential": "spline:1,inf,1"}, "forward.potential: .*must be finite"),
    ({"forward.initial": "bogus"}, "forward.initial: unknown profile id 'bogus'"),
    ({"forward.mobility": "spline:" + ",".join(["1"] * 2002)},
     "forward.mobility: .* 2002 knots, more than 2001"),
])
def test_validation_errors(overrides, fragment):
    base = {"forward.n_cells": "200", "forward.tau": "2e-5",
            "forward.t_end": "0.02"}
    base.update(overrides)
    with pytest.raises(ConfigError, match=fragment):
        build_config(base)


def test_fine_sigma_loads_without_building_the_grid_maps():
    # the knot grid checks its spacing at load; its dense (1001, 1001)
    # curvature map, 8 MB, is built only when an assembly reads it
    tracemalloc.start()
    try:
        build_config({"inverse.sigma": "0.002"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_retired_output_formats_key_warns_and_is_dropped():
    echo = config_text(paper_preset())
    assert "output.formats" not in echo
    with pytest.warns(FutureWarning, match="output.formats"):
        old = build_config(parse_config(echo + "output.formats = csv,yaml\n"))
    assert old.as_dict() == build_config(parse_config(echo)).as_dict()
    assert config_text(old) == echo


def test_times_and_window_are_exclusive():
    base = {"forward.tau": "2e-5", "forward.t_end": "0.02",
            "data.times": "4e-5,8e-5", "data.window": "0:0.008"}
    with pytest.raises(ConfigError, match="not both"):
        build_config(base)
    ok = build_config({"forward.tau": "2e-5", "forward.t_end": "0.02",
                       "data.times": "4e-5,8e-5"})
    assert ok.data.times == (4e-5, 8e-5)
    assert ok.data.window is None
    with pytest.raises(ConfigError, match="data.times"):
        build_config({"forward.tau": "2e-5", "forward.t_end": "0.02",
                      "data.times": "0.03"})
    # a time given twice breaks the time selection's rule, checked against
    # the observation grid once it is known
    twice = build_config({"forward.tau": "2e-5", "forward.t_end": "0.02",
                          "data.times": "4e-5,8e-5,4e-5"})
    grid = ObservationData(cubic_spline_basis(build_mesh(4)), np.arange(3) * 4e-5,
                           np.zeros((3, 4)), tau_data=4e-5)
    with pytest.raises(ConfigError, match="data.times: two times select the same observation"):
        _selected_times(twice, grid)


def test_alpha_auto_and_grid():
    cfg = build_config({"inverse.alpha": "auto",
                        "inverse.alpha_grid": "1e-2:1e-9:12"})
    assert cfg.inverse.alpha is None
    grid = np.asarray(cfg.inverse.alpha_grid)
    assert len(grid) == 12
    assert grid[0] == pytest.approx(1e-2)
    assert grid[-1] == pytest.approx(1e-9)
    assert np.all(np.diff(grid) < 0)
    with pytest.raises(ConfigError, match="high:low:count"):
        build_config({"inverse.alpha_grid": "1e-2:1e-9"})
    with pytest.raises(ConfigError, match="at least 10"):
        build_config({"inverse.alpha_grid": "1e-2:1e-9:5"})
    with pytest.raises(ConfigError, match="inverse.alpha_grid: the alpha grid must span at least four"):
        build_config({"inverse.alpha_grid": "1e-4:1e-6:12"})
    assert len(build_config({"inverse.alpha_grid": "1e-2:1e-6:10"}).inverse.alpha_grid) == 10


def test_spline_parameter_syntax():
    cfg = build_config(parse_config("forward.mobility = spline:1.0,2.0,1.0"))
    b = cfg.mobility_fn()
    assert b(-1.0) == pytest.approx(1.0)
    assert b(1.0) == pytest.approx(1.0)
    assert b(0.0) == pytest.approx(2.0)
    # validation builds the functions, so a bad spec fails there
    with pytest.raises(ConfigError, match="at least three"):
        build_config(parse_config("forward.mobility = spline:1.0"))
    with pytest.raises(ConfigError, match="malformed"):
        build_config(parse_config("forward.mobility = spline:1.0,zz"))
    with pytest.raises(ConfigError, match="forward.potential"):
        build_config(parse_config("forward.potential = quartic"))


def test_config_text_roundtrip(tmp_path):
    cfg = paper_preset()
    cfg.forward.n_cells = 100
    cfg.data.delta = 1e-3
    cfg.inverse.alpha = None
    cfg.inverse.alpha_grid = tuple(np.logspace(-2, -9, 12))
    text = config_text(cfg)
    again = build_config(parse_config(text))
    assert again.as_dict() == cfg.as_dict()
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert config_from_file(path).as_dict() == cfg.as_dict()
    # every key is echoed, the constant initial value too
    cfg = paper_preset()
    cfg.forward.initial = "constant"
    cfg.forward.initial_constant = 0.25
    again = build_config(parse_config(config_text(cfg)))
    assert again.forward.initial_constant == 0.25
    assert again.as_dict() == cfg.as_dict()


def _spline_or_default():
    values = st.lists(st.floats(0.1, 10.0), min_size=3, max_size=6)
    return st.one_of(
        st.just("default"),
        values.map(lambda vs: "spline:" + ",".join(map(repr, vs))),
    )


@st.composite
def _valid_entries(draw):
    """A valid configuration over every key, as parse_config returns it."""
    factor = draw(st.integers(1, 4))
    tau = draw(st.floats(1e-7, 1e-2))
    t_end = draw(st.integers(1, 50)) * factor * tau
    e = {
        "forward.gamma": repr(draw(st.floats(1e-5, 10.0))),
        "forward.potential": draw(_spline_or_default()),
        "forward.mobility": draw(_spline_or_default()),
        "forward.initial": draw(st.sampled_from(["default", "constant"])),
        "forward.initial_constant": repr(draw(st.floats(allow_nan=False,
                                                        allow_infinity=False))),
        "forward.n_cells": str(factor * draw(st.integers(4, 100))),
        "forward.tau": repr(tau),
        "forward.t_end": repr(t_end),
        "data.factor": str(factor),
        "data.delta": repr(draw(st.floats(0.0, 1.0))),
        "data.seed": str(draw(st.integers(0, 2**40))),
        "inverse.kind": draw(st.sampled_from(PROBLEM_KINDS)),
        "inverse.alpha": draw(st.one_of(
            st.just("auto"), st.floats(1e-14, 1.0).map(repr))),
        "inverse.sigma": repr(2.0 / draw(st.integers(2, 40))),
        "inverse.threshold": repr(draw(st.floats(0.0, 1.0))),
        "output.directory": draw(st.from_regex(r"[\w./-]{1,12}", fullmatch=True)),
    }
    if draw(st.booleans()):
        times = st.floats(0.0, t_end, exclude_min=True)
        e["data.times"] = ",".join(map(repr, draw(st.lists(times, min_size=1,
                                                           max_size=5, unique=True))))
    else:
        lo = draw(st.floats(-t_end, t_end, exclude_max=True))
        hi = draw(st.floats(lo, t_end, exclude_min=True))
        e["data.window"] = f"{lo!r}:{hi!r}"
    if draw(st.booleans()):
        high = draw(st.floats(1e-12, 10.0))
        low = high * 10.0 ** -draw(st.floats(4.0, 12.0))
        # at exactly four decades the rounding of low may fall either side
        assume(np.log10(high / low) >= 4.0)
        e["inverse.alpha_grid"] = f"{high!r}:{low!r}:{draw(st.integers(10, 60))}"
    return e


@settings(max_examples=100)
@given(entries=_valid_entries())
@example(entries={
    "inverse.alpha": "auto",
    "inverse.alpha_grid": "0.3821991103136994:9.995707475249206e-09:38",
})
def test_config_echo_is_a_fixed_point(entries):
    cfg = build_config(entries)
    text = config_text(cfg)
    again = build_config(parse_config(text))
    assert again.as_dict() == cfg.as_dict()
    assert config_text(again) == text


@settings(max_examples=200)
@given(
    steps=st.integers(0, 50),
    offset=st.floats(-2e-8, 2e-8),
    tau=st.floats(1e-7, 1e-2),
    n_cells=st.integers(1, 64),
    factor=st.integers(0, 8),
    sigma=st.one_of(st.floats(-0.5, 2.5).filter(lambda v: abs(v) >= 0.04),
                    st.just(0.0), st.integers(1, 40).map(lambda k: 2.0 / k)),
)
def test_accepted_configs_pass_the_layer_rules(steps, offset, tau, n_cells, factor, sigma):
    """A t_end within 2e-8 of a multiple of tau: whatever the configuration
    accepts, the layers that rely on its rules accept too."""
    t_end = steps * tau + offset
    entries = {"forward.tau": repr(tau), "forward.t_end": repr(t_end),
               "forward.n_cells": str(n_cells), "data.factor": str(factor),
               "data.window": f"0:{t_end!r}", "inverse.sigma": repr(sigma)}
    try:
        build_config(entries)
    except ConfigError:
        return
    build_mesh(n_cells)
    data_mesh_cells(n_cells, step_count(t_end, tau), factor)
    NaturalSplineGrid(sigma)


def test_initial_profile_options():
    cfg = build_config(parse_config(
        "forward.initial = constant\nforward.initial_constant = 0.25"))
    prof = cfg.initial_fn()
    x = np.linspace(0, 1, 11)
    assert np.allclose(prof(x), 0.25)
    default = paper_preset().initial_fn()
    expect = (0.1 * np.sin(2 * np.pi * x) - 0.1 * np.sin(4 * np.pi * x)
              + 0.1 * np.sin(12 * np.pi * x) + 0.1)
    assert np.allclose(default(x), expect, atol=1e-14)
