"""The README's Python API section runs and names only names that exist,
and its table of checks states the bounds of `chident.checks`."""

import importlib
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_section() -> str:
    return README.read_text(encoding="utf-8").split("## Python API", 1)[1].split("\n## ", 1)[0]


def _api_block() -> str:
    return _api_section().split("```python", 1)[1].split("```", 1)[0]


def test_readme_api_imports_resolve():
    imports = re.findall(r"^from (chident[\w.]*) import (.+)$", _api_block(), re.M)
    assert imports
    for module, names in imports:
        mod = importlib.import_module(module)
        for name in names.split(","):
            assert hasattr(mod, name.strip()), f"{module} has no {name.strip()}"


def test_readme_api_example_runs():
    """The Python API block runs as written and solves for finite knot
    values, one per knot of the model's true coefficients."""
    namespace = {}
    exec(_api_block(), namespace)
    coefficients = namespace["solution"].coefficients
    assert np.all(np.isfinite(coefficients))
    assert coefficients.shape == namespace["truth"].shape


def test_readme_api_module_names_resolve():
    """Every backticked ``module.NAME`` of the section is an attribute of
    ``chident.<module>``."""
    names = re.findall(r"`([a-z]\w*)\.(\w+)`", _api_section())
    assert names
    for module, name in names:
        mod = importlib.import_module(f"chident.{module}")
        assert hasattr(mod, name), f"chident.{module} has no {name}"


def test_readme_check_bounds_are_the_checks_constants():
    """Every ``NAME = value`` in the README's table of checks is the
    constant of ``chident.checks``, and the table names all eight bounds."""
    from chident import checks

    text = README.read_text(encoding="utf-8")
    table = text.split("| check | bound |", 1)[1].split("\n\n", 1)[0]
    stated = dict(re.findall(r"`([A-Z_]+) = ([-+.e\d]+)`", table))
    assert {"MASS_DRIFT_MAX", "ENERGY_RISE_MAX", "PHI_DEV_MAX", "MU_DEV_MAX",
            "DUAL_NORM_ERR_MAX", "COAREA_RESIDUAL_MAX", "COAREA_MIN_SAMPLES",
            "SLOPE_TOL"} <= set(stated)
    for name, value in stated.items():
        assert getattr(checks, name) == float(value), name


def test_readme_assembly_rule_is_the_inverse_constants():
    """The README's Gauss points per cell and snapshots per assembly block
    (halved for the joint problem) are ``inverse.N_QUAD`` and
    ``inverse._ASSEMBLY_BLOCK``."""
    from chident import inverse

    words = {"two": 2, "three": 3, "four": 4, "five": 5, "six": 6, "seven": 7,
             "eight": 8, "nine": 9, "ten": 10, "twelve": 12, "sixteen": 16}
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert int(re.search(r"`inverse\.N_QUAD` = (\d+)", text).group(1)) == inverse.N_QUAD
    block, joint = re.search(
        r"built (\w+) snapshots at a time \((\w+) for the joint problem", text
    ).groups()
    assert (words[block], words[joint]) == (inverse._ASSEMBLY_BLOCK, inverse._ASSEMBLY_BLOCK // 2)
