"""The README's Python API example imports only names that exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_readme_api_imports_resolve():
    imports = re.findall(r"^from (chident[\w.]*) import (.+)$", _api_block(), re.M)
    assert imports
    for module, names in imports:
        mod = importlib.import_module(module)
        for name in names.split(","):
            assert hasattr(mod, name.strip()), f"{module} has no {name.strip()}"
