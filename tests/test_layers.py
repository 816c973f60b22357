"""The package's modules form layers, and no module imports a later one:

    errors, linalg -> patterns -> geometry -> selfdual, dnn, data -> analysis
        -> search -> cli

Modules of one layer do not import each other either, and outside the
package they import only the standard library and numpy.  The checks read
the import statements of the source files, so they also cover imports that a
module makes only inside a function.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import sdcones

LAYERS = [
    {"errors"},
    {"linalg"},
    {"patterns"},
    {"geometry"},
    {"selfdual", "dnn", "data"},
    {"analysis"},
    {"search"},
    {"cli"},
]
LAYER_OF = {name: rank for rank, names in enumerate(LAYERS) for name in names}
SOURCE = Path(sdcones.__file__).parent


def package_imports(path: Path) -> set[str]:
    """Names of the sdcones modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sdcones"):
            parts = node.module.split(".")
            found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sdcones" and len(parts) > 1:
                    found.add(parts[1])
    return found


def outside_imports(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports from outside the
    package and the standard library."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names - {"sdcones"}


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency pyproject.toml declares; scipy is
    # for tests only.
    imports = {path.name: outside_imports(path) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: found for name, found in imports.items() if found - {"numpy"}} == {}


def test_checker_sees_outside_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json, os.path\n"
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "from . import linalg\n"
        "from sdcones import cli\n"
        "def late():\n"
        "    import scipy.spatial\n"
        "    from networkx import Graph\n"
    )
    assert outside_imports(probe) == {"numpy", "scipy", "networkx"}


def test_every_module_has_a_layer():
    modules = {p.stem for p in SOURCE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER_OF)


def test_no_module_imports_its_own_or_a_later_layer():
    bad = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name in package_imports(path):
            if name in LAYER_OF and LAYER_OF[name] >= LAYER_OF[path.stem]:
                bad.append(f"{path.stem} imports {name}")
    assert bad == []


def test_pattern_users_do_not_import_the_search():
    for name in ("selfdual", "dnn", "data"):
        assert "search" not in package_imports(SOURCE / f"{name}.py")
        assert "patterns" in package_imports(SOURCE / f"{name}.py")


def test_checker_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import geometry, linalg\n"
        "from .search import support_of\n"
        "import sdcones.cli\n"
        "from sdcones import dnn\n"
        "def late():\n"
        "    from .selfdual import is_self_dual\n"
    )
    assert package_imports(probe) == {
        "geometry", "linalg", "search", "cli", "dnn", "selfdual",
    }
