"""The package's modules form layers, and no module imports a later one:

    errors, linalg -> patterns -> geometry -> selfdual, dnn, data -> analysis
        -> search -> cli

Modules of one layer do not import each other either.  The check reads the
import statements of the source files, so it also covers imports that a
module makes only inside a function.
"""

from __future__ import annotations

import ast
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
