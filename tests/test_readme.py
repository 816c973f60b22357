"""The README's quick starts run as written, and its numbers hold."""

from __future__ import annotations

import importlib
import numbers
import re
import shlex
from pathlib import Path

from sdcones import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TOLERANCE_MODULES = ("linalg", "patterns", "geometry", "selfdual", "search")


def code_block(heading: str, lang: str) -> str:
    """The first ```lang block under the README section `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_quick_start(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(compile(code_block("Library quick start", "python"), "README.md", "exec"), ns)
    # The values its comments promise.
    assert ns["ok"] and (ns["report"].extreme, ns["report"].intersection_dim) == (True, 1)
    assert ns["full"].results["verdicts"]["cp_member"] is False
    assert ns["result"].success


def test_cli_quick_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in code_block("CLI quick start", "sh").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 6 and all(argv[0] == "sdcones" for argv in commands)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "run" / "pentagon_realization.cone").is_file()


def test_readme_states_the_contract_in_150_lines():
    assert len(README.read_text(encoding="utf-8").splitlines()) <= 150


def test_tolerance_table_values_are_the_module_constants():
    # Both ways: every row names a live constant with its value, and every
    # public numeric constant of the tolerance-holding modules has a row.
    text = README.read_text(encoding="utf-8")
    table = text.split("\n### Tolerances\n", 1)[1].split("\n### ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split(" | ")]
            for line in table.splitlines() if line.startswith("| `")]
    assert len(rows) >= 10
    constants = {}
    for module in TOLERANCE_MODULES:
        for name, value in vars(importlib.import_module(f"sdcones.{module}")).items():
            if (name.isupper() and not name.startswith("_")
                    and isinstance(value, numbers.Real) and not isinstance(value, bool)):
                constants[name] = value
    for name, module, value, _ in rows:
        assert module in TOLERANCE_MODULES, name
        constant = getattr(importlib.import_module(f"sdcones.{module}"), name)
        assert float(value) == constant, name
    assert sorted(name for name, *_ in rows) == sorted(constants)
