"""No module of the package reads or imports another module's private
(`_`-prefixed) names: each decision stays behind the module that owns it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import contextstream

PACKAGE = Path(contextstream.__file__).parent


def private_reaches(source: str) -> list[str]:
    """`line: name` for each private name of another package module that
    `source` imports (`from .core import _x`) or reads off an imported
    module (`io._read_json` after `from . import io`)."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "contextstream":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{node.lineno}: {alias.name}")
            elif node.module in (None, "contextstream"):
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_checker_finds_both_kinds_of_reach():
    source = "from .core import _x, y\nfrom . import io\nio._read_json(p)\nio.load_eg(p)\n"
    assert private_reaches(source) == ["1: _x", "3: io._read_json"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reaches_no_private_name_of_another(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []
