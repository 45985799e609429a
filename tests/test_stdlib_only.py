"""The runtime is standard-library only: every import in ``src/vrgc`` names
a standard-library module or ``vrgc`` itself (relative imports included)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vrgc"


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("vrgc" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_stdlib_only(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    outside = sorted(r for r in roots if r != "vrgc" and r not in sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}"


def test_check_sees_a_third_party_import():
    assert imported_roots(ast.parse("import numpy.linalg\nfrom .rules import RuleLibrary")) == {
        "numpy",
        "vrgc",
    }
