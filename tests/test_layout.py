"""One home per name: no package ``__init__.py`` imports anything, so every
name is imported from the module that defines it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baitline"


@pytest.mark.parametrize("init", sorted(PACKAGE.rglob("__init__.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE.parent)))
def test_package_init_imports_nothing(init):
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not lines, f"{init} imports on lines {lines}"
