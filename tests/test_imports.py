"""Every name a module or test module imports is used: the lint step of the
tier-1 suite."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "groupshift"
# the package's __init__.py is left out: its imports are its re-exports
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") \
    + sorted(TESTS.glob("*.py"))


def _names(tree: ast.AST) -> set[str]:
    """Names referenced in `tree`, including inside string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced.  Docstrings
    and other strings do not count as references, string annotations do."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names(node.returns)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC
                         else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    src = ('"""Mentions os and Union in a docstring."""\n'
           "from typing import Optional, Union\nimport os\nimport json.decoder\n\n"
           "x: 'Optional[int]' = None\ny = json.decoder\n")
    assert unused_imports(src) == ["Union (line 2)", "os (line 3)"]
