"""Every exception class of the library is defined in `errors.py`, which
holds the one budget policy: a lint step of the tier-1 suite."""

import ast
import builtins

import pytest

from .test_imports import SRC

BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def exception_classes(source: str, known: set[str]) -> list[str]:
    """Classes in `source` deriving, directly or through classes defined
    before them, from a name in `known` (bases written as `Name` or
    `module.Name`)."""
    known, found = set(known), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", getattr(b, "attr", None)) in known
                for b in node.bases):
            known.add(node.name)
            found.append(node.name)
    return found


ERRORS = exception_classes((SRC / "errors.py").read_text(), BUILTIN_EXCEPTIONS)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_exception_classes_live_in_errors(path):
    assert exception_classes(path.read_text(), BUILTIN_EXCEPTIONS | set(ERRORS)) == []


def test_exception_class_is_caught():
    src = ("from . import errors\n"
           "class A(errors.UndeterminedError): pass\n"
           "class B(A): pass\n"
           "class C(ValueError): pass\n"
           "class D(object): pass\n")
    assert exception_classes(src, BUILTIN_EXCEPTIONS | set(ERRORS)) == ["A", "B", "C"]
    assert {"GroupShiftError", "UndeterminedError", "BallBudgetError"} <= set(ERRORS)
