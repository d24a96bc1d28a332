"""Every exception class of the library is defined in `errors.py`, which
holds the one failure policy, and every raise uses one of its classes: lint
steps of the tier-1 suite."""

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


# -- what the library raises --------------------------------------------------

# the policy's classes, plus AssertionError for a broken invariant and
# NotImplementedError for an abstract method
VOCABULARY = {"MalformedInputError", "UnsupportedGroupError", "UndeterminedError",
              "BallBudgetError", "AssertionError", "NotImplementedError"}


def raised_outside_vocabulary(source: str, filename: str) -> list[str]:
    """Each `raise` in `source` of something outside the vocabulary, as
    'name (line n)'.  A bare `raise` re-raises and passes; `cli.py` may also
    raise click's errors (`click.Name`), and the package `__init__.py` the
    AttributeError of its module `__getattr__`."""
    out = []
    raises = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Raise) and node.exc is not None]
    for node in sorted(raises, key=lambda node: node.lineno):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = ast.unparse(exc)
        if (name in VOCABULARY
                or filename == "cli.py" and name.startswith("click.")
                or filename == "__init__.py" and name == "AttributeError"):
            continue
        out.append(f"{name} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_raises_keep_to_the_vocabulary(path):
    assert raised_outside_vocabulary(path.read_text(), path.name) == []


def test_raise_outside_vocabulary_is_caught():
    src = ("import click\n"
           "def f(x):\n"
           "    try:\n"
           "        raise MalformedInputError('bad')\n"
           "    except MalformedInputError as e:\n"
           "        if x:\n"
           "            raise\n"
           "        raise e\n"
           "    raise ValueError(x)\n"
           "def g():\n"
           "    raise click.UsageError('no')\n"
           "def h():\n"
           "    raise AttributeError('no')\n")
    assert raised_outside_vocabulary(src, "groups.py") == [
        "e (line 8)", "ValueError (line 9)", "click.UsageError (line 11)",
        "AttributeError (line 13)"]
    assert raised_outside_vocabulary(src, "cli.py") == [
        "e (line 8)", "ValueError (line 9)", "AttributeError (line 13)"]
    assert raised_outside_vocabulary(src, "__init__.py") == [
        "e (line 8)", "ValueError (line 9)", "click.UsageError (line 11)"]
