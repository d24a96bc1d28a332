"""Imports: every name a module or test module imports is used (the lint
step of the tier-1 suite); the command line imports only the modules a
command runs; and the package's lazy namespace exports the public API."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "groupshift"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


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


# -- what a fresh interpreter loads ---------------------------------------------

# the package's public names, as its eager __init__ bound them
PUBLIC = """
    Accepted Alphabet BallBudgetError BaumslagSolitarGroup BlockCode CayleyBall
    ClassicalMachineSpec CompositeFamily Consistent DirectProductGroup
    DominoConstraint DominoInstance Element Exhausted FiniteFamily FiniteGroup
    ForbiddenFamily FreeAbelianGroup FreeGroup FreeProductGroup GMachineSpec
    GeneratedFamily GeneratorSymbol Group GroupShiftError Inconsistent
    MachineConfig MalformedInputError MultiHeadSpec OracleSimulator
    PAPER_EXAMPLE_PARAMS PathMachine PathRun Pattern PatternCoding
    RewritingGroup Satisfiable SimulationBundle SubshiftSpec UndeterminedError
    Unsatisfiable UnsupportedGroupError UserSftCover VisitMachine WindowedA1
    XTimeParams acceptance_bound apply_block_code ball bs_group
    build_simulation build_u_rules
    build_wrapped_machine builtin_amenable_witness builtin_delone builtin_mirror
    builtin_one_or_less canonical_form check_consistency classical_accept_all
    classical_contains_entry classical_query_word coding coding_length
    compile_domino component_sequence cyclic_group decidable_completion_contains
    direct_product disjoint_ball_sequences element_distance enumerate_words
    extendable factor_window_admissible finite_group fixed_moving_equivalent
    free_abelian_group free_group free_product free_product_layer
    greedy_delone_configuration identity_block_code initial_config intersect
    locally_admissible oplus_positions pattern_of projective_window_admissible
    retarget_generators run_accepts run_multihead simulate_with_balls
    solve_word_problem step_moving time_value translate_pattern
    union_window_admissible verify_reduction_window xtime_prefix
    xtime_symbol
""".split()

# what `python -m groupshift.cli` loads before a command body runs
CLI_OWN = {"groupshift", "groupshift.errors", "groupshift.groups", "groupshift.jsonio"}


def fresh(code: str):
    """Run `code` in a new interpreter on this checkout's sources; the JSON
    value of its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + os.pathsep + env.get("PYTHONPATH", "")
    preamble = ("import json, runpy, sys\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules\n"
                "                  if m == 'groupshift' or m.startswith('groupshift.'))\n")
    proc = subprocess.run([sys.executable, "-c", preamble + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def cli_footprint(*argvs) -> set[str]:
    """The groupshift modules loaded after running each argv in turn as
    `python -m groupshift.cli ...`."""
    return set(fresh(f"""
        for argv in {list(argvs)!r}:
            sys.argv = ["groupshift", *argv]
            try:
                runpy.run_module("groupshift.cli", run_name="__main__")
            except SystemExit:
                pass
        print(json.dumps(loaded()))
    """))


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"kind": "free", "rank": 2}))
    return str(path)


def test_import_cli_loads_only_what_every_command_needs():
    assert set(fresh("import groupshift.cli\nprint(json.dumps(loaded()))")) \
        == CLI_OWN | {"groupshift.cli"}


def test_help_and_word_problem_load_nothing_more(f2_file):
    assert cli_footprint(["--help"]) == CLI_OWN
    assert cli_footprint(["wp", "--group", f2_file, "--word", "a b b^-1 a^-1"],
                         ["canon", "--group", f2_file, "--word", "a a^-1 b"]) == CLI_OWN


def test_ball_loads_only_cayley(f2_file):
    assert cli_footprint(["ball", "--group", f2_file, "-n", "2"]) \
        == CLI_OWN | {"groupshift.cayley"}


def test_machine_path_skips_the_compilers(f2_file):
    got = cli_footprint(["machine", "path", "--group", f2_file, "--steps", "5"])
    assert "groupshift.pathwalk" in got
    assert not got & {f"groupshift.{m}"
                      for m in ("domino", "simulation", "families", "subshifts")}


def test_public_api_resolves_lazily():
    got = fresh(f"""
        import groupshift, types
        out = {{"bare": loaded()}}
        groupshift.cayley
        out["submodule"] = loaded()
        out["simulation"] = isinstance(groupshift.simulation, types.ModuleType)
        out["resolved"] = [n for n in {PUBLIC!r} if getattr(groupshift, n, None) is not None]
        star = {{}}
        exec("from groupshift import *", star)
        out["star"] = sorted(set(star) - {{"__builtins__"}})
        try:
            groupshift.no_such_name
        except AttributeError:
            out["unknown"] = "AttributeError"
        print(json.dumps(out))
    """)
    assert got["bare"] == ["groupshift"]
    assert got["submodule"] == ["groupshift", "groupshift.cayley", "groupshift.errors",
                                "groupshift.groups"]
    assert got["simulation"] is True
    assert got["resolved"] == PUBLIC
    assert got["star"] == sorted(PUBLIC)
    assert got["unknown"] == "AttributeError"
