"""Symbolic dynamics over finitely generated groups.

Word-problem solvers and canonical forms, Cayley-ball machinery, pattern
codings with consistency checking, windowed subshift admissibility with the
built-in families, a group-walking machine VM (including the explicit
path/visit machines and the oracle-machine bridge), and the two
machine-to-constraint compilers.

Importing the package imports none of its modules.  `_EXPORTS` lists every
public name by the module that defines it; the first access to any of them
(`groupshift.ball`, `from groupshift import *`) imports those modules and
binds every public name in the package at once, so later accesses are plain
attribute reads and the package holds every name an eager import would
bind.  A submodule name (`groupshift.cayley`) imports only that module.
`perfbench/tracing.py`, which wraps library functions by scanning the
package namespace and later restores them, relies on that first access
binding every name: a name resolved while its wrapper is installed would
keep the wrapper after the restore.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BallBudgetError", "GroupShiftError", "MalformedInputError",
        "UndeterminedError", "UnsupportedGroupError",
    ),
    "groups": (
        "BaumslagSolitarGroup", "DirectProductGroup", "Element", "FiniteGroup",
        "FreeAbelianGroup", "FreeGroup", "FreeProductGroup", "GeneratorSymbol",
        "Group", "RewritingGroup", "bs_group", "canonical_form", "cyclic_group",
        "direct_product", "finite_group", "free_abelian_group", "free_group",
        "free_product", "solve_word_problem",
    ),
    "cayley": (
        "CayleyBall", "ball", "component_sequence", "disjoint_ball_sequences",
        "element_distance", "enumerate_words",
    ),
    "patterns": (
        "Alphabet", "Consistent", "Inconsistent", "Pattern", "PatternCoding",
        "check_consistency", "coding", "coding_length",
        "decidable_completion_contains", "pattern_of", "translate_pattern",
    ),
    "subshifts": (
        "BlockCode", "CompositeFamily", "FiniteFamily", "ForbiddenFamily",
        "GeneratedFamily", "SubshiftSpec", "apply_block_code", "extendable",
        "factor_window_admissible", "identity_block_code", "intersect",
        "locally_admissible", "projective_window_admissible",
        "union_window_admissible",
    ),
    "families": (
        "builtin_amenable_witness", "builtin_delone", "builtin_mirror",
        "builtin_one_or_less", "greedy_delone_configuration",
    ),
    "machines": (
        "Accepted", "Exhausted", "GMachineSpec", "MachineConfig", "MultiHeadSpec",
        "acceptance_bound", "fixed_moving_equivalent", "initial_config",
        "retarget_generators", "run_accepts", "run_multihead",
        "simulate_with_balls", "step_moving",
    ),
    "pathwalk": (
        "ClassicalMachineSpec", "OracleSimulator", "PathMachine", "PathRun",
        "VisitMachine", "classical_accept_all", "classical_contains_entry",
        "classical_query_word",
    ),
    "domino": (
        "DominoConstraint", "DominoInstance", "Satisfiable", "Unsatisfiable",
        "UserSftCover", "WindowedA1", "compile_domino", "free_product_layer",
        "verify_reduction_window",
    ),
    "simulation": (
        "PAPER_EXAMPLE_PARAMS", "SimulationBundle", "XTimeParams",
        "build_simulation", "build_u_rules", "build_wrapped_machine",
        "oplus_positions", "time_value", "xtime_prefix", "xtime_symbol",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_SUBMODULES = frozenset(_EXPORTS) | {"constraints", "jsonio", "cli"}


def __getattr__(name: str):
    """Called only for a name not yet in the package namespace."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module, names in _EXPORTS.items():
        source = importlib.import_module(f"{__name__}.{module}")
        for public in names:
            namespace[public] = getattr(source, public)
    return namespace[name]
