"""Symbolic dynamics over finitely generated groups.

Word-problem solvers and canonical forms, Cayley-ball machinery, pattern
codings with consistency checking, windowed subshift admissibility with the
built-in families, a group-walking machine VM (including the explicit
path/visit machines and the oracle-machine bridge), and the two
machine-to-constraint compilers.
"""

from .errors import (
    BallBudgetError,
    ComponentExhaustedError,
    GroupExhaustedError,
    GroupShiftError,
    MalformedInputError,
    RetargetSoundnessError,
    UndeterminedError,
    UnsupportedGroupError,
)
from .groups import (
    BaumslagSolitarGroup,
    DirectProductGroup,
    Element,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    GeneratorSymbol,
    Group,
    RewritingGroup,
    bs_group,
    canonical_form,
    cyclic_group,
    direct_product,
    finite_group,
    free_abelian_group,
    free_group,
    free_product,
    solve_word_problem,
)
from .cayley import (
    CayleyBall,
    ball,
    component_sequence,
    disjoint_ball_sequences,
    element_distance,
    enumerate_words,
    word_metric,
)
from .patterns import (
    Alphabet,
    Consistent,
    Inconsistent,
    Pattern,
    PatternCoding,
    check_consistency,
    coding,
    coding_length,
    decidable_completion_contains,
    pattern_of,
    translate_pattern,
)
from .subshifts import (
    BlockCode,
    CompositeFamily,
    FiniteFamily,
    ForbiddenFamily,
    GeneratedFamily,
    SubshiftSpec,
    apply_block_code,
    extendable,
    factor_window_admissible,
    identity_block_code,
    intersect,
    locally_admissible,
    projective_window_admissible,
    union_window_admissible,
)
from .families import (
    builtin_amenable_witness,
    builtin_delone,
    builtin_mirror,
    builtin_one_or_less,
    greedy_delone_configuration,
)
from .machines import (
    Accepted,
    Exhausted,
    GMachineSpec,
    MachineConfig,
    MultiHeadSpec,
    acceptance_bound,
    fixed_moving_equivalent,
    initial_config,
    retarget_generators,
    run_accepts,
    run_multihead,
    simulate_with_balls,
    step_moving,
)
from .pathwalk import (
    ClassicalMachineSpec,
    OracleSimulator,
    PathMachine,
    PathRun,
    VisitMachine,
    build_m_path,
    build_m_visit,
    build_oracle_simulator,
    classical_accept_all,
    classical_contains_entry,
    classical_query_word,
)
from .domino import (
    DominoConstraint,
    DominoInstance,
    Satisfiable,
    Unsatisfiable,
    UserSftCover,
    WindowedA1,
    compile_domino,
    free_product_layer,
    verify_reduction_window,
)
from .simulation import (
    PAPER_EXAMPLE_PARAMS,
    SimulationBundle,
    XTimeParams,
    build_simulation,
    build_u_rules,
    build_wrapped_machine,
    oplus_positions,
    time_value,
    xtime_prefix,
    xtime_symbol,
)

__version__ = "0.1.0"
