"""Exception hierarchy shared across the library."""

from typing import Optional


class GroupShiftError(Exception):
    """Base class for all library errors."""


class MalformedInputError(GroupShiftError):
    """A word, pattern or spec refers to symbols that do not exist."""


class SolverBudgetError(GroupShiftError):
    """A rewriting system failed to reach a normal form within budget."""


class BallBudgetError(GroupShiftError):
    """Ball construction exceeded the configured element cap."""


class UnsupportedGroupError(GroupShiftError):
    """Operation requires an infinite group (or otherwise unsupported kind)."""


class ComponentExhaustedError(GroupShiftError):
    """A component ran out of elements before the requested count."""


class CompletionBudgetError(GroupShiftError):
    """Completion membership undecided within budget (degenerate enumeration)."""


class UndeterminedError(GroupShiftError):
    """A bounded search ran out of budget; the verdict is neither Yes nor No.

    `nodes` is the search-node count at which the budget ran out, when the
    search counts nodes (None otherwise).
    """

    def __init__(self, message: str, nodes: Optional[int] = None):
        super().__init__(message)
        self.nodes = nodes


class RetargetSoundnessError(GroupShiftError):
    """A generator retargeting map does not preserve group elements."""


class GroupExhaustedError(GroupShiftError):
    """The path builder exhausted every direction (finite group reached)."""
