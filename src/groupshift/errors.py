"""Exception hierarchy shared across the library.

Every exception class of the library lives here, and this module holds the
one budget policy.  A budget that runs out while the library works (search
nodes, ball elements, rewrites, completion steps, visit ticks, machine
steps) raises `UndeterminedError`: the answer is neither yes nor no, and
the CLI exits 3.  A fixed cap checked against the request before any work
(a generated family's radius, a clock prefix, a materialized word's length)
raises `MalformedInputError`, and the CLI exits 2.
"""

from typing import Optional


class GroupShiftError(Exception):
    """Base class for all library errors."""


class MalformedInputError(GroupShiftError):
    """A word, pattern or spec refers to symbols that do not exist, or a
    request exceeds a fixed cap."""


def require_nonnegative(name: str, value: int) -> None:
    """A negative count in a request is malformed input (exit 2)."""
    if value < 0:
        raise MalformedInputError(f"{name} must be >= 0, got {value}")


class UnsupportedGroupError(GroupShiftError):
    """Operation requires an infinite group (or otherwise unsupported kind)."""


class ComponentExhaustedError(GroupShiftError):
    """A component ran out of elements before the requested count."""


class UndeterminedError(GroupShiftError):
    """A budget ran out while the library worked; the verdict is neither
    Yes nor No.

    `nodes` is the search-node count at which the budget ran out, when the
    search counts nodes (None otherwise).
    """

    def __init__(self, message: str, nodes: Optional[int] = None):
        super().__init__(message)
        self.nodes = nodes


class BallBudgetError(UndeterminedError):
    """Ball construction exceeded the configured element cap.

    Its own class so that a caller can fall back on a ball overrun without
    swallowing a search's budget error."""


class RetargetSoundnessError(GroupShiftError):
    """A generator retargeting map does not preserve group elements."""


class GroupExhaustedError(GroupShiftError):
    """The path builder exhausted every direction (finite group reached)."""
