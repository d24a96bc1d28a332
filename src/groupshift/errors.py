"""Exception hierarchy shared across the library, and its one failure policy.

Every exception class of the library lives here.  The library raises four:

- `MalformedInputError` (CLI exit 2): a word, pattern, spec or map names
  symbols that do not exist or breaks a law it must keep, or a request
  exceeds a fixed cap checked before any work (a generated family's radius,
  a clock prefix, a materialized word's length).
- `UnsupportedGroupError` (CLI exit 2): the group lacks a property the
  operation needs, such as being infinite or having enough elements.
- `UndeterminedError` (CLI exit 3): a budget ran out while the library
  worked (search nodes, rewrites, completion steps, visit ticks, machine
  steps), so the answer is neither yes nor no.
- `BallBudgetError` (CLI exit 3): its subclass for a ball that outgrew its
  element cap, so that a caller can fall back on a ball overrun without
  swallowing a search's budget error.

Beyond these, a raise is an `AssertionError` for a broken invariant or a
`NotImplementedError` for an abstract method.
"""

from typing import Optional


class GroupShiftError(Exception):
    """Base class for all library errors."""


class MalformedInputError(GroupShiftError):
    """Malformed input, or a request over a fixed cap."""


def require_nonnegative(name: str, value: int) -> None:
    """A negative count in a request is malformed input (exit 2)."""
    if value < 0:
        raise MalformedInputError(f"{name} must be >= 0, got {value}")


class UnsupportedGroupError(GroupShiftError):
    """The group lacks a property the operation needs."""


class UndeterminedError(GroupShiftError):
    """A budget ran out; `nodes` is the search-node count at which it did,
    when the search counts nodes (None otherwise)."""

    def __init__(self, message: str, nodes: Optional[int] = None):
        super().__init__(message)
        self.nodes = nodes


class BallBudgetError(UndeterminedError):
    """Ball construction exceeded the configured element cap."""
