import itertools

import pytest

from groupshift import (
    FreeAbelianGroup,
    Pattern,
    RewritingGroup,
    ball,
    bs_group,
    cyclic_group,
    direct_product,
    free_abelian_group,
    free_group,
    locally_admissible,
)


def brute_force_extendable(pattern, spec, radius):
    """Oracle: enumerate every total assignment on the ball."""
    group = spec.group
    window = ball(group, radius).sorted_elements()
    fixed = dict(pattern.assignment)
    free = [c for c in window if c not in fixed]
    for values in itertools.product(range(len(spec.alphabet)), repeat=len(free)):
        total = dict(fixed)
        total.update(zip(free, values))
        if locally_admissible(Pattern(total), spec):
            return True
    return False


@pytest.fixture(scope="session")
def f2():
    return free_group(2)


@pytest.fixture(scope="session")
def z2():
    return free_abelian_group(2)


@pytest.fixture(scope="session")
def z():
    # Z with a single generator named a (and its inverse)
    return FreeAbelianGroup(1, names=["a"])


@pytest.fixture(scope="session")
def bs12():
    return bs_group(2)


@pytest.fixture(scope="session")
def z4_rewriting():
    """Z presented on the generating set {A=a^2, A^-1, a, a^-1}."""
    return RewritingGroup(
        ["A", "A^-1", "a", "a^-1"],
        [
            ("a a", "A"),
            ("a^-1 a^-1", "A^-1"),
            ("a A", "A a"),
            ("a^-1 A^-1", "A^-1 a^-1"),
            ("a A^-1", "a^-1"),
            ("A^-1 a", "a^-1"),
            ("a^-1 A", "a"),
            ("A a^-1", "a"),
        ],
    )


@pytest.fixture(scope="session")
def z2xz2():
    return direct_product(cyclic_group(2), FreeAbelianGroup(1, names=["a"]))
