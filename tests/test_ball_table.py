"""The integer ball table against the key-arithmetic oracles of conftest.

Every group is built fresh inside the test, so each scan meets a table grown
only by that test (an outer shell with open rows, a budget-capped margin)
instead of whatever earlier tests left behind.
"""

import itertools
import random

import pytest

from groupshift import (
    BallBudgetError,
    FreeAbelianGroup,
    Pattern,
    RewritingGroup,
    ball,
    bs_group,
    cayley,
    cyclic_group,
    direct_product,
    free_abelian_group,
    free_group,
    free_product,
    greedy_delone_configuration,
)
from groupshift.cayley import (
    UNKNOWN,
    BallTable,
    distance_from_identity,
    translated_ball_cells,
)
from groupshift.families import DeloneFamily

from .conftest import (
    Z_A_A2_RULES,
    oracle_ball,
    oracle_component,
    oracle_delone_cover,
    oracle_delone_guard,
    oracle_delone_linking,
    oracle_edges,
    oracle_greedy_delone,
    oracle_translated_ball_cells,
)

GROUPS = {
    "z": lambda: FreeAbelianGroup(1, names=["a"]),
    "z2": lambda: free_abelian_group(2),
    "f2": lambda: free_group(2),
    "bs12": lambda: bs_group(2),
    # Z/4 = <a | a^4> as a rewriting system (a finite group the table covers)
    "rw_c4": lambda: RewritingGroup(["a", "a^-1"], [("a a a", "a^-1"),
                                                    ("a^-1 a^-1", "a a")]),
    "c2xz": lambda: direct_product(cyclic_group(2), FreeAbelianGroup(1, names=["a"])),
    "c2*c3": lambda: free_product(cyclic_group(2), cyclic_group(3)),
    # Z on the generating set {A = a^2, a}
    "z_a_a2": lambda: RewritingGroup(["A", "A^-1", "a", "a^-1"], Z_A_A2_RULES),
}
# (n, radius) pairs of the greedy differentials; on F2 the oracle needs ~8 s
# for n = 2 (radius >= 8), so F2 n = 2 is left to the admissibility tests
GREEDY_CASES = {kind: [(1, 4), (1, 5), (2, 8)] for kind in GROUPS}
GREEDY_CASES["f2"] = [(1, 4), (1, 5), (1, 6)]


def check_table(table: BallTable) -> None:
    """Every computed entry is the index of the product (-1 exactly when the
    product is outside the table), rows below the outer shell are complete,
    an open entry of the outer shell never leads inward, and shells are the
    prefix ranges of a fresh BFS."""
    group = table.group
    fresh = oracle_ball(group, table.radius)
    inner = table.starts[table.radius]
    assert len(table.elements) == len(fresh)
    assert all(table.starts[r] < table.starts[r + 1] for r in range(table.radius + 1))
    for i, e in enumerate(table.elements):
        assert table.index[e] == i
        assert table.shell(i) == fresh[e]
        for c, j in enumerate(table.nbr[i]):
            f = group.multiply_letter(e, c + 1)
            if j == UNKNOWN:
                assert not table.full and i >= inner
                assert table.index.get(f, inner) >= inner
            else:
                assert j == table.index.get(f, -1)
                assert j >= 0 or i >= inner


@pytest.mark.parametrize("kind", GROUPS)
def test_table_invariants(kind):
    group = GROUPS[kind]()
    b = ball(group, 4)
    check_table(b.table)
    assert b.distances == oracle_ball(group, 4)
    assert ball(group, 2).distances == oracle_ball(group, 2)
    # open entries of the outer shell are filled by a walk and stay exact
    table = b.table
    with table.lock:
        for i in range(table.starts[-2], min(table.starts[-1], table.starts[-2] + 20)):
            list(table.walk(i, 2))
    check_table(table)


@pytest.mark.parametrize("kind", GROUPS)
def test_edges_translates_and_components_match_oracle(kind):
    group = GROUPS[kind]()
    for n in (3, 2, 4):   # the table's outer shell first, then inner views
        assert ball(group, n).edges == oracle_edges(group, n)
    rng = random.Random(kind)
    words = [tuple(rng.choice(group.nonidentity_ids) for _ in range(rng.randrange(9)))
             for _ in range(6)]
    for w in words:       # centers inside, on the border of, and outside the table
        center = group.element(w)
        assert translated_ball_cells(group, center, 3) == \
            oracle_translated_ball_cells(group, center, 3)
    dist = oracle_ball(group, 4)
    for cut in (0, 1):
        punctured = {e for e, d in dist.items() if d > cut}
        table = ball(group, 4).table
        for start in sorted(punctured, key=group.shortlex_key)[::5]:
            with table.lock:
                got = set(itertools.chain.from_iterable(table.walk(
                    table.index[start], within={table.index[e] for e in punctured})))
            assert {table.elements[v] for v in got} == \
                oracle_component(group, punctured, start)


def _corruptions(group, x: Pattern, rng: random.Random, count: int) -> list[Pattern]:
    """Seeded edits of a greedy output: changed values, cut-out cells and a
    small pattern around a random cell."""
    cells = list(x.assignment)
    out = []
    for k in range(count):
        a = dict(x.assignment)
        for c in rng.sample(cells, min(len(cells), 1 + k % 3)):
            if k % 2:
                del a[c]
            else:
                a[c] = rng.choice([v for v in (0, 1, 2) if v != a[c]])
        out.append(Pattern(a))
    for c in rng.sample(cells, min(len(cells), 3)):
        near = [group.multiply_letter(c, s) for s in group.nonidentity_ids]
        out.append(Pattern({c: 1, **{f: rng.choice((0, 1, 2)) for f in near}}))
    return out


def _three_checks(group, n, x):
    family = DeloneFamily(n)
    table = ball(group, n).table
    with table.lock:
        nodes = {table.node(c): v for c, v in x.items()}
        return (family._violates_guard(group, x),
                family._violates_cover(group, x, table, nodes),
                family._violates_linking(table, nodes))


@pytest.mark.parametrize("kind", GROUPS)
def test_greedy_and_violates_match_oracle(kind):
    group = GROUPS[kind]()
    rng = random.Random(f"delone:{kind}")
    for n, radius in GREEDY_CASES[kind]:
        got = greedy_delone_configuration(group, n, radius)
        want = oracle_greedy_delone(group, n, radius)
        assert got.assignment == want.assignment, (kind, n, radius)
        for x in [got] + _corruptions(group, got, rng, 12):
            assert _three_checks(group, n, x) == (
                oracle_delone_guard(group, n, x), oracle_delone_cover(group, n, x),
                oracle_delone_linking(group, x)), (kind, n, radius)
            assert DeloneFamily(n).violates(group, x) == any(_three_checks(group, n, x))


def test_budget_capped_margin_matches_oracle(monkeypatch):
    """F2 n=1 r=4 wants the margin table B_5 (161 + 324 elements); with a
    budget-capped table the walk continues beyond it by key arithmetic."""
    group = free_group(2)
    ball(group, 4)
    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 300)
    with pytest.raises(BallBudgetError):
        ball(group, 5)
    table = ball(group, 4).table
    got = greedy_delone_configuration(group, 1, 4)
    assert table.radius == 4
    assert got.assignment == oracle_greedy_delone(group, 1, 4).assignment


def test_geodesic_leaving_the_window_needs_the_margin(monkeypatch):
    """In BS(1,2) some geodesics between cells of B_4 leave B_4, so the
    greedy scan must walk out of the window: confining its walk to the
    window (margin 0) changes the output."""
    want = oracle_greedy_delone(bs_group(2), 1, 4).assignment
    assert greedy_delone_configuration(bs_group(2), 1, 4).assignment == want

    real_walk = BallTable.walk

    def margin_zero(self, start, depth=None, limit=None, within=None):
        return real_walk(self, start, depth, within=set(range(self.size(4))))

    monkeypatch.setattr(BallTable, "walk", margin_zero)
    assert greedy_delone_configuration(bs_group(2), 1, 4).assignment != want


def test_budget_error_leaves_the_cache_whole(monkeypatch):
    """A BallBudgetError used to leave its partial shell in the cache, and a
    later call took the empty frontier for a finite group."""
    f2 = free_group(2)
    ball(f2, 3)
    with monkeypatch.context() as m, pytest.raises(BallBudgetError):
        m.setattr(cayley, "DEFAULT_BALL_BUDGET", 500)
        ball(f2, 6)
    assert len(ball(f2, 6)) == 1457
    check_table(ball(f2, 6).table)


def test_overrun_is_not_retried(monkeypatch):
    """A growth that overran its budget is remembered with that budget: the
    same or a smaller budget fails again without a group product, and a
    raised budget grows again.  F2 has |B_4| = 161, |B_5| = 485 and
    |B_6| = 1457."""
    f2 = free_group(2)
    calls = []
    real = f2.key_append
    monkeypatch.setattr(f2, "key_append",
                        lambda key, s: calls.append(s) or real(key, s))
    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 300)
    with pytest.raises(BallBudgetError):
        ball(f2, 6)
    table = ball(f2, 0).table
    assert table.radius == 4 and calls      # shells below the overrun grew
    calls.clear()
    for n in (5, 6, 9):
        with pytest.raises(BallBudgetError, match="at radius 5"):
            ball(f2, n)
    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 200)
    with pytest.raises(BallBudgetError):
        ball(f2, 5)
    assert calls == [] and len(ball(f2, 4)) == 161 and calls == []

    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 500)
    assert len(ball(f2, 5)) == 485 and calls
    with pytest.raises(BallBudgetError):
        ball(f2, 6)
    calls.clear()
    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 300)
    assert len(ball(f2, 5)) == 485       # held in the table: no growth needed
    with pytest.raises(BallBudgetError):
        ball(f2, 6)
    assert calls == []
    check_table(ball(f2, 5).table)


# distances pinned from the key-arithmetic BFS the table replaced
BS_DISTANCES = {"a b a^-1 a^-1 b^-1": 0, "a a a a": 4, "b a b^-1": 3,
                "b^-1 a b": 2, "a^5": 5, "b b a b^-1 b^-1": 5, "a^-7": 6,
                "a^9 b": 8, "b^-2 a^3 b^2": 7}
Z_A_A2_DISTANCES = {"a": 1, "a a": 1, "a a a": 2, "A A a": 3, "a^-5": 3,
                    "A^-3 a": 3, "A^7 a^-1": 7, "a^13": 7}


@pytest.mark.parametrize("kind,pins", [("bs12", BS_DISTANCES),
                                       ("z_a_a2", Z_A_A2_DISTANCES)])
def test_distance_from_identity_pinned(kind, pins):
    group = GROUPS[kind]()
    for word, d in pins.items():
        e = group.element(group.parse_word(word))
        assert distance_from_identity(group, e) == d
        assert oracle_ball(group, d).get(e) == d
