"""Balls, the word metric, enumeration order and the sequence builders."""

import itertools
import random

import pytest

from groupshift import (
    BallBudgetError,
    MalformedInputError,
    RewritingGroup,
    UnsupportedGroupError,
    ball,
    cayley,
    component_sequence,
    cyclic_group,
    disjoint_ball_sequences,
    element_distance,
    enumerate_words,
)

from .conftest import (
    KINDS,
    oracle_ball,
    oracle_component_sequence,
    oracle_disjoint_ball_sequences,
)


def brute_ball_f2(n):
    """Independent oracle: BFS over reduced strings of a rank-2 free group."""
    letters = ["a", "A", "b", "B"]
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    frontier = {""}
    seen = {""}
    for _ in range(n):
        nxt = set()
        for w in frontier:
            for l in letters:
                if w and inverse[w[-1]] == l:
                    continue
                u = w + l
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
        frontier = nxt
    return seen


def brute_ball_z2(n):
    """Independent oracle: BFS over integer vectors."""
    frontier = {(0, 0)}
    seen = {(0, 0)}
    for _ in range(n):
        nxt = set()
        for (x, y) in frontier:
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                v = (x + dx, y + dy)
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return seen


def test_ball_counts_match_brute_force(f2, z2):
    for n in range(6):
        assert len(ball(f2, n)) == len(brute_ball_f2(n)) == 2 * 3 ** n - 1
    for n in range(8):
        assert len(ball(z2, n)) == len(brute_ball_z2(n)) == 2 * n * n + 2 * n + 1


def test_ball_zero_and_closure(f2):
    b0 = ball(f2, 0)
    assert b0.elements == {f2.identity}
    assert not b0.edges
    b2 = ball(f2, 2)
    for e, d in b2.distances.items():
        if d < 2:
            for s in f2.nonidentity_ids:
                assert f2.multiply_letter(e, s) in b2


def test_ball_budget(monkeypatch):
    # a fresh group, since a shared one may hold B_9 from an earlier test
    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 100)
    with pytest.raises(BallBudgetError):
        ball(KINDS["f2"](), 9)


def test_ball_edges_consistent(z2):
    b = ball(z2, 2)
    for g, s, h in b.edges:
        assert z2.multiply_letter(g, s) == h


def test_ball_strictly_growing(f2, z2, bs12):
    for g in (f2, z2, bs12):
        sizes = [len(ball(g, n)) for n in range(6)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_word_metric(f2, bs12, z):
    def word_metric(group, word):
        return cayley.distance_from_identity(group, group.element(word))
    assert word_metric(f2, ()) == 0
    assert word_metric(f2, f2.parse_word("a a b")) == 3
    assert word_metric(bs12, bs12.parse_word("a b a^-1 a^-1 b^-1")) == 0
    # |g| = |g^-1| and triangle inequality, on random ball elements
    b = ball(bs12, 3)
    elems = b.sorted_elements()[:12]
    for e in elems:
        assert element_distance(bs12, bs12.identity, e) == \
            element_distance(bs12, bs12.identity, bs12.inverse_element(e))
    for e, f in itertools.islice(itertools.product(elems, elems), 40):
        lhs = element_distance(bs12, bs12.identity, bs12.multiply(e, f))
        assert lhs <= b.distances[e] + b.distances[f]


def test_enumerate_words_order(z):
    words = list(enumerate_words(z, 1))
    assert words == [(), (1,), (2,)]
    assert list(enumerate_words(z, 0)) == [()]


def test_enumerate_words_count(f2):
    assert sum(1 for _ in enumerate_words(f2, 2)) == 1 + 4 + 16


def test_enumerate_monotone_order(f2):
    seen = list(enumerate_words(f2, 3))
    keys = [(len(w), w) for w in seen]
    assert keys == sorted(keys)


def test_disjoint_sequences_z(z):
    gs, hs = disjoint_ball_sequences(z, 0)
    assert z.format_element(gs[0]) == "a"
    assert z.format_element(hs[0]) == "a^-1"


def _translated(group, base, k):
    return {group.multiply(base, e) for e in ball(group, k).elements}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_disjoint_sequences_exhaustive(n, z, z2, f2):
    for group in (z, z2, f2):
        gs, hs = disjoint_ball_sequences(group, n)
        family = [{group.identity}]
        family += [_translated(group, gs[k], k) for k in range(n + 1)]
        family += [_translated(group, hs[k], k) for k in range(n + 1)]
        for a, b in itertools.combinations(family, 2):
            assert not (a & b)


def test_disjoint_sequences_deterministic(z2):
    a = disjoint_ball_sequences(z2, 1)
    b = disjoint_ball_sequences(z2, 1)
    assert a == b


def test_disjoint_sequences_rejects_finite():
    with pytest.raises(UnsupportedGroupError):
        disjoint_ball_sequences(cyclic_group(5), 1)


def test_disjoint_sequences_exhaust_finite_rewriting_group():
    """C2 as a rewriting group is not known to be finite: the scan runs out
    of candidates once the table holds the whole group, and raises."""
    c2 = RewritingGroup(["a", "a^-1"], [("a a", ""), ("a^-1", "a")])
    with pytest.raises(UnsupportedGroupError):
        disjoint_ball_sequences(c2, 1)


def test_component_sequence_f2(f2):
    seq = component_sequence(f2, 0, f2.parse_word("a"), 2)
    assert len(seq) == len(set(seq)) == 3
    for e in seq:
        assert f2.word_of(e)[0] == f2.parse_word("a")[0]


def test_component_sequence_seed_only(f2):
    seq = component_sequence(f2, 0, f2.parse_word("a"), 0)
    assert seq == [f2.element(f2.parse_word("a"))]


def test_component_sequence_short_component_is_unsupported():
    """Z/4 as a rewriting system is not declared finite; the component of
    B_M minus B_0 holding a has three elements, too few for eleven."""
    c4 = RewritingGroup(["a", "a^-1"], [("a a a", "a^-1"), ("a^-1 a^-1", "a a")])
    with pytest.raises(UnsupportedGroupError,
                       match="component holds fewer than 11 reachable elements"):
        component_sequence(c4, 0, c4.parse_word("a"), 10)


def test_component_sequence_z_positive_ray(z):
    seq = component_sequence(z, 1, z.parse_word("a a"), 3)
    assert len(seq) == 4
    exps = [z.word_of(e) for e in seq]
    assert all(set(w) == {1} for w in exps)  # all on the +a side


def test_component_sequence_membership_by_bfs(z2):
    seq = component_sequence(z2, 1, z2.parse_word("x x"), 3)
    assert len(set(seq)) == 4
    # every element stays outside the cut ball
    for e in seq:
        assert element_distance(z2, z2.identity, e) > 1


def test_component_sequence_ignores_seed_spelling():
    """The ball is sized by the seed's distance from the identity, not by the
    length of the word that names it."""
    f2 = KINDS["f2"]()
    geodesic = component_sequence(f2, 1, f2.parse_word("a a"), 2)
    padded = component_sequence(f2, 1, f2.parse_word("a a b b^-1 b b^-1 b b^-1"), 2)
    assert padded == geodesic
    assert [f2.format_element(e) for e in geodesic] == ["a^2", "a^3", "a^2 b"]
    assert ball(f2, 0).table.radius == 5


def test_component_seed_inside_cut_rejected(z):
    with pytest.raises(MalformedInputError):
        component_sequence(z, 2, z.parse_word("a"), 1)


def test_negative_counts_rejected(z):
    with pytest.raises(MalformedInputError):
        disjoint_ball_sequences(z, -1)
    with pytest.raises(MalformedInputError):
        component_sequence(z, 1, z.parse_word("a a"), -1)
    with pytest.raises(MalformedInputError):
        ball(z, -1)


INFINITE_KINDS = ("z", "z2", "f2", "bs12", "z_a_a2", "c2xz", "c2*c3")


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in INFINITE_KINDS for n in (0, 1, 2)]
                         + [(kind, 3) for kind in ("z", "z2", "f2")])
def test_disjoint_sequences_match_word_scan(kind, n):
    """The table scan against the word scan, on a cold group (the table
    grows mid-scan) and on a group whose table already covers the scan."""
    cold, warm = KINDS[kind](), KINDS[kind]()
    got = disjoint_ball_sequences(cold, n)
    assert got == tuple(map(list, oracle_disjoint_ball_sequences(cold, n)))
    radius = ball(cold, 0).table.radius
    table = ball(warm, radius + 1).table
    again = disjoint_ball_sequences(warm, n)
    assert [list(map(warm.format_element, seq)) for seq in again] == \
        [list(map(cold.format_element, seq)) for seq in got]
    assert table.radius == radius + 1


@pytest.mark.parametrize("kind", ["z", "z2", "f2", "bs12"])
def test_component_sequence_matches_word_scan(kind):
    group, rng = KINDS[kind](), random.Random(kind)
    for _ in range(6):
        cut = rng.randrange(3)
        dist = oracle_ball(group, cut + 2)
        far = sorted((e for e, r in dist.items() if r > cut), key=group.shortlex_key)
        seed = group.word_of(rng.choice(far))
        count = rng.randrange(6)
        assert component_sequence(group, cut, seed, count) == \
            oracle_component_sequence(group, cut, seed, count)


def test_scans_run_out_of_budget_on_cold_group(monkeypatch):
    """A shell that exceeds the budget raises and is rolled back: the table
    keeps B_1 of F2 (5 elements), and still grows correctly afterwards."""
    scans = [lambda g: disjoint_ball_sequences(g, 2),
             lambda g: component_sequence(g, 0, g.parse_word("a"), 2)]
    for scan in scans:
        f2 = KINDS["f2"]()
        with monkeypatch.context() as m, pytest.raises(BallBudgetError):
            m.setattr(cayley, "DEFAULT_BALL_BUDGET", 10)
            scan(f2)
        table = ball(f2, 0).table
        assert (table.radius, len(table.elements)) == (1, 5)
        assert len(ball(f2, 2)) == 17


def test_dot_export(z):
    dot = ball(z, 1).to_dot()
    assert "graph cayley_ball" in dot and '"a"' in dot


def test_ball_threadsafe(f2):
    from concurrent.futures import ThreadPoolExecutor
    from groupshift import free_group
    g = free_group(2)
    with ThreadPoolExecutor(max_workers=8) as ex:
        sizes = list(ex.map(lambda n: len(ball(g, n)), [5, 6, 5, 6, 4, 6, 5, 4]))
    assert sizes == [2 * 3 ** n - 1 for n in [5, 6, 5, 6, 4, 6, 5, 4]]
