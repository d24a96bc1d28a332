"""Built-in families: mirror, separated-cover configurations, witness shift."""

import pytest

from groupshift import (
    Pattern,
    UnsupportedGroupError,
    ball,
    builtin_amenable_witness,
    builtin_delone,
    builtin_mirror,
    cyclic_group,
    disjoint_ball_sequences,
    element_distance,
    greedy_delone_configuration,
    locally_admissible,
)
from groupshift.families import MIRROR_BLACK, MIRROR_RED, MIRROR_WHITE

from .conftest import KINDS, oracle_ball


def row(z2, symbols, start=0):
    return Pattern({z2.element((1,) * (start + i) if start + i >= 0 else (2,) * -(start + i)): s
                    for i, s in enumerate(symbols)})


def test_mirror_red_black_red(z2):
    spec = builtin_mirror(z2)
    assert not locally_admissible(row(z2, [MIRROR_RED, MIRROR_BLACK, MIRROR_RED]), spec)


def test_mirror_black_red_white_empty_w(z2):
    spec = builtin_mirror(z2)
    assert not locally_admissible(row(z2, [MIRROR_BLACK, MIRROR_RED, MIRROR_WHITE]), spec)


def test_mirror_reflection_schema(z2):
    spec = builtin_mirror(z2)
    # black B W red W B white, i.e. w = BW reflected as WB
    bad = row(z2, [MIRROR_BLACK, MIRROR_BLACK, MIRROR_WHITE, MIRROR_RED,
                   MIRROR_WHITE, MIRROR_BLACK, MIRROR_WHITE])
    assert not locally_admissible(bad, spec)
    # correct reflection passes
    good = row(z2, [MIRROR_BLACK, MIRROR_BLACK, MIRROR_WHITE, MIRROR_RED,
                    MIRROR_WHITE, MIRROR_BLACK, MIRROR_BLACK])
    assert locally_admissible(good, spec)


def test_mirror_vertical_rules(z2):
    spec = builtin_mirror(z2)
    up = z2.element(z2.parse_word("y"))
    assert not locally_admissible(Pattern({z2.identity: MIRROR_RED,
                                           up: MIRROR_WHITE}), spec)
    assert not locally_admissible(Pattern({z2.identity: MIRROR_BLACK,
                                           up: MIRROR_RED}), spec)
    assert locally_admissible(Pattern({z2.identity: MIRROR_RED,
                                       up: MIRROR_RED}), spec)


def test_mirror_no_red_window(z2):
    spec = builtin_mirror(z2)
    window = {e: MIRROR_WHITE for e in ball(z2, 2).elements}
    assert locally_admissible(Pattern(window), spec)


def test_mirror_wrong_group(f2):
    with pytest.raises(UnsupportedGroupError):
        builtin_mirror(f2)


# -- separated-cover configurations ------------------------------------------


def test_greedy_z_period_four(z):
    pat = greedy_delone_configuration(z, 1, 8)
    # reference period-4 layout: 1 2 0 2 repeating, centered at 0
    by_offset = {}
    for e, v in pat.items():
        w = z.word_of(e)
        offset = len(w) if (w and w[0] == 1) else -len(w)
        by_offset[offset] = v
    for offset, v in by_offset.items():
        want = {0: 1, 1: 2, 2: 0, 3: 2}[offset % 4]
        assert v == want, (offset, v)


@pytest.mark.parametrize("n,radius", [(1, 8), (2, 9)])
def test_greedy_passes_own_family(n, radius, z, z2, f2):
    for group in (z, z2, f2):
        pat = greedy_delone_configuration(group, n, max(radius, 4 * n))
        spec = builtin_delone(group, n)
        assert locally_admissible(pat, spec)


def test_greedy_separation_and_cover(z2):
    n = 1
    pat = greedy_delone_configuration(z2, n, 8)
    ones = [e for e, v in pat.items() if v == 1]
    for i, a in enumerate(ones):
        for b in ones[i + 1:]:
            assert element_distance(z2, a, b) >= 4 * n
    # interior covering: every cell within 4n-1 of a center
    for e in ball(z2, 8 - 4 * n).elements:
        assert min(element_distance(z2, e, c) for c in ones) <= 4 * n - 1


def test_delone_bullet_violations(z2):
    n = 1
    spec = builtin_delone(z2, n)
    # bullet (ii): a center with a non-2 neighbour
    x = z2.element(z2.parse_word("x"))
    assert not locally_admissible(Pattern({z2.identity: 1, x: 0}), spec)
    # bullet (iii): two centers joined by a path of 2s
    path = Pattern({z2.identity: 1, x: 2,
                    z2.element(z2.parse_word("x x")): 2,
                    z2.element(z2.parse_word("x x x")): 1})
    assert not locally_admissible(path, spec)
    # bullet (i): a full 4n-ball of 0/2s with no center
    window = {e: 0 for e in ball(z2, 4 * n).elements}
    assert not locally_admissible(Pattern(window), spec)


def test_delone_single_center_ok(z2):
    spec = builtin_delone(z2, 1)
    assignment = {}
    for e, d in ball(z2, 2).distances.items():
        assignment[e] = 1 if d == 0 else (2 if d == 1 else 0)
    assert locally_admissible(Pattern(assignment), spec)


def test_greedy_rejects_small_radius(z):
    with pytest.raises(Exception):
        greedy_delone_configuration(z, 1, 3)


# -- the witness shift ---------------------------------------------------------


def test_amenable_witness_rules(z2):
    spec = builtin_amenable_witness(z2, 1)
    gs, hs = disjoint_ball_sequences(z2, 1)
    two_twos = Pattern({z2.identity: 2, z2.element(z2.parse_word("x")): 2})
    assert not locally_admissible(two_twos, spec)

    mismatch = Pattern({z2.identity: 2, gs[1]: 0, hs[1]: 1})
    assert not locally_admissible(mismatch, spec)

    agree = {z2.identity: 2}
    for b in ball(z2, 1).elements:
        agree[z2.multiply(gs[1], b)] = 1
        agree[z2.multiply(hs[1], b)] = 1
    assert locally_admissible(Pattern(agree), spec)


def test_amenable_witness_y2_mismatch_on_bs12(bs12):
    """g_1 a and h_1 a for (g_1, h_1) = (b a, a^2 b^-1) on BS(1,2) lie at
    distance 3 from the identity, though the normal form of h_1 a = a^4 b^-1
    has five letters: a 0 and a 1 there under a 2 at e break Y2."""
    spec = builtin_amenable_witness(bs12, 1)
    gs, hs = disjoint_ball_sequences(bs12, 1)
    cell = bs12.element(bs12.parse_word("a^4 b^-1"))
    assert bs12.length_of(cell) == 5 and element_distance(bs12, bs12.identity, cell) == 3
    a = bs12.element(bs12.parse_word("a"))
    assert (bs12.multiply(gs[1], a), bs12.multiply(hs[1], a)) == (
        bs12.element(bs12.parse_word("b a a")), cell)
    bad = Pattern({bs12.identity: 2, bs12.multiply(gs[1], a): 0, cell: 1})
    assert not locally_admissible(bad, spec)


@pytest.mark.parametrize("kind", ["bs12", "z_a_a2"])
def test_amenable_witness_generates_every_y2_pattern_in_the_ball(kind):
    """patterns_up_to(r) holds every Y2 pattern {e: 2, g_n b: s, h_n b: t}
    (s != t, b in B_n) whose cells lie in B_r, with the ball from a fresh BFS."""
    group = KINDS[kind]()
    n_max = 1
    spec = builtin_amenable_witness(group, n_max)
    gs, hs = disjoint_ball_sequences(group, n_max)
    for radius in range(7):
        window = oracle_ball(group, radius)
        want = set()
        for n in range(n_max + 1):
            for b in oracle_ball(group, n):
                left, right = group.multiply(gs[n], b), group.multiply(hs[n], b)
                if {left, right} <= window.keys() and group.identity not in (left, right):
                    want |= {frozenset({(group.identity, 2), (left, s), (right, t)})
                             for s in range(3) for t in range(3) if s != t}
        got = {frozenset(p.assignment.items())
               for p in spec.forbidden.patterns_up_to(group, radius)}
        assert want <= got


def test_amenable_witness_rejects_finite():
    with pytest.raises(UnsupportedGroupError):
        builtin_amenable_witness(cyclic_group(3), 1)
