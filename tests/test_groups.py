"""Canonical forms and word-problem solvers across the group kinds."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from groupshift import (
    MalformedInputError,
    SolverBudgetError,
    bs_group,
    canonical_form,
    cyclic_group,
    direct_product,
    free_abelian_group,
    free_group,
    free_product,
    solve_word_problem,
)
from groupshift import groups
from groupshift.groups import RewritingGroup

from .conftest import CHECKS, oracle_normal_form
from .test_ball_table import GROUPS as TABLE_GROUPS


def test_bs_paper_relation(bs12):
    # ab = ba^2 in the presentation, so "a b a^-1 a^-1 b^-1" collapses
    assert solve_word_problem(bs12, bs12.parse_word("a b a^-1 a^-1 b^-1"))
    left = canonical_form(bs12, bs12.parse_word("a b"))
    right = canonical_form(bs12, bs12.parse_word("b a a"))
    assert left == right


def test_bs_normal_form_shape(bs12):
    e = bs12.element(bs12.parse_word("b a b^-1"))
    assert bs12.format_element(e) == "b a b^-1"
    # q divisible by n collapses the conjugation
    e2 = bs12.element(bs12.parse_word("b a a b^-1"))
    assert bs12.format_element(e2) == "a"


def test_free_group_reduction(f2):
    assert canonical_form(f2, f2.parse_word("a a^-1 b")) == f2.element(f2.parse_word("b"))
    assert not solve_word_problem(f2, f2.parse_word("a b a^-1 b^-1"))


def test_abelian_commutator(z2):
    assert solve_word_problem(z2, z2.parse_word("x y x^-1 y^-1"))
    got = z2.format_element(z2.element(z2.parse_word("y x y")))
    assert got == "x y^2"


def test_finite_group_table():
    c3 = cyclic_group(3)
    w = [1, 1, 1]
    assert solve_word_problem(c3, w)
    assert not solve_word_problem(c3, [1, 1])
    with pytest.raises(MalformedInputError):
        cyclic_group(0)


def test_direct_product_components(z2xz2):
    t = z2xz2.parse_word("t1")
    a = z2xz2.parse_word("a")
    assert solve_word_problem(z2xz2, t + t)
    assert not solve_word_problem(z2xz2, t + a)
    e = z2xz2.element(t + a + t)
    assert z2xz2.format_element(e) == "a"


def test_free_product_syllables():
    fp = free_product(cyclic_group(2), cyclic_group(3))
    t, u = fp.parse_word("t1.0"), fp.parse_word("t1.1")
    assert solve_word_problem(fp, t + t)
    assert not solve_word_problem(fp, t + u + t + u)
    word = t + u + u + u + t  # middle syllable dies, then t t dies
    assert solve_word_problem(fp, word)


def test_rewriting_group_z4(z4_rewriting):
    g = z4_rewriting
    # A = a^2
    assert solve_word_problem(g, g.parse_word("A a^-1 a^-1"))
    assert not solve_word_problem(g, g.parse_word("A a^-1"))
    assert g.element(g.parse_word("a a a")) == g.element(g.parse_word("A a"))


def test_rewriting_rejects_increasing_rules():
    with pytest.raises(MalformedInputError):
        RewritingGroup(["a", "a^-1"], [("a", "a a")])


def test_rewriting_rejects_non_confluent_systems():
    names = ["a", "a^-1", "b", "b^-1"]
    # b b^-1 reduces to e by free reduction, but through b -> e to b^-1 and
    # through b -> a^-1 to a^-1 b^-1
    for rules in ([("b", "")], [("b", "a^-1")]):
        with pytest.raises(MalformedInputError, match="b b\\^-1"):
            RewritingGroup(names, rules)
    # Z^2 with one of its four commutation rules: b a a^-1 has two normal forms
    with pytest.raises(MalformedInputError, match="'a b a\\^-1' and 'b'"):
        RewritingGroup(names, [("b a", "a b")])
    # one left-hand side, two normal forms
    with pytest.raises(MalformedInputError, match="'a' and 'a\\^-1'"):
        RewritingGroup(names, [("b", "a"), ("b", "a^-1")])
    with pytest.raises(MalformedInputError, match="identity symbol"):
        RewritingGroup(names, [("a e", "a")])
    commuting = [("b a", "a b"), ("b a^-1", "a^-1 b"), ("b^-1 a", "a b^-1"),
                 ("b^-1 a^-1", "a^-1 b^-1")]
    z2 = RewritingGroup(names, commuting)
    assert z2.element(z2.parse_word("b a b^-1 a^-1")) == z2.identity


# the systems of the rewriting property: Z on {A = a^2, a}, Z/4 = <a | a^4>,
# and the rank-2 free group with free reduction only
REWRITING = {"z4_rewriting": TABLE_GROUPS["z_a_a2"](), "rw_c4": TABLE_GROUPS["rw_c4"](),
             "free": RewritingGroup(["a", "a^-1", "b", "b^-1"], [])}


def _letter_sum(g, weights):
    """The letter sum of a word over g under {display: weight}."""
    ids = {g.parse_word(name)[0]: w for name, w in weights.items()}
    return lambda word: sum(ids.get(x, 0) for x in word)


Z_SUM = _letter_sum(REWRITING["z4_rewriting"], {"A": 2, "A^-1": -2, "a": 1, "a^-1": -1})
C4_SUM = _letter_sum(REWRITING["rw_c4"], {"a": 1, "a^-1": -1})
CLOSED_FORM = {"z4_rewriting": Z_SUM, "rw_c4": lambda word: C4_SUM(word) % 4,
               "free": free_group(2).canonical}


@pytest.mark.parametrize("name", REWRITING)
@CHECKS
@given(data=st.data())
def test_rewriting_keys_match_oracle(name, data):
    g = REWRITING[name]
    rules = ([(g.parse_word(lhs), g.parse_word(rhs)) for lhs, rhs in g.user_rules]
             + [((s.id, s.inverse), ()) for s in g.generators if not s.is_identity]
             + [((0,), ())])
    word = st.lists(st.integers(0, len(g.generators) - 1), max_size=16).map(tuple)
    u, v = data.draw(word), data.draw(word)
    ku, kv = g.element(u).key, g.element(v).key
    assert ku == oracle_normal_form(rules, u)
    key = ku
    for letter in v:
        key = g.key_append(key, letter)
    assert key == g.key_multiply(ku, kv)
    assert g.key_inverse(g.key_inverse(ku)) == ku
    assert g.key_multiply(ku, g.key_inverse(ku)) == g.identity_key()
    assert CLOSED_FORM[name](ku) == CLOSED_FORM[name](u)


def test_rewriting_budget(monkeypatch):
    g = RewritingGroup(["a", "a^-1"], [])
    monkeypatch.setattr(groups, "DEFAULT_REWRITE_BUDGET", 2)
    with pytest.raises(SolverBudgetError):
        g.canonical(g.parse_word("a a^-1 " * 10))


def test_invalid_letters(f2):
    with pytest.raises(MalformedInputError):
        f2.element([99])
    with pytest.raises(MalformedInputError):
        f2.parse_word("zz")


def test_generator_involution(f2, z2, bs12):
    for g in (f2, z2, bs12):
        for sym in g.generators:
            assert g.generators[g.generators[sym.inverse].inverse].id == sym.id
        assert sum(1 for sym in g.generators if sym.is_identity) == 1


@st.composite
def random_word(draw, gens=4, max_len=12):
    letters = draw(st.lists(st.integers(1, gens), max_size=max_len))
    return tuple(letters)


@given(u=random_word(), v=random_word())
@settings(max_examples=150, deadline=None)
def test_wp_iff_equal_canonical_f2(u, v):
    f2 = free_group(2)
    product = u + f2.inverse_word(v)
    assert solve_word_problem(f2, product) == (f2.element(u) == f2.element(v))


@given(u=random_word(), v=random_word())
@settings(max_examples=150, deadline=None)
def test_wp_iff_equal_canonical_bs(u, v):
    bs = bs_group(2)
    product = u + bs.inverse_word(v)
    assert solve_word_problem(bs, product) == (bs.element(u) == bs.element(v))


@given(w=random_word())
@settings(max_examples=100, deadline=None)
def test_uu_inverse_is_identity(w):
    for g in (free_group(2), free_abelian_group(2), bs_group(2)):
        assert solve_word_problem(g, w + g.inverse_word(w))


def test_identity_letter_vanishes(f2):
    w = (0, 1, 0, 2, 0)
    assert f2.element(w) == f2.element((1, 2))
