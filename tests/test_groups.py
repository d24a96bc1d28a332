"""Canonical forms and word-problem solvers across the group kinds."""

import copy
import itertools

import pytest
from hypothesis import given, strategies as st

from groupshift import (
    MalformedInputError,
    UndeterminedError,
    canonical_form,
    cyclic_group,
    free_group,
    free_product,
    solve_word_problem,
)
from groupshift import groups
from groupshift.groups import Element, RewritingGroup

from .conftest import CHECKS, KINDS, oracle_ball, oracle_normal_form
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
    nf = g.key_letters(ku)
    assert nf == oracle_normal_form(rules, u)
    key = ku
    for letter in v:
        key = g.key_append(key, letter)
    assert key == g.key_multiply(ku, kv)
    assert g.key_inverse(g.key_inverse(ku)) == ku
    assert g.key_multiply(ku, g.key_inverse(ku)) == g.identity_key()
    assert CLOSED_FORM[name](nf) == CLOSED_FORM[name](u)
    # the frame key is the normal form of the inverse: a left multiplication
    # by s appends s^-1 to it
    s = data.draw(st.integers(0, len(g.generators) - 1))
    lkey = g.frame_of_element(g.element(u))
    assert lkey.letters() == oracle_normal_form(rules, g.inverse_word(u))
    assert (g.frame_prepend(s, lkey).letters()
            == oracle_normal_form(rules, g.inverse_word((s,) + u)))


def test_rewriting_left_action_is_an_append(monkeypatch):
    """Prepending a letter to a deep frame key rewrites only at its top: on
    Z through A -> 2, a -> 1, the frame key of A^500 a takes an a on the left
    within a budget of four rewrites."""
    g = KINDS["z_a_a2"]()
    a, = g.parse_word("a")
    word = g.parse_word("A^500 a")
    lkey = g.frame_of_element(g.element(word))
    expected = g.frame_of_element(g.element((a,) + word))
    monkeypatch.setattr(groups, "DEFAULT_REWRITE_BUDGET", 4)
    frame = g.frame_prepend(a, lkey)
    assert frame == expected and frame.length == 501


def test_rewriting_budget(monkeypatch):
    g = RewritingGroup(["a", "a^-1"], [])
    monkeypatch.setattr(groups, "DEFAULT_REWRITE_BUDGET", 2)
    with pytest.raises(UndeterminedError, match="rewriting did not reach a normal form"):
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


# -- one property suite over every kind ---------------------------------------

LAWS = {name: make() for name, make in KINDS.items()}
GEODESIC = {"z", "z2", "f2", "c2xz", "c2*c3", "s3"}


def words(g, max_size=12):
    """Words over g's letters, the identity letter included."""
    return st.lists(st.integers(0, len(g.generators) - 1), max_size=max_size).map(tuple)


@pytest.mark.parametrize("name", LAWS)
@CHECKS
@given(data=st.data())
def test_key_algebra_laws(name, data):
    """Associativity, inverses, key_append against key_multiply, and the word
    problem against key equality."""
    g = LAWS[name]
    u, v, w = (data.draw(words(g)) for _ in range(3))
    ku, kv, kw = (g.element(x).key for x in (u, v, w))
    assert (g.key_multiply(g.key_multiply(ku, kv), kw)
            == g.key_multiply(ku, g.key_multiply(kv, kw)))
    inv = g.key_inverse(ku)
    assert g.key_multiply(ku, inv) == g.identity_key() == g.key_multiply(inv, ku)
    assert g.key_inverse(inv) == ku
    key = ku
    for letter in v:
        key = g.key_append(key, letter)
    assert key == g.key_multiply(ku, kv)
    assert solve_word_problem(g, u + g.inverse_word(v)) == (ku == kv)
    assert solve_word_problem(g, u + g.inverse_word(u))


@pytest.mark.parametrize("name", LAWS)
@CHECKS
@given(data=st.data())
def test_canonical_words_round_trip(name, data):
    g = LAWS[name]
    u, v = data.draw(words(g)), data.draw(words(g))
    e = g.element(u)
    w = g.word_of(e)
    assert 0 not in w
    assert g.element(w) == e
    assert g.canonical(w) == w == g.canonical(u)
    assert g.length_of(e) == len(w)
    if name == "z_a_a2":   # Z through A -> 2, a -> 1
        assert Z_SUM(w) == Z_SUM(u)
        assert (e == g.element(v)) == (Z_SUM(u) == Z_SUM(v))


@pytest.mark.parametrize("name", LAWS)
@CHECKS
@given(data=st.data())
def test_format_element_round_trip(name, data):
    """The display form (runs compressed to powers) parses back to the
    element."""
    g = LAWS[name]
    e = g.element(data.draw(words(g)))
    assert g.element(g.parse_word(g.format_element(e))) == e


@pytest.mark.parametrize("name", LAWS)
@CHECKS
@given(data=st.data())
def test_element_value_laws(name, data):
    """An element is the value of its key: the public constructor meets the
    identity, equal keys give equal elements with equal hashes and unequal
    keys unequal ones, an element never equals its raw key, it is immutable,
    a copy of it equals it, and its repr shows its key."""
    g = LAWS[name]
    assert Element(g.identity_key()) == g.identity
    ku, kv = (g.element(data.draw(words(g))).key for _ in range(2))
    a, b = Element(ku), g.element(g.key_letters(ku))
    assert a == b and hash(a) == hash(b) and not a != b
    assert (Element(ku) == Element(kv)) is (ku == kv)
    assert (Element(ku) != Element(kv)) is (ku != kv)
    assert a != ku and ku != a and not a == ku
    for attr in ("key", "other"):
        with pytest.raises(AttributeError):
            setattr(a, attr, kv)
    assert a.key is ku
    assert copy.copy(a) == a == copy.deepcopy(a)
    assert repr(a) == f"Element({ku!r})"


def test_direct_product_compresses_runs():
    g = LAWS["c2xz"]
    assert g.format_element(g.element(g.parse_word("a t1 a a"))) == "t1 a^3"


@pytest.mark.parametrize("name", LAWS)
def test_length_against_ball_distance(name):
    """A canonical word is never shorter than the ball distance, and is as
    long under a geodesic normal form; the rewriting Z's distances are the
    closed form ceil(|m| / 2) of its image m in Z."""
    g = LAWS[name]
    assert g.geodesic_normal_form() == (name in GEODESIC)
    for e, d in oracle_ball(g, 4).items():
        if name in GEODESIC:
            assert g.length_of(e) == d
        else:
            assert g.length_of(e) >= d
        if name == "z_a_a2":
            assert d == (abs(Z_SUM(g.word_of(e))) + 1) // 2


# the kinds whose frame key of an element is its key's word (letters, or
# free-product syllables) read backwards; the rewriting group's is the key of
# the inverse, and the others' is the key itself
REVERSED_FRAME = {"f2", "c2*c3"}


@pytest.mark.parametrize("name", LAWS)
@CHECKS
@given(data=st.data())
def test_frame_prepend_is_left_multiplication(name, data):
    """Prepending s to the frame key of u gives the frame key of the word
    s u, which frame_of_element reaches through a different, reduced letter
    sequence."""
    g = LAWS[name]
    u = data.draw(words(g))
    s = data.draw(st.integers(0, len(g.generators) - 1))
    e = g.element(u)
    frame = g.frame_of_element(e)
    if name in REVERSED_FRAME:
        assert frame.letters() == e.key.letters()[::-1]
    elif name == "z_a_a2":
        assert frame == g.inverse_element(e).key
    else:
        assert frame == e.key
    assert (g.frame_prepend(s, g.frame_of_element(e))
            == g.frame_of_element(g.element((s,) + u)))


# a word whose key is deep, and a letter that extends it without cancelling
DEEP = {"f2": ("a b", 600, "a"), "z_a_a2": ("A", 1000, "A"),
        "c2*c3": ("t1.0 t1.1", 600, "t1.0")}


@pytest.mark.parametrize("name", DEEP)
def test_deep_keys_share_structure(name):
    """Appending to a deep key pushes one node onto it, and cancelling pops
    back to the same node: a key is never copied."""
    g = KINDS[name]()
    word, power, more = DEEP[name]
    key = g.key_of_letters(g.parse_word(word) * power)
    assert key.length >= 1_000
    letter, = g.parse_word(more)
    longer = g.key_append(key, letter)
    assert longer.parent is key
    assert g.key_append(longer, g.inverse_letter(letter)) is key


@pytest.mark.parametrize("name", KINDS)
def test_frame_prepend_avoids_key_algebra(name, monkeypatch):
    """The left action is coded apart from key_append and key_multiply, the
    factors' included, so the literal-shift route of the conjugacy check
    stays an independent oracle.  (A rewriting group's left action appends
    to the inverse's key through the same `_rewrite`, called directly.)"""
    g = KINDS[name]()
    ball3 = [g.element(w) for n in range(4)
             for w in itertools.product(g.nonidentity_ids, repeat=n)]

    def forbidden(*args):
        raise AssertionError("frame_prepend used the key algebra")

    for h in (g, *getattr(g, "factors", ())):
        for op in ("key_of_letters", "key_append", "key_multiply"):
            monkeypatch.setattr(h, op, forbidden)
    for e in ball3:
        lkey = g.frame_of_element(e)
        for s in g.nonidentity_ids:
            g.frame_prepend(s, lkey)


@pytest.mark.parametrize("name", LAWS)
def test_frame_keys_injective_on_ball(name):
    """Over every word of length <= 3, prepended letter by letter, two words
    get one frame key exactly when they name one element."""
    g = LAWS[name]
    frames: dict = {}
    for n in range(4):
        for word in itertools.product(g.nonidentity_ids, repeat=n):
            lkey = g.frame_identity()
            for letter in reversed(word):
                lkey = g.frame_prepend(letter, lkey)
            frames.setdefault(g.element(word), set()).add(lkey)
    assert all(len(keys) == 1 for keys in frames.values())
    assert len(set().union(*frames.values())) == len(frames)


def test_identity_letter_vanishes(f2):
    w = (0, 1, 0, 2, 0)
    assert f2.element(w) == f2.element((1, 2))


@pytest.mark.parametrize("name", KINDS)
def test_element_ne_is_not_eq(name):
    """`!=` on elements is the negation of `==`, between equal elements built
    apart, an element and itself, and against None, its key and its word."""
    g = KINDS[name]()
    words = [w for n in range(3) for w in itertools.product(g.nonidentity_ids, repeat=n)]
    elements = [g.element(w) for w in words]
    others = [None, elements[-1].key, g.key_letters(elements[-1].key)]
    for a in elements:
        for b in elements + others:
            assert (a != b) is (not (a == b))
            assert (b != a) is (not (b == a))
    assert any(a == b and a is not b for a in elements for b in elements)
