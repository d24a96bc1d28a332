"""Pattern codings: consistency against the worked examples, completion."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from groupshift import (
    Alphabet,
    Consistent,
    Inconsistent,
    MalformedInputError,
    Pattern,
    UndeterminedError,
    bs_group,
    check_consistency,
    coding,
    coding_length,
    decidable_completion_contains,
    pattern_of,
    solve_word_problem,
    translate_pattern,
)
from groupshift.cayley import enumerate_words

BITS = Alphabet(("0", "1"))


def bs_coding(group, rows):
    return coding(BITS, [(group.parse_word(w), s) for w, s in rows])


def test_consistent_worked_example(bs12):
    c = bs_coding(bs12, [
        ("", 0), ("b", 1), ("a", 1),
        ("a b", 0), ("b a a", 0), ("b a", 1),
    ])
    res = check_consistency(bs12, c)
    assert isinstance(res, Consistent)
    assert len(res.pattern.support) == 5  # "a b" and "b a a" merge


def test_inconsistent_worked_example(bs12):
    c = bs_coding(bs12, [
        ("", 0), ("a a", 1), ("b a b^-1 a", 1),
        ("a", 1), ("b a", 1), ("a b a b^-1", 0),
    ])
    res = check_consistency(bs12, c)
    assert isinstance(res, Inconsistent)
    u, v = res.witness
    assert u == bs12.parse_word("a b a b^-1")
    assert v == bs12.parse_word("b a b^-1 a")
    # the witness really is an equal pair with clashing symbols
    assert solve_word_problem(bs12, u + bs12.inverse_word(v))


def test_empty_coding_consistent(f2):
    res = check_consistency(f2, coding(BITS, []))
    assert isinstance(res, Consistent)
    assert len(res.pattern) == 0


def test_duplicate_word_conflict(f2):
    w = f2.parse_word("a")
    res = check_consistency(f2, coding(BITS, [(w, 0), (w, 1)]))
    assert isinstance(res, Inconsistent)
    assert res.witness == (w, w)


def test_pattern_of_raises_on_conflict(f2):
    w = f2.parse_word("a")
    with pytest.raises(MalformedInputError):
        pattern_of(f2, coding(BITS, [(w, 0), (w, 1)]))


def test_coding_length():
    f = bs_group(2)
    assert coding_length(coding(BITS, [((), 0)])) == 0
    assert coding_length(coding(BITS, [(f.parse_word("a"), 1),
                                       (f.parse_word("b a"), 0)])) == 2
    assert coding_length(coding(BITS, [])) == 0


@given(st.lists(st.tuples(st.lists(st.integers(1, 4), max_size=5),
                          st.integers(0, 1)), max_size=8))
@settings(max_examples=120, deadline=None)
def test_consistency_matches_pairwise_oracle(rows):
    group = bs_group(2)
    c = coding(BITS, [(tuple(w), s) for w, s in rows])
    res = check_consistency(group, c)
    clash = any(
        s1 != s2 and solve_word_problem(group, tuple(w1) + group.inverse_word(w2))
        for (w1, s1), (w2, s2) in itertools.combinations(c.entries, 2))
    assert isinstance(res, Inconsistent) == clash
    if isinstance(res, Consistent):
        assert len(res.pattern.support) <= len(c.entries)
        distinct = len({group.element(w) for w, _ in c.entries})
        assert len(res.pattern.support) == distinct


def test_translate_pattern_roundtrip(f2):
    p = Pattern({f2.identity: 0, f2.element(f2.parse_word("a")): 1})
    g = f2.element(f2.parse_word("b"))
    q = translate_pattern(f2, p, g)
    assert {f2.format_element(e) for e in q.support} == {"b", "b a"}
    back = translate_pattern(f2, q, f2.inverse_element(g))
    assert back == p


def test_translate_identity(z2):
    p = Pattern({z2.identity: 1})
    assert translate_pattern(z2, p, z2.identity) == p


# -- the decidable completion --------------------------------------------------


def all_completions(group, base, max_len, alphabet):
    """Brute-force oracle: every completion of `base` on all words <= max_len."""
    words = list(enumerate_words(group, max_len))
    pinned = dict(base)
    free = [w for w in words if w not in pinned]
    out = []
    for values in itertools.product(range(len(alphabet)), repeat=len(free)):
        entries = dict(pinned)
        entries.update(dict(zip(free, values)))
        out.append(frozenset(entries.items()))
    return set(out)


@pytest.fixture(scope="module")
def z_enumeration(request):
    from groupshift import FreeAbelianGroup
    group = FreeAbelianGroup(1, names=["a"])
    c0 = coding(BITS, [(group.parse_word("a"), 1)])
    return group, [c0]


def test_completion_membership_true(z_enumeration):
    group, enum = z_enumeration
    query = coding(BITS, [((), 0), (group.parse_word("a"), 1),
                          (group.parse_word("a^-1"), 0)])
    assert decidable_completion_contains(group, enum, query)
    # confirmed by the brute-force completion set
    oracle = all_completions(group, dict(enum[0].entries), 1, BITS)
    assert frozenset(query.entries) in oracle


def test_completion_rejects_a_repeated_word(z_enumeration):
    # the member of test_completion_membership_true with "a" listed twice
    group, enum = z_enumeration
    a = group.parse_word("a")
    query = coding(BITS, [((), 0), (a, 1), (group.parse_word("a^-1"), 0), (a, 1)])
    assert query.words().count(a) == 2
    assert not decidable_completion_contains(group, enum, query)


def test_completion_rejects_long_query(z_enumeration):
    group, enum = z_enumeration
    query = coding(BITS, [((), 0), (group.parse_word("a"), 1),
                          (group.parse_word("a^-1"), 0),
                          (group.parse_word("a a"), 1)])
    assert not decidable_completion_contains(group, enum, query)


def test_completion_rejects_partial(z_enumeration):
    group, enum = z_enumeration
    assert not decidable_completion_contains(group, enum, enum[0])


def test_completion_exhaustive_small_codings(z_enumeration):
    """Exhaustive agreement with the brute-force set, all codings |c| <= 1."""
    group, enum = z_enumeration
    oracle = all_completions(group, dict(enum[0].entries), 1, BITS)
    words = list(enumerate_words(group, 1))
    # every subset of words, every assignment of symbols
    for r in range(len(words) + 1):
        for subset in itertools.combinations(words, r):
            for values in itertools.product((0, 1), repeat=r):
                c = coding(BITS, list(zip(subset, values)))
                expected = frozenset(c.entries) in oracle
                assert decidable_completion_contains(group, enum, c) == expected


def test_completion_budget_on_stalled_provider(z_enumeration):
    group, enum = z_enumeration

    def provider(_n):
        return enum[0]  # constant-length forever

    # same length as every c_n but never a completion: undecided, not rejected
    query = coding(BITS, [(group.parse_word("a"), 0)])
    with pytest.raises(UndeterminedError, match="completion undecided after 25"):
        decidable_completion_contains(group, provider, query, budget=25)
