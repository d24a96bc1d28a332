"""Windowed admissibility, extendability and the closure operations."""

import itertools
import random

import pytest
from .conftest import (
    CHECKS,
    GROUPS,
    KINDS,
    MAX_RADIUS,
    brute_force_extendable,
    brute_force_factor,
    finite_specs,
    oracle_check_symbols,
    oracle_violates,
)
from hypothesis import given, strategies as st

from groupshift import (
    Alphabet,
    BlockCode,
    FiniteFamily,
    FreeAbelianGroup,
    MalformedInputError,
    Pattern,
    SubshiftSpec,
    UndeterminedError,
    apply_block_code,
    ball,
    builtin_amenable_witness,
    builtin_delone,
    builtin_mirror,
    builtin_one_or_less,
    extendable,
    factor_window_admissible,
    identity_block_code,
    intersect,
    locally_admissible,
    projective_window_admissible,
    translate_pattern,
    subshifts,
    union_window_admissible,
)

BITS = Alphabet(("0", "1"))


@pytest.fixture(scope="module")
def zline():
    return FreeAbelianGroup(1, names=["a"])


def cells(group, *words):
    return [group.element(group.parse_word(w)) for w in words]


def z_sft(group, *forbidden_words):
    """An SFT on the line forbidding the given 0/1 strings."""
    pats = []
    for s in forbidden_words:
        assignment = {}
        for i, ch in enumerate(s):
            assignment[group.element((1,) * i)] = int(ch)
        pats.append(Pattern(assignment))
    return SubshiftSpec(BITS, group, FiniteFamily(tuple(pats)))


def test_one_or_less_examples(z2):
    spec = builtin_one_or_less(z2, 1)
    two_ones = Pattern({z2.identity: 1,
                        z2.element(z2.parse_word("x")): 1})
    assert not locally_admissible(two_ones, spec)
    zeros = Pattern({e: 0 for e in ball(z2, 3).elements})
    assert locally_admissible(zeros, spec)
    single = Pattern({z2.identity: 1})
    assert extendable(single, spec, 2)


def test_one_or_less_k3(z2):
    spec = builtin_one_or_less(z2, 3)
    p = Pattern({z2.identity: 2, z2.element(z2.parse_word("y")): 3})
    assert not locally_admissible(p, spec)


def test_extendable_examples(zline):
    no11 = z_sft(zline, "11")
    gap = Pattern({zline.element(zline.parse_word("a^-1")): 1,
                   zline.element(zline.parse_word("a")): 1})
    assert extendable(gap, no11, 1)
    assert brute_force_extendable(gap, no11, 1)

    hard = z_sft(zline, "0", "11")
    one = Pattern({zline.identity: 1})
    assert not extendable(one, hard, 1)
    assert not brute_force_extendable(one, hard, 1)


def test_extendable_budget_is_loud(zline):
    spec = z_sft(zline, "11")
    with pytest.raises(UndeterminedError):
        extendable(Pattern({}), spec, 3, budget=2)


def test_extendable_monotone(zline):
    spec = z_sft(zline, "11")
    p = Pattern({zline.identity: 1})
    bigger = Pattern({zline.identity: 1,
                      zline.element(zline.parse_word("a")): 0})
    assert extendable(bigger, spec, 1) <= extendable(p, spec, 1)


def test_extendable_implies_admissible(zline):
    # the converse fails: locally fine but not completable
    hard = z_sft(zline, "0", "11")
    one = Pattern({zline.identity: 1})
    assert locally_admissible(one, hard)
    assert not extendable(one, hard, 1)


def test_admissibility_translation_invariant(z2):
    spec = builtin_one_or_less(z2, 1)
    p = Pattern({z2.identity: 1, z2.element(z2.parse_word("x y")): 1})
    for w in ("x", "y^-1", "x x"):
        q = translate_pattern(z2, p, z2.element(z2.parse_word(w)))
        assert locally_admissible(p, spec) == locally_admissible(q, spec)


def _families(group, rng):
    """(family, alphabet size, inputs): one-or-less for k = 1, 2, two random
    finite families of 2-3-cell patterns on B_2 over {0, 1}, and the mirror
    on Z^2.  The generated families ask for thousands of patterns at the
    diameter of B_3, so they get fewer inputs."""
    near = ball(group, 2).sorted_elements()
    out = [(builtin_one_or_less(group, 1).forbidden, 2, 3),
           (builtin_one_or_less(group, 2).forbidden, 3, 3)]
    for _ in range(2):
        out.append((FiniteFamily(tuple(
            Pattern({e: rng.randrange(2) for e in rng.sample(near, rng.randint(2, 3))})
            for _ in range(rng.randint(1, 3)))), 2, 40))
    if isinstance(group, FreeAbelianGroup) and group.rank == 2:
        out.append((builtin_mirror(group).forbidden, 3, 2))
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_violates_matches_oracle(kind):
    """The compiled pattern check against the uncompiled scan, on patterns of
    0-12 cells of B_3 left-translated by a random element."""
    group, rng = KINDS[kind](), random.Random(kind)
    near = ball(group, 3).sorted_elements()
    verdicts = set()
    for family, size, inputs in _families(group, rng):
        for _ in range(inputs):
            density = rng.choice((0.1, 0.3, 0.6))
            x = Pattern({c: rng.randrange(1, size) if rng.random() < density else 0
                         for c in rng.sample(near, rng.randint(0, min(12, len(near))))})
            g = group.element(tuple(rng.choice(group.nonidentity_ids)
                                    for _ in range(rng.randint(0, 6))))
            x = translate_pattern(group, x, g)
            got = family.violates(group, x)
            assert got == oracle_violates(family, group, x), (x.assignment, g)
            verdicts.add(got)
    assert verdicts == {False, True}


def _builtin_specs(group):
    """Every builtin family the group carries: one-or-less for k = 1, 2, the
    Delone family for n = 1, the mirror on Z^2 and the amenable witness on
    an infinite group."""
    specs = [builtin_one_or_less(group, 1), builtin_one_or_less(group, 2),
             builtin_delone(group, 1)]
    if isinstance(group, FreeAbelianGroup) and group.rank == 2:
        specs.append(builtin_mirror(group))
    if not group.is_finite():
        specs.append(builtin_amenable_witness(group, 1))
    return specs


def _random_pattern(group, rng, radius, size, max_cells):
    """Up to `max_cells` cells of B_radius, each nonzero with probability 0.4."""
    near = ball(group, radius).sorted_elements()
    return Pattern({c: rng.randrange(1, size) if rng.random() < 0.4 else 0
                    for c in rng.sample(near, rng.randint(0, min(max_cells, len(near))))})


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_local_admissibility_is_shift_invariant(kind):
    """locally_admissible(g x) equals locally_admissible(x) for every builtin
    family, on patterns of B_2 left-translated by a random word of length at
    most 6."""
    group, rng = KINDS[kind](), random.Random(kind)
    verdicts = set()
    for spec in _builtin_specs(group):
        for _ in range(12):
            x = _random_pattern(group, rng, 2, len(spec.alphabet), 6)
            g = group.element(tuple(rng.choice(group.nonidentity_ids)
                                    for _ in range(rng.randint(0, 6))))
            got = locally_admissible(x, spec)
            assert locally_admissible(translate_pattern(group, x, g), spec) == got, \
                (spec.forbidden, x.assignment, g)
            verdicts.add(got)
    assert verdicts == {False, True}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_extendable_is_monotone_in_the_radius(kind):
    """A pattern on B_r extendable to B_{r+1} is extendable to B_r, for
    r = 0, 1 and the families of `_families`."""
    group, rng = KINDS[kind](), random.Random(kind)
    pairs = set()
    for family, size, _ in _families(group, rng):
        spec = SubshiftSpec(Alphabet(tuple(str(i) for i in range(size))), group, family)
        for radius in (0, 1):
            for _ in range(4):
                x = _random_pattern(group, rng, radius, size, 3)
                pair = (extendable(x, spec, radius + 1), extendable(x, spec, radius))
                assert pair[0] <= pair[1], (family, x.assignment, radius)
                pairs.add(pair)
    assert (True, True) in pairs and (False, False) in pairs


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_intersect_and_union_agree_with_their_two_specs(kind):
    """On B_1: the intersection is locally admissible exactly when both specs
    are, and extendable only when both are; the windowed union is
    extendability in either.  The specs are the two-symbol families of
    `_families` and the shift with no 1."""
    group, rng = KINDS[kind](), random.Random(kind)
    specs = [SubshiftSpec(BITS, group, family)
             for family, size, _ in _families(group, rng) if size == 2]
    specs.append(SubshiftSpec(BITS, group, FiniteFamily((Pattern({group.identity: 1}),))))
    verdicts = set()
    for a, b in itertools.combinations(specs, 2):
        both = intersect(a, b)
        for _ in range(6):
            x = _random_pattern(group, rng, 1, 2, 4)
            local = (locally_admissible(x, a), locally_admissible(x, b))
            assert locally_admissible(x, both) == all(local), (x.assignment,)
            each = (extendable(x, a, 1), extendable(x, b, 1))
            assert extendable(x, both, 1) <= all(each), (x.assignment,)
            assert union_window_admissible(x, a, b, 1) == any(each), (x.assignment,)
            verdicts.add(each)
    assert len(verdicts) >= 3


def test_intersect_is_conjunction(zline):
    a = z_sft(zline, "11")
    b = z_sft(zline, "00")
    both = intersect(a, b)
    p = Pattern({zline.identity: 1, zline.element((1,)): 1})
    q = Pattern({zline.identity: 0, zline.element((1,)): 0})
    ok = Pattern({zline.identity: 0, zline.element((1,)): 1})
    for pat in (p, q, ok):
        assert locally_admissible(pat, both) == (
            locally_admissible(pat, a) and locally_admissible(pat, b))
    # X meets the full shift is X on small windows
    full = z_sft(zline)
    meet = intersect(a, full)
    for pat in (p, q, ok):
        assert locally_admissible(pat, meet) == locally_admissible(pat, a)


def test_intersect_rejects_mismatch(zline, z2):
    a = z_sft(zline, "11")
    other = builtin_one_or_less(z2, 1)
    with pytest.raises(MalformedInputError):
        intersect(a, other)


def test_union_window(zline):
    only0 = z_sft(zline, "1")
    only1 = z_sft(zline, "0")
    zero = Pattern({zline.identity: 0})
    both = Pattern({zline.identity: 0, zline.element((1,)): 1})
    assert union_window_admissible(zero, only0, only1, 1)
    assert not union_window_admissible(both, only0, only1, 1)
    assert union_window_admissible(Pattern({}), only0, only1, 1)


@pytest.mark.parametrize("budget", range(5, 10))
def test_union_answers_true_when_the_second_extends_after_an_overrun(zline, budget):
    """Forbidding 0 costs two nodes per cell of B_2 (ten in all), so the
    first search overruns; the full shift extends in five, within budget."""
    no_zero = z_sft(zline, "0")
    full = SubshiftSpec(BITS, zline, FiniteFamily(()))
    with pytest.raises(UndeterminedError):
        extendable(Pattern({}), no_zero, 2, budget)
    assert union_window_admissible(Pattern({}), no_zero, full, 2, budget)


def test_union_raises_the_first_overrun_when_the_second_fails(z2, monkeypatch):
    """The mirror shift's search on B_3 overruns a budget of 2 nodes, and a
    shift forbidding white at every cell rejects a white identity at once:
    the union raises the first search's error.  When both overrun, the
    second's propagates."""
    mirror = builtin_mirror(z2)
    white = Pattern({z2.identity: 0})
    no_white = SubshiftSpec(mirror.alphabet, z2, FiniteFamily((white,)))
    outcomes = []

    def spy(*args):
        try:
            outcomes.append(extendable(*args))
        except UndeterminedError as e:
            outcomes.append(e)
            raise
        return outcomes[-1]
    monkeypatch.setattr(subshifts, "extendable", spy)
    with pytest.raises(UndeterminedError) as info:
        union_window_admissible(white, mirror, no_white, 3, budget=2)
    assert outcomes == [info.value, False] and info.value.nodes == 3
    outcomes.clear()
    with pytest.raises(UndeterminedError) as info:
        union_window_admissible(Pattern({}), mirror, mirror, 3, budget=2)
    assert len(outcomes) == 2 and info.value is outcomes[1]


@pytest.mark.parametrize("kind", ["z", "z2"])
@CHECKS
@given(data=st.data())
def test_extendable_on_an_intersection_matches_brute_force(kind, data):
    """Two seeded finite families over one alphabet, intersected, at radius 1."""
    group = GROUPS[kind]
    a = data.draw(finite_specs(group, 3))
    b = data.draw(finite_specs(group, 3).filter(
        lambda spec: spec.alphabet == a.alphabet))
    both = intersect(a, b)
    p = small_pattern(data.draw, group, 1, len(a.alphabet))
    assert extendable(p, both, 1) == brute_force_extendable(p, both, 1)


def test_apply_block_code_identity(zline):
    code = identity_block_code(zline, 2)
    p = Pattern({zline.identity: 1, zline.element((1,)): 0})
    assert apply_block_code(p, code) == p


def test_apply_block_code_xor(zline):
    window = (zline.identity, zline.element((1,)))
    code = BlockCode(zline, window, lambda v: v[0] ^ v[1], 2, 2)
    p = Pattern({zline.element((1,) * i): b for i, b in enumerate((0, 1, 1, 0))})
    out = apply_block_code(p, code)
    got = [out[zline.element((1,) * i)] for i in range(3)]
    assert got == [1, 0, 1]
    assert len(out) == 3


def test_apply_block_code_window_too_big(zline):
    window = tuple(zline.element((1,) * i) for i in range(5))
    code = BlockCode(zline, window, lambda v: v[0], 2, 2)
    p = Pattern({zline.identity: 1})
    assert len(apply_block_code(p, code)) == 0


@st.composite
def small_subshifts(draw):
    """A subshift on a small group, and the largest radius whose ball there
    has at most five cells; the family is a random finite one, one-or-less,
    or the semantic Delone family."""
    kind = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[kind]
    family = draw(st.sampled_from(("finite", "one_or_less", "delone")))
    if family == "one_or_less":
        spec = builtin_one_or_less(group, draw(st.integers(1, 2)))
    elif family == "delone":
        spec = builtin_delone(group, 1)
    else:
        spec = draw(finite_specs(group, 4))
    return spec, MAX_RADIUS[kind]


def small_pattern(draw, group, radius, size, min_size=0):
    cells = draw(st.lists(st.sampled_from(ball(group, radius).sorted_elements()),
                          min_size=min_size, max_size=3, unique=True))
    return Pattern({e: draw(st.integers(0, size - 1)) for e in cells})


@CHECKS
@given(small_subshifts(), st.data())
def test_factor_window_identity_code(instance, data):
    spec, cap = instance
    k = len(spec.alphabet)
    radius = data.draw(st.integers(0, cap))
    p = small_pattern(data.draw, spec.group, radius, k)
    code = identity_block_code(spec.group, k)
    assert factor_window_admissible(p, spec, code, radius) == extendable(p, spec, radius)


@CHECKS
@given(small_subshifts(), st.data())
def test_factor_window_matches_brute_force(instance, data):
    """Block codes on one or two cells with random local maps; the targets
    lie in B_radius and the search window B_{radius+reach} has at most five
    cells."""
    spec, cap = instance
    group, k = spec.group, len(spec.alphabet)
    size = data.draw(st.integers(1, 2))
    radius = data.draw(st.integers(0, cap - (size - 1)))
    window = data.draw(st.lists(
        st.sampled_from(ball(group, cap - radius).sorted_elements()),
        min_size=size, max_size=size, unique=True))
    target_size = data.draw(st.integers(2, 3))
    table = {v: data.draw(st.integers(0, target_size - 1))
             for v in itertools.product(range(k), repeat=size)}
    code = BlockCode(group, tuple(window), table.__getitem__, k, target_size)
    y = small_pattern(data.draw, group, radius, target_size, min_size=1)
    assert (factor_window_admissible(y, spec, code, radius)
            == brute_force_factor(y, spec, code, radius))


@pytest.mark.parametrize("local", [lambda v: 0, lambda v: v[0]],
                         ids=["constant", "identity"])
def test_factor_target_outside_window_is_malformed(zline, local):
    code = BlockCode(zline, (zline.identity,), local, 2, 2)
    y = Pattern({zline.element((1,) * 5): 1})
    with pytest.raises(MalformedInputError):
        factor_window_admissible(y, z_sft(zline), code, 1)


def test_factor_code_must_read_the_alphabet(zline):
    code = BlockCode(zline, (zline.identity,), lambda v: v[0], 3, 3)
    with pytest.raises(MalformedInputError):
        factor_window_admissible(Pattern({zline.identity: 2}), z_sft(zline), code, 1)


@pytest.mark.parametrize("entry", [
    lambda x, spec: locally_admissible(x, spec),
    lambda x, spec: extendable(x, spec, 1),
    lambda x, spec: union_window_admissible(x, spec, spec, 1),
    lambda x, spec: projective_window_admissible(
        x, spec.group, {1: (1,), 2: (2,)}, spec, 1),
    lambda x, spec: factor_window_admissible(
        x, spec, identity_block_code(spec.group, 2), 1),
], ids=["locally_admissible", "extendable", "union", "projective", "factor"])
@pytest.mark.parametrize("symbol", [2, 7, -1])
def test_symbol_outside_alphabet_is_malformed(zline, entry, symbol):
    with pytest.raises(MalformedInputError, match="outside alphabet"):
        entry(Pattern({zline.identity: symbol}), z_sft(zline))


def test_symbol_check_matches_the_loop(zline):
    """The symbol check raises exactly when the plain loop over the values
    does, with its message, which names the first offending value."""
    cells = ball(zline, 8).sorted_elements()
    outcomes = set()
    for seed in range(400):
        rng = random.Random(seed)
        size = rng.randint(1, 4)
        odd = [-2, -1, size, size + 1, True, False, 0.5]
        spread = rng.choice((0.0, 0.05, 0.3))
        x = Pattern({c: rng.choice(odd) if rng.random() < spread else rng.randrange(size)
                     for c in rng.sample(cells, rng.randint(0, len(cells)))})
        got = []
        for check in (subshifts._check_symbols, oracle_check_symbols):
            try:
                check(x, size)
                got.append(None)
            except MalformedInputError as err:
                got.append(str(err))
        assert got[0] == got[1]
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}


def test_factor_window_budget_counts_the_whole_search(zline):
    """Two nodes place the target's preimage and two more fill the rest of
    B_1: one count of four, under one budget."""
    code = identity_block_code(zline, 2)
    y = Pattern({zline.identity: 1})
    with pytest.raises(UndeterminedError) as err:
        factor_window_admissible(y, z_sft(zline), code, 1, budget=3)
    assert err.value.nodes == 4
    assert factor_window_admissible(y, z_sft(zline), code, 1, budget=4)


@pytest.mark.parametrize("local, forbidden, targets", [
    (lambda v: 0, (), {10: 1}),
    (lambda v: v[0], ("11",), {9: 1, 10: 1}),
], ids=["constant", "identity"])
def test_factor_window_checks_targets_first(zline, local, forbidden, targets):
    """A target that cannot take its value is refuted within a few nodes,
    however many window cells precede it in shortlex order."""
    spec = z_sft(zline, *forbidden)
    code = BlockCode(zline, (zline.identity,), local, 2, 2)
    y = Pattern({zline.element((1,) * i): v for i, v in targets.items()})
    assert not factor_window_admissible(y, spec, code, 10, budget=100)
    if forbidden:
        assert not extendable(y, spec, 10, budget=100)


def test_factor_window_constant_code(zline):
    full = z_sft(zline)
    code = BlockCode(zline, (zline.identity,), lambda v: 0, 2, 2)
    y = Pattern({zline.identity: 1})
    assert not factor_window_admissible(y, full, code, 1)


def test_block_code_reach_is_the_word_metric(bs12):
    """a^4 b^-1 in BS(1,2) lies at distance 3, with a five-letter normal form."""
    cell = bs12.element(bs12.parse_word("a^4 b^-1"))
    assert BlockCode(bs12, (bs12.identity, cell), lambda v: 0, 2, 2).reach() == 3


def test_factor_code_output_outside_its_target_alphabet_is_malformed(zline):
    code = BlockCode(zline, (zline.identity,), lambda v: 5, 2, 2)
    with pytest.raises(MalformedInputError, match="outside its target alphabet"):
        factor_window_admissible(Pattern({zline.identity: 1}),
                                 builtin_one_or_less(zline, 1), code, 1)


def test_applied_code_output_outside_its_target_alphabet_is_malformed(zline):
    code = BlockCode(zline, (zline.identity,), lambda v: 5, 2, 2)
    with pytest.raises(MalformedInputError, match="maps \\(1,\\) to 5, outside"):
        apply_block_code(Pattern({zline.identity: 1}), code)


def test_factor_window_renaming(zline):
    spec = z_sft(zline, "11")
    code = identity_block_code(zline, 2)  # 0->0 ("a"), 1->1 ("b")
    y = Pattern({zline.identity: 1, zline.element((1,)): 1})
    assert not factor_window_admissible(y, spec, code, 1)


def test_projective_window(z2):
    zline = FreeAbelianGroup(1, names=["t"])
    embedding = {1: z2.parse_word("x"), 2: z2.parse_word("x^-1")}
    full = SubshiftSpec(BITS, z2, FiniteFamily(()))
    y = Pattern({zline.identity: 1, zline.element((1,)): 1})
    assert projective_window_admissible(y, zline, embedding, full, 2)

    # forbid two horizontally adjacent 1s in the plane
    forbid = Pattern({z2.identity: 1, z2.element(z2.parse_word("x")): 1})
    spec = SubshiftSpec(BITS, z2, FiniteFamily((forbid,)))
    assert not projective_window_admissible(y, zline, embedding, spec, 2)


def test_projective_identity_embedding(z2):
    embedding = {i: (i,) for i in z2.nonidentity_ids}
    spec = builtin_one_or_less(z2, 1)
    p = Pattern({z2.identity: 1})
    assert projective_window_admissible(p, z2, embedding, spec, 1) == \
        extendable(p, spec, 1)


@pytest.mark.parametrize("embedding,message", [
    ({1: (99,), 2: (2,)}, "invalid letter id 99"),
    ({1: (1,)}, "embedding misses generator id 2"),
], ids=["letter_out_of_range", "inverse_missing"])
def test_projective_embedding_is_checked(z2, embedding, message):
    zline = FreeAbelianGroup(1, names=["t"])
    spec = builtin_one_or_less(z2, 1)
    with pytest.raises(MalformedInputError, match=message):
        projective_window_admissible(Pattern({}), zline, embedding, spec, 1)


def test_block_code_commutes_with_translation(zline):
    window = (zline.identity, zline.element((1,)))
    code = BlockCode(zline, window, lambda v: v[0] ^ v[1], 2, 2)
    p = Pattern({zline.element((1,) * i): b for i, b in enumerate((0, 1, 1, 0, 1))})
    g = zline.element(zline.parse_word("a a"))
    lhs = apply_block_code(translate_pattern(zline, p, g), code)
    rhs = translate_pattern(zline, apply_block_code(p, code), g)
    assert lhs == rhs


def test_generated_family_monotone(z2):
    spec = builtin_one_or_less(z2, 1)
    small = {frozenset(p.assignment.items())
             for p in spec.forbidden.patterns_up_to(z2, 1)}
    big = {frozenset(p.assignment.items())
           for p in spec.forbidden.patterns_up_to(z2, 2)}
    assert small <= big


def test_generator_radius_budget(z2):
    spec = builtin_one_or_less(z2, 1)
    with pytest.raises(MalformedInputError, match="radius 1000 exceeds cap 64"):
        spec.forbidden.patterns_up_to(z2, 1000)


def test_generated_family_keyed_by_group(zline, z2):
    # one family object reused over a second group must regenerate its
    # patterns for that group, not hand back the first group's
    family = builtin_one_or_less(zline, 1).forbidden
    assert family.patterns_up_to(zline, 1)
    spec = SubshiftSpec(BITS, z2, family)
    two_ones = Pattern({z2.identity: 1, z2.element(z2.parse_word("y")): 1})
    assert not locally_admissible(two_ones, spec)
    assert not extendable(two_ones, spec, 1)
