"""The compiled constraint engine against independent slow oracles.

`extendable` is compared with brute-force enumeration, `solve` with extra
placements with enumeration of every assignment, and
`verify_reduction_window` with the same search run on uncompiled
constraints (`grounded_violations`), whose witness must match exactly and
pass the full scan, on Z, Z^2, F2 and BS(1,2);
`ground`'s placements, read through each cell's watch and level shift, are
compared with anchoring every constraint by group products.  Windows stay at ten cells or fewer so the oracles finish quickly;
Hypothesis runs derandomized.
"""

import gc
import itertools
import sys
import types
import weakref
from math import comb

import pytest
from .conftest import (
    CHECKS,
    GROUPS,
    MAX_RADIUS,
    brute_force_extendable,
    finite_specs,
    window_cells,
)
from .test_machines import machine as criterion_machine
from hypothesis import assume, given, settings, strategies as st

from groupshift import (
    Alphabet,
    FiniteFamily,
    GMachineSpec,
    Pattern,
    Satisfiable,
    SubshiftSpec,
    UndeterminedError,
    Unsatisfiable,
    WindowedA1,
    ball,
    builtin_delone,
    builtin_mirror,
    builtin_one_or_less,
    compile_domino,
    extendable,
    factor_window_admissible,
    identity_block_code,
    verify_reduction_window,
)
from groupshift import constraints, domino
from groupshift.constraints import ground, solve
from groupshift.domino import grounded_violations
from groupshift.groups import FreeAbelianGroup, bs_group, free_group

ZLINE = GROUPS["z"]
SIGMA = Alphabet(("_", "1"))


@st.composite
def finite_subshifts(draw):
    """A random finite family on a small ball, and a pattern inside it."""
    kind = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[kind]
    radius = draw(st.integers(0, MAX_RADIUS[kind]))
    spec = draw(finite_specs(group, 5))
    k = len(spec.alphabet)
    window = ball(group, radius).sorted_elements()
    cells = draw(st.lists(st.sampled_from(window), max_size=3, unique=True))
    x = Pattern({e: draw(st.integers(0, k - 1)) for e in cells})
    return x, spec, radius


@CHECKS
@given(finite_subshifts())
def test_extendable_matches_brute_force(instance):
    x, spec, radius = instance
    assert extendable(x, spec, radius) == brute_force_extendable(x, spec, radius)


@st.composite
def two_state_machines(draw, group=ZLINE):
    """A random two-state machine; state 1 accepts, and a move is any
    generator id (on Z, 0/1/2 = stay/a/a^-1)."""
    delta = {(s, q): (draw(st.integers(0, 1)), draw(st.integers(0, 1)),
                      draw(st.integers(0, len(group.generators) - 1)))
             for s in range(2) for q in range(2)}
    return GMachineSpec(group, ("q0", "acc"), frozenset({1}), SIGMA, 0, delta)


def scan_search(instance, radius_g, height_z):
    """Oracle: the direct search, re-grounding every constraint through each
    newly assigned cell; the first admissible window assignment, or None."""
    cells = window_cells(instance, radius_g, height_z)
    symbols = list(instance.alphabet.symbols())
    origin = (instance.g_group.identity, 0)
    assign = {origin: tuple(instance.origin_symbol)}

    def fires(cell):
        return grounded_violations(instance.g_group, instance.constraints, assign, cell)

    if fires(origin):
        return None
    free = [c for c in cells if c not in assign]

    def search(i):
        if i == len(free):
            return True
        for sym in symbols:
            assign[free[i]] = sym
            if not fires(free[i]) and search(i + 1):
                return True
            del assign[free[i]]
        return False

    return assign if search(0) else None


def window_assignment(instance, witness):
    """A witness over the product group as a {(g, level): symbol} map."""
    product = instance.product_group()
    line = product.factors[1]
    out = {}
    for e, sym in witness.items():
        word = line.word_of(product.component(e, 1))
        out[(product.component(e, 0), word.count(1) - word.count(2))] = sym
    return out


def assert_verify_matches_scan_search(instance, radius_g, height_z):
    out = verify_reduction_window(instance, radius_g, height_z)
    expected = scan_search(instance, radius_g, height_z)
    if expected is None:
        assert isinstance(out, Unsatisfiable)
    else:
        assert isinstance(out, Satisfiable)
        assert window_assignment(instance, out.witness) == expected
        assert grounded_violations(instance.g_group, instance.constraints, expected) == []


@CHECKS
@given(two_state_machines(), st.integers(1, 2), st.integers(0, 1),
       st.integers(0, 2))
def test_verify_window_matches_scan_search(machine, a1, radius_g, height_z):
    assert_verify_matches_scan_search(compile_domino(ZLINE, machine, WindowedA1(a1)),
                                      radius_g, height_z)


BS12 = bs_group(2)


@pytest.mark.parametrize("a1", [1, 3])
@pytest.mark.parametrize("group", [GROUPS["z2"], GROUPS["f2"], BS12],
                         ids=["z2", "f2", "bs12"])
@settings(CHECKS, max_examples=5)
@given(data=st.data())
def test_verify_window_matches_scan_search_off_z(group, a1, data):
    # B_1 has five cells on each kind, so a window of two levels has ten;
    # A1 exclusions out to B_3 reach past 2 * radius_g, where they fall
    # outside the base's difference set and are dropped before grounding
    machine = data.draw(two_state_machines(group))
    assert_verify_matches_scan_search(compile_domino(group, machine, WindowedA1(a1)),
                                      1, data.draw(st.integers(0, 1)))


def z_sft(*forbidden_words):
    pats = tuple(Pattern({ZLINE.element((1,) * i): int(ch)
                          for i, ch in enumerate(w)}) for w in forbidden_words)
    return SubshiftSpec(Alphabet(("0", "1")), ZLINE, FiniteFamily(pats))


def machine(states, rules):
    delta = {(sym, q): rules.get((sym, q), (sym, q, 0))
             for sym in range(len(SIGMA)) for q in range(len(states))}
    return GMachineSpec(ZLINE, states, frozenset({len(states) - 1}), SIGMA, 0,
                        delta)


def test_extendable_node_budget_pin():
    # 18 nodes decide this instance, one node per (cell, symbol) tried
    spec = z_sft("11", "000", "1001")
    x = Pattern({ZLINE.identity: 1})
    with pytest.raises(UndeterminedError) as err:
        extendable(x, spec, 3, budget=17)
    assert err.value.nodes == 18
    assert extendable(x, spec, 3, budget=18)


@pytest.mark.parametrize("rules,nodes,verdict", [
    ({(1, 0): (1, 0, 1), (0, 0): (0, 1, 0)}, 60, Unsatisfiable),
    ({(0, 0): (0, 0, 1), (1, 0): (1, 0, 1)}, 27, Satisfiable),
])
def test_verify_window_node_budget_pin(rules, nodes, verdict):
    instance = compile_domino(ZLINE, machine(("walk", "acc"), rules),
                              WindowedA1(3))
    with pytest.raises(UndeterminedError) as err:
        verify_reduction_window(instance, 2, 3, budget=nodes - 1)
    assert err.value.nodes == nodes
    assert isinstance(verify_reduction_window(instance, 2, 3, budget=nodes),
                      verdict)


def test_empty_forbidden_pattern_always_fires():
    spec = SubshiftSpec(Alphabet(("0", "1")), ZLINE,
                        FiniteFamily((Pattern({}),)))
    for radius in (0, 2):
        assert not extendable(Pattern({}), spec, radius)
        assert not brute_force_extendable(Pattern({}), spec, radius)
    window = ground(ZLINE, [ZLINE.identity], [[]])
    assert solve(window, {}, 2, budget=10) is None


def test_compiled_window_cached_per_group_and_radius():
    spec = z_sft("11")
    family = spec.forbidden
    assert family.compiled_window(ZLINE, 2) is family.compiled_window(ZLINE, 2)
    assert family.compiled_window(ZLINE, 1) is not family.compiled_window(ZLINE, 2)
    z2 = GROUPS["z2"]
    assert family.compiled_window(z2, 2).base == tuple(ball(z2, 2).sorted_elements())


def test_family_memo_lives_as_long_as_its_group():
    # one generated family searched on 50 fresh groups: its compiled balls
    # and pattern lists, memoized per group, go when their groups do
    spec = builtin_one_or_less(free_group(2))
    family = spec.forbidden
    groups = []
    for _ in range(50):
        group = free_group(2)
        assert extendable(Pattern({group.identity: 1}), SubshiftSpec(
            spec.alphabet, group, family), 2)
        assert family.patterns_up_to(group, 4) is family.patterns_up_to(group, 4)
        groups.append(weakref.ref(group))
    del group
    gc.collect()
    assert sum(g() is not None for g in groups) == 0


def test_placement_completed_after_its_fixed_cells():
    # both "11" placements through e have their last window cell fixed, so
    # they are complete only once the search assigns e
    spec = z_sft("0", "11")
    a, a_inv = ZLINE.element((1,)), ZLINE.element((2,))
    x = Pattern({a: 1, a_inv: 1})
    assert not extendable(x, spec, 1)
    assert not brute_force_extendable(x, spec, 1)


@pytest.mark.parametrize("ones", [(), (0,), (0, 2), (0, 3)])
def test_semantic_family_rechecks_total_assignment(ones):
    # two 1s at distance 2 are linked through the 2 each must sit next to;
    # only the Delone family's symbolic check sees that
    spec = builtin_delone(ZLINE, 1)
    x = Pattern({ZLINE.element((1,) * i): 1 for i in ones})
    expected = brute_force_extendable(x, spec, 3)
    assert extendable(x, spec, 3) == expected
    code = identity_block_code(ZLINE, 3)
    assert factor_window_admissible(x, spec, code, 3) == expected


def _buckets(window):
    return [bucket for row in window.watch for _, bucket in row]


def grounded_window(monkeypatch, instance, radius_g, height_z):
    """The window `verify_reduction_window` grounds and searches, as
    `ground` returns it."""
    windows = []
    monkeypatch.setattr(domino, "ground", lambda *args: windows.append(ground(*args))
                        or windows[-1])
    verify_reduction_window(instance, radius_g, height_z)
    monkeypatch.undo()
    assert len(windows) == 1
    return windows[0]


def absolute_placements(window):
    """Every placement of a compiled window as the set of its absolute
    (cell index, allowed) pairs, each rest cell j read at j plus its watch
    level times the width; the watch must be the placement's last cell."""
    out = set()
    for w, row in enumerate(window.watch):
        shift = w - w % window.width
        for a, bucket in row:
            for rest in bucket:
                cells = [(j + shift, b) for j, b in rest]
                assert all(0 <= j <= w for j, _ in cells)
                out.add(frozenset([(w, a), *cells]))
    return out


@pytest.mark.parametrize("kind,k,radius", [("f2", 1, 2), ("z2", 2, 3)])
def test_one_or_less_files_each_placement_once(kind, k, radius):
    # two cells with nonzero symbols: one placement per unordered pair of
    # cells, although the family lists both orders and every pair of
    # symbols (those sharing a pair of offsets merge into one)
    group = GROUPS[kind]
    window = builtin_one_or_less(group, k).forbidden.compiled_window(group, radius)
    placements = sum(len(bucket) for bucket in _buckets(window))
    assert placements == comb(len(ball(group, radius)), 2)


def test_no_watch_bucket_repeats_a_rest(monkeypatch):
    z2 = GROUPS["z2"]
    windows = [builtin_one_or_less(z2, 2).forbidden.compiled_window(z2, 2),
               builtin_mirror(z2).forbidden.compiled_window(z2, 2),
               builtin_delone(ZLINE, 1).forbidden.compiled_window(ZLINE, 3)]
    # the domino window, whose A1 exclusions list each pair of cells twice
    rules = {(0, 0): (0, 0, 1), (1, 0): (1, 0, 1)}
    windows.append(grounded_window(
        monkeypatch, compile_domino(ZLINE, machine(("walk", "acc"), rules), WindowedA1(8)),
        4, 6))
    for window in windows:
        for bucket in _buckets(window):
            assert len(set(bucket)) == len(bucket)


@pytest.mark.parametrize("rules", [
    {(1, 0): (1, 0, 1), (0, 0): (0, 1, 0)},
    {(0, 0): (0, 0, 1), (1, 0): (1, 0, 1)},
])
def test_domino_window_merges_same_offset_constraints(monkeypatch, rules):
    # criterion 12's radius-4, height-6 windows: A2 and B1 share their
    # offsets, and so do the B2 rules of one entry, so each such group
    # grounds as one merged constraint (2,287 and 2,275 placements unmerged);
    # a placement is counted on every level its watch tuple serves
    z = FreeAbelianGroup(1, names=["a"])
    instance = compile_domino(z, criterion_machine(z, ("walk", "acc"), {1}, rules),
                              WindowedA1(8))
    assert len(instance.constraints) == 53
    window = grounded_window(monkeypatch, instance, 4, 6)
    assert sum(len(bucket) for bucket in _buckets(window)) == 799
    assert len(absolute_placements(window)) == 799


@pytest.mark.parametrize("kind", ["z2", "f2"])
def test_domino_window_drops_offsets_out_of_reach(monkeypatch, kind):
    # criterion 12's move_right with A1 exclusions out to B_8, on B_3 x [0, 4]:
    # a G offset longer than 2 * 3 is not c^-1 * c' for two cells of B_3, so
    # its constraint is dropped before grounding (on F2, 13,120 A1
    # constraints would otherwise each be multiplied through B_3), while
    # every offset up to 6 is placed
    group = GROUPS[kind]
    move_right = criterion_machine(group, ("walk", "acc"), {1},
                                   {(1, 0): (1, 0, 1), (0, 0): (0, 1, 0)})
    instance = compile_domino(group, move_right, WindowedA1(8))
    assert isinstance(verify_reduction_window(instance, 3, 4), Unsatisfiable)
    window = grounded_window(monkeypatch, instance, 3, 4)
    base = list(window.base)
    assert base == ball(group, 3).sorted_elements()
    longest = max(group.length_of(group.multiply(group.inverse_element(base[j % len(base)]),
                                                 base[k % len(base)]))
                  for placement in absolute_placements(window)
                  for j, _ in placement for k, _ in placement)
    assert longest == 6


@pytest.mark.parametrize("kind", ["z", "z2", "f2", "bs12"])
@settings(CHECKS, max_examples=30)
@given(data=st.data())
def test_ground_matches_brute_force_anchoring(kind, data):
    # windows of B_0 or B_1 on one or two levels (at most ten cells) and
    # constraints with G parts out to B_2, some of which fit nowhere: the
    # placements each cell's watch implies are the anchorings of every
    # constraint at every window cell, by group products, wholly inside
    group = BS12 if kind == "bs12" else GROUPS[kind]
    base = ball(group, data.draw(st.integers(0, 1))).sorted_elements()
    levels = data.draw(st.integers(1, 2))
    cells = [(g, z) for z in range(levels) for g in base]
    near = ball(group, 2).sorted_elements()
    allowed = st.frozensets(st.integers(0, 2), min_size=1)
    cons, seen = [], set()
    for _ in range(data.draw(st.integers(1, 4))):
        gs = data.draw(st.lists(st.sampled_from(near), min_size=1, max_size=3, unique=True))
        con = [(g, data.draw(st.integers(0, 1)), data.draw(allowed)) for g in gs]
        # constraints sharing their offsets would merge into one
        offsets = tuple((group.multiply(group.inverse_element(gs[0]), g), z - con[0][1])
                        for g, z, _ in con)
        if offsets not in seen:
            seen.add(offsets)
            cons.append(con)
    index = {c: j for j, c in enumerate(cells)}
    expected = set()
    for con in cons:
        g0, z0, _ = con[0]
        for c, z in cells:
            at = [(index.get((group.multiply(c, group.multiply(group.inverse_element(g0), g)),
                              z + dz - z0)), a) for g, dz, a in con]
            if all(j is not None for j, _ in at):
                expected.add(frozenset(at))
    window = ground(group, base, cons, levels)
    assert window.base == tuple(base) and window.width == len(base)
    assert window.levels == levels
    assert absolute_placements(window) == expected


def test_sparse_family_grounds_per_offset(monkeypatch):
    # one two-cell pattern on B_10 of Z^2 (221 cells): each of its two
    # offsets is moved through the base, 221 products apiece, and the
    # 221^2 differences of the base are never built
    z2 = FreeAbelianGroup(2)
    a = z2.element((1,))
    spec = SubshiftSpec(Alphabet(("0", "1")), z2,
                        FiniteFamily((Pattern({z2.identity: 1, a: 1}),)))
    size = len(ball(z2, 10))
    multiply = z2.multiply
    calls = []
    monkeypatch.setattr(z2, "multiply", lambda g, h: calls.append(1) or multiply(g, h))
    window = spec.forbidden.compiled_window(z2, 10)
    assert size == 221 and len(calls) <= 2 * size + 2
    assert sum(len(bucket) for bucket in _buckets(window)) == size - 21


def test_verify_window_grounds_each_g_offset_once(monkeypatch):
    # the G part of an offset is multiplied through the base ball once and
    # placed on every level by arithmetic, so the height costs no product
    instance = compile_domino(ZLINE, machine(("walk", "acc"), {(0, 0): (0, 0, 1)}),
                              WindowedA1(3))
    verify_reduction_window(instance, 2, 3)  # grows the ball
    multiply = ZLINE.multiply
    calls = []
    monkeypatch.setattr(ZLINE, "multiply",
                        lambda a, b: calls.append(1) or multiply(a, b))
    counts = []
    for height in (3, 6):
        calls.clear()
        verify_reduction_window(instance, 2, height)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@st.composite
def small_windows(draw):
    """Cells 0..n-1 (n <= 6), levels of `width` cells each, shifted by
    (x, z) offsets; random constraints, extra placements and fixed cells
    over two or three symbols."""
    width = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 6 // width))
    n = width * levels
    k = draw(st.integers(2, 3))
    allowed = st.frozensets(st.integers(0, k - 1), min_size=1)
    offset = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
    constraints = draw(st.lists(st.lists(st.tuples(offset, allowed),
                                         min_size=1, max_size=3), max_size=4))
    placements = draw(st.lists(st.lists(st.tuples(st.integers(0, n - 1), allowed),
                                        min_size=1, max_size=3).map(tuple),
                               max_size=4))
    fixed = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, k - 1),
                                 max_size=3))
    return width, levels, k, constraints, placements, fixed


def plane_window(width, levels, constraints):
    """`ground` of (x, z) offsets on `levels` levels of the cells a^0 ..
    a^(width-1) of Z, window cell z * width + x holding (a^x, z)."""
    def power(x):
        return ZLINE.element((1,) * x if x >= 0 else (2,) * -x)
    return ground(ZLINE, [power(x) for x in range(width)],
                  [[(power(x), z, a) for (x, z), a in con] for con in constraints], levels)


@CHECKS
@given(small_windows())
def test_solve_with_placements_matches_enumeration(instance):
    width, levels, k, constraints, placements, fixed = instance
    n = width * levels
    window = plane_window(width, levels, constraints)
    # a constraint is anchored at its first cell, which runs over the window
    anchored = [[((dx - con[0][0][0], dz - con[0][0][1]), a) for (dx, dz), a in con]
                for con in constraints]
    grounded = [tuple(((z + dz) * width + x + dx, a) for (dx, dz), a in con)
                for con in anchored for z in range(levels) for x in range(width)
                if all(0 <= x + dx < width and 0 <= z + dz < levels
                       for (dx, dz), _ in con)]

    def fires(val, placement):
        return all(val[j] in a for j, a in placement)

    # the search fills cells in window order, symbols in order: the first
    # admissible assignment is the least in lexicographic order
    expected = next((list(val) for val in itertools.product(range(k), repeat=n)
                     if all(val[j] == s for j, s in fixed.items())
                     and not any(fires(val, p) for p in grounded + placements)),
                    None)
    assert solve(window, fixed, k, budget=10**6, placements=placements) == expected


def nodes_and_result(window, fixed, k, placements):
    """The nodes `solve` visits (the least budget it does not run out of)
    and what it returns; at one node less it raises carrying that count."""
    lo, hi = 0, 10**4
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            solve(window, fixed, k, mid, placements=placements)
            hi = mid
        except UndeterminedError:
            lo = mid + 1
    if lo:
        with pytest.raises(UndeterminedError) as err:
            solve(window, fixed, k, lo - 1, placements=placements)
        assert err.value.nodes == lo
    return lo, solve(window, fixed, k, lo, placements=placements)


@CHECKS
@given(small_windows(), st.data())
def test_split_constraint_searches_the_same_tree(instance, data):
    # one constraint split in two at one position, the halves' allowed sets
    # there partitioning its own, forbids the same assignments: the search
    # must find the same assignment after the same number of nodes
    width, levels, k, constraints, placements, fixed = instance
    splittable = [(i, p) for i, con in enumerate(constraints)
                  for p, (_, a) in enumerate(con) if len(a) > 1]
    assume(splittable)
    i, p = data.draw(st.sampled_from(splittable))
    off, a = constraints[i][p]
    part = data.draw(st.frozensets(st.sampled_from(sorted(a)), min_size=1,
                                   max_size=len(a) - 1))
    halves = [constraints[i][:p] + [(off, b)] + constraints[i][p + 1:]
              for b in (part, a - part)]
    split = constraints[:i] + halves + constraints[i + 1:]
    assert (nodes_and_result(plane_window(width, levels, constraints), fixed, k, placements)
            == nodes_and_result(plane_window(width, levels, split), fixed, k, placements))


def test_search_deeper_than_the_recursion_limit():
    # B_300 x [0, 1] of Z is 1,202 cells, all but the origin free: the
    # search keeps its own stack, so its depth is not bounded by Python's
    rules = {(0, 0): (0, 0, 1), (1, 0): (1, 0, 1)}
    instance = compile_domino(ZLINE, machine(("walk", "acc"), rules), WindowedA1(1))
    assert sys.getrecursionlimit() < 1201
    assert isinstance(verify_reduction_window(instance, 300, 1), Satisfiable)


def test_no_search_state_outlives_a_call():
    # with the cyclic collector off, repeated searches must free everything
    # they build (the watch lists, and through them the compiled windows)
    # by reference counting alone: no closure may refer to itself
    spec = z_sft("11", "000", "1001")
    x = Pattern({ZLINE.identity: 1})
    rules = {(0, 0): (0, 0, 1), (1, 0): (1, 0, 1)}
    instance = compile_domino(ZLINE, machine(("walk", "acc"), rules), WindowedA1(8))
    window = spec.forbidden.compiled_window(ZLINE, 3)

    def run():
        assert extendable(x, spec, 3)
        assert solve(window, {}, 2, budget=10**4) is not None
        assert isinstance(verify_reduction_window(instance, 4, 6), Satisfiable)

    def closures(objects):
        return sum(isinstance(f, types.FunctionType) and "<locals>" in f.__qualname__
                   and str(f.__module__).startswith("groupshift") for f in objects)

    run()  # grows the balls and caches once
    gc.collect()
    gc.disable()
    try:
        before = gc.get_objects()
        for _ in range(10):
            run()
        after = gc.get_objects()
        assert closures(after) == closures(before)
        assert len(after) - len(before) < 50
    finally:
        gc.enable()
