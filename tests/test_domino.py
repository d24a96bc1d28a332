"""The origin-constrained compiler, its window verifier and the free-product
wrapper."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from groupshift import (
    Alphabet,
    GMachineSpec,
    MalformedInputError,
    Pattern,
    Satisfiable,
    Unsatisfiable,
    UserSftCover,
    WindowedA1,
    ball,
    compile_domino,
    cyclic_group,
    free_product_layer,
    verify_reduction_window,
)
from groupshift.domino import (
    ComponentAlphabet,
    GOffset,
    HOffset,
    grounded_violations,
)
from groupshift import jsonio
from groupshift.machines import trace_run

from .conftest import CHECKS, KINDS, window_cells
from .test_constraints import window_assignment

SIGMA = Alphabet(("_", "1"))


def machine(group, states, accepting, rules, sigma=SIGMA):
    delta = {}
    for sym in range(len(sigma)):
        for q in range(len(states)):
            delta[(sym, q)] = rules.get((sym, q), (sym, q, 0))
    return GMachineSpec(group, states, frozenset(accepting), sigma, 0, delta)


@pytest.fixture(scope="module")
def suite(z):
    a_plus = 1
    accept_now = machine(z, ("q1",), {0}, {})
    move_right = machine(z, ("walk", "acc"), {1}, {
        (1, 0): (1, 0, a_plus),
        (0, 0): (0, 1, 0),
    })
    loop = machine(z, ("walk", "acc"), {1}, {
        (0, 0): (0, 0, a_plus), (1, 0): (1, 0, a_plus),
    })
    return accept_now, move_right, loop


def random_machine(group, rng):
    """A seeded machine of two or three states, the last accepting, moving
    by any generator id (0 stays)."""
    n = rng.randint(2, 3)
    delta = {(sym, q): (rng.randrange(len(SIGMA)), rng.randrange(n),
                        rng.randrange(len(group.generators)))
             for sym in range(len(SIGMA)) for q in range(n)}
    return GMachineSpec(group, tuple(f"q{i}" for i in range(n)), frozenset({n - 1}),
                        SIGMA, 0, delta)


def accepts_inside(spec, radius, steps):
    """Oracle: the run from the blank tape accepts within `steps` steps with
    every head position, the accepting one included, in B_radius."""
    inside = ball(spec.group, radius)
    for cfg in trace_run(spec, Pattern({}), steps):
        if cfg.head not in inside:
            return False
    return cfg.state in spec.accepting


@pytest.mark.parametrize("kind", ["z", "z2", "bs12", "f2", "c2xz", "c2*c3", "z_a_a2"])
def test_window_verdict_is_the_bounded_run(kind):
    # the reduction differential: with A1 exclusions across the whole
    # window, the (r, h) window is unsatisfiable exactly when the machine
    # accepts inside B_r within h steps; an unsatisfiable window stays so
    # one level higher
    group = KINDS[kind]()
    for seed in range(12):
        rng = random.Random(seed)
        spec = random_machine(group, rng)
        radius, height = rng.randint(1, 2), rng.randint(2, 5)
        instance = compile_domino(group, spec, WindowedA1(2 * radius))
        out = verify_reduction_window(instance, radius, height)
        assert isinstance(out, Unsatisfiable) == accepts_inside(spec, radius, height)
        if isinstance(out, Satisfiable):
            assert grounded_violations(instance.g_group, instance.constraints,
                                       window_assignment(instance, out.witness)) == []
        else:
            assert isinstance(verify_reduction_window(instance, radius, height + 1),
                              Unsatisfiable)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_unsatisfiable_window_stays_so_one_radius_out(kind):
    # a window one radius wider holds every placement of the narrower one,
    # so an unsatisfiable (r, h) window stays so at (r + 1, h)
    group = KINDS[kind]()
    unsatisfiable = 0
    for seed in range(8):
        rng = random.Random(seed)
        spec = random_machine(group, rng)
        radius, height = rng.randint(0, 1), rng.randint(1, 3)
        instance = compile_domino(group, spec, WindowedA1(2))
        if isinstance(verify_reduction_window(instance, radius, height), Unsatisfiable):
            unsatisfiable += 1
            assert isinstance(verify_reduction_window(instance, radius + 1, height),
                              Unsatisfiable), (seed, radius, height)
    assert unsatisfiable


def test_family_counts(z, suite):
    _, move_right, _ = suite
    inst = compile_domino(z, move_right, WindowedA1(3))
    sigma, q = len(SIGMA), len(move_right.states)
    k = q
    tags = inst.tags()
    assert tags["A2"] == sigma * (sigma - 1)
    assert tags["B1"] <= sigma * q * (sigma - 1)
    assert tags["B2"] == sigma * q * k
    assert tags["A4"] == sigma
    assert tags["X_aux"] == len(z.nonidentity_ids)


def test_cell_requirement_needs_a_label_list():
    alphabet = ComponentAlphabet((("state", ("0", "1", "2")),))
    assert alphabet.requirement({"state": ["1", "2"]}) == ((0, frozenset({1, 2})),)
    with pytest.raises(MalformedInputError, match="list of value labels"):
        alphabet.requirement({"state": "12"})


REPEATED_COMPONENTS = {
    # two components named "sym": every label used to bind to the first, so
    # the origin read back as (0, 0) and was written as ["0", "1"]
    "same-labels": ([["sym", ["0", "1"]], ["sym", ["1", "0"]]], ["0", "0"]),
    # and a label of the second alone was refused
    "other-labels": ([["sym", ["0", "1"]], ["sym", ["x", "y"]]], ["0", "y"]),
}


@pytest.mark.parametrize("name", sorted(REPEATED_COMPONENTS))
def test_repeated_component_names_are_malformed(z, name):
    components, origin = REPEATED_COMPONENTS[name]
    with pytest.raises(MalformedInputError, match="component names repeat"):
        ComponentAlphabet(tuple((n, tuple(vals)) for n, vals in components))
    blob = {"group": jsonio.group_to_json(z), "alphabet": components,
            "forbidden": [], "origin_symbol": origin}
    with pytest.raises(MalformedInputError, match="component names repeat"):
        jsonio.instance_from_json(blob)


@st.composite
def component_alphabets(draw):
    """One to four components of one to four labels each, the labels free
    to hold commas and parentheses."""
    labels = st.lists(st.text("ab,()", min_size=1, max_size=3), min_size=1, max_size=4,
                      unique=True)
    return ComponentAlphabet(tuple((f"c{i}", tuple(draw(labels)))
                                   for i in range(draw(st.integers(1, 4)))))


@CHECKS
@given(component_alphabets(), st.data())
def test_component_alphabet_codec(alphabet, data):
    """`code` and `symbol` are inverse and follow `symbols()` order; a
    requirement allows exactly the codes of the symbols that meet it; the
    label spellings of symbols and requirements read back as themselves."""
    symbols = list(alphabet.symbols())
    assert [alphabet.code(sym) for sym in symbols] == list(range(len(symbols)))
    assert [alphabet.symbol(i) for i in range(len(symbols))] == symbols
    sizes = [len(vals) for _, vals in alphabet.components]
    cis = data.draw(st.lists(st.integers(0, len(sizes) - 1), max_size=4))
    req = tuple((ci, data.draw(st.frozensets(st.integers(0, sizes[ci] - 1)))) for ci in cis)
    assert alphabet.allowed(req) == {i for i, sym in enumerate(symbols)
                                     if all(sym[ci] in allowed for ci, allowed in req)}
    unique = tuple(dict(req).items())
    assert alphabet.requirement(alphabet.labels(unique)) == unique
    sym = data.draw(st.sampled_from(symbols))
    assert alphabet.from_labels(alphabet.symbol_labels(sym)) == sym
    ci = data.draw(st.integers(0, len(sizes) - 1))
    for bad in (sym[:ci] + (sizes[ci],) + sym[ci + 1:], sym + (0,), sym[:-1]):
        with pytest.raises(MalformedInputError, match="outside the alphabet"):
            alphabet.code(bad)


def test_requires_last_state_accepting(z):
    bad = machine(z, ("a", "b"), {0}, {})
    with pytest.raises(MalformedInputError):
        compile_domino(z, bad, WindowedA1(2))


def test_supports_inside_unit_ball(z, suite):
    _, move_right, _ = suite
    inst = compile_domino(z, move_right, WindowedA1(3))
    for con in inst.constraints:
        for off in con.support:
            assert isinstance(off, GOffset)
            assert off.dz in (0, 1)
            if con.tag != "A1":
                assert z.length_of(off.g) <= 1


def test_verdicts_three_machine_suite(z, suite):
    accept_now, move_right, loop = suite
    out1 = verify_reduction_window(
        compile_domino(z, accept_now, WindowedA1(4)), 2, 3)
    assert isinstance(out1, Unsatisfiable)
    out2 = verify_reduction_window(
        compile_domino(z, move_right, WindowedA1(8)), 4, 6)
    assert isinstance(out2, Unsatisfiable)
    out3 = verify_reduction_window(
        compile_domino(z, loop, WindowedA1(8)), 4, 6)
    assert isinstance(out3, Satisfiable)


def test_loop_witness_passes_full_scan(z, suite):
    *_, loop = suite
    inst = compile_domino(z, loop, WindowedA1(8))
    # hand-built witness: star row at the bottom, head walking right
    alphabet = inst.alphabet
    def sym(sigma, state, star):
        return (sigma, state, star)
    assign = {}
    for (g, zlev) in window_cells(inst, 4, 6):
        w = z.word_of(g)
        offset = len(w) if (w and w[0] == 1) else -len(w)
        state = 1 if (offset == zlev and offset <= 4) else 0
        assign[(g, zlev)] = sym(0, state, 1 if zlev == 0 else 0)
    assert assign[(z.identity, 0)] == tuple(inst.origin_symbol)
    assert grounded_violations(inst.g_group, inst.constraints, assign) == []
    # mutation: freeze the head instead of moving it
    assign[(z.element((1,)), 1)] = sym(0, 0, 0)
    assert grounded_violations(inst.g_group, inst.constraints, assign) != []


def test_accepting_run_violates_a4(z, suite):
    accept_now, *_ = suite
    inst = compile_domino(z, accept_now, WindowedA1(4))
    # any assignment with the origin symbol must put state 1 = accepting at
    # the origin, which A4 forbids outright
    assign = {(z.identity, 0): tuple(inst.origin_symbol)}
    hits = grounded_violations(inst.g_group, inst.constraints, assign)
    assert any(c.tag == "A4" for c, _ in hits)


def test_user_sft_cover_mode(z, suite):
    _, move_right, _ = suite
    cover = UserSftCover(
        values=("l", "h", "r"),
        constraints=(
            # boundary marker must coincide with the head
            ((("", 0),), ({"state": ["0"], "cover": ["h"]},)),
            ((("", 0),), ({"state": ["1", "2"], "cover": ["l", "r"]},)),
            # l-region left of h left of r-region
            ((("", 0), ("a", 0)), ({"cover": ["r"]}, {"cover": ["l"]})),
            ((("", 0), ("a", 0)), ({"cover": ["r"]}, {"cover": ["h"]})),
            ((("", 0), ("a", 0)), ({"cover": ["h"]}, {"cover": ["l"]})),
        ),
    )
    inst = compile_domino(z, move_right, cover)
    assert "cover" in inst.alphabet.names()
    assert inst.tags()["A1"] == 5
    out = verify_reduction_window(inst, 3, 4)
    assert isinstance(out, Unsatisfiable)


def test_free_product_layer_counts(z, suite):
    _, move_right, _ = suite
    base = compile_domino(z, move_right, WindowedA1(3))
    wrapped2 = free_product_layer(cyclic_group(2), base)
    assert wrapped2.origin_symbol is None
    coset = [c for c in wrapped2.constraints if c.tag == "Y_aux"
             and any(isinstance(o, HOffset) for o in c.support)]
    assert len(coset) == 2 ** 2 - 2        # {00, **}
    wrapped3 = free_product_layer(cyclic_group(3), base)
    coset3 = [c for c in wrapped3.constraints if c.tag == "Y_aux"
              and any(isinstance(o, HOffset) for o in c.support)]
    assert len(coset3) == 2 ** 3 - 3


def test_free_product_layer_coupling(z, suite):
    _, move_right, _ = suite
    base = compile_domino(z, move_right, WindowedA1(3))
    wrapped = free_product_layer(cyclic_group(2), base)
    single = [c for c in wrapped.constraints if c.tag == "Y_aux" and len(c.support) == 1]
    # one coupling constraint per base component: marked cells must carry the
    # old origin symbol
    assert len(single) == len(base.alphabet.components)
    marker_ci = wrapped.alphabet.index("marker")
    for con in single:
        req = dict(con.cells[0])
        assert req[marker_ci] == frozenset({1})
        (ci,) = [c for c in req if c != marker_ci]
        assert base.origin_symbol[ci] not in req[ci]


def test_free_product_rejects_trivial(z, suite):
    accept_now, *_ = suite
    base = compile_domino(z, accept_now, WindowedA1(2))
    with pytest.raises(Exception):
        free_product_layer(cyclic_group(1), base)


@pytest.mark.parametrize("tape", [("_", "1"), ("a,b", "1"), ("(x)", "1")],
                         ids=["plain", "comma", "parenthesis"])
def test_instance_json_roundtrip(z, tape):
    # the origin is written as one label per component, so a tape label
    # holding a comma or a parenthesis reads back as itself
    move_right = machine(z, ("walk", "acc"), {1}, {(1, 0): (1, 0, 1), (0, 0): (0, 1, 0)},
                         Alphabet(tape))
    inst = compile_domino(z, move_right, WindowedA1(3))
    blob = json.loads(json.dumps(jsonio.instance_to_json(inst)))
    assert blob["origin_symbol"] == [tape[0], "1", "*"]
    back = jsonio.instance_from_json(blob)
    assert back.tags() == inst.tags()
    assert back.origin_symbol == inst.origin_symbol
    assert jsonio.instance_to_json(back) == blob
    out1 = verify_reduction_window(inst, 2, 3)
    out2 = verify_reduction_window(back, 2, 3)
    assert type(out1) is type(out2)


def test_instance_json_decodes_to_the_compiled_constraints(f2):
    # each distinct G offset and requirement is decoded once, and the
    # decoded family equals the compiler's on the decoded group
    rules = {(1, 0): (1, 0, 1), (0, 0): (0, 1, 0)}
    inst = compile_domino(f2, machine(f2, ("walk", "acc"), {1}, rules), WindowedA1(3))
    blob = json.loads(json.dumps(jsonio.instance_to_json(inst)))
    back = jsonio.instance_from_json(blob)
    group = back.g_group
    assert back.constraints == compile_domino(
        group, machine(group, ("walk", "acc"), {1}, rules), WindowedA1(3)).constraints
    offsets = [o for con in back.constraints for o in con.support]
    reqs = [req for con in back.constraints for req in con.cells]
    assert len({id(o) for o in offsets}) == len(set(offsets)) < len(offsets)
    assert len({id(r) for r in reqs}) == len(set(reqs)) < len(reqs)
    # a requirement spelled as a string is malformed, even after the same
    # labels arrived as a list
    blob["forbidden"].append({"tag": "A4", "support": [{"g": "", "dz": 0}],
                              "cells": [{"state": "12"}]})
    with pytest.raises(MalformedInputError, match="list of value labels"):
        jsonio.instance_from_json(blob)


def test_free_product_instance_json(z, suite):
    _, move_right, _ = suite
    inst = free_product_layer(cyclic_group(2),
                              compile_domino(z, move_right, WindowedA1(2)))
    blob = jsonio.instance_to_json(inst)
    back = jsonio.instance_from_json(blob)
    assert back.h_group is not None and back.h_group.order == 2
    assert back.tags() == inst.tags()


def test_verifier_rejects_free_product(z, suite):
    _, move_right, _ = suite
    inst = free_product_layer(cyclic_group(2),
                              compile_domino(z, move_right, WindowedA1(2)))
    with pytest.raises(Exception):
        verify_reduction_window(inst, 2, 2)


@pytest.mark.parametrize("radius,height", [(-1, 2), (2, -1)])
def test_verifier_rejects_negative_window(z, suite, radius, height):
    inst = compile_domino(z, suite[1], WindowedA1(2))
    with pytest.raises(MalformedInputError, match="must be >= 0"):
        verify_reduction_window(inst, radius, height)


def test_all_single_symbols_forbidden_unsat(z):
    from groupshift.domino import ComponentAlphabet, DominoConstraint, DominoInstance
    alphabet = ComponentAlphabet((("sym", ("0", "1")),))
    here = GOffset(z.identity, 0)
    cons = tuple(DominoConstraint((here,), (((0, frozenset({v})),),), "A4")
                 for v in (0, 1))
    inst = DominoInstance(z, alphabet, cons, None)
    assert isinstance(verify_reduction_window(inst, 1, 1), Unsatisfiable)


def test_empty_family_satisfiable(z):
    from groupshift.domino import ComponentAlphabet, DominoInstance
    alphabet = ComponentAlphabet((("sym", ("0", "1")),))
    inst = DominoInstance(z, alphabet, (), None)
    out = verify_reduction_window(inst, 1, 1)
    assert isinstance(out, Satisfiable)
    assert len(out.witness) == 3 * 2


@pytest.mark.parametrize("support_len,cells_len", [(0, 0), (1, 0), (1, 2)])
def test_malformed_constraint_rejected(z, support_len, cells_len):
    from groupshift.domino import DominoConstraint
    support = (GOffset(z.identity, 0),) * support_len
    cells = (((0, frozenset({0})),),) * cells_len
    with pytest.raises(MalformedInputError):
        DominoConstraint(support, cells, "bad")
