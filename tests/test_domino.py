"""The origin-constrained compiler, its window verifier and the free-product
wrapper."""

import pytest

from groupshift import (
    Alphabet,
    GMachineSpec,
    MalformedInputError,
    Satisfiable,
    Unsatisfiable,
    UserSftCover,
    WindowedA1,
    compile_domino,
    cyclic_group,
    free_product_layer,
    verify_reduction_window,
)
from groupshift.domino import (
    ComponentAlphabet,
    GOffset,
    HOffset,
    cell_requirement,
    check_window_assignment,
    window_cells,
)
from groupshift import jsonio

SIGMA = Alphabet(("_", "1"))


def machine(group, states, accepting, rules):
    delta = {}
    for sym in range(len(SIGMA)):
        for q in range(len(states)):
            delta[(sym, q)] = rules.get((sym, q), (sym, q, 0))
    return GMachineSpec(group, states, frozenset(accepting), SIGMA, 0, delta)


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
    assert cell_requirement(alphabet, {"state": ["1", "2"]}) == ((0, frozenset({1, 2})),)
    with pytest.raises(MalformedInputError, match="list of value labels"):
        cell_requirement(alphabet, {"state": "12"})


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
    assert check_window_assignment(inst, assign) == []
    # mutation: freeze the head instead of moving it
    assign[(z.element((1,)), 1)] = sym(0, 0, 0)
    assert check_window_assignment(inst, assign) != []


def test_accepting_run_violates_a4(z, suite):
    accept_now, *_ = suite
    inst = compile_domino(z, accept_now, WindowedA1(4))
    # any assignment with the origin symbol must put state 1 = accepting at
    # the origin, which A4 forbids outright
    assign = {(z.identity, 0): tuple(inst.origin_symbol)}
    hits = check_window_assignment(inst, assign)
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
    coset = [c for c in wrapped2.by_tag("Y_aux")
             if any(isinstance(o, HOffset) for o in c.support)]
    assert len(coset) == 2 ** 2 - 2        # {00, **}
    wrapped3 = free_product_layer(cyclic_group(3), base)
    coset3 = [c for c in wrapped3.by_tag("Y_aux")
              if any(isinstance(o, HOffset) for o in c.support)]
    assert len(coset3) == 2 ** 3 - 3


def test_free_product_layer_coupling(z, suite):
    _, move_right, _ = suite
    base = compile_domino(z, move_right, WindowedA1(3))
    wrapped = free_product_layer(cyclic_group(2), base)
    single = [c for c in wrapped.by_tag("Y_aux") if len(c.support) == 1]
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


def test_instance_json_roundtrip(z, suite):
    _, move_right, _ = suite
    inst = compile_domino(z, move_right, WindowedA1(3))
    blob = jsonio.instance_to_json(inst)
    back = jsonio.instance_from_json(blob)
    assert back.tags() == inst.tags()
    assert back.origin_symbol == tuple(inst.origin_symbol)
    assert jsonio.instance_to_json(back) == blob
    out1 = verify_reduction_window(inst, 2, 3)
    out2 = verify_reduction_window(back, 2, 3)
    assert type(out1) is type(out2)


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
