"""The path builder, the ball visitor and the oracle-machine bridge."""

import gc

import pytest

from groupshift import (
    Accepted,
    Alphabet,
    Exhausted,
    Pattern,
    PathMachine,
    PathRun,
    ball,
    build_m_path,
    build_m_visit,
    build_oracle_simulator,
    classical_accept_all,
    classical_contains_entry,
    classical_query_word,
    cyclic_group,
    direct_product,
)
from groupshift.groups import ConsWord, FreeAbelianGroup
from groupshift.pathwalk import _STATE_BACK

from .conftest import KINDS

BITS = Alphabet(("0", "1"))


def test_build_m_path_shape(z):
    spec = build_m_path(z)
    k = len(z.nonidentity_ids)
    assert len(spec.states) == 2 + 2 * k + 1          # I, B, arrows, dead
    assert len(spec.tape_alphabet) == (k + 2) * 2 * (k + 1)
    assert spec.accepting == frozenset()


def test_path_z_marches_forward(z):
    run = PathRun(PathMachine(z))
    run.run(50)
    cells = [z.format_element(e) for e in run.path[:3]]
    assert cells == ["e", "a", "a^2"]
    run.check_full()


def test_path_simple_at_every_step(f2):
    run = PathRun(PathMachine(f2))
    for _ in range(3000):
        run.step()          # per-step invariants are checked inside
    run.check_full()
    assert len(run.path) == len(set(run.path))


def test_path_z2_reaches_length(z2):
    run = PathRun(PathMachine(z2))
    budget = 0
    while run.max_path_len < 100 and budget < 50_000:
        run.step()
        budget += 1
    assert run.max_path_len >= 100
    run.check_full()


def test_path_bounces_on_torsion():
    """An involution first in the direction order forces occupied-cell
    bounces (the path zigzags between the two torsion sheets)."""
    g = direct_product(cyclic_group(2), FreeAbelianGroup(1, names=["a"]))
    run = PathRun(PathMachine(g))
    bounced = False
    for _ in range(200):
        was_back = run.state == _STATE_BACK
        run.step()
        if run.state == _STATE_BACK and not was_back:
            bounced = True
    assert bounced
    run.check_full()
    assert len(run.path) == len(set(run.path))


@pytest.mark.parametrize("kind", ["z", "z2", "f2", "bs12", "z_a_a2", "c2xz", "c2*c3"])
def test_depth_limit_above_the_steps_changes_nothing(kind):
    """A depth gate the path cannot reach in k steps leaves the run as the
    ungated one: the same events, tape, head, state and step count."""
    k = 400
    machine = PathMachine(KINDS[kind]())
    free, gated = PathRun(machine), PathRun(machine, depth_limit=k + 1)
    for _ in range(k):
        assert free.step() == gated.step()
        assert (free.tape, free.head, free.state, free.steps) == \
            (gated.tape, gated.head, gated.state, gated.steps)
    assert not gated.completed
    free.check_full()


def test_step_checks_the_transition(z):
    """The per-step invariants run on the step `step_moving` took: a cell
    already recorded on the path cannot be marked again."""
    for check in (True, False):
        run = PathRun(PathMachine(z), check=check)
        run.step()                    # marks the root, heads out to a
        run.path_set.add(run.head)
        if check:
            with pytest.raises(AssertionError, match="already-marked"):
                run.step()
        else:
            assert run.step() == ("mark", run.head)


def test_gated_run_erases_dead_ends(f2):
    """Depth gating forces every branch into a dead end, firing the
    erase-and-step-back rule."""
    run = PathRun(PathMachine(f2), depth_limit=1)
    erased = 0
    for _ in range(10_000):
        ev = run.step()
        if ev and ev[0] == "erase":
            erased += 1
        if run.completed:
            break
    assert run.completed and erased >= 4


def test_path_group_exhausted_error():
    # a finite group is rejected up front; exercised via the gated runner's
    # completion flag instead (below)
    with pytest.raises(Exception):
        PathMachine(cyclic_group(3))


@pytest.mark.parametrize("group_name,depth",
                         [("f2", 1), ("f2", 2), ("z2", 3), ("bs12", 2)])
def test_gated_run_completes_ball(group_name, depth, request):
    group = request.getfixturevalue(group_name)
    run = PathRun(PathMachine(group), depth_limit=depth)
    marks = set()
    for _ in range(10_000):
        ev = run.step()
        if ev and ev[0] == "mark":
            marks.add(ev[1])
        if run.completed:
            break
    assert run.completed
    assert marks == ball(group, depth).elements


def test_visit_machine_f2_b1(f2):
    vm = build_m_visit(f2)
    events = vm.run_until_n(1, 20_000)
    visited = {e.cell for e in events if e.kind == "visit" and e.n == 1}
    assert ball(f2, 1).elements <= visited


def test_visit_machine_z2_b2(z2):
    vm = build_m_visit(z2)
    events = vm.run_until_n(2, 200_000)
    visited = {e.cell for e in events if e.kind == "visit" and e.n == 2}
    assert ball(z2, 2).elements <= visited


def test_visit_deterministic(z2):
    a = build_m_visit(z2)
    b = build_m_visit(z2)
    a.run(500)
    b.run(500)
    assert [(e.kind, e.n, e.cell) for e in a.events] == \
        [(e.kind, e.n, e.cell) for e in b.events]


def test_visit_counter_tracks_value(z):
    vm = build_m_visit(z)
    vm.run_until_n(2, 50_000)
    assert vm.counter_value() == vm.n


def test_visit_collision_reset(z):
    vm = build_m_visit(z)
    vm.run(50)
    # force the supervisor's collision branch directly: pretend layer 1
    # erased a counter cell
    assert vm.counter_tape
    vm._reset_upper_layers()
    assert vm.n == 1
    assert not vm.counter_tape


# -- oracle simulator -----------------------------------------------------------


def test_oracle_walk(f2):
    sim = build_oracle_simulator(f2, classical_accept_all(), BITS)
    assert sim.oracle_answer(f2.parse_word("a a^-1"))
    assert not sim.oracle_answer(f2.parse_word("a"))
    assert sim.oracle_calls[-2:] == [
        (f2.parse_word("a a^-1"), True), (f2.parse_word("a"), False)]


def test_oracle_sim_accepts_immediately(z2):
    sim = build_oracle_simulator(z2, classical_accept_all(), BITS)
    for pattern in (Pattern({}), Pattern({z2.identity: 1})):
        out = sim.run(pattern, 100)
        assert isinstance(out, Accepted)


def test_oracle_sim_contains_entry(z2):
    word = z2.parse_word("x")
    m = classical_contains_entry(z2, word, "1")
    sim = build_oracle_simulator(z2, m, BITS)
    hit = sim.run(Pattern({z2.element(word): 1}), 5000)
    assert isinstance(hit, Accepted)
    miss = sim.run(Pattern({}), 5000)
    assert isinstance(miss, Exhausted)


def test_oracle_sim_wrong_symbol_not_accepted(z2):
    word = z2.parse_word("x")
    m = classical_contains_entry(z2, word, "1")
    sim = build_oracle_simulator(z2, m, BITS)
    out = sim.run(Pattern({z2.element(word): 0}), 3000)
    assert isinstance(out, Exhausted)


def test_oracle_sim_query_protocol(f2):
    yes = classical_query_word(f2, f2.parse_word("a a^-1"))
    sim = build_oracle_simulator(f2, yes, BITS)
    assert isinstance(sim.run(Pattern({}), 300), Accepted)
    assert sim.oracle_calls[0][1] is True

    no = classical_query_word(f2, f2.parse_word("a b"))
    sim2 = build_oracle_simulator(f2, no, BITS)
    assert isinstance(sim2.run(Pattern({}), 300), Exhausted)
    assert sim2.oracle_calls[0][1] is False


@pytest.mark.parametrize("name", ["c2*c3", "z_a_a2"])
def test_path_run_pushes_per_step_are_bounded(name, monkeypatch):
    """A checked path run grows its keys by pushes onto the previous ones, a
    bounded number per step however deep the path gets."""
    pushes = 0
    push = ConsWord.push

    def counting(node, letter):
        nonlocal pushes
        pushes += 1
        return push(node, letter)

    monkeypatch.setattr(ConsWord, "push", counting)
    run = PathRun(PathMachine(KINDS[name]()))
    run.run(4000)
    assert run.max_path_len >= 1000
    assert 0 < pushes <= 3 * 4000


def test_dropped_groups_free_their_key_nodes():
    """Free products and rewriting groups grow their keys from a trie root
    of their own, so a dropped group takes its nodes with it."""
    def live_nodes():
        return sum(isinstance(o, ConsWord) for o in gc.get_objects())

    gc.collect()
    baseline = live_nodes()
    for _ in range(3):
        for name in ("c2*c3", "z_a_a2"):
            run = PathRun(PathMachine(KINDS[name]()))
            run.run(500)
    assert live_nodes() > baseline + 100
    del run
    gc.collect()
    assert live_nodes() == baseline
