"""The path builder, the ball visitor and the oracle-machine bridge."""

import gc

import pytest

from groupshift import (
    Accepted,
    Alphabet,
    Exhausted,
    MalformedInputError,
    OracleSimulator,
    Pattern,
    PathMachine,
    PathRun,
    UnsupportedGroupError,
    VisitMachine,
    ball,
    classical_accept_all,
    classical_contains_entry,
    classical_query_word,
    cyclic_group,
    direct_product,
)
from groupshift.groups import ConsWord, FreeAbelianGroup, RewritingGroup
from groupshift.machines import trace_run
from groupshift.pathwalk import (
    _C1_START,
    _C2_MARK,
    _STATE_BACK,
    INPUT_BLANK,
    ClassicalMachineSpec,
    VisitEvent,
)

from .conftest import KINDS

BITS = Alphabet(("0", "1"))


def test_build_m_path_shape(z):
    spec = PathMachine(z).spec
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
    """The loop's inline checks run on its one-step case too: a cell
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


INFINITE_KINDS = ("z", "z2", "f2", "bs12", "z_a_a2", "c2xz", "c2*c3")


def _state(run):
    """Everything a path run's loop advances or books."""
    return (dict(run.tape), run.head, run.state, run.steps, list(run.path),
            set(run.path_set), list(run.arrival), run.max_path_len, run.completed)


@pytest.mark.parametrize("depth_limit", [None, 1, 2, 3])
@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_split_runs_equal_one_run(kind, depth_limit):
    """The loop resumes where it stopped, its depth-gated table included:
    run(a) then run(b) leaves the run as run(a + b) does."""
    machine = PathMachine(KINDS[kind]())
    whole = PathRun(machine, depth_limit=depth_limit)
    whole.run(600)
    for a in (0, 1, 97, 333):
        split = PathRun(machine, depth_limit=depth_limit)
        split.run(a)
        split.run(600 - a)
        assert _state(split) == _state(whole)


@pytest.mark.parametrize("depth_limit", [None, 2])
@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_steps_equal_one_run(kind, depth_limit):
    """k calls of `step` leave the run as run(k) does, and their events
    replay its path: each mark pushes its cell, each erase pops it."""
    machine = PathMachine(KINDS[kind]())
    stepped, ran = (PathRun(machine, depth_limit=depth_limit) for _ in "ab")
    replay, events = [], set()
    for _ in range(500):
        ev = stepped.step()
        if ev is not None:
            events.add(ev[0])
            if ev[0] == "mark":
                replay.append(ev[1])
            else:
                assert replay.pop() == ev[1]
    ran.run(500)
    assert _state(stepped) == _state(ran)
    assert replay == ran.path
    assert events == ({"mark"} if depth_limit is None else {"mark", "erase"})


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_ungated_run_ends_where_trace_run_ends(kind):
    """The checked loop takes the steps the plain run loop takes on the path
    table: the same tape, head, state and step count."""
    machine = PathMachine(KINDS[kind]())
    run = PathRun(machine)
    run.run(700)
    for cfg in trace_run(machine.spec, Pattern({}), 700):
        pass
    assert (run.tape, run.head, run.state, run.steps) == \
        (cfg.tape, cfg.head, cfg.state, cfg.steps)


def _before(machine, event, after=0, depth_limit=None):
    """A fresh run stopped right before its first `event` ('mark' or
    'erase') step once `after` steps are done."""
    probe = PathRun(machine, depth_limit=depth_limit)
    probe.run(after)
    for _ in range(10_000):
        ev = probe.step()
        if ev is not None and ev[0] == event:
            break
    else:
        pytest.fail(f"no {event} step within 10,000 steps")
    run = PathRun(machine, depth_limit=depth_limit)
    run.run(probe.steps - 1)
    return run


def _retag(run, cell, c1):
    """Rewrite the arrival component of `cell`'s symbol, keeping the rest."""
    m = run.m
    _, c2, c3 = m.decode[run.tape[cell]]
    run.tape[cell] = m.sym(c1, c2, c3)


def _off_path(run):
    """A cell of B_2 that the run's path does not hold."""
    return next(e for e in ball(run.group, 2).sorted_elements()
                if e not in run.path_set)


# Each test below corrupts one run and asserts that the check it aims at
# catches it: the per-step checks on the next step, the deep ones in
# `check_full`.  Together they fire every assertion of `PathRun`.


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_init_mark_away_from_the_root(kind):
    machine = PathMachine(KINDS[kind]())
    run = PathRun(machine)
    run.head = machine.group.element((machine.dirs[0],))
    with pytest.raises(AssertionError, match="init mark away from the root"):
        run.step()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_already_marked(kind):
    run = _before(PathMachine(KINDS[kind]()), "mark", after=50)
    run.path_set.add(run.head)
    with pytest.raises(AssertionError, match="marking an already-marked cell"):
        run.step()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_mark_off_the_tip(kind):
    run = _before(PathMachine(KINDS[kind]()), "mark", after=50)
    assert len(run.path) > 1
    run.path[-1] = run.path[0]
    with pytest.raises(AssertionError,
                       match="mark does not extend the tip by one edge"):
        run.step()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_erase_off_the_tip(kind):
    run = _before(PathMachine(KINDS[kind]()), "erase", depth_limit=2)
    run.path[-1] = run.path[0]
    with pytest.raises(AssertionError, match="erase not at the tip"):
        run.step()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_erase_the_root(kind):
    run = _before(PathMachine(KINDS[kind]()), "erase", depth_limit=1)
    assert len(run.path) == 2
    run.path_set.discard(run.path.pop(0))
    with pytest.raises(AssertionError, match="erasing the root"):
        run.step()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_path_and_set_diverge(kind):
    run = PathRun(PathMachine(KINDS[kind]()))
    run.run(50)
    run.path_set.add(_off_path(run))
    with pytest.raises(AssertionError, match="path list and marked set diverged"):
        run.step()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_root_not_the_identity(kind):
    run = PathRun(PathMachine(KINDS[kind]()))
    run.run(200)
    run.path[0] = run.path[1]
    with pytest.raises(AssertionError, match="path root is not the identity"):
        run.check_full()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_arrival_link(kind):
    """An arrival link rewritten to another direction steps the walk's key
    off the stored path."""
    run = PathRun(PathMachine(KINDS[kind]()))
    run.run(200)
    tip = run.path[-1]
    c1 = run.m.decode[run.tape[tip]][0]
    _retag(run, tip, 2 + (c1 - 1) % run.m.k)
    with pytest.raises(AssertionError,
                       match="arrival links do not retrace the path"):
        run.check_full()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_blank_path_cell(kind):
    run = PathRun(PathMachine(KINDS[kind]()))
    run.run(200)
    del run.tape[run.path[len(run.path) // 2]]
    with pytest.raises(AssertionError, match="path cell lost its mark"):
        run.check_full()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_root_start_marker(kind):
    run = PathRun(PathMachine(KINDS[kind]()))
    run.run(200)
    _retag(run, run.path[0], 2)
    with pytest.raises(AssertionError,
                       match="root does not carry the start marker"):
        run.check_full()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_no_arrival_link(kind):
    run = PathRun(PathMachine(KINDS[kind]()))
    run.run(200)
    _retag(run, run.path[len(run.path) // 2], _C1_START)
    with pytest.raises(AssertionError,
                       match="non-root cell carries no arrival link"):
        run.check_full()


@pytest.mark.parametrize("kind", INFINITE_KINDS)
def test_tamper_mark_off_the_path(kind):
    """A mark on a cell the path never reached (an erase that failed to blank
    its cell leaves the same tape)."""
    machine = PathMachine(KINDS[kind]())
    run = PathRun(machine)
    run.run(200)
    run.check_full()
    run.tape[_off_path(run)] = machine.sym(2, _C2_MARK, 0)
    with pytest.raises(AssertionError, match="a mark lies off the path"):
        run.check_full()


def test_negative_steps_are_malformed(z):
    run = PathRun(PathMachine(z))
    with pytest.raises(MalformedInputError, match="steps must be >= 0, got -5"):
        run.run(-5)


def test_non_integer_steps_are_rejected(z):
    """The loop counts steps down, so a fractional count must not reach it."""
    run = PathRun(PathMachine(z))
    with pytest.raises(TypeError):
        run.run(2.5)
    assert run.steps == 0


def test_negative_depth_limit_is_malformed(z):
    with pytest.raises(MalformedInputError,
                       match="depth limit must be >= 0, got -1"):
        PathRun(PathMachine(z), depth_limit=-1)


def test_negative_ticks_are_malformed(z):
    with pytest.raises(MalformedInputError, match="ticks must be >= 0, got -2"):
        VisitMachine(z).run(-2)


def test_negative_visit_budget_is_malformed(z):
    with pytest.raises(MalformedInputError, match="budget must be >= 0, got -1"):
        VisitMachine(z).run_until_n(1, -1)


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
    # a group declared finite is rejected up front
    with pytest.raises(UnsupportedGroupError, match="needs an infinite group"):
        PathMachine(cyclic_group(3))


def test_path_run_on_a_finite_rewriting_group_is_unsupported():
    """Z/4 as a rewriting system is not declared finite, so the path machine
    accepts it, and its run exhausts every direction from the root."""
    c4 = RewritingGroup(["a", "a^-1"], [("a a a", "a^-1"), ("a^-1 a^-1", "a a")])
    run = PathRun(PathMachine(c4))
    with pytest.raises(UnsupportedGroupError,
                       match="every direction from the root is exhausted"):
        for _ in range(1000):
            run.step()


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
    vm = VisitMachine(f2)
    events = vm.run_until_n(1, 20_000)
    visited = {e.cell for e in events if e.kind == "visit" and e.n == 1}
    assert ball(f2, 1).elements <= visited


def test_visit_machine_z2_b2(z2):
    vm = VisitMachine(z2)
    events = vm.run_until_n(2, 200_000)
    visited = {e.cell for e in events if e.kind == "visit" and e.n == 2}
    assert ball(z2, 2).elements <= visited


def test_visit_deterministic(z2):
    a = VisitMachine(z2)
    b = VisitMachine(z2)
    a.run(500)
    b.run(500)
    assert [(e.kind, e.n, e.cell) for e in a.events] == \
        [(e.kind, e.n, e.cell) for e in b.events]


def test_visit_counter_tracks_value(z):
    vm = VisitMachine(z)
    vm.run_until_n(2, 50_000)
    assert vm.counter_value() == vm.n


def test_visit_collision_reset(z):
    vm = VisitMachine(z)
    vm.run(50)
    # force the supervisor's collision branch directly: pretend layer 1
    # erased a counter cell
    assert vm.counter_tape
    vm._reset_upper_layers()
    assert vm.n == 1
    assert not vm.counter_tape


def test_visit_erased_counter_cell_resets_the_upper_layers(f2):
    """The supervisor's rules, driven white-box: no ungated layer 1 reaches a
    dead end in the ticks a test affords, so layer 1 is swapped for a
    depth-1 run on F2, which erases its tip within a few steps, and n starts
    at 2, whose counter needs two path cells."""
    vm = VisitMachine(f2)
    vm.layer1 = PathRun(vm.machine, depth_limit=1)
    vm.n = 2
    layer3 = vm.layer3
    vm.tick()   # layer 1 marks the root only: the counter stays pending
    assert vm._counter_pending and vm.counter_tape == {} and vm.ticks == 1
    assert vm.layer3 is layer3 and layer3.steps == 0
    for _ in range(100):
        counter = dict(vm.counter_tape)
        tip = vm.layer1.path[-1]
        vm.tick()
        if vm.events and vm.events[-1].kind == "reset":
            break
    assert len(counter) == 2 and tip in counter and tip not in vm.layer1.path
    assert vm.events[-1] == VisitEvent("reset", 1)
    assert vm.n == 1 and vm.counter_tape == {} and vm._counter_pending
    assert vm.layer3 is not layer3
    assert (vm.layer3.depth_limit, vm.layer3.steps, vm.layer3.path) == (1, 0, [])


# -- oracle simulator -----------------------------------------------------------


def test_oracle_walk(f2):
    sim = OracleSimulator(f2, classical_accept_all(), BITS)
    assert sim.oracle_answer(f2.parse_word("a a^-1"))
    assert not sim.oracle_answer(f2.parse_word("a"))
    assert sim.oracle_calls[-2:] == [
        (f2.parse_word("a a^-1"), True), (f2.parse_word("a"), False)]


def test_oracle_sim_accepts_immediately(z2):
    sim = OracleSimulator(z2, classical_accept_all(), BITS)
    for pattern in (Pattern({}), Pattern({z2.identity: 1})):
        out = sim.run(pattern, 100)
        assert isinstance(out, Accepted)


def test_oracle_sim_accepts_at_tick_0_when_the_start_state_accepts(z2):
    start_accepts = ClassicalMachineSpec(
        states=("yes",), accepting=frozenset({0}), input_tokens=(INPUT_BLANK,),
        work_tokens=("_",), delta={})
    sim = OracleSimulator(z2, start_accepts, BITS)
    assert sim.run(Pattern({z2.identity: 1}), 10) == Accepted(0)
    assert sim.oracle_calls == []


def test_oracle_sim_contains_entry(z2):
    word = z2.parse_word("x")
    m = classical_contains_entry(z2, word, "1")
    sim = OracleSimulator(z2, m, BITS)
    hit = sim.run(Pattern({z2.element(word): 1}), 5000)
    assert isinstance(hit, Accepted)
    miss = sim.run(Pattern({}), 5000)
    assert isinstance(miss, Exhausted)


def test_oracle_sim_wrong_symbol_not_accepted(z2):
    word = z2.parse_word("x")
    m = classical_contains_entry(z2, word, "1")
    sim = OracleSimulator(z2, m, BITS)
    out = sim.run(Pattern({z2.element(word): 0}), 3000)
    assert isinstance(out, Exhausted)


def test_oracle_sim_query_protocol(f2):
    yes = classical_query_word(f2, f2.parse_word("a a^-1"))
    sim = OracleSimulator(f2, yes, BITS)
    assert isinstance(sim.run(Pattern({}), 300), Accepted)
    assert sim.oracle_calls[0][1] is True

    no = classical_query_word(f2, f2.parse_word("a b"))
    sim2 = OracleSimulator(f2, no, BITS)
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
