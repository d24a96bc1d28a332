"""The machine VM: both action models, acceptance, retargeting, multihead."""

import random

import pytest

from groupshift import (
    Accepted,
    Alphabet,
    Exhausted,
    GMachineSpec,
    MalformedInputError,
    MultiHeadSpec,
    Pattern,
    acceptance_bound,
    coding,
    coding_length,
    fixed_moving_equivalent,
    initial_config,
    pattern_of,
    retarget_generators,
    run_accepts,
    run_multihead,
    simulate_with_balls,
    step_moving,
)

from .conftest import KINDS

SIGMA = Alphabet(("_", "0", "1"))


def machine(group, states, accepting, rules):
    """rules: {(sym, state): (write, next, move)} completed to a total table."""
    delta = {}
    for sym in range(len(SIGMA)):
        for q in range(len(states)):
            delta[(sym, q)] = rules.get((sym, q), (sym, q, 0))
    return GMachineSpec(group, states, frozenset(accepting), SIGMA, 0, delta)


def random_machine(group, rng, n_states=3):
    states = tuple(f"q{i}" for i in range(n_states))
    moves = (0,) + group.nonidentity_ids
    delta = {}
    for sym in range(len(SIGMA)):
        for q in range(n_states):
            delta[(sym, q)] = (rng.randrange(len(SIGMA)),
                               rng.randrange(n_states),
                               rng.choice(moves))
    return GMachineSpec(group, states, frozenset({n_states - 1}), SIGMA, 0, delta)


def test_delta_totality_enforced(z):
    with pytest.raises(MalformedInputError):
        GMachineSpec(z, ("q0",), frozenset(), SIGMA, 0, {})


def test_stay_move_keeps_tape_position(z):
    m = machine(z, ("q0", "q1"), {1}, {(0, 0): (1, 1, 0)})
    cfg = initial_config(m, Pattern({}))
    out = step_moving(m, cfg)
    assert out.head == z.identity and out.state == 1
    assert out.tape[z.identity] == 1


def test_moving_head_multiplies_right(z2):
    m = machine(z2, ("q0",), set(), {(0, 0): (1, 0, 1)})  # write, move +x
    cfg = initial_config(m, Pattern({}))
    out = step_moving(m, cfg)
    assert out.head == z2.element(z2.parse_word("x"))
    assert out.tape[z2.identity] == 1


def test_fixed_head_shift_semantics(f2):
    # one step: blacken the origin then shift by a^-1
    m = machine(f2, ("q1", "q2"), set(), {(0, 0): (2, 1, 1)})
    out = step_moving(m, initial_config(m, Pattern({})))
    # observable tape: sigma_{a^-1}(written): the mark sits at a^-1 now
    obs = out.observable_tape(f2)
    assert obs == {f2.element(f2.parse_word("a^-1")): 2}


def test_two_steps_shift_and_return(z):
    m = machine(z, ("q0", "q1", "q2"), set(), {
        (0, 0): (0, 1, 1),   # move +a, no write
        (0, 1): (0, 2, 2),   # move back (over the marked cell)
        (1, 1): (1, 2, 2),
    })
    cfg = initial_config(m, Pattern({z.element((1,)): 1}))
    before = cfg.observable_tape(z)
    assert before == {z.element((1,)): 1}
    step_moving(m, cfg)
    assert cfg.observable_tape(z) == {z.identity: 1}
    out = step_moving(m, cfg)
    assert out.observable_tape(z) == before


def test_run_accepts_immediately(z):
    m = machine(z, ("q0",), {0}, {})
    out = run_accepts(m, Pattern({z.identity: 1}), 10)
    assert out == Accepted(0)


def test_run_accepts_move_right_example(z):
    # move right over 1s, accept on blank
    m = machine(z, ("walk", "acc"), {1}, {
        (2, 0): (2, 0, 1),
        (0, 0): (0, 1, 0),
    })
    p = Pattern({z.element((1,) * i): 2 for i in range(3)})
    out = run_accepts(m, p, 100)
    assert out == Accepted(4)


def test_run_exhausts(z):
    m = machine(z, ("q0", "acc"), {1}, {(0, 0): (0, 0, 1)})
    assert isinstance(run_accepts(m, Pattern({}), 50), Exhausted)


def test_fixed_moving_equivalent_zero_steps(z):
    m = machine(z, ("q0",), set(), {})
    assert fixed_moving_equivalent(m, Pattern({}), 0)


def test_negative_budgets_rejected(z):
    """A negative budget or step count is malformed input, even for a
    machine that accepts before its first step."""
    from groupshift.machines import trace_run
    m = machine(z, ("q0",), {0}, {})
    with pytest.raises(MalformedInputError):
        run_accepts(m, Pattern({}), -1)
    with pytest.raises(MalformedInputError):
        list(trace_run(m, Pattern({}), -1))
    with pytest.raises(MalformedInputError):
        fixed_moving_equivalent(m, Pattern({}), -1)
    mh = MultiHeadSpec(z, 1, m.states, m.accepting, SIGMA, 0,
                       lambda symbols, states: (symbols, states, (0,)))
    with pytest.raises(MalformedInputError):
        run_multihead(mh, Pattern({}), -1)
    assert run_accepts(m, Pattern({}), 0) == Accepted(0)
    assert run_multihead(mh, Pattern({}), 0) == Accepted(0)


@pytest.mark.parametrize("group_name", ["z", "z2", "f2", "bs12"])
def test_fixed_moving_equivalent_random(group_name, request):
    group = request.getfixturevalue(group_name)
    rng = random.Random(hash(group_name) & 0xFFFF)
    p = Pattern({group.identity: 1})
    for _ in range(5):
        m = random_machine(group, rng)
        assert fixed_moving_equivalent(m, p, 200)


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_moving_equivalent_catches_frame_fault(kind):
    """A literal route whose shift ignores one generator must be caught."""
    group = KINDS[kind]()  # a private instance: the patch must not leak
    rng = random.Random(5)
    p = Pattern({group.identity: 1})
    machines = [random_machine(group, rng) for _ in range(12)]
    ignored = group.nonidentity_ids[0]
    # mark the origin, step along ignored^-1 (a literal shift by ignored) and
    # halt: the states never differ, so only the tape checks see the fault
    blind = machine(group, ("q0", "q1", "q2"), set(), {
        (0, 0): (1, 1, group.inverse_letter(ignored)),
        (0, 1): (0, 2, 0), (1, 1): (1, 2, 0)})
    assert all(fixed_moving_equivalent(m, p, 100) for m in machines)
    assert fixed_moving_equivalent(blind, Pattern({}), 5)
    honest = group.frame_prepend
    group.frame_prepend = lambda letter, lkey: (
        lkey if letter == ignored else honest(letter, lkey))
    assert not all(fixed_moving_equivalent(m, p, 100) for m in machines)
    assert not fixed_moving_equivalent(blind, Pattern({}), 5)


# a fault in one moving-run write: the symbol written, from (honest write,
# symbol read)
WRITE_FAULTS = {
    "wrong-symbol": lambda write, read: (write + 1) % len(SIGMA),
    "skipped-write": lambda write, read: read,
}


@pytest.mark.parametrize("fault", WRITE_FAULTS)
@pytest.mark.parametrize("kind", KINDS)
def test_fixed_moving_equivalent_catches_moving_fault(kind, fault, monkeypatch):
    """One faulty write of the moving run is caught whenever it leaves the
    tape other than the honest step would, whether or not the run reads the
    cell again."""
    from groupshift import machines
    group = KINDS[kind]()
    rng = random.Random(17)
    p = Pattern({group.identity: 1})
    honest = machines.step_moving
    verdicts = set()
    for _ in range(40):
        m, at, changed = random_machine(group, rng), rng.randrange(30), []

        def faulty(spec, cfg):
            head, read, t = cfg.head, cfg.read(spec), cfg.steps
            honest(spec, cfg)
            if t == at:
                write = cfg.tape.get(head, spec.blank)
                bad = WRITE_FAULTS[fault](write, read)
                cfg.tape.pop(head, None)
                if bad != spec.blank:
                    cfg.tape[head] = bad
                changed.append(bad != write)
            return cfg

        monkeypatch.setattr(machines, "step_moving", faulty)
        equivalent = fixed_moving_equivalent(m, p, 30)
        assert changed and equivalent == (not changed[0])
        verdicts.add(equivalent)
    assert False in verdicts


def test_retarget_identity_map(z):
    rng = random.Random(7)
    m = random_machine(z, rng)
    gamma = {s: (s,) for s in z.nonidentity_ids}
    gamma[0] = ()
    out = retarget_generators(m, gamma)
    # one extra stay-state per (state, generator) pair that appears
    assert len(out.states) == len(m.states) + len(m.states) * sum(
        len(gamma[s]) for s in {mv for (_, _, mv) in m.delta.values() if mv})
    p = Pattern({z.identity: 2})
    assert isinstance(run_accepts(m, p, 100), Accepted) == \
        isinstance(run_accepts(out, p, 300), Accepted)


def test_retarget_unsound_gamma_rejected(z):
    m = machine(z, ("q0",), set(), {(0, 0): (0, 0, 1)})
    with pytest.raises(MalformedInputError, match="is not equal in the group"):
        retarget_generators(m, {1: (2,)})  # a |-> a^-1 is not equal


def test_retarget_gamma_missing_a_move_rejected(z):
    m = machine(z, ("q0",), set(), {(0, 0): (0, 0, 1)})
    with pytest.raises(MalformedInputError, match="gamma misses move generator 1"):
        retarget_generators(m, {2: (2,)})


def test_retarget_rewriting_group(z4_rewriting):
    """Machine moving by A = a^2 rewritten to move by a a."""
    g = z4_rewriting
    a_cap = g.parse_word("A")[0]
    a = g.parse_word("a")[0]
    sigma = Alphabet(("_", "1"))
    delta = {}
    for sym in range(2):
        for q in range(2):
            delta[(sym, q)] = (sym, q, 0)
    delta = {}
    for sym in range(2):
        for q in range(5):
            delta[(sym, q)] = (sym, q, 0)
    a_inv = g.inverse_letter(a)
    delta[(0, 0)] = (1, 1, a_cap)   # mark the origin, jump by A
    delta[(0, 1)] = (1, 2, a_inv)   # mark A, step back
    delta[(0, 2)] = (1, 3, a_inv)   # mark a, step back to the origin
    delta[(1, 3)] = (1, 4, 0)       # origin is marked: accept
    m = GMachineSpec(g, ("q0", "q1", "q2", "q3", "acc"), frozenset({4}),
                     sigma, 0, delta)
    gamma = {s: (s,) for s in g.nonidentity_ids}
    gamma[a_cap] = (a, a)
    gamma[g.inverse_letter(a_cap)] = (g.inverse_letter(a),) * 2
    gamma[0] = ()
    out = retarget_generators(m, gamma)
    p = Pattern({})
    r1 = run_accepts(m, p, 50)
    r2 = run_accepts(out, p, 150)
    assert isinstance(r1, Accepted) and isinstance(r2, Accepted)


def test_retarget_on_the_rewriting_z_against_z():
    """Seeded machines on Z over {A = a^2, a} that move by A^+-1 and a^+-1,
    retargeted by gamma(A) = a a, move by a^+-1 alone, so they transcribe
    onto Z over {a}.  Both runs reach the same verdict, step count, state,
    head and tape under a^k <-> a^k.  The retargeted run also keeps the
    original's verdict and tape: each original step is one to three steps
    that write only what it wrote."""
    from groupshift.machines import trace_run
    g, z = KINDS["z_a_a2"](), KINDS["z"]()
    big_a, a = g.parse_word("A")[0], g.parse_word("a")[0]
    big_a_inv, a_inv = g.inverse_letter(big_a), g.inverse_letter(a)
    gamma = {0: (), big_a: (a, a), big_a_inv: (a_inv, a_inv), a: (a,), a_inv: (a_inv,)}
    to_z = {0: 0, a: 1, a_inv: 2}
    power = {big_a: 2, big_a_inv: -2, a: 1, a_inv: -1}

    def on_z(e):
        k = sum(power[s] for s in g.word_of(e))
        return z.element((1,) * k if k >= 0 else (2,) * -k)

    def last(spec, p, budget):
        for cfg in trace_run(spec, p, budget):
            pass
        return cfg

    rng = random.Random(2025)
    verdicts = set()
    for _ in range(80):
        m = random_machine(g, rng)
        cells = [g.element((a,) * k if k >= 0 else (a_inv,) * -k)
                 for k in rng.sample(range(-3, 4), 3)]
        p = Pattern({c: rng.randrange(1, len(SIGMA)) for c in cells})
        p_z = Pattern({on_z(c): v for c, v in p.items()})
        retargeted = retarget_generators(m, gamma)
        on_line = GMachineSpec(z, retargeted.states, retargeted.accepting, SIGMA, 0,
                               {k: (w, r, to_z[move])
                                for k, (w, r, move) in retargeted.delta.items()})
        budget = 40
        assert run_accepts(on_line, p_z, 3 * budget) == \
            run_accepts(retargeted, p, 3 * budget)
        ended, ended_z = last(retargeted, p, 3 * budget), last(on_line, p_z, 3 * budget)
        assert (ended.state, ended.steps, on_z(ended.head)) == \
            (ended_z.state, ended_z.steps, ended_z.head)
        assert {on_z(c): v for c, v in ended.tape.items()} == ended_z.tape
        direct = run_accepts(m, p, budget)
        verdicts.add(type(direct))
        if isinstance(direct, Accepted):
            again = last(retargeted, p, 3 * direct.steps)
            original = last(m, p, budget)
            assert again.state in m.accepting
            assert (again.tape, again.head) == (original.tape, original.head)
        else:
            assert isinstance(run_accepts(retargeted, p, budget), Exhausted)
    assert verdicts == {Accepted, Exhausted}


def test_multihead_single_reduces(z):
    m = machine(z, ("q0", "acc"), {1}, {(0, 0): (1, 1, 1)})

    def delta(symbols, states):
        w, r, s = m.delta[(symbols[0], states[0])]
        return (w,), (r,), (s,)

    mh = MultiHeadSpec(z, 1, m.states, m.accepting, SIGMA, 0, delta)
    assert isinstance(run_multihead(mh, Pattern({}), 10), Accepted)
    assert isinstance(run_accepts(m, Pattern({}), 10), Accepted)


def test_multihead_copier(z):
    """Head 2 mirrors head 1's reads onto its own tape."""

    def delta(symbols, states):
        a, _ = symbols
        return (a, a), (0, 0), ((1, 1)[0], 1)

    mh = MultiHeadSpec(z, 2, ("run",), frozenset(), SIGMA, 0, delta)
    p = Pattern({z.element((1,) * i): 2 for i in range(4)})
    # run manually to inspect tapes
    from groupshift.machines import run_multihead as run
    out = run(mh, p, 6)
    assert isinstance(out, Exhausted)


def test_multihead_rejects_symbol_outside_tape_alphabet(z):
    """A pattern symbol outside the tape alphabet is malformed input, as for
    a single-head run, and never reaches delta."""
    calls = []

    def delta(symbols, states):
        calls.append(symbols)
        return symbols, states, (0,)

    mh = MultiHeadSpec(z, 1, ("run",), frozenset(), Alphabet(("_", "1")), 0, delta)
    with pytest.raises(MalformedInputError, match="outside tape alphabet"):
        run_multihead(mh, Pattern({z.identity: 7}), 2)
    assert calls == []
    m = machine(z, ("run",), set(), {})
    with pytest.raises(MalformedInputError, match="outside tape alphabet"):
        run_accepts(m, Pattern({z.identity: 7}), 2)


@pytest.mark.parametrize("out", [((9,), (0,), (0,)), ((0,), (5,), (0,)),
                                 ((0,), (0,), (99,)), ((0, 0), (0, 0), (0, 0))],
                         ids=["symbol", "state", "move", "arity"])
def test_multihead_rejects_delta_output_out_of_range(z, out):
    """A written symbol outside the tape alphabet, a state outside the
    machine, a move that is no generator id or a tuple of the wrong length
    is malformed input, not a run that goes on or a bare IndexError."""
    mh = MultiHeadSpec(z, 1, ("run", "acc"), frozenset({1}), SIGMA, 0,
                       lambda symbols, states: out)
    with pytest.raises(MalformedInputError, match="delta output"):
        run_multihead(mh, Pattern({}), 3)


@pytest.mark.parametrize("n,blank,accepting",
                         [(0, 0, {1}), (1, len(SIGMA), {1}), (1, 0, {2})],
                         ids=["no_head", "blank", "accepting"])
def test_multihead_spec_rejects_fields_out_of_range(z, n, blank, accepting):
    with pytest.raises(MalformedInputError):
        MultiHeadSpec(z, n, ("run", "acc"), frozenset(accepting), SIGMA, blank,
                      lambda symbols, states: (symbols, states, (0,) * n))


def test_multihead_any_coordinate_accepts(z):
    def delta(symbols, states):
        return (0, 0), (0, 1), (0, 0)  # second head enters accept

    mh = MultiHeadSpec(z, 2, ("a", "acc"), frozenset({1}), SIGMA, 0, delta)
    assert run_multihead(mh, Pattern({}), 5) == Accepted(1)


def test_acceptance_bound(z):
    m2 = machine(z, ("a", "b"), set(), {})
    bound = acceptance_bound(m2, 3)
    assert bound == 2 * 3 * len(SIGMA) ** 3
    assert acceptance_bound(m2, 0) == 0


def test_acceptance_bound_paper_values(z):
    two = GMachineSpec(z, ("a", "b"), frozenset(), Alphabet(("_", "1")), 0,
                       {(s, q): (s, q, 0) for s in range(2) for q in range(2)})
    assert acceptance_bound(two, 3) == 48
    three = GMachineSpec(z, ("a", "b", "c"), frozenset(), SIGMA, 0,
                         {(s, q): (s, q, 0) for s in range(3) for q in range(3)})
    assert acceptance_bound(three, 4) == 3 * 4 * 3 ** 4


def test_simulate_with_balls_inconsistent(bs12):
    bits = Alphabet(("0", "1"))
    c = coding(bits, [
        (bs12.parse_word(""), 0), (bs12.parse_word("a a"), 1),
        (bs12.parse_word("b a b^-1 a"), 1), (bs12.parse_word("a"), 1),
        (bs12.parse_word("b a"), 1), (bs12.parse_word("a b a b^-1"), 0),
    ])
    m = machine(bs12, ("q0",), set(), {})
    out = simulate_with_balls(m, c, 100)
    assert out.kind == "inconsistent"
    assert out.witness is not None


@pytest.mark.parametrize("group_name", ["z", "z2", "f2", "bs12"])
def test_simulate_with_balls_matches_run(group_name, request):
    group = request.getfixturevalue(group_name)
    rng = random.Random(11)
    a = group.nonidentity_ids[:1]
    c = coding(SIGMA, [(a, 2), ((), 1)])
    p = pattern_of(group, c)
    # the second budget is below 2 * coding_length(c) = 2: the first ball rules
    for budget, steps in ((300, 300), (1, 2 * coding_length(c))):
        for _ in range(10):
            m = random_machine(group, rng)
            direct = run_accepts(m, p, steps)
            balls = simulate_with_balls(m, c, budget)
            assert balls.kind == ("accepted" if isinstance(direct, Accepted)
                                  else "exhausted")
            assert balls.steps == direct.steps


def test_simulate_with_balls_exhausts(z):
    m = machine(z, ("q0", "acc"), {1}, {(0, 0): (0, 0, 1)})
    c = coding(SIGMA, [((), 1)])
    assert simulate_with_balls(m, c, 50).kind == "exhausted"


def test_head_displacement_bound(z2):
    import random as _random
    rng = _random.Random(3)
    m = random_machine(z2, rng)
    cfg = initial_config(m, Pattern({z2.identity: 1}))
    for t in range(1, 120):
        cfg = step_moving(m, cfg)
        assert z2.length_of(cfg.head) <= t


def test_run_trace_deterministic(z2):
    import random as _random
    from groupshift.machines import trace_run
    rng1, rng2 = _random.Random(9), _random.Random(9)
    m1, m2 = random_machine(z2, rng1), random_machine(z2, rng2)
    p = Pattern({z2.identity: 2})
    t1 = [(c.state, c.head, dict(c.tape)) for c in trace_run(m1, p, 80)]
    t2 = [(c.state, c.head, dict(c.tape)) for c in trace_run(m2, p, 80)]
    assert t1 == t2
