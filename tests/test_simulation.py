"""The clock stream, its product rules and the simulation bundle."""

import random
from dataclasses import replace

import pytest

from groupshift import (
    Accepted,
    Alphabet,
    Exhausted,
    GMachineSpec,
    MalformedInputError,
    PAPER_EXAMPLE_PARAMS,
    Pattern,
    XTimeParams,
    build_simulation,
    build_u_rules,
    build_wrapped_machine,
    free_group,
    oplus_positions,
    time_value,
    xtime_prefix,
    xtime_symbol,
)
from groupshift.simulation import block_length, run_wrapped

PAPER_EXAMPLE = (
    "* + > . . a > . . a^-1 a^-1 > . . a "
    "+ > . . . a > . . . a^-1 a^-1 > . . . a "
    "a a > . . . a^-1 a^-1 a a^-1 > . . . a a^-1 "
    "a^-1 a > . . . a^-1 a a^-1 a^-1 > . . . a a"
).split()


def big_power(base, exp):
    """Independent exponentiation oracle: square-and-multiply."""
    out = 1
    b = base
    while exp:
        if exp & 1:
            out *= b
        b *= b
        exp >>= 1
    return out


def test_time_values():
    assert time_value(1) == 1
    assert time_value(2) == big_power(2, 2 ** 2 + 2 + 1) == 128
    assert time_value(3) == big_power(3, 3 ** 3 + 3 + 1) == 3 ** 31
    with pytest.raises(MalformedInputError):
        time_value(0)


def test_prefix_matches_worked_example(z):
    got = xtime_prefix(z, PAPER_EXAMPLE_PARAMS, len(PAPER_EXAMPLE))
    assert got == PAPER_EXAMPLE


def test_first_symbols(z):
    assert xtime_symbol(z, PAPER_EXAMPLE_PARAMS, 0) == "*"
    assert xtime_symbol(z, PAPER_EXAMPLE_PARAMS, 1) == "+"


def test_lazy_matches_eager_paper_params(z):
    eager = xtime_prefix(z, PAPER_EXAMPLE_PARAMS, 300)
    lazy = [xtime_symbol(z, PAPER_EXAMPLE_PARAMS, i) for i in range(300)]
    assert lazy == eager


def test_lazy_matches_eager_default_params_block1(z):
    # default parameters: the first block has schedule 4 and time(1) = 1
    params = XTimeParams()
    length = 1 + block_length(z, params, 1)
    eager = xtime_prefix(z, params, length)
    lazy = [xtime_symbol(z, params, i) for i in range(length)]
    assert lazy == eager


def test_oplus_positions_consistent(z):
    params = PAPER_EXAMPLE_PARAMS
    positions = [oplus_positions(z, params, n) for n in range(1, 6)]
    assert positions == sorted(positions)
    assert all(b > a for a, b in zip(positions, positions[1:]))
    for n, pos in enumerate(positions, start=1):
        assert xtime_symbol(z, params, pos) == "+"
    # spacing equals the block length
    for n in range(1, 5):
        assert positions[n] - positions[n - 1] == block_length(z, params, n)


def test_oplus_positions_default_large_index(z):
    params = XTimeParams()
    k3 = oplus_positions(z, params, 3)
    assert k3 > time_value(2)           # the second block dwarfs everything
    assert xtime_symbol(z, params, k3) == "+"


def test_f2_stream_counts():
    f2 = free_group(2)
    params = XTimeParams(length_schedule=lambda n: n, time_fn=lambda n: 1)
    prefix = xtime_prefix(f2, params, 40)
    assert prefix[0] == "*" and prefix[1] == "+"
    # block 1: 1 + (1 + 1 + 1) + 4 * (2 + 1 + 1) words of length <= 1
    assert oplus_positions(f2, params, 2) - oplus_positions(f2, params, 1) \
        == block_length(f2, params, 1)


# -- U rules -------------------------------------------------------------------


@pytest.fixture(scope="module")
def u(z):
    return build_u_rules(z, PAPER_EXAMPLE_PARAMS, 3)


def Sym(u, tape, f):
    return (u.alphabet.value_index("tape", tape), f)


def test_u_copy_rule(z, u):
    base = {(z.identity, 0): Sym(u, ".", 1), (z.identity, 1): Sym(u, ".", 1)}
    assert not [v for v in u.check_window(base) if v.startswith(("copy", "shift"))]
    bad = {(z.identity, 0): Sym(u, ".", 1), (z.identity, 1): Sym(u, ">", 2)}
    assert any(v.startswith("copy") for v in u.check_window(bad))


def test_u_shift_rule(z, u):
    a = z.element((1,))
    ok = {(z.identity, 0): Sym(u, "a", 1), (a, 1): Sym(u, "a", 1)}
    assert not any(v.startswith("shift") for v in u.check_window(ok))
    bad = {(z.identity, 0): Sym(u, "a", 1), (a, 1): Sym(u, "a", 2)}
    assert any(v.startswith("shift") for v in u.check_window(bad))


def test_u_level_constant(z, u):
    a = z.element((1,))
    bad = {(z.identity, 0): Sym(u, "*", 0), (a, 0): Sym(u, ".", 0)}
    assert any(v.startswith("level_constant") for v in u.check_window(bad))


def test_u_clock_determinism(z, u):
    # above a star the stream is + > . ... per the worked example
    col = {(z.identity, 0): Sym(u, "*", 0),
           (z.identity, 1): Sym(u, "+", 0),
           (z.identity, 2): Sym(u, ">", 0),
           (z.identity, 3): Sym(u, ".", 0)}
    assert not any(v.startswith("clock") for v in u.check_window(col))
    col[(z.identity, 2)] = Sym(u, ".", 0)
    assert any(v.startswith("clock") for v in u.check_window(col))


def test_u_delone_hook(z):
    params = XTimeParams(length_schedule=lambda n: 1, time_fn=lambda n: 1)
    u = build_u_rules(z, params, 2)
    # k_1 = 1: the level right above a star row must satisfy the n=1 family
    window = {}
    for i in range(-4, 5):
        g = z.element((1,) * i if i >= 0 else (2,) * -i)
        window[(g, 0)] = Sym(u, "*", 0)
        window[(g, 1)] = Sym(u, "+", 2 if i % 4 else 0)  # no 1 anywhere
    hits = u.delone_hook_violations(window)
    assert hits and "delone_hook(n=1)" in hits[0]
    # a proper separated-cover slice passes
    for i in range(-4, 5):
        g = z.element((1,) * i if i >= 0 else (2,) * -i)
        window[(g, 1)] = Sym(u, "+", {0: 1, 1: 2, 2: 0, 3: 2}[i % 4])
    assert not u.delone_hook_violations(window)


def test_u_delone_hook_reports_each_star_level_once(z):
    """A star row of 41 cells under one bad slice is one violation of the
    (star level, n) pair, not one per star cell."""
    params = XTimeParams(length_schedule=lambda n: 1, time_fn=lambda n: 1)
    u = build_u_rules(z, params, 2)
    window = {}
    for i in range(-20, 21):
        g = z.element((1,) * i if i >= 0 else (2,) * -i)
        window[(g, 0)] = Sym(u, "*", 0)
        window[(g, 1)] = Sym(u, "+", 2)  # no 1 anywhere
    assert u.delone_hook_violations(window) == ["delone_hook(n=1)@z=1"]
    assert u.check_window(window) == ["delone_hook(n=1)@z=1"]


# -- the wrapped machine and the bundle -------------------------------------


@pytest.fixture(scope="module")
def inner(z):
    """Accepts iff it reads the pattern symbol '1' at its base cell."""
    sigma = Alphabet(("_", "0", "1"))
    return GMachineSpec(z, ("scan", "acc"), frozenset({1}), sigma, 0, {
        (2, 0): (2, 1, 0),
        (0, 0): (0, 0, 0), (1, 0): (1, 0, 0),
        (0, 1): (0, 1, 0), (1, 1): (1, 1, 0), (2, 1): (2, 1, 0),
    })


def test_wrapped_machine_structure(z, inner):
    wm = build_wrapped_machine(z, inner, Alphabet(("0", "1")), n_max=1)
    assert wm.states[0].startswith("pair")
    assert wm.states[-1] == "ACCEPT"
    # the one-tape walker is built, and delta checked total, at construction
    delta = dict(wm.delta)
    del delta[next(iter(delta))]
    with pytest.raises(MalformedInputError, match="delta not total"):
        replace(wm, delta=delta)


def test_wrapped_machine_accepts_and_rejects(z, inner):
    wm = build_wrapped_machine(z, inner, Alphabet(("0", "1")), n_max=1)
    acc = run_wrapped(wm, Pattern({z.identity: 1}), 400)
    assert isinstance(acc, Accepted) and acc.steps > 0
    assert run_wrapped(wm, Pattern({}), 400) == Exhausted(400)


def test_wrapped_machine_sees_neighbour_cells(z, inner):
    # a 1 at distance 1 is copied during the k=1 phase and found by the scan
    wm = build_wrapped_machine(z, _scan_machine(z), Alphabet(("0", "1")), n_max=2)
    assert isinstance(run_wrapped(wm, Pattern({z.element((1,)): 1}), 4000), Accepted)


def _literal_run_wrapped(spec, read, budget):
    """Independent oracle: the walker on two separate track dicts."""
    group = spec.group
    work_tape = {}
    head = group.identity
    q = 0
    for step in range(budget):
        if q == spec.accepting:
            return Accepted(step)
        b, r, s = spec.delta[(read.get(head, 0), work_tape.get(head, spec.blank), q)]
        if b == spec.blank:
            work_tape.pop(head, None)
        else:
            work_tape[head] = b
        if s:
            head = group.multiply_letter(head, s)
        q = r
    return Accepted(budget) if q == spec.accepting else Exhausted(budget)


def _random_inner(group, rng, blank=0):
    """A random total machine over {_, 0, 1} whose last state accepts."""
    n_states = rng.randrange(2, 5)
    sigma = Alphabet(("_", "0", "1"))
    delta = {(sym, q): (rng.randrange(3), rng.randrange(n_states),
                        rng.randrange(len(group.generators)))
             for sym in range(3) for q in range(n_states)}
    return GMachineSpec(group, tuple(f"q{i}" for i in range(n_states)),
                        frozenset({n_states - 1}), sigma, blank, delta)


@pytest.mark.parametrize("group_name", ["z", "f2"])
def test_run_wrapped_matches_literal_two_track_run(group_name, request):
    group = request.getfixturevalue(group_name)
    rng = random.Random(12)
    accepted = 0
    for case in range(36):
        wm = build_wrapped_machine(group, _random_inner(group, rng),
                                   Alphabet(("0", "1")), n_max=1 + case % 2)
        read = Pattern({group.element(tuple(rng.choice(group.nonidentity_ids)
                                            for _ in range(rng.randrange(3)))):
                        rng.randrange(2) for _ in range(rng.randrange(4))})
        budget = rng.randrange(0, 2001)
        got = run_wrapped(wm, read, budget)
        assert got == _literal_run_wrapped(wm, read, budget)
        accepted += isinstance(got, Accepted)
    assert 0 < accepted < 36


@pytest.mark.parametrize("blank", [1, 2])
def test_wrapped_walker_uses_the_inner_blank(z, blank):
    """The work track's blank, on the walker's tape and under the start
    marker, is the inner machine's, wherever it sits in the alphabet."""
    inner = _random_inner(z, random.Random(blank), blank)
    bundle = build_simulation(z, inner, "0", Alphabet(("0", "1")), n_max=1)
    walker = bundle.wrapped._machine
    assert walker.tape_alphabet[walker.blank] == str(("0", inner.tape_alphabet[blank]))
    tri = bundle.final_alphabet.value_index("tape", ">")
    start = [(tri, 1, 0, work, 1) for work in range(3)]
    assert [any(c.cell_matches(0, sym) for c in bundle.starting)
            for sym in start] == [work != blank for work in range(3)]


def test_run_wrapped_negative_budget_rejected(z, inner):
    wm = build_wrapped_machine(z, inner, Alphabet(("0", "1")), n_max=1)
    with pytest.raises(MalformedInputError):
        run_wrapped(wm, Pattern({}), -1)
    assert run_wrapped(wm, Pattern({}), 0) == Exhausted(0)


def _scan_machine(z):
    """Walks +a twice, accepting when it reads the copied symbol '1'."""
    sigma = Alphabet(("_", "0", "1"))
    delta = {}
    for sym in range(3):
        for q in range(4):
            delta[(sym, q)] = (sym, q, 0)
    delta[(2, 0)] = (2, 3, 0)
    delta[(0, 0)] = (0, 1, 1)
    delta[(1, 0)] = (1, 1, 1)
    delta[(2, 1)] = (2, 3, 0)
    delta[(0, 1)] = (0, 2, 1)
    delta[(1, 1)] = (1, 2, 1)
    delta[(2, 2)] = (2, 3, 0)
    return GMachineSpec(z, ("s0", "s1", "s2", "acc"), frozenset({3}), sigma, 0, delta)


def test_bundle_counts(z, inner):
    alpha = Alphabet(("0", "1"))
    bundle = build_simulation(z, inner, "0", alpha, n_max=1)
    n_work = len(bundle.wrapped.work_alphabet)
    n_read = len(alpha)
    k = len(bundle.wrapped.states)
    assert len(bundle.configuration) == n_read * (n_read - 1)
    assert len(bundle.ending) == n_work
    copies = [c for c in bundle.transition if c.tag == "A2"]
    assert len(copies) == n_work * (n_work - 1)
    # components of the final alphabet
    names = bundle.final_alphabet.names()
    assert names == ("tape", "field", "read", "work", "head")
    assert len(bundle.final_alphabet.values("head")) == k + 1


def test_bundle_phi(z, inner):
    alpha = Alphabet(("0", "1"))
    bundle = build_simulation(z, inner, "0", alpha, n_max=1)
    assert bundle.phi_total()
    alphabet = bundle.final_alphabet
    star = alphabet.value_index("tape", "*")
    dot = alphabet.value_index("tape", ".")
    sym_star = (star, 0, 1, 0, 0)
    sym_dot = (dot, 0, 1, 0, 0)
    assert bundle.phi(sym_star) == 1          # exposes the read track
    assert bundle.phi(sym_dot) == bundle.abar  # background elsewhere
    assert bundle.phi_window() == (z.identity,)


def test_bundle_ending_exclusive(z, inner):
    alpha = Alphabet(("0", "1"))
    bundle = build_simulation(z, inner, "0", alpha, n_max=1)
    k = len(bundle.wrapped.states)
    alphabet = bundle.final_alphabet
    head_ci = alphabet.index("head")
    work_ci = alphabet.index("work")
    import itertools
    sample = itertools.islice(alphabet.symbols(), 0, None, 997)
    for sym in sample:
        matching = [c for c in bundle.ending if c.cell_matches(0, sym)]
        if sym[head_ci] == k:
            assert len(matching) == 1
        else:
            assert not matching


def test_bundle_starting_family(z, inner):
    alpha = Alphabet(("0", "1"))
    bundle = build_simulation(z, inner, "0", alpha, n_max=1)
    alphabet = bundle.final_alphabet
    tri = alphabet.value_index("tape", ">")
    blank = bundle.wrapped.work_alphabet.index("_")
    # a start cell carrying field 1 must hold head state 1
    bad = (tri, 1, 0, blank, 0)
    assert any(c.cell_matches(0, bad) for c in bundle.starting)
    good = (tri, 1, 0, blank, 1)
    assert not any(c.cell_matches(0, good) for c in bundle.starting)
    # work track must be blank under the start marker
    dirty = (tri, 1, 0, (blank + 1) % len(bundle.wrapped.work_alphabet), 1)
    assert any(c.cell_matches(0, dirty) for c in bundle.starting)
