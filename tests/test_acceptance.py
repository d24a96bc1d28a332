"""The acceptance gate: one test per criterion, timed where the criterion
pins a budget, printing one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""

import itertools
import random
import time

import pytest

from groupshift import (
    Accepted,
    Alphabet,
    BallBudgetError,
    Consistent,
    GMachineSpec,
    Inconsistent,
    PAPER_EXAMPLE_PARAMS,
    Pattern,
    Satisfiable,
    SubshiftSpec,
    FiniteFamily,
    Unsatisfiable,
    WindowedA1,
    XTimeParams,
    ball,
    bs_group,
    builtin_delone,
    check_consistency,
    coding,
    compile_domino,
    cyclic_group,
    decidable_completion_contains,
    direct_product,
    disjoint_ball_sequences,
    extendable,
    fixed_moving_equivalent,
    free_abelian_group,
    free_group,
    free_product,
    greedy_delone_configuration,
    locally_admissible,
    pattern_of,
    retarget_generators,
    run_accepts,
    simulate_with_balls,
    solve_word_problem,
    time_value,
    verify_reduction_window,
    xtime_prefix,
    xtime_symbol,
)
from groupshift.cayley import enumerate_words
from groupshift.domino import grounded_violations
from groupshift.groups import FreeAbelianGroup, RewritingGroup
from groupshift.pathwalk import PathMachine, PathRun, VisitMachine
from groupshift.simulation import build_simulation, build_u_rules

from tests.conftest import window_cells
from tests.test_cayley import brute_ball_f2, brute_ball_z2
from tests.test_machines import SIGMA, machine, random_machine
from tests.test_patterns import all_completions
from tests.test_simulation import PAPER_EXAMPLE, big_power


def report(num, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {detail}"
    print(line)
    assert ok, line


BITS = Alphabet(("0", "1"))


def fresh_groups():
    return {
        "Z": FreeAbelianGroup(1, names=["a"]),
        "Z2": free_abelian_group(2),
        "F2": free_group(2),
        "BS": bs_group(2),
    }


def test_criterion_01_paper_codings():
    t0 = time.perf_counter()
    bs = bs_group(2)
    consistent = coding(BITS, [
        (bs.parse_word(w), s) for w, s in
        [("", 0), ("b", 1), ("a", 1), ("a b", 0), ("b a a", 0), ("b a", 1)]])
    inconsistent = coding(BITS, [
        (bs.parse_word(w), s) for w, s in
        [("", 0), ("a a", 1), ("b a b^-1 a", 1),
         ("a", 1), ("b a", 1), ("a b a b^-1", 0)]])
    res1 = check_consistency(bs, consistent)
    res2 = check_consistency(bs, inconsistent)
    elapsed = time.perf_counter() - t0
    ok = (isinstance(res1, Consistent) and len(res1.pattern.support) == 5
          and isinstance(res2, Inconsistent)
          and res2.witness == (bs.parse_word("a b a b^-1"),
                               bs.parse_word("b a b^-1 a"))
          and elapsed < 1.0)
    report(1, ok, f"worked-example codings ({elapsed:.3f}s)")


def test_criterion_02_randomized_word_problem():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    kinds = {
        "free": free_group(2),
        "free_abelian": free_abelian_group(2),
        "bs": bs_group(2),
        "finite": cyclic_group(6),
        "direct_product": direct_product(cyclic_group(2),
                                         FreeAbelianGroup(1, names=["a"])),
        "free_product": free_product(cyclic_group(2), cyclic_group(3)),
        "rewriting": RewritingGroup(
            ["A", "A^-1", "a", "a^-1"],
            [("a a", "A"), ("a^-1 a^-1", "A^-1"), ("a A", "A a"),
             ("a^-1 A^-1", "A^-1 a^-1"), ("a A^-1", "a^-1"),
             ("A^-1 a", "a^-1"), ("a^-1 A", "a"), ("A a^-1", "a")]),
    }
    relators = {
        "bs": [bs_group(2).parse_word("a b a^-1 a^-1 b^-1")],
        "rewriting": [kinds["rewriting"].parse_word("A a^-1 a^-1")],
    }
    checked = 0
    for name, g in kinds.items():
        ids = g.nonidentity_ids
        for _ in range(1000):
            w = tuple(rng.choice(ids) for _ in range(rng.randrange(0, 9)))
            kind_rel = relators.get(name)
            mode = rng.randrange(3)
            if mode == 0:
                probe = w + g.inverse_word(w)
            elif mode == 1 and kind_rel:
                r = rng.choice(kind_rel)
                probe = w + r + g.inverse_word(w)
            elif mode == 1 and g.kind == "free_abelian":
                u = tuple(rng.choice(ids) for _ in range(4))
                probe = u + w + g.inverse_word(u) + g.inverse_word(w)
            elif mode == 1 and g.kind == "finite":
                probe = w * 6  # |element| divides the group order 6
            else:
                probe = w + g.inverse_word(w)
            assert solve_word_problem(g, probe), (name, probe)
            checked += 1
    # free-group negative controls: nonempty reduced words
    f2 = kinds["free"]
    for _ in range(1000):
        word = []
        for _ in range(rng.randrange(1, 9)):
            options = [s for s in f2.nonidentity_ids
                       if not word or s != f2.inverse_letter(word[-1])]
            word.append(rng.choice(options))
        assert not solve_word_problem(f2, tuple(word))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 5.0, f"{checked} identities classified ({elapsed:.2f}s)")


def test_criterion_03_ball_counts():
    f2, z2 = free_group(2), free_abelian_group(2)
    for n in range(9):
        oracle = len(brute_ball_f2(n))
        closed = 2 * 3 ** n - 1
        assert oracle == closed
        assert len(ball(f2, n)) == closed
    for n in range(21):
        oracle = len(brute_ball_z2(n))
        closed = 2 * n * n + 2 * n + 1
        assert oracle == closed
        assert len(ball(z2, n)) == closed
    report(3, True, "ball counts vs oracle+closed forms (F2 n<=8, Z2 n<=20)")


def test_criterion_04_fixed_moving_conjugacy():
    t0 = time.perf_counter()
    rng = random.Random(4)
    count = 0
    for name, g in fresh_groups().items():
        p = Pattern({g.identity: 1})
        for _ in range(25):
            m = random_machine(g, rng)
            assert fixed_moving_equivalent(m, p, 500), name
            count += 1
    elapsed = time.perf_counter() - t0
    report(4, count == 100 and elapsed < 30.0,
           f"{count} machines x 500 steps ({elapsed:.1f}s)")


def test_criterion_05_path_invariants():
    lengths = {}
    budgets = {}
    for name, g in fresh_groups().items():
        run = PathRun(PathMachine(g), check=True)   # per-step invariants on
        # regression budget: path length 200 within 2000 steps on every kind
        run.run(2000)
        budgets[name] = run.max_path_len
        assert run.max_path_len >= 200, name
        for i in range(100_000 - 2000):
            run.step()
            if (i + 1) % 20_000 == 0:
                run.check_full()
        run.check_full()
        lengths[name] = run.max_path_len
    report(5, True, f"1e5 checked steps; lengths at 2000 steps: {budgets}")


def test_criterion_06_visit_coverage():
    z2 = free_abelian_group(2)
    vm = VisitMachine(z2)
    events = vm.run_until_n(2, 300_000)
    visited_b2 = {e.cell for e in events if e.kind == "visit" and e.n == 2}
    assert ball(z2, 2).elements <= visited_b2
    assert len(ball(z2, 2)) == 13
    f2 = free_group(2)
    vm2 = VisitMachine(f2)
    events2 = vm2.run_until_n(1, 50_000)
    visited_b1 = {e.cell for e in events2 if e.kind == "visit" and e.n == 1}
    assert ball(f2, 1).elements <= visited_b1
    assert len(ball(f2, 1)) == 5
    report(6, True, "layer-3 covers Z2 B2 (13) and F2 B1 (5) before increments")


def test_criterion_07_retargeting():
    rng = random.Random(7)
    g = RewritingGroup(
        ["A", "A^-1", "a", "a^-1"],
        [("a a", "A"), ("a^-1 a^-1", "A^-1"), ("a A", "A a"),
         ("a^-1 A^-1", "A^-1 a^-1"), ("a A^-1", "a^-1"),
         ("A^-1 a", "a^-1"), ("a^-1 A", "a"), ("A a^-1", "a")])
    a_cap, a_cap_inv, a, a_inv = (g.parse_word(x)[0]
                                  for x in ("A", "A^-1", "a", "a^-1"))
    gamma = {0: (), a: (a,), a_inv: (a_inv,),
             a_cap: (a, a), a_cap_inv: (a_inv, a_inv)}
    old_budget, new_budget = 150, 150 * 2 + 150
    agreements = 0
    for _ in range(20):
        m = random_machine(g, rng)
        m2 = retarget_generators(m, gamma)
        for _ in range(50):
            cells = [g.identity, g.element((a,)), g.element((a_cap,))]
            p = Pattern({c: rng.randrange(len(SIGMA))
                         for c in rng.sample(cells, rng.randrange(0, 3))})
            r1 = run_accepts(m, p, old_budget)
            r2 = run_accepts(m2, p, new_budget)
            assert isinstance(r1, Accepted) == isinstance(r2, Accepted)
            agreements += 1
    report(7, agreements == 1000, f"{agreements} verdict pairs agree")


def test_criterion_08_decidable_completion():
    group = FreeAbelianGroup(1, names=["a"])
    c0 = coding(BITS, [(group.parse_word("a"), 1)])
    enum = [c0]
    oracle = all_completions(group, dict(c0.entries), 1, BITS)
    words = list(enumerate_words(group, 1))
    checked = 0
    for r in range(len(words) + 1):
        for subset in itertools.combinations(words, r):
            for values in itertools.product((0, 1), repeat=r):
                c = coding(BITS, list(zip(subset, values)))
                expected = frozenset(c.entries) in oracle
                assert decidable_completion_contains(group, enum, c) == expected
                checked += 1
    # windowed semantics of the completed family vs the original on B2:
    # the proxy radius covers the completion supports around any window cell
    orig = SubshiftSpec(BITS, group, FiniteFamily((pattern_of(group, c0),)))
    completed_patterns = []
    for entries in oracle:
        cc = coding(BITS, sorted(entries))
        completed_patterns.append(pattern_of(group, cc))
    comp = SubshiftSpec(BITS, group, FiniteFamily(tuple(completed_patterns)))
    window = ball(group, 2).sorted_elements()
    agree = 0
    for values in itertools.product((0, 1), repeat=len(window)):
        x = Pattern(dict(zip(window, values)))
        assert extendable(x, orig, 4) == extendable(x, comp, 4)
        agree += 1
    report(8, True, f"{checked} membership verdicts + {agree} windowed checks")


def test_criterion_09_disjoint_sequences():
    for name, group in (("Z", FreeAbelianGroup(1, names=["a"])),
                        ("Z2", free_abelian_group(2)),
                        ("F2", free_group(2))):
        for n in range(3):
            gs, hs = disjoint_ball_sequences(group, n)
            family = [{group.identity}]
            for k in range(n + 1):
                family.append({group.multiply(gs[k], e)
                               for e in ball(group, k).elements})
                family.append({group.multiply(hs[k], e)
                               for e in ball(group, k).elements})
            for s1, s2 in itertools.combinations(family, 2):
                assert not (s1 & s2), (name, n)
            again = disjoint_ball_sequences(group, n)
            assert again == (gs, hs)
    report(9, True, "pairwise-disjoint and rerun-deterministic for n <= 2")


def test_criterion_10_delone():
    z = FreeAbelianGroup(1, names=["a"])
    z2, f2 = free_abelian_group(2), free_group(2)
    # Z reference layout at n=1: period four, 1 2 0 2
    pat = greedy_delone_configuration(z, 1, 8)
    for e, v in pat.items():
        w = z.word_of(e)
        offset = len(w) if (w and w[0] == 1) else -len(w)
        assert v == {0: 1, 1: 2, 2: 0, 3: 2}[offset % 4]
    checked = []
    for group, name in ((z, "Z"), (z2, "Z2"), (f2, "F2")):
        for n in (1, 2):
            radius = 8 * n
            if name == "F2" and n == 2:
                # 8n = 16 exceeds the documented ball budget (|B_16| ~ 8.6e7);
                # the budget error is the specified behaviour, and the checks
                # run at the largest radius the default budget allows
                with pytest.raises(BallBudgetError):
                    ball(free_group(2), radius)
                radius = 9
            out = greedy_delone_configuration(group, n, radius)
            assert locally_admissible(out, builtin_delone(group, n)), (name, n)
            checked.append(f"{name}/n={n}/r={radius}")
    report(10, True, "; ".join(checked))


def test_criterion_11_time_and_stream():
    assert time_value(1) == 1
    assert time_value(2) == big_power(2, 7) == 128
    assert time_value(3) == big_power(3, 31) == 3 ** 31
    z = FreeAbelianGroup(1, names=["a"])
    got = xtime_prefix(z, PAPER_EXAMPLE_PARAMS, len(PAPER_EXAMPLE))
    assert got == PAPER_EXAMPLE
    params = XTimeParams()
    eager = xtime_prefix(z, params, 10_000)
    lazy = [xtime_symbol(z, params, i) for i in range(10_000)]
    assert lazy == eager
    report(11, True, "time(1..3) exact; example prefix; 1e4 lazy==eager")


def test_criterion_12_domino_suite():
    t0 = time.perf_counter()
    z = FreeAbelianGroup(1, names=["a"])
    a_plus = 1
    accept_now = machine(z, ("q1",), {0}, {})
    move_right = machine(z, ("walk", "acc"), {1}, {
        (1, 0): (1, 0, a_plus), (0, 0): (0, 1, 0)})
    loop = machine(z, ("walk", "acc"), {1}, {
        (0, 0): (0, 0, a_plus), (1, 0): (1, 0, a_plus)})
    out1 = verify_reduction_window(compile_domino(z, accept_now, WindowedA1(4)),
                                   2, 3)
    out2 = verify_reduction_window(compile_domino(z, move_right, WindowedA1(8)),
                                   4, 6)
    inst3 = compile_domino(z, loop, WindowedA1(8))
    out3 = verify_reduction_window(inst3, 4, 6)
    # and the hand-built loop-forever witness passes a full constraint scan
    assign = {}
    for (gcell, zlev) in window_cells(inst3, 4, 6):
        w = z.word_of(gcell)
        offset = len(w) if (w and w[0] == 1) else -len(w)
        state = 1 if (offset == zlev and offset <= 4) else 0
        assign[(gcell, zlev)] = (0, state, 1 if zlev == 0 else 0)
    witness_clean = grounded_violations(inst3.g_group, inst3.constraints, assign) == []
    elapsed = time.perf_counter() - t0
    ok = (isinstance(out1, Unsatisfiable) and isinstance(out2, Unsatisfiable)
          and isinstance(out3, Satisfiable) and witness_clean
          and elapsed < 300)
    report(12, ok, f"unsat/unsat/sat + witness scan ({elapsed:.2f}s)")


def test_criterion_13_bundle_structure():
    z = FreeAbelianGroup(1, names=["a"])
    sigma = Alphabet(("_", "0", "1"))
    inner = GMachineSpec(z, ("scan", "acc"), frozenset({1}), sigma, 0, {
        (2, 0): (2, 1, 0), (0, 0): (0, 0, 0), (1, 0): (1, 0, 0),
        (0, 1): (0, 1, 0), (1, 1): (1, 1, 0), (2, 1): (2, 1, 0)})
    alpha = Alphabet(("0", "1"))
    bundle = build_simulation(z, inner, "0", alpha, n_max=1)
    n_work = len(bundle.wrapped.work_alphabet)
    k = len(bundle.wrapped.states)
    copies = [c for c in bundle.transition if c.tag == "A2"]
    assert len(copies) == n_work * (n_work - 1)
    assert len(bundle.ending) == n_work
    head_ci = bundle.final_alphabet.index("head")
    # each ending pattern pins one work symbol at the accepting head value
    for con in bundle.ending:
        req = dict(con.cells[0])
        assert req[head_ci] == frozenset({k})
    assert bundle.phi_total()
    # U-rule copy/shift semantics on three clean and three mutated windows
    u = build_u_rules(z, PAPER_EXAMPLE_PARAMS, 3)
    tape = lambda lbl, f: (u.alphabet.value_index("tape", lbl), f)
    a1 = z.element((1,))
    clean = [
        {(z.identity, 0): tape(".", 1), (z.identity, 1): tape(".", 1)},
        {(z.identity, 0): tape(".", 2), (z.identity, 1): tape(">", 2)},
        {(z.identity, 0): tape("a", 1), (a1, 1): tape("a", 1)},
    ]
    mutated = [
        {(z.identity, 0): tape(".", 1), (z.identity, 1): tape(".", 2)},
        {(z.identity, 0): tape(".", 2), (z.identity, 1): tape(">", 0)},
        {(z.identity, 0): tape("a", 1), (a1, 1): tape("a", 0)},
    ]
    for w in clean:
        assert not [v for v in u.check_window(w)
                    if v.startswith(("copy", "shift"))]
    for w in mutated:
        assert [v for v in u.check_window(w)
                if v.startswith(("copy", "shift"))]
    report(13, True,
           f"|A2|={len(copies)}, ending={len(bundle.ending)}, phi total, u-rules")


def test_criterion_14_balls_equal_direct_runs():
    rng = random.Random(14)
    z2 = free_abelian_group(2)
    pairs = 0
    for _ in range(50):
        m = random_machine(z2, rng)
        entries = []
        for _ in range(rng.randrange(1, 4)):
            w = tuple(rng.choice(z2.nonidentity_ids)
                      for _ in range(rng.randrange(0, 3)))
            entries.append((w, rng.randrange(len(SIGMA))))
        c = coding(SIGMA, entries)
        res = check_consistency(z2, c)
        if isinstance(res, Inconsistent):
            assert simulate_with_balls(m, c, 200).kind == "inconsistent"
            continue
        direct = run_accepts(m, res.pattern, 200)
        balls = simulate_with_balls(m, c, 200)
        assert (balls.kind == "accepted") == isinstance(direct, Accepted)
        pairs += 1
    # inconsistent returned exactly on inconsistent codings
    bad = coding(SIGMA, [((), 1), ((0,), 2)])  # identity letter: same cell
    assert simulate_with_balls(random_machine(z2, rng), bad, 50).kind == "inconsistent"
    report(14, pairs > 25, f"{pairs} consistent pairs agree + inconsistent path")
