"""Set-up and verdict tasks of the four workloads.

`setup(name, inputs)` builds the program objects (groups, specs, machines,
patterns) and warms the caches the tasks rely on; it is what `setup_s`
times.  It returns the task list: (task type, callable) pairs, where the
callable runs one verdict task against the public API and returns whether
every check of it passed.  Tasks call through the `groupshift` module
namespace (`gs.extendable`, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import itertools

import groupshift as gs

import inputs as gen
import oracles

Task = tuple  # (task type, zero-argument callable returning bool)


def setup(name: str, data: dict) -> list[Task]:
    return SETUPS[name](data)


def _machine(group, delta_rows, n_states: int):
    delta = {(s, q): (w, r, m) for s, q, w, r, m in delta_rows}
    return gs.GMachineSpec(group, tuple(f"q{i}" for i in range(n_states)),
                           frozenset({n_states - 1}), gs.Alphabet(gen.SIGMA),
                           0, delta)


def ball_words(kind: str, n: int) -> list[tuple[int, ...]]:
    """Geodesic words of B_n for z, z2 and f2, enumerated without the library."""
    if kind == "z":
        return [(1,) * k for k in range(n + 1)] + [(2,) * k for k in range(1, n + 1)]
    if kind == "z2":
        return [tuple(gen.z2_word(x, y)) for x, y in oracles.diamond(n)]
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    inverse = {1: 2, 2: 1, 3: 4, 4: 3}
    for _ in range(n):
        frontier = [w + (s,) for w in frontier for s in (1, 2, 3, 4)
                    if not w or s != inverse[w[-1]]]
        out.extend(frontier)
    return out


# -- search -------------------------------------------------------------------------


def _setup_search(data: dict) -> list[Task]:
    z, z2, f2 = gen.make_group("z"), gen.make_group("z2"), gen.make_group("f2")
    groups = {"z2": z2, "f2": f2}
    mirror = gs.builtin_mirror(z2)
    one_or_less = {("f2", 1): gs.builtin_one_or_less(f2, 1),
                   ("z2", 2): gs.builtin_one_or_less(z2, 2)}
    tasks: list[Task] = []

    def extend_task(pattern, spec, radius, expect):
        return lambda: gs.extendable(pattern, spec, radius) is expect

    for inst in data["mirror"]:
        r = inst["radius"]
        mirror.forbidden.patterns_up_to(z2, max(2 * r, 1))
        gs.ball(z2, r)
        p = gs.Pattern({z2.element(gen.z2_word(x, y)): v for x, y, v in inst["cells"]})
        tasks.append((f"mirror_r{r}", extend_task(p, mirror, r, inst["expect"])))
    for inst in data["one_or_less"]:
        g, r = groups[inst["kind"]], inst["radius"]
        spec = one_or_less[(inst["kind"], inst["k"])]
        spec.forbidden.patterns_up_to(g, max(2 * r, 1))
        gs.ball(g, r)
        p = gs.Pattern({g.element(tuple(w)): v for w, v in inst["cells"]})
        tasks.append((f"one_or_less_{inst['kind']}",
                      extend_task(p, spec, r, inst["expect"])))
    for inst in data["domino"]:
        gs.ball(z, inst["radius"])
        gs.ball(z, inst["a1"])
        m = _machine(z, inst["delta"], inst["states"])
        tasks.append(("domino", _domino_task(z, m, inst)))
    return tasks


def _domino_task(z, machine, inst):
    rg, h, a1, expect = inst["radius"], inst["height"], inst["a1"], inst["expect"]
    window = {(z.element(w), level) for w in ball_words("z", rg)
              for level in range(h + 1)}

    def task() -> bool:
        instance = gs.compile_domino(z, machine, gs.WindowedA1(a1))
        out = gs.verify_reduction_window(instance, rg, h)
        if not expect:
            return isinstance(out, gs.Unsatisfiable)
        if not isinstance(out, gs.Satisfiable):
            return False
        product = instance.product_group()
        line = product.factors[1]
        cells = {}
        for e, sym in out.witness.items():
            word = line.word_of(product.component(e, 1))
            cells[(product.component(e, 0), word.count(1) - word.count(2))] = sym
        return (set(cells) == window
                and cells[(z.identity, 0)] == tuple(instance.origin_symbol)
                and not oracles.domino_violations(z, instance, cells))

    return task


# -- walk ---------------------------------------------------------------------------


def _setup_walk(data: dict) -> list[Task]:
    groups = {kind: gen.make_group(kind) for kind in gen.KINDS}
    tasks: list[Task] = []
    for inst in data["machines"]:
        g = groups[inst["kind"]]
        m = _machine(g, inst["delta"], 3)
        p = gs.Pattern({g.element(tuple(w)): s for w, s in inst["pattern"]})
        gamma = {s: tuple(w) for s, w in inst["gamma"]}
        gamma[0] = ()
        entries = [(tuple(w), s) for w, s in inst["pattern"]]
        entries += [(tuple(w), s) for w, (_, s) in zip(inst["coding_extra"],
                                                       inst["pattern"])]
        c = gs.coding(gs.Alphabet(gen.SIGMA), entries)
        tasks.append(("machine", _machine_task(m, p, gamma, c, inst["steps"],
                                               inst["budget"])))
    for inst in data["paths"]:
        tasks.append(("path", _path_task(groups[inst["kind"]], inst["steps"])))
    for inst in data["visits"]:
        tasks.append(("visit", _visit_task(groups[inst["kind"]], inst["kind"],
                                           inst["n"])))
    return tasks


def _machine_task(m, p, gamma, c, steps, budget):
    """The dual-route check, then acceptance three ways: directly, after
    retargeting, and through the growing-ball simulation."""
    stretch = 1 + max(len(w) for w in gamma.values())

    def task() -> bool:
        if gs.fixed_moving_equivalent(m, p, steps) is not True:
            return False
        direct = gs.run_accepts(m, p, budget)
        retargeted = gs.retarget_generators(m, gamma)
        # one original step costs between 1 and `stretch` retargeted steps
        if isinstance(direct, gs.Accepted):
            again = gs.run_accepts(retargeted, p, direct.steps * stretch)
        else:
            again = gs.run_accepts(retargeted, p, budget)
        balls = gs.simulate_with_balls(m, c, budget)
        accepted = isinstance(direct, gs.Accepted)
        return (isinstance(again, gs.Accepted) == accepted
                and (balls.kind == "accepted") == accepted)

    return task


def _path_task(group, steps: int):
    def task() -> bool:
        run = gs.PathRun(gs.PathMachine(group), check=True)
        run.run(steps)
        run.check_full()
        return len(run.path) >= 2 and run.path[0] == group.identity

    return task


def _visit_task(group, kind: str, n: int):
    expected = {group.element(w) for w in ball_words(kind, n)}

    def task() -> bool:
        vm = gs.VisitMachine(group)
        events = vm.run_until_n(n, 300_000)
        visited = {e.cell for e in events if e.kind == "visit" and e.n == n}
        return len(expected) == oracles.ball_size(kind, n) and expected <= visited

    return task


# -- cover --------------------------------------------------------------------------


def _setup_cover(data: dict) -> list[Task]:
    groups = {kind: gen.make_group(kind) for kind in ("z", "z2", "f2")}
    tasks: list[Task] = []
    for inst in data["delone"]:
        g, kind = groups[inst["kind"]], inst["kind"]
        n, radius = inst["n"], inst["radius"]
        spec = gs.builtin_delone(g, n)
        gs.ball(g, radius)
        gs.ball(g, n)
        made: dict = {}

        def greedy(g=g, kind=kind, n=n, radius=radius, made=made) -> bool:
            made["out"] = out = gs.greedy_delone_configuration(g, n, radius)
            values = set(out.assignment.values())
            return len(out) == oracles.ball_size(kind, radius) and 1 in values \
                and values <= {0, 1, 2}

        tasks.append(("greedy", greedy))
        tasks.append(("admissible", lambda spec=spec, made=made:
                      gs.locally_admissible(made["out"], spec) is True))
        for rank, word, value in inst["corruptions"]:
            tasks.append(("corrupted", _corrupt_task(g, spec, made, rank,
                                                     tuple(word), value)))
    for inst in data["disjoint"]:
        g, kind = groups[inst["kind"]], inst["kind"]
        for k in range(inst["n"] + 1):
            gs.ball(g, k)
        tasks.append(("disjoint", _disjoint_task(g, kind, inst["n"])))
    for inst in data["component"]:
        g = groups[inst["kind"]]
        gs.ball(g, inst["cut"] + inst["count"] + len(inst["seed"]))
        tasks.append(("component", _component_task(g, inst)))
    return tasks


def _corrupt_task(group, spec, made, rank: int, word, value: int):
    """A greedy output with one halo cell (within n of a center) set to
    `value` != 2: the guard rule makes it inadmissible."""
    offset = group.element(word)

    def task() -> bool:
        out = made["out"]
        centers = sorted((c for c, v in out.items() if v == 1),
                         key=group.shortlex_key)
        for i in range(len(centers)):
            cell = group.multiply(centers[(rank + i) % len(centers)], offset)
            if cell in out.assignment:
                break
        else:
            return False
        if out[cell] != 2:
            return False
        corrupted = dict(out.assignment)
        corrupted[cell] = value
        return gs.locally_admissible(gs.Pattern(corrupted), spec) is False

    return task


def _disjoint_task(group, kind: str, n: int):
    balls = [[group.element(w) for w in ball_words(kind, k)] for k in range(n + 1)]

    def task() -> bool:
        gs_, hs_ = gs.disjoint_ball_sequences(group, n)
        if len(gs_) != n + 1 or len(hs_) != n + 1:
            return False
        family = [{group.identity}]
        for k in range(n + 1):
            family.append({group.multiply(gs_[k], b) for b in balls[k]})
            family.append({group.multiply(hs_[k], b) for b in balls[k]})
        return all(not (a & b) for a, b in itertools.combinations(family, 2))

    return task


def _component_task(group, inst):
    """The punctured ball's components in closed form: in Z the two rays, in
    F2 the reduced words sharing a prefix of length cut+1, and in Z^2 the
    whole annulus (at least two layers wide here)."""
    cut, seed, count = inst["cut"], tuple(inst["seed"]), inst["count"]
    kind, top = inst["kind"], cut + count + len(seed)
    start = group.element(seed)

    def same_component(e) -> bool:
        word = group.word_of(e)
        if not cut < len(word) <= top:
            return False
        if kind == "z2":
            return True
        if kind == "z":
            return word[0] == seed[0]
        return word[:cut + 1] == seed[:cut + 1]

    def task() -> bool:
        seq = gs.component_sequence(group, cut, seed, count)
        return (len(seq) == count + 1 and len(set(seq)) == count + 1
                and seq[0] == start and all(map(same_component, seq)))

    return task


# -- words --------------------------------------------------------------------------


def _setup_words(data: dict) -> list[Task]:
    tasks: list[Task] = [("words", _words_task(inst)) for inst in data["tasks"]]
    for inst in data["xtime"]:
        tasks.append(("xtime", _xtime_task(inst)))
    return tasks


def _words_task(inst):
    kind = inst["kind"]
    identities = [tuple(w) for w in inst["identities"]]
    negatives = [tuple(w) for w in inst["negatives"]]
    canon = [(tuple(a), tuple(b)) for a, b in inst["canon"]]
    alphabet = gs.Alphabet(("0", "1"))
    entries = [(tuple(w), s) for w, s in inst["coding"]]
    j, conflict_word, conflict_sym = inst["conflict"]
    base_j = entries[j][0]

    def task() -> bool:
        group = gen.make_group(kind)          # cold: no ball or key caches
        if not all(gs.solve_word_problem(group, w) for w in identities):
            return False
        if any(gs.solve_word_problem(group, w) for w in negatives):
            return False
        for a, b in canon:
            e = gs.canonical_form(group, a)
            if e != gs.canonical_form(group, b) or group.element(group.word_of(e)) != e:
                return False
        good = gs.check_consistency(group, gs.coding(alphabet, entries))
        bad = gs.check_consistency(group, gs.coding(
            alphabet, entries + [(tuple(conflict_word), conflict_sym)]))
        return (isinstance(good, gs.Consistent)
                and len(good.pattern) == inst["distinct"]
                and isinstance(bad, gs.Inconsistent)
                and bad.witness == (base_j, tuple(conflict_word))
                and len(gs.ball(group, inst["ball"])) == oracles.ball_size(kind, inst["ball"]))

    return task


def _xtime_task(inst):
    params = gen.XTIME_PARAMS[inst["params"]]

    def task() -> bool:
        group = gen.make_group(inst["kind"])
        return [gs.xtime_symbol(group, params, i) for i in inst["indices"]] \
            == inst["expect"]

    return task


SETUPS = {"search": _setup_search, "walk": _setup_walk, "cover": _setup_cover,
          "words": _setup_words}
