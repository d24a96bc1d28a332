"""Seeded input generators for the four workloads.

Every generator returns plain JSON data (words are lists of generator ids), so
the same seed gives byte-identical inputs and `digest` can name them.  The
shapes (how many instances of each type, radii, step caps) are fixed; the
seed chooses their content.  Where instance cost varies a lot with content,
the generator samples within fixed strata (search nodes for the mirror shift,
tape growth for machines, verdict for domino windows), so every seed gives a
round of about the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random

import groupshift as gs

import oracles

KINDS = ("z", "z2", "f2", "bs", "rw", "dp", "fp")

Z4_RULES = (("a a", "A"), ("a^-1 a^-1", "A^-1"), ("a A", "A a"),
            ("a^-1 A^-1", "A^-1 a^-1"), ("a A^-1", "a^-1"),
            ("A^-1 a", "a^-1"), ("a^-1 A", "a"), ("A a^-1", "a"))


def make_group(kind: str):
    """A fresh group object of one of the seven benchmark kinds."""
    if kind == "z":
        return gs.FreeAbelianGroup(1, names=["a"])
    if kind == "z2":
        return gs.free_abelian_group(2)
    if kind == "f2":
        return gs.free_group(2)
    if kind == "bs":
        return gs.bs_group(2)
    if kind == "rw":
        return gs.RewritingGroup(["A", "A^-1", "a", "a^-1"], list(Z4_RULES))
    if kind == "dp":
        return gs.direct_product(gs.cyclic_group(2),
                                 gs.FreeAbelianGroup(1, names=["a"]))
    if kind == "fp":
        return gs.free_product(gs.cyclic_group(2), gs.cyclic_group(3))
    raise ValueError(kind)


def group_json(kind: str) -> dict:
    """The same groups in the CLI's JSON schema."""
    z_a = {"kind": "free_abelian", "rank": 1, "names": ["a"]}
    c2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}
    c3 = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    return {
        "z": z_a,
        "z2": {"kind": "free_abelian", "rank": 2},
        "f2": {"kind": "free", "rank": 2},
        "bs": {"kind": "bs", "n": 2},
        "rw": {"kind": "rewriting", "generators": ["A", "A^-1", "a", "a^-1"],
               "rules": [list(r) for r in Z4_RULES]},
        "dp": {"kind": "direct_product", "factors": [c2, z_a]},
        "fp": {"kind": "free_product", "factors": [c2, c3]},
    }[kind]


# Words that are the identity by construction, per kind (as display strings).
RELATORS = {
    "z": (), "z2": (), "f2": (),
    "bs": ("a b a^-1 a^-1 b^-1",),
    "rw": ("A a^-1 a^-1",),
    "dp": ("t1 t1", "t1 a t1 a^-1"),
    "fp": ("t1.0 t1.0", "t1.1 t1.1 t1.1", "t1.1 t2"),
}
# An element of infinite order, so its powers are pairwise distinct.
INFINITE_ORDER = {"z": "a", "z2": "x", "f2": "a", "bs": "a", "rw": "a",
                  "dp": "a", "fp": "t1.0 t1.1"}

# Step caps of the dual-route check, per kind (see BENCHMARK notes).
FME_STEPS = {"z": 100, "z2": 100, "f2": 100, "bs": 100, "dp": 100, "fp": 60,
             "rw": 20}
RUN_BUDGET = 300
SIGMA = ("_", "0", "1")


def digest(inputs) -> str:
    return hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)


# -- shared word helpers ----------------------------------------------------------


def _letters(group) -> tuple[int, ...]:
    return group.nonidentity_ids


def _random_word(rng, group, length: int) -> list[int]:
    ids = _letters(group)
    return [rng.choice(ids) for _ in range(length)]


def _reduced_word(rng, group, length: int) -> list[int]:
    word: list[int] = []
    for _ in range(length):
        options = [s for s in _letters(group)
                   if not word or s != group.inverse_letter(word[-1])]
        word.append(rng.choice(options))
    return word


def identity_word(rng, group, kind: str, max_len: int) -> list[int]:
    """u r u^-1 v v^-1 (with r a relator, or empty), all by construction."""
    u = _random_word(rng, group, rng.randrange(0, max_len + 1))
    v = _random_word(rng, group, rng.randrange(0, max_len + 1))
    rels = RELATORS[kind]
    r = list(group.parse_word(rng.choice(rels))) if rels else []
    if rels and rng.random() < 0.5:
        r = list(group.inverse_word(r))
    return u + r + list(group.inverse_word(u)) + v + list(group.inverse_word(v))


def _insert_identity(rng, group, kind: str, word: list[int]) -> list[int]:
    """The word with a nonempty identity word inserted somewhere."""
    pos = rng.randrange(0, len(word) + 1)
    inner: list[int] = []
    while not inner:
        inner = identity_word(rng, group, kind, 2)
    return word[:pos] + inner + word[pos:]


def _geodesic_word(rng, group, kind: str, length: int) -> list[int]:
    """A word of the given length that is a geodesic in z, z2 or f2."""
    if kind == "f2":
        return _reduced_word(rng, group, length)
    if kind == "z":
        return [rng.choice((1, 2))] * length
    x, y = rng.choice((1, 2)), rng.choice((3, 4))
    k = rng.randrange(0, length + 1)
    return [x] * k + [y] * (length - k)


def z2_word(x: int, y: int) -> list[int]:
    return [1 if x > 0 else 2] * abs(x) + [3 if y > 0 else 4] * abs(y)


# -- search -------------------------------------------------------------------------

# (radius, support size, target node count, how many): positives whose
# backtracking search visits exactly the target number of nodes.
MIRROR_POSITIVE = ((3, 19, 8, 1), (2, 6, 11, 2))
# (radius, support size, broken rule, how many): a vertical red/non-red pair,
# or two reds on one row with every cell between them in the support
MIRROR_NEGATIVE = ((3, 16, "column", 1), (2, 6, "column", 1), (2, 6, "row", 1))
# kind, k, radius, count, every how many an instance has two nonzero cells
ONE_OR_LESS = (("f2", 1, 2, 18, 6), ("z2", 2, 3, 12, 4))
DOMINO_SEEDED = (2, 3, 3, 3)                        # radius, height, #sat, #unsat
CRITERION_12 = (
    # (rules {(sym, q): (write, next, move)}, states, radius, height, a1)
    ({}, 1, 2, 3, 4),
    ({(1, 0): (1, 0, 1), (0, 0): (0, 1, 0)}, 2, 4, 6, 8),
    ({(0, 0): (0, 0, 1), (1, 0): (1, 0, 1)}, 2, 4, 6, 8),
)


def _mirror_config(rng, r: int) -> dict:
    """An admissible mirror configuration on B_r: one optional red column,
    every row symmetric about it."""
    c = rng.choice([None] + list(range(-r, r + 1)))
    out = {}
    for y in range(-r, r + 1):
        w = r - abs(y)
        row: dict[int, int] = {}
        for x in range(-w, w + 1):
            if x == c:
                row[x] = oracles.RED
            elif c is not None and 2 * c - x in row:
                row[x] = row[2 * c - x]
            else:
                row[x] = rng.choice((oracles.WHITE, oracles.BLACK))
        out.update({(x, y): v for x, v in row.items()})
    return out


def _plant_violation(rng, r: int, cfg: dict, size: int, rule: str) -> dict:
    """A restriction of an admissible configuration with one rule broken
    by cells that are all inside the support."""
    cells = oracles.diamond(r)
    while True:
        x, y = rng.choice(cells)
        if rule == "column":
            if (x, y + 1) not in cfg:
                continue
            above = oracles.RED if cfg[(x, y)] != oracles.RED else rng.choice(
                (oracles.WHITE, oracles.BLACK))
            broken = {(x, y): cfg[(x, y)], (x, y + 1): above}
        else:
            row = sorted(c for c in cells if c[1] == y)
            if len(row) < 2:
                continue
            (x1, _), (x2, _) = sorted(rng.sample(row, 2))
            broken = {(xi, y): cfg[(xi, y)] for xi in range(x1, x2 + 1)}
            broken[(x1, y)] = broken[(x2, y)] = oracles.RED
        rest = [c for c in cells if c not in broken]
        extra = rng.sample(rest, max(0, min(len(rest), size - len(broken))))
        out = dict(broken)
        out.update({c: cfg[c] for c in extra})
        return out


def _search(rng) -> dict:
    mirror = []
    for r, size, nodes, count in MIRROR_POSITIVE:
        while count:
            cfg = _mirror_config(rng, r)
            assign = {c: cfg[c] for c in rng.sample(sorted(cfg), size)}
            verdict, got = oracles.mirror_extendable(assign, r)
            if verdict and got == nodes:
                mirror.append({"radius": r, "expect": True, "cells": sorted(
                    [x, y, v] for (x, y), v in assign.items())})
                count -= 1
    for r, size, rule, count in MIRROR_NEGATIVE:
        for _ in range(count):
            assign = _plant_violation(rng, r, _mirror_config(rng, r), size, rule)
            if oracles.mirror_extendable(assign, r)[0]:
                raise RuntimeError("a planted mirror violation was extendable")
            mirror.append({"radius": r, "expect": False, "cells": sorted(
                [x, y, v] for (x, y), v in assign.items())})

    one_or_less = []
    for kind, k, radius, count, every in ONE_OR_LESS:
        group = make_group(kind)
        for i in range(count):
            nonzero = 2 if i % every == every - 1 else 1
            words: list = []
            while len(words) < 4:
                w = _geodesic_word(rng, group, kind, rng.randrange(0, radius + 1))
                if all(group.element(w) != group.element(u) for u in words):
                    words.append(w)
            cells = [[w, rng.randrange(1, k + 1) if j < nonzero else 0]
                     for j, w in enumerate(words)]
            one_or_less.append({"kind": kind, "k": k, "radius": radius,
                                "cells": cells, "expect": nonzero <= 1})

    domino = []
    for rules, n, rg, h, a1 in CRITERION_12:
        delta = total_delta(rules, n)
        domino.append({"delta": sorted([s, q, *out] for (s, q), out in delta.items()),
                       "states": n, "radius": rg, "height": h, "a1": a1,
                       "expect": oracles.domino_expectation(delta, n, rg, h)})
    rg, h, n_sat, n_unsat = DOMINO_SEEDED
    want = {True: n_sat, False: n_unsat}
    while any(want.values()):
        delta = {(s, q): (rng.randrange(3), rng.randrange(2), rng.randrange(3))
                 for s in range(3) for q in range(2)}
        expect = oracles.domino_expectation(delta, 2, rg, h)
        if want[expect]:
            want[expect] -= 1
            domino.append({"delta": sorted([s, q, *out]
                                           for (s, q), out in delta.items()),
                           "states": 2, "radius": rg, "height": h,
                           "a1": 2 * rg, "expect": expect})
    return {"mirror": mirror, "one_or_less": one_or_less, "domino": domino}


def total_delta(rules: dict, n_states: int) -> dict:
    """Complete a partial rule table with stay-put self loops."""
    return {(s, q): rules.get((s, q), (s, q, 0))
            for s in range(len(SIGMA)) for q in range(n_states)}


# -- walk ---------------------------------------------------------------------------

# Machines per kind: WALK_POOL random machines are ranked by tape work (the
# sum of the tape's size over the run, which the dual-route check's cost
# follows closely) and every fifth is kept, from the third on: every seed
# draws machines at the same quantiles of cost.
WALK_POOL, WALK_EVERY, WALK_FIRST = 135, 5, 2
# Checked path runs, two per kind (these lengths and 6/5 of them): each costs
# about 75 ms or more, above every machine task, so the tail task is one of
# these fixed runs rather than whichever seeded machine lands there
PATH_STEPS = {"z": 15000, "z2": 13000, "f2": 17000, "bs": 12000, "rw": 1500,
              "dp": 13000, "fp": 3300}
VISITS = (("z", 3), ("z2", 2), ("f2", 1))


def _tape_work(group, delta, pattern, steps: int) -> int:
    """Sum over the run of the tape's size: what the dual-route check pays."""
    tape = {group.element(w): s for w, s in pattern if s}
    head, state, total = group.identity, 0, 0
    for _ in range(steps):
        write, state, move = delta[(tape.get(head, 0), state)]
        if write:
            tape[head] = write
        else:
            tape.pop(head, None)
        head = group.multiply_letter(head, move)
        total += len(tape) + 1
    return total


def _walk(rng) -> dict:
    machines = []
    for kind in KINDS:
        group = make_group(kind)
        steps = FME_STEPS[kind]
        moves = (0,) + _letters(group)
        other = _letters(group)[-1]
        # gamma(s) = s t t^-1 for a fixed t: equal to s in every group
        gamma = sorted([s, [s, other, group.inverse_letter(other)]] for s in moves if s)
        pool = []
        for _ in range(WALK_POOL):
            delta = {(s, q): (rng.randrange(3), rng.randrange(3), rng.choice(moves))
                     for s in range(3) for q in range(3)}
            pattern = [[[], rng.randrange(1, 3)],
                       [[rng.choice(_letters(group))], rng.randrange(3)]]
            pool.append((_tape_work(group, delta, pattern, steps), delta, pattern))
        pool.sort(key=lambda m: m[0])
        for _, delta, pattern in pool[WALK_FIRST::WALK_EVERY]:
            machines.append({
                "kind": kind, "steps": steps, "budget": RUN_BUDGET,
                "delta": sorted([s, q, *out] for (s, q), out in delta.items()),
                "pattern": pattern, "gamma": gamma,
                "coding_extra": [_insert_identity(rng, group, kind, w)
                                 for w, _ in pattern]})
    paths = [{"kind": kind, "steps": steps}
             for kind in KINDS for steps in (PATH_STEPS[kind], PATH_STEPS[kind] * 6 // 5)]
    visits = [{"kind": kind, "n": n} for kind, n in VISITS]
    return {"machines": machines, "paths": paths, "visits": visits}


# -- cover ----------------------------------------------------------------------------

# kind, n, radius, corruptions; the counts put the median task inside the
# Z^2 r=12 corruptions and the tail inside the F2 r=8 ones
DELONE = (("z", 1, 8, 5), ("z", 2, 16, 5), ("z2", 1, 8, 10), ("z2", 2, 12, 20),
          ("f2", 1, 6, 10), ("f2", 1, 8, 20))
DISJOINT = (("z", 2), ("z2", 2), ("f2", 3))
# kind, instances, radius m of the ball the call builds (cut + count + |seed|,
# fixed so the seed does not change the cost), cut range, extra seed length
COMPONENTS = (("z", 3, 12, (1, 4), (1, 3)), ("z2", 3, 10, (1, 3), (1, 3)),
              ("f2", 3, 7, (1, 3), (1, 2)))


def _cover(rng) -> dict:
    delone = []
    for kind, n, radius, count in DELONE:
        group = make_group(kind)
        # the guard scan meets the corrupted cell at its center: a center early
        # in the scan keeps every corruption's cost that of the copy
        corruptions = [[rng.randrange(3),
                        _geodesic_word(rng, group, kind, rng.randrange(1, n + 1)),
                        rng.randrange(2)]
                       for _ in range(count)]
        delone.append({"kind": kind, "n": n, "radius": radius,
                       "corruptions": corruptions})
    disjoint = [{"kind": kind, "n": n} for kind, n in DISJOINT]
    component = []
    for kind, instances, m, cuts, extra in COMPONENTS:
        group = make_group(kind)
        for _ in range(instances):
            cut = rng.randrange(*cuts)
            seed = _geodesic_word(rng, group, kind, cut + rng.randrange(*extra))
            component.append({"kind": kind, "cut": cut, "seed": seed,
                              "count": m - cut - len(seed)})
    return {"delone": delone, "disjoint": disjoint, "component": component}


# -- words ------------------------------------------------------------------------------

WORD_TASKS_PER_KIND = 14
WORDS_PER_TASK = 30
COLD_BALL = {"z": 40, "z2": 12, "f2": 6, "bs": 7, "rw": 20, "dp": 20, "fp": 10}
XTIME = (("z", "default", 20_000), ("z", "paper", 2_000), ("f2", "paper", 2_000))
XTIME_LOOKUPS = 40
XTIME_PARAMS = {"default": gs.XTimeParams(), "paper": gs.PAPER_EXAMPLE_PARAMS}


def _words(rng) -> dict:
    tasks = []
    for kind in KINDS:
        group = make_group(kind)
        base = list(group.parse_word(INFINITE_ORDER[kind]))
        for _ in range(WORD_TASKS_PER_KIND):
            identities = [identity_word(rng, group, kind, 6)
                          for _ in range(WORDS_PER_TASK)]
            negatives = ([_reduced_word(rng, group, rng.randrange(1, 9))
                          for _ in range(WORDS_PER_TASK // 2)]
                         if kind == "f2" else [])
            canon = []
            for _ in range(WORDS_PER_TASK // 2):
                w = _random_word(rng, group, rng.randrange(0, 9))
                canon.append([w, _insert_identity(rng, group, kind, w)])
            m = rng.randrange(4, 9)
            entries = [[base * i, rng.randrange(2)] for i in range(m)]
            entries += [[_insert_identity(rng, group, kind, w), s]
                        for w, s in rng.sample(entries, m // 2)]
            j = rng.randrange(m)
            conflict = [_insert_identity(rng, group, kind, base * j),
                        1 - entries[j][1]]
            tasks.append({"kind": kind, "identities": identities,
                          "negatives": negatives, "canon": canon,
                          "coding": entries, "distinct": m,
                          "conflict": [j, *conflict],
                          "ball": COLD_BALL[kind]})
    xtime = []
    for kind, params, length in XTIME:
        # the eager prefix is the independent route the lazy lookups must match
        prefix = gs.xtime_prefix(make_group(kind), XTIME_PARAMS[params], length)
        indices = sorted(rng.randrange(length) for _ in range(XTIME_LOOKUPS))
        xtime.append({"kind": kind, "params": params, "indices": indices,
                      "expect": [prefix[i] for i in indices]})
    return {"tasks": tasks, "xtime": xtime}


GENERATORS = {"search": _search, "walk": _walk, "cover": _cover, "words": _words}
