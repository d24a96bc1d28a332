import itertools

import pytest
from hypothesis import settings, strategies as st

from groupshift import (
    Alphabet,
    CompositeFamily,
    FiniteFamily,
    FreeAbelianGroup,
    Pattern,
    RewritingGroup,
    SubshiftSpec,
    apply_block_code,
    ball,
    bs_group,
    cyclic_group,
    direct_product,
    enumerate_words,
    finite_group,
    free_abelian_group,
    free_group,
    free_product,
)
from groupshift.cayley import distance_from_identity
from groupshift.errors import MalformedInputError
from groupshift.groups import FreeProductGroup


# the groups of the small-window properties, and the largest radius per
# group whose ball has at most five cells
GROUPS = {"z": FreeAbelianGroup(1, names=["a"]), "z2": free_abelian_group(2),
          "f2": free_group(2)}
MAX_RADIUS = {"z": 2, "z2": 1, "f2": 1}
CHECKS = settings(derandomize=True, max_examples=60, deadline=None)

# Z on the generating set {A = a^2, a}: normal forms A^k a^{0,1}
Z_A_A2_RULES = [("a a", "A"), ("a^-1 a^-1", "A^-1"), ("a A", "A a"),
                ("a^-1 A^-1", "A^-1 a^-1"), ("a A^-1", "a^-1"), ("A^-1 a", "a^-1"),
                ("a^-1 A", "a"), ("A a^-1", "a")]

# S3 as a table group: element i is the i-th permutation of (0, 1, 2) in
# lexicographic order, and i * j composes them (apply j first)
_S3 = list(itertools.permutations(range(3)))
S3_TABLE = [[_S3.index(tuple(p[q[i]] for i in range(3))) for q in _S3] for p in _S3]

# the seven kinds of the benchmark plus a finite table group, each built
# fresh by its maker
KINDS = {
    "z": lambda: FreeAbelianGroup(1, names=["a"]),
    "z2": lambda: free_abelian_group(2),
    "f2": lambda: free_group(2),
    "bs12": lambda: bs_group(2),
    "z_a_a2": lambda: RewritingGroup(["A", "A^-1", "a", "a^-1"], Z_A_A2_RULES),
    "c2xz": lambda: direct_product(cyclic_group(2), FreeAbelianGroup(1, names=["a"])),
    "c2*c3": lambda: free_product(cyclic_group(2), cyclic_group(3)),
    "s3": lambda: finite_group(S3_TABLE),
}


@st.composite
def finite_specs(draw, group, max_patterns):
    """A random finite family of one- and two-cell patterns on B_2, over two
    or three symbols."""
    k = draw(st.integers(2, 3))
    near = ball(group, 2).sorted_elements()
    patterns = []
    for _ in range(draw(st.integers(1, max_patterns))):
        support = draw(st.lists(st.sampled_from(near), min_size=1, max_size=2,
                                unique=True))
        patterns.append(Pattern({e: draw(st.integers(0, k - 1)) for e in support}))
    return SubshiftSpec(Alphabet(tuple(str(i) for i in range(k))), group,
                        FiniteFamily(tuple(patterns)))


def oracle_violates(family, group, x):
    """Oracle: the uncompiled pattern scan.  Every forbidden pattern up to the
    support's diameter is tried at every translate that puts its first cell
    (in shortlex order) on a cell of x, with group arithmetic per cell.  A
    composite family is scanned part by part; a semantic part keeps its own
    `violates`."""
    if isinstance(family, CompositeFamily):
        return any(oracle_violates(p, group, x) for p in family.parts)
    if family.semantic:
        return family.violates(group, x)
    return any(oracle_matches_somewhere(group, q, x)
               for q in family.patterns_up_to(group, oracle_support_diameter(group, x.support)))


def oracle_support_diameter(group, support):
    cells = list(support)
    best = 0
    for i, a in enumerate(cells):
        inv = group.inverse_element(a)
        for b in cells[i + 1:]:
            best = max(best, distance_from_identity(group, group.multiply(inv, b)))
    return best


def oracle_matches_somewhere(group, q, x):
    """True if some translate g*support(q) lies in support(x) and agrees."""
    if len(q) == 0:
        return True
    cells = q.sorted_items(group)
    anchor, _ = cells[0]
    anchor_inv = group.inverse_element(anchor)
    for c in x.support:
        g = group.multiply(c, anchor_inv)
        if all(x.get(group.multiply(g, h)) == v for h, v in cells):
            return True
    return False


def brute_force_extendable(pattern, spec, radius):
    """Oracle: enumerate every total assignment on the ball."""
    group = spec.group
    window = ball(group, radius).sorted_elements()
    fixed = dict(pattern.assignment)
    free = [c for c in window if c not in fixed]
    for values in itertools.product(range(len(spec.alphabet)), repeat=len(free)):
        total = dict(fixed)
        total.update(zip(free, values))
        if not oracle_violates(spec.forbidden, group, Pattern(total)):
            return True
    return False


def brute_force_factor(y, spec, code, radius):
    """Oracle: enumerate every total assignment on B_{radius+reach}, apply the
    block code and compare the image with y at y's targets."""
    window = ball(spec.group, radius + code.reach()).sorted_elements()
    for values in itertools.product(range(len(spec.alphabet)), repeat=len(window)):
        total = Pattern(dict(zip(window, values)))
        image = apply_block_code(total, code)
        if (all(image.get(g) == v for g, v in y.items())
                and not oracle_violates(spec.forbidden, spec.group, total)):
            return True
    return False


def window_cells(instance, radius_g, height_z):
    """The (g, level) cells of a G x Z window of `verify_reduction_window`,
    level-major: each level is B_radius_g in shortlex order, bottom first."""
    base = ball(instance.g_group, radius_g).sorted_elements()
    return [(g, z) for z in range(height_z + 1) for g in base]


@pytest.fixture(scope="session")
def f2():
    return free_group(2)


@pytest.fixture(scope="session")
def z2():
    return free_abelian_group(2)


@pytest.fixture(scope="session")
def z():
    # Z with a single generator named a (and its inverse)
    return FreeAbelianGroup(1, names=["a"])


@pytest.fixture(scope="session")
def bs12():
    return bs_group(2)


@pytest.fixture(scope="session")
def z4_rewriting():
    """Z presented on the generating set {A=a^2, A^-1, a, a^-1}."""
    return KINDS["z_a_a2"]()


@pytest.fixture(scope="session")
def z2xz2():
    return direct_product(cyclic_group(2), FreeAbelianGroup(1, names=["a"]))


def oracle_letters(node):
    """Oracle: a `ConsWord`'s word by a walk of its whole parent chain, with
    no word kept on any node read or filled."""
    out = []
    while node.parent is not None:
        out.append(node.letter)
        node = node.parent
    out.reverse()
    return tuple(out)


def oracle_word(group, e):
    """Oracle: the canonical word of an element of a free group, a rewriting
    group or a free product, whose syllables are spelled in their factors."""
    syllables = oracle_letters(e.key)
    if not isinstance(group, FreeProductGroup):
        return syllables
    return tuple(x for fi, sub in syllables
                 for x in group.embed_word(fi, group.factors[fi].key_letters(sub)))


def oracle_check_symbols(x, size):
    """Oracle: the pattern symbol check as one loop over the values, which
    names the first value outside the alphabet."""
    for v in x.assignment.values():
        if not 0 <= v < size:
            raise MalformedInputError(f"pattern symbol {v} outside alphabet")


def oracle_normal_form(rules, word):
    """Oracle: rewrite to a fixpoint, rescanning from the left after every
    rewrite; at each position the first rule in list order that matches
    fires.  `rules` are (lhs, rhs) letter tuples."""
    w = list(word)
    longest = max(len(lhs) for lhs, _ in rules)
    pos = 0
    while True:
        for i in range(max(0, pos - longest + 1), len(w)):
            rule = next(((lhs, rhs) for lhs, rhs in rules
                         if tuple(w[i:i + len(lhs)]) == lhs), None)
            if rule is not None:
                w[i:i + len(rule[0])] = rule[1]
                pos = i
                break
        else:
            return tuple(w)


# -- key-arithmetic oracles for the ball-table scans -------------------------
#
# The BFS walks below redo the group arithmetic at every step, with no table:
# they are the breadth-first searches the table replaced, kept as written so
# the integer walks have an independent reference.


def oracle_ball(group, n):
    """{element: distance from the identity} over B_n, by a fresh BFS."""
    dist = {group.identity: 0}
    frontier = [group.identity]
    for r in range(1, n + 1):
        nxt = []
        for e in frontier:
            for s in group.nonidentity_ids:
                f = group.multiply_letter(e, s)
                if f not in dist:
                    dist[f] = r
                    nxt.append(f)
        frontier = nxt
    return dist


def oracle_edges(group, n):
    dist = oracle_ball(group, n)
    return {(e, s, group.multiply_letter(e, s)) for e in dist
            for s in group.nonidentity_ids if group.multiply_letter(e, s) in dist}


def oracle_translated_ball_cells(group, center, radius):
    return list(oracle_shells(group, center, radius))


def oracle_shells(group, center, radius):
    """Yield the BFS shells around center, cells at graph distance 0..radius."""
    shell = {center}
    seen = {center}
    yield shell
    for _ in range(radius):
        nxt = set()
        for e in shell:
            for s in group.nonidentity_ids:
                f = group.multiply_letter(e, s)
                if f not in seen:
                    seen.add(f)
                    nxt.add(f)
        shell = nxt
        yield shell


def oracle_component(group, cells, start):
    comp = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for s in group.nonidentity_ids:
                f = group.multiply_letter(e, s)
                if f in cells and f not in comp:
                    comp.add(f)
                    nxt.append(f)
        frontier = nxt
    return comp


def oracle_greedy_delone(group, n, radius):
    """The greedy 4n-separated configuration with unpruned translated balls."""
    dist = oracle_ball(group, radius)
    cells = sorted(dist, key=group.shortlex_key)
    chosen, blocked, halo = set(), set(), set()
    for c in cells:
        if c in blocked:
            continue
        chosen.add(c)
        for d, shell in enumerate(oracle_translated_ball_cells(group, c, 4 * n - 1)):
            blocked.update(shell)
            if d <= n:
                halo.update(shell)
    return Pattern({c: 1 if c in chosen else 2 if c in halo else 0 for c in cells})


def oracle_delone_guard(group, n, x):
    guard = [e for e in oracle_ball(group, n) if e != group.identity]
    return any(x.get(group.multiply(c, g)) not in (None, 2)
               for c, v in x.items() if v == 1 for g in guard)


def oracle_delone_cover(group, n, x):
    reach = 4 * n
    ones = {c for c, v in x.items() if v == 1}
    prune = group.geodesics_extend()
    max_len = max((group.length_of(c) for c in x.support), default=0)
    for center in x.support:
        if prune and group.length_of(center) + reach > max_len:
            continue
        seen_one = False
        for shell in oracle_shells(group, center, reach):
            if not shell <= x.assignment.keys():
                break
            seen_one = seen_one or not ones.isdisjoint(shell)
        else:
            if not seen_one:
                return True
    return False


def oracle_delone_linking(group, x):
    live = {c for c, v in x.items() if v in (1, 2)}
    seen = set()
    for start in live:
        if start not in seen:
            comp = oracle_component(group, live, start)
            seen |= comp
            if sum(1 for c in comp if x[c] == 1) >= 2:
                return True
    return False


# -- word-scan oracles for the ball-table candidate scans -------------------
#
# The sequence builders as they were written before they walked the table:
# every word in length-lex order (reduced or not) is turned into an element
# and its ball translated with `group.multiply`.


def oracle_disjoint_ball_sequences(group, n):
    cap = 1 + 2 * n * (n + 2)
    marked = {group.identity}
    gs, hs = [None] * (n + 1), [None] * (n + 1)
    k = 0
    for word in enumerate_words(group, cap):
        if k > n or len(word) > cap - k:
            break
        base = group.element(word)
        cells = [group.multiply(base, e) for e in oracle_ball(group, k)]
        if any(c in marked for c in cells):
            continue
        marked.update(cells)
        if gs[k] is None:
            gs[k] = base
        else:
            hs[k] = base
            k += 1
    assert k > n, "word scan exhausted before all balls were placed"
    return gs, hs


def oracle_component_sequence(group, n_cut, seed_word, count):
    seed = group.element(seed_word)
    m = n_cut + count + oracle_ball(group, len(seed_word))[seed]
    dist = oracle_ball(group, m)
    assert dist[seed] > n_cut
    component = oracle_component(
        group, {e for e, r in dist.items() if r > n_cut}, seed)
    found = [seed]
    for w in enumerate_words(group, n_cut + count):
        if len(found) == count + 1:
            break
        cand = group.multiply(seed, group.element(w))
        if cand in component and cand not in found:
            found.append(cand)
    return found
