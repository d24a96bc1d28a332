"""Built-in subshift families: one-or-less, mirror, Delone, amenable witness."""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import BallBudgetError, MalformedInputError, UnsupportedGroupError, require_nonnegative
from .cayley import BallTable, ball, disjoint_ball_sequences
from .groups import Element, FreeAbelianGroup, Group
from .patterns import Alphabet, Pattern
from .subshifts import ForbiddenFamily, GeneratedFamily, SubshiftSpec


def builtin_one_or_less(group: Group, k: int = 1) -> SubshiftSpec:
    """Configurations with at most one nonzero cell; alphabet {0} u {1..k}."""
    if k < 1:
        raise MalformedInputError("one-or-less requires k >= 1")
    alphabet = Alphabet(tuple(str(i) for i in range(k + 1)))
    nonzero = range(1, k + 1)

    def gen(g: Group, radius: int) -> Iterable[Pattern]:
        for cell in ball(g, radius).sorted_elements():
            if cell == g.identity:
                continue
            for s in nonzero:
                for t in nonzero:
                    yield Pattern({g.identity: s, cell: t})

    family = GeneratedFamily(gen, name=f"one_or_less_{k}")
    return SubshiftSpec(alphabet, group, family)


MIRROR_WHITE, MIRROR_BLACK, MIRROR_RED = 0, 1, 2


def builtin_mirror(group: Group) -> SubshiftSpec:
    """The mirror shift over Z^2: full-height red columns act as mirrors.

    Rows run along the first generator axis; the two-cell vertical patterns
    force red cells to propagate vertically, and the three row schemas forbid
    broken reflections around a red cell.
    """
    if not isinstance(group, FreeAbelianGroup) or group.rank != 2:
        raise UnsupportedGroupError("the mirror shift lives on Z^2")
    alphabet = Alphabet(("white", "black", "red"))
    x_step = 1          # first generator: +x
    y_step = 3          # second generator: +y

    def row_cells(group: Group, length: int) -> list[Element]:
        return [group.element((x_step,) * i) for i in range(length)]

    def gen(g: Group, radius: int) -> Iterable[Pattern]:
        up = g.element((y_step,))
        origin = g.identity
        for a in (MIRROR_WHITE, MIRROR_BLACK):
            yield Pattern({origin: a, up: MIRROR_RED})
            yield Pattern({origin: MIRROR_RED, up: a})
        symbols = (MIRROR_WHITE, MIRROR_BLACK, MIRROR_RED)
        for l in range(radius + 1):
            for w in itertools.product(symbols, repeat=l):
                cells_rr = row_cells(g, l + 2)
                yield Pattern({cells_rr[0]: MIRROR_RED,
                               **{cells_rr[i + 1]: w[i] for i in range(l)},
                               cells_rr[l + 1]: MIRROR_RED})
                cells = row_cells(g, 2 * l + 3)
                for left, right in ((MIRROR_BLACK, MIRROR_WHITE),
                                    (MIRROR_WHITE, MIRROR_BLACK)):
                    assignment = {cells[0]: left}
                    for i in range(l):
                        assignment[cells[1 + i]] = w[i]
                    assignment[cells[l + 1]] = MIRROR_RED
                    for i in range(l):
                        assignment[cells[l + 2 + i]] = w[l - 1 - i]
                    assignment[cells[2 * l + 2]] = right
                    yield Pattern(assignment)

    family = GeneratedFamily(gen, name="mirror")
    return SubshiftSpec(alphabet, group, family)


class DeloneFamily(ForbiddenFamily):
    """The three Y_n rule families over {0, 1, 2}.

    Bullet (i) -- every translated B_4n fully inside the support must contain
    a 1 -- is kept symbolic: expanding {0,2}-patterns on B_4n is doubly
    exponential.  Bullet (ii) becomes the equivalent two-cell family, bullet
    (iii) is a connected-component scan over Cayley adjacency restricted to
    the support.
    """

    semantic = True

    def __init__(self, n: int):
        if n < 1:
            raise MalformedInputError("Delone parameter n must be >= 1")
        self.n = n

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        out = []
        for cell in ball(group, min(radius, self.n)).sorted_elements():
            if cell == group.identity:
                continue
            for v in (0, 1):
                out.append(Pattern({group.identity: 1, cell: v}))
        return out

    def violates(self, group: Group, x: Pattern) -> bool:
        if self._violates_guard(group, x):
            return True
        table = ball(group, self.n).table
        with table.lock:
            # the guard looks up only the cells it touches; the other two
            # rules read every cell, so the pattern is keyed by node once
            nodes = {table.node(c): v for c, v in x.items()}
            return (self._violates_cover(group, x, table, nodes)
                    or self._violates_linking(table, nodes))

    def _violates_guard(self, group: Group, x: Pattern) -> bool:
        table = ball(group, self.n).table
        with table.lock:
            for c, v in x.items():
                if v != 1:
                    continue
                shells = table.walk(table.node(c), self.n)
                next(shells)   # the center itself
                for shell in shells:
                    for w in shell:
                        got = x.get(table.element(w))
                        if got is not None and got != 2:
                            return True
        return False

    def _violates_cover(self, group: Group, x: Pattern, table: BallTable,
                        nodes: dict) -> bool:
        reach = 4 * self.n
        prune = group.geodesics_extend()
        max_len = max((group.length_of(c) for c in x.support), default=0)
        for center in x.assignment:
            if prune and group.length_of(center) + reach > max_len:
                continue  # some geodesic extension of the center exits the support
            seen_one = False
            for shell in table.walk(table.node(center), reach):
                if not all(w in nodes for w in shell):
                    break
                seen_one = seen_one or any(nodes[w] == 1 for w in shell)
            else:
                if not seen_one:
                    return True
        return False

    @staticmethod
    def _violates_linking(table: BallTable, nodes: dict) -> bool:
        live = [w for w, v in nodes.items() if v in (1, 2)]
        live_set = set(live)
        seen: set = set()
        for start in live:
            if start in seen:
                continue
            ones = 0
            for shell in table.walk(start, within=live_set):
                seen.update(shell)
                ones += sum(1 for w in shell if nodes[w] == 1)
            if ones >= 2:
                return True
        return False


def builtin_delone(group: Group, n: int) -> SubshiftSpec:
    return SubshiftSpec(Alphabet(("0", "1", "2")), group, DeloneFamily(n))


def greedy_delone_configuration(group: Group, n: int, radius: int) -> Pattern:
    """Greedy maximal 4n-separated point set, haloed by 2s out to distance n.

    Scans B_radius in shortlex order; selected cells get 1, cells within
    distance n of a selected cell get 2, the rest 0.  The output satisfies
    every Y_n constraint whose support lies inside the window.
    """
    if n < 1:
        raise MalformedInputError("n must be >= 1")
    if radius < 4 * n:
        raise MalformedInputError("radius must be at least 4n")
    sep = 4 * n
    window = ball(group, radius)
    try:
        # every cell the bordered walk below keeps lies in this margin
        ball(group, radius + (sep - 1) // 2)
    except BallBudgetError:
        pass  # cells beyond the capped table are walked with key arithmetic
    table, cells = window.table, window.sorted_elements()
    with table.lock:
        order = [table.index[c] for c in cells]
        chosen: set[int] = set()
        blocked: set = set()   # within 4n-1 of a chosen center
        halo: set = set()      # within n of a chosen center (gets a 2)
        for i in order:
            if i in blocked:
                continue
            chosen.add(i)
            for d, shell in enumerate(table.walk(i, sep - 1, limit=radius + sep - 1)):
                blocked.update(shell)
                if d <= n:
                    halo.update(shell)
    return Pattern({c: 1 if i in chosen else 2 if i in halo else 0
                    for c, i in zip(cells, order)})


def builtin_amenable_witness(group: Group, n_max: int) -> SubshiftSpec:
    """Y = Y1 n Y2: a unique 2 whose translated-ball views must agree.

    Y1 forbids two 2s; Y2 ties the configuration around g_n to the one around
    h_n (the disjoint translated-ball sequences) whenever a 2 marks the base
    cell.
    """
    if group.is_finite():
        raise UnsupportedGroupError("the witness construction needs an infinite group")
    require_nonnegative("n_max", n_max)
    alphabet = Alphabet(("0", "1", "2"))
    gs, hs = disjoint_ball_sequences(group, n_max)

    def gen(g: Group, radius: int) -> Iterable[Pattern]:
        window = ball(g, radius)
        for cell in window.sorted_elements():
            if cell == g.identity:
                continue
            yield Pattern({g.identity: 2, cell: 2})
        for n in range(n_max + 1):
            for b in ball(g, n).sorted_elements():
                left = g.multiply(gs[n], b)
                right = g.multiply(hs[n], b)
                if left not in window or right not in window:
                    continue
                for s in range(3):
                    for t in range(3):
                        if s == t:
                            continue
                        if left == g.identity or right == g.identity:
                            continue
                        yield Pattern({g.identity: 2, left: s, right: t})

    family = GeneratedFamily(gen, name=f"amenable_witness_{n_max}")
    return SubshiftSpec(alphabet, group, family)
