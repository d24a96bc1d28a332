"""Metric balls of Cayley graphs and the recursive element-sequence builders.

Every ball of a group is a prefix of one table (`BallTable`): the breadth-
first search that `ball()` runs numbers the elements in BFS order and keeps
each product e * s it computes as an integer neighbour entry, so the
translated-ball scans walk integers instead of redoing group arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from typing import Iterator, Optional

from .errors import (
    BallBudgetError,
    MalformedInputError,
    UnsupportedGroupError,
    require_nonnegative,
)
from .groups import Element, Group, Letters

DEFAULT_BALL_BUDGET = 200_000

#: `BallTable.nbr` entry of a product not computed yet
UNKNOWN = -2

_new = tuple.__new__   # builds an Element without a Python frame


class BallTable:
    """B_radius of a group's Cayley graph, its elements numbered in BFS order.

    Element i is `elements[i]` and `index` inverts that.  Shell r (the
    elements at distance r from the identity) is the index range
    `starts[r]:starts[r + 1]`, so every B_m is a prefix.  `nbr[i][s - 1]` is
    the index of `elements[i] * s` for the non-identity generator s, -1 when
    that product lies outside the table, and UNKNOWN while it is not computed.

    Growing to radius r computes the rows of shell r - 1 (the products that
    find shell r) and nothing more; each computed edge e * s = f also fills
    f's entry for s^-1, so a row of the outer shell starts with its inward
    entries and the rest are computed on demand.  Rows of shells below
    `radius` are complete.  The table only grows; it is changed only under
    `lock`, which callers of `walk` hold.  A product e * s is
    `_new(Element, (group.key_append(e.key, s),))`: no Python frame but the
    group's `key_append` runs per product.

    A node of a walk is a table index, or the Element itself for a cell
    outside the table (`node` / `element` convert).
    """

    def __init__(self, group: Group):
        self.group = group
        self.lock = group._ball_lock
        self.inverse_col = [group.generators[s].inverse - 1 for s in group.nonidentity_ids]
        self.elements: list[Element] = [group.identity]
        self.index: dict[Element, int] = {group.identity: 0}
        self.starts = [0, 1]
        self.nbr: list[list[int]] = [[UNKNOWN] * len(self.inverse_col)]
        self.full = False          # the whole (finite) group is in the table
        self.views: dict[int, CayleyBall] = {}
        # (radius, budget) of the last growth that overran its budget: B_radius
        # holds more than `budget` elements, so growing that far under a
        # budget no larger fails without trying
        self.overrun: Optional[tuple[int, int]] = None

    @property
    def radius(self) -> int:
        return len(self.starts) - 2

    def size(self, m: int) -> int:
        """|B_m| for m >= 0 (capped at the table)."""
        return self.starts[min(m, self.radius) + 1]

    def shell(self, i: int) -> int:
        """Distance from the identity of element i."""
        return bisect_right(self.starts, i) - 1

    def node(self, e: Element):
        return self.index.get(e, e)

    def element(self, v) -> Element:
        return self.elements[v] if type(v) is int else v

    def grow(self, n: int) -> None:
        """Extend the table shell by shell to radius n, holding at most
        DEFAULT_BALL_BUDGET elements.  A shell is committed only once
        complete: BallBudgetError leaves the table as it was, and a later
        call that would overrun again raises at once (`overrun`)."""
        elements, index, nbr = self.elements, self.index, self.nbr
        key_append = self.group.key_append
        budget = DEFAULT_BALL_BUDGET
        overrun = self.overrun
        if (overrun is not None and not self.full and self.radius < n
                and n >= overrun[0] and budget <= overrun[1]):
            raise BallBudgetError(f"ball budget of {budget} elements exceeded "
                                  f"at radius {overrun[0]}")
        inverse_col, k = self.inverse_col, len(self.inverse_col)
        while not self.full and self.radius < n:
            lo, hi = self.starts[-2], self.starts[-1]
            try:
                for i in range(lo, hi):
                    key, row = elements[i].key, nbr[i]
                    for c in range(k):
                        if row[c] >= 0:
                            continue
                        f = _new(Element, (key_append(key, c + 1),))
                        j = index.get(f)
                        if j is None:
                            j = len(elements)
                            if j >= budget:
                                raise BallBudgetError(
                                    f"ball budget of {budget} elements exceeded "
                                    f"at radius {self.radius + 1}")
                            elements.append(f)
                            index[f] = j
                            nbr.append([UNKNOWN] * k)
                        row[c] = j
                        nbr[j][inverse_col[c]] = i
            except BallBudgetError:
                self.overrun = (self.radius + 1, budget)
                for f in elements[hi:]:
                    del index[f]
                del elements[hi:], nbr[hi:]
                for i in range(lo, hi):
                    nbr[i] = [j if j < hi else UNKNOWN for j in nbr[i]]
                raise
            if len(elements) == hi:
                self.full = True   # no new shell: the group is finite and covered
            else:
                self.starts.append(len(elements))

    def _fill(self, i: int, c: int) -> Element:
        """Compute the entry nbr[i][c] and return the product."""
        f = _new(Element, (self.group.key_append(self.elements[i].key, c + 1),))
        j = self.nbr[i][c] = self.index.get(f, -1)
        if j >= 0:
            self.nbr[j][self.inverse_col[c]] = i
        return f

    def row(self, i: int) -> list[int]:
        """nbr[i] with every entry computed."""
        row = self.nbr[i]
        for c, j in enumerate(row):
            if j == UNKNOWN:
                self._fill(i, c)
        return row

    def walk(self, start, depth: Optional[int] = None, limit: Optional[int] = None,
             within=None) -> Iterator[list]:
        """Yield the BFS shells of nodes around the node `start`: shell d holds
        the nodes first reached after d steps, out to `depth` steps (or until
        a shell is empty).

        `within`: a container of nodes; only those are entered.
        `limit`: the border rule of a scan whose targets lie in B_w, walked to
        depth L with limit = w + L: a cell at depth d farther than limit - d
        from the identity cannot get back into B_w in time and is dropped.
        Its distance is read off the table, and for a cell outside it is
        bounded by its normal-form length (geodesic kinds) or radius + 1.
        Products are computed by `key_append` only at the outer shell and
        beyond, and only when the limit leaves room for them.
        """
        group, elements, index, nbr = self.group, self.elements, self.index, self.nbr
        key_append = group.key_append
        outer = self.radius
        inner = len(elements) if self.full else self.starts[outer]  # complete rows
        geodesic = group.geodesic_normal_form()
        shell, seen, d = [start], {start}, 0
        yield shell
        while shell and (depth is None or d < depth):
            cap = None if limit is None else limit - d - 1   # distance allowed next
            bound = (len(elements) if cap is None or cap >= outer
                     else self.starts[max(cap + 1, 0)])      # indices allowed next
            nxt = []
            for v in shell:
                if type(v) is int and v < inner:
                    for w in nbr[v]:
                        if w < bound and w not in seen and (within is None or w in within):
                            seen.add(w)
                            nxt.append(w)
                    continue
                if type(v) is int:      # outer shell: its open entries lead outward
                    step = []
                    for c, j in enumerate(nbr[v]):
                        # an UNKNOWN product lies in shell `outer` or beyond,
                        # a -1 one beyond: computed only if the cap allows it
                        if j < 0 and (cap is None or cap >= outer + (j == -1)):
                            f = _new(Element, (key_append(elements[v].key, c + 1),)) \
                                if j == -1 else self._fill(v, c)
                            j = index.get(f, f)
                        step.append(j)
                else:                   # outside the table
                    key = v.key
                    step = [index.get(f, f) for f in
                            (_new(Element, (key_append(key, s),))
                             for s in group.nonidentity_ids)]
                for w in step:
                    if type(w) is int:
                        if w < 0 or w >= bound:
                            continue
                    elif cap is not None and \
                            (group.length_of(w) if geodesic else outer + 1) > cap:
                        continue
                    if w not in seen and (within is None or w in within):
                        seen.add(w)
                        nxt.append(w)
            d += 1
            shell = nxt
            yield shell


class CayleyBall:
    """The ball B_n: elements of word length <= n plus all internal edges.

    A view of the prefix B_n of the group's `BallTable`; `distances`,
    `elements` and `edges` are built on first use.
    """

    def __init__(self, group: Group, radius: int, table: BallTable):
        self.group = group
        self.radius = radius
        self.table = table
        self._size = table.size(radius)

    def __contains__(self, e: Element) -> bool:
        i = self.table.index.get(e)
        return i is not None and i < self._size

    def __len__(self) -> int:
        return self._size

    @functools.cached_property
    def distances(self) -> dict[Element, int]:
        t = self.table
        return {t.elements[i]: r for r in range(min(self.radius, t.radius) + 1)
                for i in range(t.starts[r], t.starts[r + 1])}

    @functools.cached_property
    def elements(self) -> frozenset[Element]:
        return frozenset(self.table.elements[:self._size])

    @functools.cached_property
    def edges(self) -> frozenset[tuple[Element, int, Element]]:
        """Triples (g, s, h) with g*s = h, both endpoints inside the ball."""
        t, size = self.table, self._size
        with t.lock:
            return frozenset((t.elements[i], c + 1, t.elements[j])
                             for i in range(size) for c, j in enumerate(t.row(i)) if 0 <= j < size)

    @functools.cached_property
    def _sorted(self) -> list[Element]:
        return sorted(self.table.elements[:self._size], key=self.group.shortlex_key)

    def sorted_elements(self) -> list[Element]:
        return self._sorted

    def to_dot(self) -> str:
        fmt = self.group.format_element
        lines = ["graph cayley_ball {"]
        for e in self.sorted_elements():
            lines.append(f'  "{fmt(e)}";')
        seen = set()
        for g, s, h in sorted(self.edges,
                              key=lambda t: (self.group.shortlex_key(t[0]), t[1])):
            if (h, g) in seen:
                continue
            seen.add((g, h))
            lines.append(f'  "{fmt(g)}" -- "{fmt(h)}" '
                         f'[label="{self.group.generators[s].display}"];')
        lines.append("}")
        return "\n".join(lines)


def ball(group: Group, n: int) -> CayleyBall:
    """Breadth-first canonicalization of B_n; deterministic and cached.  The
    group's table holds at most DEFAULT_BALL_BUDGET elements."""
    if n < 0:
        raise MalformedInputError("radius must be >= 0")
    with group._ball_lock:
        table = group._ball_table
        if table is None:
            table = group._ball_table = BallTable(group)
        table.grow(n)
        view = table.views.get(n)
        if view is None:
            view = table.views[n] = CayleyBall(group, n, table)
        return view


def distance_from_identity(group: Group, e: Element) -> int:
    """|g| via the geodesic normal form, or the shell of g in the ball table
    (grown until it holds g) for non-geodesic kinds."""
    if group.geodesic_normal_form():
        return group.length_of(e)
    table = ball(group, 0).table
    while e not in table.index:
        ball(group, table.radius + 1)
    return table.shell(table.index[e])


def element_distance(group: Group, a: Element, b: Element) -> int:
    return distance_from_identity(group, group.multiply(group.inverse_element(a), b))


def translated_ball_cells(group: Group, center: Element, radius: int
                          ) -> list[set[Element]]:
    """BFS shells around a center: shells[d] = cells at graph distance d."""
    table = ball(group, 0).table
    with table.lock:
        shells = [set(map(table.element, shell))
                  for shell in table.walk(table.node(center), radius)]
    return shells + [set() for _ in range(radius + 1 - len(shells))]


def enumerate_words(group: Group, max_len: int) -> Iterator[Letters]:
    """All words over the non-identity generators, length-then-lex order."""
    ids = group.nonidentity_ids
    for length in range(max_len + 1):
        for tup in itertools.product(ids, repeat=length):
            yield tup


def disjoint_ball_sequences(group: Group, n: int) -> tuple[list[Element], list[Element]]:
    """Greedy lexicographic marking of pairwise disjoint translated balls.

    Returns (g_0..g_n, h_0..h_n) such that {1}, g_k B_k, h_k B_k are pairwise
    disjoint: g_k, then h_k, is the first candidate whose ball is unmarked.
    Candidates are the ball table's elements in index order (the order of
    their first words in length-lex order) up to shell 1 + 2n(n+2) - k, and
    a candidate's ball is walked only up to its first marked shell.  The
    table is grown a shell at a time as far as the candidates reach.
    """
    if group.is_finite():
        raise UnsupportedGroupError("disjoint ball sequences need an infinite group")
    require_nonnegative("n", n)
    cap = 1 + 2 * n * (n + 2)
    table = ball(group, 0).table
    found: list[Element] = []       # g_0, h_0, g_1, h_1, ...
    with table.lock:
        marked = {0}
        i = 1
        while len(found) < 2 * (n + 1):
            k = len(found) // 2
            if i == len(table.elements):
                if table.full:
                    raise UnsupportedGroupError(
                        f"the group has {i} elements, too few for {n + 1} pairs "
                        "of disjoint balls")
                if table.radius >= cap - k:
                    break
                table.grow(table.radius + 1)
                # cells marked outside the table may be inside it now
                marked = {v if type(v) is int else table.node(v) for v in marked}
                continue
            if table.shell(i) > cap - k:
                break
            cells = []
            for shell in table.walk(i, k):
                if not marked.isdisjoint(shell):
                    break
                cells += shell
            else:
                marked.update(cells)
                found.append(table.elements[i])
            i += 1
    if len(found) < 2 * (n + 1):
        raise BallBudgetError("candidate scan exhausted before all balls were placed")
    return found[0::2], found[1::2]


def component_sequence(group: Group, n_cut: int, seed, count: int) -> list[Element]:
    """count+1 distinct elements of the component of B_M \\ B_{n_cut} holding seed.

    The lexicographic suffix scan: candidates are seed*w for the words w of
    length <= n_cut + count in length-lex order, i.e. the BFS shells of a
    table walk from the seed, kept while they lie in the seed's component of
    the punctured ball.  The table is grown to M = n_cut + count + |seed|,
    with |seed| the distance from the identity however the seed is spelled.
    """
    seed_el = seed if isinstance(seed, Element) else group.element(seed)
    require_nonnegative("count", count)
    seed_len = distance_from_identity(group, seed_el)
    if seed_len <= n_cut:
        raise MalformedInputError("seed must lie outside the cut ball")
    m = n_cut + count + seed_len
    table = ball(group, m).table
    with table.lock:
        start = table.index[seed_el]
        outside = set(range(table.size(n_cut), table.size(m)))
        component = set(itertools.chain.from_iterable(table.walk(start, within=outside)))
        found = []
        for shell in table.walk(start, n_cut + count):
            found += (v for v in shell if v in component)
            if len(found) > count:
                return [table.elements[v] for v in found[:count + 1]]
    raise UnsupportedGroupError(
        f"component holds fewer than {count + 1} reachable elements")
