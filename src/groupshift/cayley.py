"""Metric balls of Cayley graphs and the recursive element-sequence builders."""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .errors import (
    BallBudgetError,
    ComponentExhaustedError,
    UnsupportedGroupError,
)
from .groups import Element, Group, Letters

DEFAULT_BALL_BUDGET = 200_000


class CayleyBall:
    """The ball B_n: elements of word length <= n plus all internal edges."""

    def __init__(self, group: Group, radius: int, distances: dict[Element, int]):
        self.group = group
        self.radius = radius
        self.distances = distances
        self.elements = frozenset(distances)
        self._edges: Optional[frozenset] = None
        self._sorted: Optional[list[Element]] = None

    def __contains__(self, e: Element) -> bool:
        return e in self.distances

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def edges(self) -> frozenset[tuple[Element, int, Element]]:
        """Triples (g, s, h) with g*s = h, both endpoints inside the ball."""
        if self._edges is None:
            out = set()
            for e in self.distances:
                for s in self.group.nonidentity_ids:
                    f = self.group.multiply_letter(e, s)
                    if f in self.distances:
                        out.add((e, s, f))
            self._edges = frozenset(out)
        return self._edges

    def sorted_elements(self) -> list[Element]:
        if self._sorted is None:
            self._sorted = sorted(self.elements, key=self.group.shortlex_key)
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


def ball(group: Group, n: int, budget: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    """Breadth-first canonicalization of B_n; deterministic and cached."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    with group._ball_lock:
        cache = group._ball_cache
        dist: dict[Element, int] = cache.get("distances", {group.identity: 0})
        built = cache.get("radius", 0)
        if n > built:
            frontier = [e for e, d in dist.items() if d == built]
            for r in range(built + 1, n + 1):
                nxt = []
                for e in frontier:
                    for s in group.nonidentity_ids:
                        f = group.multiply_letter(e, s)
                        if f not in dist:
                            dist[f] = r
                            nxt.append(f)
                            if len(dist) > budget:
                                raise BallBudgetError(
                                    f"ball budget of {budget} elements exceeded at radius {r}")
                frontier = nxt
                if not frontier:
                    break  # the whole (finite) group is already covered
            cache["distances"] = dist
            cache["radius"] = max(built, n)
        balls = cache.setdefault("balls", {})
        if n not in balls:
            sub = {e: d for e, d in dist.items() if d <= n}
            balls[n] = CayleyBall(group, n, sub)
        return balls[n]


def distance_from_identity(group: Group, e: Element, budget: int = DEFAULT_BALL_BUDGET) -> int:
    """|g| via the geodesic normal form, or BFS for non-geodesic kinds."""
    if group.geodesic_normal_form():
        return group.length_of(e)
    r = 0
    while True:
        b = ball(group, r, budget=budget)
        if e in b.distances:
            return b.distances[e]
        r += 1


def word_metric(group: Group, word, budget: int = DEFAULT_BALL_BUDGET) -> int:
    """|g| for the element named by the word."""
    return distance_from_identity(group, group.element(word), budget=budget)


def element_distance(group: Group, a: Element, b: Element,
                     budget: int = DEFAULT_BALL_BUDGET) -> int:
    return distance_from_identity(
        group, group.multiply(group.inverse_element(a), b), budget=budget)


def translated_ball_cells(group: Group, center: Element, radius: int
                          ) -> list[set[Element]]:
    """BFS shells around a center: shells[d] = cells at graph distance d."""
    shells = [{center}]
    seen = {center}
    for _ in range(radius):
        nxt = set()
        for e in shells[-1]:
            for s in group.nonidentity_ids:
                f = group.multiply_letter(e, s)
                if f not in seen:
                    seen.add(f)
                    nxt.add(f)
        shells.append(nxt)
    return shells


def enumerate_words(group: Group, max_len: int) -> Iterator[Letters]:
    """All words over the non-identity generators, length-then-lex order."""
    ids = group.nonidentity_ids
    for length in range(max_len + 1):
        for tup in itertools.product(ids, repeat=length):
            yield tup


def disjoint_ball_sequences(
    group: Group, n: int, budget: int = DEFAULT_BALL_BUDGET
) -> tuple[list[Element], list[Element]]:
    """Greedy lexicographic marking of pairwise disjoint translated balls.

    Returns (g_0..g_n, h_0..h_n) such that {1}, g_k B_k, h_k B_k are pairwise
    disjoint.  Scans words in length-lex order, assigning g_k then h_k to the
    first words whose translated ball is entirely unmarked.
    """
    if group.is_finite():
        raise UnsupportedGroupError("disjoint ball sequences need an infinite group")
    if n < 0:
        raise ValueError("n must be >= 0")
    cap = 1 + 2 * n * (n + 2)
    marked: set[Element] = {group.identity}
    gs: list[Optional[Element]] = [None] * (n + 1)
    hs: list[Optional[Element]] = [None] * (n + 1)
    k = 0
    for word in enumerate_words(group, cap):
        if k > n:
            break
        if len(word) > cap - k:
            break
        base = group.element(word)
        cells = [group.multiply(base, e)
                 for e in ball(group, k, budget=budget).sorted_elements()]
        if any(c in marked for c in cells):
            continue
        marked.update(cells)
        if gs[k] is None:
            gs[k] = base
        else:
            hs[k] = base
            k += 1
    if k <= n:
        raise BallBudgetError("word scan exhausted before all balls were placed")
    return [g for g in gs if g is not None], [h for h in hs if h is not None]


def component_sequence(
    group: Group,
    n_cut: int,
    seed,
    count: int,
    budget: int = DEFAULT_BALL_BUDGET,
) -> list[Element]:
    """count+1 distinct elements of the component of B_M \\ B_{n_cut} holding seed.

    Implements the lexicographic suffix scan: candidates are seed*w for words w
    in length-lex order, kept when they fall in the seed's connected component
    of the punctured ball.
    """
    seed_word = group.check_word(seed) if not isinstance(seed, Element) else None
    seed_el = group.element(seed_word) if seed_word is not None else seed
    seed_len = len(seed_word) if seed_word is not None else group.length_of(seed_el)
    if distance_from_identity(group, seed_el, budget=budget) <= n_cut:
        raise ValueError("seed must lie outside the cut ball")
    if count == 0:
        return [seed_el]
    m = n_cut + count + seed_len
    big = ball(group, m, budget=budget)
    outside = {e for e, d in big.distances.items() if d > n_cut}
    component = _component_of(group, outside, seed_el)
    found = [seed_el]
    seen = {seed_el}
    for w in enumerate_words(group, n_cut + count):
        cand = group.multiply(seed_el, group.element(w))
        if cand in component and cand not in seen:
            seen.add(cand)
            found.append(cand)
            if len(found) == count + 1:
                return found
    raise ComponentExhaustedError(
        f"component holds fewer than {count + 1} reachable elements")


def _component_of(group: Group, cells: set[Element], start: Element) -> set[Element]:
    if start not in cells:
        raise ValueError("start not inside the cell set")
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
