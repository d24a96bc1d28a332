"""Windowed subshift semantics: admissibility, extendability, closure ops.

Exact emptiness is undecidable, so every closure operation (union, factor,
projective subdynamics) is realized at a caller-chosen radius with
`extendable` standing in for "the cylinder meets the subshift".  Budget
exhaustion is a distinct outcome (UndeterminedError), never folded into a
boolean.

`extendable` compiles the forbidden patterns onto B_r once
(`constraints.compile_window`): each pattern becomes offsets from one of its
cells, patterns that cannot fit in B_r are dropped, and every translate
lying inside B_r is grounded to window-cell indices.  The compiled window is
cached on the forbidden family per (group, radius), alongside the family's
own pattern cache, so repeated searches on one window pay for grounding
once.  The search (`constraints.solve`) counts one node per (cell, symbol)
tried.  `matches_somewhere` and `ForbiddenFamily.violates` stay as the
direct, uncompiled check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import GroupShiftError, MalformedInputError, UndeterminedError
from .cayley import ball, distance_from_identity
from .constraints import CompiledWindow, compile_window, solve
from .groups import Element, Group
from .patterns import Alphabet, Pattern

DEFAULT_SEARCH_BUDGET = 500_000
DEFAULT_RADIUS_CAP = 64


class GeneratorBudgetError(GroupShiftError):
    """A generated forbidden family was asked for an excessive radius."""


class ForbiddenFamily:
    """Base: a family of forbidden patterns, possibly radius-generated."""

    #: True when `violates` checks more than the enumerated pattern list
    #: (symbolically represented constraints); searches must then re-check
    #: candidate total assignments through `violates`.
    semantic: bool = False

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        raise NotImplementedError

    def violates(self, group: Group, x: Pattern) -> bool:
        """Whether some forbidden pattern embeds into x (translated)."""
        radius = support_diameter(group, x.support)
        return any(
            matches_somewhere(group, q, x)
            for q in self.patterns_up_to(group, radius)
        )

    @cached_property
    def _windows(self) -> dict[tuple[Group, int], CompiledWindow]:
        return {}

    def compiled_window(self, group: Group, radius: int) -> CompiledWindow:
        """B_radius in shortlex order with every pattern that fits compiled
        onto it; cached per (group, radius) for the family's lifetime."""
        key = (group, radius)
        window = self._windows.get(key)
        if window is None:
            window = self._windows.setdefault(key, _compile_ball(self, group, radius))
        return window


@dataclass(frozen=True)
class FiniteFamily(ForbiddenFamily):
    patterns: tuple[Pattern, ...]

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        return list(self.patterns)


class GeneratedFamily(ForbiddenFamily):
    """Deterministic radius-indexed generator; must be monotone in radius."""

    def __init__(self, generator: Callable[[Group, int], Iterable[Pattern]],
                 radius_cap: int = DEFAULT_RADIUS_CAP,
                 name: str = "generated"):
        self._generator = generator
        self._cache: dict[tuple[Group, int], list[Pattern]] = {}
        self._lock = threading.Lock()
        self.radius_cap = radius_cap
        self.name = name

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        if radius > self.radius_cap:
            raise GeneratorBudgetError(
                f"family {self.name!r}: radius {radius} exceeds cap {self.radius_cap}")
        key = (group, radius)
        with self._lock:
            if key not in self._cache:
                self._cache[key] = list(self._generator(group, radius))
            return self._cache[key]


class CompositeFamily(ForbiddenFamily):
    def __init__(self, parts: Sequence[ForbiddenFamily]):
        self.parts = tuple(parts)
        self.semantic = any(p.semantic for p in parts)

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        out: list[Pattern] = []
        for p in self.parts:
            out.extend(p.patterns_up_to(group, radius))
        return out

    def violates(self, group: Group, x: Pattern) -> bool:
        return any(p.violates(group, x) for p in self.parts)


@dataclass(frozen=True)
class SubshiftSpec:
    alphabet: Alphabet
    group: Group
    forbidden: ForbiddenFamily


def support_diameter(group: Group, support: Iterable[Element]) -> int:
    cells = list(support)
    if len(cells) <= 1:
        return 0
    best = 0
    for i, a in enumerate(cells):
        inv = group.inverse_element(a)
        for b in cells[i + 1:]:
            best = max(best, distance_from_identity(group, group.multiply(inv, b)))
    return best


def matches_somewhere(group: Group, q: Pattern, x: Pattern) -> bool:
    """True if some translate g*support(q) lies in support(x) and agrees."""
    if len(q) == 0:
        return True
    cells = q.sorted_items(group)
    anchor, _ = cells[0]
    anchor_inv = group.inverse_element(anchor)
    for c in x.support:
        g = group.multiply(c, anchor_inv)
        for h, v in cells:
            got = x.get(group.multiply(g, h))
            if got is None or got != v:
                break
        else:
            return True
    return False


def locally_admissible(x: Pattern, spec: SubshiftSpec) -> bool:
    """No forbidden pattern (generated up to the support's diameter) embeds."""
    size = len(spec.alphabet)
    for v in x.assignment.values():
        if not 0 <= v < size:
            raise MalformedInputError(f"pattern symbol {v} outside alphabet")
    return not spec.forbidden.violates(spec.group, x)


# -- extendability -------------------------------------------------------------


def extendable(
    x: Pattern,
    spec: SubshiftSpec,
    radius: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Whether some total assignment on B_radius extending x is admissible.

    Exhaustive backtracking over the compiled window: cells filled in
    shortlex order, symbols in alphabet order, one node per (cell, symbol)
    tried.  Raises UndeterminedError (carrying the node count) on budget
    exhaustion; that outcome is never coerced to False.
    """
    group = spec.group
    window_ball = ball(group, radius)
    for e in x.assignment:
        if e not in window_ball:
            raise MalformedInputError("pattern support must lie inside B_radius")
    window = spec.forbidden.compiled_window(group, radius)
    fixed = {window.index[e]: v for e, v in x.items()}
    accept = None
    if spec.forbidden.semantic:
        # semantic families constrain more than their pattern lists;
        # re-check those on the completed assignment
        def accept(val: list[int]) -> bool:
            total = Pattern(dict(zip(window.cells, val)))
            return not spec.forbidden.violates(group, total)
    return solve(window, fixed, len(spec.alphabet), budget, accept) is not None


def _compile_ball(family: ForbiddenFamily, group: Group, radius: int) -> CompiledWindow:
    """Compile the family's patterns of diameter <= 2*radius onto B_radius.

    A pattern becomes the offsets anchor^-1 * h of its cells from its first
    cell, each with a singleton allowed set (one shared set per symbol).
    Under a geodesic normal form an offset longer than 2*radius cannot fit
    in B_radius, so its pattern is dropped before grounding.
    """
    reach = 2 * radius if group.geodesic_normal_form() else None
    singletons: dict[int, frozenset[int]] = {}
    constraints = []
    for q in family.patterns_up_to(group, max(2 * radius, 1)):
        con = []
        inv = None
        for h, v in q.items():
            if inv is None:
                inv = group.inverse_element(h)
            off = group.multiply(inv, h)
            if reach is not None and group.length_of(off) > reach:
                break
            if v not in singletons:
                singletons[v] = frozenset((v,))
            con.append((off, singletons[v]))
        else:
            constraints.append(con)
    return compile_window(ball(group, radius).sorted_elements(), constraints,
                          group.multiply)


# -- closure operations --------------------------------------------------------


def intersect(x_spec: SubshiftSpec, y_spec: SubshiftSpec) -> SubshiftSpec:
    """Intersection: union the forbidden families (exact, not windowed)."""
    if x_spec.group is not y_spec.group:
        raise MalformedInputError("intersection requires a common group")
    if x_spec.alphabet != y_spec.alphabet:
        raise MalformedInputError("intersection requires a common alphabet")
    return SubshiftSpec(
        x_spec.alphabet, x_spec.group,
        CompositeFamily([x_spec.forbidden, y_spec.forbidden]))


def union_window_admissible(
    x: Pattern,
    x_spec: SubshiftSpec,
    y_spec: SubshiftSpec,
    radius: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Windowed proxy for union membership: extendable in either subshift."""
    if x_spec.alphabet != y_spec.alphabet:
        raise MalformedInputError("union requires a common alphabet")
    first_undetermined: Optional[UndeterminedError] = None
    try:
        if extendable(x, x_spec, radius, budget):
            return True
    except UndeterminedError as e:
        first_undetermined = e
    if extendable(x, y_spec, radius, budget):
        return True
    if first_undetermined is not None:
        raise first_undetermined
    return False


@dataclass(frozen=True)
class BlockCode:
    """A local rule: window cells (in a fixed order) -> target symbol."""

    group: Group
    window: tuple[Element, ...]
    local: Union[Mapping[tuple, int], Callable[[tuple], int]]
    source_size: int
    target_size: int

    def apply_local(self, values: tuple) -> int:
        if callable(self.local):
            return self.local(values)
        return self.local[values]

    def reach(self) -> int:
        return max((self.group.length_of(e) for e in self.window), default=0)

    def validate_total(self) -> None:
        if callable(self.local):
            return
        import itertools as _it
        for values in _it.product(range(self.source_size), repeat=len(self.window)):
            if values not in self.local:
                raise MalformedInputError(f"local map misses input {values}")


def identity_block_code(group: Group, alphabet_size: int) -> BlockCode:
    return BlockCode(group, (group.identity,), lambda v: v[0],
                     alphabet_size, alphabet_size)


def apply_block_code(x: Pattern, code: BlockCode) -> Pattern:
    """Pointwise local rule; output support shrinks to full-window cells."""
    group = code.group
    candidates = set()
    inv_window = [group.inverse_element(w) for w in code.window]
    for c in x.support:
        for wi in inv_window:
            candidates.add(group.multiply(c, wi))
    out = {}
    for g in candidates:
        values = []
        for w in code.window:
            v = x.get(group.multiply(g, w))
            if v is None:
                break
            values.append(v)
        else:
            out[g] = code.apply_local(tuple(values))
    return Pattern(out)


def factor_window_admissible(
    y: Pattern,
    x_spec: SubshiftSpec,
    code: BlockCode,
    radius: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Windowed factor membership: search a preimage pattern, then extend it."""
    group = x_spec.group
    cells: list[Element] = []
    seen = set()
    for g in sorted(y.support, key=group.shortlex_key):
        for w in code.window:
            c = group.multiply(g, w)
            if c not in seen:
                seen.add(c)
                cells.append(c)
    targets = y.sorted_items(group)
    assign: dict[Element, int] = {}
    nodes = 0

    def output_consistent() -> bool:
        for g, want in targets:
            values = []
            for w in code.window:
                v = assign.get(group.multiply(g, w))
                if v is None:
                    break
                values.append(v)
            else:
                if code.apply_local(tuple(values)) != want:
                    return False
        return True

    def search(i: int) -> bool:
        nonlocal nodes
        if i == len(cells):
            return extendable(Pattern(dict(assign)), x_spec,
                              radius + code.reach(), budget)
        cell = cells[i]
        for s in range(code.source_size):
            nodes += 1
            if nodes > budget:
                raise UndeterminedError("factor preimage search exceeded budget")
            assign[cell] = s
            if output_consistent() and search(i + 1):
                return True
            del assign[cell]
        return False

    return search(0)


def projective_window_admissible(
    y_h: Pattern,
    h_group: Group,
    embedding: Mapping[int, Sequence[int]],
    x_spec: SubshiftSpec,
    radius: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Translate a subgroup pattern through the embedding, then extend."""
    group = x_spec.group
    for gid in h_group.nonidentity_ids:
        if gid not in embedding:
            raise MalformedInputError(f"embedding misses generator id {gid}")
        img = group.canonical(tuple(embedding[gid]))
        inv_img = group.canonical(tuple(embedding[h_group.inverse_letter(gid)]))
        if group.canonical(img + inv_img):
            raise MalformedInputError(
                "embedding does not send inverse generators to inverses")
    translated = {}
    for e, v in y_h.items():
        word: list[int] = []
        for letter in h_group.word_of(e):
            word.extend(embedding[letter])
        translated[group.element(tuple(word))] = v
    return extendable(Pattern(translated), x_spec, radius, budget)
