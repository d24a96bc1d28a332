"""Windowed subshift semantics: admissibility, extendability, closure ops.

Exact emptiness is undecidable, so every closure operation (union, factor,
projective subdynamics) is realized at a caller-chosen radius with
"some admissible total assignment on the window" standing in for "the
cylinder meets the subshift".  Budget exhaustion is a distinct outcome
(UndeterminedError), never folded into a boolean.

`extendable` and `factor_window_admissible` search the forbidden patterns
compiled onto a ball (`constraints.compile_window`): each pattern becomes
offsets from one of its cells, patterns that cannot fit in the ball are
dropped, and every translate lying inside it is grounded to window-cell
indices.  The compiled window is cached on the forbidden family per
(group, radius), alongside the family's own pattern cache, so repeated
searches on one window pay for grounding once.  A factor query compiles
its own window, with its targets' preimage cells searched first, and adds
the targets' output constraints to it.  The one search
(`constraints.solve`) counts one node per (cell, symbol) tried, and
re-checks a semantic family's completed assignments through `violates`.
`matches_somewhere` and `ForbiddenFamily.violates` stay as the direct,
uncompiled check.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import GroupShiftError, MalformedInputError, UndeterminedError
from .cayley import ball, distance_from_identity
from .constraints import CompiledWindow, Rest, compile_window, solve
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
            window = self._windows.setdefault(key, _compile_ball(self, group, radius, ()))
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


def _check_symbols(x: Pattern, size: int) -> None:
    for v in x.assignment.values():
        if not 0 <= v < size:
            raise MalformedInputError(f"pattern symbol {v} outside alphabet")


def locally_admissible(x: Pattern, spec: SubshiftSpec) -> bool:
    """No forbidden pattern (generated up to the support's diameter) embeds."""
    _check_symbols(x, len(spec.alphabet))
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
    _check_symbols(x, len(spec.alphabet))
    window_ball = ball(group, radius)
    for e in x.assignment:
        if e not in window_ball:
            raise MalformedInputError("pattern support must lie inside B_radius")
    window = spec.forbidden.compiled_window(group, radius)
    fixed = {window.index[e]: v for e, v in x.items()}
    return solve(window, fixed, len(spec.alphabet), budget,
                 _semantic_check(spec, window)) is not None


def _semantic_check(spec: SubshiftSpec,
                    window: CompiledWindow) -> Optional[Callable[[list[int]], bool]]:
    """The accept hook of a search over `window`: None for a pattern family;
    for a semantic family, which constrains more than its pattern list, a
    re-check of the completed assignment through `violates`."""
    if not spec.forbidden.semantic:
        return None

    def accept(val: list[int]) -> bool:
        total = Pattern(dict(zip(window.cells, val)))
        return not spec.forbidden.violates(spec.group, total)
    return accept


def _compile_ball(family: ForbiddenFamily, group: Group, radius: int,
                  first: Sequence[Element]) -> CompiledWindow:
    """Compile the family's patterns of diameter <= 2*radius onto B_radius,
    whose cells are numbered `first` (cells of B_radius) then the rest in
    shortlex order.

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
    cells = list(dict.fromkeys(first))
    taken = set(cells)
    cells += [c for c in ball(group, radius).sorted_elements() if c not in taken]
    return compile_window(cells, constraints, group.multiply)


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
    local: Callable[[tuple], int]
    source_size: int
    target_size: int

    def reach(self) -> int:
        return max((self.group.length_of(e) for e in self.window), default=0)


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
            out[g] = code.local(tuple(values))
    return Pattern(out)


def factor_window_admissible(
    y: Pattern,
    x_spec: SubshiftSpec,
    code: BlockCode,
    radius: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Windowed factor membership: whether some admissible total assignment
    on B_{radius+reach} takes the value y[g] under the block code at every
    target g of y.

    One search (`constraints.solve`) over the family's patterns compiled
    onto B_{radius+reach}, with the targets' preimage cells g*w first (targets
    in shortlex order), so that each target's output is checked as soon as
    its preimage is placed.  Each target adds its output constraint: every
    source tuple v over the cells g*w with local(v) != y[g], filed under its
    last cell in that order; a target no source tuple maps to y[g] decides
    False at once.  The targets must lie inside B_radius, and the code must
    read the subshift's alphabet.  One node is counted per (cell, symbol)
    tried over the whole search; budget exhaustion raises UndeterminedError
    carrying the count.  The budget bounds the search only: building the
    output constraints calls `local` source_size^|window| times per target.
    """
    group = x_spec.group
    if code.source_size != len(x_spec.alphabet):
        raise MalformedInputError("the block code must read the subshift's alphabet")
    _check_symbols(y, code.target_size)
    target_ball = ball(group, radius)
    if any(g not in target_ball for g in y.support):
        raise MalformedInputError("factor targets must lie inside B_radius")
    targets = y.sorted_items(group)
    window = _compile_ball(x_spec.forbidden, group, radius + code.reach(),
                           [group.multiply(g, w) for g, _ in targets for w in code.window])
    watch = list(window.watch)
    singletons = [frozenset((s,)) for s in range(code.source_size)]
    for g, want in targets:
        js = [window.index[group.multiply(g, w)] for w in code.window]
        bad = [v for v in itertools.product(range(code.source_size), repeat=len(js))
               if code.local(v) != want]
        if len(bad) == code.source_size ** len(js):
            return False
        if not bad:
            continue
        last = max(range(len(js)), key=js.__getitem__)
        filed: dict[int, list[Rest]] = {}
        for v in bad:
            filed.setdefault(v[last], []).append(tuple(
                (j, singletons[s]) for k, (j, s) in enumerate(zip(js, v)) if k != last))
        watch[js[last]] += tuple((singletons[s], tuple(rests))
                                 for s, rests in filed.items())
    window = replace(window, watch=tuple(watch))
    return solve(window, {}, code.source_size, budget,
                 _semantic_check(x_spec, window)) is not None


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
