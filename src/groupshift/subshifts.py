"""Windowed subshift semantics: admissibility, extendability, closure ops.

Exact emptiness is undecidable, so every closure operation (union, factor,
projective subdynamics) is realized at a caller-chosen radius with
"some admissible total assignment on the window" standing in for "the
cylinder meets the subshift".  Budget exhaustion is a distinct outcome
(UndeterminedError), never folded into a boolean.

`extendable` and `factor_window_admissible` search (`constraints.solve`)
the forbidden patterns compiled onto a ball, each pattern cell h holding v
a constraint cell (h, 0, {v}) grounded on one level by `constraints.ground`.
The compiled ball and a generated family's patterns are memoized on the
family per group and radius while the group lives, so repeated searches on
one window pay for grounding once; a factor query compiles its own, and
`ForbiddenFamily.violates` compiles onto the pattern it checks.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import MalformedInputError, UndeterminedError
from .cayley import ball, distance_from_identity
from .constraints import CompiledWindow, differences, ground, solve
from .groups import Element, Group
from .patterns import Alphabet, Pattern

DEFAULT_SEARCH_BUDGET = 500_000
DEFAULT_RADIUS_CAP = 64


class ForbiddenFamily:
    """Base: a family of forbidden patterns, possibly radius-generated."""

    #: True when `violates` checks more than the enumerated pattern list
    #: (symbolically represented constraints); searches must then re-check
    #: candidate total assignments through `violates`.
    semantic: bool = False

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        raise NotImplementedError

    def violates(self, group: Group, x: Pattern) -> bool:
        """Whether some forbidden pattern (generated up to the diameter of x's
        support) embeds into x, translated.

        The patterns are grounded on x's own cells, whose difference set
        also gives the diameter.  Every cell is fixed, so the one `solve`
        call counts no node, and None means some placement fired.
        """
        cells = list(x.assignment)
        moves = differences(group, cells)
        diameter = max((distance_from_identity(group, g) for g in moves), default=0)
        window = ground(group, cells, _constraints(self, group, diameter), moves=moves)
        fixed = dict(enumerate(x.assignment.values()))
        return solve(window, fixed, n_symbols=0, budget=0) is None

    def compiled_window(self, group: Group, radius: int) -> CompiledWindow:
        """B_radius in shortlex order with every fitting pattern compiled onto it."""
        return self._memoized(group, radius, _compile_ball)

    @cached_property
    def _memo(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()  # group -> {(build, radius): built}

    def _memoized(self, group: Group, radius: int, build: Callable):
        """`build(self, group, radius)`, kept until the group goes.  A hit
        takes no lock; a build holds the group's re-entrant ball lock, since
        compiling a ball asks this memo for the family's patterns."""
        try:
            return self._memo[group][build, radius]
        except KeyError:
            with group._ball_lock:
                derived = self._memo.setdefault(group, {})
                if (build, radius) not in derived:
                    derived[build, radius] = build(self, group, radius)
                return derived[build, radius]


@dataclass(frozen=True)
class FiniteFamily(ForbiddenFamily):
    patterns: tuple[Pattern, ...]

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        return list(self.patterns)


class GeneratedFamily(ForbiddenFamily):
    """Deterministic radius-indexed generator; must be monotone in radius."""

    def __init__(self, generator: Callable[[Group, int], Iterable[Pattern]],
                 name: str = "generated"):
        self._generator = generator
        self.name = name

    def patterns_up_to(self, group: Group, radius: int) -> list[Pattern]:
        if radius > DEFAULT_RADIUS_CAP:
            raise MalformedInputError(
                f"family {self.name!r}: radius {radius} exceeds cap {DEFAULT_RADIUS_CAP}")
        return self._memoized(group, radius, GeneratedFamily._generate)

    def _generate(self, group: Group, radius: int) -> list[Pattern]:
        return list(self._generator(group, radius))


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


def _check_symbols(x: Pattern, size: int) -> None:
    # the set test runs in C and accepts exactly the in-range integers (and
    # the bools and floats equal to them); anything else takes the loop,
    # which names the first value outside the alphabet
    values = x.assignment.values()
    if set(range(size)).issuperset(values):
        return
    for v in values:
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
        total = Pattern(dict(zip(window.base, val)))
        return not spec.forbidden.violates(spec.group, total)
    return accept


def _compile_ball(family: ForbiddenFamily, group: Group, radius: int,
                  first: Sequence[Element] = ()) -> CompiledWindow:
    """Compile the family's patterns of diameter <= 2*radius onto B_radius,
    whose cells are numbered `first` (cells of B_radius) then the rest in
    shortlex order."""
    cells = list(dict.fromkeys([*first, *ball(group, radius).sorted_elements()]))
    return ground(group, cells, _constraints(family, group, max(2 * radius, 1)))


def _constraints(family: ForbiddenFamily, group: Group, diameter: int):
    """The family's patterns up to `diameter`, each cell h holding v as the
    constraint cell (h, 0, {v})."""
    singleton = cache(lambda v: frozenset((v,)))
    return (((h, 0, singleton(v)) for h, v in q.items())
            for q in family.patterns_up_to(group, diameter))


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
    """Windowed proxy for union membership: extendable in either subshift.
    A budget overrun on the first is raised only when the second is not
    extendable either."""
    if x_spec.alphabet != y_spec.alphabet:
        raise MalformedInputError("union requires a common alphabet")
    try:
        if extendable(x, x_spec, radius, budget):
            return True
    except UndeterminedError:
        if extendable(x, y_spec, radius, budget):
            return True
        raise
    return extendable(x, y_spec, radius, budget)


@dataclass(frozen=True)
class BlockCode:
    """A local rule: window cells (in a fixed order) -> target symbol."""

    group: Group
    window: tuple[Element, ...]
    local: Callable[[tuple], int]
    source_size: int
    target_size: int

    def reach(self) -> int:
        return max((distance_from_identity(self.group, e) for e in self.window),
                   default=0)

    def image(self, v: tuple) -> int:
        """`local(v)`, malformed input unless it lies in range(target_size)."""
        out = self.local(v)
        if out not in range(self.target_size):
            raise MalformedInputError(
                f"block code maps {v} to {out!r}, outside its target alphabet")
        return out


def identity_block_code(group: Group, alphabet_size: int) -> BlockCode:
    return BlockCode(group, (group.identity,), lambda v: v[0],
                     alphabet_size, alphabet_size)


def apply_block_code(x: Pattern, code: BlockCode) -> Pattern:
    """Pointwise local rule; output support shrinks to full-window cells."""
    group = code.group
    candidates = {}   # a dict, so the output follows x's order, not hashes
    inv_window = [group.inverse_element(w) for w in code.window]
    for c in x.assignment:
        for wi in inv_window:
            candidates[group.multiply(c, wi)] = None
    out = {}
    for g in candidates:
        values = []
        for w in code.window:
            v = x.get(group.multiply(g, w))
            if v is None:
                break
            values.append(v)
        else:
            out[g] = code.image(tuple(values))
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
    target g of y (targets inside B_radius).

    One search over the family's patterns compiled onto B_{radius+reach},
    the targets' preimage cells g*w first (targets in shortlex order) so
    that each target's output is checked as soon as its preimage is placed,
    each target's output constraint handed to it as placements: every source
    tuple v over the cells g*w with local(v) != y[g]; a target no source
    tuple maps to y[g] decides False at once, and a `local` value outside
    range(target_size) is malformed input.  One node is counted per
    (cell, symbol) tried; budget exhaustion raises UndeterminedError
    carrying the count.  Building the output constraints, outside the
    budget, calls `local` source_size^|window| times per target.
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
    singletons = [frozenset((s,)) for s in range(code.source_size)]
    placements = []
    for g, want in targets:
        js = [window.index[group.multiply(g, w)] for w in code.window]
        bad = []
        for v in itertools.product(range(code.source_size), repeat=len(js)):
            if code.image(v) != want:
                bad.append(v)
        if len(bad) == code.source_size ** len(js):
            return False
        placements += (tuple(zip(js, map(singletons.__getitem__, v))) for v in bad)
    return solve(window, {}, code.source_size, budget,
                 _semantic_check(x_spec, window), placements) is not None


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
    images = {}
    for gid in h_group.nonidentity_ids:
        if gid not in embedding:
            raise MalformedInputError(f"embedding misses generator id {gid}")
        images[gid] = group.element(embedding[gid])
    for gid, img in images.items():
        if group.multiply(img, images[h_group.inverse_letter(gid)]) != group.identity:
            raise MalformedInputError(
                "embedding does not send inverse generators to inverses")
    translated = {reduce(group.multiply, map(images.__getitem__, h_group.word_of(e)),
                         group.identity): v for e, v in y_h.items()}
    return extendable(Pattern(translated), x_spec, radius, budget)
