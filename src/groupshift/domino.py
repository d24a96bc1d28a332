"""Machine -> origin-constrained domino instance over the product of the
group with an integer line, plus the free-product wrapper that removes the
origin constraint.

Cell symbols are component tuples (machine symbol, head state, star marker,
...).  Forbidden combinations are stored with per-component allowed-value
sets so the emitted family sizes match their closed forms exactly; a fully
expanded concrete-pattern representation would multiply the counts by every
wildcard dimension.

`ComponentAlphabet` is the one codec of cells.  `verify_reduction_window`
grounds the instance (each cell requirement as the symbol codes it allows)
once per base cell of its level-major G x Z window by `constraints.ground`.
`grounded_violations` is the one uncompiled scan, behind
`URuleSet.check_window` and the tests' oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import MalformedInputError, UnsupportedGroupError, require_nonnegative
from .cayley import ball
from .constraints import ground, solve
from .groups import Element, FiniteGroup, FreeAbelianGroup, Group, direct_product
from .machines import GMachineSpec
from .patterns import Pattern

SYM, STATE, STAR = "sym", "state", "star"
COVER, MARKER = "cover", "marker"


@dataclass(frozen=True)
class ComponentAlphabet:
    """Named product alphabet, the one codec of its cells: a symbol is a
    tuple of value indices, its code its index in `symbols()` order (the
    last component fastest); JSON spells symbols and requirements in labels."""

    components: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if len(set(self.names())) != len(self.components):
            raise MalformedInputError(f"component names repeat: {list(self.names())}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.components)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.components):
            if n == name:
                return i
        raise MalformedInputError(f"no component {name!r}")

    def values(self, name: str) -> tuple[str, ...]:
        return self.components[self.index(name)][1]

    def value_index(self, name: str, label: str) -> int:
        vals = self.values(name)
        try:
            return vals.index(label)
        except ValueError:
            raise MalformedInputError(f"{label!r} not a {name!r} value") from None

    def size(self) -> int:
        return math.prod(len(vals) for _, vals in self.components)

    def symbols(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(len(vals)) for _, vals in self.components))

    def code(self, sym: Sequence[int]) -> int:
        """The index of a symbol in `symbols()` order."""
        if len(sym) != len(self.components) or not all(
                v in range(len(vals)) for v, (_, vals) in zip(sym, self.components)):
            raise MalformedInputError(f"symbol {tuple(sym)} outside the alphabet")
        out = 0
        for v, (_, vals) in zip(sym, self.components):
            out = out * len(vals) + v
        return out

    def symbol(self, code: int) -> tuple[int, ...]:
        """The symbol at index `code` of `symbols()`."""
        out = []
        for _, vals in reversed(self.components):
            code, v = divmod(code, len(vals))
            out.append(v)
        return tuple(reversed(out))

    def allowed(self, req: CellReq) -> frozenset[int]:
        """The codes of the symbols that meet a requirement."""
        codes = [0]
        for ci, (_, vals) in enumerate(self.components):
            keep = [v for v in range(len(vals)) if all(v in a for c, a in req if c == ci)]
            codes = [i * len(vals) + v for i in codes for v in keep]
        return frozenset(codes)

    def require(self, **by_name: object) -> CellReq:
        """A requirement from {component name: value index or indices}."""
        out = []
        for name, allowed in by_name.items():
            out.append((self.index(name), frozenset(allowed) if isinstance(
                allowed, (set, frozenset, tuple, list)) else frozenset({allowed})))
        return tuple(out)

    def requirement(self, labels: Mapping[str, Sequence[str]]) -> CellReq:
        """A {component name: [value labels]} requirement; a component given
        anything but a list of labels is malformed (a string would otherwise
        be read one character per label)."""
        out = []
        for name, vals in labels.items():
            if not isinstance(vals, (list, tuple)):
                raise MalformedInputError(
                    f"{name!r} needs a list of value labels, got {vals!r}")
            out.append((self.index(name),
                        frozenset(self.value_index(name, label) for label in vals)))
        return tuple(out)

    def labels(self, req: CellReq) -> dict[str, list[str]]:
        """A requirement as {component name: [sorted value labels]}."""
        return {self.components[ci][0]: sorted(self.components[ci][1][v] for v in allowed)
                for ci, allowed in req}

    def symbol_labels(self, sym: Sequence[int]) -> list[str]:
        """A symbol as one value label per component."""
        return [vals[v] for (_, vals), v in zip(self.components, sym)]

    def from_labels(self, labels: Sequence[str]) -> tuple[int, ...]:
        """The symbol spelled by one value label per component."""
        if not isinstance(labels, (list, tuple)) or len(labels) != len(self.components):
            raise MalformedInputError(
                f"a symbol needs one label for each of {list(self.names())}, got {labels!r}")
        return tuple(self.value_index(name, label)
                     for (name, _), label in zip(self.components, labels))

    def format_symbol(self, sym: tuple[int, ...]) -> str:
        return "(" + ",".join(self.symbol_labels(sym)) + ")"


@dataclass(frozen=True)
class GOffset:
    """An offset inside the product group: a G part and an integer level."""

    g: Element
    dz: int


@dataclass(frozen=True)
class HOffset:
    """The h-th element of the finite free-product factor (coset-relative)."""

    h: int


Offset = Union[GOffset, HOffset]

# a cell requirement maps component index -> frozenset of allowed values
CellReq = tuple[tuple[int, frozenset[int]], ...]


@dataclass(frozen=True)
class DominoConstraint:
    """A forbidden combination: fires when every support cell matches."""

    support: tuple[Offset, ...]
    cells: tuple[CellReq, ...]
    tag: str

    def __post_init__(self):
        if not self.support or len(self.support) != len(self.cells):
            raise MalformedInputError(
                f"constraint {self.tag!r} needs a non-empty support with one "
                "requirement per cell")

    def cell_matches(self, i: int, symbol: tuple[int, ...]) -> bool:
        return all(symbol[ci] in allowed for ci, allowed in self.cells[i])


@dataclass(frozen=True)
class WindowedA1:
    """Approximate the sofic one-head layer by bounded-distance exclusions."""

    radius: int


@dataclass(frozen=True)
class UserSftCover:
    """A caller-supplied SFT presentation of the one-head layer.

    `values` extends each cell with a hidden cover component; `constraints`
    are (support offsets, per-cell requirements) over component names, with
    requirements as {component: [labels]} dictionaries.
    """

    values: tuple[str, ...]
    constraints: tuple[tuple[tuple[tuple[str, int], ...],
                             tuple[Mapping[str, Sequence[str]], ...]], ...]


A1Mode = Union[WindowedA1, UserSftCover]


@dataclass(frozen=True)
class DominoInstance:
    g_group: Group
    alphabet: ComponentAlphabet
    constraints: tuple[DominoConstraint, ...]
    origin_symbol: Optional[tuple[int, ...]]
    h_group: Optional[FiniteGroup] = None

    def tags(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.constraints:
            out[c.tag] = out.get(c.tag, 0) + 1
        return out

    def product_group(self):
        return direct_product(self.g_group, FreeAbelianGroup(1, names=["z"]))


def compile_domino(group: Group, machine: GMachineSpec,
                   a1_mode: A1Mode) -> DominoInstance:
    """Emit the origin-constrained instance simulating the machine upward.

    The machine must have initial state first and a single accepting state
    last; head-state component value i+1 encodes machine state i, value 0
    the absence of a head.
    """
    if machine.group is not group:
        raise MalformedInputError("machine must walk the same group")
    n_states = len(machine.states)
    if machine.accepting != frozenset({n_states - 1}):
        raise MalformedInputError(
            "the construction expects exactly the last state accepting")
    sigma = machine.tape_alphabet.symbols
    k = n_states
    state_vals = tuple(str(i) for i in range(k + 1))
    components = [(SYM, sigma), (STATE, state_vals), (STAR, ("0", "*"))]
    if isinstance(a1_mode, UserSftCover):
        components.append((COVER, tuple(a1_mode.values)))
    alphabet = ComponentAlphabet(tuple(components))
    blank = machine.blank
    up = GOffset(group.identity, 1)
    here = GOffset(group.identity, 0)
    cons: list[DominoConstraint] = []

    # A2: no head -> the symbol may not change
    for a in range(len(sigma)):
        for b in range(len(sigma)):
            if a != b:
                cons.append(DominoConstraint(
                    (here, up),
                    (alphabet.require(sym=a, state=0), alphabet.require(sym=b)),
                    "A2"))
    # A3 = B1 u B2, one pair of rules per delta entry
    for (a, q), (b, r, s) in machine.delta.items():
        base = alphabet.require(sym=a, state=q + 1)
        for c in range(len(sigma)):
            if c != b:
                cons.append(DominoConstraint(
                    (here, up), (base, alphabet.require(sym=c)), "B1"))
        move_off = GOffset(group.element((s,)) if s else group.identity, 1)
        for t in range(k + 1):
            if t != r + 1:
                cons.append(DominoConstraint(
                    (here, move_off), (base, alphabet.require(state=t)), "B2"))
    # A4: the accepting state never appears
    for a in range(len(sigma)):
        cons.append(DominoConstraint(
            (here,), (alphabet.require(sym=a, state=k),), "A4"))
    # A1: at most one head per level
    heads = frozenset(range(1, k + 1))
    if isinstance(a1_mode, WindowedA1):
        for g in ball(group, a1_mode.radius).sorted_elements():
            if g == group.identity:
                continue
            cons.append(DominoConstraint(
                (here, GOffset(g, 0)),
                (alphabet.require(state=heads), alphabet.require(state=heads)),
                "A1"))
    else:
        for support_spec, reqs in a1_mode.constraints:
            support = tuple(GOffset(group.element(group.parse_word(w)), dz)
                            for w, dz in support_spec)
            cells = tuple(alphabet.requirement(req) for req in reqs)
            cons.append(DominoConstraint(support, cells, "A1"))
    # X_aux: a star propagates along every generator within its level
    for s in group.nonidentity_ids:
        cons.append(DominoConstraint(
            (here, GOffset(group.element((s,)), 0)),
            (alphabet.require(star=1), alphabet.require(star=0)),
            "X_aux"))
    # a star cell must carry a blank machine symbol
    for a in range(len(sigma)):
        if a != blank:
            cons.append(DominoConstraint(
                (here,), (alphabet.require(star=1, sym=a),), "star_rule"))
    origin = [0] * len(alphabet.components)
    origin[alphabet.index(SYM)] = blank
    origin[alphabet.index(STATE)] = 1
    origin[alphabet.index(STAR)] = 1
    return DominoInstance(group, alphabet, tuple(cons), tuple(origin))


def free_product_layer(h: FiniteGroup, base: DominoInstance) -> DominoInstance:
    """Add the finite-factor marker layer and drop the origin constraint.

    Every coset of the finite factor must contain exactly one marked cell,
    and a marked cell must carry the origin symbol of the base instance.
    """
    if base.h_group is not None:
        raise MalformedInputError("instance already carries a free-product layer")
    if h.order <= 1:
        raise UnsupportedGroupError("the free-product factor must be nontrivial")
    if base.origin_symbol is None:
        raise MalformedInputError("base instance lacks an origin symbol")
    alphabet = ComponentAlphabet(base.alphabet.components + ((MARKER, ("0", "*")),))
    cons: list[DominoConstraint] = list(base.constraints)
    m = h.order
    marker_ci = alphabet.index(MARKER)
    for bits in itertools.product((0, 1), repeat=m):
        if sum(bits) != 1:
            cons.append(DominoConstraint(tuple(HOffset(i) for i in range(m)),
                                         tuple(alphabet.require(marker=b) for b in bits),
                                         "Y_aux"))
    # coupling: a marked cell carries the old origin symbol
    for ci, want in enumerate(base.origin_symbol):
        name, vals = base.alphabet.components[ci]
        others = frozenset(range(len(vals))) - {want}
        if others:
            cons.append(DominoConstraint(
                (GOffset(base.g_group.identity, 0),),
                (((marker_ci, frozenset({1})), (ci, others)),),
                "Y_aux"))
    return DominoInstance(base.g_group, alphabet, tuple(cons), None, h_group=h)


# -- window verification -------------------------------------------------------


@dataclass(frozen=True)
class Satisfiable:
    witness: Pattern


@dataclass(frozen=True)
class Unsatisfiable:
    pass


VerifyOutcome = Union[Satisfiable, Unsatisfiable]

Cell = tuple[Element, int]


def window_cells(instance: DominoInstance, radius_g: int, height_z: int) -> list[Cell]:
    """Level-major window: each level is a ball of the G part, bottom first."""
    base = ball(instance.g_group, radius_g).sorted_elements()
    return [(g, z) for z in range(height_z + 1) for g in base]


def _require_g_offsets(con: DominoConstraint) -> None:
    if any(isinstance(o, HOffset) for o in con.support):
        raise UnsupportedGroupError(
            "free-product instances are not window-verifiable")


def grounded_violations(
    group: Group,
    constraints: Sequence[DominoConstraint],
    assign: Mapping[Cell, tuple[int, ...]],
    touched: Optional[Cell] = None,
) -> list[tuple[DominoConstraint, Cell]]:
    """Every (constraint, anchor) firing on an explicit assignment of cells;
    with `touched`, only the placements that cover that cell.

    The direct, uncompiled scan: each constraint is placed by group
    multiplication at every anchor whose tried cell meets its requirement.
    """
    out = []
    for con in constraints:
        _require_g_offsets(con)
        if touched is None:
            through = [(cell, 0) for cell in assign]
        else:
            through = [(touched, i) for i in range(len(con.support)) if touched in assign]
        anchors = dict.fromkeys(
            (group.multiply(cell[0], group.inverse_element(con.support[i].g)),
             cell[1] - con.support[i].dz)
            for cell, i in through if con.cell_matches(i, assign[cell]))
        for g0, z0 in anchors:
            for i, o in enumerate(con.support):
                sym = assign.get((group.multiply(g0, o.g), z0 + o.dz))
                if sym is None or not con.cell_matches(i, sym):
                    break
            else:
                out.append((con, (g0, z0)))
    return out


def verify_reduction_window(
    instance: DominoInstance,
    radius_g: int,
    height_z: int,
    budget: int = 10_000_000,
) -> VerifyOutcome:
    """Exhaustive backtracking search for an admissible total window
    assignment containing the origin symbol at the base of the window.

    Raises UndeterminedError (carrying the node count) when the search
    exceeds `budget` nodes.
    """
    require_nonnegative("height", height_z)
    group, alphabet = instance.g_group, instance.alphabet
    cells = window_cells(instance, radius_g, height_z)
    base = [g for g, z in cells if z == 0]
    window = ground(group, cells, base, _indexed_constraints(alphabet, instance.constraints))
    fixed = {}
    if instance.origin_symbol is not None:
        fixed[window.index[(group.identity, 0)]] = alphabet.code(instance.origin_symbol)
    val = solve(window, fixed, alphabet.size(), budget)
    if val is None:
        return Unsatisfiable()
    product = instance.product_group()
    line = product.factors[1]  # levels are 0..height_z, powers of its generator
    symbol = functools.cache(alphabet.symbol)
    return Satisfiable(Pattern({product.pair([g, line.element((1,) * z)]): symbol(v)
                                for (g, z), v in zip(window.cells, val)}))


def _indexed_constraints(alphabet: ComponentAlphabet,
                         constraints: Iterable[DominoConstraint]):
    """Each constraint as its (g, dz, allowed) cells, the allowed symbol
    codes computed once per distinct requirement."""
    allowed = functools.cache(alphabet.allowed)
    for con in constraints:
        _require_g_offsets(con)
        yield [(o.g, o.dz, allowed(req)) for o, req in zip(con.support, con.cells)]
