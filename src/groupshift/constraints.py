"""Compiled local constraints on a finite window, and the one backtracking
solver, behind `extendable`, `factor_window_admissible`,
`ForbiddenFamily.violates` and `verify_reduction_window`.

`ground` is the one grounding routine.  A window is levels of a base list
of G cells, level-major: window cell j is base[j % width] on level
j // width (a ball is one level).  A constraint comes as (g, z, allowed)
cells, anchored at its first cell (g0, z0): each cell becomes the offset
(g0^-1 * g, z - z0).  Under a geodesic normal form a constraint with a G
part longer than `reach` is dropped: with the window's cells pairwise at
most `reach` apart (2r on B_r), c and c * g both inside imply |g| <= reach,
on every kind.  Each distinct G part is shifted through the base once and
placed on every level by arithmetic: (g, dz) moves cell z * width + j to
(z + dz) * width + j', where base[j] * g = base[j'].

`compile_window` grounds anchored constraints, sequences of (offset,
allowed) pairs: placed at a cell c one covers c moved by each offset, and
fires when each of them holds a symbol index in its `allowed` set.  Each is
grounded at every anchor once, keeping the placements wholly inside the
window, so the search does no group arithmetic.  Constraints with the same
offsets whose allowed sets differ at one position only are first merged into
one taking the union there: it fires exactly when one of them would, on the
same cells, so the search tree is unchanged.

The solver assigns the free cells in window order, so a placement becomes
fully assigned exactly when its last cell in that order does.  Each
placement is therefore watched by that cell alone (Chaff's watched
literals, Moskewicz et al., DAC 2001, with the watch fixed by the search
order): it is filed there under its allowed set at that cell and stored
as the (cell, allowed) pairs of its other cells, and it is checked only
when the search puts an allowed symbol on its watch.  Identical
placements are filed once.  When a search starts, the placements whose
last cell is fixed, and any the caller adds, are filed under their last
free cell.  A constraint with no cells fires in every window.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import UndeterminedError
from .groups import Element, Group

# the (cell index, allowed symbol indices) pairs of a placement; its rest is
# the same minus its watch
Placement = tuple[tuple[int, frozenset[int]], ...]
# the rests of the placements sharing a watch cell and their allowed set there
Bucket = tuple[frozenset[int], tuple[Placement, ...]]
Constraint = Sequence[tuple[Hashable, frozenset[int]]]


@dataclass(frozen=True, eq=False)
class CompiledWindow:
    cells: tuple
    index: Mapping[Hashable, int]
    watch: tuple[tuple[Bucket, ...], ...]  # per cell: the placements it is last in
    always: bool


def compile_window(cells: Sequence[Hashable], constraints: Iterable[Constraint],
                   column: Callable[[Hashable], Sequence[int]]) -> CompiledWindow:
    """Ground every constraint at every anchor inside the window.

    `column(offset)` gives the index each window cell moves to, -1 outside
    the window; it is called once per distinct offset.
    """
    by_offsets: dict[tuple, list[tuple[frozenset[int], ...]]] = {}
    always = False
    for con in constraints:
        if con:
            by_offsets.setdefault(tuple(off for off, _ in con), []).append(
                tuple(a for _, a in con))
        else:
            always = True
    column = functools.cache(column)
    # one shared object per distinct (cell, allowed) pair
    pairs: dict[tuple[int, frozenset[int]], tuple[int, frozenset[int]]] = {}
    # per cell: the distinct rests of the placements it is last in, by its
    # allowed set, in filing order (a repeated rest keeps its first object)
    filed: list[dict[frozenset[int], dict[Placement, None]]] = [{} for _ in cells]
    for offsets, rows in by_offsets.items():
        rows = _merged(rows)
        for js in zip(*map(column, offsets)):
            if -1 in js:
                continue
            last = js.index(max(js))
            for allowed in rows:
                rest = tuple(pairs.setdefault(p, p)
                             for k, p in enumerate(zip(js, allowed)) if k != last)
                filed[js[last]].setdefault(allowed[last], {})[rest] = None
    watch = tuple(tuple((a, tuple(bucket)) for a, bucket in row.items())
                  for row in filed)
    return CompiledWindow(tuple(cells), {c: j for j, c in enumerate(cells)},
                          watch, always)


def ground(group: Group, cells: Sequence[Hashable], base: Sequence[Element], reach: int,
           constraints: Iterable[Iterable[tuple[Element, int, frozenset[int]]]],
           shift: Optional[Callable[[Element, Element], Optional[Element]]] = None
           ) -> CompiledWindow:
    """Anchor the (g, z, allowed) constraints, drop those out of `reach` and
    compile the rest onto `cells`, levels of `base` (see the module
    docstring); `shift(c, g)`, by default the group's product, is c * g or None."""
    shift = shift or group.multiply
    reach = reach if group.geodesic_normal_form() else None
    moved: dict[tuple[Element, Element], Optional[Element]] = {}  # None: out of reach

    def anchored():
        for con in constraints:
            row = []
            for g, z, allowed in con:
                if not row:
                    g0, z0 = g, z
                key = (g0, g)
                if key not in moved:
                    off = group.multiply(group.inverse_element(g0), g)
                    fits = reach is None or group.length_of(off) <= reach
                    moved[key] = off if fits else None
                off = moved[key]
                if off is None:
                    break
                row.append(((off, z - z0), allowed))
            else:
                yield row

    width = len(base)
    levels = len(cells) // max(width, 1)
    at = {c: j for j, c in enumerate(base)}
    g_columns: dict[Element, list[int]] = {}  # shared by every level

    def column(off: tuple[Element, int]) -> list[int]:
        g, dz = off
        if g not in g_columns:
            g_columns[g] = [at.get(shift(c, g), -1) for c in base]
        return [z * width + j if j >= 0 and 0 <= z < levels else -1
                for z in range(dz, levels + dz) for j in g_columns[g]]

    return compile_window(cells, anchored(), column)


def _merged(rows: list[tuple[frozenset[int], ...]]) -> list[tuple[frozenset[int], ...]]:
    """The allowed sets of constraints sharing their offsets, position by
    position merging the rows equal but there into one taking the union."""
    for p in range(len(rows[0])):
        union: dict[tuple[frozenset[int], ...], frozenset[int]] = {}
        for row in rows:
            rest = row[:p] + row[p + 1:]
            union[rest] = union.get(rest, frozenset()) | row[p]
        rows = [rest[:p] + (a,) + rest[p:] for rest, a in union.items()]
    return rows


def _fires(val: list[int], rests: tuple[Placement, ...]) -> bool:
    for rest in rests:
        for j, a in rest:
            if val[j] not in a:
                break
        else:
            return True
    return False


def solve(window: CompiledWindow, fixed: Mapping[int, int], n_symbols: int,
          budget: int,
          accept: Optional[Callable[[list[int]], bool]] = None,
          placements: Iterable[Placement] = ()) -> Optional[list[int]]:
    """Backtrack over the free cells in window order, symbols 0..n_symbols-1.

    Returns the first total assignment (one symbol index per cell) that no
    placement, of the window's or of `placements`, fires on and `accept`, if
    given, takes; None if there is none.
    One node is counted per (cell, symbol) tried; once the count exceeds
    `budget` an UndeterminedError carrying the count is raised.
    """
    if window.always:
        return None
    val = [-1] * len(window.cells)
    for j, s in fixed.items():
        val[j] = s
    # the caller's placements and those whose last cell is fixed: check the
    # fully fixed ones now and watch the rest from their last free cell
    late: dict[int, dict[frozenset[int], list[Placement]]] = {}
    for rest in itertools.chain(
            (r for f, s in fixed.items() for a, bucket in window.watch[f]
             if s in a for r in bucket), placements):
        free = [k for k, (j, _) in enumerate(rest) if j not in fixed]
        if not free:
            if _fires(val, (rest,)):
                return None
            continue
        k = max(free, key=lambda k: rest[k][0])
        j, a = rest[k]
        late.setdefault(j, {}).setdefault(a, []).append(rest[:k] + rest[k + 1:])
    watch = list(window.watch)
    for j, row in late.items():
        watch[j] += tuple((a, tuple(bucket)) for a, bucket in row.items())

    free_cells = [j for j in range(len(val)) if j not in fixed]
    symbols = range(n_symbols)
    nodes = 0

    def search(i: int) -> bool:
        nonlocal nodes
        if i == len(free_cells):
            return accept is None or accept(val)
        j = free_cells[i]
        checks = watch[j]
        for s in symbols:
            nodes += 1
            if nodes > budget:
                raise UndeterminedError(f"search exceeded {budget} nodes",
                                        nodes=nodes)
            val[j] = s
            if (not any(s in a and _fires(val, bucket) for a, bucket in checks)
                    and search(i + 1)):
                return True
        val[j] = -1
        return False

    return val if search(0) else None
