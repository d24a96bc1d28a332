"""Compiled local constraints on a finite window, and the one backtracking
solver, behind `extendable`, `factor_window_admissible`,
`ForbiddenFamily.violates` and `verify_reduction_window`.

`ground` is the one grounding routine and the one owner of the window
layout: a window is `base` x `levels`, a list of G cells stacked
level-major, so window cell j is base[j % width] on level j // width (a
ball is one level), and `index` gives a base cell's place on level 0.  A
constraint comes as (g, z, allowed) cells, anchored at its first cell
(g0, z0): each cell becomes the offset (g0^-1 * g, z - z0).  A G part g
fits only if it lies in the base's difference set D = {c^-1 * c'}, its
column {j: k}, base[j] * g = base[k], not empty; the rest are dropped,
exactly on every kind.  Columns cost |base| products each until the base's
size in offsets has been tried, then `differences` builds all of D.
Constraints with the same offsets and the same allowed sets but at one
position merge into one taking the union there, which fires exactly when
one of them would: the search is unchanged.

The solver assigns the free cells in window order, so a placement becomes
fully assigned exactly when its last cell in that order does, and that cell
alone watches it (Chaff's watched literals, Moskewicz et al., DAC 2001,
with the watch fixed by the search order): it is filed there under its
allowed set at that cell, as the (cell, allowed) pairs of its rest, and
checked only when the search puts an allowed symbol on its watch.
Identical placements are filed once.  The last cell is the highest (dz, k)
on every level and constraints are invariant under the level shift, so
each placement is compiled once per base anchor, its rest read at
j + z * width on watch level z.  A placement spanning s levels applies on
every watch level >= s; the levels at or above a base cell's largest span
share one watch tuple.  When a search starts, the placements whose last
cell is fixed, and any the caller adds, are filed under their last free
cell.  A constraint with no cells fires in every window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import UndeterminedError
from .groups import Element, Group

# the (cell index, allowed symbol indices) pairs of a placement; its rest is
# the same minus its watch, each index relative to the watch's level
Placement = tuple[tuple[int, frozenset[int]], ...]
# the rests of the placements sharing a watch cell and their allowed set there
Bucket = tuple[frozenset[int], tuple[Placement, ...]]
Moves = dict[Element, dict[int, int]]


@dataclass(frozen=True, eq=False)
class CompiledWindow:
    base: tuple[Element, ...]
    index: Mapping[Element, int]  # base cell -> its index on level 0
    width: int  # cells per level
    levels: int
    watch: tuple[tuple[Bucket, ...], ...]  # per cell: the placements it is last in
    always: bool


def differences(group: Group, base: Sequence[Element]) -> Moves:
    """The base's difference set {c^-1 * c'}, g as {j: k} with base[j] * g = base[k]."""
    moves: Moves = {}
    for j, c in enumerate(base):
        inv = group.inverse_element(c)
        for k, d in enumerate(base):
            moves.setdefault(group.multiply(inv, d), {})[j] = k
    return moves


def ground(group: Group, base: Sequence[Element],
           constraints: Iterable[Iterable[tuple[Element, int, frozenset[int]]]],
           levels: int = 1, moves: Optional[Moves] = None) -> CompiledWindow:
    """Compile every placement of the (g, z, allowed) constraints inside
    `levels` levels of `base`; `moves` is the base's `differences`, if known."""
    at = {c: j for j, c in enumerate(base)}
    columns: Moves = {} if moves is None else moves

    def column(g: Element) -> dict[int, int]:
        nonlocal columns, moves
        if moves is None and g not in columns:
            if len(columns) < len(base):
                columns[g] = {j: at[h] for j, c in enumerate(base)
                              if (h := group.multiply(c, g)) in at}
            else:
                columns = moves = differences(group, base)
        return columns.get(g, {})

    width = max(len(base), 1)
    relative: dict[tuple[Element, Element], Optional[Element]] = {}  # None: not in D
    by_offsets: dict[tuple, list[tuple[frozenset[int], ...]]] = {}
    for con in constraints:
        offsets, row = [], []
        for g, z, allowed in con:
            if not offsets:
                g0, z0 = g, z
            if (g0, g) not in relative:
                off = group.multiply(group.inverse_element(g0), g)
                relative[g0, g] = off if column(off) else None
            if (off := relative[g0, g]) is None:
                break
            offsets.append((off, z - z0))
            row.append(allowed)
        else:
            by_offsets.setdefault(tuple(offsets), []).append(tuple(row))
    always = by_offsets.pop((), None) is not None

    # one shared object per distinct (cell, allowed) pair
    pairs: dict[tuple[int, frozenset[int]], tuple[int, frozenset[int]]] = {}
    # per base cell, by its allowed set: the distinct rests of the placements
    # it is last in, each with its level span (a repeat keeps the first)
    filed: list[dict[frozenset[int], dict[Placement, int]]] = [{} for _ in base]
    for offsets, rows in by_offsets.items():
        rows = _merged(rows)
        dzs = [dz for _, dz in offsets]
        top, span = max(dzs), max(dzs) - min(dzs)
        if span >= levels:
            continue
        cols = [column(g) for g, _ in offsets]
        for j0 in min(cols, key=len):
            if not all(j0 in col for col in cols):
                continue
            to = [(dz, col[j0]) for dz, col in zip(dzs, cols)]
            last = to.index(max(to))
            js = [(dz - top) * width + k for dz, k in to]
            for allowed in rows:
                rest = tuple(pairs.setdefault(p, p)
                             for i, p in enumerate(zip(js, allowed)) if i != last)
                filed[to[last][1]].setdefault(allowed[last], {}).setdefault(rest, span)

    watch: list = [()] * (len(base) * levels)
    for k, row in enumerate(filed):
        top = max((s for rests in row.values() for s in rests.values()), default=0)
        for z in range(levels):
            if z <= top:
                shared = tuple((a, bucket) for a, rests in row.items()
                               if (bucket := tuple(r for r, s in rests.items() if s <= z)))
            watch[z * width + k] = shared
    return CompiledWindow(tuple(base), at, width, levels, tuple(watch), always)


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


def _fires(val: list[int], checks: tuple[Bucket, ...], s: int, shift: int) -> bool:
    """Whether s on a watch cell completes a placement, rest cell j at j + shift."""
    for a, bucket in checks:
        if s in a:
            for rest in bucket:
                for j, b in rest:
                    if val[j + shift] not in b:
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
    placement, of the window's or of `placements` (absolute cell indices),
    fires on and `accept`, if given, takes; None if there is none.
    One node is counted per (cell, symbol) tried; once the count exceeds
    `budget` an UndeterminedError carrying the count is raised.
    """
    if window.always:
        return None
    width = window.width
    val = [-1] * len(window.watch)
    for j, s in fixed.items():
        val[j] = s
    # the caller's placements and those whose last cell is fixed: check the
    # fully fixed ones now and watch the rest from their last free cell
    late: dict[int, dict[frozenset[int], list[Placement]]] = {}
    for rest in itertools.chain(
            (r if f < width else tuple((j + f - f % width, b) for j, b in r)
             for f, s in fixed.items() for a, bucket in window.watch[f]
             if s in a for r in bucket), placements):
        free = [k for k, (j, _) in enumerate(rest) if j not in fixed]
        if not free:
            for j, b in rest:
                if val[j] not in b:
                    break
            else:
                return None
            continue
        k = max(free, key=lambda k: rest[k][0])
        j, a = rest[k]
        rest = rest[:k] + rest[k + 1:]
        if j >= width:
            rest = tuple((i - j + j % width, b) for i, b in rest)
        late.setdefault(j, {}).setdefault(a, []).append(rest)
    watch = list(window.watch)
    for j, row in late.items():
        watch[j] += tuple((a, tuple(bucket)) for a, bucket in row.items())

    # iterative, so that no frame or closure outlives the call
    free_cells = [j for j in range(len(val)) if j not in fixed]
    tried = [0] * (len(free_cells) + 1)  # per position: the next symbol to try
    nodes = i = 0
    while i >= 0:
        if i == len(free_cells):
            if accept is None or accept(val):
                return val
            i -= 1
            continue
        j = free_cells[i]
        checks, shift = watch[j], j - j % width
        for s in range(tried[i], n_symbols):
            nodes += 1
            if nodes > budget:
                raise UndeterminedError(f"search exceeded {budget} nodes", nodes=nodes)
            val[j] = s
            if not _fires(val, checks, s, shift):
                tried[i], tried[i + 1] = s + 1, 0
                i += 1
                break
        else:
            val[j] = -1
            i -= 1
    return None
