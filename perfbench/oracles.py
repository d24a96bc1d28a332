"""Verdict checks that do not go through the call under test.

Each check here is either a closed form, a construction whose answer is known
in advance, or a small search written against the definition of the rule
rather than against the library's pattern lists.
"""

from __future__ import annotations

WHITE, BLACK, RED = 0, 1, 2

# |B_n| of BS(1,2) on {a, b}, recorded from this repository for n = 0..8;
# no closed form is known to the benchmark.
BS_BALL_SIZES = (1, 5, 17, 43, 93, 191, 375, 711, 1317)


def ball_size(kind: str, n: int) -> int:
    """|B_n| for the benchmark's group kinds (see `inputs.make_group`)."""
    if kind == "z":
        return 2 * n + 1
    if kind == "z2":
        return 2 * n * n + 2 * n + 1
    if kind == "f2":
        return 2 * 3 ** n - 1
    if kind == "rw":        # Z on {a, A = a^2}: |k| <= 2n
        return 4 * n + 1
    if kind == "dp":        # C2 x Z: (0, k) with |k| <= n, (1, k) with |k| <= n-1
        return 4 * n if n else 1
    if kind == "fp":        # C2 * C3: alternating syllables, 1 or 2 choices each
        return 1 + sum(2 ** (k // 2) + 2 ** ((k + 1) // 2) for k in range(1, n + 1))
    if kind == "bs":
        return BS_BALL_SIZES[n]
    raise ValueError(kind)


# -- the mirror shift on Z^2, from the rule text ------------------------------


def diamond(r: int) -> list[tuple[int, int]]:
    """B_r of Z^2 in the library's window order (shortlex on x-then-y words)."""
    cells = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
             if abs(x) + abs(y) <= r]
    return sorted(cells, key=_z2_shortlex)


def _z2_shortlex(c):
    x, y = c
    word = (1 if x > 0 else 2,) * abs(x) + (3 if y > 0 else 4,) * abs(y)
    return (len(word), word)


def mirror_violation(assign: dict, reach: int) -> bool:
    """Whether a fully assigned translate of a mirror rule sits in `assign`.

    The rules: a red cell and a non-red cell are never vertical neighbours;
    two reds on one row at distance at most reach+1 never occur; around a
    red cell, the first position where a row stops being symmetric never
    holds one white and one black cell (up to distance reach+1).
    """
    for (x, y), v in assign.items():
        up = assign.get((x, y + 1))
        if up is not None and (v == RED) != (up == RED):
            return True
        if v != RED:
            continue
        for d in range(1, reach + 2):
            right = assign.get((x + d, y))
            if right is None:
                break
            if right == RED:
                return True
        for d in range(1, reach + 2):
            left, right = assign.get((x - d, y)), assign.get((x + d, y))
            if left is None or right is None:
                break
            if left != right:
                if {left, right} == {WHITE, BLACK}:
                    return True
                break
    return False


def mirror_extendable(assign: dict, radius: int) -> tuple[bool, int]:
    """(verdict, nodes) of a backtracking search in the library's order."""
    reach = max(2 * radius, 1)
    cur = dict(assign)
    if mirror_violation(cur, reach):
        return False, 0
    free = [c for c in diamond(radius) if c not in cur]
    nodes = 0

    def search(i: int) -> bool:
        nonlocal nodes
        if i == len(free):
            return True
        cell = free[i]
        for s in (WHITE, BLACK, RED):
            nodes += 1
            cur[cell] = s
            if not mirror_violation(cur, reach) and search(i + 1):
                return True
            del cur[cell]
        return False

    return search(0), nodes


# -- the machine-to-domino reduction on Z ---------------------------------------


def domino_expectation(delta: dict, n_states: int, radius_g: int, height: int) -> bool:
    """Whether the window instance of a Z machine is satisfiable.

    With the A1 radius at 2 * radius_g every level of the window holds at most
    one head, so the origin symbol forces the run level by level.  The window
    is unsatisfiable exactly when the run reaches the accepting (last) state
    at some step t <= height while the head has stayed inside [-radius_g,
    radius_g]; a head that leaves the window frees everything above it.
    """
    accepting = n_states - 1
    tape: dict[int, int] = {}
    head, state = 0, 0
    for _ in range(height + 1):
        if abs(head) > radius_g:
            return True
        if state == accepting:
            return False
        write, state, move = delta[(tape.get(head, 0), state)]
        tape[head] = write
        head += {0: 0, 1: 1, 2: -1}[move]
    return True


def domino_violations(group, instance, cells: dict) -> list:
    """Every (constraint tag, anchor) whose support is assigned and matches.

    `cells` maps (G element, level) to component tuples.  The scan anchors
    each constraint's first support offset at every assigned cell.
    """
    out = []
    for con in instance.constraints:
        off0 = con.support[0]
        inv0 = group.inverse_element(off0.g)
        for (g, z) in cells:
            g0 = group.multiply(g, inv0)
            z0 = z - off0.dz
            for i, off in enumerate(con.support):
                sym = cells.get((group.multiply(g0, off.g), z0 + off.dz))
                if sym is None or not all(sym[ci] in allowed
                                          for ci, allowed in con.cells[i]):
                    break
            else:
                out.append((con.tag, (g0, z0)))
    return out
