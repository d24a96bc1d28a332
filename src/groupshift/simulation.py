"""The simulation-theorem bundle: the clock stream, its layered product
rules, and the wrapped pattern-rejection machine compiled into forbidden
families plus a one-block projection.  The bundle's alphabet extends the
rules' (tape, field) alphabet by read, work and head; the rules' Delone
hooks check each star level once per scale.

The clock stream interleaves, for each scale n, every word u up to the
scheduled length with a run of time(n) idle symbols between u and its
inverse; positions are resolved arithmetically (blocks are never
materialized beyond explicitly requested prefixes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .errors import MalformedInputError
from .cayley import enumerate_words
from .families import DeloneFamily
from .groups import Element, Group, Letters
from .machines import GMachineSpec, RunOutcome, run_accepts
from .patterns import Alphabet, Pattern
from .domino import (
    ComponentAlphabet,
    DominoConstraint,
    GOffset,
    grounded_violations,
    headless_copy,
)

MAX_PREFIX = 1_000_000

DOT, STAR, PLUS, TRI = ".", "*", "+", ">"


def time_value(n: int) -> int:
    """The clock bound n^(n^n + n + 1), exact."""
    if n < 1:
        raise MalformedInputError("time bound needs n >= 1")
    return n ** (n ** n + n + 1)


@dataclass(frozen=True)
class XTimeParams:
    """Word-length schedule and step bound per scale; defaults follow the
    construction (schedule 4n, clock n^(n^n+n+1))."""

    length_schedule: Callable[[int], int] = lambda n: 4 * n
    time_fn: Callable[[int], int] = time_value

    def __post_init__(self):
        if self.time_fn(1) < 1:
            raise MalformedInputError("time bound must be >= 1")


PAPER_EXAMPLE_PARAMS = XTimeParams(length_schedule=lambda n: n,
                                   time_fn=lambda n: n + 1)


def xtime_alphabet(group: Group) -> tuple[str, ...]:
    return (DOT, STAR, PLUS, TRI) + tuple(
        group.generators[i].display for i in group.nonidentity_ids)


def _word_class_sizes(group: Group, max_len: int) -> list[int]:
    k = len(group.nonidentity_ids)
    return [k ** l for l in range(max_len + 1)]


def block_length(group: Group, params: XTimeParams, n: int) -> int:
    """|w_n| = 1 + sum over words u of (2|u| + 1 + time(n))."""
    t = params.time_fn(n)
    total = 1
    for l, cnt in enumerate(_word_class_sizes(group, params.length_schedule(n))):
        total += cnt * (2 * l + 1 + t)
    return total


def oplus_positions(group: Group, params: XTimeParams, n: int) -> int:
    """Index of the n-th plus marker (each block starts with one)."""
    if n < 1:
        raise MalformedInputError("n >= 1 required")
    pos = 1
    for m in range(1, n):
        pos += block_length(group, params, m)
    return pos


def _word_of_rank(group: Group, length: int, rank: int) -> Letters:
    ids = group.nonidentity_ids
    k = len(ids)
    out = []
    for _ in range(length):
        rank, digit = divmod(rank, k)
        out.append(ids[digit])
    out.reverse()
    return tuple(out)


def xtime_symbol(group: Group, params: XTimeParams, k: int) -> str:
    """The k-th symbol of the clock stream, by block arithmetic."""
    if k < 0:
        raise MalformedInputError("index must be >= 0")
    if k == 0:
        return STAR
    pos = k - 1
    n = 1
    while True:
        size = block_length(group, params, n)
        if pos < size:
            break
        pos -= size
        n += 1
    if pos == 0:
        return PLUS
    pos -= 1
    t = params.time_fn(n)
    sizes = _word_class_sizes(group, params.length_schedule(n))
    for l, cnt in enumerate(sizes):
        v_len = 2 * l + 1 + t
        class_size = cnt * v_len
        if pos >= class_size:
            pos -= class_size
            continue
        rank, inner = divmod(pos, v_len)
        word = _word_of_rank(group, l, rank)
        if inner < l:
            return group.generators[word[inner]].display
        if inner == l:
            return TRI
        if inner < l + 1 + t:
            return DOT
        back = inner - (l + 1 + t)
        letter = group.inverse_letter(word[l - 1 - back])
        return group.generators[letter].display
    raise AssertionError("position beyond block arithmetic")


def xtime_prefix(group: Group, params: XTimeParams, length: int) -> list[str]:
    """Eager materialization of the first `length` symbols (capped)."""
    if length > MAX_PREFIX:
        raise MalformedInputError(f"prefix length capped at {MAX_PREFIX}")
    out: list[str] = []
    if length <= 0:
        return out
    out.append(STAR)
    n = 1
    while len(out) < length:
        t = params.time_fn(n)
        out.append(PLUS)
        for l in range(params.length_schedule(n) + 1):
            for word in itertools.product(group.nonidentity_ids, repeat=l):
                out.extend(group.generators[x].display for x in word)
                out.append(TRI)
                out.extend([DOT] * min(t, length - len(out) + 1))
                out.extend(group.generators[group.inverse_letter(x)].display
                           for x in reversed(word))
                if len(out) >= length:
                    return out[:length]
        n += 1
    return out[:length]


# -- the layered product rules ---------------------------------------------


TAPE, FIELD = "tape", "field"


@dataclass
class URuleSet:
    """Forbidden rules for the clock-field product over the group x line.

    `constraints` hold the finite local families (copy, shift, vertical
    clock determinism, level-constant clock); the scale hooks tying level
    k_n above a star row to the n-th Delone family stay symbolic and are
    enforced by `check_window`.
    """

    group: Group
    params: XTimeParams
    alphabet: ComponentAlphabet
    constraints: tuple[DominoConstraint, ...]

    def check_window(self, assign: Mapping[tuple[Element, int], tuple[int, int]]
                     ) -> list[str]:
        """All violations (finite rules + Delone hooks) in a window."""
        out = [f"{con.tag}@{cell}" for con, cell in
               grounded_violations(self.group, self.constraints, assign)]
        out.extend(self.delone_hook_violations(assign))
        return out

    def delone_hook_violations(
        self, assign: Mapping[tuple[Element, int], tuple[int, int]]
    ) -> list[str]:
        """One report per (star level z, n) whose level z + k_n fails Y_n."""
        tape_ci, field_ci = self.alphabet.index(TAPE), self.alphabet.index(FIELD)
        star = self.alphabet.value_index(TAPE, STAR)
        levels, stars = {}, set()
        for (g, z), sym in assign.items():
            levels.setdefault(z, {})[g] = sym[field_ci]
            if sym[tape_ci] == star:
                stars.add(z)
        top = max(levels, default=0)
        out = []
        for z in sorted(stars):
            n, k_n = 1, 1
            while z + k_n <= top:
                if DeloneFamily(n).violates(self.group, Pattern(levels.get(z + k_n, {}))):
                    out.append(f"delone_hook(n={n})@z={z + k_n}")
                k_n += block_length(self.group, self.params, n)
                n += 1
        return out


def build_u_rules(group: Group, params: XTimeParams,
                  window_radius: int) -> URuleSet:
    """The copy/shift/determinism rule families over (clock, field) cells."""
    tape_vals = xtime_alphabet(group)
    alphabet = ComponentAlphabet(((TAPE, tape_vals), (FIELD, ("0", "1", "2"))))
    here = GOffset(group.identity, 0)
    up = GOffset(group.identity, 1)
    cons: list[DominoConstraint] = []
    copy_tapes = frozenset({alphabet.value_index(TAPE, TRI),
                            alphabet.value_index(TAPE, DOT)})
    for v in range(3):
        for w in range(3):
            if v == w:
                continue
            # copy rule: idle/start levels repeat the field below
            cons.append(DominoConstraint(
                (here, up),
                (alphabet.require(field=v),
                 alphabet.require(tape=copy_tapes, field=w)),
                "copy"))
            # shift rule: a generator level displaces the field by it
            for s in group.nonidentity_ids:
                s_val = alphabet.value_index(TAPE, group.generators[s].display)
                cons.append(DominoConstraint(
                    (here, GOffset(group.element((s,)), 1)),
                    (alphabet.require(field=v),
                     alphabet.require(tape={s_val}, field=w)),
                    "shift"))
    # the clock is constant along each level
    for s in group.nonidentity_ids:
        for v, label in enumerate(tape_vals):
            others = frozenset(range(len(tape_vals))) - {v}
            cons.append(DominoConstraint(
                (here, GOffset(group.element((s,)), 0)),
                (alphabet.require(tape={v}), alphabet.require(tape=others)),
                "level_constant"))
    # above a star level the clock follows the stream
    star_val = alphabet.value_index(TAPE, STAR)
    for m in range(1, window_radius + 1):
        want = alphabet.value_index(TAPE, xtime_symbol(group, params, m))
        others = frozenset(range(len(tape_vals))) - {want}
        cons.append(DominoConstraint(
            (here, GOffset(group.identity, m)),
            (alphabet.require(tape={star_val}), alphabet.require(tape=others)),
            "clock_determinism"))
    return URuleSet(group, params, alphabet, tuple(cons))


# -- the wrapped machine -------------------------------------------------------


@dataclass(frozen=True)
class WrappedMachineSpec:
    """A two-track walker: a read-only pattern track and a private work
    track.  delta: (read symbol, work symbol, state) -> (work write, state,
    move letter); initial state first, the single accepting state last.
    `blank` is the work track's blank, the inner machine's."""

    group: Group
    read_alphabet: Alphabet
    work_alphabet: Alphabet
    states: tuple[str, ...]
    delta: Mapping[tuple[int, int, int], tuple[int, int, int]]
    blank: int
    _machine: GMachineSpec = field(init=False, repr=False, compare=False)

    @property
    def accepting(self) -> int:
        return len(self.states) - 1

    def __post_init__(self):
        """Builds the walker over one tape of (read, work) cells, for
        `run_wrapped`; GMachineSpec checks that delta is total and in range."""
        n_work = len(self.work_alphabet)
        delta = {(x * n_work + a, q): (x * n_work + b, r, s)
                 for (x, a, q), (b, r, s) in self.delta.items()}
        labels = tuple(str((x, a)) for x in self.read_alphabet.symbols
                       for a in self.work_alphabet.symbols)
        object.__setattr__(self, "_machine", GMachineSpec(
            self.group, self.states, frozenset({self.accepting}),
            Alphabet(labels), self.blank, delta))


def build_wrapped_machine(group: Group, m_x: GMachineSpec,
                          pattern_alphabet: Alphabet,
                          n_max: int = 1) -> WrappedMachineSpec:
    """Bounded copy/run/erase wrapper around a pattern-rejection machine.

    For each scale pair (n, k), k <= n <= n_max: copy the read track on the
    ball of radius k to the work track (walking every word of length <= k
    out and back), run the inner machine n steps (tracking the return word),
    walk back, erase the touched region, then move to the next pair; after
    the last pair the schedule restarts.  Acceptance of the inner machine at
    any point jumps to the single accepting state.
    """
    if n_max < 1:
        raise MalformedInputError("n_max must be >= 1")
    work = m_x.tape_alphabet
    # read symbols must exist verbatim on the work track
    embed = {i: work.index(label) for i, label in enumerate(pattern_alphabet.symbols)}
    blank = m_x.blank

    states: list[str] = []
    delta: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    n_read, n_work = len(pattern_alphabet), len(work)

    def new_state(name: str) -> int:
        states.append(name)
        return len(states) - 1

    def wire(q: int, write_fn, nxt: int, move: int) -> None:
        for x in range(n_read):
            for a in range(n_work):
                delta[(x, a, q)] = (write_fn(x, a), nxt, move)

    def keep(x, a):
        return a

    def chain_visits(tag: str, words, act_write_fn, exit_state: int) -> int:
        """Out-walk / act / back-walk each word in order; returns the entry."""
        entry = exit_state
        for wi in range(len(words) - 1, -1, -1):
            w = words[wi]
            nxt_entry = entry
            back = nxt_entry
            for j, letter in enumerate(w):
                back_state = new_state(f"{tag}:{wi}:b{j}")
                wire(back_state, keep, back, group.inverse_letter(letter))
                back = back_state
            act = new_state(f"{tag}:{wi}:act")
            wire(act, act_write_fn, back, 0)
            out = act
            for j in range(len(w) - 1, -1, -1):
                out_state = new_state(f"{tag}:{wi}:o{j}")
                wire(out_state, keep, out, w[j])
                out = out_state
            entry = out
        return entry

    accept = new_state("ACCEPT")
    wire(accept, keep, accept, 0)

    pairs = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    pair_entries: list[int] = [new_state(f"pair{pi}") for pi in range(len(pairs))]

    for pi, (n, k) in enumerate(pairs):
        next_entry = pair_entries[(pi + 1) % len(pairs)]
        erase_words = list(enumerate_words(group, k + n))
        erase_entry = chain_visits(
            f"p{pi}:erase", erase_words, lambda x, a: blank, next_entry)

        # return chains: one per possible recorded walk, popping letters
        ret_of: dict[Letters, int] = {(): erase_entry}

        def ret_state(rw: Letters) -> int:
            if rw not in ret_of:
                sid = new_state(f"p{pi}:ret:{len(rw)}")
                prev = ret_state(rw[:-1])
                wire(sid, keep, prev, group.inverse_letter(rw[-1]))
                ret_of[rw] = sid
            return ret_of[rw]

        # run phase: execute the inner machine n steps, remembering the way back
        run_of: dict[tuple[int, int, Letters], int] = {}
        order: list[tuple[int, int, Letters]] = []

        def run_state(q: int, t: int, rw: Letters) -> int:
            key = (q, t, rw)
            if key not in run_of:
                run_of[key] = new_state(f"p{pi}:run:{q}:{t}")
                order.append(key)
            return run_of[key]

        run_entry = run_state(m_x.initial_state, n, ())
        done = 0
        while done < len(order):
            q, t, rw = order[done]
            done += 1
            sid = run_of[(q, t, rw)]
            if q in m_x.accepting:
                wire(sid, keep, accept, 0)
                continue
            if t == 0:
                wire(sid, keep, ret_state(rw), 0)
                continue
            for a in range(n_work):
                b, r, s = m_x.delta[(a, q)]
                rw2 = rw + (s,) if s else rw
                nxt = run_state(r, t - 1, rw2)
                for x in range(n_read):
                    delta[(x, a, sid)] = (b, nxt, s)

        copy_words = list(enumerate_words(group, k))
        copy_entry = chain_visits(
            f"p{pi}:copy", copy_words, lambda x, a: embed[x], run_entry)
        wire(pair_entries[pi], keep, copy_entry, 0)

    # reorder: initial state (first pair entry) to 0, accepting state last
    start, acc = pair_entries[0], accept
    order_ids = [start] + [i for i in range(len(states)) if i not in (start, acc)] + [acc]
    remap = {old: new for new, old in enumerate(order_ids)}
    new_states = tuple(states[old] for old in order_ids)
    new_delta = {(x, a, remap[q]): (b, remap[r], s)
                 for (x, a, q), (b, r, s) in delta.items()}
    return WrappedMachineSpec(group, pattern_alphabet, work, new_states,
                              new_delta, blank)


def run_wrapped(spec: WrappedMachineSpec, read: Pattern, budget: int) -> RunOutcome:
    """Drive the two-track walker as one machine (`run_accepts`) whose cell
    symbol x * |work| + a holds read symbol x and work symbol a, with blank
    (0, work blank)."""
    n_work = len(spec.work_alphabet)
    tape = Pattern({cell: x * n_work + spec.blank for cell, x in read.items()})
    return run_accepts(spec._machine, tape, budget)


# -- the bundle ---------------------------------------------------------------


READ, WORK, HEAD = "read", "work", "head"


@dataclass
class SimulationBundle:
    group: Group
    final_alphabet: ComponentAlphabet
    u_rules: URuleSet
    configuration: tuple[DominoConstraint, ...]
    starting: tuple[DominoConstraint, ...]
    ending: tuple[DominoConstraint, ...]
    transition: tuple[DominoConstraint, ...]
    wrapped: WrappedMachineSpec
    abar: int

    def machine_rules(self) -> dict[str, tuple[DominoConstraint, ...]]:
        return {"configuration": self.configuration, "starting": self.starting,
                "ending": self.ending, "transition": self.transition}

    def phi(self, symbol: tuple[int, ...]) -> int:
        """The one-block projection: star rows expose the pattern track."""
        alpha = self.final_alphabet
        if symbol[alpha.index(TAPE)] == alpha.value_index(TAPE, STAR):
            return symbol[alpha.index(READ)]
        return self.abar

    def phi_window(self) -> tuple[Element, ...]:
        return (self.group.identity,)

    def phi_total(self) -> bool:
        n_read = len(self.final_alphabet.values(READ))
        return all(0 <= self.phi(s) < n_read for s in self.final_alphabet.symbols())


def build_simulation(group: Group, m_x: GMachineSpec, abar_label: str,
                     pattern_alphabet: Alphabet,
                     params: Optional[XTimeParams] = None,
                     n_max: int = 1,
                     u_window_radius: int = 3) -> SimulationBundle:
    """Compile the full bundle: clock-product rules, the wrapped machine's
    four finite families over the five-component alphabet, and the
    projection back onto the pattern alphabet."""
    params = params or XTimeParams()
    abar = pattern_alphabet.index(abar_label)
    wrapped = build_wrapped_machine(group, m_x, pattern_alphabet, n_max)
    u_rules = build_u_rules(group, params, u_window_radius)
    k = len(wrapped.states)
    head_vals = tuple(str(i) for i in range(k + 1))
    alphabet = ComponentAlphabet(u_rules.alphabet.components + (
        (READ, pattern_alphabet.symbols),
        (WORK, wrapped.work_alphabet.symbols),
        (HEAD, head_vals)))
    here = GOffset(group.identity, 0)
    up = GOffset(group.identity, 1)
    n_read = len(pattern_alphabet)
    n_work = len(wrapped.work_alphabet)
    tri = alphabet.value_index(TAPE, TRI)

    configuration = tuple(
        DominoConstraint((here, up),
                         (alphabet.require(read=x), alphabet.require(read=y)),
                         "configuration")
        for x in range(n_read) for y in range(n_read) if x != y)

    starting: list[DominoConstraint] = []
    for a in range(n_work):
        if a != wrapped.blank:
            starting.append(DominoConstraint(
                (here,), (alphabet.require(tape=tri, work=a),), "starting"))
    for t in range(k + 1):
        if t != 1:
            starting.append(DominoConstraint(
                (here,), (alphabet.require(tape=tri, field=1, head=t),), "starting"))
        if t != 0:
            starting.append(DominoConstraint(
                (here,), (alphabet.require(tape=tri, field={0, 2}, head=t),),
                "starting"))

    ending = tuple(
        DominoConstraint((here,), (alphabet.require(work=a, head=k),), "ending")
        for a in range(n_work))

    transition = headless_copy(group, alphabet, WORK, HEAD)
    live = frozenset({1, 2})
    all_heads = frozenset(range(k + 1))
    all_work = frozenset(range(n_work))
    for (x, a, q), (b, r, s) in wrapped.delta.items():
        base = alphabet.require(read=x, work=a, head=q + 1, field=live)
        others_w = all_work - {b}
        if others_w:
            transition.append(DominoConstraint(
                (here, up), (base, alphabet.require(work=others_w)), "B1"))
        move_off = GOffset(group.element((s,)), 1)
        others_h = all_heads - {r + 1}
        transition.append(DominoConstraint(
            (here, move_off), (base, alphabet.require(head=others_h)), "B2"))
    for q in range(k):
        frozen = alphabet.require(head=q + 1, field={0})
        transition.append(DominoConstraint(
            (here, up), (frozen, alphabet.require(head=all_heads - {q + 1})),
            "frozen"))
        for a in range(n_work):
            transition.append(DominoConstraint(
                (here, up),
                (alphabet.require(head=q + 1, field={0}, work=a),
                 alphabet.require(work=all_work - {a})),
                "frozen"))

    return SimulationBundle(group, alphabet, u_rules, configuration,
                            tuple(starting), ending, tuple(transition),
                            wrapped, abar)
