"""The group-walking machine VM: both action models, acceptance, retargeting.

Tapes are finite-support dicts keyed by canonical elements; the blank symbol
is implicit.  One mutable `MachineConfig` is the run state and `step_moving`
the one step, which advances it in place.  `trace_run` is the run loop of a
plain machine; the checked loop of `pathwalk.PathRun` takes the same step.
The fixed-head model is a view on that run (`MachineConfig.observable_tape`);
`fixed_moving_equivalent` checks it against a literal tape-shifting
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import MalformedInputError, require_nonnegative
from .groups import Element, Group, Letters
from .patterns import Alphabet, Pattern, PatternCoding, check_consistency, Inconsistent, coding_length


@dataclass(frozen=True)
class GMachineSpec:
    """(Q, Sigma, blank, q0, QF, delta) with moves drawn from the group's S."""

    group: Group
    states: tuple[str, ...]
    accepting: frozenset[int]
    tape_alphabet: Alphabet
    blank: int
    delta: Mapping[tuple[int, int], tuple[int, int, int]]

    def __post_init__(self):
        for sym in range(len(self.tape_alphabet)):
            for q in range(len(self.states)):
                if (sym, q) not in self.delta:
                    raise MalformedInputError(f"delta not total: missing ({sym}, {q})")
        _check_ranges(self, self.delta.values())

    @property
    def initial_state(self) -> int:
        return 0


def _check_ranges(spec, outputs: Iterable[tuple[int, int, int]]) -> None:
    """Malformed unless a machine spec's blank and accepting states, and each
    (write, next state, move) output, lie in range (a move is a generator id)."""
    n_sym, n_states = len(spec.tape_alphabet), len(spec.states)
    if not (0 <= spec.blank < n_sym and all(0 <= q < n_states for q in spec.accepting)):
        raise MalformedInputError("blank symbol or accepting state out of range")
    for w, r, move in outputs:
        if not (0 <= w < n_sym and 0 <= r < n_states
                and 0 <= move < len(spec.group.generators)):
            raise MalformedInputError(f"delta output {(w, r, move)} out of range")


@dataclass
class MachineConfig:
    """Moving-head configuration: finite-support tape, head element, state.

    The same run read in the fixed-head model has base tape `tape` and offset
    `head`: the head stays at the origin and sees x(h) = tape(head * h).
    """

    tape: dict[Element, int]
    head: Element
    state: int
    steps: int = 0

    def read(self, spec: GMachineSpec) -> int:
        return self.tape.get(self.head, spec.blank)

    def observable_tape(self, group: Group) -> dict[Element, int]:
        """The fixed-head model's tape {head^-1 * cell: v}."""
        inv = group.inverse_element(self.head)
        return {group.multiply(inv, cell): v for cell, v in self.tape.items()}


def _initial_tape(spec, p: Pattern) -> dict[Element, int]:
    """The non-blank cells of p, for a single- or multi-head machine."""
    tape = {}
    for e, v in p.items():
        if not 0 <= v < len(spec.tape_alphabet):
            raise MalformedInputError("pattern symbol outside tape alphabet")
        if v != spec.blank:
            tape[e] = v
    return tape


def initial_config(spec: GMachineSpec, p: Pattern) -> MachineConfig:
    return MachineConfig(_initial_tape(spec, p), spec.group.identity, spec.initial_state)


def step_moving(spec: GMachineSpec, cfg: MachineConfig) -> MachineConfig:
    """One moving-head step, in place: write at the head, move the head's key
    on the right by the move.  Returns `cfg`.  The one stepper of every run:
    `trace_run`, `fixed_moving_equivalent` and the loop of `PathRun`."""
    write, cfg.state, move = spec.delta[(cfg.tape.get(cfg.head, spec.blank),
                                         cfg.state)]
    if write == spec.blank:
        cfg.tape.pop(cfg.head, None)
    else:
        cfg.tape[cfg.head] = write
    if move:
        cfg.head = tuple.__new__(Element, (spec.group.key_append(cfg.head.key, move),))
    cfg.steps += 1
    return cfg


@dataclass(frozen=True)
class Accepted:
    steps: int


@dataclass(frozen=True)
class Exhausted:
    steps: int


RunOutcome = Union[Accepted, Exhausted]


def run_accepts(spec: GMachineSpec, p: Pattern, budget: int) -> RunOutcome:
    """Run the moving-head semantics from x^p until acceptance or budget."""
    for cfg in trace_run(spec, p, budget):
        pass
    if cfg.state in spec.accepting:
        return Accepted(cfg.steps)
    return Exhausted(cfg.steps)


def trace_run(spec: GMachineSpec, p: Pattern, budget: int):
    """Yield the run's one config after each step, starting at step 0; the
    last config, at acceptance or after `budget` steps, holds the verdict.

    The config is advanced in place, so a consumer that keeps anything from
    it past the next iteration must copy it first.
    """
    require_nonnegative("budget", budget)
    cfg = initial_config(spec, p)
    while True:
        yield cfg
        if cfg.state in spec.accepting or cfg.steps >= budget:
            return
        step_moving(spec, cfg)


def fixed_moving_equivalent(spec: GMachineSpec, p: Pattern, steps: int) -> bool:
    """Dual-route conjugacy check of the two action models.

    Runs two trajectories: the production moving-head run (`step_moving`),
    whose fixed-head reading is `observable_tape`, and an independent literal
    implementation of the fixed-head semantics that physically shifts its
    tape each step.  The shift moves every cell's frame key by the group's
    own left action (`frame_prepend`).  Per cell that is a few integer
    operations on Z^n and BS(1,n), a table lookup on finite groups, a push
    or pop on free groups, a change to the outer syllable on free products,
    and on rewriting groups an append of s^-1 to the normal form of the
    cell's inverse.  Every kind but the rewriting one codes its left action
    apart from the key algebra of the moving run; a rewriting group's two
    routes share its one rule dict, so there this checks the run, and the
    rescanning oracle normal form of the tests checks the rules.  Each
    literal entry carries its symbol and the moving-tape cell it tracks, the
    cell labelled when the symbol was written under the head.  At every
    step t it checks that the states and the tape sizes agree, that the
    literal origin holds the moving head's cell and the symbol the moving
    head reads; when the run ends, that the literal tape read through its
    labels equals the moving tape cell for cell.  That is as strong as
    comparing whole tapes at every step: a cell is written only under the
    head, right after it is read, so a wrong symbol is caught when it is
    read again or, failing that, at the end.
    """
    require_nonnegative("steps", steps)
    group = spec.group
    cfg = initial_config(spec, p)
    # the literal fixed-head tape: frame position (head at origin) ->
    # (symbol, moving-tape cell)
    literal: dict = {group.frame_of_element(cell): (v, cell)
                     for cell, v in cfg.tape.items()}
    literal_state = spec.initial_state
    frame_origin = group.frame_identity()

    for _ in range(steps + 1):
        sym, cell = literal.get(frame_origin, (spec.blank, None))
        if (literal_state != cfg.state or len(literal) != len(cfg.tape)
                or cell != (cfg.head if cfg.head in cfg.tape else None)
                or sym != cfg.tape.get(cfg.head, spec.blank)):
            return False
        if cfg.steps >= steps:
            return {c: v for v, c in literal.values()} == cfg.tape

        # advance the independent literal semantics
        write, literal_state, move = spec.delta[(sym, literal_state)]
        if write == spec.blank:
            literal.pop(frame_origin, None)
        else:
            literal[frame_origin] = (write, cfg.head)
        if move:
            inv = group.inverse_letter(move)
            literal = {group.frame_prepend(inv, k): e for k, e in literal.items()}

        step_moving(spec, cfg)


def retarget_generators(
    spec: GMachineSpec, gamma: Mapping[int, Sequence[int]]
) -> GMachineSpec:
    """Replace each move s' by a walk along gamma(s'), with gamma(s') =_G s'.

    Each original transition delta(a, q) = (b, r, s') becomes the entry walk
    (b, r_{s',1}, s_1), tape-ignoring intermediate steps, and a final stay
    move into r.
    """
    group = spec.group
    words: dict[int, Letters] = {}
    for (sym, q), (w, r, move) in spec.delta.items():
        if move in words:
            continue
        if move not in gamma:
            raise MalformedInputError(f"gamma misses move generator {move}")
        word = group.check_word(gamma[move])
        if group.element(word) != group.element((move,)):
            raise MalformedInputError(
                f"gamma({group.generators[move].display}) is not equal in the group")
        words[move] = word

    states: list[str] = list(spec.states)
    index: dict[tuple[int, int, int], int] = {}
    for r in range(len(spec.states)):
        for move, word in words.items():
            for i in range(len(word)):
                index[(r, move, i)] = len(states)
                states.append(f"{spec.states[r]}~{group.generators[move].display}~{i}")

    delta: dict[tuple[int, int], tuple[int, int, int]] = {}
    for (sym, q), (w, r, move) in spec.delta.items():
        word = words[move]
        if not word:
            delta[(sym, q)] = (w, r, 0)
        else:
            delta[(sym, q)] = (w, index[(r, move, 0)], word[0])
    n_sym = len(spec.tape_alphabet)
    for (r, move, i), qid in index.items():
        word = words[move]
        if i + 1 < len(word):
            target = (index[(r, move, i + 1)], word[i + 1])
        else:
            target = (r, 0)
        for sym in range(n_sym):
            delta[(sym, qid)] = (sym, target[0], target[1])
    return GMachineSpec(group, tuple(states), spec.accepting,
                        spec.tape_alphabet, spec.blank, delta)


# -- multi-head machines ---------------------------------------------------


@dataclass(frozen=True)
class MultiHeadSpec:
    """n heads in lockstep, each on its own tape, sharing a joint state tuple.

    `delta` is a total callable from (symbols under each head, state tuple)
    to (written symbols, next states, moves).
    """

    group: Group
    n: int
    states: tuple[str, ...]
    accepting: frozenset[int]
    tape_alphabet: Alphabet
    blank: int
    delta: Callable

    def __post_init__(self):
        if self.n < 1 or not self.states:
            raise MalformedInputError("a multi-head spec needs a head and a state")
        _check_ranges(self, ())


def run_multihead(spec: MultiHeadSpec, p: Pattern, budget: int) -> RunOutcome:
    """Lockstep run; accepts when any coordinate reaches an accepting state.
    Its joint step over n tapes has no single-tape table, hence its own loop;
    every delta output is checked against the spec."""
    require_nonnegative("budget", budget)
    group = spec.group
    tapes: list[dict[Element, int]] = [_initial_tape(spec, p)]
    tapes += [dict() for _ in range(spec.n - 1)]
    heads = [group.identity] * spec.n
    states = tuple(0 for _ in range(spec.n))
    for step in range(budget + 1):
        if any(q in spec.accepting for q in states):
            return Accepted(step)
        if step >= budget:
            break
        symbols = tuple(tapes[i].get(heads[i], spec.blank) for i in range(spec.n))
        writes, states, moves = out = spec.delta(symbols, states)
        if not len(writes) == len(states) == len(moves) == spec.n:
            raise MalformedInputError(f"delta output {out!r} is not for {spec.n} heads")
        _check_ranges(spec, zip(writes, states, moves))
        for i in range(spec.n):
            if writes[i] == spec.blank:
                tapes[i].pop(heads[i], None)
            else:
                tapes[i][heads[i]] = writes[i]
            if moves[i] != 0:
                heads[i] = group.multiply_letter(heads[i], moves[i])
    return Exhausted(budget)


def acceptance_bound(spec: GMachineSpec, support_size: int) -> int:
    """|Q| * |F| * |Sigma|^|F|: steps before a bounded-support run must accept."""
    return len(spec.states) * support_size * len(spec.tape_alphabet) ** support_size


# -- oracle-machine bridge --------------------------------------------------


@dataclass(frozen=True)
class BallSimOutcome:
    kind: str           # "accepted" | "inconsistent" | "exhausted"
    steps: int = 0
    witness: Optional[tuple[Letters, Letters]] = None


def simulate_with_balls(spec: GMachineSpec, c: PatternCoding, budget: int) -> BallSimOutcome:
    """The oracle-side simulation: consistency first, then growing-ball runs.

    The inconsistent outcome stands in for the proof's immediate accept.  The
    ball B_k is realized lazily as the tape region the head can reach within
    k steps (the head moves one generator per step), so growing k from
    2 * coding_length(c) up to the budget resumes one deterministic run: it
    is a single run of max(budget, 2 * coding_length(c)) steps.
    """
    res = check_consistency(spec.group, c)
    if isinstance(res, Inconsistent):
        return BallSimOutcome("inconsistent", 0, res.witness)
    out = run_accepts(spec, res.pattern, max(budget, 2 * coding_length(c)))
    return BallSimOutcome("accepted" if isinstance(out, Accepted) else "exhausted",
                          out.steps)
