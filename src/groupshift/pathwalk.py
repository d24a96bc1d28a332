"""The explicit path-building and ball-visiting machines, and the bridge
from classical oracle machines to group-walking machines.

The path machine's six transition rules are transcribed literally into a
total table, plus a second table for depth-gated runs.  One `PathRun`, with
an optional depth gate, runs either table in one loop that takes each step
by `step_moving`; its `step` is the loop's one-step case.
The visit machine and the oracle simulator are layered interpreters whose
supervision rules (collision resets, restarts) live outside the per-layer
tables, since they depend on head positions and global tape state that no
finite (Sigma^n, Q^n) table can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    MalformedInputError,
    UndeterminedError,
    UnsupportedGroupError,
    require_nonnegative,
)
from .groups import Element, Group, Letters
from .machines import (Accepted, Exhausted, GMachineSpec, MachineConfig,
                       RunOutcome, step_moving)
from .patterns import Alphabet, Pattern

# tape component codes: c1 in {BLANK, START} + gens, c2 in {BLANK, MARK},
# c3 in {BLANK} + gens
_C1_BLANK, _C1_START = 0, 1
_C2_BLANK, _C2_MARK = 0, 1
_C3_BLANK = 0

_STATE_INIT = 0
_STATE_BACK = 1


def _sym_name(group: Group, dirs: Sequence[int], c1: int, c2: int, c3: int) -> str:
    first = "_>"[c1] if c1 < 2 else group.generators[dirs[c1 - 2]].display
    second = "#" if c2 == _C2_MARK else "_"
    third = "_" if c3 == _C3_BLANK else group.generators[dirs[c3 - 1]].display
    return f"{first}|{second}|{third}"


class PathMachine:
    """The path builder: symbol/state tables plus decoding helpers."""

    def __init__(self, group: Group):
        if group.is_finite():
            raise UnsupportedGroupError("the path machine needs an infinite group")
        self.group = group
        self.dirs: tuple[int, ...] = group.nonidentity_ids
        k = len(self.dirs)
        if k < 1:
            raise UnsupportedGroupError("need at least one non-identity generator")
        self.k = k
        self.n_c1, self.n_c2, self.n_c3 = k + 2, 2, k + 1
        # decode tables, built once: symbol -> (c1, c2, c3) in `sym` order,
        # the letter a mark made from each state arrived by (0 at the root),
        # and the letter stepping back along each arrival link c1
        self.decode = tuple((c1, c2, c3) for c1 in range(self.n_c1)
                            for c2 in range(self.n_c2) for c3 in range(self.n_c3))
        self.c2_of = tuple(c2 for _, c2, _ in self.decode)
        self.arrival_of = (0, 0) + tuple(d for d in self.dirs for _ in "<>") + (0,)
        self.back_of = (0, 0) + tuple(group.inverse_letter(d) for d in self.dirs)
        self.alphabet = Alphabet(tuple(_sym_name(group, self.dirs, *c)
                                       for c in self.decode))
        self.blank = self.sym(0, 0, 0)
        self.states = ("I", "B") + tuple(f"{group.generators[d].display}{side}"
                                         for d in self.dirs for side in "<>") + ("DEAD",)
        self.dead_state = len(self.states) - 1
        self.spec, self.gated_spec = self._build_specs()

    def sym(self, c1: int, c2: int, c3: int) -> int:
        return (c1 * self.n_c2 + c2) * self.n_c3 + c3

    def state_left(self, i: int) -> int:
        return 2 + 2 * i

    def state_right(self, i: int) -> int:
        return 3 + 2 * i

    def _build_specs(self) -> tuple[GMachineSpec, GMachineSpec]:
        """The six-rule table, and its depth gate: rule 2 bounces as rule 4 does."""
        group, dirs, k, back = self.group, self.dirs, self.k, self.back_of
        # filler self-loops, overwritten below
        delta = {(s, q): (s, q, 0) for s in range(len(self.alphabet))
                 for q in range(len(self.states))}
        blank = self.blank
        # rule 1: initialize at the origin, head out towards the first direction
        delta[(blank, _STATE_INIT)] = (
            self.sym(_C1_START, _C2_MARK, 1), self.state_left(0), dirs[0])
        for i in range(k):
            left, right = self.state_left(i), self.state_right(i)
            # rule 2: fresh cell: record the arrival generator, start trying
            # the first direction (via state g1->, staying put)
            delta[(blank, left)] = (
                self.sym(2 + i, _C2_MARK, _C3_BLANK), self.state_right(0), 0)
            for c1 in range(self.n_c1):
                for c3 in range(self.n_c3):
                    marked = self.sym(c1, _C2_MARK, c3)
                    # rule 3: set the outgoing link and move out
                    delta[(marked, right)] = (
                        self.sym(c1, _C2_MARK, 1 + i), left, dirs[i])
                    # rule 4: arrived at an occupied cell: bounce back
                    delta[(marked, left)] = (marked, _STATE_BACK, back[2 + i])
        # rules 5/6: backtracking at a marked cell with outgoing link g_i
        for c1 in range(self.n_c1):
            for i in range(k):
                marked = self.sym(c1, _C2_MARK, 1 + i)
                if c1 == _C1_BLANK:
                    continue  # marked cells always carry START or a generator
                if i + 1 < k:
                    delta[(marked, _STATE_BACK)] = (
                        marked, self.state_right(i + 1), 0)
                elif c1 == _C1_START:
                    # rule 6 deliberately lacks i = k at the origin: every
                    # direction from the root is exhausted (finite group)
                    delta[(marked, _STATE_BACK)] = (marked, self.dead_state, 0)
                else:
                    # erase the dead end and step back along the arrival link
                    delta[(marked, _STATE_BACK)] = (blank, _STATE_BACK, back[c1])
        gated = dict(delta)
        for i in range(k):
            gated[(blank, self.state_left(i))] = (blank, _STATE_BACK, back[2 + i])
        return tuple(GMachineSpec(group, self.states, frozenset(), self.alphabet,
                                  self.blank, table) for table in (delta, gated))


class PathRun(MachineConfig):
    """Instrumented path-machine run with per-step simple-path invariants.

    `step` and `run` share one loop.  Each of its steps advances the run's
    `MachineConfig` by one `step_moving` call, then reads its mark or erase
    off the cell the head left and checks it inline: every mark must extend
    the tip by one Cayley edge into an unmarked cell, every erase must
    remove exactly the tip.  `check_full` re-walks the arrival links from
    the tip to the root as the deep (non-incremental) verification.  Both
    compare canonical keys from `key_append`, apart from the stored path:
    the predicate of `Element` equality, with no `Element` built per check.

    With a `depth_limit`, paths are restricted to at most that many edges:
    past it the run steps by the machine's `gated_spec`, whose rule 2
    bounces off a fresh cell as rule 4 does off an occupied one, and entering
    the dead state sets `completed` instead of raising UnsupportedGroupError.
    """

    def __init__(self, machine: PathMachine, check: bool = True,
                 depth_limit: Optional[int] = None):
        if depth_limit is not None:
            require_nonnegative("depth limit", depth_limit)
        super().__init__({}, machine.group.identity, _STATE_INIT)
        self.m = machine
        self.group = machine.group
        self.check = check
        self.depth_limit = depth_limit
        self.completed = False
        self.path: list[Element] = []
        self.path_set: set[Element] = set()
        self.arrival: list[int] = []  # letter used to reach path[i] from path[i-1]
        self.max_path_len = 0

    def step(self) -> Optional[tuple[str, Element]]:
        """Advance one step; returns a ('mark'|'erase', cell) event or None."""
        return self._advance(1)

    def run(self, steps: int) -> None:
        require_nonnegative("steps", steps)
        self._advance(index(steps))  # a non-integer count is a TypeError

    def _advance(self, steps: int) -> Optional[tuple[str, Element]]:
        """`steps` moves by `step_moving`, each mark or erase checked and
        booked inline; returns the last step's event.  Only a mark or an
        erase changes the path length, so only they re-choose the table."""
        m, path, tape, limit = self.m, self.path, self.tape, self.depth_limit
        c2_of, blank = m.c2_of, m.blank
        spec = m.spec if limit is None or len(path) <= limit else m.gated_spec
        event = None
        while steps > 0:
            steps -= 1
            cell, state = self.head, self.state
            was_marked = c2_of[tape.get(cell, blank)]
            step_moving(spec, self)
            if c2_of[tape.get(cell, blank)] == was_marked:
                event = None
                # the dead state is entered by a step that keeps its cell's mark
                if self.state == m.dead_state:
                    if limit is None:
                        raise UnsupportedGroupError(
                            "every direction from the root is exhausted")
                    self.completed = True
            elif was_marked == _C2_BLANK:
                if self.check:
                    group = self.group
                    if cell in self.path_set:
                        raise AssertionError("marking an already-marked cell")
                    if state == _STATE_INIT:
                        if path or cell.key != group.identity.key:
                            raise AssertionError("init mark away from the root")
                    elif group.key_append(path[-1].key, m.arrival_of[state]) != cell.key:
                        raise AssertionError("mark does not extend the tip by one edge")
                path.append(cell)
                self.path_set.add(cell)
                self.arrival.append(m.arrival_of[state])
                if len(path) > self.max_path_len:
                    self.max_path_len = len(path)
                event = ("mark", cell)
            else:
                if self.check:
                    if not path or path[-1].key != cell.key:
                        raise AssertionError("erase not at the tip")
                    if len(path) == 1:
                        raise AssertionError("erasing the root")
                path.pop()
                self.path_set.discard(cell)
                self.arrival.pop()
                event = ("erase", cell)
            if self.check and len(path) != len(self.path_set):
                raise AssertionError("path list and marked set diverged")
            if event is not None and limit is not None:
                spec = m.spec if len(path) <= limit else m.gated_spec
        return event

    def check_full(self) -> None:
        """Walk the arrival links from the tip back to the root, stepping a
        canonical key back by `key_append` and comparing it with each stored
        cell's key (the tape is read at the stored cell, its own key object),
        then check that no mark lies off the path."""
        m, group, path = self.m, self.group, self.path
        if not path:
            return
        if path[0] != group.identity:
            raise AssertionError("path root is not the identity")
        seen = set()
        key, root_key = path[-1].key, path[0].key
        for expected in reversed(path):
            if key != expected.key or expected in seen:
                raise AssertionError("arrival links do not retrace the path")
            seen.add(expected)
            c1, c2, _ = m.decode[self.tape.get(expected, m.blank)]
            if c2 != _C2_MARK:
                raise AssertionError("path cell lost its mark")
            if key == root_key:
                if c1 != _C1_START:
                    raise AssertionError("root does not carry the start marker")
                break
            if c1 in (_C1_BLANK, _C1_START):
                raise AssertionError("non-root cell carries no arrival link")
            key = group.key_append(key, m.back_of[c1])
        # every path cell is marked, so equal sizes mean the marks are the path
        if len(self.tape) != len(path):
            raise AssertionError("a mark lies off the path")

    def path_word(self) -> Letters:
        return tuple(self.arrival[1:])


@dataclass
class VisitEvent:
    kind: str                    # "visit" | "increment" | "reset"
    n: int
    cell: Optional[Element] = None


class VisitMachine:
    """Three layers: a free path, a binary counter on its prefix, and a
    depth-gated path whose marks enumerate the ball B_n.

    The counter holds the current n in binary along the first layer's path
    prefix, most significant cell nearest the root.  If the first layer ever
    backtracks over a counter cell, layers two and three are erased and
    restart at n = 1.
    """

    def __init__(self, group: Group, check: bool = True):
        self.group = group
        self.machine = PathMachine(group)
        self.layer1 = PathRun(self.machine, check=check)
        self.counter_tape: dict[Element, int] = {}
        self.n = 1
        self._counter_pending = True
        self.layer3 = PathRun(self.machine, check, self.n)
        self.events: list[VisitEvent] = []
        self.check = check
        self.ticks = 0

    # -- counter -----------------------------------------------------------

    def _write_counter(self) -> bool:
        bits = bin(self.n)[2:]
        if len(self.layer1.path) < len(bits):
            return False
        self.counter_tape = {
            self.layer1.path[i]: int(bits[i]) for i in range(len(bits))}
        return True

    def counter_value(self) -> int:
        """Decode n from the counter cells (ground truth for tests)."""
        bits = []
        for cell in self.layer1.path:
            if cell in self.counter_tape:
                bits.append(str(self.counter_tape[cell]))
            else:
                break
        return int("".join(bits), 2) if bits else 0

    def _reset_upper_layers(self) -> None:
        self.n = 1
        self.counter_tape = {}
        self._counter_pending = True
        self.layer3 = PathRun(self.machine, self.check, self.n)

    # -- stepping ------------------------------------------------------------

    def tick(self) -> None:
        ev = self.layer1.step()
        if ev is not None and ev[0] == "erase" and ev[1] in self.counter_tape:
            self._reset_upper_layers()
            self.events.append(VisitEvent("reset", self.n))
            self.ticks += 1
            return
        if self._counter_pending:
            if self._write_counter():
                self._counter_pending = False
            else:
                self.ticks += 1
                return
        ev3 = self.layer3.step()
        if ev3 is not None and ev3[0] == "mark":
            self.events.append(VisitEvent("visit", self.n, ev3[1]))
        if self.layer3.completed:
            self.n += 1
            self._counter_pending = not self._write_counter()
            self.layer3 = PathRun(self.machine, self.check, self.n)
            self.events.append(VisitEvent("increment", self.n))
        self.ticks += 1

    def run(self, ticks: int) -> list[VisitEvent]:
        require_nonnegative("ticks", ticks)
        for _ in range(ticks):
            self.tick()
        return self.events

    def run_until_n(self, target: int, budget: int) -> list[VisitEvent]:
        require_nonnegative("budget", budget)
        for _ in range(budget):
            if self.n > target:
                return self.events
            self.tick()
        raise UndeterminedError(
            f"visit machine did not pass n={target} within {budget} ticks")


# -- classical one-sided two-tape machines with an oracle hook ----------------


@dataclass(frozen=True)
class QueryHook:
    """Entering `trigger` reads the work tape up to the first blank as a
    word and jumps to `yes` or `no` according to the oracle's answer."""

    trigger: int
    yes: int
    no: int


@dataclass(frozen=True)
class ClassicalMachineSpec:
    """One-sided two-tape machine over token alphabets.

    Missing delta entries halt the machine in a rejecting loop, so tables
    stay sparse.  The input tape holds pattern-coding tokens appended by the
    harvest layer; the work tape is private.
    """

    states: tuple[str, ...]
    accepting: frozenset[int]
    input_tokens: tuple[str, ...]
    work_tokens: tuple[str, ...]          # [0] is the work blank
    delta: Mapping[tuple[int, str, str], tuple[str, int, int, int]]
    query: Optional[QueryHook] = None

    def __post_init__(self):
        for (q, tin, twork), (w, din, dwork, r) in self.delta.items():
            if not 0 <= q < len(self.states) or not 0 <= r < len(self.states):
                raise MalformedInputError("classical delta state out of range")
            if w not in self.work_tokens:
                raise MalformedInputError(f"classical delta writes unknown token {w!r}")
            if din not in (-1, 0, 1) or dwork not in (-1, 0, 1):
                raise MalformedInputError("classical delta moves must be -1/0/1")


INPUT_BLANK = "_"

# classical machine steps per tick of the oracle simulator's visit layer
SIM_STEPS_PER_TICK = 4


class ClassicalRun:
    """Interpreter for ClassicalMachineSpec over a growing input token list."""

    def __init__(self, spec: ClassicalMachineSpec, oracle):
        self.spec = spec
        self.oracle = oracle
        self.reset()

    def reset(self) -> None:
        self.state = 0
        self.in_pos = 0
        self.work_pos = 0
        self.work: dict[int, str] = {}
        self.halted = False

    def accepted(self) -> bool:
        return self.state in self.spec.accepting

    def step(self, input_tokens: Sequence[str]) -> None:
        if self.halted or self.accepted():
            return
        spec = self.spec
        if spec.query and self.state == spec.query.trigger:
            word_tokens = []
            pos = 0
            blank = spec.work_tokens[0]
            while self.work.get(pos, blank) != blank:
                word_tokens.append(self.work[pos])
                pos += 1
            self.state = spec.query.yes if self.oracle(word_tokens) else spec.query.no
            return
        tin = input_tokens[self.in_pos] if self.in_pos < len(input_tokens) else INPUT_BLANK
        twork = self.work.get(self.work_pos, spec.work_tokens[0])
        entry = spec.delta.get((self.state, tin, twork))
        if entry is None:
            self.halted = True
            return
        write, din, dwork, nxt = entry
        if write == spec.work_tokens[0]:
            self.work.pop(self.work_pos, None)
        else:
            self.work[self.work_pos] = write
        self.in_pos = max(0, self.in_pos + din)
        self.work_pos = max(0, self.work_pos + dwork)
        self.state = nxt


def coding_tokens(group: Group, word: Letters, symbol_label: str) -> list[str]:
    return ["("] + [group.generators[x].display for x in word] + [",", symbol_label, ")"]


class OracleSimulator:
    """Six cooperating layers turning a classical oracle machine into a
    pattern-accepting group walker.

    store: the input pattern, read-only.  path: houses the simulated
    one-sided tapes.  visit: enumerates balls; harvest (the nexus layer)
    writes (word, symbol) tokens for visited non-blank cells onto the
    simulated input tape and restarts the simulation, since the coding got
    extended.  oracle: answers word-problem calls by walking the queried
    word and testing for return to the marked origin.  sim: the classical
    machine itself.
    """

    def __init__(self, group: Group, classical: ClassicalMachineSpec,
                 pattern_alphabet: Alphabet):
        self.group = group
        self.classical = classical
        self.pattern_alphabet = pattern_alphabet
        self.oracle_calls: list[tuple[Letters, bool]] = []

    # -- the oracle layer ---------------------------------------------------

    def oracle_answer(self, word: Iterable[int]) -> bool:
        """Mark the origin, walk the word, accept iff back on the mark."""
        group = self.group
        marked = group.identity
        cell = group.identity
        for letter in group.check_word(word):
            cell = group.multiply_letter(cell, letter)
        answer = cell == marked
        self.oracle_calls.append((tuple(word), answer))
        return answer

    def _oracle_on_tokens(self, tokens: Sequence[str]) -> bool:
        word = self.group.parse_word(" ".join(tokens))
        return self.oracle_answer(word)

    # -- the full composition -------------------------------------------------

    def run(self, p: Pattern, budget: int) -> RunOutcome:
        group = self.group
        store = {cell: v for cell, v in p.items()}
        visit = VisitMachine(group, check=False)
        harvested: set[Element] = set()
        input_tokens: list[str] = []
        sim = ClassicalRun(self.classical, self._oracle_on_tokens)
        consumed = 0
        for tick in range(budget):
            if sim.accepted():
                return Accepted(tick)
            visit.tick()
            # harvest layer: new visits of stored cells extend the coding
            new_events = visit.events[consumed:]
            consumed = len(visit.events)
            extended = False
            for ev in new_events:
                if ev.kind != "visit" or ev.cell is None:
                    continue
                if ev.cell in harvested or ev.cell not in store:
                    continue
                word = visit.layer3.path_word()
                label = self.pattern_alphabet[store[ev.cell]]
                input_tokens.extend(coding_tokens(group, word, label))
                harvested.add(ev.cell)
                extended = True
            if extended:
                sim.reset()  # the pattern coding grew: restart the work tape
            if len(visit.layer1.path) < _sim_tape_use(sim, input_tokens):
                # the free path backtracked into simulated-tape territory
                sim.reset()
            for _ in range(SIM_STEPS_PER_TICK):
                sim.step(input_tokens)
            if sim.accepted():
                return Accepted(tick + 1)
        return Exhausted(budget)


def _sim_tape_use(sim: ClassicalRun, input_tokens: Sequence[str]) -> int:
    width = max(len(input_tokens), sim.work_pos + 1, sim.in_pos + 1)
    if sim.work:
        width = max(width, max(sim.work) + 1)
    return width


# -- ready-made classical machines (used by tests and the CLI) ----------------


def classical_accept_all() -> ClassicalMachineSpec:
    return ClassicalMachineSpec(
        states=("start", "yes"), accepting=frozenset({1}),
        input_tokens=("(", ")", ",", INPUT_BLANK), work_tokens=("_",),
        delta={(0, tok, "_"): ("_", 0, 0, 1)
               for tok in ("(", ")", ",", INPUT_BLANK)})


def classical_contains_entry(
    group: Group, word: Letters, symbol_label: str,
    extra_symbols: Sequence[str] = (),
) -> ClassicalMachineSpec:
    """Accept iff the input token stream contains the exact (word, symbol)
    entry; waits in a rejecting halt at the end of the current input."""
    target = coding_tokens(group, word, symbol_label)
    gen_tokens = tuple(g.display for g in group.generators if not g.is_identity)
    tokens = tuple(dict.fromkeys(
        ("(", ")", ",") + gen_tokens + tuple(extra_symbols) + (symbol_label,)))
    n = len(target)
    states = tuple(f"m{i}" for i in range(n)) + ("yes",)
    delta: dict[tuple[int, str, str], tuple[str, int, int, int]] = {}
    for i in range(n):
        for tok in tokens:
            if tok == target[i]:
                nxt = n if i == n - 1 else i + 1
            elif tok == target[0]:
                nxt = 1
            else:
                nxt = 0
            delta[(i, tok, "_")] = ("_", 1, 0, nxt)
    return ClassicalMachineSpec(states, frozenset({n}), tokens + (INPUT_BLANK,),
                                ("_",), delta)


def classical_query_word(group: Group, word: Letters) -> ClassicalMachineSpec:
    """Write the fixed word on the work tape, query the oracle, accept on yes."""
    letters = [group.generators[x].display for x in word]
    n = len(letters)
    states = tuple(f"w{i}" for i in range(n)) + ("ask", "yes", "no")
    work_tokens = ("_",) + tuple(dict.fromkeys(letters))
    delta: dict[tuple[int, str, str], tuple[str, int, int, int]] = {}
    for i, letter in enumerate(letters):
        delta[(i, INPUT_BLANK, "_")] = (letter, 0, 1, i + 1)
    # an empty word starts directly in the ask state
    return ClassicalMachineSpec(
        states=states, accepting=frozenset({n + 1}), input_tokens=(INPUT_BLANK,),
        work_tokens=work_tokens, delta=delta,
        query=QueryHook(trigger=n, yes=n + 1, no=n + 2))
