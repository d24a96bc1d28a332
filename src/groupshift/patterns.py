"""Patterns over canonical elements and pattern codings over raw words.

A pattern coding is a finite list of (word, symbol) pairs; it only becomes a
pattern once the word problem has merged words naming the same element.
Consistency is a checked property, not an invariant: duplicate and
conflicting entries are representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import MalformedInputError, UndeterminedError
from .cayley import enumerate_words
from .groups import Element, Group, Letters


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise MalformedInputError("alphabet must have at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise MalformedInputError("alphabet labels must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> str:
        return self.symbols[i]

    def index(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise MalformedInputError(f"symbol {label!r} not in alphabet") from None


@dataclass(frozen=True)
class Pattern:
    """A finite symbol assignment on canonical group elements."""

    assignment: Mapping[Element, int]

    @property
    def support(self) -> frozenset[Element]:
        return frozenset(self.assignment)

    def __len__(self) -> int:
        return len(self.assignment)

    def __getitem__(self, e: Element) -> int:
        return self.assignment[e]

    def get(self, e: Element, default=None):
        return self.assignment.get(e, default)

    def items(self):
        return self.assignment.items()

    def sorted_items(self, group):
        return sorted(self.assignment.items(), key=lambda kv: group.shortlex_key(kv[0]))


@dataclass(frozen=True)
class PatternCoding:
    """Finite list of (raw word, alphabet index) pairs."""

    alphabet: Alphabet
    entries: tuple[tuple[Letters, int], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> list[Letters]:
        return [w for w, _ in self.entries]


def coding(alphabet: Alphabet, entries: Iterable[tuple[Iterable[int], int]]) -> PatternCoding:
    items = []
    for word, sym in entries:
        if not 0 <= sym < len(alphabet):
            raise MalformedInputError(f"symbol index {sym} outside alphabet")
        items.append((tuple(word), sym))
    return PatternCoding(alphabet, tuple(items))


def coding_length(c: PatternCoding) -> int:
    """max |w| over the entries; 0 for the empty coding."""
    return max((len(w) for w, _ in c.entries), default=0)


@dataclass(frozen=True)
class Consistent:
    pattern: Pattern


@dataclass(frozen=True)
class Inconsistent:
    witness: tuple[Letters, Letters]


def check_consistency(group: Group, c: PatternCoding) -> Union[Consistent, Inconsistent]:
    """Group words by canonical form; a symbol clash yields the first witness.

    The witness is the shortlex-least conflicting pair (u, v), u before v.
    """
    by_element: dict[Element, list[tuple[Letters, int]]] = {}
    for word, sym in c.entries:
        e = group.element(word)
        by_element.setdefault(e, []).append((word, sym))
    best: Optional[tuple[Letters, Letters]] = None
    for entries in by_element.values():
        if len({s for _, s in entries}) <= 1:
            continue
        seq = sorted(entries, key=lambda ws: (len(ws[0]), ws[0]))
        pair = None
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i][1] != seq[j][1]:
                    pair = (seq[i][0], seq[j][0])
                    break
            if pair:
                break
        if pair and (best is None or _pair_key(pair) < _pair_key(best)):
            best = pair
    if best is not None:
        return Inconsistent(best)
    assignment = {e: entries[0][1] for e, entries in by_element.items()}
    return Consistent(Pattern(assignment))


def _pair_key(pair: tuple[Letters, Letters]):
    (u, v) = pair
    return ((len(u), u), (len(v), v))


def pattern_of(group: Group, c: PatternCoding) -> Pattern:
    res = check_consistency(group, c)
    if isinstance(res, Inconsistent):
        raise MalformedInputError(
            f"coding is inconsistent: witness {res.witness}")
    return res.pattern


def translate_pattern(group: Group, p: Pattern, g: Element) -> Pattern:
    """Left-translate the support: h -> g*h, symbols preserved."""
    return Pattern({group.multiply(g, e): s for e, s in p.items()})


EnumerationProvider = Union[Sequence[PatternCoding], Callable[[int], Optional[PatternCoding]]]


def decidable_completion_contains(
    group: Group,
    enumeration: EnumerationProvider,
    c: PatternCoding,
    budget: int = 10_000,
) -> bool:
    """Membership in the decidable completion of an enumerated coding family.

    For n = 0, 1, ... with L_n = max_{k<=n} |c_k|: reject as soon as
    L_n > |c|; accept if c's word set is exactly every word of length <= L_n
    (each once) and c extends c_n.  A finite enumeration that is exhausted
    without acceptance decides False; an unbounded provider that stalls below
    |c| for `budget` steps raises UndeterminedError.
    """
    target_len = coding_length(c)
    is_seq = not callable(enumeration)
    l_n = 0
    n = 0
    while True:
        if is_seq:
            if n >= len(enumeration):
                return False
            c_n = enumeration[n]
        else:
            if n >= budget:
                raise UndeterminedError(
                    f"completion undecided after {budget} enumeration steps")
            c_n = enumeration(n)
            if c_n is None:
                return False
        l_n = max(l_n, coding_length(c_n))
        if l_n > target_len:
            return False
        if _in_completion_set(group, c, c_n, l_n):
            return True
        n += 1


def _in_completion_set(group: Group, c: PatternCoding, c_n: PatternCoding, l_n: int) -> bool:
    words = c.words()
    if len(set(words)) != len(words):
        return False
    universe = set(enumerate_words(group, l_n))
    if set(words) != universe:
        return False
    entry_set = set(c.entries)
    return all(pair in entry_set for pair in c_n.entries)
