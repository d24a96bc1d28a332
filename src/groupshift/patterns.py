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

    Within an element's entries, u is the shortlex-least word and v the
    shortlex-least word whose symbol differs from u's (ties in insertion
    order); the witness is the shortlex-least such pair over all elements.
    """
    by_element: dict[Element, list[tuple[Letters, int]]] = {}
    for word, sym in c.entries:
        e = group.element(word)
        by_element.setdefault(e, []).append((word, sym))
    best: Optional[tuple[Letters, Letters]] = None
    for entries in by_element.values():
        if len({s for _, s in entries}) <= 1:
            continue
        u, sym = min(entries, key=_entry_key)
        v, _ = min((ws for ws in entries if ws[1] != sym), key=_entry_key)
        if best is None or _pair_key((u, v)) < _pair_key(best):
            best = (u, v)
    if best is not None:
        return Inconsistent(best)
    assignment = {e: entries[0][1] for e, entries in by_element.items()}
    return Consistent(Pattern(assignment))


def _entry_key(entry: tuple[Letters, int]):
    return (len(entry[0]), entry[0])


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
    (each once) and c extends c_n.  A sequence is read as the provider
    n -> enumeration[n], None past its end; a provider that returns None
    without acceptance decides False, and one that stalls below |c| for
    `budget` steps raises UndeterminedError.
    """
    if not callable(enumeration):
        seq = enumeration
        enumeration = lambda n: seq[n] if n < len(seq) else None
    target_len = coding_length(c)
    l_n = 0
    for n in range(budget):
        c_n = enumeration(n)
        if c_n is None:
            return False
        l_n = max(l_n, coding_length(c_n))
        if l_n > target_len:
            return False
        if _in_completion_set(group, c, c_n, l_n):
            return True
    raise UndeterminedError(f"completion undecided after {budget} enumeration steps")


def _in_completion_set(group: Group, c: PatternCoding, c_n: PatternCoding, l_n: int) -> bool:
    words = c.words()
    if len(set(words)) != len(words):
        return False
    universe = set(enumerate_words(group, l_n))
    if set(words) != universe:
        return False
    entry_set = set(c.entries)
    return all(pair in entry_set for pair in c_n.entries)
