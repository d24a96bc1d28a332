"""Finitely generated groups with decidable word problem.

Each group carries an ordered generator list (index = generator id) that is
closed under inverses and contains a distinguished identity symbol at id 0.
The declaration order is part of the group's identity: every lexicographic
construction in the library (word enumeration, ball scans, path direction
order) derives from it.

Elements are identified by a compact per-kind canonical key (reduced word,
exponent vector, affine pair, ...) rather than by materialized normal-form
words: words equal in the group map to the same key, and the canonical word
is derived from the key on demand.  This matters for machine runs, where
e.g. a 500-step walk in BS(1,2) reaches elements whose normal-form words
have exponentially many letters.  An `Element` is a one-field tuple around
its key, so that building, hashing and comparing elements runs in C.

Free groups, free products and rewriting groups key their elements by a
`ConsWord` (a hash-consed persistent word), so a machine walking a path of
unbounded depth extends or shortens a key in time independent of its
depth.  Free groups share the process-wide `ConsWord.EMPTY` root; each free
product and rewriting group has a root of its own, so its nodes are freed
with it.  Hash-consing makes equal words of one root the same node, so a
`ConsWord` is compared and hashed by identity, in C; keys of two groups
with different roots never compare equal, and their hashes follow object
addresses, not the string hash seed.

Only this module knows the representation.  A kind supplies `identity_key`,
`key_append`, `key_letters` (which reads a key) and its own left action
(`frame_prepend`); multiply, inverse and length default to folds of the
first three, and a kind may override them with a faster route.
"""

from __future__ import annotations

import itertools
import threading
from collections import namedtuple
from dataclasses import dataclass
from operator import add, neg
from typing import Iterable, Optional, Sequence

from .errors import MalformedInputError, UndeterminedError

DEFAULT_REWRITE_BUDGET = 100_000
MAX_WORD_LETTERS = 1_000_000

Letters = tuple[int, ...]


@dataclass(frozen=True)
class GeneratorSymbol:
    id: int
    display: str
    inverse: int
    is_identity: bool = False


class Element(namedtuple("_ElementBase", "key")):
    """A group element, identified by its canonical key: an immutable
    one-field tuple, equal to another (and hashing alike) exactly when their
    keys are equal, and to the one-tuple `(key,)` but never to its key.
    `key` is a C field getter and hashing and equality are the tuple's, so
    no dict or set operation runs a Python method of `Element`.  This module
    builds elements as `tuple.__new__(Element, (key,))`, skipping the Python
    frame of the public `Element(key)`."""

    __slots__ = ()

    def __repr__(self):
        return f"Element({self.key!r})"


class ConsWord:
    """A persistent word (linked list) with O(1) append, compared by identity.

    The canonical key of free-group elements (letters), free-product
    elements ((factor, factor key) syllables) and rewriting-group elements
    (normal-form letters), so that long machine runs extend tape keys in
    constant time instead of copying tuples.  Pushes are hash-consed: a node
    keeps its children in `_kids`, so equal words built by pushes from the
    same root are the same object for as long as the root lives.  Identity
    is therefore equality, and hashing and comparing run in C.  A root is
    `ConsWord()`; the nodes pushed from it live as long as it or any of them
    is referenced.  Words of two different roots never compare equal, so the
    keys of two free products or rewriting groups never do either, even for
    the same word.

    A node keeps its word once the word has been read: `letters()` walks the
    parent chain on its first call, up to the nearest ancestor whose word is
    kept, and stores the tuple in `_word`, which later calls return.  That
    costs one tuple per node whose word was read, and `push` stays O(1),
    since nothing fills the slot but `letters()`.  The tuple holds only the
    letters its chain already holds, so it keeps no node alive and is freed
    with its node.
    """

    __slots__ = ("parent", "letter", "length", "_kids", "_word")

    EMPTY: "ConsWord"

    def __init__(self, parent: Optional["ConsWord"] = None, letter=-1):
        self.parent = parent
        self.letter = letter
        self._kids: Optional[dict] = None
        self._word: Optional[tuple] = None
        self.length = 0 if parent is None else parent.length + 1

    def push(self, letter) -> "ConsWord":
        kids = self._kids
        if kids is None:
            kids = self._kids = {}
        else:
            node = kids.get(letter)
            if node is not None:
                return node
        node = kids[letter] = ConsWord(self, letter)
        return node

    def letters(self) -> tuple:
        word = self._word
        if word is None:
            out = []
            node = self
            while node._word is None and node.parent is not None:
                out.append(node.letter)
                node = node.parent
            out.reverse()
            word = self._word = (node._word or ()) + tuple(out)
        return word

    # a copy must be the node itself, or it would equal no key of its group
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):  # pragma: no cover
        return f"ConsWord{self.letters()!r}"


ConsWord.EMPTY = ConsWord()


def _paired_generators(names: Sequence[str]) -> list[GeneratorSymbol]:
    """Build the generator list e, g1, g1^-1, g2, g2^-1, ... from base names."""
    gens = [GeneratorSymbol(0, "e", 0, is_identity=True)]
    for i, name in enumerate(names):
        a = 1 + 2 * i
        gens.append(GeneratorSymbol(a, name, a + 1))
        gens.append(GeneratorSymbol(a + 1, name + "^-1", a))
    return gens


class Group:
    """Base class: a finitely generated group with a word-problem solver."""

    kind: str = "abstract"

    def __init__(self, generators: Sequence[GeneratorSymbol]):
        self.generators: tuple[GeneratorSymbol, ...] = tuple(generators)
        if not self.generators or not self.generators[0].is_identity:
            raise MalformedInputError("generator 0 must be the identity symbol")
        if any(g.id != i for i, g in enumerate(self.generators)):
            raise MalformedInputError("generator ids must be 0, 1, 2, ... in list order")
        if sum(1 for g in self.generators if g.is_identity) != 1:
            raise MalformedInputError("exactly one identity generator expected")
        for g in self.generators:
            inv = self.generators[g.inverse]
            if inv.inverse != g.id:
                raise MalformedInputError(f"inverse of {g.display} is not an involution")
        self.identity = tuple.__new__(Element, (self.identity_key(),))
        self._display_to_id = {g.display: g.id for g in self.generators}
        if len(self._display_to_id) != len(self.generators):
            raise MalformedInputError(f"generator names repeat: {[g.display for g in self.generators]}")
        self.nonidentity_ids: tuple[int, ...] = tuple(
            g.id for g in self.generators if not g.is_identity)
        self._ball_table = None       # the cayley.BallTable, built by ball()
        self._ball_lock = threading.RLock()

    # -- key algebra: kinds supply identity_key, key_append, key_letters ---

    def identity_key(self):
        raise NotImplementedError

    def key_of_letters(self, letters: Iterable[int]):
        key = self.identity_key()
        for letter in letters:
            key = self.key_append(key, letter)
        return key

    def key_append(self, key, letter: int):
        raise NotImplementedError

    def key_multiply(self, a, b):
        for letter in self.key_letters(b):
            a = self.key_append(a, letter)
        return a

    def key_inverse(self, a):
        return self.key_of_letters(self.inverse_word(self.key_letters(a)))

    def key_letters(self, key) -> Letters:
        raise NotImplementedError

    def key_length(self, key) -> int:
        return len(self.key_letters(key))

    # -- word plumbing ------------------------------------------------------

    def check_word(self, word: Iterable[int]) -> Letters:
        w = tuple(word)
        n = len(self.generators)
        for letter in w:
            if not isinstance(letter, int) or not 0 <= letter < n:
                raise MalformedInputError(f"invalid letter id {letter!r}")
        return w

    def inverse_letter(self, letter: int) -> int:
        return self.generators[letter].inverse

    def inverse_word(self, word: Iterable[int]) -> Letters:
        return tuple(self.inverse_letter(x) for x in reversed(tuple(word)))

    def parse_word(self, text: str) -> Letters:
        """Parse a whitespace-separated word; the empty string is epsilon."""
        text = text.strip()
        if not text:
            return ()
        out: list[int] = []
        for token in text.split():
            if token in self._display_to_id:
                out.append(self._display_to_id[token])
                continue
            base, _, power = token.partition("^")
            if power and power.lstrip("-").isdigit() and power not in ("-1",):
                n = int(power)
                name = base if n >= 0 else base + "^-1"
                if name not in self._display_to_id:
                    raise MalformedInputError(f"unknown generator {token!r}")
                out.extend([self._display_to_id[name]] * abs(n))
                continue
            raise MalformedInputError(f"unknown generator {token!r}")
        return tuple(out)

    def format_word(self, word: Iterable[int]) -> str:
        """Plain whitespace-separated labels (the wire format)."""
        return " ".join(self.generators[x].display for x in word)

    def format_word_compressed(self, word: Iterable[int]) -> str:
        """Run-length rendering for display: 'a a a' -> 'a^3'."""
        parts = []
        for letter, run in itertools.groupby(word):
            n = len(list(run))
            g = self.generators[letter]
            if n == 1:
                parts.append(g.display)
            elif g.display.endswith("^-1"):
                parts.append(f"{g.display[:-3]}^-{n}")
            else:
                parts.append(f"{g.display}^{n}")
        return " ".join(parts)

    # -- elements ------------------------------------------------------------

    def element(self, word: Iterable[int]) -> Element:
        return tuple.__new__(Element, (self.key_of_letters(self.check_word(word)),))

    def word_of(self, e: Element) -> Letters:
        return self.key_letters(e.key)

    def length_of(self, e: Element) -> int:
        return self.key_length(e.key)

    def shortlex_key(self, e: Element) -> tuple[int, Letters]:
        w = self.key_letters(e.key)
        return (len(w), w)

    def format_element(self, e: Element) -> str:
        w = self.word_of(e)
        return self.format_word_compressed(w) if w else "e"

    def multiply(self, a: Element, b: Element) -> Element:
        return tuple.__new__(Element, (self.key_multiply(a.key, b.key),))

    def multiply_letter(self, a: Element, letter: int) -> Element:
        if letter == 0:
            return a
        return tuple.__new__(Element, (self.key_append(a.key, letter),))

    def inverse_element(self, a: Element) -> Element:
        return tuple.__new__(Element, (self.key_inverse(a.key),))

    def is_finite(self) -> bool:
        return False

    # -- left-action frame keys (used by the literal-shift oracle) ---------
    #
    # A frame key is a second injective encoding of an element, built by
    # letters acting on the left.  Each kind supplies its own left action,
    # coded apart from key_append and key_multiply, so the literal-shift
    # route of the conjugacy check stays an independent oracle.  The one
    # exception is a rewriting group, whose frame key of g is the key of
    # g^-1 under the same rules: there the rescanning oracle of the tests
    # is the independent check.

    def frame_identity(self):
        return self.identity_key()

    def frame_prepend(self, letter: int, lkey):
        """The frame key of letter * (element of lkey)."""
        raise NotImplementedError

    def frame_of_element(self, e: Element):
        lkey = self.frame_identity()
        for letter in reversed(self.key_letters(e.key)):
            lkey = self.frame_prepend(letter, lkey)
        return lkey

    def geodesic_normal_form(self) -> bool:
        """Whether canonical-word length equals the word metric."""
        return False

    def geodesics_extend(self) -> bool:
        """Whether every element has arbitrarily long geodesic extensions
        (|g*b| = |g| + |b| for some b of any length).  Enables sound
        pruning in ball-cover scans."""
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} S={[g.display for g in self.generators]}>"


def _default_name(i: int) -> str:
    base = "abcdefghijklmnopqrstuvwxyz"
    return base[i] if i < len(base) else f"g{i}"


class FreeGroup(Group):
    """Free group of given rank; canonical form is the freely reduced word."""

    kind = "free"

    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        if rank < 1:
            raise MalformedInputError("free group rank must be >= 1")
        self.rank = rank
        names = list(names) if names else [_default_name(i) for i in range(rank)]
        if len(names) != rank:
            raise MalformedInputError(f"free group of rank {rank} given {len(names)} names")
        super().__init__(_paired_generators(names))

    def identity_key(self):
        return ConsWord.EMPTY

    def key_append(self, key: ConsWord, letter: int) -> ConsWord:
        if letter == 0:
            return key
        if key.parent is not None and key.letter == self.generators[letter].inverse:
            return key.parent
        return key.push(letter)

    def key_inverse(self, a: ConsWord) -> ConsWord:
        key = ConsWord.EMPTY
        node = a
        while node.parent is not None:
            key = key.push(self.generators[node.letter].inverse)
            node = node.parent
        return key

    def key_letters(self, key: ConsWord) -> Letters:
        return key.letters()

    def key_length(self, key: ConsWord) -> int:
        return key.length

    def frame_prepend(self, letter: int, lkey: ConsWord):
        # frame keys store the word reversed, so prepending is a push
        if letter == 0:
            return lkey
        if lkey.parent is not None and lkey.letter == self.generators[letter].inverse:
            return lkey.parent
        return lkey.push(letter)

    def geodesic_normal_form(self) -> bool:
        return True

    def geodesics_extend(self) -> bool:
        return True


class FreeAbelianGroup(Group):
    """Z^rank; canonical form lists axes in order, each as a signed power."""

    kind = "free_abelian"

    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        if rank < 1:
            raise MalformedInputError("free abelian rank must be >= 1")
        self.rank = rank
        default = ["x", "y", "z"] + [f"x{i}" for i in range(3, rank)]
        names = list(names) if names else default[:rank]
        if len(names) != rank:
            raise MalformedInputError(f"free abelian group of rank {rank} given {len(names)} names")
        super().__init__(_paired_generators(names))

    def identity_key(self):
        return (0,) * self.rank

    def key_append(self, key, letter: int):
        if letter == 0:
            return key
        axis, sign = divmod(letter - 1, 2)
        vec = list(key)
        vec[axis] += 1 if sign == 0 else -1
        return tuple(vec)

    def key_multiply(self, a, b):
        return tuple(map(add, a, b))

    def key_inverse(self, a):
        return tuple(map(neg, a))

    def key_letters(self, key) -> Letters:
        out: list[int] = []
        for axis, e in enumerate(key):
            letter = 1 + 2 * axis + (0 if e > 0 else 1)
            out.extend([letter] * abs(e))
        return tuple(out)

    def key_length(self, key) -> int:
        return sum(map(abs, key))

    def frame_prepend(self, letter: int, lkey):
        if letter == 0:
            return lkey
        axis = (letter - 1) >> 1
        vec = list(lkey)
        vec[axis] += 1 if letter & 1 else -1
        return tuple(vec)

    def geodesic_normal_form(self) -> bool:
        return True

    def geodesics_extend(self) -> bool:
        return True


class BaumslagSolitarGroup(Group):
    """BS(1, n) with the relation a b = b a^n (equivalently b^-1 a b = a^n).

    Elements are affine maps x -> n^scale * x + t with t in Z[1/n]; keys are
    (scale, c, d) with t = c / n^d in lowest n-adic terms (no general gcd is
    ever taken, so long machine runs stay cheap).  The canonical word is
    b^p a^q b^-r with p, r >= 0 and n not dividing q when both p and r are
    positive.
    """

    kind = "bs"

    A, A_INV, B, B_INV = 1, 2, 3, 4

    def __init__(self, n: int):
        if n < 2:
            raise MalformedInputError("BS(1, n) requires n >= 2")
        self.n = n
        super().__init__(_paired_generators(["a", "b"]))

    def _norm(self, c: int, d: int) -> tuple[int, int]:
        n = self.n
        if c == 0:
            return (0, 0)
        while d > 0 and c % n == 0:
            c //= n
            d -= 1
        return (c, d)

    def _add(self, c1: int, d1: int, c2: int, d2: int) -> tuple[int, int]:
        n = self.n
        m = max(d1, d2)
        return self._norm(c1 * n ** (m - d1) + c2 * n ** (m - d2), m)

    def identity_key(self):
        return (0, 0, 0)

    def key_append(self, key, letter: int):
        if letter == 0:
            return key
        n = self.n
        scale, c, d = key
        if letter == self.B:
            return (scale - 1, c, d)
        if letter == self.B_INV:
            return (scale + 1, c, d)
        sign = 1 if letter == self.A else -1
        # t +/- n^scale
        if scale >= 0:
            c2, d2 = sign * n ** scale, 0
        else:
            c2, d2 = sign, -scale
        c, d = self._add(c, d, c2, d2)
        return (scale, c, d)

    def key_multiply(self, a, b):
        n = self.n
        s1, c1, d1 = a
        s2, c2, d2 = b
        # t = t1 + n^{s1} * t2
        if s1 >= d2:
            c2, d2 = c2 * n ** (s1 - d2), 0
        else:
            d2 = d2 - s1
        c, d = self._add(c1, d1, c2, d2)
        return (s1 + s2, c, d)

    def key_inverse(self, a):
        n = self.n
        s, c, d = a
        # t -> -n^{-s} * t
        d2 = d + s
        if d2 >= 0:
            c2, d2 = -c, d2
        else:
            c2, d2 = -c * n ** (-d2), 0
        return (-s, *self._norm(c2, d2))

    def frame_prepend(self, letter: int, lkey):
        # t -> t +/- 1 for a^{+/-1}, t -> t / n for b, t -> n t for b^-1
        scale, c, d = lkey
        n = self.n
        if letter == self.A:
            return (scale, c + n ** d, d)
        if letter == self.A_INV:
            return (scale, c - n ** d, d)
        if letter == self.B:
            if d == 0 and c % n == 0:
                return (scale - 1, c // n, 0)
            return (scale - 1, c, d + 1)
        if letter == self.B_INV:
            if d > 0:
                return (scale + 1, c, d - 1)
            return (scale + 1, c * n, 0)
        return lkey

    def _normal_form(self, key) -> tuple[int, int, int]:
        """(p, q, r) with the element equal to b^p a^q b^-r."""
        scale, c, d = key
        n = self.n
        if d >= -scale:
            return (d, c, scale + d)
        return (-scale, c * n ** (-scale - d), 0)

    def key_letters(self, key) -> Letters:
        p, q, r = self._normal_form(key)
        if p + abs(q) + r > MAX_WORD_LETTERS:
            raise MalformedInputError(
                "normal-form word too long to materialize; use keys")
        a_letter = self.A if q > 0 else self.A_INV
        return (self.B,) * p + (a_letter,) * abs(q) + (self.B_INV,) * r

    def key_length(self, key) -> int:
        p, q, r = self._normal_form(key)
        return p + abs(q) + r

    def format_element(self, e: Element) -> str:
        p, q, r = self._normal_form(e.key)
        parts = []
        if p:
            parts.append("b" if p == 1 else f"b^{p}")
        if q:
            parts.append("a" if q == 1 else f"a^{q}")
        if r:
            parts.append("b^-1" if r == 1 else f"b^-{r}")
        return " ".join(parts) if parts else "e"


class FiniteGroup(Group):
    """A finite group given by its full multiplication table.

    Element i of the table is generator id i; id 0 is the identity.  The
    canonical word of a non-identity element is the single letter naming it.
    """

    kind = "finite"

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        m = len(table)
        if m == 0:
            raise MalformedInputError("empty multiplication table")
        rows = [tuple(row) for row in table]
        for row in rows:
            if len(row) != m or any(type(v) is not int or not 0 <= v < m for v in row):
                raise MalformedInputError("multiplication table is not square over 0..m-1")
        for i in range(m):
            if rows[0][i] != i or rows[i][0] != i:
                raise MalformedInputError("row/column 0 must act as the identity")
        inverses: list[Optional[int]] = [None] * m
        for i in range(m):
            for j in range(m):
                if rows[i][j] == 0:
                    inverses[i] = j
        if any(v is None for v in inverses):
            raise MalformedInputError("table has an element without inverse")
        if m <= 64:
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                            raise MalformedInputError("table is not associative")
        self.table = rows
        if names is None:
            names = ["e"] + [f"t{i}" for i in range(1, m)]
        elif len(names) != m:
            raise MalformedInputError(f"finite group of order {m} given {len(names)} names")
        gens = [GeneratorSymbol(0, names[0], 0, is_identity=True)]
        for i in range(1, m):
            gens.append(GeneratorSymbol(i, names[i], inverses[i]))
        super().__init__(gens)

    @property
    def order(self) -> int:
        return len(self.table)

    def identity_key(self):
        return 0

    def key_append(self, key, letter: int):
        return self.table[key][letter]

    def key_multiply(self, a, b):
        return self.table[a][b]

    def key_inverse(self, a):
        return self.generators[a].inverse if a else 0

    def key_letters(self, key) -> Letters:
        return () if key == 0 else (key,)

    def frame_prepend(self, letter: int, lkey):
        return self.table[letter][lkey]

    def is_finite(self) -> bool:
        return True

    def geodesic_normal_form(self) -> bool:
        return True


class _ProductBase(Group):
    """Shared generator-embedding plumbing for direct and free products."""

    def __init__(self, factors: Sequence[Group]):
        self.factors = tuple(factors)
        gens = [GeneratorSymbol(0, "e", 0, is_identity=True)]
        self._letter_factor: dict[int, tuple[int, int]] = {}
        self._embedding: list[dict[int, int]] = []   # factor letter -> product letter
        next_id = 1
        clash = _name_clash(self.factors)
        for fi, f in enumerate(self.factors):
            local = {s: next_id + i for i, s in enumerate(f.nonidentity_ids)}
            self._embedding.append(local)
            for g in f.generators:
                if g.is_identity:
                    continue
                display = f"{g.display}.{fi}" if g.display in clash else g.display
                gens.append(GeneratorSymbol(local[g.id], display, local[g.inverse]))
                self._letter_factor[local[g.id]] = (fi, g.id)
            next_id += len(local)
        gens.sort(key=lambda g: g.id)
        super().__init__(gens)

    def embed_word(self, fi: int, word: Iterable[int]) -> Letters:
        local = self._embedding[fi]
        return tuple(local[x] for x in word if x != 0)

    def geodesic_normal_form(self) -> bool:
        return all(f.geodesic_normal_form() for f in self.factors)


def _name_clash(factors: Sequence[Group]) -> set[str]:
    seen: set[str] = set()
    clash: set[str] = set()
    for f in factors:
        mine = {g.display for g in f.generators if not g.is_identity}
        clash |= seen & mine
        seen |= mine
    return clash


class DirectProductGroup(_ProductBase):
    """Direct product; canonical words list each factor's block in order."""

    kind = "direct_product"

    def identity_key(self):
        return tuple(f.identity_key() for f in self.factors)

    def key_append(self, key, letter: int):
        if letter == 0:
            return key
        fi, local = self._letter_factor[letter]
        out = list(key)
        out[fi] = self.factors[fi].key_append(out[fi], local)
        return tuple(out)

    def key_multiply(self, a, b):
        return tuple(f.key_multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def key_inverse(self, a):
        return tuple(f.key_inverse(x) for f, x in zip(self.factors, a))

    def key_letters(self, key) -> Letters:
        out: list[int] = []
        for fi, sub in enumerate(key):
            out.extend(self.embed_word(fi, self.factors[fi].key_letters(sub)))
        return tuple(out)

    def key_length(self, key) -> int:
        return sum(f.key_length(sub) for f, sub in zip(self.factors, key))

    def frame_prepend(self, letter: int, lkey):
        if letter == 0:
            return lkey
        fi, local = self._letter_factor[letter]
        out = list(lkey)
        out[fi] = self.factors[fi].frame_prepend(local, out[fi])
        return tuple(out)

    def component(self, e: Element, fi: int) -> Element:
        return tuple.__new__(Element, (e.key[fi],))

    def pair(self, components: Sequence[Element]) -> Element:
        return tuple.__new__(Element, (tuple(c.key for c in components),))

    def is_finite(self) -> bool:
        return all(f.is_finite() for f in self.factors)

    def geodesics_extend(self) -> bool:
        return any(f.geodesics_extend() for f in self.factors)


class FreeProductGroup(_ProductBase):
    """Free product; a key is a `ConsWord` of (factor, factor key) syllables,
    first syllable at the root, with adjacent syllables in different factors
    and no syllable the factor's identity.  Frame keys hold (factor, factor
    frame key) syllables last-first, so both an append and a prepend work
    on the top syllable.  The group has its own trie root."""

    kind = "free_product"

    def __init__(self, factors: Sequence[Group]):
        if len(factors) < 2:
            raise MalformedInputError("free product needs at least two factors")
        self._root = ConsWord()
        super().__init__(factors)
        self._ones = tuple(f.identity_key() for f in self.factors)
        # each letter's one-letter syllable, or None for a trivial one
        self._syllable: list[Optional[tuple]] = [None] * len(self.generators)
        for letter, (fi, local) in self._letter_factor.items():
            sub = self.factors[fi].key_of_letters((local,))
            if sub != self._ones[fi]:
                self._syllable[letter] = (fi, sub)

    def identity_key(self):
        return self._root

    def _times(self, key: ConsWord, syllable: tuple) -> ConsWord:
        """key * one syllable: merged into a top syllable of its factor (and
        popped if the merge is trivial), else pushed."""
        fi, sub = syllable
        if key.parent is not None and key.letter[0] == fi:
            merged = self.factors[fi].key_multiply(key.letter[1], sub)
            return key.parent if merged == self._ones[fi] else key.parent.push((fi, merged))
        return key.push(syllable)

    def key_append(self, key: ConsWord, letter: int) -> ConsWord:
        syllable = self._syllable[letter]
        return key if syllable is None else self._times(key, syllable)

    def key_multiply(self, a: ConsWord, b: ConsWord) -> ConsWord:
        for syllable in b.letters():
            a = self._times(a, syllable)
        return a

    def key_inverse(self, a: ConsWord) -> ConsWord:
        key, node = self._root, a
        while node.parent is not None:
            fi, sub = node.letter
            key = key.push((fi, self.factors[fi].key_inverse(sub)))
            node = node.parent
        return key

    def key_letters(self, key: ConsWord) -> Letters:
        out: list[int] = []
        for fi, sub in key.letters():
            out.extend(self.embed_word(fi, self.factors[fi].key_letters(sub)))
        return tuple(out)

    def key_length(self, key: ConsWord) -> int:
        return sum(self.factors[fi].key_length(sub) for fi, sub in key.letters())

    def frame_prepend(self, letter: int, lkey: ConsWord) -> ConsWord:
        if letter == 0:
            return lkey
        fi, local = self._letter_factor[letter]
        f = self.factors[fi]
        one = f.frame_identity()
        if lkey.parent is not None and lkey.letter[0] == fi:
            merged = f.frame_prepend(local, lkey.letter[1])
            return lkey.parent if merged == one else lkey.parent.push((fi, merged))
        sub = f.frame_prepend(local, one)
        return lkey if sub == one else lkey.push((fi, sub))

    def is_finite(self) -> bool:
        nontrivial = [f for f in self.factors if f.nonidentity_ids]
        if len(nontrivial) >= 2:
            return False
        return all(f.is_finite() for f in self.factors)

    def geodesics_extend(self) -> bool:
        # a rewriting factor's generators may all be trivial
        nontrivial = [f for f in self.factors if any(
            f.key_of_letters((s,)) != f.identity_key() for s in f.nonidentity_ids)]
        if len(nontrivial) >= 2 and self.geodesic_normal_form():
            return True
        return any(f.geodesics_extend() for f in self.factors)


class RewritingGroup(Group):
    """A group presented by a confluent, shortlex-decreasing rule set.

    Free-reduction rules s s^-1 -> eps are added to the caller's rules.
    Shortlex-decreasing rules terminate, so by Newman's lemma the system is
    confluent exactly when every critical pair (two rules whose left-hand
    sides overlap, one inside the other, or coincide) reduces to one normal
    form; the constructor checks every pair and raises MalformedInputError
    on the first that does not.  A key is the normal-form word as a
    `ConsWord` (last letter on top), grown from the group's own trie root.
    The frame key of g is the key of g^-1, since s g = (g^-1 s^-1)^-1: a
    left multiplication by s is an append of s^-1, as cheap as a right one.
    One rule dict serves both, so a wrong rule would corrupt both routes of
    `machines.fixed_moving_equivalent` alike; the independent check of the
    rules is the rescanning `oracle_normal_form` of the tests.
    """

    kind = "rewriting"

    def __init__(self, names: Sequence[str], rules: Sequence[tuple[str, str]]):
        self._root = ConsWord()
        super().__init__(self._build_generators(names))
        self.user_rules = tuple((lhs, rhs) for lhs, rhs in rules)
        parsed: list[tuple[Letters, Letters]] = []
        for lhs, rhs in rules:
            l, r = self.parse_word(lhs), self.parse_word(rhs)
            if not l:
                raise MalformedInputError("rule with empty left-hand side")
            if 0 in l:
                raise MalformedInputError(
                    f"rule {lhs!r} -> {rhs!r}: the identity symbol e cannot "
                    f"appear in a left-hand side")
            if (len(r), r) >= (len(l), l):
                raise MalformedInputError(
                    f"rule {lhs!r} -> {rhs!r} is not shortlex-decreasing")
            parsed.append((l, r))
        parsed += [((g.id, g.inverse), ()) for g in self.generators if not g.is_identity]
        # one rule per left-hand side; the check below shows the choice is free
        self._rules: dict[Letters, Letters] = dict(parsed)
        self._lhs_lengths = sorted({len(l) for l in self._rules})
        for word, u, v in _critical_pairs(parsed):
            if u == v:
                continue
            u, v = self._rewrite(self._root, u), self._rewrite(self._root, v)
            if u is not v:
                raise MalformedInputError(
                    f"rewriting system is not confluent: "
                    f"{self.format_word(word)!r} reduces to the normal forms "
                    f"{self.format_word(u.letters()) or 'e'!r} and "
                    f"{self.format_word(v.letters()) or 'e'!r}")

    @staticmethod
    def _build_generators(names: Sequence[str]) -> list[GeneratorSymbol]:
        gens = [GeneratorSymbol(0, "e", 0, is_identity=True)]
        ids = {name: i + 1 for i, name in enumerate(names)}
        if "e" in ids:
            raise MalformedInputError("'e' is reserved for the identity symbol")
        for name, gid in ids.items():
            if name.endswith("^-1"):
                base = name[:-3]
                if base not in ids:
                    raise MalformedInputError(f"inverse {name!r} without base generator")
                continue
            inv_name = name + "^-1"
            inv = ids.get(inv_name, gid)  # absent partner: self-inverse
            gens.append(GeneratorSymbol(gid, name, inv))
            if inv != gid:
                gens.append(GeneratorSymbol(inv, inv_name, gid))
        gens.sort(key=lambda g: g.id)
        if len(gens) != len(names) + 1:
            raise MalformedInputError("generator list is inconsistent")
        return gens

    def _rewrite(self, base: ConsWord, letters: Iterable[int]) -> ConsWord:
        """The normal form of base * letters, for an irreducible base, under
        the group's one rule dict (keys and frame keys alike).

        Letters are pushed one at a time onto a working list over the base,
        identity letters skipped.  The word kept so far stays irreducible,
        so only its suffixes up to the longest left-hand side can match; a
        match pops the left-hand side and pushes the right-hand side back
        onto the input.  A suffix longer than the list reads the base's top
        letters, which come off the base only when that suffix matches, and
        only the surviving letters are pushed onto the base at the end: the
        cost per letter does not depend on the base's length, and letters
        rewritten away are never interned.  More than DEFAULT_REWRITE_BUDGET
        rewrites raise UndeterminedError.
        """
        out: list[int] = []
        todo = list(letters)
        todo.reverse()
        rules = self._rules
        lengths = self._lhs_lengths
        budget = DEFAULT_REWRITE_BUDGET
        while todo:
            letter = todo.pop()
            if letter == 0:
                continue
            out.append(letter)
            n = len(out)
            for k in lengths:
                if k <= n:
                    lhs = tuple(out[n - k:])
                elif k > n + base.length:
                    break
                else:
                    node, head = base, ()
                    while len(head) + n < k:
                        head = (node.letter,) + head
                        node = node.parent
                    lhs = head + tuple(out)
                rhs = rules.get(lhs)
                if rhs is not None:
                    if k <= n:
                        del out[n - k:]
                    else:
                        base = node
                        out.clear()
                    todo.extend(reversed(rhs))
                    budget -= 1
                    if budget < 0:
                        raise UndeterminedError(
                            "rewriting did not reach a normal form within budget")
                    break
        for letter in out:
            base = base.push(letter)
        return base

    def identity_key(self):
        return self._root

    def key_of_letters(self, letters: Iterable[int]):
        return self._rewrite(self._root, letters)

    def key_append(self, key: ConsWord, letter: int):
        return self._rewrite(key, (letter,))

    def key_multiply(self, a: ConsWord, b: ConsWord):
        return self._rewrite(a, b.letters())

    def key_letters(self, key: ConsWord) -> Letters:
        return key.letters()

    def key_length(self, key: ConsWord) -> int:
        return key.length

    def frame_prepend(self, letter: int, lkey: ConsWord):
        # lkey is the key of g^-1, and (s g)^-1 = g^-1 s^-1
        return self._rewrite(lkey, (self.generators[letter].inverse,))

    def geodesic_normal_form(self) -> bool:
        # every word of an element rewrites to its normal form by
        # shortlex-decreasing steps, so the normal form is its shortlex-least
        # word, and a shortest one
        return True


def _critical_pairs(rules: Sequence[tuple[Letters, Letters]]):
    """(word, u, v): a word two rules can both rewrite, and the two results.

    Covers every proper overlap of a left-hand side's suffix with another's
    prefix (a rule with itself included) and every occurrence of one
    left-hand side inside another's, equal left-hand sides of two rules
    among them.
    """
    for (i, (l1, r1)), (j, (l2, r2)) in itertools.product(enumerate(rules), repeat=2):
        n1, n2 = len(l1), len(l2)
        for k in range(1, min(n1, n2)):
            if l1[-k:] == l2[:k]:
                yield l1 + l2[k:], r1 + l2[k:], l1[:-k] + r2
        if i != j:
            for p in range(n1 - n2 + 1):
                if l1[p:p + n2] == l2:
                    yield l1, r1, l1[:p] + r2 + l1[p + n2:]


# -- spec-level operations ----------------------------------------------------


def solve_word_problem(group: Group, word: Iterable[int]) -> bool:
    """Decide whether the word represents the identity element."""
    return group.key_of_letters(group.check_word(word)) == group.identity_key()


def canonical_form(group: Group, word: Iterable[int]) -> Element:
    """Normal-form representative; equal iff the words are equal in the group."""
    return group.element(word)


def free_group(rank: int) -> FreeGroup:
    return FreeGroup(rank)


def free_abelian_group(rank: int) -> FreeAbelianGroup:
    return FreeAbelianGroup(rank)


def bs_group(n: int) -> BaumslagSolitarGroup:
    return BaumslagSolitarGroup(n)


def finite_group(table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None) -> FiniteGroup:
    return FiniteGroup(table, names)


def cyclic_group(m: int) -> FiniteGroup:
    """Z/m as a finite-table group."""
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(table)


def direct_product(*factors: Group) -> DirectProductGroup:
    return DirectProductGroup(factors)


def free_product(*factors: Group) -> FreeProductGroup:
    return FreeProductGroup(factors)
