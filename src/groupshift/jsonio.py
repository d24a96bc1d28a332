"""JSON schemas for groups, codings, patterns, subshifts, machines and
emitted constraint systems, plus the reproducible run manifest.

Every `*_from_json` decoder raises MalformedInputError when its input lacks
a key, holds a value of the wrong type or shape, or names one thing twice:
a pattern giving one element two symbols, or a machine with two rules for
one (read, state).  `domino.ComponentAlphabet` spells the cells of emitted
constraints in value labels, and an origin symbol as one label per component.

Only `groups` is imported at module level; every other decoder or encoder
imports the module of the kind it builds, so decoding a group (every
command's --group) loads nothing more.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from . import __version__
from .errors import MalformedInputError
from .groups import (
    BaumslagSolitarGroup,
    DirectProductGroup,
    Element,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Group,
    RewritingGroup,
)

if TYPE_CHECKING:
    from .domino import ComponentAlphabet, DominoConstraint, DominoInstance, UserSftCover
    from .machines import GMachineSpec
    from .patterns import Alphabet, Pattern, PatternCoding
    from .subshifts import SubshiftSpec


def _decoder(fn):
    """A `*_from_json` entry point: input of the wrong shape is malformed."""
    what = fn.__name__.removesuffix("_from_json")

    @functools.wraps(fn)
    def decode(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise MalformedInputError(
                f"bad {what} JSON: {type(e).__name__}: {e}") from e
    return decode


# -- groups --------------------------------------------------------------------


@_decoder
def group_from_json(obj: Mapping[str, Any]) -> Group:
    kind = obj.get("kind")
    if kind == "free":
        return FreeGroup(int(obj["rank"]), obj.get("names"))
    if kind == "free_abelian":
        return FreeAbelianGroup(int(obj["rank"]), obj.get("names"))
    if kind == "bs":
        return BaumslagSolitarGroup(int(obj["n"]))
    if kind == "finite":
        return FiniteGroup(obj["table"], obj.get("names"))
    if kind == "direct_product":
        return DirectProductGroup([group_from_json(f) for f in obj["factors"]])
    if kind == "free_product":
        return FreeProductGroup([group_from_json(f) for f in obj["factors"]])
    if kind == "rewriting":
        return RewritingGroup(obj["generators"],
                              [tuple(r) for r in obj["rules"]])
    raise MalformedInputError(f"unknown group kind {kind!r}")


def group_to_json(group: Group) -> dict:
    if isinstance(group, (FreeGroup, FreeAbelianGroup)):
        return {"kind": "free" if isinstance(group, FreeGroup) else "free_abelian",
                "rank": group.rank,
                "names": [group.generators[1 + 2 * i].display for i in range(group.rank)]}
    if isinstance(group, BaumslagSolitarGroup):
        return {"kind": "bs", "n": group.n}
    if isinstance(group, FiniteGroup):
        return {"kind": "finite", "table": [list(r) for r in group.table],
                "names": [g.display for g in group.generators]}
    if isinstance(group, DirectProductGroup):
        return {"kind": "direct_product",
                "factors": [group_to_json(f) for f in group.factors]}
    if isinstance(group, FreeProductGroup):
        return {"kind": "free_product",
                "factors": [group_to_json(f) for f in group.factors]}
    if isinstance(group, RewritingGroup):
        return {"kind": "rewriting",
                "generators": [g.display for g in group.generators if not g.is_identity],
                "rules": [list(r) for r in group.user_rules]}
    raise MalformedInputError(f"cannot serialize group {group!r}")


# -- words, codings, patterns ----------------------------------------------


@_decoder
def coding_from_json(group: Group, obj: Mapping[str, Any]) -> PatternCoding:
    from .patterns import Alphabet
    return _coding(group, obj["entries"], Alphabet(tuple(obj["alphabet"])))


def _coding(group: Group, entries, alphabet: Alphabet) -> PatternCoding:
    from .patterns import coding
    return coding(alphabet, [(group.parse_word(w), alphabet.index(str(label)))
                             for w, label in entries])


@_decoder
def enumeration_from_json(group: Group, obj: list) -> list[PatternCoding]:
    """A JSON list of pattern codings."""
    return [coding_from_json(group, o) for o in obj]


def _word(group: Group, e: Element) -> str:
    """An element's wire spelling: its display word, "" for the identity."""
    return group.format_element(e) if group.length_of(e) else ""


def pattern_to_json(group: Group, p: Pattern, alphabet: Optional[Alphabet] = None) -> dict:
    out = []
    for e, s in p.sorted_items(group):
        label = alphabet[s] if alphabet is not None and isinstance(s, int) else s
        out.append([_word(group, e), label])
    return {"support": out}


@_decoder
def pattern_from_json(group: Group, obj: Mapping[str, Any],
                      alphabet: Alphabet) -> Pattern:
    """A pattern coding that must be consistent (`patterns.pattern_of`)."""
    from .patterns import pattern_of
    return pattern_of(group, _coding(group, obj["support"], alphabet))


# -- subshifts ------------------------------------------------------------


@_decoder
def subshift_from_json(obj: Mapping[str, Any]) -> SubshiftSpec:
    from .families import (
        builtin_amenable_witness,
        builtin_delone,
        builtin_mirror,
        builtin_one_or_less,
    )
    from .patterns import Alphabet
    from .subshifts import FiniteFamily, SubshiftSpec
    group = group_from_json(obj["group"])
    forb = obj["forbidden"]
    kind = forb.get("kind")
    if kind == "finite":
        alphabet = Alphabet(tuple(obj["alphabet"]))
        patterns = tuple(pattern_from_json(group, p, alphabet)
                         for p in forb["patterns"])
        return SubshiftSpec(alphabet, group, FiniteFamily(patterns))
    if kind == "builtin":
        name = forb.get("name")
        if name == "one_or_less":
            return builtin_one_or_less(group, int(forb.get("k", 1)))
        if name == "mirror":
            return builtin_mirror(group)
        if name == "delone":
            return builtin_delone(group, int(forb["n"]))
        if name == "amenable_witness":
            return builtin_amenable_witness(group, int(forb["n_max"]))
        raise MalformedInputError(f"unknown builtin family {name!r}")
    raise MalformedInputError(f"unknown forbidden kind {kind!r}")


# -- machines ---------------------------------------------------------------


@_decoder
def machine_from_json(group: Group, obj: Mapping[str, Any]) -> GMachineSpec:
    from .machines import GMachineSpec
    from .patterns import Alphabet
    states = tuple(obj["states"])
    state_index = {s: i for i, s in enumerate(states)}
    alphabet = Alphabet(tuple(obj["alphabet"]))
    blank = alphabet.index(obj["blank"])
    accepting = frozenset(state_index[s] for s in obj["accepting"])
    delta = {}
    for rule in obj["delta"]:
        key = (alphabet.index(rule["read"]), state_index[rule["state"]])
        if key in delta:
            raise MalformedInputError(
                f"two rules for read {rule['read']!r} in state {rule['state']!r}")
        move_word = group.parse_word(rule["move"]) if rule.get("move") else ()
        if len(move_word) > 1:
            raise MalformedInputError("machine moves must be single generators")
        move = move_word[0] if move_word else 0
        delta[key] = (alphabet.index(rule["write"]), state_index[rule["next"]], move)
    return GMachineSpec(group, states, accepting, alphabet, blank, delta)


@_decoder
def retarget_map_from_json(group: Group, obj: Mapping[str, str]) -> dict:
    """{"generator display": "word", ...} as generator id -> letters."""
    gamma = {0: ()}
    for key, word in obj.items():
        letters = group.parse_word(key)
        if len(letters) != 1:
            raise MalformedInputError(f"retarget key {key!r} is not one generator")
        gamma[letters[0]] = group.parse_word(word)
    return gamma


def machine_to_json(machine: GMachineSpec) -> dict:
    group = machine.group
    alphabet = machine.tape_alphabet
    rules = []
    for (sym, q), (w, r, move) in sorted(machine.delta.items()):
        rules.append({"read": alphabet[sym], "state": machine.states[q],
                      "write": alphabet[w], "next": machine.states[r],
                      "move": group.generators[move].display if move else ""})
    return {"states": list(machine.states),
            "accepting": sorted(machine.states[q] for q in machine.accepting),
            "alphabet": list(alphabet.symbols), "blank": alphabet[machine.blank],
            "delta": rules}


# -- emitted constraint systems ---------------------------------------------


def component_alphabet_to_json(alphabet: ComponentAlphabet) -> list:
    return [[name, list(vals)] for name, vals in alphabet.components]


def constraint_to_json(group: Group, alphabet: ComponentAlphabet,
                       con: DominoConstraint) -> dict:
    from .domino import GOffset
    support = []
    for off in con.support:
        if isinstance(off, GOffset):
            support.append({"g": _word(group, off.g), "dz": off.dz})
        else:
            support.append({"h": off.h})
    return {"tag": con.tag, "support": support,
            "cells": [alphabet.labels(req) for req in con.cells]}


def instance_to_json(instance: DominoInstance) -> dict:
    group = instance.g_group
    out = {
        "group": group_to_json(group),
        "alphabet": component_alphabet_to_json(instance.alphabet),
        "forbidden": [constraint_to_json(group, instance.alphabet, c)
                      for c in instance.constraints],
        "origin_symbol": (instance.alphabet.symbol_labels(instance.origin_symbol)
                          if instance.origin_symbol is not None else None),
    }
    if instance.h_group is not None:
        out["free_product_factor"] = group_to_json(instance.h_group)
    return out


@_decoder
def cover_from_json(obj: Mapping[str, Any]) -> UserSftCover:
    """{"values": [...], "constraints": [{"support": [{"g": word, "dz": int},
    ...], "cells": [{component: [labels]}, ...]}, ...]}"""
    from .domino import UserSftCover
    cons = []
    for c in obj["constraints"]:
        cells = tuple(c["cells"])
        if not all(isinstance(cell, Mapping) for cell in cells):
            raise MalformedInputError("cover cells must be {component: [labels]}")
        cons.append((tuple((s["g"], int(s["dz"])) for s in c["support"]), cells))
    return UserSftCover(tuple(obj["values"]), tuple(cons))


@_decoder
def instance_from_json(obj: Mapping[str, Any]) -> DominoInstance:
    from .domino import ComponentAlphabet, DominoConstraint, DominoInstance, GOffset, HOffset
    group = group_from_json(obj["group"])
    alphabet = ComponentAlphabet(tuple(
        (name, tuple(vals)) for name, vals in obj["alphabet"]))
    # each distinct G offset and cell requirement is decoded once
    g_offset = functools.cache(
        lambda word, dz: GOffset(group.element(group.parse_word(word)), int(dz)))
    requirement = functools.cache(lambda cell: alphabet.requirement(dict(cell)))
    cons = []
    for c in obj["forbidden"]:
        support = tuple(HOffset(int(off["h"])) if "h" in off else g_offset(off["g"], off["dz"])
                        for off in c["support"])
        cells = tuple(requirement(tuple((name, tuple(v) if isinstance(v, list) else v)
                                        for name, v in cell.items())) for cell in c["cells"])
        cons.append(DominoConstraint(support, cells, c["tag"]))
    origin = obj.get("origin_symbol")
    origin_symbol = None if origin is None else alphabet.from_labels(origin)
    h_group = None
    if "free_product_factor" in obj:
        h_group = group_from_json(obj["free_product_factor"])
    return DominoInstance(group, alphabet, tuple(cons), origin_symbol, h_group)


# -- run manifests ------------------------------------------------------------


@dataclass
class RunManifest:
    command: list[str]
    inputs: dict[str, str] = field(default_factory=dict)

    def add_input(self, path: str, data: bytes) -> None:
        """Record the digest of the bytes read from `path`."""
        self.inputs[path] = hashlib.sha256(data).hexdigest()

    def finish(self, outcome: str) -> dict:
        """The manifest as JSON, with the package version, the run's outcome
        and the time it finished."""
        return {"command": self.command, "inputs": self.inputs, "version": __version__,
                "outcome": outcome, "timestamp": time.time()}


def dump(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
