"""Command-line entry point.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage
error or malformed input (invalid JSON, a JSON value of the wrong type or
shape, a negative count, a request past a fixed cap: a generated family's
radius, the clock prefix length, a materialized word's length), 3 budget
exhausted / undetermined (search nodes, ball elements, rewrites,
completion steps, visit ticks, machine steps: every UndeterminedError).
Every leaf command is declared through `command`, which gives it a
machine-readable mode (--format json, whose payload embeds the run
manifest) and --manifest PATH (which also writes the manifest to a file),
records every JSON file it reads as a manifest input, and maps its result
to output and an exit code.  An undetermined outcome's JSON payload is
{"verdict": "undetermined", "nodes": N}, with N null where the budget
counts no nodes; `machine run` exits 3 this way when its step budget runs
out before the machine accepts, and adds its steps and trace.  The
environment variable GROUPSHIFT_BUDGET overrides default budgets; a
--budget option overrides both.  A budget that is not a finite,
non-negative number is a usage error.

Start-up imports only what every command needs: click, `errors` and
`jsonio` (which loads `groups` to decode --group).  Every command body, and
every option callback, imports the library names it runs itself, so that a
word problem never loads the compilers; `tests/test_imports.py` checks what
each command loads.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from typing import Any, Optional

import click

from . import jsonio
from .errors import GroupShiftError, MalformedInputError, UndeterminedError

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_UNDETERMINED = 0, 1, 2, 3

# what a command body returns: human text, JSON payload, manifest outcome, exit code
Result = tuple[str, dict, str, int]

COUNT = click.IntRange(min=0)


def parse_budget(raw: str, source: str) -> int:
    """A search budget: a finite, non-negative number such as 5000 or 1e7."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise click.UsageError(
            f"{source} must be a finite, non-negative number, got {raw!r}")
    return int(value)


def budget_option(fallback: int):
    """--budget, resolved to an int: the option if given, else
    GROUPSHIFT_BUDGET if set, else `fallback`."""
    def resolve(ctx, param, raw: Optional[str]) -> int:
        if raw is not None:
            return parse_budget(raw, "--budget")
        env = os.environ.get("GROUPSHIFT_BUDGET")
        return parse_budget(env, "GROUPSHIFT_BUDGET") if env else fallback
    return click.option(
        "--budget", default=None, callback=resolve,
        help=f"search budget, e.g. 5000 or 1e7 (default: GROUPSHIFT_BUDGET, "
             f"else {fallback})")


def _manifest() -> jsonio.RunManifest:
    """The run manifest of the command being invoked, opened on first use."""
    meta = click.get_current_context().meta
    if "groupshift.manifest" not in meta:
        meta["groupshift.manifest"] = jsonio.RunManifest(command=sys.argv[1:])
    return meta["groupshift.manifest"]


def _load_json(path: str) -> Any:
    """The one JSON reader: reads the file once, records its digest in the
    run manifest and parses it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = json.loads(data)
    except (OSError, ValueError) as e:
        raise MalformedInputError(f"cannot read JSON from {path}: {e}") from e
    _manifest().add_input(path, data)
    return obj


def _read_group(ctx, param, path: Optional[str]):
    return None if path is None else jsonio.group_from_json(_load_json(path))


group_option = click.option("--group", required=True, type=click.Path(exists=True),
                            callback=_read_group, help="group JSON file")


def command(parent: click.Group, name: Optional[str] = None):
    """Declare a leaf command of `parent` whose body returns a `Result`
    (see `verdict`, `ok` and `undetermined`).  Adds --format and --manifest,
    reports an UndeterminedError (a budget that ran out) with exit code 3,
    prints the result with its run manifest and exits with the result's
    code."""
    def decorate(body):
        @functools.wraps(body)
        def run(fmt: str, manifest_path: Optional[str], **params):
            try:
                human, payload, outcome, code = body(**params)
            except UndeterminedError as e:
                human, payload, outcome, code = undetermined(
                    f"undetermined: {e}", e.nodes)
            manifest = _manifest().finish(outcome)
            click.echo(jsonio.dump({**payload, "manifest": manifest})
                       if fmt == "json" else human)
            if manifest_path:
                with open(manifest_path, "w") as fh:
                    fh.write(jsonio.dump(manifest))
            sys.exit(code)

        run = click.option("--manifest", "manifest_path", type=click.Path(),
                           default=None, help="also write the run manifest here")(run)
        run = click.option("--format", "fmt", type=click.Choice(["human", "json"]),
                           default="human", show_default=True)(run)
        return parent.command(name)(run)
    return decorate


def verdict(holds: bool, payload: dict, human: Optional[str] = None,
            outcome: Optional[str] = None) -> Result:
    """A yes/no answer: exit 0 when it holds, 1 when it does not."""
    return (str(holds).lower() if human is None else human, payload,
            outcome or str(holds), EXIT_OK if holds else EXIT_NEGATIVE)


def ok(human: str, payload: dict, outcome: str = "ok") -> Result:
    """A result that is not a verdict: exit 0."""
    return verdict(True, payload, human, outcome)


def undetermined(human: str, nodes: Optional[int], **extra) -> Result:
    """A budget ran out before the answer was known: exit 3."""
    return (human, {"verdict": "undetermined", "nodes": nodes, **extra},
            "undetermined", EXIT_UNDETERMINED)


@click.group()
def main():
    """Symbolic dynamics over finitely generated groups."""


@command(main)
@group_option
@click.option("--word", required=True)
def wp(group, word):
    """Decide whether a word represents the identity."""
    from .groups import solve_word_problem
    identity = solve_word_problem(group, group.parse_word(word))
    return verdict(identity, {"identity": identity})


@command(main)
@group_option
@click.option("--word", required=True)
def canon(group, word):
    """Canonical form of a word."""
    e = group.element(group.parse_word(word))
    text = group.format_element(e)
    return ok(text, {"canonical": text, "length": group.length_of(e)})


@command(main, "ball")
@group_option
@click.option("--radius", "-n", "--n", "radius", required=True, type=COUNT)
@click.option("--dot", "dot", is_flag=True, help="emit DOT instead of a summary")
def ball_cmd(group, radius, dot):
    """Build a metric ball of the Cayley graph."""
    from .cayley import ball
    b = ball(group, radius)
    if dot:
        text = b.to_dot()
        return ok(text, {"dot": text, "size": len(b)})
    names = [group.format_element(e) for e in b.sorted_elements()]
    return ok(f"|B_{radius}| = {len(b)}", {"size": len(b), "elements": names})


@command(main)
@group_option
@click.option("--max-len", required=True, type=COUNT)
def words(group, max_len):
    """Enumerate words in length-then-lex order."""
    from .cayley import enumerate_words
    out = [group.format_word(w) for w in enumerate_words(group, max_len)]
    return ok("\n".join(w if w else "(eps)" for w in out), {"words": out})


@main.group()
def sequences():
    """The recursive element-sequence constructions."""


@command(sequences, "disjoint")
@group_option
@click.option("-n", "--n", "n", required=True, type=COUNT)
def sequences_disjoint(group, n):
    """Elements g_k, h_k whose translated balls are pairwise disjoint."""
    from .cayley import disjoint_ball_sequences
    gs, hs = disjoint_ball_sequences(group, n)
    g_names = [group.format_element(e) for e in gs]
    h_names = [group.format_element(e) for e in hs]
    human = "g: " + ", ".join(g_names) + "\nh: " + ", ".join(h_names)
    return ok(human, {"g": g_names, "h": h_names})


@command(sequences, "component")
@group_option
@click.option("--cut", "-N", "cut", required=True, type=COUNT)
@click.option("--seed", required=True)
@click.option("-n", "--n", "n", required=True, type=COUNT)
def sequences_component(group, cut, seed, n):
    """The punctured-ball component sequence from a seed word."""
    from .cayley import component_sequence
    seq = component_sequence(group, cut, group.parse_word(seed), n)
    names = [group.format_element(e) for e in seq]
    return ok(", ".join(names), {"elements": names})


@main.group("coding")
def coding_group():
    """Pattern-coding operations."""


@command(coding_group, "check")
@group_option
@click.option("--coding", "coding_path", required=True, type=click.Path(exists=True))
def coding_check(group, coding_path):
    """CONSISTENT with the induced pattern, or INCONSISTENT with a witness."""
    from .patterns import Consistent, check_consistency
    c = jsonio.coding_from_json(group, _load_json(coding_path))
    res = check_consistency(group, c)
    if isinstance(res, Consistent):
        pat = jsonio.pattern_to_json(group, res.pattern, c.alphabet)
        return verdict(True, {"verdict": "consistent", "pattern": pat},
                       "CONSISTENT\n" + jsonio.dump(pat), "consistent")
    u, v = res.witness
    human = f"INCONSISTENT witness ({group.format_word(u)}, {group.format_word(v)})"
    return verdict(False, {"verdict": "inconsistent",
                           "witness": [group.format_word(u), group.format_word(v)]},
                   human, "inconsistent")


@command(main)
@group_option
@click.option("--coding", "coding_path", required=True, type=click.Path(exists=True))
@click.option("--enumeration", "enum_path", required=True, type=click.Path(exists=True),
              help="JSON list of pattern codings")
@budget_option(10_000)
def completion(group, coding_path, enum_path, budget):
    """Membership in the decidable completion of an enumerated family."""
    from .patterns import decidable_completion_contains
    c = jsonio.coding_from_json(group, _load_json(coding_path))
    enum = jsonio.enumeration_from_json(group, _load_json(enum_path))
    member = decidable_completion_contains(group, enum, c, budget)
    return verdict(member, {"member": member})


@main.group("subshift")
def subshift_group():
    """Windowed subshift semantics."""


def _load_subshift_and_pattern(spec_path, pattern_path):
    spec = jsonio.subshift_from_json(_load_json(spec_path))
    pat = jsonio.pattern_from_json(spec.group, _load_json(pattern_path), spec.alphabet)
    return spec, pat


@command(subshift_group, "check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
def subshift_check(spec_path, pattern_path):
    """Local admissibility of a pattern."""
    from .subshifts import locally_admissible
    spec, pat = _load_subshift_and_pattern(spec_path, pattern_path)
    admissible = locally_admissible(pat, spec)
    return verdict(admissible, {"admissible": admissible},
                   "admissible" if admissible else "inadmissible")


@command(subshift_group, "extend")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@click.option("--radius", required=True, type=COUNT)
@budget_option(500_000)
def subshift_extend(spec_path, pattern_path, radius, budget):
    """Extendability of a pattern on the ball of the given radius."""
    from .subshifts import extendable
    spec, pat = _load_subshift_and_pattern(spec_path, pattern_path)
    holds = extendable(pat, spec, radius, budget)
    return verdict(holds, {"extendable": holds}, "yes" if holds else "no")


@main.group("delone")
def delone_group():
    """Separated-cover configurations."""


@command(delone_group, "gen")
@group_option
@click.option("-n", "--n", "n", required=True, type=COUNT)
@click.option("--radius", required=True, type=COUNT)
@click.option("--dot", "dot", is_flag=True, help="emit a DOT graph colored by symbol")
def delone_gen(group, n, radius, dot):
    """Greedy separated configuration on a ball."""
    from .cayley import ball
    from .families import builtin_delone, greedy_delone_configuration
    pat = greedy_delone_configuration(group, n, radius)
    spec = builtin_delone(group, n)
    if dot:
        colors = {0: "white", 1: "black", 2: "green"}
        lines = ["graph delone {", "  node [style=filled];"]
        for e, v in pat.sorted_items(group):
            label = group.format_element(e)
            lines.append(f'  "{label}" [fillcolor={colors[v]}];')
        b = ball(group, radius)
        seen = set()
        for g, s, h in sorted(b.edges, key=lambda t: (group.shortlex_key(t[0]), t[1])):
            if (h, g) in seen:
                continue
            seen.add((g, h))
            lines.append(f'  "{group.format_element(g)}" -- "{group.format_element(h)}";')
        lines.append("}")
        text = "\n".join(lines)
        return ok(text, {"dot": text})
    payload = jsonio.pattern_to_json(group, pat, spec.alphabet)
    ones = sum(1 for _, v in pat.items() if v == 1)
    human = f"{len(pat)} cells, {ones} centers\n" + jsonio.dump(payload)
    return ok(human, {"pattern": payload, "centers": ones})


@main.group("machine")
def machine_group():
    """The group-walking machine VM."""


@command(machine_group, "run")
@group_option
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@budget_option(10_000)
@click.option("--trace", is_flag=True)
def machine_run(group, machine_path, pattern_path, budget, trace):
    """Run the moving-head semantics until acceptance or budget."""
    from .machines import trace_run
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    pat = jsonio.pattern_from_json(group, _load_json(pattern_path),
                                   machine.tape_alphabet)
    lines = []
    # the run advances one config in place: keep the last head, not it
    prev_head = None
    for cfg in trace_run(machine, pat, budget):
        if not trace:
            continue
        line = (f"step {cfg.steps} state {machine.states[cfg.state]} "
                f"head {group.format_element(cfg.head)}")
        if prev_head is not None:
            sym = cfg.tape.get(prev_head, machine.blank)
            line += (f" wrote {machine.tape_alphabet[sym]}"
                     f" at {group.format_element(prev_head)}")
        lines.append(line)
        prev_head = cfg.head
    steps = cfg.steps
    if cfg.state in machine.accepting:
        return ok("\n".join(lines + [f"accepted at {steps}"]),
                  {"accepted": True, "steps": steps, "trace": lines}, "accepted")
    # a run that has not accepted within its budget may still accept later
    human = "\n".join(lines + [f"undetermined: exhausted after {steps}"])
    return undetermined(human, None, steps=steps, trace=lines)


@command(machine_group, "path")
@group_option
@click.option("--steps", required=True, type=COUNT)
@click.option("--dot", "dot", is_flag=True, help="emit the path as DOT")
def machine_path(group, steps, dot):
    """Run the path builder and report (or draw) the marked path."""
    from .pathwalk import PathMachine, PathRun
    run = PathRun(PathMachine(group))
    run.run(steps)
    run.check_full()
    cells = [group.format_element(e) for e in run.path]
    if dot:
        lines = ["digraph path {"]
        for a, b in zip(cells, cells[1:]):
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        text = "\n".join(lines)
        return ok(text, {"dot": text, "length": len(cells)})
    human = f"path length {len(cells)} after {steps} steps"
    return ok(human, {"length": len(cells), "cells": cells})


@command(machine_group, "visit")
@group_option
@click.option("-n", "--n", "target", required=True, type=COUNT)
@budget_option(2_000_000)
def machine_visit(group, target, budget):
    """Run the ball visitor until it finishes the target radius."""
    from .pathwalk import VisitMachine
    vm = VisitMachine(group)
    events = vm.run_until_n(target, budget)
    visited = sorted({group.format_element(e.cell) for e in events
                      if e.kind == "visit" and e.n == target})
    human = (f"radius {target} visited {len(visited)} cells in {vm.ticks} ticks\n"
             + ", ".join(visited))
    return ok(human, {"visited": visited, "ticks": vm.ticks})


@command(machine_group, "equiv")
@group_option
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@click.option("--steps", type=COUNT, default=100, show_default=True)
def machine_equiv(group, machine_path, pattern_path, steps):
    """Check fixed-head/moving-head agreement step by step."""
    from .machines import fixed_moving_equivalent
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    pat = jsonio.pattern_from_json(group, _load_json(pattern_path),
                                   machine.tape_alphabet)
    equivalent = fixed_moving_equivalent(machine, pat, steps)
    return verdict(equivalent, {"equivalent": equivalent})


@command(machine_group, "retarget")
@group_option
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--gamma", "gamma_path", required=True, type=click.Path(exists=True),
              help='JSON object {"generator display": "word", ...}')
def machine_retarget(group, machine_path, gamma_path):
    """Replace each move generator by an equal word."""
    from .machines import retarget_generators
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    gamma = jsonio.retarget_map_from_json(group, _load_json(gamma_path))
    payload = jsonio.machine_to_json(retarget_generators(machine, gamma))
    return ok(jsonio.dump(payload), {"machine": payload})


@command(machine_group, "simulate-balls")
@group_option
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--coding", "coding_path", required=True, type=click.Path(exists=True))
@budget_option(10_000)
def machine_simulate_balls(group, machine_path, coding_path, budget):
    """Oracle-side simulation: consistency first, then growing-ball runs."""
    from .machines import simulate_with_balls
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    c = jsonio.coding_from_json(group, _load_json(coding_path))
    out = simulate_with_balls(machine, c, budget)
    if out.kind == "exhausted":
        raise UndeterminedError(f"no acceptance within {out.steps} steps")
    payload = {"outcome": out.kind, "steps": out.steps}
    if out.witness:
        payload["witness"] = [group.format_word(w) for w in out.witness]
    return ok(out.kind, payload, out.kind)


@command(machine_group, "oracle-sim")
@group_option
@click.option("--classical", required=True,
              help="accept-all | contains:WORD:SYMBOL | query:WORD")
@click.option("--alphabet", default="0,1", show_default=True)
@click.option("--pattern", "pattern_path", type=click.Path(exists=True), default=None)
@budget_option(20_000)
def machine_oracle_sim(group, classical, alphabet, pattern_path, budget):
    """Run the six-layer simulator of a classical oracle machine."""
    from .machines import Accepted
    from .pathwalk import (
        OracleSimulator,
        classical_accept_all,
        classical_contains_entry,
        classical_query_word,
    )
    from .patterns import Alphabet, Pattern
    alpha = Alphabet(tuple(alphabet.split(",")))
    kind, _, arg = classical.partition(":")
    word, has_symbol, symbol = arg.partition(":")
    if classical == "accept-all":
        spec = classical_accept_all()
    elif kind == "contains" and has_symbol:
        spec = classical_contains_entry(group, group.parse_word(word), symbol,
                                        extra_symbols=alpha.symbols)
    elif kind == "query":
        spec = classical_query_word(group, group.parse_word(arg))
    else:
        raise click.UsageError(f"unknown classical machine {classical!r}")
    pat = Pattern({})
    if pattern_path:
        pat = jsonio.pattern_from_json(group, _load_json(pattern_path), alpha)
    out = OracleSimulator(group, spec, alpha).run(pat, budget)
    if not isinstance(out, Accepted):
        raise UndeterminedError(f"no acceptance within {out.steps} steps")
    return ok("accepted", {"accepted": True, "steps": out.steps}, "accepted")


@main.group("compile")
def compile_group():
    """The machine-to-constraint compilers."""


def _a1_mode(ctx, param, a1: str):
    from .domino import WindowedA1
    kind, _, arg = a1.partition(":")
    if kind == "windowed" and arg.isdecimal():
        return WindowedA1(int(arg))
    if kind == "cover" and os.path.isfile(arg):
        return jsonio.cover_from_json(_load_json(arg))
    raise click.BadParameter(
        f"{a1!r} is not windowed:RADIUS or cover:FILE with an existing FILE")


@command(compile_group, "domino")
@group_option
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--a1", default="windowed:3", show_default=True, callback=_a1_mode,
              help="windowed:RADIUS or cover:FILE.json")
@click.option("--free-product", type=click.Path(exists=True), default=None,
              callback=_read_group,
              help="finite group JSON; wraps the instance, removing the origin")
@click.option("-o", "out_path", type=click.Path(), default=None)
def compile_domino_cmd(group, machine_path, a1, free_product, out_path):
    """Emit the origin-constrained instance for a machine."""
    from .domino import compile_domino, free_product_layer
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    instance = compile_domino(group, machine, a1)
    if free_product is not None:
        instance = free_product_layer(free_product, instance)
    payload = jsonio.instance_to_json(instance)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(jsonio.dump(payload))
    human = (f"{len(instance.constraints)} constraints, tags {instance.tags()}"
             + (f"\nwritten to {out_path}" if out_path else ""))
    return ok(human, {"instance": payload})


@command(compile_group, "simulate")
@group_option
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--abar", required=True)
@click.option("--alphabet", required=True, help="comma-separated pattern alphabet")
@click.option("--n-max", type=COUNT, default=1, show_default=True)
@click.option("--u-radius", type=COUNT, default=3, show_default=True)
@click.option("-o", "out_path", type=click.Path(), default=None)
def compile_simulate_cmd(group, machine_path, abar, alphabet, n_max, u_radius,
                         out_path):
    """Emit the simulation bundle for a pattern-rejection machine."""
    from .patterns import Alphabet
    from .simulation import build_simulation
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    alpha = Alphabet(tuple(alphabet.split(",")))
    bundle = build_simulation(group, machine, abar, alpha, n_max=n_max,
                              u_window_radius=u_radius)
    families = {name: [jsonio.constraint_to_json(group, bundle.final_alphabet, c)
                       for c in cons]
                for name, cons in bundle.machine_rules().items()}
    payload = {
        "final_alphabet": jsonio.component_alphabet_to_json(bundle.final_alphabet),
        "alphabet_size": bundle.final_alphabet.size(),
        "machine_rules": families,
        "u_rules": [jsonio.constraint_to_json(group, bundle.u_rules.alphabet, c)
                    for c in bundle.u_rules.constraints],
        "wrapped_states": len(bundle.wrapped.states),
        "abar": alpha[bundle.abar],
    }
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(jsonio.dump(payload))
    counts = {name: len(cons) for name, cons in families.items()}
    human = (f"final alphabet size {payload['alphabet_size']}, rules {counts}"
             + (f"\nwritten to {out_path}" if out_path else ""))
    return ok(human, payload)


@main.group("xtime")
def xtime_group():
    """The clock stream."""


def _schedule(ctx, param, name: str):
    from .simulation import PAPER_EXAMPLE_PARAMS, XTimeParams
    return PAPER_EXAMPLE_PARAMS if name == "paper-example" else XTimeParams()


schedule_option = click.option(
    "--schedule", type=click.Choice(["default", "paper-example"]), default="default",
    show_default=True, callback=_schedule)


@command(xtime_group, "prefix")
@group_option
@click.option("-n", "--n", "length", required=True, type=COUNT)
@schedule_option
def xtime_prefix_cmd(group, length, schedule):
    """The first n symbols of the clock stream."""
    from .simulation import xtime_prefix
    toks = xtime_prefix(group, schedule, length)
    return ok(" ".join(toks), {"prefix": toks})


@command(xtime_group, "kpos")
@group_option
@click.option("-n", "--n", "n", required=True, type=COUNT)
@schedule_option
def xtime_kpos_cmd(group, n, schedule):
    """Position of the n-th block marker."""
    from .simulation import oplus_positions, xtime_symbol
    pos = oplus_positions(group, schedule, n)
    sym = xtime_symbol(group, schedule, pos)
    return ok(f"k_{n} = {pos} ({sym})", {"position": pos, "symbol": sym})


@main.group("verify")
def verify_group():
    """Bounded evidence searches."""


@command(verify_group, "window")
@click.option("--instance", "instance_path", required=True, type=click.Path(exists=True))
@click.option("--radius", required=True, type=COUNT)
@click.option("--height", required=True, type=COUNT)
@budget_option(10_000_000)
def verify_window_cmd(instance_path, radius, height, budget):
    """Search a window for an admissible origin-anchored assignment."""
    from .domino import Unsatisfiable, verify_reduction_window
    from .patterns import Pattern
    instance = jsonio.instance_from_json(_load_json(instance_path))
    out = verify_reduction_window(instance, radius, height, budget)
    if isinstance(out, Unsatisfiable):
        return verdict(False, {"verdict": "unsatisfiable"}, "unsatisfiable",
                       "unsatisfiable")
    witness = jsonio.pattern_to_json(
        instance.product_group(),
        Pattern({cell: instance.alphabet.format_symbol(sym)
                 for cell, sym in out.witness.items()}))
    return verdict(True, {"verdict": "satisfiable", "witness": witness},
                   "satisfiable", "satisfiable")


def run_main():
    """Console entry point: a usage error or a library error (malformed
    input among them) raised while parsing or running exits 2."""
    try:
        main(standalone_mode=False)
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as e:
        e.show()
        sys.exit(EXIT_USAGE)
    except GroupShiftError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    run_main()
