"""Command-line entry point.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage
error, 3 budget exhausted / undetermined.  Every subcommand has a
machine-readable mode (--format json) whose payload embeds the run
manifest; --manifest PATH additionally writes the manifest to a file.
The environment variable GROUPSHIFT_BUDGET overrides default budgets; a
--budget option overrides both.  A budget that is not a finite,
non-negative number is a usage error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Any, Optional

import click

from . import jsonio
from .errors import (
    CompletionBudgetError,
    GroupShiftError,
    UndeterminedError,
)
from .cayley import (
    ball,
    component_sequence,
    disjoint_ball_sequences,
    enumerate_words,
)
from .domino import (
    Satisfiable,
    Unsatisfiable,
    UserSftCover,
    WindowedA1,
    compile_domino,
    free_product_layer,
    verify_reduction_window,
)
from .families import greedy_delone_configuration, builtin_delone
from .groups import Group, solve_word_problem
from .machines import (
    Accepted,
    fixed_moving_equivalent,
    retarget_generators,
    simulate_with_balls,
    trace_run,
)
from .pathwalk import (
    PathMachine,
    PathRun,
    VisitMachine,
    build_oracle_simulator,
    classical_accept_all,
    classical_contains_entry,
    classical_query_word,
)
from .patterns import (
    Alphabet,
    Pattern,
    check_consistency,
    Consistent,
    decidable_completion_contains,
)
from .simulation import (
    PAPER_EXAMPLE_PARAMS,
    XTimeParams,
    build_simulation,
    oplus_positions,
    xtime_prefix,
    xtime_symbol,
)
from .subshifts import extendable, locally_admissible

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_UNDETERMINED = 0, 1, 2, 3


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


def resolve_budget(option: Optional[str], fallback: int) -> int:
    """--budget if given, else GROUPSHIFT_BUDGET if set, else the fallback."""
    if option is not None:
        return parse_budget(option, "--budget")
    raw = os.environ.get("GROUPSHIFT_BUDGET")
    if raw:
        return parse_budget(raw, "GROUPSHIFT_BUDGET")
    return fallback


budget_option = click.option(
    "--budget", default=None,
    help="search budget, e.g. 5000 or 1e7 (default: GROUPSHIFT_BUDGET)")


def _load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _load_group(path: str) -> Group:
    return jsonio.group_from_json(_load_json(path))


class Emitter:
    def __init__(self, fmt: str, manifest_path: Optional[str], command: list[str]):
        self.fmt = fmt
        self.manifest = jsonio.RunManifest(command=command)
        self.manifest_path = manifest_path

    def add_input(self, path: str) -> None:
        self.manifest.add_input(path)

    def emit(self, human: str, payload: dict, outcome: str, code: int) -> int:
        manifest = self.manifest.finish(outcome)
        if self.fmt == "json":
            payload = dict(payload)
            payload["manifest"] = manifest
            click.echo(jsonio.dump(payload))
        else:
            click.echo(human)
        if self.manifest_path:
            with open(self.manifest_path, "w") as fh:
                fh.write(jsonio.dump(manifest))
        return code


def common_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["human", "json"]),
                      default="human", show_default=True)(fn)
    fn = click.option("--manifest", "manifest_path", type=click.Path(),
                      default=None, help="also write the run manifest here")(fn)
    return fn


def _emitter(ctx, fmt, manifest_path) -> Emitter:
    return Emitter(fmt, manifest_path, sys.argv[1:])


@click.group()
def main():
    """Symbolic dynamics over finitely generated groups."""


@main.command()
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--word", required=True)
@common_options
@click.pass_context
def wp(ctx, group_path, word, fmt, manifest_path):
    """Decide whether a word represents the identity."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    verdict = solve_word_problem(group, group.parse_word(word))
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    sys.exit(em.emit(str(verdict).lower(), {"identity": verdict}, str(verdict), code))


@main.command()
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--word", required=True)
@common_options
@click.pass_context
def canon(ctx, group_path, word, fmt, manifest_path):
    """Canonical form of a word."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    e = group.element(group.parse_word(word))
    text = group.format_element(e)
    sys.exit(em.emit(text, {"canonical": text, "length": group.length_of(e)},
                     "ok", EXIT_OK))


@main.command("ball")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--radius", "-n", "--n", "radius", required=True, type=int)
@click.option("--dot", "dot", is_flag=True, help="emit DOT instead of a summary")
@common_options
@click.pass_context
def ball_cmd(ctx, group_path, radius, dot, fmt, manifest_path):
    """Build a metric ball of the Cayley graph."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    b = ball(group, radius)
    if dot:
        sys.exit(em.emit(b.to_dot(), {"dot": b.to_dot(), "size": len(b)}, "ok", EXIT_OK))
    names = [group.format_element(e) for e in b.sorted_elements()]
    sys.exit(em.emit(f"|B_{radius}| = {len(b)}",
                     {"size": len(b), "elements": names}, "ok", EXIT_OK))


@main.command()
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--max-len", required=True, type=int)
@common_options
@click.pass_context
def words(ctx, group_path, max_len, fmt, manifest_path):
    """Enumerate words in length-then-lex order."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    out = [group.format_word(w) for w in enumerate_words(group, max_len)]
    sys.exit(em.emit("\n".join(w if w else "(eps)" for w in out),
                     {"words": out}, "ok", EXIT_OK))


@main.group()
def sequences():
    """The recursive element-sequence constructions."""


@sequences.command("disjoint")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("-n", "--n", "n", required=True, type=int)
@common_options
@click.pass_context
def sequences_disjoint(ctx, group_path, n, fmt, manifest_path):
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    gs, hs = disjoint_ball_sequences(group, n)
    g_names = [group.format_element(e) for e in gs]
    h_names = [group.format_element(e) for e in hs]
    human = "g: " + ", ".join(g_names) + "\nh: " + ", ".join(h_names)
    sys.exit(em.emit(human, {"g": g_names, "h": h_names}, "ok", EXIT_OK))


@sequences.command("component")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--cut", "-N", "cut", required=True, type=int)
@click.option("--seed", required=True)
@click.option("-n", "--n", "n", required=True, type=int)
@common_options
@click.pass_context
def sequences_component(ctx, group_path, cut, seed, n, fmt, manifest_path):
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    seq = component_sequence(group, cut, group.parse_word(seed), n)
    names = [group.format_element(e) for e in seq]
    sys.exit(em.emit(", ".join(names), {"elements": names}, "ok", EXIT_OK))


@main.group("coding")
def coding_group():
    """Pattern-coding operations."""


@coding_group.command("check")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--coding", "coding_path", required=True, type=click.Path(exists=True))
@common_options
@click.pass_context
def coding_check(ctx, group_path, coding_path, fmt, manifest_path):
    """CONSISTENT with the induced pattern, or INCONSISTENT with a witness."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    em.add_input(coding_path)
    group = _load_group(group_path)
    c = jsonio.coding_from_json(group, _load_json(coding_path))
    res = check_consistency(group, c)
    if isinstance(res, Consistent):
        pat = jsonio.pattern_to_json(group, res.pattern, c.alphabet)
        human = "CONSISTENT\n" + jsonio.dump(pat)
        sys.exit(em.emit(human, {"verdict": "consistent", "pattern": pat},
                         "consistent", EXIT_OK))
    u, v = res.witness
    human = f"INCONSISTENT witness ({group.format_word(u)}, {group.format_word(v)})"
    sys.exit(em.emit(human, {"verdict": "inconsistent",
                             "witness": [group.format_word(u), group.format_word(v)]},
                     "inconsistent", EXIT_NEGATIVE))


@main.command()
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--coding", "coding_path", required=True, type=click.Path(exists=True))
@click.option("--enumeration", "enum_path", required=True, type=click.Path(exists=True),
              help="JSON list of pattern codings")
@budget_option
@common_options
@click.pass_context
def completion(ctx, group_path, coding_path, enum_path, budget, fmt, manifest_path):
    """Membership in the decidable completion of an enumerated family."""
    em = _emitter(ctx, fmt, manifest_path)
    for p in (group_path, coding_path, enum_path):
        em.add_input(p)
    group = _load_group(group_path)
    c = jsonio.coding_from_json(group, _load_json(coding_path))
    enum = [jsonio.coding_from_json(group, o) for o in _load_json(enum_path)]
    budget = resolve_budget(budget, 10_000)
    try:
        verdict = decidable_completion_contains(group, enum, c, budget)
    except CompletionBudgetError as e:
        sys.exit(em.emit(f"undetermined: {e}", {"verdict": "undetermined"},
                         "undetermined", EXIT_UNDETERMINED))
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    sys.exit(em.emit(str(verdict).lower(), {"member": verdict}, str(verdict), code))


@main.group("subshift")
def subshift_group():
    """Windowed subshift semantics."""


def _load_subshift_and_pattern(spec_path, pattern_path):
    spec = jsonio.subshift_from_json(_load_json(spec_path))
    pat = jsonio.pattern_from_json(spec.group, _load_json(pattern_path), spec.alphabet)
    return spec, pat


@subshift_group.command("check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@common_options
@click.pass_context
def subshift_check(ctx, spec_path, pattern_path, fmt, manifest_path):
    """Local admissibility of a pattern."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(spec_path)
    em.add_input(pattern_path)
    spec, pat = _load_subshift_and_pattern(spec_path, pattern_path)
    verdict = locally_admissible(pat, spec)
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    sys.exit(em.emit("admissible" if verdict else "inadmissible",
                     {"admissible": verdict}, str(verdict), code))


@subshift_group.command("extend")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@click.option("--radius", required=True, type=int)
@budget_option
@common_options
@click.pass_context
def subshift_extend(ctx, spec_path, pattern_path, radius, budget, fmt, manifest_path):
    """Extendability of a pattern on the ball of the given radius."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(spec_path)
    em.add_input(pattern_path)
    spec, pat = _load_subshift_and_pattern(spec_path, pattern_path)
    budget = resolve_budget(budget, 500_000)
    try:
        verdict = extendable(pat, spec, radius, budget)
    except UndeterminedError as e:
        sys.exit(em.emit(f"undetermined: {e}",
                         {"verdict": "undetermined", "nodes": e.nodes},
                         "undetermined", EXIT_UNDETERMINED))
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    sys.exit(em.emit("yes" if verdict else "no", {"extendable": verdict},
                     str(verdict), code))


@main.group("delone")
def delone_group():
    """Separated-cover configurations."""


@delone_group.command("gen")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("-n", "--n", "n", required=True, type=int)
@click.option("--radius", required=True, type=int)
@click.option("--dot", "dot", is_flag=True, help="emit a DOT graph colored by symbol")
@common_options
@click.pass_context
def delone_gen(ctx, group_path, n, radius, dot, fmt, manifest_path):
    """Greedy separated configuration on a ball."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
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
        sys.exit(em.emit(text, {"dot": text}, "ok", EXIT_OK))
    payload = jsonio.pattern_to_json(group, pat, spec.alphabet)
    ones = sum(1 for _, v in pat.items() if v == 1)
    human = f"{len(pat)} cells, {ones} centers\n" + jsonio.dump(payload)
    sys.exit(em.emit(human, {"pattern": payload, "centers": ones}, "ok", EXIT_OK))


@main.group("machine")
def machine_group():
    """The group-walking machine VM."""


@machine_group.command("run")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@budget_option
@click.option("--trace", is_flag=True)
@common_options
@click.pass_context
def machine_run(ctx, group_path, machine_path, pattern_path, budget, trace,
                fmt, manifest_path):
    """Run the moving-head semantics until acceptance or budget."""
    em = _emitter(ctx, fmt, manifest_path)
    for p in (group_path, machine_path, pattern_path):
        em.add_input(p)
    group = _load_group(group_path)
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    pat = jsonio.pattern_from_json(group, _load_json(pattern_path),
                                   machine.tape_alphabet)
    budget = resolve_budget(budget, 10_000)
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
    accepted, steps = cfg.state in machine.accepting, cfg.steps
    human = "\n".join(lines + [f"accepted at {steps}" if accepted
                               else f"exhausted after {steps}"])
    payload = {"accepted": accepted, "steps": steps, "trace": lines}
    sys.exit(em.emit(human, payload, "accepted" if accepted else "exhausted",
                     EXIT_OK if accepted else EXIT_NEGATIVE))


@machine_group.command("path")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--steps", required=True, type=int)
@click.option("--dot", "dot", is_flag=True, help="emit the path as DOT")
@common_options
@click.pass_context
def machine_path(ctx, group_path, steps, dot, fmt, manifest_path):
    """Run the path builder and report (or draw) the marked path."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
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
        sys.exit(em.emit(text, {"dot": text, "length": len(cells)}, "ok", EXIT_OK))
    human = f"path length {len(cells)} after {steps} steps"
    sys.exit(em.emit(human, {"length": len(cells), "cells": cells}, "ok", EXIT_OK))


@machine_group.command("visit")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("-n", "--n", "target", required=True, type=int)
@budget_option
@common_options
@click.pass_context
def machine_visit(ctx, group_path, target, budget, fmt, manifest_path):
    """Run the ball visitor until it finishes the target radius."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    budget = resolve_budget(budget, 2_000_000)
    vm = VisitMachine(group)
    try:
        events = vm.run_until_n(target, budget)
    except UndeterminedError as e:
        sys.exit(em.emit(str(e), {"verdict": "undetermined"}, "undetermined",
                         EXIT_UNDETERMINED))
    visited = sorted({group.format_element(e.cell) for e in events
                      if e.kind == "visit" and e.n == target})
    human = (f"radius {target} visited {len(visited)} cells in {vm.ticks} ticks\n"
             + ", ".join(visited))
    sys.exit(em.emit(human, {"visited": visited, "ticks": vm.ticks}, "ok", EXIT_OK))


@machine_group.command("equiv")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--pattern", "pattern_path", required=True, type=click.Path(exists=True))
@click.option("--steps", type=click.IntRange(min=0), default=100, show_default=True)
@common_options
@click.pass_context
def machine_equiv(ctx, group_path, machine_path, pattern_path, steps, fmt,
                  manifest_path):
    """Check fixed-head/moving-head agreement step by step."""
    em = _emitter(ctx, fmt, manifest_path)
    for p in (group_path, machine_path, pattern_path):
        em.add_input(p)
    group = _load_group(group_path)
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    pat = jsonio.pattern_from_json(group, _load_json(pattern_path),
                                   machine.tape_alphabet)
    verdict = fixed_moving_equivalent(machine, pat, steps)
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    sys.exit(em.emit(str(verdict).lower(), {"equivalent": verdict},
                     str(verdict), code))


@machine_group.command("retarget")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--gamma", "gamma_path", required=True, type=click.Path(exists=True),
              help='JSON object {"generator display": "word", ...}')
@common_options
@click.pass_context
def machine_retarget(ctx, group_path, machine_path, gamma_path, fmt, manifest_path):
    """Replace each move generator by an equal word."""
    em = _emitter(ctx, fmt, manifest_path)
    for p in (group_path, machine_path, gamma_path):
        em.add_input(p)
    group = _load_group(group_path)
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    gamma_raw = _load_json(gamma_path)
    gamma = {group.parse_word(k)[0]: group.parse_word(v)
             for k, v in gamma_raw.items()}
    gamma.setdefault(0, ())
    out = retarget_generators(machine, gamma)
    payload = jsonio.machine_to_json(out)
    sys.exit(em.emit(jsonio.dump(payload), {"machine": payload}, "ok", EXIT_OK))


@machine_group.command("simulate-balls")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--coding", "coding_path", required=True, type=click.Path(exists=True))
@budget_option
@common_options
@click.pass_context
def machine_simulate_balls(ctx, group_path, machine_path, coding_path, budget,
                           fmt, manifest_path):
    """Oracle-side simulation: consistency first, then growing-ball runs."""
    em = _emitter(ctx, fmt, manifest_path)
    for p in (group_path, machine_path, coding_path):
        em.add_input(p)
    group = _load_group(group_path)
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    c = jsonio.coding_from_json(group, _load_json(coding_path))
    budget = resolve_budget(budget, 10_000)
    out = simulate_with_balls(machine, c, budget)
    payload = {"outcome": out.kind, "steps": out.steps}
    if out.witness:
        payload["witness"] = [group.format_word(w) for w in out.witness]
    code = {"accepted": EXIT_OK, "inconsistent": EXIT_OK,
            "exhausted": EXIT_UNDETERMINED}[out.kind]
    sys.exit(em.emit(out.kind, payload, out.kind, code))


@machine_group.command("oracle-sim")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--classical", required=True,
              help="accept-all | contains:WORD:SYMBOL | query:WORD")
@click.option("--alphabet", default="0,1", show_default=True)
@click.option("--pattern", "pattern_path", type=click.Path(exists=True), default=None)
@budget_option
@common_options
@click.pass_context
def machine_oracle_sim(ctx, group_path, classical, alphabet, pattern_path,
                       budget, fmt, manifest_path):
    """Run the six-layer simulator of a classical oracle machine."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    alpha = Alphabet(tuple(alphabet.split(",")))
    if classical == "accept-all":
        spec = classical_accept_all()
    elif classical.startswith("contains:"):
        _, word, symbol = classical.split(":", 2)
        spec = classical_contains_entry(group, group.parse_word(word), symbol,
                                        extra_symbols=alpha.symbols)
    elif classical.startswith("query:"):
        spec = classical_query_word(group, group.parse_word(classical[6:]))
    else:
        raise click.UsageError(f"unknown classical machine {classical!r}")
    pat = Pattern({})
    if pattern_path:
        em.add_input(pattern_path)
        pat = jsonio.pattern_from_json(group, _load_json(pattern_path), alpha)
    budget = resolve_budget(budget, 20_000)
    sim = build_oracle_simulator(group, spec, alpha)
    out = sim.run(pat, budget)
    accepted = isinstance(out, Accepted)
    payload = {"accepted": accepted, "steps": out.steps}
    sys.exit(em.emit("accepted" if accepted else "exhausted", payload,
                     "accepted" if accepted else "exhausted",
                     EXIT_OK if accepted else EXIT_UNDETERMINED))


@main.group("compile")
def compile_group():
    """The machine-to-constraint compilers."""


@compile_group.command("domino")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--a1", default="windowed:3", show_default=True,
              help="windowed:RADIUS or cover:FILE.json")
@click.option("--free-product", "fp_path", type=click.Path(exists=True), default=None,
              help="finite group JSON; wraps the instance, removing the origin")
@click.option("-o", "out_path", type=click.Path(), default=None)
@common_options
@click.pass_context
def compile_domino_cmd(ctx, group_path, machine_path, a1, fp_path, out_path,
                       fmt, manifest_path):
    """Emit the origin-constrained instance for a machine."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    em.add_input(machine_path)
    group = _load_group(group_path)
    machine = jsonio.machine_from_json(group, _load_json(machine_path))
    if a1.startswith("windowed:"):
        mode = WindowedA1(int(a1.split(":", 1)[1]))
    elif a1.startswith("cover:"):
        path = a1.split(":", 1)[1]
        em.add_input(path)
        raw = _load_json(path)
        mode = UserSftCover(
            tuple(raw["values"]),
            tuple((tuple((s["g"], s["dz"]) for s in c["support"]),
                   tuple(c["cells"]))
                  for c in raw["constraints"]))
    else:
        raise click.UsageError("--a1 must be windowed:RADIUS or cover:FILE")
    instance = compile_domino(group, machine, mode)
    if fp_path:
        em.add_input(fp_path)
        h = jsonio.group_from_json(_load_json(fp_path))
        instance = free_product_layer(h, instance)
    payload = jsonio.instance_to_json(instance)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(jsonio.dump(payload))
    human = (f"{len(instance.constraints)} constraints, tags {instance.tags()}"
             + (f"\nwritten to {out_path}" if out_path else ""))
    sys.exit(em.emit(human, {"instance": payload}, "ok", EXIT_OK))


@compile_group.command("simulate")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--machine", "machine_path", required=True, type=click.Path(exists=True))
@click.option("--abar", required=True)
@click.option("--alphabet", required=True, help="comma-separated pattern alphabet")
@click.option("--n-max", type=int, default=1, show_default=True)
@click.option("--u-radius", type=int, default=3, show_default=True)
@click.option("-o", "out_path", type=click.Path(), default=None)
@common_options
@click.pass_context
def compile_simulate_cmd(ctx, group_path, machine_path, abar, alphabet, n_max,
                         u_radius, out_path, fmt, manifest_path):
    """Emit the simulation bundle for a pattern-rejection machine."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    em.add_input(machine_path)
    group = _load_group(group_path)
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
    sys.exit(em.emit(human, payload, "ok", EXIT_OK))


@main.group("xtime")
def xtime_group():
    """The clock stream."""


def _params(schedule: str) -> XTimeParams:
    if schedule == "paper-example":
        return PAPER_EXAMPLE_PARAMS
    if schedule == "default":
        return XTimeParams()
    raise click.UsageError("--schedule must be default or paper-example")


@xtime_group.command("prefix")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("-n", "--n", "length", required=True, type=int)
@click.option("--schedule", default="default", show_default=True)
@common_options
@click.pass_context
def xtime_prefix_cmd(ctx, group_path, length, schedule, fmt, manifest_path):
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    toks = xtime_prefix(group, _params(schedule), length)
    sys.exit(em.emit(" ".join(toks), {"prefix": toks}, "ok", EXIT_OK))


@xtime_group.command("kpos")
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("-n", "--n", "n", required=True, type=int)
@click.option("--schedule", default="default", show_default=True)
@common_options
@click.pass_context
def xtime_kpos_cmd(ctx, group_path, n, schedule, fmt, manifest_path):
    """Position of the n-th block marker."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(group_path)
    group = _load_group(group_path)
    params = _params(schedule)
    pos = oplus_positions(group, params, n)
    sym = xtime_symbol(group, params, pos)
    sys.exit(em.emit(f"k_{n} = {pos} ({sym})", {"position": pos, "symbol": sym},
                     "ok", EXIT_OK))


@main.group("verify")
def verify_group():
    """Bounded evidence searches."""


@verify_group.command("window")
@click.option("--instance", "instance_path", required=True, type=click.Path(exists=True))
@click.option("--radius", required=True, type=int)
@click.option("--height", required=True, type=int)
@budget_option
@common_options
@click.pass_context
def verify_window_cmd(ctx, instance_path, radius, height, budget, fmt, manifest_path):
    """Search a window for an admissible origin-anchored assignment."""
    em = _emitter(ctx, fmt, manifest_path)
    em.add_input(instance_path)
    instance = jsonio.instance_from_json(_load_json(instance_path))
    budget = resolve_budget(budget, 10_000_000)
    out = verify_reduction_window(instance, radius, height, budget)
    if isinstance(out, Satisfiable):
        product = instance.product_group()
        witness = jsonio.pattern_to_json(
            product,
            Pattern({cell: instance.alphabet.format_symbol(sym)
                     for cell, sym in out.witness.items()}))
        sys.exit(em.emit("satisfiable", {"verdict": "satisfiable",
                                         "witness": witness},
                         "satisfiable", EXIT_OK))
    if isinstance(out, Unsatisfiable):
        sys.exit(em.emit("unsatisfiable", {"verdict": "unsatisfiable"},
                         "unsatisfiable", EXIT_NEGATIVE))
    sys.exit(em.emit(f"undetermined after {out.nodes} nodes",
                     {"verdict": "undetermined", "nodes": out.nodes},
                     "undetermined", EXIT_UNDETERMINED))


def run_main():
    try:
        main(standalone_mode=False)
    except click.UsageError as e:
        click.echo(f"usage error: {e}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as e:
        e.show()
        sys.exit(EXIT_USAGE)
    except GroupShiftError as e:
        click.echo(f"error: {e}", err=True)
        if isinstance(e, (UndeterminedError, CompletionBudgetError)):
            sys.exit(EXIT_UNDETERMINED)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    run_main()
