"""Per-layer metrics of the traced run.

Two sources: the spans and counts of `tracing` (set-up plus one traced round
of the workload's tasks), and batch timings of the group key algebra on
seeded letter streams.  Every name is reported on every workload; a layer
the workload never calls reads 0.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import groupshift as gs

import inputs as gen

GROUP_OPS = ("multiply_letter", "frame_prepend", "word_problem")
STREAM = 600          # letters per batch
WP_WORDS = 60         # identity words per word-problem batch
BATCHES = 3

CLI_COMMANDS = ("wp", "canon", "ball", "words", "coding_check",
                "subshift_extend", "subshift_check", "compile_domino",
                "verify_window", "machine_equiv", "machine_run", "machine_path",
                "machine_visit", "delone_gen", "sequences_disjoint",
                "sequences_component")

SELF_MS = ("cayley.ball", "cayley.translated_ball_cells",
           "cayley.disjoint_ball_sequences", "patterns.sorted_items",
           "patterns.check_consistency", "subshifts.extendable",
           "subshifts.patterns_up_to", "subshifts.locally_admissible",
           "families.greedy_delone", "families.delone_violates",
           "domino.compile", "domino.verify")
CALLS = ("groups.multiply", "groups.multiply_letter", "cayley.ball",
         "cayley.translated_ball_cells", "patterns.sorted_items",
         "subshifts.extendable", "machines.step_moving",
         "domino.grounded_violations")
AMOUNTS = ("cayley.ball_elements", "subshifts.forbidden_patterns",
           "domino.constraints")
# rate name -> (amount counted by a wrapper, span whose total time it took)
RATES = {"machines.fme.steps_per_s": ("machines.fme.steps", "machines.fme"),
         "machines.run_accepts.steps_per_s": ("machines.run_accepts.steps",
                                              "machines.run_accepts"),
         "pathwalk.path_steps_per_s": ("pathwalk.path_steps", "pathwalk.path_run"),
         "pathwalk.visit_ticks_per_s": ("pathwalk.visit_ticks", "pathwalk.visit_run"),
         "simulation.xtime_symbols_per_s": ("simulation.xtime_symbols",
                                            "simulation.xtime_symbol")}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"groups.{kind}.{op}_per_s", "1/s")
           for kind in gen.KINDS for op in GROUP_OPS]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [(f"{name}.self_ms", "ms") for name in SELF_MS]
    out += [(name, "count") for name in AMOUNTS]
    out += [(name, "1/s") for name in RATES]
    out += [("jsonio.load_ms", "ms")]
    out += [(f"cli.invoke_ms.{c}", "ms") for c in CLI_COMMANDS]
    out += [("trace.overhead_share", "share")]
    return out


def group_rates(seed: int, log) -> dict[str, float]:
    """Operations per second of each kind's key algebra, median of batches,
    each batch scaled by the host's speed around it (`speed.SpeedLog`)."""
    rng = random.Random(f"groups:{seed}")
    out = {}
    for kind in gen.KINDS:
        g = gen.make_group(kind)
        ids = g.nonidentity_ids
        stream = [rng.choice(ids) for _ in range(STREAM)]
        words = [gen.identity_word(rng, g, kind, 6) for _ in range(WP_WORDS)]

        def multiply_letter():
            e = g.identity
            for s in stream:
                e = g.multiply_letter(e, s)

        def frame_prepend():
            k = g.frame_identity()
            for s in stream:
                k = g.frame_prepend(s, k)

        def word_problem():
            if not all(gs.solve_word_problem(g, w) for w in words):
                raise RuntimeError(f"an identity word of {kind} was not decided")

        for op, fn, n in (("multiply_letter", multiply_letter, STREAM),
                          ("frame_prepend", frame_prepend, STREAM),
                          ("word_problem", word_problem, WP_WORDS)):
            times = []
            for _ in range(BATCHES):
                log.sample()
                t0 = perf_counter()
                fn()
                t1 = perf_counter()
                log.sample()
                times.append(log.scaled(t0, t1))
            out[f"groups.{kind}.{op}_per_s"] = n / statistics.median(times)
    return out


def from_trace(own: dict, total: dict, calls: dict, counts: dict) -> dict[str, float]:
    """Per-layer values from self/total ns and calls per span name, and the
    counts of the count-only wrappers and after-hooks."""
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = counts.get(name, 0) + calls.get(name, 0)
    for name in SELF_MS:
        out[f"{name}.self_ms"] = own.get(name, 0) / 1e6
    for name in AMOUNTS:
        out[name] = counts.get(name, 0)
    for rate, (amount, span) in RATES.items():
        ns = total.get(span, 0)
        out[rate] = counts.get(amount, 0) / (ns / 1e9) if ns else 0
    return out
