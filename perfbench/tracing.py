"""Spans and counts around the library's public functions, installed from
the benchmark's own files.

A span records (name, start, end, parent span, task id); spans live in
parallel arrays in memory and are written out once, at the end of a traced
run.  Self time is a span's duration minus the durations of its child spans
(children nest inside their parent and never overlap, as the workload runs
in one thread).  The hottest group operations get count-only wrappers, since
a span per call would cost more than the call.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import groupshift as gs
from groupshift import domino, families, jsonio, machines, pathwalk, subshifts


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self.stack: list[int] = []
        self.task_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "name": list(self.name),
                       "start": list(self.start), "end": list(self.end),
                       "parent": list(self.parent), "task": list(self.task)}, fh)


def self_times(tr: Tracer, first: int = 0, stop: int | None = None, scale=None):
    """(self ns, total ns, calls) per span name, over spans first..stop-1.

    `scale(t0, t1)`, with perf_counter seconds, weighs each span's times (the
    host's speed factor of `speed.SpeedLog`); without it they are raw.
    """
    stop = len(tr) if stop is None else stop
    child = [0] * (stop - first)
    for i in range(first, stop):
        p = tr.parent[i]
        if p >= first:
            child[p - first] += tr.end[i] - tr.start[i]
    own: Counter = Counter()
    total: Counter = Counter()
    calls: Counter = Counter()
    for i in range(first, stop):
        name = tr.names[tr.name[i]]
        dur = tr.end[i] - tr.start[i]
        w = scale(tr.start[i] / 1e9, tr.end[i] / 1e9) if scale else 1
        total[name] += dur * w
        own[name] += (dur - child[i - first]) * w
        calls[name] += 1
    return own, total, calls


# -- what gets wrapped ------------------------------------------------------------

def _add(key, measure):
    def after(tr, result, args):
        tr.counts[key] += measure(result, args)
    return after


# (span name, owner (module or classes), attribute, optional after-hook)
SPANS = (
    ("cayley.ball", gs.cayley, "ball",
     _add("cayley.ball_elements", lambda r, a: len(r))),
    ("cayley.translated_ball_cells", gs.cayley, "translated_ball_cells", None),
    ("cayley.disjoint_ball_sequences", gs.cayley, "disjoint_ball_sequences", None),
    ("patterns.sorted_items", (gs.Pattern,), "sorted_items", None),
    ("patterns.check_consistency", gs.patterns, "check_consistency", None),
    ("subshifts.extendable", subshifts, "extendable", None),
    ("subshifts.patterns_up_to",
     (subshifts.GeneratedFamily, subshifts.FiniteFamily, families.DeloneFamily),
     "patterns_up_to", _add("subshifts.forbidden_patterns", lambda r, a: len(r))),
    ("subshifts.locally_admissible", subshifts, "locally_admissible", None),
    ("families.greedy_delone", families, "greedy_delone_configuration", None),
    ("families.delone_violates", (families.DeloneFamily,), "violates", None),
    ("machines.fme", machines, "fixed_moving_equivalent",
     _add("machines.fme.steps", lambda r, a: a[2])),
    ("machines.run_accepts", machines, "run_accepts",
     _add("machines.run_accepts.steps", lambda r, a: r.steps)),
    ("pathwalk.path_run", (pathwalk.PathRun,), "run",
     _add("pathwalk.path_steps", lambda r, a: a[1])),
    ("pathwalk.visit_run", (pathwalk.VisitMachine,), "run_until_n",
     _add("pathwalk.visit_ticks", lambda r, a: a[0].ticks)),
    ("domino.compile", domino, "compile_domino",
     _add("domino.constraints", lambda r, a: len(r.constraints))),
    ("domino.verify", domino, "verify_reduction_window", None),
    ("simulation.xtime_symbol", gs.simulation, "xtime_symbol",
     _add("simulation.xtime_symbols", lambda r, a: 1)),
) + tuple(("jsonio.load", jsonio, loader, None) for loader in (
    "group_from_json", "subshift_from_json", "machine_from_json",
    "pattern_from_json", "coding_from_json", "instance_from_json"))

COUNTS = (
    ("groups.multiply", (gs.Group,), "multiply"),
    ("groups.multiply_letter", (gs.Group,), "multiply_letter"),
    ("machines.step_moving", machines, "step_moving"),
    ("domino.grounded_violations", domino, "grounded_violations"),
)


def _span_wrapper(tr: Tracer, nid: int, fn, after):
    def wrapped(*args, **kwargs):
        sid = tr.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.finish(sid)
        if after is not None:
            after(tr, result, args)
        return result
    wrapped.__wrapped__ = fn
    return wrapped


def _count_wrapper(counts: Counter, key: str, fn):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


def install(tr: Tracer):
    """Wrap every entry of SPANS and COUNTS; returns the undo function.

    A module-level function is replaced wherever a groupshift module (or the
    package) holds a reference to it, so calls between modules are seen too.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for name, m in sys.modules.items()
               if name == "groupshift" or name.startswith("groupshift.")]

    def patch(owner, attr, make):
        if isinstance(owner, tuple):
            for cls in owner:
                if attr in vars(cls):
                    undo.append((cls, attr, vars(cls)[attr]))
                    setattr(cls, attr, make(vars(cls)[attr]))
            return
        fn = getattr(owner, attr)
        wrapped = make(fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    undo.append((m, key, fn))
                    setattr(m, key, wrapped)

    for name, owner, attr, after in SPANS:
        nid = tr.name_id(name)
        patch(owner, attr, lambda fn, nid=nid, after=after:
              _span_wrapper(tr, nid, fn, after))
    for key, owner, attr in COUNTS:
        patch(owner, attr, lambda fn, key=key: _count_wrapper(tr.counts, key, fn))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall
