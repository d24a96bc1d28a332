"""The command-line phase: README-style commands run as subprocesses.

Each workload has its own command list, built from its seeded inputs.  The
JSON inputs are written to a temporary directory inside the checkout; every
command runs as `python -m groupshift.cli ... --format json`, one at a time,
and its exit code and payload are checked.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import groupshift as gs
from groupshift import jsonio

import inputs as gen
import oracles

MIRROR_LABELS = ("white", "black", "red")


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[int, dict], bool]


def _fmt(kind: str, word) -> str:
    return gen.make_group(kind).format_word(word)


def _z_exponent(text: str) -> int:
    """'e', 'a', 'a^-1', 'a^3', 'a^-3' -> the exponent."""
    if text == "e":
        return 0
    _, _, power = text.partition("^")
    return int(power) if power else 1


def _z2_format(x: int, y: int) -> str:
    parts = []
    for name, e in (("x", x), ("y", y)):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "e"


def _machine_json(rows, n_states: int, kind: str) -> dict:
    group = gen.make_group(kind)
    states = [f"q{i}" for i in range(n_states)]
    return {"states": states, "accepting": [states[-1]],
            "alphabet": list(gen.SIGMA), "blank": gen.SIGMA[0],
            "delta": [{"read": gen.SIGMA[s], "state": states[q],
                       "write": gen.SIGMA[w], "next": states[r],
                       "move": group.generators[m].display if m else ""}
                      for s, q, w, r, m in rows]}


def commands(workload: str, data: dict, seed: int, tmp: Path):
    """(commands, loads): the workload's command list, and one parse through
    jsonio per JSON input it wrote (for the traced `jsonio.load_ms`)."""
    rng = random.Random(f"cli:{workload}:{seed}")
    loads: list[Callable[[], object]] = []

    def put(name: str, obj, load=None) -> str:
        path = tmp / name
        path.write_text(json.dumps(obj))
        if load is not None:
            loads.append(lambda: load(obj))
        return str(path)

    def on(kind: str, parse):
        """A loader that parses against a fresh group of the given kind."""
        return lambda obj: parse(jsonio.group_from_json(gen.group_json(kind)), obj)

    def verdict(key, expect):
        return lambda code, out: code == (0 if expect else 1) and out[key] is expect

    if workload == "search":
        # a positive one-or-less pattern and a criterion-12 window keep the
        # commands' cost the same on every seed
        ool = next(i for i in data["one_or_less"] if i["kind"] == "z2" and i["expect"])
        mir = next(i for i in data["mirror"] if i["radius"] == 2)
        dom = data["domino"][1]
        z = gen.make_group("z")
        m = gs.GMachineSpec(z, ("q0", "q1"), frozenset({1}), gs.Alphabet(gen.SIGMA), 0,
                            {(s, q): (w, r, mv) for s, q, w, r, mv in dom["delta"]})
        inst = put("instance.json", jsonio.instance_to_json(
            gs.compile_domino(z, m, gs.WindowedA1(dom["a1"]))), jsonio.instance_from_json)
        ool_spec = put("ool.json", {"alphabet": ["0", "1", "2"], "group": gen.group_json("z2"),
                                    "forbidden": {"kind": "builtin", "name": "one_or_less", "k": 2}},
                       jsonio.subshift_from_json)
        mir_spec = put("mirror.json", {"alphabet": list(MIRROR_LABELS),
                                       "group": gen.group_json("z2"),
                                       "forbidden": {"kind": "builtin", "name": "mirror"}},
                       jsonio.subshift_from_json)
        ool_pat = put("ool_pattern.json", {"support": [
            [_fmt("z2", w), str(v)] for w, v in ool["cells"]]},
            on("z2", lambda g, o: jsonio.pattern_from_json(g, o, gs.Alphabet(("0", "1", "2")))))
        mir_pat = put("mirror_pattern.json", {"support": [
            [_fmt("z2", gen.z2_word(x, y)), MIRROR_LABELS[v]] for x, y, v in mir["cells"]]},
            on("z2", lambda g, o: jsonio.pattern_from_json(g, o, gs.Alphabet(MIRROR_LABELS))))
        seeded = data["domino"][-1]
        machine = put("machine.json", _machine_json(seeded["delta"], 2, "z"),
                      on("z", jsonio.machine_from_json))
        group = put("z.json", gen.group_json("z"), jsonio.group_from_json)
        n_cons = 6 + 12 + 12 + 3 + 2 * seeded["a1"] + 2 + 2   # A2 B1 B2 A4 A1 X_aux star
        return loads, [
            Command("subshift_extend", ["subshift", "extend", "--spec", ool_spec,
                                        "--pattern", ool_pat, "--radius", "3"],
                    verdict("extendable", ool["expect"])),
            Command("subshift_check", ["subshift", "check", "--spec", mir_spec,
                                       "--pattern", mir_pat],
                    verdict("admissible", mir["expect"])),
            Command("compile_domino", ["compile", "domino", "--group", group, "--machine",
                                       machine, "--a1", f"windowed:{seeded['a1']}"],
                    lambda code, out: code == 0
                    and len(out["instance"]["forbidden"]) == n_cons),
            Command("verify_window", ["verify", "window", "--instance", inst,
                                      "--radius", str(dom["radius"]),
                                      "--height", str(dom["height"])],
                    lambda code, out, e=dom["expect"]: code == (0 if e else 1)
                    and out["verdict"] == ("satisfiable" if e else "unsatisfiable")),
        ]
    if workload == "walk":
        mach = next(i for i in data["machines"] if i["kind"] == "z2")
        machine = put("machine.json", _machine_json(mach["delta"], 3, "z2"),
                      on("z2", jsonio.machine_from_json))
        pattern = put("pattern.json", {"support": [
            [_fmt("z2", w), gen.SIGMA[s]] for w, s in mach["pattern"]]},
            on("z2", lambda g, o: jsonio.pattern_from_json(g, o, gs.Alphabet(gen.SIGMA))))
        ones = rng.randrange(2, 7)
        right = put("move_right.json", {
            "states": ["walk", "acc"], "accepting": ["acc"], "alphabet": ["_", "1"],
            "blank": "_", "delta": [
                {"read": "1", "state": "walk", "write": "1", "next": "walk", "move": "a"},
                {"read": "_", "state": "walk", "write": "_", "next": "acc", "move": ""},
                {"read": "_", "state": "acc", "write": "_", "next": "acc", "move": ""},
                {"read": "1", "state": "acc", "write": "1", "next": "acc", "move": ""}]},
            on("z", jsonio.machine_from_json))
        row = put("row.json", {"support": [[" ".join(["a"] * i), "1"] for i in range(ones)]},
                  on("z", lambda g, o: jsonio.pattern_from_json(g, o, gs.Alphabet(("_", "1")))))
        z, z2, f2 = (put(f"{k}.json", gen.group_json(k), jsonio.group_from_json)
                     for k in ("z", "z2", "f2"))
        steps = rng.randrange(300, 600)
        return loads, [
            Command("machine_equiv", ["machine", "equiv", "--group", z2, "--machine", machine,
                                      "--pattern", pattern, "--steps", str(mach["steps"])],
                    verdict("equivalent", True)),
            Command("machine_run", ["machine", "run", "--group", z, "--machine", right,
                                    "--pattern", row],
                    lambda code, out: code == 0 and out["accepted"] is True
                    and out["steps"] == ones + 1),
            Command("machine_path", ["machine", "path", "--group", f2, "--steps", str(steps)],
                    lambda code, out: code == 0 and out["length"] == len(out["cells"]) >= 2
                    and out["cells"][0] == "e"),
            Command("machine_visit", ["machine", "visit", "--group", z2, "-n", "2"],
                    lambda code, out: code == 0 and "e" in out["visited"]
                    and len(out["visited"]) >= oracles.ball_size("z2", 2)),
        ]
    if workload == "cover":
        comp = next(i for i in data["component"] if i["kind"] == "z")
        z, f2 = (put(f"{k}.json", gen.group_json(k), jsonio.group_from_json)
                 for k in ("z", "f2"))
        radius, n_ball = rng.randrange(8, 13), rng.randrange(2, 5)
        sign = 1 if comp["seed"][0] == 1 else -1

        def disjoint(code, out):
            spans = [(0, 0)]
            for k, (g, h) in enumerate(zip(out["g"], out["h"])):
                for c in (_z_exponent(g), _z_exponent(h)):
                    spans.append((c - k, c + k))
            spans.sort()
            return code == 0 and len(spans) == 5 and all(
                a[1] < b[0] for a, b in zip(spans, spans[1:]))

        def component(code, out):
            ks = [_z_exponent(e) for e in out["elements"]]
            return (code == 0 and len(set(ks)) == len(ks) == comp["count"] + 1
                    and all(k * sign > comp["cut"] for k in ks))

        return loads, [
            Command("delone_gen", ["delone", "gen", "--group", z, "-n", "1",
                                   "--radius", str(radius)],
                    lambda code, out: code == 0 and out["centers"] == 2 * (radius // 4) + 1),
            Command("sequences_disjoint", ["sequences", "disjoint", "--group", z, "-n", "1"],
                    disjoint),
            Command("sequences_component", ["sequences", "component", "--group", z,
                                            "-N", str(comp["cut"]), "--seed",
                                            _fmt("z", comp["seed"]), "-n", str(comp["count"])],
                    component),
            Command("ball", ["ball", "--group", f2, "-n", str(n_ball)],
                    lambda code, out: code == 0 and out["size"] == oracles.ball_size("f2", n_ball)),
        ]
    # words
    f2_task = next(t for t in data["tasks"] if t["kind"] == "f2")
    bs_task = next(t for t in data["tasks"] if t["kind"] == "bs")
    f2, z2, z, bs = (put(f"{k}.json", gen.group_json(k), jsonio.group_from_json)
                      for k in ("f2", "z2", "z", "bs"))
    x, y = rng.randrange(-5, 6), rng.randrange(-5, 6)
    shuffled = gen.z2_word(x, y) + [1, 2, 3, 4]
    rng.shuffle(shuffled)
    n_ball, max_len = rng.randrange(3, 9), rng.randrange(2, 6)
    coding = put("coding.json", {"alphabet": ["0", "1"], "entries": [
        [_fmt("bs", w), str(s)] for w, s in bs_task["coding"]]},
        on("bs", jsonio.coding_from_json))
    return loads, [
        Command("wp", ["wp", "--group", f2, "--word", _fmt("f2", f2_task["identities"][0])],
                verdict("identity", True)),
        Command("canon", ["canon", "--group", z2, "--word", _fmt("z2", shuffled)],
                lambda code, out: code == 0 and out["canonical"] == _z2_format(x, y)),
        Command("ball", ["ball", "--group", z2, "-n", str(n_ball)],
                lambda code, out: code == 0 and out["size"] == oracles.ball_size("z2", n_ball)),
        Command("words", ["words", "--group", z, "--max-len", str(max_len)],
                lambda code, out: code == 0 and len(out["words"]) == 2 ** (max_len + 1) - 1),
        Command("coding_check", ["coding", "check", "--group", bs, "--coding", coding],
                lambda code, out: code == 0 and out["verdict"] == "consistent"
                and len(out["pattern"]["support"]) == bs_task["distinct"]),
    ]


def run(cmd: Command, src: Path) -> tuple[bool, float, float]:
    """Run one command to completion; (checks passed, start, end)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "groupshift.cli", *cmd.argv,
                           "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    t1 = perf_counter()
    try:
        ok = bool(cmd.check(proc.returncode, json.loads(proc.stdout)))
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    return ok, t0, t1
