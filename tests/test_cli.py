"""End-to-end CLI coverage over the JSON interfaces."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from groupshift import cayley, groups, jsonio
from groupshift.cli import main, run_main

from .conftest import Z_A_A2_RULES
from .test_domino import REPEATED_COMPONENTS

README = Path(__file__).resolve().parent.parent / "README.md"

Z_GROUP = {"kind": "free_abelian", "rank": 1, "names": ["a"]}
F2_GROUP = {"kind": "free", "rank": 2}
BS_GROUP = {"kind": "bs", "n": 2}
C2_C3_GROUP = {"kind": "free_product", "factors": [
    {"kind": "finite", "table": [[(i + j) % m for j in range(m)] for i in range(m)]}
    for m in (2, 3)]}
Z_A_A2_GROUP = {"kind": "rewriting", "generators": ["A", "A^-1", "a", "a^-1"],
                "rules": [list(rule) for rule in Z_A_A2_RULES]}

CONSISTENT_CODING = {
    "alphabet": ["0", "1"],
    "entries": [["", "0"], ["b", "1"], ["a", "1"],
                ["a b", "0"], ["b a a", "0"], ["b a", "1"]],
}
INCONSISTENT_CODING = {
    "alphabet": ["0", "1"],
    "entries": [["", "0"], ["a a", "1"], ["b a b^-1 a", "1"],
                ["a", "1"], ["b a", "1"], ["a b a b^-1", "0"]],
}

MOVE_RIGHT = {
    "states": ["walk", "acc"], "accepting": ["acc"],
    "alphabet": ["_", "1"], "blank": "_",
    "delta": [
        {"read": "1", "state": "walk", "write": "1", "next": "walk", "move": "a"},
        {"read": "_", "state": "walk", "write": "_", "next": "acc", "move": ""},
        {"read": "_", "state": "acc", "write": "_", "next": "acc", "move": ""},
        {"read": "1", "state": "acc", "write": "1", "next": "acc", "move": ""},
    ],
}


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_wp(runner, tmp_path):
    g = write(tmp_path, "g.json", F2_GROUP)
    res = runner.invoke(main, ["wp", "--group", g, "--word", "a a^-1"],
                        standalone_mode=False)
    assert res.exit_code == 0 and "true" in res.output
    res = runner.invoke(main, ["wp", "--group", g, "--word", "a b"],
                        standalone_mode=False)
    assert res.exit_code == 1


def test_canon_json_mode(runner, tmp_path):
    g = write(tmp_path, "g.json", BS_GROUP)
    res = runner.invoke(main, ["canon", "--group", g, "--word", "a b",
                               "--format", "json"], standalone_mode=False)
    payload = json.loads(res.output)
    assert payload["canonical"] == "b a^2"
    assert "manifest" in payload and payload["manifest"]["inputs"]


def test_ball_and_dot(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    res = runner.invoke(main, ["ball", "--group", g, "-n", "2"],
                        standalone_mode=False)
    assert "|B_2| = 5" in res.output
    res = runner.invoke(main, ["ball", "--group", g, "-n", "1", "--dot"],
                        standalone_mode=False)
    assert "graph cayley_ball" in res.output


C3_GROUP = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}


@pytest.mark.parametrize("group,argv,dot", [
    # every element of C3 is a generator, so B_1 holds the edge t1 -- t2
    # and the reverse of each edge, which is drawn once
    (C3_GROUP, ["ball", "-n", "1"],
     'graph cayley_ball {\n  "e";\n  "t1";\n  "t2";\n  "e" -- "t1" [label="t1"];\n'
     '  "e" -- "t2" [label="t2"];\n  "t1" -- "t2" [label="t1"];\n}\n'),
    (Z_GROUP, ["delone", "gen", "-n", "1", "--radius", "4"],
     'graph delone {\n  node [style=filled];\n  "e" [fillcolor=black];\n'
     '  "a" [fillcolor=green];\n  "a^-1" [fillcolor=green];\n  "a^2" [fillcolor=white];\n'
     '  "a^-2" [fillcolor=white];\n  "a^3" [fillcolor=green];\n  "a^-3" [fillcolor=green];\n'
     '  "a^4" [fillcolor=black];\n  "a^-4" [fillcolor=black];\n  "e" -- "a";\n'
     '  "e" -- "a^-1";\n  "a" -- "a^2";\n  "a^-1" -- "a^-2";\n  "a^2" -- "a^3";\n'
     '  "a^-2" -- "a^-3";\n  "a^3" -- "a^4";\n  "a^-3" -- "a^-4";\n}\n'),
], ids=["ball-c3", "delone-gen-z"])
def test_dot_output_is_pinned(runner, tmp_path, group, argv, dot):
    g = write(tmp_path, "g.json", group)
    res = runner.invoke(main, argv + ["--group", g, "--dot"], standalone_mode=False)
    assert res.exit_code == 0 and res.output == dot


def test_words_and_sequences(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    res = runner.invoke(main, ["words", "--group", g, "--max-len", "1"],
                        standalone_mode=False)
    assert res.output.splitlines() == ["(eps)", "a", "a^-1"]
    res = runner.invoke(main, ["sequences", "disjoint", "--group", g, "-n", "0"],
                        standalone_mode=False)
    assert "g: a" in res.output and "h: a^-1" in res.output
    res = runner.invoke(main, ["sequences", "component", "--group", g,
                               "-N", "1", "--seed", "a a", "-n", "2"],
                        standalone_mode=False)
    assert "a^2, a^3, a^4" in res.output


def test_coding_check_exit_codes(runner, tmp_path):
    g = write(tmp_path, "g.json", BS_GROUP)
    good = write(tmp_path, "good.json", CONSISTENT_CODING)
    bad = write(tmp_path, "bad.json", INCONSISTENT_CODING)
    res = runner.invoke(main, ["coding", "check", "--group", g, "--coding", good],
                        standalone_mode=False)
    assert res.exit_code == 0 and "CONSISTENT" in res.output
    res = runner.invoke(main, ["coding", "check", "--group", g, "--coding", bad],
                        standalone_mode=False)
    assert res.exit_code == 1 and "INCONSISTENT" in res.output
    assert "a b a b^-1" in res.output and "b a b^-1 a" in res.output


def test_completion(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    enum = write(tmp_path, "enum.json",
                 [{"alphabet": ["0", "1"], "entries": [["a", "1"]]}])
    query = write(tmp_path, "q.json",
                  {"alphabet": ["0", "1"],
                   "entries": [["", "0"], ["a", "1"], ["a^-1", "0"]]})
    res = runner.invoke(main, ["completion", "--group", g, "--coding", query,
                               "--enumeration", enum], standalone_mode=False)
    assert res.exit_code == 0 and "true" in res.output


def test_subshift_check_and_extend(runner, tmp_path):
    spec = write(tmp_path, "spec.json", {
        "alphabet": ["0", "1"],
        "group": {"kind": "free_abelian", "rank": 2},
        "forbidden": {"kind": "builtin", "name": "one_or_less", "k": 1},
    })
    two = write(tmp_path, "two.json",
                {"support": [["", "1"], ["x", "1"]]})
    one = write(tmp_path, "one.json", {"support": [["", "1"]]})
    res = runner.invoke(main, ["subshift", "check", "--spec", spec,
                               "--pattern", two], standalone_mode=False)
    assert res.exit_code == 1 and "inadmissible" in res.output
    # two words for one element with one symbol are accepted
    same = write(tmp_path, "same.json",
                 {"support": [["x", "1"], ["x y y^-1", "1"], ["", "0"]]})
    res = runner.invoke(main, ["subshift", "check", "--spec", spec,
                               "--pattern", same], standalone_mode=False)
    assert res.exit_code == 0 and "admissible" in res.output
    res = runner.invoke(main, ["subshift", "extend", "--spec", spec,
                               "--pattern", one, "--radius", "2"],
                        standalone_mode=False)
    assert res.exit_code == 0 and "yes" in res.output


def test_subshift_check_amenable_witness_on_bs12(runner, tmp_path):
    """A Y2 mismatch whose cells lie in B_3 of BS(1,2), one of them with a
    five-letter normal form, is inadmissible."""
    spec = write(tmp_path, "spec.json", {
        "alphabet": ["0", "1", "2"], "group": BS_GROUP,
        "forbidden": {"kind": "builtin", "name": "amenable_witness", "n_max": 1}})
    p = write(tmp_path, "p.json",
              {"support": [["", "2"], ["b a a", "0"], ["a a a a b^-1", "1"]]})
    res = runner.invoke(main, ["subshift", "check", "--spec", spec, "--pattern", p,
                               "--format", "json"], standalone_mode=False)
    assert res.exit_code == 1 and json.loads(res.output)["admissible"] is False


@pytest.mark.parametrize("group,forbidden,alphabet,support", [
    ({"kind": "free_abelian", "rank": 2}, {"name": "mirror"}, ["white", "black", "red"],
     [["", "white"], ["y", "red"]]),
    (Z_GROUP, {"name": "delone", "n": 1}, ["0", "1", "2"], [["", "1"], ["a", "0"]]),
], ids=["mirror", "delone"])
def test_subshift_check_builtin_spec_json(runner, tmp_path, group, forbidden, alphabet,
                                          support):
    """A red cell above a white one breaks the mirror shift's columns, and a
    1 next to a 0 breaks the Delone halo: both examples are inadmissible."""
    spec = write(tmp_path, "spec.json", {"alphabet": alphabet, "group": group,
                                         "forbidden": {"kind": "builtin", **forbidden}})
    p = write(tmp_path, "p.json", {"support": support})
    res = runner.invoke(main, ["subshift", "check", "--spec", spec, "--pattern", p,
                               "--format", "json"], standalone_mode=False)
    assert res.exit_code == 1 and json.loads(res.output)["admissible"] is False


def test_delone_gen(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    res = runner.invoke(main, ["delone", "gen", "--group", g, "-n", "1",
                               "--radius", "8", "--format", "json"],
                        standalone_mode=False)
    payload = json.loads(res.output)
    assert payload["centers"] == 5


def test_machine_run_and_trace(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    p = write(tmp_path, "p.json",
              {"support": [["", "1"], ["a", "1"], ["a^2", "1"]]})
    res = runner.invoke(main, ["machine", "run", "--group", g, "--machine", m,
                               "--pattern", p, "--trace"], standalone_mode=False)
    assert res.exit_code == 0 and "accepted at 4" in res.output
    lines = res.output.splitlines()
    assert lines[:5] == [
        "step 0 state walk head e",
        "step 1 state walk head a wrote 1 at e",
        "step 2 state walk head a^2 wrote 1 at a",
        "step 3 state walk head a^3 wrote 1 at a^2",
        "step 4 state acc head a^3 wrote _ at a^3",
    ]


@pytest.mark.parametrize("trace", [False, True])
def test_machine_run_steps_once(runner, tmp_path, monkeypatch, trace):
    """The verdict and the trace come from one run of the machine."""
    from groupshift import machines
    calls = []
    step = machines.step_moving
    monkeypatch.setattr(machines, "step_moving",
                        lambda spec, cfg: calls.append(1) or step(spec, cfg))
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    p = write(tmp_path, "p.json",
              {"support": [["", "1"], ["a", "1"], ["a^2", "1"]]})
    res = runner.invoke(main, ["machine", "run", "--group", g, "--machine", m,
                               "--pattern", p, "--format", "json"]
                        + ["--trace"] * trace, standalone_mode=False)
    payload = json.loads(res.output)
    assert res.exit_code == 0 and payload["accepted"] and payload["steps"] == 4
    assert len(payload["trace"]) == (5 if trace else 0)
    assert len(calls) == 4


def test_machine_path_dot_is_simple(runner, tmp_path):
    g = write(tmp_path, "g.json", F2_GROUP)
    res = runner.invoke(main, ["machine", "path", "--group", g,
                               "--steps", "500", "--dot"], standalone_mode=False)
    assert res.exit_code == 0
    edges = [l for l in res.output.splitlines() if "->" in l]
    # a simple path: every target appears exactly once
    targets = [l.split("->")[1] for l in edges]
    assert len(targets) == len(set(targets)) > 0


def test_machine_path_human_output(runner, tmp_path):
    g = write(tmp_path, "g.json", F2_GROUP)
    argv = ["machine", "path", "--group", g, "--steps", "40"]
    res = runner.invoke(main, argv, standalone_mode=False)
    cells = json.loads(runner.invoke(main, argv + ["--format", "json"],
                                     standalone_mode=False).output)["cells"]
    assert res.exit_code == 0 and len(cells) > 1
    assert res.output == f"path length {len(cells)} after 40 steps\n"


def test_machine_visit(runner, tmp_path):
    g = write(tmp_path, "g.json", F2_GROUP)
    res = runner.invoke(main, ["machine", "visit", "--group", g, "-n", "1",
                               "--format", "json"], standalone_mode=False)
    payload = json.loads(res.output)
    assert len(payload["visited"]) == 5


def test_machine_equiv(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    p = write(tmp_path, "p.json", {"support": [["", "1"]]})
    res = runner.invoke(main, ["machine", "equiv", "--group", g, "--machine", m,
                               "--pattern", p, "--steps", "50"],
                        standalone_mode=False)
    assert res.exit_code == 0 and "true" in res.output


def test_machine_equiv_negative_steps_is_usage_error(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    p = write(tmp_path, "p.json", {"support": [["", "1"]]})
    res = runner.invoke(main, ["machine", "equiv", "--group", g, "--machine", m,
                               "--pattern", p, "--steps", "-1"])
    assert res.exit_code == 2 and "none" not in res.output


def test_machine_retarget(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    gamma = write(tmp_path, "gamma.json", {"a": "a", "a^-1": "a^-1"})
    res = runner.invoke(main, ["machine", "retarget", "--group", g,
                               "--machine", m, "--gamma", gamma,
                               "--format", "json"], standalone_mode=False)
    payload = json.loads(res.output)
    assert len(payload["machine"]["states"]) > len(MOVE_RIGHT["states"])


def test_machine_simulate_balls(runner, tmp_path):
    g = write(tmp_path, "g.json", BS_GROUP)
    m = write(tmp_path, "m.json", {
        "states": ["q"], "accepting": [], "alphabet": ["_", "0", "1"],
        "blank": "_",
        "delta": [{"read": s, "state": "q", "write": s, "next": "q", "move": ""}
                  for s in ["_", "0", "1"]],
    })
    bad = write(tmp_path, "bad.json",
                {"alphabet": ["0", "1"],
                 "entries": [[w, s] for w, s in
                             [["", "0"], ["a a", "1"], ["b a b^-1 a", "1"],
                              ["a", "1"], ["b a", "1"], ["a b a b^-1", "0"]]]})
    res = runner.invoke(main, ["machine", "simulate-balls", "--group", g,
                               "--machine", m, "--coding", bad],
                        standalone_mode=False)
    assert res.exit_code == 0 and "inconsistent" in res.output


def test_machine_simulate_balls_budget_exits_3(runner, tmp_path):
    """A machine that never accepts, on a consistent coding, runs out of
    its step budget: undetermined, with no node count."""
    g = write(tmp_path, "g.json", BS_GROUP)
    m = write(tmp_path, "m.json", {
        "states": ["q"], "accepting": [], "alphabet": ["_", "0", "1"], "blank": "_",
        "delta": [{"read": s, "state": "q", "write": s, "next": "q", "move": ""}
                  for s in ["_", "0", "1"]],
    })
    c = write(tmp_path, "c.json", CONSISTENT_CODING)
    res = runner.invoke(main, ["machine", "simulate-balls", "--group", g, "--machine", m,
                               "--coding", c, "--budget", "50", "--format", "json"],
                        standalone_mode=False)
    _assert_undetermined(res)


def test_machine_oracle_sim(runner, tmp_path):
    g = write(tmp_path, "g.json", {"kind": "free_abelian", "rank": 2})
    p = write(tmp_path, "p.json", {"support": [["x", "1"]]})
    res = runner.invoke(main, ["machine", "oracle-sim", "--group", g,
                               "--classical", "contains:x:1",
                               "--pattern", p, "--budget", "5000"],
                        standalone_mode=False)
    assert res.exit_code == 0 and "accepted" in res.output


@pytest.mark.parametrize("classical,accepts", [
    ("accept-all", True), ("query:a a^-1", True), ("query:a b", False)])
def test_machine_oracle_sim_builtin_machines(runner, tmp_path, classical, accepts):
    # the query machine accepts exactly when the oracle says its word is e
    g = write(tmp_path, "g.json", F2_GROUP)
    res = runner.invoke(main, ["machine", "oracle-sim", "--group", g, "--classical",
                               classical, "--budget", "300", "--format", "json"],
                        standalone_mode=False)
    payload = json.loads(res.output)
    if accepts:
        assert res.exit_code == 0 and payload["accepted"] is True
    else:
        assert res.exit_code == 3 and payload["verdict"] == "undetermined"


def test_compile_and_verify_window(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    out = str(tmp_path / "inst.json")
    res = runner.invoke(main, ["compile", "domino", "--group", g,
                               "--machine", m, "--a1", "windowed:6",
                               "-o", out], standalone_mode=False)
    assert res.exit_code == 0
    res = runner.invoke(main, ["verify", "window", "--instance", out,
                               "--radius", "3", "--height", "4"],
                        standalone_mode=False)
    assert res.exit_code == 1 and "unsatisfiable" in res.output


def test_compile_and_verify_window_with_a_comma_label(runner, tmp_path):
    # a walker that moves right forever on a tape whose blank is "a,b": the
    # instance's origin reads back as one label per component
    walker = {"states": ["walk", "acc"], "accepting": ["acc"], "alphabet": ["a,b", "1"],
              "blank": "a,b",
              "delta": [{"read": r, "state": q, "write": r, "next": q,
                         "move": "a" if q == "walk" else ""}
                        for r in ("a,b", "1") for q in ("walk", "acc")]}
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", walker)
    out = str(tmp_path / "inst.json")
    res = runner.invoke(main, ["compile", "domino", "--group", g, "--machine", m,
                               "--a1", "windowed:2", "-o", out], standalone_mode=False)
    assert res.exit_code == 0
    assert json.loads(Path(out).read_text())["origin_symbol"] == ["a,b", "1", "*"]
    res = runner.invoke(main, ["verify", "window", "--instance", out, "--radius", "2",
                               "--height", "2", "--format", "json"], standalone_mode=False)
    assert res.exit_code == 0 and json.loads(res.output)["verdict"] == "satisfiable"


@pytest.mark.parametrize("origin", [["_", "1"], ["_", "1", "*", "0"], ["_", "1", "x"],
                                    "(_,1,*)"],
                         ids=["too-few-labels", "too-many-labels", "unknown-label", "string"])
def test_malformed_origin_exits_2(runner, tmp_path, monkeypatch, capsys, origin):
    inst = _verify_instance(runner, tmp_path)
    blob = json.loads(Path(inst).read_text())
    blob["origin_symbol"] = origin
    bad = write(tmp_path, "bad.json", blob)
    monkeypatch.setattr(sys, "argv", ["groupshift", "verify", "window", "--instance", bad,
                                      "--radius", "1", "--height", "1"])
    with pytest.raises(SystemExit) as exited:
        run_main()
    out = capsys.readouterr()
    assert exited.value.code == 2
    assert "Traceback" not in out.out + out.err and out.err.startswith("error: ")


def _run_main_exit(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["groupshift"] + argv)
    with pytest.raises(SystemExit) as exited:
        run_main()
    return exited.value.code, capsys.readouterr()


@pytest.mark.parametrize("name", sorted(REPEATED_COMPONENTS))
def test_repeated_component_names_exit_2(tmp_path, monkeypatch, capsys, name):
    components, origin = REPEATED_COMPONENTS[name]
    inst = write(tmp_path, "inst.json", {"group": Z_GROUP, "alphabet": components,
                                         "forbidden": [], "origin_symbol": origin})
    code, out = _run_main_exit(monkeypatch, capsys, [
        "verify", "window", "--instance", inst, "--radius", "1", "--height", "1"])
    assert code == 2 and out.err.startswith("error: component names repeat")


def test_free_product_instance_is_not_window_verifiable(runner, tmp_path, monkeypatch,
                                                         capsys):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    c2 = write(tmp_path, "c2.json", {"kind": "finite", "table": [[0, 1], [1, 0]]})
    out = str(tmp_path / "inst.json")
    res = runner.invoke(main, ["compile", "domino", "--group", g, "--machine", m,
                               "--a1", "windowed:2", "--free-product", c2, "-o", out],
                        standalone_mode=False)
    assert res.exit_code == 0 and "Y_aux" in res.output
    blob = json.loads(Path(out).read_text())
    assert blob["origin_symbol"] is None and "free_product_factor" in blob
    code, printed = _run_main_exit(monkeypatch, capsys, [
        "verify", "window", "--instance", out, "--radius", "1", "--height", "1"])
    assert code == 2
    assert printed.err == "error: free-product instances are not window-verifiable\n"


def test_compile_simulate(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", {
        "states": ["scan", "acc"], "accepting": ["acc"],
        "alphabet": ["_", "0", "1"], "blank": "_",
        "delta": ([{"read": "1", "state": "scan", "write": "1",
                    "next": "acc", "move": ""}]
                  + [{"read": s, "state": "scan", "write": s,
                      "next": "scan", "move": ""} for s in ["_", "0"]]
                  + [{"read": s, "state": "acc", "write": s,
                      "next": "acc", "move": ""} for s in ["_", "0", "1"]]),
    })
    res = runner.invoke(main, ["compile", "simulate", "--group", g,
                               "--machine", m, "--abar", "0",
                               "--alphabet", "0,1", "--format", "json"],
                        standalone_mode=False)
    payload = json.loads(res.output)
    assert payload["alphabet_size"] > 0
    assert set(payload["machine_rules"]) == {
        "configuration", "starting", "ending", "transition"}
    # -o writes the printed payload, without its manifest
    out = tmp_path / "bundle.json"
    res = runner.invoke(main, ["compile", "simulate", "--group", g, "--machine", m,
                               "--abar", "0", "--alphabet", "0,1", "--format", "json",
                               "-o", str(out)], standalone_mode=False)
    assert res.exit_code == 0
    printed = json.loads(res.output)
    del printed["manifest"]
    assert json.loads(out.read_text()) == printed == {
        k: v for k, v in payload.items() if k != "manifest"}


def test_xtime_commands(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    res = runner.invoke(main, ["xtime", "prefix", "--group", g, "-n", "16",
                               "--schedule", "paper-example"],
                        standalone_mode=False)
    assert res.output.split() == \
        "* + > . . a > . . a^-1 a^-1 > . . a +".split()
    res = runner.invoke(main, ["xtime", "kpos", "--group", g, "-n", "2",
                               "--schedule", "paper-example"],
                        standalone_mode=False)
    assert "k_2 = 15" in res.output


def test_manifest_file_and_idempotence(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    man = str(tmp_path / "man.json")
    args = ["canon", "--group", g, "--word", "a a a^-1", "--format", "json",
            "--manifest", man]
    res1 = runner.invoke(main, args, standalone_mode=False)
    res2 = runner.invoke(main, args, standalone_mode=False)
    p1, p2 = json.loads(res1.output), json.loads(res2.output)
    p1["manifest"].pop("timestamp")
    p2["manifest"].pop("timestamp")
    assert p1 == p2
    saved = json.loads(Path(man).read_text())
    assert saved["inputs"]


def test_delone_gen_dot(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    res = runner.invoke(main, ["delone", "gen", "--group", g, "-n", "1",
                               "--radius", "4", "--dot"], standalone_mode=False)
    assert res.exit_code == 0 and "graph delone" in res.output
    assert "fillcolor=black" in res.output


def test_budget_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GROUPSHIFT_BUDGET", "3")
    spec = write(tmp_path, "spec.json", {
        "alphabet": ["0", "1"],
        "group": {"kind": "free_abelian", "rank": 1, "names": ["a"]},
        "forbidden": {"kind": "builtin", "name": "one_or_less", "k": 1},
    })
    pat = write(tmp_path, "p.json", {"support": [["", "0"]]})
    res = runner.invoke(main, ["subshift", "extend", "--spec", spec,
                               "--pattern", pat, "--radius", "2"],
                        standalone_mode=False)
    assert res.exit_code == 3 and "undetermined" in res.output


def test_finite_list_subshift_json(runner, tmp_path):
    spec = write(tmp_path, "spec.json", {
        "alphabet": ["0", "1"],
        "group": {"kind": "free_abelian", "rank": 1, "names": ["a"]},
        "forbidden": {"kind": "finite",
                      "patterns": [{"support": [["", "1"], ["a", "1"]]}]},
    })
    bad = write(tmp_path, "bad.json", {"support": [["a^2", "1"], ["a^3", "1"]]})
    res = runner.invoke(main, ["subshift", "check", "--spec", spec,
                               "--pattern", bad], standalone_mode=False)
    assert res.exit_code == 1


def _verify_instance(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    out = str(tmp_path / "inst.json")
    res = runner.invoke(main, ["compile", "domino", "--group", g,
                               "--machine", m, "--a1", "windowed:3",
                               "-o", out], standalone_mode=False)
    assert res.exit_code == 0
    return out


@pytest.mark.parametrize("budget", ["inf", "nan", "-1", "garbage"])
def test_bad_budget_option_is_usage_error(runner, tmp_path, budget):
    inst = _verify_instance(runner, tmp_path)
    res = runner.invoke(main, ["verify", "window", "--instance", inst,
                               "--radius", "2", "--height", "3",
                               "--budget", budget])
    assert res.exit_code == 2 and "budget" in res.output


@pytest.mark.parametrize("raw", ["garbage", "nan", "inf", "-5"])
def test_bad_budget_env_is_usage_error(runner, tmp_path, monkeypatch, raw):
    monkeypatch.setenv("GROUPSHIFT_BUDGET", raw)
    inst = _verify_instance(runner, tmp_path)
    res = runner.invoke(main, ["verify", "window", "--instance", inst,
                               "--radius", "2", "--height", "3"])
    assert res.exit_code == 2 and "GROUPSHIFT_BUDGET" in res.output


def test_budget_scientific_notation(runner, tmp_path, monkeypatch):
    inst = _verify_instance(runner, tmp_path)
    res = runner.invoke(main, ["verify", "window", "--instance", inst,
                               "--radius", "2", "--height", "3",
                               "--budget", "1e7"], standalone_mode=False)
    assert res.exit_code == 1 and "unsatisfiable" in res.output
    monkeypatch.setenv("GROUPSHIFT_BUDGET", "1e7")
    res = runner.invoke(main, ["verify", "window", "--instance", inst,
                               "--radius", "2", "--height", "3"],
                        standalone_mode=False)
    assert res.exit_code == 1 and "unsatisfiable" in res.output


def test_undetermined_payloads_carry_nodes(runner, tmp_path):
    inst = _verify_instance(runner, tmp_path)
    res = runner.invoke(main, ["verify", "window", "--instance", inst,
                               "--radius", "2", "--height", "3",
                               "--budget", "5", "--format", "json"],
                        standalone_mode=False)
    payload = json.loads(res.output)
    assert res.exit_code == 3
    assert payload["verdict"] == "undetermined" and payload["nodes"] == 6
    spec = write(tmp_path, "spec.json", {
        "alphabet": ["0", "1"],
        "group": {"kind": "free_abelian", "rank": 1, "names": ["a"]},
        "forbidden": {"kind": "builtin", "name": "one_or_less", "k": 1},
    })
    pat = write(tmp_path, "p.json", {"support": [["", "0"]]})
    res = runner.invoke(main, ["subshift", "extend", "--spec", spec,
                               "--pattern", pat, "--radius", "2",
                               "--budget", "3", "--format", "json"],
                        standalone_mode=False)
    payload = json.loads(res.output)
    assert res.exit_code == 3
    assert payload["verdict"] == "undetermined" and payload["nodes"] == 4
    g = write(tmp_path, "f2.json", F2_GROUP)
    res = runner.invoke(main, ["machine", "visit", "--group", g, "-n", "2",
                               "--budget", "1", "--format", "json"],
                        standalone_mode=False)
    payload = json.loads(res.output)
    assert res.exit_code == 3
    assert payload["verdict"] == "undetermined" and payload["nodes"] is None
    g = write(tmp_path, "z.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    p = write(tmp_path, "p.json",
              {"support": [["", "1"], ["a", "1"], ["a^2", "1"]]})
    res = runner.invoke(main, ["machine", "run", "--group", g, "--machine", m,
                               "--pattern", p, "--budget", "2", "--trace",
                               "--format", "json"], standalone_mode=False)
    payload = json.loads(res.output)
    assert res.exit_code == 3
    assert payload["verdict"] == "undetermined" and payload["nodes"] is None
    assert payload["steps"] == 2 and len(payload["trace"]) == 3
    assert payload["manifest"]["outcome"] == "undetermined"


def _assert_undetermined(res):
    payload = json.loads(res.output)
    assert res.exit_code == 3
    assert payload["verdict"] == "undetermined" and payload["nodes"] is None
    assert payload["manifest"]["outcome"] == "undetermined"


def test_rewriting_budget_exits_3(runner, tmp_path, monkeypatch):
    g = write(tmp_path, "z.json",
              {"kind": "rewriting", "generators": ["a", "a^-1"], "rules": []})
    monkeypatch.setattr(groups, "DEFAULT_REWRITE_BUDGET", 2)
    res = runner.invoke(main, ["wp", "--group", g, "--word", "a a^-1 " * 10,
                               "--format", "json"], standalone_mode=False)
    _assert_undetermined(res)


def test_ball_budget_exits_3(runner, tmp_path, monkeypatch):
    # B_5 of F2 holds 485 elements: past a 100-element budget
    monkeypatch.setattr(cayley, "DEFAULT_BALL_BUDGET", 100)
    g = write(tmp_path, "f2.json", F2_GROUP)
    res = runner.invoke(main, ["ball", "--group", g, "-n", "5", "--format", "json"],
                        standalone_mode=False)
    _assert_undetermined(res)


def test_completion_budget_exits_3(runner, tmp_path, monkeypatch):
    # a provider that stalls at |c_n| = |c| and never completes c
    monkeypatch.setattr(jsonio, "enumeration_from_json",
                        lambda group, obj: lambda n: jsonio.coding_from_json(group, obj[0]))
    g = write(tmp_path, "g.json", Z_GROUP)
    enum = write(tmp_path, "enum.json",
                 [{"alphabet": ["0", "1"], "entries": [["a", "1"]]}])
    query = write(tmp_path, "q.json", {"alphabet": ["0", "1"], "entries": [["a", "0"]]})
    res = runner.invoke(main, ["completion", "--group", g, "--coding", query,
                               "--enumeration", enum, "--budget", "5",
                               "--format", "json"], standalone_mode=False)
    _assert_undetermined(res)


def test_completion_list_budget_exits_3(runner, tmp_path):
    # the test_completion inputs decide true after one enumeration step
    g = write(tmp_path, "g.json", Z_GROUP)
    enum = write(tmp_path, "enum.json",
                 [{"alphabet": ["0", "1"], "entries": [["a", "1"]]}])
    query = write(tmp_path, "q.json",
                  {"alphabet": ["0", "1"],
                   "entries": [["", "0"], ["a", "1"], ["a^-1", "0"]]})
    res = runner.invoke(main, ["completion", "--group", g, "--coding", query,
                               "--enumeration", enum, "--budget", "0",
                               "--format", "json"], standalone_mode=False)
    _assert_undetermined(res)


@pytest.mark.parametrize("argv", [
    pytest.param(["wp", "--group", "{bad}", "--word", "a"], id="invalid-json"),
    pytest.param(["wp", "--group", "{tmp}", "--word", "a"], id="unreadable-file"),
    pytest.param(["wp", "--group", "{rank}", "--word", "a"], id="wrong-type"),
    pytest.param(["wp", "--group", "{nc}", "--word", "b"], id="non-confluent"),
    pytest.param(["subshift", "extend", "--spec", "{z}", "--pattern", "{p}",
                  "--radius", "1"], id="missing-key"),
    pytest.param(["completion", "--group", "{z}", "--coding", "{c}",
                  "--enumeration", "{n}"], id="enumeration-not-a-list"),
    pytest.param(["machine", "retarget", "--group", "{z}", "--machine", "{m}",
                  "--gamma", "{gamma}"], id="retarget-key"),
    pytest.param(["compile", "domino", "--group", "{z}", "--machine", "{m}",
                  "--a1", "windowed:abc"], id="a1-windowed"),
    pytest.param(["compile", "domino", "--group", "{z}", "--machine", "{m}",
                  "--a1", "cover:{tmp}/missing.json"], id="a1-cover"),
    pytest.param(["machine", "oracle-sim", "--group", "{z2}",
                  "--classical", "contains:a"], id="classical-symbol"),
    pytest.param(["ball", "--group", "{z}", "-n", "-1"], id="ball"),
    pytest.param(["sequences", "disjoint", "--group", "{z}", "-n", "-1"],
                 id="sequences-disjoint"),
    pytest.param(["sequences", "component", "--group", "{z}", "--cut", "2",
                  "--seed", "a", "-n", "1"], id="sequences-component-seed-in-cut"),
    pytest.param(["words", "--group", "{z}", "--max-len", "-2"], id="words"),
    pytest.param(["machine", "visit", "--group", "{f2}", "-n", "-1"],
                 id="machine-visit"),
    pytest.param(["machine", "path", "--group", "{f2}", "--steps", "-5"],
                 id="machine-path"),
    pytest.param(["xtime", "prefix", "--group", "{z}", "-n", "-1"],
                 id="xtime-prefix"),
    pytest.param(["subshift", "extend", "--spec", "{oneless}", "--pattern", "{p}",
                  "--radius", "40"], id="generated-family-radius-cap"),
    pytest.param(["subshift", "check", "--spec", "{oneless}", "--pattern", "{twice}"],
                 id="pattern-element-twice"),
    pytest.param(["subshift", "check", "--spec", "{oneless}", "--pattern", "{swapped}"],
                 id="pattern-element-twice-swapped"),
    pytest.param(["machine", "run", "--group", "{z}", "--machine", "{rule_twice}",
                  "--pattern", "{p}"], id="machine-rule-twice"),
    pytest.param(["compile", "domino", "--group", "{z}", "--machine", "{m}",
                  "--a1", "cover:{cover}"], id="a1-cover-cell-not-a-mapping"),
    pytest.param(["compile", "domino", "--group", "{z}", "--machine", "{m}",
                  "--a1", "cover:{labels}"], id="a1-cover-labels-not-a-list"),
])
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "bad.json").write_text('{"kind": ')
    files = {
        "tmp": str(tmp_path), "bad": str(tmp_path / "bad.json"),
        "rank": write(tmp_path, "rank.json", {"kind": "free", "rank": "x"}),
        "nc": write(tmp_path, "nc.json", {
            "kind": "rewriting", "generators": ["a", "a^-1", "b", "b^-1"],
            "rules": [["b", ""]]}),
        "z": write(tmp_path, "z.json", Z_GROUP),
        "z2": write(tmp_path, "z2.json", {"kind": "free_abelian", "rank": 2}),
        "f2": write(tmp_path, "f2.json", F2_GROUP),
        "m": write(tmp_path, "m.json", MOVE_RIGHT),
        "p": write(tmp_path, "p.json", {"support": [["", "1"]]}),
        "c": write(tmp_path, "c.json", {"alphabet": ["0"], "entries": [["", "0"]]}),
        "n": write(tmp_path, "n.json", 5),
        "gamma": write(tmp_path, "gamma.json", {"a a": "a"}),
        "oneless": write(tmp_path, "oneless.json", {
            "alphabet": ["0", "1"], "group": Z_GROUP,
            "forbidden": {"kind": "builtin", "name": "one_or_less", "k": 1}}),
        # "a" and "a a^-1 a" name one element with two symbols
        "twice": write(tmp_path, "twice.json",
                       {"support": [["a", "1"], ["a a^-1 a", "0"], ["", "1"]]}),
        "swapped": write(tmp_path, "swapped.json",
                         {"support": [["a a^-1 a", "0"], ["a", "1"], ["", "1"]]}),
        "rule_twice": write(tmp_path, "rule_twice.json", dict(
            MOVE_RIGHT, delta=MOVE_RIGHT["delta"] + [
                {"read": "_", "state": "walk", "write": "_", "next": "walk",
                 "move": ""}])),
        "cover": write(tmp_path, "cover.json", {"values": ["h"], "constraints": [
            {"support": [{"g": "", "dz": 0}], "cells": [["state"]]}]}),
        # "12" is one string, not the labels "1" and "2"
        "labels": write(tmp_path, "labels.json", {"values": ["h"], "constraints": [
            {"support": [{"g": "", "dz": 0}], "cells": [{"state": "12"}]}]}),
    }
    monkeypatch.setattr(sys, "argv", ["groupshift"] + [a.format(**files) for a in argv])
    with pytest.raises(SystemExit) as exited:
        run_main()
    out = capsys.readouterr()
    assert exited.value.code == 2
    assert "Traceback" not in out.out + out.err


def test_cover_offsets_decode_to_integers(runner, tmp_path):
    g = write(tmp_path, "g.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    cover = write(tmp_path, "cover.json", {"values": ["l", "h"], "constraints": [
        {"support": [{"g": "", "dz": "0"}, {"g": "a", "dz": "0"}],
         "cells": [{"cover": ["h"]}, {"cover": ["l"]}]}]})
    res = runner.invoke(main, ["compile", "domino", "--group", g, "--machine", m,
                               "--a1", f"cover:{cover}", "--format", "json"],
                        standalone_mode=False)
    assert res.exit_code == 0
    forbidden = json.loads(res.output)["instance"]["forbidden"]
    a1 = [c for c in forbidden if c["tag"] == "A1"]
    assert [off["dz"] for off in a1[0]["support"]] == [0, 0]
    assert a1[0]["cells"] == [{"cover": ["h"]}, {"cover": ["l"]}]


def _number_site(runner, tmp_path, site, value):
    """The command line whose JSON holds `value` at `site`."""
    pattern = write(tmp_path, "p.json", {"support": [["", "1"]]})
    if site in ("free.rank", "free_abelian.rank", "bs.n"):
        kind, key = site.split(".")
        g = write(tmp_path, "g.json", {"kind": kind, key: value})
        return ["wp", "--group", g, "--word", "a"]
    if site in ("one_or_less.k", "delone.n", "amenable_witness.n_max"):
        name, key = site.split(".")
        spec = write(tmp_path, "spec.json", {
            "alphabet": ["0", "1", "2"], "group": Z_GROUP,
            "forbidden": {"kind": "builtin", "name": name, key: value}})
        return ["subshift", "check", "--spec", spec, "--pattern", pattern]
    g = write(tmp_path, "z.json", Z_GROUP)
    m = write(tmp_path, "m.json", MOVE_RIGHT)
    if site == "cover.dz":
        cover = write(tmp_path, "cover.json", {"values": ["l", "h"], "constraints": [
            {"support": [{"g": "", "dz": value}, {"g": "a", "dz": 0}],
             "cells": [{"cover": ["h"]}, {"cover": ["l"]}]}]})
        return ["compile", "domino", "--group", g, "--machine", m, "--a1", f"cover:{cover}"]
    inst = str(tmp_path / "inst.json")
    extra = ["--free-product", write(tmp_path, "c2.json", {
        "kind": "finite", "table": [[0, 1], [1, 0]]})] if site == "instance.h" else []
    res = runner.invoke(main, ["compile", "domino", "--group", g, "--machine", m,
                               "--a1", "windowed:1", "-o", inst] + extra,
                        standalone_mode=False)
    assert res.exit_code == 0
    blob = json.loads(Path(inst).read_text())
    key = site.split(".")[1]
    offset = next(off for c in blob["forbidden"] for off in c["support"] if key in off)
    offset[key] = value
    return ["verify", "window", "--instance", write(tmp_path, "bad.json", blob),
            "--radius", "1", "--height", "1"]


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("site", [
    "free.rank", "free_abelian.rank", "bs.n", "one_or_less.k", "delone.n",
    "amenable_witness.n_max", "cover.dz", "instance.dz", "instance.h"])
def test_json_count_that_is_not_an_integer_exits_2(runner, tmp_path, monkeypatch, capsys,
                                                   site, value):
    """A count or offset given as a float or a boolean is malformed, where
    `int` would quietly truncate it."""
    argv = _number_site(runner, tmp_path, site, value)
    code, out = _run_main_exit(monkeypatch, capsys, argv)
    assert code == 2
    assert out.err == f"error: expected an integer, got {value!r}\n"


def _exit_and_error(tmp_path, monkeypatch, capsys, argv):
    """Run `argv`, each JSON value in it written to a file first."""
    argv = [a if isinstance(a, str) else write(tmp_path, f"arg{i}.json", a)
            for i, a in enumerate(argv)]
    code, out = _run_main_exit(monkeypatch, capsys, argv)
    return code, out.err


def _ball(group_obj):
    return ["ball", "--group", group_obj, "-n", "1"]


def _check(spec):
    spec = {"alphabet": ["0", "1"], "group": Z_GROUP, **spec}
    return ["subshift", "check", "--spec", spec, "--pattern", {"support": [["", "1"]]}]


def _moving_by(word):
    """MOVE_RIGHT with every move spelled `word`."""
    return dict(MOVE_RIGHT, delta=[dict(rule, move=rule["move"] and word)
                                   for rule in MOVE_RIGHT["delta"]])


TABLE_3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
NO_PATTERNS = {"kind": "finite", "patterns": []}
NO_RULES = {"kind": "rewriting", "generators": [], "rules": []}


@pytest.mark.parametrize("argv,message", [
    # a name two generators share, a name list that does not match the rank
    # or the table's order, and a table entry that is not an int would name
    # another group than the JSON says, or crash
    pytest.param(_ball({"kind": "free", "rank": 2, "names": ["a", "a"]}),
                 "generator names repeat: ['e', 'a', 'a^-1', 'a', 'a^-1']",
                 id="free-name-twice"),
    pytest.param(["wp", "--group", {"kind": "free", "rank": 1, "names": ["e"]},
                  "--word", "e"],
                 "generator names repeat: ['e', 'e', 'e^-1']",
                 id="free-name-e"),
    pytest.param(_ball({"kind": "finite", "table": TABLE_3, "names": ["e", "t", "t"]}),
                 "generator names repeat: ['e', 't', 't']",
                 id="finite-name-twice"),
    pytest.param(_ball({"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["e", "t", "u"]}),
                 "finite group of order 2 given 3 names",
                 id="finite-extra-name"),
    pytest.param(_ball({"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["e"]}),
                 "finite group of order 2 given 1 names",
                 id="finite-missing-name"),
    pytest.param(_ball({"kind": "free", "rank": 1, "names": ["x", "y"]}),
                 "free group of rank 1 given 2 names",
                 id="free-extra-name"),
    pytest.param(["compile", "domino", "--machine", _moving_by("x"), "--group",
                  {"kind": "free_abelian", "rank": 2, "names": ["x"]}],
                 "free abelian group of rank 2 given 1 names",
                 id="free-abelian-missing-name"),
    pytest.param(_ball({"kind": "free_abelian", "rank": 1, "names": ["x", "y"]}),
                 "free abelian group of rank 1 given 2 names",
                 id="free-abelian-extra-name"),
    pytest.param(_ball({"kind": "finite", "table": [[0, True], [True, 0]]}),
                 "multiplication table is not square over 0..m-1",
                 id="finite-bool-entry"),
    pytest.param(_ball({"kind": "free", "rank": 0}), "free group rank must be >= 1",
                 id="free-rank-0"),
    pytest.param(_ball({"kind": "free_abelian", "rank": 0}),
                 "free abelian rank must be >= 1",
                 id="free-abelian-rank-0"),
    pytest.param(_ball({"kind": "bs", "n": 1}), "BS(1, n) requires n >= 2",
                 id="bs-n-1"),
    pytest.param(_ball({"kind": "finite", "table": [[0, 1], [1]]}),
                 "multiplication table is not square over 0..m-1",
                 id="finite-ragged"),
    pytest.param(_ball({"kind": "finite", "table": [[1, 0], [0, 1]]}),
                 "row/column 0 must act as the identity",
                 id="finite-no-identity"),
    pytest.param(_ball({"kind": "finite", "table": [[0, 1], [1, 1]]}),
                 "table has an element without inverse",
                 id="finite-no-inverse"),
    pytest.param(_ball({"kind": "finite", "table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}),
                 "table is not associative",
                 id="finite-not-associative"),
    pytest.param(_ball({"kind": "free_product", "factors": [Z_GROUP]}),
                 "free product needs at least two factors",
                 id="free-product-one-factor"),
    pytest.param(_ball(dict(NO_RULES, generators=["a", "a^-1"], rules=[["", "a"]])),
                 "rule with empty left-hand side",
                 id="rewriting-empty-lhs"),
    pytest.param(_ball(dict(NO_RULES, generators=["e"])),
                 "'e' is reserved for the identity symbol",
                 id="rewriting-e"),
    pytest.param(_ball(dict(NO_RULES, generators=["a^-1"])),
                 "inverse 'a^-1' without base generator",
                 id="rewriting-inverse-without-base"),
    pytest.param(_ball(dict(NO_RULES, generators=["a", "a"])),
                 "generator list is inconsistent",
                 id="rewriting-name-twice"),
    pytest.param(_ball({"kind": "klein"}), "unknown group kind 'klein'",
                 id="unknown-kind"),
    pytest.param(["canon", "--group", F2_GROUP, "--word", "q^2"],
                 "unknown generator 'q^2'",
                 id="canon-unknown-generator"),
    pytest.param(_check({"forbidden": {"kind": "builtin", "name": "zigzag"}}),
                 "unknown builtin family 'zigzag'",
                 id="unknown-builtin"),
    pytest.param(_check({"forbidden": {"kind": "regular"}}),
                 "unknown forbidden kind 'regular'",
                 id="unknown-forbidden-kind"),
    pytest.param(_check({"forbidden": {"kind": "builtin", "name": "one_or_less", "k": 0}}),
                 "one-or-less requires k >= 1",
                 id="one-or-less-k-0"),
    pytest.param(_check({"forbidden": {"kind": "builtin", "name": "delone", "n": 0}}),
                 "Delone parameter n must be >= 1",
                 id="delone-n-0"),
    pytest.param(_check({"alphabet": [], "forbidden": NO_PATTERNS}),
                 "alphabet must have at least one symbol",
                 id="empty-alphabet"),
    pytest.param(_check({"alphabet": ["0", "0"], "forbidden": NO_PATTERNS}),
                 "alphabet labels must be distinct",
                 id="repeated-label"),
    pytest.param(["subshift", "extend", "--spec",
                  {"alphabet": ["0", "1"], "group": Z_GROUP, "forbidden": NO_PATTERNS},
                  "--pattern", {"support": [["a a", "1"]]}, "--radius", "1"],
                 "pattern support must lie inside B_radius",
                 id="extend-outside-ball"),
    pytest.param(["machine", "run", "--group", Z_GROUP, "--machine", _moving_by("a a"),
                  "--pattern", {"support": [["", "1"]]}],
                 "machine moves must be single generators",
                 id="machine-two-letter-move"),
    pytest.param(["machine", "path", "--group", NO_RULES, "--steps", "1"],
                 "need at least one non-identity generator",
                 id="path-no-generators"),
    pytest.param(["xtime", "prefix", "--group", Z_GROUP, "-n", "1000001"],
                 "prefix length capped at 1000000",
                 id="xtime-prefix-cap"),
    pytest.param(["xtime", "kpos", "--group", Z_GROUP, "-n", "0"], "n >= 1 required",
                 id="xtime-kpos-0"),
    pytest.param(["delone", "gen", "--group", Z_GROUP, "-n", "0", "--radius", "4"],
                 "n must be >= 1",
                 id="delone-gen-0"),
])
def test_malformed_input_message(tmp_path, monkeypatch, capsys, argv, message):
    """Each malformed input exits 2 with the message that names its fault."""
    assert _exit_and_error(tmp_path, monkeypatch, capsys, argv) == (2, f"error: {message}\n")


def _leaf_commands(group, path=()):
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _leaf_commands(cmd, path + (name,))
        else:
            yield path + (name,), cmd


LEAF_COMMANDS = dict(_leaf_commands(main))


@pytest.mark.parametrize("path", LEAF_COMMANDS, ids=" ".join)
def test_leaf_command_has_common_options_and_docs(runner, path):
    """Every leaf is declared through the command decorator and documented."""
    options = {opt for param in LEAF_COMMANDS[path].params for opt in param.opts}
    assert {"--format", "--manifest"} <= options
    assert runner.invoke(main, [*path, "--help"]).exit_code == 0
    usage = README.read_text().split("## Command line", 1)[1].splitlines()
    assert any(line.startswith(f"groupshift {' '.join(path)} ") for line in usage)


@pytest.mark.parametrize(
    "group", [F2_GROUP, {"kind": "free_abelian", "rank": 2}, C2_C3_GROUP, Z_A_A2_GROUP],
    ids=["f2", "z2", "c2*c3", "z_a_a2"])
def test_output_is_independent_of_the_hash_seed(tmp_path, group):
    """Set orders follow element hashes: the string hash seed for tuple and
    letter keys, and object addresses, which differ from process to process,
    for the `ConsWord` keys of free groups, free products and rewriting
    groups.  No output may follow them.  Each command's stdout under
    PYTHONHASHSEED=1 and =2, in two processes, is the same bytes, but for the
    manifest's timestamp line."""
    g = write(tmp_path, "g.json", group)
    src = str(Path(groups.__file__).resolve().parent.parent)
    for argv in (["delone", "gen", "-n", "1", "--radius", "5"],
                 ["ball", "--radius", "3"]):
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
            proc = subprocess.run(
                [sys.executable, "-m", "groupshift.cli", *argv, "--group", g,
                 "--format", "json"],
                capture_output=True, env=env, timeout=120, check=True)
            outs.append(re.sub(rb'\n *"timestamp": [0-9.e+-]+,?', b"", proc.stdout))
        assert outs[0] == outs[1] and b'"outcome": "ok"' in outs[0]
