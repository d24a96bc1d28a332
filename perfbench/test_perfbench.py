"""The benchmark's own tests: `python3 -m pytest perfbench -q`."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import groupshift as gs

import cliphase
import inputs
import layers
import oracles
import run
import speed
import tracing
import workloads

RUN = Path(__file__).resolve().parent / "run.py"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_is_deterministic(workload):
    a, b = inputs.generate(workload, 7), inputs.generate(workload, 7)
    assert inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(a) != inputs.digest(inputs.generate(workload, 8))


def _failures(tasks) -> int:
    failed, _, _ = run.run_round(tasks, [[] for _ in tasks], speed.SpeedLog())
    return failed


def test_injected_wrong_verdict_is_a_failure():
    data = inputs.generate("search", 3)
    data["mirror"] = [m for m in data["mirror"] if m["radius"] == 2]
    data["domino"] = data["domino"][:3]
    tasks = workloads.setup("search", data)
    assert _failures(tasks) == 0
    data["one_or_less"][0]["expect"] = not data["one_or_less"][0]["expect"]
    data["domino"][2]["expect"] = not data["domino"][2]["expect"]
    assert _failures(workloads.setup("search", data)) == 2


def test_raising_task_is_a_failure():
    def boom():
        raise gs.UndeterminedError("budget")
    assert _failures([("boom", boom), ("ok", lambda: True)]) == 1


def test_self_time_of_nested_spans():
    tr = tracing.Tracer()
    root, a, b = (tr.name_id(n) for n in ("root", "a", "b"))
    # root [0,100] holds a [10,40] (which holds b [15,25]) and b [50,90]
    for nid, start, end, parent in ((root, 0, 100, -1), (a, 10, 40, 0),
                                    (b, 15, 25, 1), (b, 50, 90, 0)):
        tr.name.append(nid)
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.task.append(0)
    own, total, calls = tracing.self_times(tr)
    assert own == {"root": 30, "a": 20, "b": 50}
    assert total == {"root": 100, "a": 30, "b": 50}
    assert calls == {"root": 1, "a": 1, "b": 2}
    # a window that starts at a child ignores the parent outside it
    own, _, _ = tracing.self_times(tr, 1, 3)
    assert own == {"a": 20, "b": 10}


def test_install_wraps_and_restores():
    original = gs.extendable
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        assert gs.extendable is not original
        assert gs.subshifts.extendable is gs.extendable
        z = gs.FreeAbelianGroup(1, names=["a"])
        spec = gs.builtin_one_or_less(z, 1)
        assert gs.union_window_admissible(gs.Pattern({z.identity: 1}), spec, spec, 1)
    finally:
        uninstall()
    assert gs.extendable is original and gs.subshifts.extendable is original
    own, _, calls = tracing.self_times(tr)
    assert calls["subshifts.extendable"] == 1 and calls["cayley.ball"] >= 1
    assert tr.counts["groups.multiply"] > 0


def test_mirror_oracle_agrees_with_library():
    z2 = gs.free_abelian_group(2)
    spec = gs.builtin_mirror(z2)
    rng = random.Random(5)
    for _ in range(40):
        cells = rng.sample(oracles.diamond(2), rng.randrange(0, 7))
        assign = {c: rng.choice((0, 0, 1, 1, 2)) for c in cells}
        p = gs.Pattern({z2.element(inputs.z2_word(x, y)): v
                        for (x, y), v in assign.items()})
        assert oracles.mirror_extendable(assign, 2)[0] == gs.extendable(p, spec, 2)


def test_domino_expectation_on_the_criterion_12_machines():
    got = [oracles.domino_expectation(inputs.total_delta(rules, n), n, rg, h)
           for rules, n, rg, h, _ in inputs.CRITERION_12]
    assert got == [False, False, True]


@pytest.mark.parametrize("kind", inputs.KINDS)
def test_ball_closed_forms(kind):
    group = inputs.make_group(kind)
    for n in range(6):
        assert len(gs.ball(group, n)) == oracles.ball_size(kind, n)


def _trace_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, env=env, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_processes(workload):
    first = _trace_counts(workload, "1")
    assert any(first.values())
    assert first == _trace_counts(workload, "2")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_command_has_a_per_layer_metric(workload, tmp_path):
    loads, cmds = cliphase.commands(workload, inputs.generate(workload, 1), 1, tmp_path)
    assert loads and {c.name for c in cmds} <= set(layers.CLI_COMMANDS)
