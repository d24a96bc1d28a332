"""The groupshift benchmark: seeded verdict workloads against the public API.

    python3 perfbench/run.py --workload search|walk|cover|words \
        --seed N --seconds S --trace 0|1

Load model: closed loop, one client in this process with no extra threads;
each task is sent after the previous one returns.  Inputs are generated from
the seed before anything is timed.  A run has three parts:

* set-up: import plus the workload's construction and cache warm-up, done
  here and in SETUP_REPEATS - 1 fresh processes (`setup_s` is the median);
* rounds: the workload's task list, repeated until TASK_SHARE of the seconds
  is spent (at least MIN_ROUNDS); a task's time is its median over rounds;
* the command-line phase: the workload's commands as subprocesses, repeated
  for the remaining seconds (at least MIN_ROUNDS).

Every reported time is scaled to a fixed speed of the host (see `speed`);
the detail line before the result also gives the unscaled figures.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the run is a separate traced run: spans are recorded around the library's
public functions during set-up and every other round, and the last line
holds the per-layer metrics.  Every verdict is checked in both modes;
`failed` counts tasks and commands whose check failed, that raised, or that
came back undetermined.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("search", "walk", "cover", "words")
TASK_SHARE = 0.75
SETUP_REPEATS = 5
MIN_ROUNDS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it")
    return p.parse_args(argv)


def import_program() -> None:
    """Import groupshift from this checkout's src/ and nowhere else."""
    if not (SRC / "groupshift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no groupshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import groupshift
    if Path(groupshift.__file__).resolve().parent != SRC / "groupshift":
        raise SystemExit(f"perfbench: imported groupshift from {groupshift.__file__}")


def run_round(tasks, times, log, tracer=None) -> tuple[int, float, float]:
    """Run every task once and append each one's scaled seconds to `times`;
    (failures, raw seconds, scaled seconds)."""
    failed, stamps = 0, []
    for i, (kind, fn) in enumerate(tasks):
        sid = None
        if tracer is not None:
            tracer.task_id += 1
            sid = tracer.begin(tracer.name_id(f"task.{kind}"))
        t0 = perf_counter()
        try:
            ok = fn()
        except Exception:  # a task that raises is a failed task; keep going
            traceback.print_exc(limit=3, file=sys.stderr)
            ok = False
        t1 = perf_counter()
        if sid is not None:
            tracer.finish(sid)
        stamps.append((t0, t1))
        log.maybe_sample()
        if not ok:
            failed += 1
            print(f"perfbench: task {i} ({kind}) failed its check", file=sys.stderr)
    log.sample()
    raw = scaled = 0.0
    for i, (t0, t1) in enumerate(stamps):
        times[i].append(log.scaled(t0, t1))
        raw += t1 - t0
        scaled += times[i][-1]
    return failed, raw, scaled


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND values above."""
    ranked = sorted(values)
    k = max(0, len(ranked) - TAIL_BEYOND - 1)
    return ranked[k], 100.0 * k / len(ranked)


def setup_repeats(args) -> list[tuple[float, float]]:
    """(scaled, raw) set-up seconds of SETUP_REPEATS - 1 fresh processes."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        got = json.loads(proc.stdout.splitlines()[-1])
        out.append((got["setup_s"], got["raw_s"]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    log = speed.SpeedLog()
    log.sample()
    t_import = perf_counter()
    import_program()

    import cliphase
    import inputs
    import layers
    import tracing
    import workloads

    import_s = perf_counter() - t_import
    data = inputs.generate(args.workload, args.seed)
    tracer = uninstall = None
    if args.trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        setup_sid = tracer.begin(tracer.name_id("setup"))
    t0 = perf_counter()
    tasks = workloads.setup(args.workload, data)
    t1 = perf_counter()
    log.sample()
    setup = ((import_s + t1 - t0) * log.factor(t_import, t1), import_s + t1 - t0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "raw_s": setup[1]}))
        return 0

    details = {"workload": args.workload, "seed": args.seed,
               "inputs_sha256": inputs.digest(data), "tasks_per_round": len(tasks),
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "fme_step_caps": inputs.FME_STEPS, "ref_s": speed.REF_S}
    times: list[list[float]] = [[] for _ in tasks]
    failed = attempted = 0
    budget = args.seconds * TASK_SHARE
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"cli-{os.getpid()}"
    tmp.mkdir()
    try:
        if not args.trace:
            setups = [setup] + setup_repeats(args)
            start, last, rounds, raw_total = perf_counter(), 0.0, 0, 0.0
            while rounds < MIN_ROUNDS or perf_counter() - start + last <= budget:
                t0 = perf_counter()
                bad, raw, _ = run_round(tasks, times, log)
                last = perf_counter() - t0
                raw_total += raw
                failed += bad
                attempted += len(tasks)
                rounds += 1
            per_task = [statistics.median(t) for t in times]
            tail_s, tail_pct = tail(per_task)
            cli_bad, cli_runs, cli_ms = cli_phase(
                cliphase, args, data, tmp, log, args.seconds * (1 - TASK_SHARE))
            metrics = {
                "setup_s": (statistics.median(s for s, _ in setups), "s"),
                "tasks_per_s": (len(tasks) / sum(per_task), "1/s"),
                "task_ms_p50": (statistics.median(per_task) * 1000, "ms"),
                "task_ms_tail": (tail_s * 1000, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
                "cli_ms_p50": (statistics.median(
                    statistics.median(v) for v in cli_ms.values()), "ms"),
            }
            details.update(
                rounds=rounds, tail_percentile=tail_pct, tail_samples=len(per_task),
                ref_s_median=log.median_s(),
                unscaled={"setup_s": statistics.median(r for _, r in setups),
                          "tasks_per_s": rounds * len(tasks) / raw_total})
        else:
            tracer.finish(setup_sid)
            setup_end, setup_counts = len(tracer), dict(tracer.counts)
            tracer.counts.clear()
            uninstall()
            plain, traced, spans, round_counts = [], [], [], []
            start, last = perf_counter(), 0.0
            while not traced or perf_counter() - start + last <= budget * 0.8:
                t0 = perf_counter()
                bad, _, total = run_round(tasks, times, log)
                plain.append(total)
                uninstall = tracing.install(tracer)
                first = len(tracer)
                bad2, _, total = run_round(tasks, times, log, tracer)
                uninstall()
                last = perf_counter() - t0
                traced.append(total)
                spans.append((first, len(tracer)))
                round_counts.append(dict(tracer.counts))
                tracer.counts.clear()
                failed += bad + bad2
                attempted += 2 * len(tasks)
            values = per_layer(tracing, layers, tracer, log, setup_end, setup_counts,
                               spans, round_counts[0])
            values.update(layers.group_rates(args.seed, log))
            values["trace.overhead_share"] = (statistics.median(traced)
                                              / statistics.median(plain) - 1)
            cli_bad, cli_runs, cli_ms = cli_phase(cliphase, args, data, tmp, log, 0)
            for name, ms in cli_ms.items():
                values[f"cli.invoke_ms.{name}"] = statistics.median(ms)
            values["jsonio.load_ms"] = jsonio_load_ms(tracing, cliphase, args, data,
                                                      tmp, log)
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
            tracer.write(trace_file)
            metrics = {name: (values.get(name, 0), unit)
                       for name, unit in layers.metric_names()}
            details.update(rounds=len(traced), spans=len(tracer),
                           counts_repeat=all(c == round_counts[0] for c in round_counts),
                           trace_file=str(trace_file.relative_to(ROOT)))
        failed += cli_bad
        attempted += cli_runs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("perfbench " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def cli_phase(cliphase, args, data, tmp, log, seconds: float):
    """Run the command list in rounds (at least MIN_ROUNDS, then until
    `seconds` have passed); (failures, runs, scaled ms per command)."""
    _, cmds = cliphase.commands(args.workload, data, args.seed, tmp)
    ms: dict[str, list[float]] = {c.name: [] for c in cmds}
    failed = runs = rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for cmd in cmds:
            log.sample()
            ok, t0, t1 = cliphase.run(cmd, SRC)
            log.sample()
            ms[cmd.name].append(log.scaled(t0, t1) * 1000)
            runs += 1
            if not ok:
                failed += 1
                print(f"perfbench: command {cmd.name} failed its check", file=sys.stderr)
        rounds += 1
    return failed, runs, ms


def per_layer(tracing, layers, tracer, log, setup_end, setup_counts, spans, counts):
    """Set-up plus one traced round: counts from the first traced round, times
    averaged over the traced rounds."""
    own, total, calls = tracing.self_times(tracer, 0, setup_end, log.factor)
    for first, stop in spans:
        o, t, _ = tracing.self_times(tracer, first, stop, log.factor)
        for name in o:
            own[name] += o[name] / len(spans)
            total[name] += t[name] / len(spans)
    calls.update(tracing.self_times(tracer, *spans[0])[2])
    merged = dict(setup_counts)
    for key, value in counts.items():
        merged[key] = merged.get(key, 0) + value
    return layers.from_trace(own, total, calls, merged)


def jsonio_load_ms(tracing, cliphase, args, data, tmp, log, passes: int = 7) -> float:
    """Median over passes of the scaled time spent in jsonio loaders."""
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        # built under the wrappers, so the loaders they hold are the wrapped ones
        loads, _ = cliphase.commands(args.workload, data, args.seed, tmp)
        bounds = []
        for _ in range(passes):
            log.sample()
            first = len(tr)
            for load in loads:
                load()
            bounds.append((first, len(tr)))
        log.sample()
    finally:
        uninstall()
    return statistics.median(
        tracing.self_times(tr, first, stop, log.factor)[0].get("jsonio.load", 0) / 1e6
        for first, stop in bounds)


if __name__ == "__main__":
    sys.exit(main())
