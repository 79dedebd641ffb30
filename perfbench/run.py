"""End-to-end and per-layer benchmark of the paper's runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sched --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --write-reference       # re-capture reference.json

Workloads (``workloads.py``; why each exists is in ``BENCHMARK.json``,
what each layer metric should move in ``interactions.json``):
``sched``, ``kernels``, ``jacobi1024`` and ``rerun``. One operation is
one sweep point, run serially in this process.

A run first sets up several times (a fresh import of ``repro``; for
``rerun`` also the code fingerprint and filling a run cache) and
reports the median as ``setup_s``. It then runs passes over the
workload's operations until ``--seconds`` are used. ``wall_s`` is the
sum over operations of each operation's median time across passes, and
``sim_cycles_per_s`` divides the median simulated cycles of a pass by
it. Host times are scaled to a nominal host with the frozen loop in
``calibrate.py``, timed before and after every operation; the unscaled
figure is in the report. Every operation is checked: it must not
raise, the app's own check must pass, and at the reference seed its
row, simulated cycles and stats counters must equal ``reference.json``.

With ``--trace 1`` the same untraced passes are followed by the layer
microbenchmarks, the macro-effects ablation (``kernels``), the 2-shard
row (``jacobi1024``) and one traced pass, and the per-layer metrics are
printed instead. Spans and the full report (quartiles, sample counts,
host, model terms, failures) go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: the benchmark's own modules that import repro (re-imported per set-up)
OWN_MODULES = ("workloads", "kernels", "layertrace", "microbench")
#: in increasing order of footprint
WORKLOADS = ("sched", "kernels", "rerun", "jacobi1024")
SETUP_REPEATS = {"sched": 5, "kernels": 5, "jacobi1024": 5, "rerun": 3}
MIN_PASSES = 3


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_info() -> dict[str, Any]:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def setup_once(name: str, seed: int):
    """Import ``repro`` afresh and build the workload; returns
    (nominal-host seconds, workloads module, workload)."""
    for mod in list(sys.modules):
        if mod in OWN_MODULES or mod == "repro" or mod.startswith("repro."):
            del sys.modules[mod]
    gc.collect()
    before = calibrate.measure()
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](seed, OUT)
    dt = time.perf_counter() - t0
    return calibrate.scale(dt, before, calibrate.measure()), workloads, wl


class Runner:
    """Runs operations, timing them and accounting failures."""

    def __init__(self, workloads, wl, log) -> None:
        self.w = workloads
        self.wl = wl
        self.log = log
        self.ref = workloads.load_reference(wl.name)
        self.check_ref = wl.seed == workloads.REF_SEED
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, fn=None) -> tuple[float, float, Any, dict[str, int]]:
        """One operation: (nominal-host seconds, raw host seconds, row,
        counters of its machines)."""
        gc.collect()
        self.log.take()
        row = raised = None
        before = calibrate.measure()
        t0 = time.perf_counter()
        try:
            row = (fn or op.run)()
        except Exception as exc:  # an operation that raises has failed
            raised = exc
        dt = time.perf_counter() - t0
        nominal = calibrate.scale(dt, before, calibrate.measure())
        counters = self.log.counters()
        if raised is not None:
            errors = [f"{op.label}: {type(raised).__name__}: {raised}"]
            failed = op.points
        else:
            errors = op.check(row) if op.check is not None else []
            if not errors and self.check_ref and op.ref:
                errors = self.w.check_reference(self.wl.name, self.ref, op, row, counters)
            failed = min(len(errors), op.points)
        self.attempted += op.points
        self.failed += failed
        self.errors.extend(errors[:5])
        return nominal, dt, row, counters


def measure(runner: Runner, seconds: float) -> dict[str, Any]:
    """Untraced passes until ``seconds`` are used (at least MIN_PASSES)."""
    start = time.perf_counter()
    times: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    cycles: dict[str, list[int]] = {}
    last: dict[str, tuple[Any, dict[str, int]]] = {}
    totals: list[float] = []
    i = 0
    while True:
        total = 0.0
        for op in runner.wl.ops(i):
            dt, raw_dt, row, counters = runner.run(op)
            times.setdefault(op.label, []).append(dt)
            raw.setdefault(op.label, []).append(raw_dt)
            cycles.setdefault(op.label, []).append(counters.get("cycles", 0))
            last[op.label] = (row, counters)
            total += dt
        totals.append(total)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= MIN_PASSES and elapsed + statistics.median(totals) > seconds:
            break
    wall = sum(statistics.median(v) for v in times.values())
    sim_cycles = sum(statistics.median(v) for v in cycles.values())
    q1, q2, q3 = quartiles(totals)
    return {
        "wall_s": wall,
        "wall_raw_s": sum(statistics.median(v) for v in raw.values()),
        "sim_cycles": sim_cycles,
        "op_median_s": {k: statistics.median(v) for k, v in times.items()},
        "pass_total_s": {"q1": q1, "median": q2, "q3": q3},
        "passes": len(totals),
        "last": last,
    }


def macro_ablation(runner: Runner, m: dict[str, Any]) -> dict[str, Any]:
    """Kernels with macro-effects off vs on: wall ratio and identity."""
    off_s = on_s = 0.0
    identical = True
    for op in runner.wl.ops(0):
        if op.macro_off is None:
            continue
        dt, _raw, row, counters = runner.run(op, op.macro_off)
        on_row, on_counters = m["last"][op.label]
        same = runner.w.normalize(row) == runner.w.normalize(on_row) and all(
            counters.get(k) == v for k, v in on_counters.items() if k != "sim.events"
        )
        identical = identical and same
        off_s += dt
        on_s += m["op_median_s"][op.label]
    return {"wall_ratio": off_s / on_s, "identical": identical}


def partition_row(runner: Runner) -> dict[str, Any]:
    """jacobi1024's 2-shard evidence row: run_partitioned at 2 shards
    vs the serial run of the same point, interleaved (a measurement,
    never a gate)."""
    cpus = host_info()["cpus"]
    if cpus < 2:
        return {"skipped": f"{cpus} cpu"}
    from repro.perf.partition import run_partitioned
    from repro.perf.sweep import run_point

    point = runner.wl.partition_point
    serial, sharded = [], []
    identical = True
    for _ in range(2):
        gc.collect()
        t0 = time.perf_counter()
        want = run_point(point)
        serial.append(time.perf_counter() - t0)
        runner.log.take()
        gc.collect()
        t0 = time.perf_counter()
        got = run_partitioned(point.fn, dict(point.kwargs), 1024, 2)
        sharded.append(time.perf_counter() - t0)
        identical = identical and got == want
    runner.attempted += 2
    if not identical:
        runner.failed += 2
        runner.errors.append("2-shard jacobi1024 result differs from serial")
    return {"serial_s": statistics.median(serial), "shards2_s": statistics.median(sharded),
            "speedup_2": statistics.median(serial) / statistics.median(sharded),
            "identical": identical}


def traced_pass(runner: Runner) -> dict[str, Any]:
    """One pass with every layer wrapped: the tracer, the summed
    counters, the traced wall seconds, the sweep points run and the
    run-cache counter deltas."""
    import layertrace

    tracer = layertrace.SpanTracer()
    cache = getattr(runner.wl, "cache", None)
    before = cache.stats.snapshot() if cache is not None else {}
    tracer.install()
    total: dict[str, int] = {}
    wall = 0.0
    points = 0
    try:
        for op in runner.wl.ops(10**6):
            points += op.points
            dt, _raw, _row, counters = runner.run(
                op, lambda op=op: tracer.span("op", op.run)
            )
            wall += dt
            for k, v in counters.items():
                total[k] = total.get(k, 0) + v
    finally:
        tracer.uninstall()
    delta = cache.stats.delta(before) if cache is not None else {}
    return {"tracer": tracer, "counts": total, "wall": wall, "points": points,
            "cache": delta}


def per_layer(runner, m, tp, costs, ablation, partition
              ) -> tuple[dict[str, tuple[float, str]], dict]:
    t = tp["tracer"]
    counts, traced_wall, cache_delta = tp["counts"], tp["wall"], tp["cache"]
    points = tp["points"] if t.calls("perf.sweep.map") else 0
    c = lambda k: counts.get(k, 0)  # noqa: E731
    hits, misses = c("cache.hits"), c("cache.misses")
    steals = c("sched.steals_attempted")
    micro = t.calls("proc.execute")
    gets, puts = t.calls("perf.cache.get"), t.calls("perf.cache.put")
    model_counts = {
        "sim.events": c("sim.events"),
        "micro_effects": micro,
        "macro_elements": max(c("proc.effects") - micro, 0),
        "access_hits": max(t.calls("memory.access") - misses, 0),
        "cache_misses": misses,
        "packets": c("net.packets"),
        "messages": c("cmmu.messages_sent"),
        "idle_steps": t.calls("runtime.idle"),
        "cache_gets": gets,
        "cache_puts": puts,
        "build_s": t.total_s("machine.build"),
    }
    import microbench

    model = microbench.predict(costs, model_counts)
    predicted = sum(model.values())
    wall = m["wall_s"]
    mean = lambda name, n: t.total_s(name) / n if n else 0.0  # noqa: E731
    metrics = {
        "sim.events": (c("sim.events"), "count"),
        "sim.step_calls": (t.calls("sim.step"), "count"),
        "sim.self_s": (t.self_s("sim.run", "sim.step"), "s"),
        "sim.ns_per_event": (costs["event"], "ns"),
        "proc.effects": (c("proc.effects"), "count"),
        "proc.handlers_run": (c("proc.handlers_run"), "count"),
        "proc.idle_probes": (c("proc.idle_probes"), "count"),
        "proc.contexts_run": (c("proc.contexts_run"), "count"),
        "proc.self_s": (t.self_s(*[n for n in t.agg if n.startswith("proc.")]), "s"),
        "proc.ns_per_effect_micro": (costs["effect_micro"], "ns"),
        "proc.ns_per_effect_macro": (costs["effect_macro"], "ns"),
        "memory.cache_hits": (hits, "count"),
        "memory.cache_misses": (misses, "count"),
        "memory.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "memory.coherence_txns": (c("coh.transactions"), "count"),
        "memory.invalidations": (c("coh.invalidations"), "count"),
        "memory.limitless_traps": (c("dir.software_traps"), "count"),
        "memory.access_calls": (t.calls("memory.access"), "count"),
        "memory.access_self_s": (t.self_s("memory.access"), "s"),
        "memory.handle_packet_self_s": (t.self_s("memory.handle_packet"), "s"),
        "memory.ns_per_hit": (costs["hit"], "ns"),
        "memory.ns_per_miss": (costs["miss"], "ns"),
        "network.packets": (c("net.packets"), "count"),
        "network.send_self_s": (t.self_s("network.send"), "s"),
        "network.ns_per_packet": (costs["packet"], "ns"),
        "network.mean_latency_cycles": (
            c("net.total_latency") / c("net.packets") if c("net.packets") else 0.0,
            "cycles"),
        "cmmu.messages_sent": (c("cmmu.messages_sent"), "count"),
        "cmmu.dma_transfers": (c("cmmu.dma_transfers"), "count"),
        "cmmu.launch_self_s": (t.self_s("cmmu.launch"), "s"),
        "cmmu.ns_per_message": (costs["message"], "ns"),
        "runtime.idle_steps": (t.calls("runtime.idle"), "count"),
        "runtime.idle_self_s": (t.self_s("runtime.idle_step", "runtime.idle"), "s"),
        "runtime.steals_attempted": (steals, "count"),
        "runtime.steals_won": (c("sched.steals_won"), "count"),
        "runtime.steal_win_ratio": (
            c("sched.steals_won") / steals if steals else 0.0, "ratio"),
        "runtime.tasks_run": (c("sched.tasks_run"), "count"),
        "runtime.ns_per_idle_step": (costs["idle_step"], "ns"),
        "machine.builds": (t.calls("machine.build"), "count"),
        "machine.build_s": (t.total_s("machine.build"), "s"),
        "perf.cache.hits": (cache_delta.get("hits", 0), "count"),
        "perf.cache.misses": (cache_delta.get("misses", 0), "count"),
        "perf.cache.get_ms": (mean("perf.cache.get", gets) * 1e3, "ms"),
        "perf.cache.put_ms": (mean("perf.cache.put", puts) * 1e3, "ms"),
        "perf.cache.fingerprint_s": (runner.wl.setup_parts.get("fingerprint_s", 0.0), "s"),
        "perf.sweep.points": (points, "count"),
        "perf.sweep.point_s": (mean("perf.sweep.map", points), "s"),
        "perf.partition.speedup_2": (partition.get("speedup_2", 0.0), "x"),
        "perf.partition.identical": (int(partition.get("identical", False)), "bool"),
        "model.predicted_s": (predicted, "s"),
        "model.residual": ((wall - predicted) / wall, "ratio"),
        "ablation.macro.wall_ratio": (ablation.get("wall_ratio", 0.0), "x"),
        "ablation.macro.identical": (int(ablation.get("identical", False)), "bool"),
        "trace.overhead_ratio": (traced_wall / wall, "x"),
    }
    detail = {"model_parts_s": model, "model_counts": model_counts,
              "layer_self_s": t.layers(), "traced_wall_s": traced_wall}
    return metrics, detail


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def write_reference() -> int:
    """Capture every workload's rows at the reference seed."""
    doc: dict[str, Any] = {}
    for name in WORKLOADS:
        _s, workloads, wl = setup_once(name, 0)
        entry: dict[str, Any] = {}
        if name == "rerun":
            entry = {k: {"row": v} for k, v in wl.filled.items()}
        else:
            import layertrace

            log = layertrace.MachineLog()
            log.install()
            try:
                for op in wl.ops(0):
                    row = op.run()
                    counters = log.counters()
                    counters.pop("sim.events", None)
                    entry[op.label] = {"row": workloads.normalize(row),
                                       "counters": counters}
            finally:
                log.uninstall()
        wl.close()
        doc[name] = entry
        print(f"captured {len(entry)} rows for {name}", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process (so each reports
    its own peak RSS); prints each summary and one combined JSON line."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                                "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    setups = []
    wl = None
    for _ in range(SETUP_REPEATS[args.workload]):
        if wl is not None:
            wl.close()
        dt, workloads, wl = setup_once(args.workload, args.seed)
        setups.append(dt)
    import layertrace

    log = layertrace.MachineLog()
    log.install()
    runner = Runner(workloads, wl, log)
    try:
        m = measure(runner, args.seconds)
        metrics: dict[str, tuple[float, str]]
        detail: dict[str, Any] = {}
        if args.trace:
            import microbench

            costs = microbench.layer_costs(OUT)
            log.take()
            ablation = macro_ablation(runner, m) if args.workload == "kernels" else {}
            partition = partition_row(runner) if args.workload == "jacobi1024" else {}
            tp = traced_pass(runner)
            metrics, detail = per_layer(runner, m, tp, costs, ablation, partition)
            detail.update(costs_ns=costs, ablation=ablation, partition=partition)
            tp["tracer"].write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "wall_s": (m["wall_s"], "s"),
                "sim_cycles_per_s": (m["sim_cycles"] / m["wall_s"], "cycles/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
    finally:
        log.uninstall()
        wl.close()

    fail_ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    q1, q2, q3 = quartiles(setups)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_info(),
        "wall_s": m["wall_s"], "wall_raw_s": m["wall_raw_s"],
        "pass_total_s": m["pass_total_s"],
        "samples": m["passes"], "op_median_s": m["op_median_s"],
        "setup_s": {"q1": q1, "median": q2, "q3": q3, "samples": len(setups)},
        "setup_parts_s": wl.setup_parts,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": fail_ratio, "errors": runner.errors[:20],
        "metrics": {k: v for k, (v, _u) in metrics.items()}, **detail,
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    pt = m["pass_total_s"]
    print(f"perfbench {args.workload} seed={args.seed} host={report['host']}")
    print(f"  pass total s: median {pt['median']:.4f} "
          f"[q1 {pt['q1']:.4f}, q3 {pt['q3']:.4f}] over {m['passes']} passes")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(f"  fail_ratio = {fail_ratio:.6g} ratio ({runner.failed}/{runner.attempted})")
    for e in runner.errors[:5]:
        print(f"  error: {e}")
    print(result_line(runner.failed == 0, runner.attempted, runner.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
