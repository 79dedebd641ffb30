"""Per-layer microbenchmarks and the additive cost model.

Each bench drives one layer through its public API and reports
nanoseconds per operation on the nominal host (see ``calibrate.py``),
*exclusive* of the layers below it: where a
bench also pumps engine events, sends packets or executes effects,
their cost (measured by the earlier benches) is subtracted. The model
then predicts a workload's host time as the sum over layers of
``ns/op x op count``, with the counts taken from the traced pass; the
residual against the measured ``wall_s`` is what the layers do not
explain (harness code, app set-up, numpy references, unwrapped
callbacks, and the interaction of the layers).
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import calibrate
from layertrace import SpanTracer
from repro.experiments.common import make_machine
from repro.memory.coherence import AccessKind
from repro.network.packet import Packet, PacketKind
from repro.perf.cache import RunCache
from repro.perf.sweep import SweepPoint
from repro.proc.effects import Compute, Repeat, Send
from repro.runtime.rt import Runtime
from repro.sim.engine import Simulator

REPEATS = 3


def _median(fn: Callable[[], tuple[float, Any]]) -> tuple[float, Any]:
    """Median nominal-host time of REPEATS calls of ``fn`` (which
    returns ``(seconds, info)``); ``info`` from the last call."""
    times = []
    info = None
    for _ in range(REPEATS):
        before = calibrate.measure()
        dt, info = fn()
        times.append(calibrate.scale(dt, before, calibrate.measure()))
    return statistics.median(times), info


def _noop() -> None:
    pass


def bench_engine(n: int = 60_000) -> tuple[float, int]:
    """Event pump: eight self-rescheduling chains of bare callbacks."""
    sim = Simulator()
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            sim.call_after(1 + (left[0] & 3), tick)

    for _ in range(8):
        sim.call_after(0, tick)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0, sim.events_processed


def _run_thread(m, gen) -> float:
    m.processor(0).run_thread(gen)
    t0 = time.perf_counter()
    m.run()
    return time.perf_counter() - t0


def bench_compute_micro(n: int = 20_000) -> tuple[float, int]:
    m = make_machine(4)

    def thread():
        for _ in range(n):
            yield Compute(1)

    return _run_thread(m, thread()), m.sim.events_processed


def bench_compute_macro(n: int = 40_000) -> tuple[float, int]:
    m = make_machine(4)

    def thread():
        yield Repeat(n, (Compute(1),))

    return _run_thread(m, thread()), m.sim.events_processed


def bench_local_hit(n: int = 40_000) -> tuple[float, None]:
    """CoherenceEngine.access on a line already in the local cache
    (timed up to scheduling the completion, not firing it)."""
    m = make_machine(4)
    coh = m.coherence
    addr = m.alloc(0, 16)
    coh.access(0, addr, AccessKind.READ, _noop)
    m.run()
    read = AccessKind.READ
    t0 = time.perf_counter()
    for _ in range(n):
        coh.access(0, addr, read, _noop)
    dt = time.perf_counter() - t0
    m.run()
    return dt, None


def bench_remote_miss(n: int = 2_000) -> tuple[float, dict[str, int]]:
    """Read misses to lines homed on a neighbour, one at a time."""
    m = make_machine(4)
    coh = m.coherence
    base = m.alloc(1, n * 16)
    read = AccessKind.READ
    t0 = time.perf_counter()
    for i in range(n):
        coh.access(0, base + i * 16, read, _noop)
        m.run()
    dt = time.perf_counter() - t0
    return dt, {"events": m.sim.events_processed, "packets": m.network.stats.packets}


def bench_send(n: int = 20_000) -> tuple[float, None]:
    """Network.send of prebuilt packets (delivery events not fired)."""
    m = make_machine(16)
    packets = [
        Packet(i % 16, (i * 7 + 3) % 16, PacketKind.USER_MESSAGE, 4)
        for i in range(n)
    ]
    send = m.network.send
    t0 = time.perf_counter()
    for p in packets:
        send(p)
    return time.perf_counter() - t0, None


def bench_message(n: int = 3_000) -> tuple[float, dict[str, int]]:
    """Send effect -> CMMU launch -> delivery -> handler entry/exit."""
    m = make_machine(4)

    def handler(msg):
        return
        yield  # pragma: no cover - makes this a generator

    m.processor(1).register_handler("perfbench.ping", handler)

    def thread():
        for _ in range(n):
            yield Send(1, "perfbench.ping")

    dt = _run_thread(m, thread())
    return dt, {"events": m.sim.events_processed,
                "packets": m.network.stats.packets,
                "effects": sum(nd.processor.stats.effects for nd in m.nodes)}


def _idle_run(cycles: int) -> tuple[float, dict[str, int]]:
    m = make_machine(16)
    rt = Runtime(m, scheduler="hybrid")

    def root(rt, node):
        yield Compute(cycles)
        return 1

    def finished(_value) -> None:
        rt.done = True  # idle loops stop probing, the queue drains

    rt.spawn_root(0, root, on_finish=finished)
    t0 = time.perf_counter()
    m.run()
    dt = time.perf_counter() - t0
    return dt, {
        "events": m.sim.events_processed,
        "packets": m.network.stats.packets,
        "effects": sum(nd.processor.stats.effects for nd in m.nodes),
        "messages": sum(nd.cmmu.stats.messages_sent for nd in m.nodes),
    }


def bench_idle(cycles: int = 30_000) -> tuple[float, dict[str, int]]:
    """Hybrid scheduler idle loops (local polls, steal probes) while
    one node computes; idle-loop resumes are counted once, on a
    separate run with a counting proxy (the count is deterministic)."""
    counter = SpanTracer(raw_cap=0)
    counter.install([("repro.runtime.scheduler.base", "NodeScheduler",
                      "_idle_gen", "runtime.idle", "gen")])
    try:
        _idle_run(cycles)
    finally:
        counter.uninstall()
    dt, info = _idle_run(cycles)
    info["idle_steps"] = counter.calls("runtime.idle")
    return dt, info


def bench_cache(root: Path, n: int = 200) -> dict[str, float]:
    """RunCache.put then RunCache.get of small entries on local disk
    (nominal-host seconds per put and per get)."""
    cache = RunCache(root)
    points = [SweepPoint("perfbench:point", {"i": i}) for i in range(n)]
    keys = [cache.key_for(p, "fp") for p in points]
    c0 = calibrate.measure()
    t0 = time.perf_counter()
    for k, p in zip(keys, points):
        cache.put(k, p, "fp", "", [p.kwargs["i"]] * 8, None, 0.0)
    t1 = time.perf_counter()
    c1 = calibrate.measure()
    t2 = time.perf_counter()
    for k, p in zip(keys, points):
        if cache.get(k, p) is None:
            raise RuntimeError("run cache lost an entry it just stored")
    t3 = time.perf_counter()
    c2 = calibrate.measure()
    shutil.rmtree(root, ignore_errors=True)
    return {"put_s": calibrate.scale(t1 - t0, c0, c1) / n,
            "get_s": calibrate.scale(t3 - t2, c1, c2) / n}


def layer_costs(scratch: Path) -> dict[str, float]:
    """Exclusive nominal-host ns per operation for each layer."""
    c: dict[str, float] = {}
    dt, events = _median(bench_engine)
    c["event"] = dt * 1e9 / events
    dt, events = _median(bench_compute_micro)
    c["effect_micro"] = (dt * 1e9 - events * c["event"]) / 20_000
    dt, events = _median(bench_compute_macro)
    c["effect_macro"] = (dt * 1e9 - events * c["event"]) / 40_000
    dt, _ = _median(bench_local_hit)
    c["hit"] = dt * 1e9 / 40_000
    dt, _ = _median(bench_send)
    c["packet"] = dt * 1e9 / 20_000
    dt, info = _median(bench_remote_miss)
    c["miss"] = (dt * 1e9 - info["events"] * c["event"]
                 - info["packets"] * c["packet"]) / 2_000
    dt, info = _median(bench_message)
    c["message"] = (dt * 1e9 - info["events"] * c["event"]
                    - info["packets"] * c["packet"]
                    - info["effects"] * c["effect_micro"]) / 3_000
    dt, info = _median(bench_idle)
    c["idle_step"] = (dt * 1e9 - info["events"] * c["event"]
                      - info["packets"] * c["packet"]
                      - info["effects"] * c["effect_micro"]
                      - info["messages"] * c["message"]) / info["idle_steps"]
    puts, gets = [], []
    for k in range(REPEATS):
        info = bench_cache(scratch / f"microbench-cache-{k}")
        puts.append(info["put_s"])
        gets.append(info["get_s"])
    c["cache_put"] = statistics.median(puts) * 1e9
    c["cache_get"] = statistics.median(gets) * 1e9
    return c


def predict(costs: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    """Predicted host seconds per layer: exclusive ns/op x op count
    (machine construction enters as its traced time)."""
    parts = {
        "sim.events": counts["sim.events"] * costs["event"],
        "proc.micro_effects": counts["micro_effects"] * costs["effect_micro"],
        "proc.macro_elements": counts["macro_elements"] * costs["effect_macro"],
        "memory.access_hits": counts["access_hits"] * costs["hit"],
        "memory.misses": counts["cache_misses"] * costs["miss"],
        "network.packets": counts["packets"] * costs["packet"],
        "cmmu.messages": counts["messages"] * costs["message"],
        "runtime.idle_steps": counts["idle_steps"] * costs["idle_step"],
        "perf.cache.gets": counts["cache_gets"] * costs["cache_get"],
        "perf.cache.puts": counts["cache_puts"] * costs["cache_put"],
    }
    out = {k: v / 1e9 for k, v in parts.items()}
    out["machine.build"] = counts["build_s"]
    return out
