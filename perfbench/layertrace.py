"""Layer tracing installed from outside the simulator.

The traced pass wraps the public entry points of each layer (module)
on their *classes* before any machine is built: hot paths bind methods
at construction time (``network.attach(node, cmmu._sink)``,
``proc.idle_hook = sched.idle_step``, the batch runners' prebound
callbacks), so a wrapper installed later would never run.

Every wrapped call is a span ``(id, name, start, end, parent)``. Per
span name the tracer keeps the call count, the total time and the self
time (the span's time minus the time of its child spans), computed on
exit from a stack of child-time accumulators. Raw spans are kept in
memory up to a cap and written out once, at the end of the run.
Generator functions (scheduler idle loops, steal handlers) are wrapped
in a proxy generator whose every resume is one span.

:class:`MachineLog` is the one hook that is also installed in untraced
runs: it records each machine as it is built (one call per machine,
nothing per event), so the benchmark can read simulated cycles and the
stats records of every machine a sweep point ran.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

#: (module, class or None for a module function, attribute, span name, kind)
TRACE_POINTS: list[tuple[str, str | None, str, str, str]] = [
    ("repro.sim.engine", "Simulator", "run", "sim.run", "fn"),
    ("repro.sim.engine", "Simulator", "step", "sim.step", "fn"),
    ("repro.machine.machine", "Machine", "__init__", "machine.build", "fn"),
    ("repro.machine.machine", "Machine", "run", "machine.run", "fn"),
    ("repro.proc.processor", "Processor", "_dispatch", "proc.dispatch", "fn"),
    ("repro.proc.processor", "Processor", "_complete", "proc.complete", "fn"),
    ("repro.proc.processor", "Processor", "_step", "proc.step", "fn"),
    ("repro.proc.processor", "Processor", "_execute", "proc.execute", "fn"),
    ("repro.proc.processor", "Processor", "_enter_handler", "proc.enter_handler", "fn"),
    ("repro.proc.batch", "_BatchBase", "_done_plain", "proc.batch_done", "fn"),
    ("repro.proc.batch", "_BatchBase", "_done_read", "proc.batch_done", "fn"),
    ("repro.proc.batch", "_BatchBase", "_done_fwd", "proc.batch_done", "fn"),
    ("repro.proc.batch", "_BatchBase", "_done_write", "proc.batch_done", "fn"),
    ("repro.proc.batch", "ComputeLoadBatch", "_loaded", "proc.batch_done", "fn"),
    ("repro.proc.batch", "SpinBatch", "_spin_probe", "proc.batch_done", "fn"),
    ("repro.proc.batch", "SpinBatch", "_backoff_done", "proc.batch_done", "fn"),
    ("repro.memory.coherence", "CoherenceEngine", "access", "memory.access", "fn"),
    ("repro.memory.coherence", "CoherenceEngine", "handle_packet",
     "memory.handle_packet", "fn"),
    ("repro.memory.coherence", "CoherenceEngine", "_home_enqueue", "memory.home", "fn"),
    ("repro.memory.coherence", "CoherenceEngine", "_line_release", "memory.home", "fn"),
    ("repro.memory.coherence", "CoherenceEngine", "_fill", "memory.fill", "fn"),
    ("repro.memory.coherence", "_Fill", "__call__", "memory.fill", "fn"),
    ("repro.memory.coherence", "CoherenceEngine", "dma_flush", "memory.dma_flush", "fn"),
    ("repro.network.fabric", "Network", "send", "network.send", "fn"),
    ("repro.cmmu.interface", "Cmmu", "launch", "cmmu.launch", "fn"),
    ("repro.cmmu.interface", "Cmmu", "_sink", "cmmu.sink", "fn"),
    ("repro.cmmu.interface", "Cmmu", "storeback", "cmmu.storeback", "fn"),
    ("repro.runtime.scheduler.base", "NodeScheduler", "idle_step",
     "runtime.idle_step", "fn"),
    ("repro.runtime.scheduler.base", "NodeScheduler", "_idle_gen", "runtime.idle", "gen"),
    ("repro.runtime.rt", "Runtime", "start_task", "runtime.start_task", "fn"),
    ("repro.runtime.scheduler.hybrid", "HybridScheduler", "steal_from",
     "runtime.steal", "gen"),
    ("repro.runtime.scheduler.hybrid", "HybridScheduler", "handle_steal_req",
     "runtime.steal", "gen"),
    ("repro.runtime.scheduler.hybrid", "HybridScheduler", "handle_steal_reply",
     "runtime.steal", "gen"),
    ("repro.runtime.scheduler.hybrid", "HybridScheduler", "handle_task",
     "runtime.queue", "gen"),
    ("repro.runtime.scheduler.hybrid", "HybridScheduler", "push", "runtime.queue", "gen"),
    ("repro.runtime.scheduler.hybrid", "HybridScheduler", "pop_local",
     "runtime.queue", "gen"),
    ("repro.runtime.scheduler.shmem", "ShmemScheduler", "steal_from",
     "runtime.steal", "gen"),
    ("repro.runtime.scheduler.shmem", "ShmemScheduler", "push", "runtime.queue", "gen"),
    ("repro.runtime.scheduler.shmem", "ShmemScheduler", "pop_local",
     "runtime.queue", "gen"),
    ("repro.perf.sweep", "SweepRunner", "map", "perf.sweep.map", "fn"),
    ("repro.perf.sweep", None, "run_point", "perf.sweep.point", "fn"),
    ("repro.perf.cache", "RunCache", "get", "perf.cache.get", "fn"),
    ("repro.perf.cache", "RunCache", "put", "perf.cache.put", "fn"),
    ("repro.perf.cache", None, "code_fingerprint", "perf.cache.fingerprint", "fn"),
]


def _owner(module: str, cls: str | None) -> Any:
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class MachineLog:
    """Records every machine built while installed (``machines`` is
    cleared by the caller after each sweep point)."""

    def __init__(self) -> None:
        self.machines: list[Any] = []
        self._patches = Patches()

    def install(self) -> None:
        from repro.machine.machine import Machine

        machines = self.machines

        def make(init):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                machines.append(self)
            return __init__

        self._patches.replace(Machine, "__init__", make)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> list[Any]:
        out = list(self.machines)
        self.machines.clear()
        return out

    def counters(self) -> dict[str, int]:
        """Summed counters of the machines built since the last take."""
        return sum_counters(self.take())


class SpanTracer:
    """In-memory span recorder with per-name count / total / self time."""

    def __init__(self, raw_cap: int = 20_000) -> None:
        #: span name -> [calls, total_ns, self_ns]
        self.agg: dict[str, list[int]] = {}
        #: (id, name, start_ns, end_ns, parent_id or -1), first raw_cap spans
        self.raw: list[tuple[int, str, int, int, int]] = []
        self.raw_cap = raw_cap
        self._stack: list[list[int]] = []  # [child_ns, span id]
        self._ids = 0
        self._patches = Patches()

    # -- wrappers -------------------------------------------------------
    def span_fn(self, fn: Callable, name: str) -> Callable:
        agg = self.agg.setdefault(name, [0, 0, 0])
        stack = self._stack
        raw = self.raw
        cap = self.raw_cap
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._ids
            tracer._ids = sid + 1
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += d
                    pid = parent[1]
                else:
                    pid = -1
                if sid < cap:
                    raw.append((sid, name, t0, t1, pid))

        wrapper.__wrapped__ = fn
        return wrapper

    def span_gen(self, genfn: Callable, name: str) -> Callable:
        resume = self.span_fn(_send, name)

        def wrapper(*args, **kwargs):
            return _resumes(genfn(*args, **kwargs), resume)

        wrapper.__wrapped__ = genfn
        return wrapper

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` as one span (the benchmark's own top-level spans)."""
        return self.span_fn(fn, name)(*args, **kwargs)

    # -- install --------------------------------------------------------
    def install(self, points=TRACE_POINTS) -> None:
        for module, cls, attr, name, kind in points:
            owner = _owner(module, cls)
            wrap = self.span_gen if kind == "gen" else self.span_fn
            self._patches.replace(owner, attr, lambda f, n=name, w=wrap: w(f, n))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results --------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def self_s(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def layers(self) -> dict[str, dict[str, float]]:
        """Self time and calls per layer (span-name prefix)."""
        out: dict[str, dict[str, float]] = {}
        for name, (calls, _total, self_ns) in self.agg.items():
            layer = name.split(".", 1)[0]
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_ns / 1e9
        return out

    def write(self, path: Path) -> None:
        """Write the span summary and the raw spans (JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": {
                name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for name, (c, t, s) in sorted(self.agg.items())
            },
            "layers": self.layers(),
            "raw_fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "raw_truncated": self._ids > len(self.raw),
            "raw": self.raw,
        }
        path.write_text(json.dumps(doc))


def _send(gen, value):
    return gen.send(value)


def _resumes(gen, resume):
    """Proxy generator: each resume of ``gen`` runs as one span."""
    value = None
    while True:
        try:
            effect = resume(gen, value)
        except StopIteration as stop:
            return stop.value
        value = yield effect


#: stats fields summed over every node of a machine
_PROC = ("effects", "handlers_run", "idle_probes", "contexts_run",
         "busy_cycles", "miss_switches")
_CACHE = ("hits", "misses", "evictions", "writebacks",
          "invalidations_received", "upgrades")
_COH = ("transactions", "read_misses", "write_misses", "upgrades",
        "prefetches_issued", "prefetches_dropped", "forwards",
        "invalidations", "writebacks", "local_transactions")
_CMMU = ("messages_sent", "messages_received", "data_words_sent",
         "dma_transfers", "interrupts_raised")


def machine_counters(m: Any) -> dict[str, int]:
    """Simulated cycles and stats counters of one finished machine.

    Everything here is simulated state and must repeat exactly for the
    same inputs, except ``sim.events``: eliding events must not count
    as a wrong answer, so callers leave it out of correctness checks."""
    c: dict[str, int] = {"cycles": m.sim.now, "sim.events": m.sim.events_processed}
    for f in _PROC:
        c[f"proc.{f}"] = sum(getattr(n.processor.stats, f) for n in m.nodes)
    for f in _CACHE:
        c[f"cache.{f}"] = sum(getattr(n.cache.stats, f) for n in m.nodes)
    for f in _COH:
        c[f"coh.{f}"] = getattr(m.coherence.stats, f)
    c["dir.software_traps"] = sum(n.directory.stats.software_traps for n in m.nodes)
    ns = m.network.stats
    c["net.packets"] = ns.packets
    c["net.words"] = ns.words
    c["net.total_latency"] = ns.total_latency
    for f in _CMMU:
        c[f"cmmu.{f}"] = sum(getattr(n.cmmu.stats, f) for n in m.nodes)
    rt = m.runtime
    if rt is not None:
        for f in ("steals_attempted", "steals_won", "tasks_run"):
            c[f"sched.{f}"] = sum(getattr(s, f"stats_{f}") for s in rt.schedulers)
    return c


def sum_counters(machines: list[Any]) -> dict[str, int]:
    total: dict[str, int] = {}
    for m in machines:
        for k, v in machine_counters(m).items():
            total[k] = total.get(k, 0) + v
    return total
