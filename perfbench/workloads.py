"""The benchmark's four workloads, built from the benchmark seed.

One operation is one sweep point: one simulated machine run (for
``rerun``, one point replayed from or published to the run cache).
The seed reaches the program only as generated inputs:

* ``sched``: the Runtime seeds (work-stealing victim choice) of the
  fig9 and fig10 runs, one per pass;
* ``kernels``: the words copied by fig7, the array summed by fig8, the
  relaxation factor of fig11 and the fault seeds of the faults runs,
  one per pass;
* ``jacobi1024``: the relaxation factor;
* ``rerun``: the fault seeds that turn the faults points into cache
  misses.

At :data:`REF_SEED` every input equals the experiment's own default,
so the rows are the paper runs' rows and are checked against
``reference.json``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
import shutil
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import kernels
from kernels import CheckFailed
from repro.apps.aq import aq_sequential, default_integrand
from repro.cli import QUICK_ARGS
from repro.experiments import (
    ALL_EXPERIMENTS,
    faults_exp,
    fig7_memcpy,
    fig8_accum,
    fig9_grain,
    fig10_aq,
    fig11_jacobi,
    rti_exp,
)
from repro.perf.cache import RunCache, activate, code_fingerprint
from repro.perf.sweep import SweepPoint, SweepRunner

REF_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")

#: sched: fig9 tree depth (the paper's is 12) and rti trials per kind
GRAIN_DEPTH = 9
GRAIN_DELAYS = (0, 1000)
AQ_TOL = 3e-3
RTI_TRIALS = 4
#: jacobi1024: grid and iterations of the 1024-node fig11 point
J1024_GRID = 64
J1024_ITERS = 2


@dataclass
class Op:
    """One sweep point. ``run`` returns the result row; ``check``
    returns failure messages (the app's own checks that ``run`` does
    not already raise on); ``macro_off`` is the same run with the
    apps' macro-effects switched off."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]] | None = None
    macro_off: Callable[[], Any] | None = None
    points: int = 1
    #: compare row and counters with reference.json at REF_SEED
    ref: bool = True


def normalize(row: Any) -> Any:
    """JSON round trip, so rows compare equal to stored references."""
    return json.loads(json.dumps(row))


def load_reference(name: str) -> dict[str, Any]:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(name, {})


def omega_for(seed: int) -> float:
    """Relaxation factor: the experiment's 0.9 at REF_SEED."""
    if seed == REF_SEED:
        return 0.9
    return round(0.8 + 0.15 * random.Random(seed).random(), 6)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        #: per-layer setup figures (seconds), reported in trace mode
        self.setup_parts: dict[str, float] = {}

    def ops(self, pass_index: int) -> list[Op]:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever set-up left on disk."""


# ----------------------------------------------------------------------
class Sched(Workload):
    """fig9 grain + fig10 aq + rti, hybrid and SM schedulers, 64 nodes.

    Each pass draws a fresh Runtime seed from the benchmark seed (the
    experiments' own seed 0 at REF_SEED), so per-operation medians
    average over schedules instead of depending on one victim draw."""

    name = "sched"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        x0, y0, x1, y1 = fig10_aq.DOMAIN
        self.aq_ref = _drive(aq_sequential(default_integrand, x0, y0, x1, y1, AQ_TOL))

    def runtime_seed(self, pass_index: int) -> int:
        if self.seed == REF_SEED:
            return 0
        return random.Random(f"sched/{self.seed}/{pass_index}").randrange(1, 2**31)

    def ops(self, pass_index: int) -> list[Op]:
        rs = self.runtime_seed(pass_index)
        ops = [
            Op(f"fig9/{kind}/l={delay}",
               partial(fig9_grain.measure_grain, kind, delay,
                       depth=GRAIN_DEPTH, n_nodes=64, seed=rs))
            for delay in GRAIN_DELAYS
            for kind in ("hybrid", "sm")
        ]
        ops += [
            Op(f"fig10/{kind}/tol={AQ_TOL}",
               partial(fig10_aq.measure_aq, kind, AQ_TOL, n_nodes=64, seed=rs),
               check=self._check_aq)
            for kind in ("hybrid", "sm")
        ]
        ops += [
            Op(f"rti/{kind}",
               partial(rti_exp.measure_rti, kind, n_nodes=64, trials=RTI_TRIALS),
               check=_check_rti)
            for kind in ("hybrid", "sm")
        ]
        return ops

    def _check_aq(self, row: Any) -> list[str]:
        value, _cycles = row
        if abs(value - self.aq_ref) > 1e-9 * max(1.0, abs(self.aq_ref)):
            return [f"aq integral {value!r} != sequential quadrature {self.aq_ref!r}"]
        return []


def _drive(gen) -> Any:
    """Run an effect generator without a machine; returns its value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def _check_rti(row: Any) -> list[str]:
    invoker, invokee = row
    if not (0 < invoker < invokee):
        return [f"rti times out of order: Tinvoker={invoker} Tinvokee={invokee}"]
    return []


# ----------------------------------------------------------------------
class Kernels(Workload):
    """barrier, fig7, fig8, fig11 at 64 nodes and faults, paper sizes.

    The faults runs draw a fresh fault seed per pass (the experiment's
    own seed 1 at REF_SEED): retransmission timeouts make their
    simulated cycles depend on the loss pattern, and per-operation
    medians then average over patterns."""

    name = "kernels"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        ops: list[Op] = []

        def add(label: str, fn: Callable, macro: bool, **kw: Any) -> None:
            ops.append(Op(
                label, partial(fn, **kw),
                macro_off=partial(fn, macro=False, **kw) if macro else None,
            ))

        for impl in ("sm", "mp"):
            add(f"barrier/{impl}", kernels.barrier, impl == "sm",
                impl=impl, n_nodes=64, episodes=4)
        for nbytes in fig7_memcpy.DEFAULT_SIZES:
            for impl in fig7_memcpy.IMPLS:
                add(f"fig7/{impl}/{nbytes}", kernels.memcpy,
                    impl != "message-passing", impl=impl, nbytes=nbytes,
                    data_seed=seed)
        for nbytes in fig8_accum.DEFAULT_SIZES:
            for impl in ("sm", "mp"):
                add(f"fig8/{impl}/{nbytes}", kernels.accum, True,
                    impl=impl, nbytes=nbytes, fill_seed=1 + seed)
        for g in fig11_jacobi.DEFAULT_GRIDS:
            for mode in ("sm", "mp"):
                add(f"fig11/{mode}/{g}", kernels.jacobi, True, mode=mode,
                    grid_size=g, n_nodes=64, iters=6, omega=omega_for(seed))
        self._ops = ops

    def fault_seed(self, pass_index: int) -> int:
        if self.seed == REF_SEED:
            return 1
        return random.Random(f"faults/{self.seed}/{pass_index}").randrange(2, 2**31)

    def ops(self, pass_index: int) -> list[Op]:
        faults = [
            Op(f"faults/{p.kwargs['workload']}/{p.kwargs['drop']}",
               partial(faults_exp.measure_point, **p.kwargs))
            for p in faults_exp.sweep(seed=self.fault_seed(pass_index))
        ]
        return self._ops + faults


# ----------------------------------------------------------------------
class Jacobi1024(Workload):
    """fig11 on a 1024-node (32x32) machine, serial."""

    name = "jacobi1024"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self._ops = [
            Op(f"fig11/{mode}/{J1024_GRID}@1024",
               partial(kernels.jacobi, mode, J1024_GRID, n_nodes=1024,
                       iters=J1024_ITERS, omega=omega_for(seed)))
            for mode in ("sm", "mp")
        ]

    def ops(self, pass_index: int) -> list[Op]:
        return self._ops

    #: the 2-shard evidence row runs the experiment's own point function
    partition_point = SweepPoint(
        "repro.experiments.fig11_jacobi:measure_jacobi",
        {"mode": "sm", "grid_size": J1024_GRID, "n_nodes": 1024,
         "iters": J1024_ITERS},
    )


# ----------------------------------------------------------------------
def quick_sweeps() -> dict[str, list[SweepPoint]]:
    """The quick paper sweep (``run all --quick``) as sweep points."""
    out = {}
    for exp, run in ALL_EXPERIMENTS.items():
        mod = importlib.import_module(run.__module__)
        params = inspect.signature(mod.sweep).parameters
        kw = {k: v for k, v in QUICK_ARGS[exp].items() if k in params}
        out[exp] = mod.sweep(**kw)
    return out


def point_key(p: SweepPoint) -> str:
    return f"{p.fn} {json.dumps(sorted(p.kwargs.items()))}"


class Rerun(Workload):
    """Regenerate the quick sweep against a run cache filled in set-up;
    each pass re-seeds the four faults points with fault seeds drawn
    from the benchmark seed, so they miss, compute and publish while
    the other 31 points replay from the cache."""

    name = "rerun"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.rng = random.Random(seed)
        self.sweeps = quick_sweeps()
        self.cache_dir = out_dir / f"cache-{time.time_ns()}"
        self.cache = RunCache(self.cache_dir)
        t0 = time.perf_counter()
        for mod in {p.fn.partition(":")[0] for ps in self.sweeps.values() for p in ps}:
            code_fingerprint(mod)
        self.setup_parts["fingerprint_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.filled: dict[str, Any] = {}
        with activate(self.cache):
            for points in self.sweeps.values():
                for p, r in zip(points, SweepRunner(jobs=1).map(points)):
                    self.filled[point_key(p)] = normalize(r)
        self.setup_parts["fill_s"] = time.perf_counter() - t0
        self.ref = load_reference(self.name)

    def ops(self, pass_index: int) -> list[Op]:
        out = []
        for exp, points in self.sweeps.items():
            fresh: set[int] = set()
            if exp == "faults":
                # fresh fault seeds (above 10**6, clear of the sweep's
                # own) turn every faults point into a miss; perturbing
                # all of them keeps each pass's computed work the same
                fresh = set(range(len(points)))
                points = [
                    SweepPoint(p.fn, {**p.kwargs,
                                      "seed": 10**6 + self.rng.randrange(10**9)})
                    for p in points
                ]
            out.append(Op(
                exp, partial(self._replay, points),
                check=partial(self._check, points, fresh),
                points=len(points), ref=False,
            ))
        return out

    def _replay(self, points: list[SweepPoint]) -> list[Any]:
        with activate(self.cache):
            return SweepRunner(jobs=1).map(points)

    def _check(self, points: list[SweepPoint], fresh: set[int], rows: list[Any]) -> list[str]:
        errors = []
        for i, (p, row) in enumerate(zip(points, rows)):
            if i in fresh:
                continue  # a fresh fault seed: the point checks its own data
            key = point_key(p)
            want = self.ref.get(key, {}).get("row", self.filled[key])
            if normalize(row) != want:
                errors.append(f"{key}: replayed {row!r} != reference {want!r}")
        return errors

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sched, Kernels, Jacobi1024, Rerun)}


def check_reference(name: str, ref: dict[str, Any], op: Op, row: Any,
                    counters: dict[str, int]) -> list[str]:
    """Row, simulated cycles and stats counters against the reference
    (event counts excluded: eliding events is not a wrong answer)."""
    want = ref.get(op.label)
    if want is None:
        return [f"{name}/{op.label}: no reference row"]
    errors = []
    if normalize(row) != want["row"]:
        errors.append(f"{op.label}: row {row!r} != reference {want['row']!r}")
    got = {k: v for k, v in counters.items() if k != "sim.events"}
    if got != want["counters"]:
        diff = sorted(k for k in set(got) | set(want["counters"])
                      if got.get(k) != want["counters"].get(k))
        errors.append(f"{op.label}: counters differ from reference: {diff}")
    return errors

