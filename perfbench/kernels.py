"""Kernel runs of the paper's experiments with a macro-effects switch.

Each function is one sweep point: it builds one simulated machine
through ``repro.experiments.common.make_machine``, runs it, checks the
application's own answer and returns the experiment's result row. The
bodies follow the ``measure_*`` functions of ``repro.experiments`` (at
the reference inputs they return the same rows) but expose the apps'
public ``macro=`` argument and take their data from the benchmark seed.
"""

from __future__ import annotations

import random

import numpy as np

from repro.apps.accum import (
    AccumFetchService,
    accum_message_passing,
    accum_shared_memory,
    fill_array,
)
from repro.apps.jacobi import JacobiApp, initial_grid, reference_jacobi
from repro.experiments import barrier_exp
from repro.experiments.common import make_machine, run_thread_timed
from repro.proc.effects import Load
from repro.runtime.barrier import MPTreeBarrier, SMTreeBarrier
from repro.runtime.bulk import BulkTransfer, copy_no_prefetch, copy_prefetch


class CheckFailed(Exception):
    """The application's own result check failed."""


def barrier(impl: str, n_nodes: int = 64, episodes: int = 4, macro: bool = True) -> int:
    """Fig. §4.2 barrier latency (cycles); SM binary tree or MP 8-ary tree."""
    if impl == "sm":
        return barrier_exp.measure_barrier(
            lambda m: SMTreeBarrier(m, arity=2, macro=macro), n_nodes, episodes
        )
    return barrier_exp.measure_barrier(
        lambda m: MPTreeBarrier(m, fanout=8), n_nodes, episodes
    )


def copy_values(n: int, data_seed: int) -> list[int]:
    """Source words of a copy: ``0..n-1`` at data seed 0 (the
    experiment's own data), seeded random words otherwise."""
    if data_seed == 0:
        return list(range(n))
    rng = random.Random(data_seed)
    return [rng.randrange(1 << 30) for _ in range(n)]


def memcpy(impl: str, nbytes: int, data_seed: int = 0, macro: bool = True) -> int:
    """Fig. 7 copy of ``nbytes`` to the adjacent node (cycles); the
    destination must hold the source words afterwards."""
    m = make_machine(4)
    n = nbytes // 8
    src = m.alloc(0, nbytes)
    dst = m.alloc(1, nbytes)
    values = copy_values(n, data_seed)
    for i, v in enumerate(values):
        m.store.write(src + i * 8, v)

    if impl == "message-passing":
        bulk = BulkTransfer(m)

        def bench():
            t0 = m.sim.now
            yield from bulk.send(1, src, dst, nbytes, wait_ack=True)
            return m.sim.now - t0
    else:
        copier = copy_no_prefetch if impl == "no-prefetching" else copy_prefetch

        def bench():
            for i in range(n):  # warm the source into the cache
                yield Load(src + i * 8)
            t0 = m.sim.now
            yield from copier(src, dst, nbytes, macro=macro)
            return m.sim.now - t0

    cycles, _total = run_thread_timed(m, bench())
    if [m.store._mem.get(dst + i * 8, 0) for i in range(n)] != values:
        raise CheckFailed(f"memcpy {impl} {nbytes}B: destination differs from source")
    return cycles


def accum(impl: str, nbytes: int, fill_seed: int = 1, macro: bool = True) -> int:
    """Fig. 8 sum of a remote array (cycles); the sum must be exact."""
    m = make_machine(4)
    n = nbytes // 8
    if impl == "sm":
        arr = m.alloc(1, nbytes)
        values = fill_array(m, arr, n, seed=fill_seed)

        def bench():
            t0 = m.sim.now
            total = yield from accum_shared_memory(arr, n, macro=macro)
            return total, m.sim.now - t0
    else:
        bulk = BulkTransfer(m)
        AccumFetchService(m, bulk)
        arr = m.alloc(1, nbytes)
        buf = m.alloc(0, nbytes)
        values = fill_array(m, arr, n, seed=fill_seed)

        def bench():
            t0 = m.sim.now
            total = yield from accum_message_passing(bulk, 1, arr, buf, n, macro=macro)
            return total, m.sim.now - t0

    (total, cycles), _t = run_thread_timed(m, bench())
    if total != sum(values):
        raise CheckFailed(f"accum {impl} {nbytes}B: sum {total} != {sum(values)}")
    return cycles


def jacobi(
    mode: str, grid_size: int, n_nodes: int = 64, iters: int = 6,
    omega: float = 0.9, macro: bool = True,
) -> float:
    """Fig. 11 Jacobi SOR (cycles per iteration); the grid must match
    the sequential numpy reference."""
    m = make_machine(n_nodes)
    app = JacobiApp(
        m, grid_size=grid_size, iters=iters, mode=mode, omega=omega, macro=macro
    )
    grid, cycles = app.run()
    ref = reference_jacobi(initial_grid(grid_size), iters, omega)
    if not np.allclose(grid, ref, rtol=1e-12, atol=1e-12):
        raise CheckFailed(f"jacobi {mode} {grid_size}: grid differs from numpy reference")
    return app.cycles_per_iteration(cycles)
