"""Frozen host-speed calibration loop.

Shared hosts change speed by tens of percent from second to second
(other tenants contending for the core and its caches), far more than
the bounds the benchmark must hold. The benchmark therefore times this
loop right before and right after every operation and scales the
operation's host time to a nominal host on which the loop takes
:data:`NOMINAL_S` seconds.

The loop is a miniature of the simulator's host work (a heap-ordered
event queue, generator resumes, dict traffic over a table larger than
the first-level caches) written without any ``repro`` code, so no
change to the program can move it. Do not edit it or
:data:`NOMINAL_S`: every recorded host time is relative to them.
"""

from __future__ import annotations

import heapq
import time

#: seconds the loop takes on the nominal host
NOMINAL_S = 0.010


def _worker(k: int, table: dict[int, int]):
    acc = k
    for i in range(40):
        acc = (acc * 1103515245 + 12345) & 0xFFFFF
        table[acc] = table.get(acc, 0) + i
        yield 1 + (acc & 7)


def _loop(n_procs: int = 200) -> int:
    table: dict[int, int] = {}
    heap = [(0, k, _worker(k, table)) for k in range(n_procs)]
    heapq.heapify(heap)
    seq = n_procs
    while heap:
        now, _seq, gen = heapq.heappop(heap)
        try:
            delay = gen.send(None)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, gen))
        seq += 1
    return len(table)


def measure() -> float:
    """Host seconds of one run of the loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations ``before`` and
    ``after``, expressed on the nominal host."""
    return seconds * NOMINAL_S * 2 / (before + after)
