"""Host-speed calibration for the wall-clock metrics.

On a shared machine the same simulation can take 40% longer from one
minute to the next: the host's speed drifts with the load of its other
tenants.  The benchmark therefore times a fixed, benchmark-owned loop of
pure-Python work (a heap of small objects, dict updates, a little
SHA-256 -- the operations the simulator's hot path is made of) right
before and after every slice of a timed run, and scales each slice's
wall time by how fast the host ran that loop.  The result is wall time
on a *reference host*, one on which the loop takes
:data:`NOMINAL_SECONDS`.

The loop uses nothing from ``src/``, so a change to the program can
never change the calibration; only the host can.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import time

#: the loop's wall time on the reference host (a 2-core x86-64 cloud
#: VM with CPython 3.11), seconds
NOMINAL_SECONDS = 0.004

_EVENTS = 3000


class _Item:
    __slots__ = ("key", "value", "seq")

    def __init__(self, key: int, value: int, seq: int):
        self.key = key
        self.value = value
        self.seq = seq


def calibration_seconds() -> float:
    """Wall time of one run of the fixed calibration loop."""
    rng = random.Random(7)
    heap = []
    table = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(256):
        push(heap, (rng.random(), i, _Item(i % 61, i, i)))
    started = time.perf_counter()
    for n in range(_EVENTS):
        t, _, item = pop(heap)
        table[item.key] = table.get(item.key, 0) + item.value
        if n % 8 == 0:
            hashlib.sha256(b"%d" % n).digest()
        push(heap, (t + rng.random(), 256 + n, _Item((item.key * 7 + n) % 61, item.value + 1, n)))
    return time.perf_counter() - started


def to_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` measured between two calibrations, as reference seconds."""
    return wall_s * NOMINAL_SECONDS / ((before_s + after_s) / 2.0)
