"""Host pace: a fixed pure-Python kernel timed next to every op.

On a shared host the speed of a core drifts by +-20% over seconds, and
more between minutes (CPU time drifts as much as wall time, so it is the
core, not the scheduler).  Pure-Python work slows down with it, but not all
work alike: work that stays in the core's private caches slows more than the
engine's ops do, work that reaches a larger table less.  The kernel does one
of each for about the same time: it builds a small dict of tuples of string
slices, and looks up strings in a table of 50k entries.  On the dense mix,
op time then goes with kernel time at a log-log slope of 1.0 (0.6 with the
first part alone), and the spread of 40-op means fell from 0.26 to 0.05 of
their median on a 2-vCPU VM.  The kernel does not touch the engine, so an
engine that gets faster or slower shows in full, while the host's drift
divides out.

Timed runs call `tick()` after every op.  An op's `pace` is
REFERENCE_SECONDS / (median of the kernel times around it), and its paced
latency is its wall time times that factor: milliseconds at the host speed
on which REFERENCE_SECONDS was measured.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

# A typical kernel time on a shared 2-vCPU VM (it ran 0.005-0.010 s there);
# it only sets the scale of paced times, so that they read as milliseconds on
# such a host.
REFERENCE_SECONDS = 0.0075
# Kernel samples on each side of an op that its pace is taken over.
HALF_WINDOW = 4

_RNG = random.Random(0)
_WORD = "".join(_RNG.choice("ab") for _ in range(32))
_TABLE = {f"f{i}": i for i in range(50_000)}
_PROBES = [f"f{_RNG.randrange(50_000)}" for _ in range(13_000)]


def kernel() -> int:
    """Count the (factor, left, right) splits of a fixed word, the shape of
    the engine's n^3 factor x split expansion, then look up fixed keys in a
    table too large for the core's private caches.  Plain Python."""
    w = _WORD
    n = len(w)
    seen: dict[tuple[str, str, str], int] = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            f = w[i:j]
            for k in range(i, j + 1):
                key = (f, w[i:k], w[k:j])
                seen[key] = seen.get(key, 0) + 1
    total = len(seen)
    for key in _PROBES:
        total += _TABLE[key]
    return total


def tick() -> float:
    """Seconds for one run of the kernel, with the garbage collector off so
    that the engine's live heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def paces(ticks: list[float]) -> list[float]:
    """Pace factor of each op from the kernel times measured after each op:
    the median over the op's neighbours, so one slow tick does not count."""
    out = []
    for i in range(len(ticks)):
        window = ticks[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
        out.append(REFERENCE_SECONDS / statistics.median(window))
    return out
