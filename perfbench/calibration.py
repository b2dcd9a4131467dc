"""Host-speed calibration: a fixed kernel timed between measurements.

On a shared host the speed of the CPU the benchmark gets drifts by 10-40%
over minutes, and every timing of a run drifts together.  The benchmark
therefore times this kernel -- interpreter work (dicts, sorting, small
objects, frozensets) and small NumPy calls, like the analysis itself, and
independent of ``repro`` -- between the measured operations of a run, and
reports times in *reference seconds*: measured seconds divided by the host
factor, the kernel's median time during the run over :data:`REFERENCE_S`.
A change to ``repro`` moves the operations but not the kernel, so it still
shows; a slow phase of the host moves both, and cancels.  (Measured over
10-second windows of steady iterations on the reference host: raw time
varied by 9% between windows (IQR/median), normalized time by 4%.)
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: the kernel's median time, timed between the operations of a run, on the
#: reference host (a 2-vCPU Intel Xeon VM on a shared machine)
REFERENCE_S = 0.0035
#: kernel repetitions per calibration
REPEATS = 7


class _Item:
    __slots__ = ("key", "members")

    def __init__(self, key: int, members: frozenset) -> None:
        self.key = key
        self.members = members


def kernel() -> int:
    """A fixed mix of interpreter and small-array work (a few ms)."""
    counts: dict[int, int] = {}
    for i in range(1500):
        slot = (i * 7919) % 1009
        counts[slot] = counts.get(slot, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: kv[1])
    items = [_Item(i, frozenset(range(i % 5))) for i in range(1000)]
    total = sum(item.key for item in items if item.members & {1, 3})
    values = np.arange(128)
    for i in range(150):
        total += int(np.searchsorted(values, values[::3] + (i & 7)).sum())
        total += int(np.flatnonzero((values[i % 7::5] & 3) == 1).size)
    return total + len(ranked)


def sample(repeats: int = REPEATS) -> list[float]:
    """``repeats`` timings of :func:`kernel`, in seconds."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def host_factor(samples: list[float]) -> float:
    """How much slower than the reference host this host ran while
    ``samples`` were taken (their median over :data:`REFERENCE_S`).  A
    single calibration is noisy; a run pools all of its samples."""
    return median(samples) / REFERENCE_S
