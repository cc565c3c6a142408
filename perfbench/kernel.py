"""Reference kernel: the yardstick that converts wall time to nominal time.

The host this benchmark runs on shares its cores with other tenants, so
the same pure-Python work can take twice as long a minute later.  A fixed
kernel of dict, tuple and int work -- the operations the program's hot
paths are made of -- runs between operations, outside every timed
interval.  Each timed interval is multiplied by ``NOMINAL_S / reading``,
where ``reading`` is the kernel's measured duration in the same window:
a host running at half speed doubles both and the product stays put.
"""

from __future__ import annotations

import time

#: The kernel's duration on an unloaded reference host (2-core x86-64
#: container, CPython 3.11).  Only a unit: changing it rescales every
#: time metric by the same factor.
NOMINAL_S = 0.0015

#: Loop length of one kernel run.
KERNEL_STEPS = 4000


def kernel() -> int:
    """One fixed unit of dict/tuple/int work; returns a checksum."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(KERNEL_STEPS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
        pair = (acc, i)
        acc = (pair[0] * 31 + pair[1]) & 0xFFFFFF
    for (a, b), value in table.items():
        acc ^= value + a * b
    return acc


def reading() -> float:
    """Seconds one kernel run takes right now (median of three runs, so
    one preemption inside a run does not skew the window)."""
    perf = time.perf_counter
    samples = []
    for _ in range(3):
        start = perf()
        kernel()
        samples.append(perf() - start)
    samples.sort()
    return samples[1]


class NominalClock:
    """Scales raw durations by the kernel readings around them.

    Call :meth:`mark` between operations (never inside a timed one).  The
    durations added between readings ``k`` and ``k + 1`` are scaled by the
    median of readings ``k - 1 .. k + 2``: the two that bracket them and
    one on either side, so one disturbed reading cannot skew a window.
    ``readings`` keeps every reading so a slow host can be told apart
    from a slow program.
    """

    def __init__(self) -> None:
        self.readings: list[float] = [reading()]
        #: per closed window: the durations it holds, oldest first.
        self._windows: list[list[tuple[list, float]]] = []
        self._open: list[tuple[list, float]] = []
        self._scaled = 0

    def add(self, sink: list, raw_s: float) -> None:
        """Queue one raw duration for ``sink``; scaled once the readings
        after it are in."""
        self._open.append((sink, raw_s))

    def mark(self) -> None:
        self.readings.append(reading())
        self._windows.append(self._open)
        self._open = []
        self._flush(final=False)

    def flush(self) -> None:
        """Scale everything still pending (end of a phase)."""
        self.mark()
        self._flush(final=True)

    def _flush(self, final: bool) -> None:
        readings = self.readings
        while self._scaled < len(self._windows):
            k = self._scaled
            if not final and k + 2 >= len(readings):
                return
            around = sorted(readings[max(0, k - 1):k + 3])
            mid = len(around) // 2
            typical = (around[mid] if len(around) % 2
                       else (around[mid - 1] + around[mid]) / 2.0)
            factor = NOMINAL_S / typical
            for sink, raw_s in self._windows[k]:
                sink.append(raw_s * factor)
            self._windows[k] = []
            self._scaled += 1
    def summary(self) -> dict:
        ordered = sorted(self.readings)
        n = len(ordered)
        return {
            "nominal_ms": NOMINAL_S * 1000.0,
            "count": n,
            "min_ms": ordered[0] * 1000.0,
            "median_ms": ordered[n // 2] * 1000.0,
            "max_ms": ordered[-1] * 1000.0,
        }
