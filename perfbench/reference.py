"""Host speed, measured by a fixed reference loop run alongside the workload.

The VMs this benchmark runs on change speed by up to 2x within a
second and over minutes, as neighbours come and go, and a whole 10 s
run can land in a slow stretch. A fixed loop of interpreter work, which
calls no ``repro`` code, slows down with the workload. On a 2-vCPU VM,
repeating one fixed unit of work for 80 s with a few chunks after each
repetition, the IQR/median of the unit's time was 0.23 (a cluster-day
slice), 0.32 (150 serve ticks) and 0.12 (one tuning trial), and that of
unit time over the time of an interpreter-only chunk 0.14-0.16,
0.20-0.23 and 0.07-0.08. Chunks interleaved between ticks track the
host more closely still.

:class:`Reference` runs that loop in short chunks between the
workload's ticks, outside every tick's timing, until the chunks fill
:data:`SHARE` of the timed region. ``scale`` is then
:data:`NOMINAL_CHUNK_S` over the mean chunk time, and multiplying a
measured duration by it gives the duration on a host whose chunk takes
:data:`NOMINAL_CHUNK_S`. A change to ``repro`` cannot move the scale:
the loop and its inputs are fixed here.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Reference"]

#: Chunk time the scale maps to: about the median on a 2-vCPU x86 VM.
NOMINAL_CHUNK_S = 0.0035

#: Share of the timed region the chunks fill.
SHARE = 0.1

#: Chunks around a tick that give its local scale.
LOCAL_CHUNKS = 4


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float) -> None:
        self.x = x
        self.y = x * 0.5

    def total(self) -> float:
        return self.x + self.y


def chunk() -> float:
    """One unit of fixed work: integer/dict arithmetic, then small objects."""
    total = 0
    table: dict[int, int] = {}
    for i in range(12_000):
        total += i * i % 7
        table[i & 1023] = total
    acc = 0.0
    for i in range(3_000):
        point = _Point(i)
        acc += point.total() + max([point.x, point.y])
    return total + acc


class Reference:
    """Reference chunks interleaved with a timed region."""

    def __init__(self) -> None:
        #: Duration of each chunk since :meth:`start`, in run order.
        self.durations: list[float] = []
        self.seconds = 0.0
        self._start = time.perf_counter()

    @property
    def chunks(self) -> int:
        return len(self.durations)

    def start(self) -> None:
        """Begin the timed region: earlier chunks warmed the loop up."""
        self.durations.clear()
        self.seconds = 0.0
        self._start = time.perf_counter()

    def run(self, chunks: int) -> None:
        """Run ``chunks`` chunks back to back."""
        clock = time.perf_counter
        for _ in range(chunks):
            began = clock()
            chunk()
            elapsed = clock() - began
            self.durations.append(elapsed)
            self.seconds += elapsed

    def pace(self) -> None:
        """Run chunks until they fill :data:`SHARE` of the region so far."""
        clock = time.perf_counter
        while self.seconds < SHARE * (clock() - self._start):
            self.run(1)

    @property
    def scale(self) -> float:
        """Nominal over measured chunk time (1.0 before any chunk ran)."""
        if not self.chunks:
            return 1.0
        return NOMINAL_CHUNK_S * self.chunks / self.seconds

    def local_scales(self, positions: list[int]) -> np.ndarray:
        """The scale around each position of the chunk sequence.

        Position ``p`` is a moment when ``p`` chunks had run; its scale
        comes from the :data:`LOCAL_CHUNKS` chunks nearest to it, so a
        tick is scaled by the host speed of its own stretch of the run.
        """
        count = self.chunks
        if not count:
            return np.ones(len(positions))
        width = min(LOCAL_CHUNKS, count)
        low = np.clip(np.asarray(positions, dtype=int) - width // 2, 0, count - width)
        sums = np.concatenate(([0.0], np.cumsum(self.durations)))
        return NOMINAL_CHUNK_S * width / (sums[low + width] - sums[low])
