"""Machine-speed yardstick: scales end-to-end figures to a reference speed.

The benchmark runs on shared machines whose CPU speed drifts by up to
~1.5x within minutes, as other tenants load the same physical cores, so
the raw throughput of one run says as much about the neighbours as about
the program.  Each process that does measured work therefore also times a
fixed computation (a pure-Python integer loop with a SHA-512 call every
16 steps, the mix of bytecode and hashing the program itself runs) while
it works, and a figure is reported as it would read on a machine where
that computation takes :data:`REFERENCE_S`: a rate is multiplied by
``slowness`` (yardstick time over :data:`REFERENCE_S`), a time divided by
it.  The yardstick does not touch the program, so a faster program still
reads faster; a slower machine no longer does.  The raw figures and the
slowness are printed beside the scaled ones.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time

#: Seconds :func:`yardstick` takes on the reference machine (one vCPU of
#: a shared 2.0 GHz Xeon, Python 3.11, at a quiet moment).
REFERENCE_S = 0.0013
#: Seconds between yardstick samples while measured work runs; a sample
#: takes under 3% of that on the reference machine.
EVERY_S = 0.05

_BLOCKS = [bytes([i]) * 64 for i in range(64)]


def yardstick() -> float:
    """Time the fixed computation once; seconds."""
    sha512 = hashlib.sha512
    blocks = _BLOCKS
    start = time.perf_counter()
    acc = 0
    for i in range(4_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        if i & 15 == 0:
            acc ^= sha512(blocks[i & 63]).digest()[0]
    return time.perf_counter() - start


def slowness(samples: list[tuple[float, float]], lo: float | None = None, hi: float | None = None) -> float:
    """Mean yardstick time over :data:`REFERENCE_S` among ``(when,
    seconds)`` samples taken in ``[lo, hi]``, or among all of them when
    none was.  The mean, not the median: the machine flips between fast
    and slow spells shorter than a sample interval, and the work in
    between ran at their time-weighted average speed."""
    inside = [s for when, s in samples if (lo is None or when >= lo) and (hi is None or when <= hi)]
    return statistics.mean(inside or [s for _, s in samples]) / REFERENCE_S


def scaled_rate(segments: list[tuple[float, float, float]], sample_sets: list[list[tuple[float, float]]]) -> float:
    """Median over ``(start, end, rate)`` segments of each rate scaled to
    the reference speed, by the mean slowness of the processes whose
    samples are given over that segment."""
    return statistics.median(
        rate * statistics.mean(slowness(samples, lo, hi) for samples in sample_sets)
        for lo, hi, rate in segments
    )


class Sampler:
    """Takes a yardstick sample every :data:`EVERY_S` on the running event
    loop, between whatever else the loop runs, until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(EVERY_S)
            self._take()

    def _take(self) -> None:
        seconds = yardstick()
        self.samples.append((time.perf_counter() - seconds / 2, seconds))

    def window(self, lo: float, hi: float) -> tuple[float, float]:
        """(:func:`slowness`, yardstick seconds spent) over ``[lo, hi]``."""
        if not self.samples:
            self._take()
        spent = sum(seconds for when, seconds in self.samples if lo <= when <= hi)
        return slowness(self.samples, lo, hi), spent

    async def stop(self) -> list[tuple[float, float]]:
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        if not self.samples:
            self._take()
        return self.samples
