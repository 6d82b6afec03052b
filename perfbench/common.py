"""Shared helpers: percentiles, outside-in process accounting, failures."""

from __future__ import annotations

import math
import os
import statistics

from repro.exceptions import BackendError, NotOwner, ParameterError, ProtocolError
from repro.service.admission import RateLimited

#: Exceptions a request may end with that count as failed or refused.
REQUEST_FAILURES = (RateLimited, ProtocolError, BackendError, NotOwner, ParameterError)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = min(max(math.ceil(q * len(sorted_values)), 1), len(sorted_values))
    return sorted_values[rank - 1]


def windowed_percentile(windows: list[list[float]], q: float) -> float:
    """Median over windows of each window's percentile: a hiccup on a
    shared machine moves the windows it falls in, not the figure."""
    return statistics.median(percentile(sorted(w), q) for w in windows if w)


def proc_cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5); the split drops the first two.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Tally:
    """Requests attempted and failed, by exception type."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_kind: dict[str, int] = {}

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
