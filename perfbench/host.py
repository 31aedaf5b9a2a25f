"""Host facts every run reports, and the statistic that copes with host noise.

The benchmark runs on shared machines where the hypervisor can take a
large share of the CPU ("steal").  Steal inflates wall times and
latency tails but not process CPU time, so every run records the steal
share over its own measured interval; a run with heavy steal is
flagged in the report, never dropped.

A shared CPU also changes speed in spells: with no steal recorded, the
same serving work ran at about 93,000 queries/s for spells of up to
75 s and at 110,000-190,000 queries/s in bursts between them (2-vCPU
virtual machine, 0.5 s samples over 300 s).  The contended speed is
the steady one, so a figure that depends on CPU speed is timed in many
short slices spread over the run and charged at :data:`SLOW_QUANTILE`
of the slices' times (:func:`slow_share`).  Over 20-30 s of those
samples this read within 2-7% from window to window, where the minimum
varied by 13-55% and the mean by 11-17%.

Steal comes in bursts and in episodes of minutes: runs a few minutes
apart on the same machine lost 0.3% and 16% of the CPU.  A stolen CPU
delays every query queued on it and, with fewer CPU cycles, makes
batches larger, so the serve workloads read the steal of the CPU they
are pinned to at every slice (:class:`CpuSteal`) and measure latency
and CPU per query over the quiet slices (:func:`quiet`).
"""

from __future__ import annotations

import contextlib
import os
import resource
import time
from collections.abc import Iterator

import numpy as np

SETUP_REPEATS = 7
"""Set-ups per run; ``setup_s`` is their median."""

HEAVY_STEAL_FRAC = 0.10
"""A run losing more than this share of the CPUs to steal is flagged."""

SLOW_QUANTILE = 0.75
"""Quantile of per-slice times at which host-speed figures are charged."""


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@contextlib.contextmanager
def one_cpu() -> Iterator[int]:
    """Run the calling process on its lowest allowed CPU, then restore.

    Yields the number of CPUs allowed before pinning.  Threads started
    inside inherit the pin.  Where affinity cannot be set, nothing
    changes.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:  # not Linux
        yield nproc()
        return
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield len(allowed)
    finally:
        os.sched_setaffinity(0, allowed)


def pinned_cpu() -> int | None:
    """The one CPU this process may run on; None if it may use more."""
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:  # not Linux
        return None
    return min(allowed) if len(allowed) == 1 else None


def _cpu_ticks(line: str = "cpu") -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of one /proc/stat line: ``cpu`` sums
    all CPUs, ``cpuN`` is CPU N alone."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            for row in stat:
                fields = row.split()
                if fields and fields[0] == line:
                    break
            else:
                return None
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already included in user, so it is not added again.
    values = [int(v) for v in fields[1:9]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


class StealMeter:
    """Share of all CPUs' time stolen by the hypervisor since creation
    (0.0 where /proc/stat is unavailable)."""

    def __init__(self) -> None:
        self._start = _cpu_ticks()

    def fraction(self) -> float:
        end = _cpu_ticks()
        if self._start is None or end is None:
            return 0.0
        total = end[1] - self._start[1]
        return (end[0] - self._start[0]) / total if total > 0 else 0.0


class CpuSteal:
    """Jiffies stolen from one CPU, or from all CPUs when ``cpu`` is
    None; always 0 where /proc/stat is unavailable."""

    def __init__(self, cpu: int | None) -> None:
        self._line = "cpu" if cpu is None else f"cpu{cpu}"

    def ticks(self) -> int:
        read = _cpu_ticks(self._line)
        return read[0] if read is not None else 0


def quiet(steal_ticks: list[int] | np.ndarray) -> np.ndarray:
    """Indices of the slices that lost no more CPU to steal than the
    median slice: every unstolen slice when most are, else the quieter
    half."""
    steal = np.asarray(steal_ticks)
    return np.flatnonzero(steal <= np.median(steal))


def process_cpu_s() -> float:
    """User plus system CPU seconds of this process, all threads."""
    return time.process_time()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slow_share(per_unit: list[float] | np.ndarray, units: float) -> float:
    """``units`` charged at :data:`SLOW_QUANTILE` of the per-unit times.

    ``per_unit`` holds one time per unit of work (per query, say) for
    each slice of the run; the result is what ``units`` of work cost at
    the run's slower-quartile speed.
    """
    return float(np.quantile(np.asarray(per_unit), SLOW_QUANTILE)) * units
