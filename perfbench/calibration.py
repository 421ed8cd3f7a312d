"""Calibration: a fixed piece of the benchmark's own work, timed before
every operation, by which each operation's wall time is taken to the
reference speed of the machine.  See perfbench/README.md.
"""

from __future__ import annotations

import statistics
import time


class Calibration:
    """A fixed piece of work, timed before every operation, that follows
    the speed of the machine: the workload's `calibrate`, which runs the
    benchmark's own reference code and never the program.

    A shared virtual machine moves between speed states, for seconds to
    minutes at a time, in which the same operation takes up to twice as
    long.  Each operation's wall time is multiplied by `ref_ms` over
    the median of the samples taken within WINDOW operations of it, which
    gives its time at the reference speed: the speed at which one sample
    takes `ref_ms`.  The program's own speed-ups and slow-downs pass
    through unchanged, because the calibration does not call the program."""

    WINDOW = 4

    def __init__(self, work, ref_ms: float):
        self.work = work
        self.ref_s = ref_ms * 1e-3

    def sample(self) -> float:
        """Seconds for one piece of the fixed work."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def factor(self, samples: list[float]) -> float:
        return self.ref_s / statistics.median(samples)

    def factors(self, samples: list[float]) -> list[float]:
        """For each sample's operation, the factor that takes its wall
        time to the reference speed."""
        n, w = len(samples), self.WINDOW
        return [self.factor(samples[max(0, i - w):min(n, i + w + 1)]) for i in range(n)]
