"""Times at a reference CPU speed, from a fixed loop sampled on the measuring thread.

The machines this benchmark runs on are shared: the CPU speed a process gets
drifts by 1.5x within minutes, all of it in user time, while nothing in the
program changes. So every 50 ms a SIGALRM handler times a fixed pure-Python
loop on the measuring thread itself, and an interval is reported as

    (wall time - loop time inside it) * REF_LOOP_S / mean loop time inside it,

the seconds it would have taken at the reference speed. The loop belongs to the
benchmark, so no change to groupoidlab moves it. On the reference machine this
cut the spread of suite pass times from 0.12 to 0.05 (IQR/median, 17 passes).
The handler costs about 4% of a pass; that time is taken out of every interval
(spans of a traced pass still contain it).
"""

from __future__ import annotations

import signal
import time

# mean loop time on the reference machine (a shared 2-vCPU x86-64 virtual machine,
# CPython 3.11) when it ran fastest; it only fixes the unit of the scaled times
REF_LOOP_S = 0.0017
PERIOD_S = 0.05


def _loop() -> int:
    x = 0
    for i in range(20000):
        x += i * i % 7
    return x


class Speedometer:
    """Context manager that samples the loop while it is active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._old = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds."""
        inside = [d for s, d in self.samples if start <= s < end]
        # an interval shorter than the period is scaled by the latest sample before it
        speed = inside or [next((d for s, d in reversed(self.samples) if s < start), self.samples[0][1])]
        return (end - start - sum(inside)) * REF_LOOP_S * len(speed) / sum(speed)
