"""Speed probes: time on this host converted to time at a reference speed.

The CPUs the benchmark runs on change speed by 20-40% from one second to the
next (other tenants of the host), and each CPU changes on its own.  A timing
taken as it stands then mostly measures the host.  The benchmark therefore
runs a fixed piece of work, the probe, in the same thread as the work it
times, about every PERIOD_S, and reports

    (wall time - time spent in probes) * REF_PROBE_S / mean probe time

that is, the time the work would have taken had the CPU run the probe in
REF_PROBE_S.  Probes interleaved with the work in one thread see the state the
work saw; probes on another thread or process, which may sit on another CPU,
do not.

Main-thread work (every CLI command but `serve`, and the benchmark's own
set-up) is probed by a SIGALRM handler, which Python runs in the main thread
between bytecodes.  `eegauth serve` works in request threads, so launch.py
probes in those threads instead.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.05
# About the probe's time on a 2-vCPU cloud VM (Python 3.11); it only scales
# the reported times.
REF_PROBE_S = 0.003

_LOOPS = 18000


def timed_probe() -> tuple[float, float]:
    """Run the probe once; return (perf_counter at start, seconds taken).

    Pure Python, so it never lets go of the GIL: in `serve`, where requests
    run in parallel threads, a probe that released it (as numpy does) would
    also time whatever request took it meanwhile.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return start, time.perf_counter() - start


class Sampler:
    """Probes the main thread every PERIOD_S through SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(timed_probe())

    def measure(self, fn):
        """(seconds at reference speed, result) of `fn()` run in this thread."""
        self.start()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.stop()
        return reference_seconds(start, end, self.samples), result


def reference_seconds(start: float, end: float, samples, concurrency: int = 1) -> float:
    """Seconds at reference speed of the interval [start, end].

    `samples` are (start, seconds) probes, taken on the threads that did the
    interval's work; `concurrency` is how many of those threads ran at once,
    so that probe time is taken off the interval's wall time once.
    """
    inside = [seconds for at, seconds in samples if start <= at < end]
    if not inside:  # the work never ran, as when every request failed
        return math.nan
    busy = (end - start) - sum(inside) / concurrency
    return busy * REF_PROBE_S / statistics.mean(inside)
