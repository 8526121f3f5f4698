"""Wall-clock laps, optionally scaled to a machine of reference speed.

The machines this benchmark runs on are shared: the same pass can take
1.5x longer from one minute to the next, in CPU time as much as in wall
time.  `SpeedProbe` samples the machine's speed while a phase runs.  Every
PROBE_PERIOD seconds a SIGALRM handler times a fixed pure-Python job that
uses no bockstein code and no memory to speak of (a loop of integer
arithmetic), so that it measures the core's speed and not the program's
use of the caches.  A lap reports its raw seconds, without the probes' own
time, and those seconds scaled by PROBE_NOMINAL_S / (mean probe time): the
seconds the phase would take on a machine where the job takes
PROBE_NOMINAL_S.  A change to bockstein does not move the probe, so the
scaled figure keeps every change in the program's own speed.  The scaling
corrects most, not all, of the drift: programs that wait on memory slow
down somewhat more than the probe does.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List, Tuple

PROBE_PERIOD = 0.025
PROBE_NOMINAL_S = 0.0003


def _probe_job() -> int:
    total = 0
    for i in range(4000):
        total += (i * i) % 7
    return total


def scaled(raw: float, samples: List[float]) -> float:
    return raw * PROBE_NOMINAL_S / statistics.fmean(samples)


class Stopwatch:
    """Plain laps: raw and scaled seconds are the same."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def start(self) -> None:
        self._t = perf_counter()

    def lap(self) -> Tuple[float, float]:
        t = perf_counter()
        raw = t - self._t
        self._t = t
        return raw, raw


class SpeedProbe(Stopwatch):
    """Laps scaled by the machine speed sampled during each of them.
    `history` keeps every sample taken while the probe was entered."""

    def __init__(self) -> None:
        self.history: List[float] = []

    def __enter__(self):
        self._samples: List[float] = []
        self._spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _probe(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _probe_job()
        t = perf_counter() - t0
        self._samples.append(t)
        self.history.append(t)
        self._spent += t

    def start(self) -> None:
        self._samples, self._spent = [], 0.0
        super().start()

    def lap(self) -> Tuple[float, float]:
        """(raw, scaled) seconds since the last start or lap."""
        t = perf_counter()
        raw = t - self._t - self._spent
        if not self._samples:
            self._probe()
        samples = self._samples
        self.start()
        return raw, scaled(raw, samples)
