"""The host's speed during the timed legs, and the scale it gives timings.

The benchmark runs on shared hosts whose CPUs change speed: within a
minute every leg, and its CPU time with it, can get 1.4-1.5x slower or
faster and stay so for minutes.  Seconds measured on such a host
compare the host's states, not two versions of the program.

While a run measures, a sampler thread in the benchmark process times a
fixed probe (a builtin loop that holds the interpreter lock throughout,
so the time it reads is the CPU's speed, not a wait for the lock) every
``PERIOD_S``.  Each timed leg reports its interval here; the mean probe
over all of a run's legs is how fast the host ran while they ran, and
their seconds are scaled by ``REFERENCE_S / mean probe``: seconds as
they read on a host where one probe takes ``REFERENCE_S``.  One scale
serves every leg of the run: warm legs are short, and a mean over them
alone is too few seconds of samples to be steady.  The probe runs no program code, so a change
to the program moves the scaled seconds as much as the measured ones.
The mean, not the median, is used: the host flips between a fast and a
slow state every few seconds, and a leg is slowed in proportion to the
share of its time spent in the slow one, which the mean estimates.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Seconds one probe takes on the host the scale is anchored to (about
#: the mean on a shared 2-vCPU Xeon VM, Python 3.11).
REFERENCE_S = 0.0006

#: Seconds between probes: about 1 % of one CPU.
PERIOD_S = 0.05

_PROBE_RANGE = range(20_000)


def probe_s() -> float:
    """Seconds one probe takes now."""
    started = time.perf_counter()
    sum(_PROBE_RANGE)
    return time.perf_counter() - started


class HostSpeed:
    """Probe samples and leg intervals of one run (``perf_counter`` times)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.legs: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._sample, name="perfbench-hostspeed", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            taken = probe_s()
            self.times.append(time.perf_counter())
            self.samples.append(taken)

    def leg(self, started: float, ended: float) -> None:
        self.legs.append((started, ended))

    def probe_mean(self) -> float:
        """Mean probe over the run's legs; over the whole run if none fell in them."""
        inside = [
            sample
            for started, ended in self.legs
            for sample in self.samples[
                bisect.bisect_left(self.times, started) : bisect.bisect_right(self.times, ended)
            ]
        ]
        return statistics.fmean(inside or self.samples)

    def scale(self) -> float:
        """Multiply seconds measured in the run's legs by this to get reference seconds."""
        return REFERENCE_S / self.probe_mean()


#: The run's sampler, while it measures; :func:`timed_leg` reports to it.
ACTIVE: HostSpeed | None = None


def note_leg(started: float, ended: float) -> None:
    if ACTIVE is not None:
        ACTIVE.leg(started, ended)
