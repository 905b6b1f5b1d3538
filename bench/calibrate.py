"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU reference host each vCPU runs pure-Python work at
one of two speeds, about 1.8x apart, switching every few seconds on its
own, while the ratio between two pieces of work run on the same vCPU at
the same moment stays within a few per cent.  So the benchmark pins
itself, and every process and thread it starts, to one vCPU, and every
timed call is measured together with a speed probe: a small fixed piece
of the kind of work divtrees does (dict lookups, integer arithmetic,
string building, sorting).  The probe runs before and after the call,
and during it from a ``SIGALRM`` handler every ``SAMPLE_EVERY_S``
seconds, so a call that straddles a change of speed is scaled by the
speed it actually ran at.  The handler's own time is taken out of the
call's time.

A call's normalised time is its time scaled by ``REF_PROBE_S`` over the
mean probe time, to the power ``SENSITIVITY``: the time it would have
taken at the reference machine's fast speed.  The probe is the
benchmark's own code and never calls divtrees, so a change to divtrees
moves normalised times as it moves real ones.  The probe allocates no
container objects, so it never triggers the cyclic garbage collector
inside a call.
"""

from __future__ import annotations

import gc
import os
import signal
from statistics import median
from time import perf_counter

# probe time on the reference machine at its fast speed; it only fixes
# the scale, so normalised times read as real ones there
REF_PROBE_S = 0.0005
# a divtrees call slows down by the probe's slowdown to this power:
# fitted over eleven calls from the three workloads, whose own powers
# ranged from 0.74 to 1.05 (most 0.82 to 0.90)
SENSITIVITY = 0.85
PROBE_REPS = 5
SAMPLE_EVERY_S = 0.05

_TABLE = {i: i * 7 % 101 for i in range(512)}
_KEYS = tuple(range(0, 1024, 3))
_WORDS = tuple(f"w{i}" for i in range(64))


def _probe_work() -> int:
    acc = 0
    for _ in range(24):
        for k in _KEYS:
            v = _TABLE.get(k)
            if v is not None:
                acc += v * k % 13
        acc += len("".join(_WORDS))
    return acc + len(sorted(_WORDS, reverse=True))


def pin_to_one_cpu() -> None:
    """Run this process, and the threads and children it starts later,
    on one CPU, so probes and timed work see the same CPU's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe() -> float:
    """Median seconds of ``PROBE_REPS`` runs of the probe work."""
    times = []
    for _ in range(PROBE_REPS):
        start = perf_counter()
        _probe_work()
        times.append(perf_counter() - start)
    return median(times)


class Sampler:
    """Runs the probe every ``SAMPLE_EVERY_S`` seconds while active.

    ``samples`` holds the probe times, ``stolen`` the seconds the
    handler took from the code it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        _probe_work()
        self.samples.append(perf_counter() - start)
        self.stolen += perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def normalise(seconds: float, probes: list[float]) -> float:
    """``seconds`` of work that ran while the probe took ``probes``
    seconds, at the reference speed."""
    return seconds * (REF_PROBE_S * len(probes) / sum(probes)) ** SENSITIVITY


def measure(fn):
    """(fn(), normalised seconds fn took), probing before, during and
    after.  The cyclic garbage collector runs after ``fn``, outside the
    timing, so the next measured call starts from a collected heap, as a
    fresh console-script process would."""
    before = probe()
    with Sampler() as sampler:
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
    gc.collect()
    return result, normalise(seconds - sampler.stolen, [before, *sampler.samples, probe()])
