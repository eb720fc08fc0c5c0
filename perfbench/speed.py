"""Host speed probe: rescale timings to a fixed reference speed.

On a shared virtual machine the same pure-Python code runs up to about
2x slower when the host is busy, in spells of a fraction of a second to
minutes, and CPU time slows with wall time. A timing taken in one such
spell says more about the host than about monodom. So the benchmark times
a fixed pure-Python loop (the probe) while it measures, and rescales:

    time at reference speed = measured time * REF_S / probe time

REF_S is about the probe's time on a quiet 2.1 GHz Xeon vCPU with
Python 3.11, so there the rescaled and the measured times roughly agree.
The probe uses the interpreter's dict and int paths, as monodom does,
and allocates no tracked containers, so it triggers no garbage
collection. A change to monodom cannot move the probe; the measured
times are kept beside the rescaled ones in every result file.

While ``sampling()`` is active, a timer interrupts the work every few
tenths of a second to probe, so even one long call is rescaled by the
speed the host had during it. ``clock()`` leaves the probes' own time
out, so the timings and spans taken with it do not include them.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

REF_S = 0.0080  # probe time at reference speed
_N = 40000  # loop iterations per probe

_paused = 0.0  # seconds spent probing so far
samples: list[tuple[float, float]] = []  # (clock() at the probe, probe seconds)


def _loop(n: int) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = i & 1023
        table[key] = table.get(key, 0) + (i * i) % 7
        acc ^= i & -i
    return acc + len(table)


def probe() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    _loop(_N)
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a time measured while the probe took probe_s into reference time."""
    return REF_S / probe_s


def clock() -> float:
    """perf_counter() without the time spent in sample()."""
    paused = _paused  # read first: the timer's handler can only run after the call below
    return time.perf_counter() - paused


def sample(*_) -> None:
    """Probe once and record it; also the timer's signal handler."""
    global _paused
    t0 = time.perf_counter()
    samples.append((t0 - _paused, probe()))
    _paused += time.perf_counter() - t0


@contextlib.contextmanager
def sampling(every: float):
    """Probe at entry, every `every` seconds of wall time, and at exit."""
    samples.clear()
    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, every, every)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sample()


def scaled(a: float, b: float) -> float:
    """The clock() interval [a, b] at reference speed.

    Between two consecutive samples the host is taken to run at the mean
    of their probes; the interval is integrated over those pieces.
    """
    times = [t for t, _ in samples]
    k = max(bisect.bisect_right(times, a) - 1, 0)
    total = 0.0
    while a < b:
        pair = samples[k:k + 2]
        end = min(times[k + 1], b) if k + 1 < len(times) else b
        if end > a:
            total += (end - a) * scale(sum(s for _, s in pair) / len(pair))
            a = end
        k += 1
    return total
