"""Machine-speed calibration by a probe that runs inside the measured work.

On a shared processor the same Python code can run up to twice as
slowly at one moment as at another, and the speed flips between a fast
and a slow state several times a second (on the two-core virtual machine
the benchmark was written on, one 10-s op took 7.7 to 12.8 s from one run
to the next).  That would swamp any change to the program.  So while a
run measures, an interval timer interrupts the program every
``INTERVAL_S`` and a signal handler runs a fixed probe, which is part of
the benchmark and never of the program, and records how long it took.

``clock`` is ``perf_counter`` minus the time spent in the handler, so
ops and spans timed with it leave the probe out.  ``scale(t0, t1)`` is
``REFERENCE_S`` over the mean probe duration of the ticks within
``WINDOW_S`` of the interval ``[t0, t1]`` (at least ``MIN_TICKS`` of
them).  A time measured over that interval is multiplied by it, so it is
reported in seconds of a machine on which the probe takes
``REFERENCE_S``.  The same rule scales set-ups, short ops and long ops:
a long op is scaled by the ticks taken during it, a short one by the
ticks around it.  A process has one interval timer and one handler for
its signal, so the ticks are kept in this module, not in an object.
"""

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import checks as C

INTERVAL_S = 0.03
WINDOW_S = 0.15
MIN_TICKS = 3
REFERENCE_S = 0.0004
PROBE_REPEATS = 10

_WORDS = [C.to_text(f) for f in C.formulas_up_to(5)]
_INDEX = {w: i for i, w in enumerate(_WORDS)}


def probe():
    """Look up, measure and test the 159 formulas of at most 5 nodes over
    p, q as text: interpreter work of the same kind as the program's,
    which creates no object the garbage collector tracks."""
    n = 0
    for _ in range(PROBE_REPEATS):
        for w in _WORDS:
            n += _INDEX[w] + len(w)
            if w.startswith('[]'):
                n ^= 1
    return n


_spent = 0.0         # seconds spent in the handler so far
_times = []          # clock() at each tick
_durations = []      # probe duration at each tick
_busy = False


def clock():
    """Seconds, not counting the time spent in the probe's handler."""
    return perf_counter() - _spent


def tick(*_):
    """Run the probe twice and record the second run: the first brings
    the probe's code and data back into the caches that the program's
    work evicted, so the second measures the processor's speed."""
    global _spent, _busy
    if _busy:
        return
    _busy = True
    collecting = gc.isenabled()
    gc.disable()
    try:
        h0 = perf_counter()
        probe()
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        _times.append(h0 - _spent)
        _durations.append(t1 - t0)
        _spent += t1 - h0
    finally:
        if collecting:
            gc.enable()
        _busy = False


@contextmanager
def sampling():
    """Tick every ``INTERVAL_S`` within the block, and once at either end
    so that every interval has ticks around it."""
    previous = signal.signal(signal.SIGALRM, tick)
    tick()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        tick()


def scale(t0, t1):
    """Factor for a time measured by ``clock`` from ``t0`` to ``t1``."""
    lo = bisect.bisect_left(_times, t0 - WINDOW_S)
    hi = bisect.bisect_right(_times, t1 + WINDOW_S)
    while hi - lo < MIN_TICKS and (lo > 0 or hi < len(_times)):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(_times))
    return REFERENCE_S / statistics.fmean(_durations[lo:hi])
