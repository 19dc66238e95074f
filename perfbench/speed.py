"""The machine's current speed, from a fixed exact-arithmetic computation.

On a shared host the same op can take twice as long when neighbours are busy,
and such phases last from seconds to minutes, longer than one run.  The
benchmark therefore times a fixed computation of its own between ops and
scales every reported time by NOMINAL_S / (its current time): times read as
on a machine where reference() takes NOMINAL_S.  The computation is the kind
of work lieq does (rational elimination in pure Python) and uses nothing from
lieq, so a change to lieq moves the scaled times by its full effect.

Between ops the scale comes from the best of a few short samples.  A single
long computation, such as set-up, is instead timed by probed(), which runs
the reference computation inside it on a timer, so that the speed is
measured during the very interval being scaled.
"""

import signal
import statistics
import time
from fractions import Fraction

#: time of one reference() on a quiet 2-core sandbox host, CPython 3.11
NOMINAL_S = 0.001
#: least time between two speed samples
SAMPLE_EVERY_S = 0.1
#: speed samples whose median sets the current scale
WINDOW = 5
#: time between two reference() probes inside probed()
PROBE_EVERY_S = 0.01


def reference() -> float:
    """Seconds taken by Gauss-Jordan elimination of a fixed 7x7 rational matrix."""
    n = 7
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 4) + (i == j) for j in range(n)]
         for i in range(n)]
    start = time.perf_counter()
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


def sample() -> float:
    """One speed sample: the least of three reference() times."""
    return min(reference() for _ in range(3))


class Speed:
    """Running estimate of the scale factor NOMINAL_S / reference time."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def scale(self) -> float:
        """The current scale, taking a new sample when the last is old enough."""
        now = time.perf_counter()
        if now - self._last >= SAMPLE_EVERY_S:
            self.samples.append(sample())
            self._last = time.perf_counter()
        return NOMINAL_S / statistics.median(self.samples[-WINDOW:])


def probed(work):
    """Run work() with reference() probes interleaved every PROBE_EVERY_S.

    A one-shot timer signal, re-armed after each probe, runs reference()
    between the bytecodes of work().  Returns work's own time (wall time less
    the time spent in probes) scaled by NOMINAL_S / (mean probe time), and
    unscaled.  The mean, not the least, probe time is used: it follows the
    load that work() itself met.  Main thread of a POSIX process only.
    """
    probes, spent, stopped = [], [], []

    def on_timer(signum, frame):
        if stopped:  # tripped before the timer was disarmed
            return
        t0 = time.perf_counter()
        probes.append(reference())
        spent.append(time.perf_counter() - t0)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
    try:
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
    finally:
        # once stopped is set no handler re-arms the timer, so after the
        # timer is disarmed no SIGALRM can reach the restored handler
        stopped.append(True)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    own = elapsed - sum(spent)
    if not probes:  # work() ended before the first probe
        probes.append(sample())
    return own * NOMINAL_S / statistics.fmean(probes), own
