"""The machine's current speed, from short probes of fixed code.

The reference machine switches between a fast and a slow state for
seconds to minutes at a time (README.md, "Normalized time"), and a task
in the slow state takes up to 1.7 times as long.  A probe is a piece of
the benchmark's own code, which never changes between commits, timed
right before and right after each task while the program is idle, and
sampled within interpreted tasks (`Sampler`), because the state can
change within a task of several seconds.  A task's normalized time is
its wall time scaled by the probe's reference time over the probe's mean
time around and within that task: the time the task would have taken
with the machine in its reference state.  A program change moves the
task's time and not the probe's, so it shows in full.

There are two kinds of probe, because interpreted code and threaded
BLAS slow down by different factors in the slow state: `python` (a
loop of small interpreted operations, on one core) and `blas` (complex
matrix products with the BLAS threads as found, on every core).  Each
task names the kind of work that dominates it.
"""

import signal
import time

import numpy as np

# Seconds one repetition of each probe takes on the reference machine
# in its fast state; the unit of normalized time.
REFERENCE_S = {"python": 0.0005, "blas": 0.0011}
SHARE = 0.1    # probe time as a share of the neighbouring task's time
MIN_S = 0.05   # shortest probe
MAX_S = 1.0    # longest probe
SAMPLE_EVERY_S = 0.1  # interval of the samples within a task
SAMPLE_REPS = 3       # probe repetitions per sample

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((192, 192)) + 1j * _RNG.standard_normal((192, 192))
_B = _RNG.standard_normal((192, 192)) + 1j * _RNG.standard_normal((192, 192))


def _step(x, y):
    return x * 0.999 + y * 1e-3


def _python_once():
    acc = 0.0
    v = np.zeros(4)
    for i in range(300):
        acc = _step(acc, float(i))
        v = v * 0.5 + 1.0
    return acc + v[0]


def _blas_once():
    return (_A @ _B)[0, 0]


_BODIES = {"python": _python_once, "blas": _blas_once}


def probe(kind, seconds):
    """Mean time of one repetition of probe `kind`, run for `seconds`."""
    body = _BODIES[kind]
    reps = 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while True:
        body()
        reps += 1
        now = time.perf_counter()
        if now >= end:
            return (now - t0) / reps


def probe_seconds(task_seconds):
    """Length of the probe that follows a task of `task_seconds`."""
    return min(MAX_S, max(MIN_S, SHARE * task_seconds))


def factor(kind, times):
    """Normalized over wall time, from the probe times of one task.

    `times` are the probe's mean repetition times right before and right
    after the task and those of the samples within it, one vote each.
    """
    return REFERENCE_S[kind] / (sum(times) / len(times))


class Sampler:
    """Samples of the `python` probe every SAMPLE_EVERY_S within a task.

    A SIGALRM handler pauses the program between two bytecodes and times
    SAMPLE_REPS repetitions of the probe.  It samples only if the process
    used no more CPU time than wall time since the previous sample, that
    is while the program ran on one core, so the program's own threads
    never slow a sample.  `paused_s` is the time spent in the handler,
    which the task's time excludes.
    """

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self._since = None
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        wall0, cpu0 = self._since
        if time.process_time() - cpu0 <= 1.1 * (t0 - wall0):
            for _ in range(SAMPLE_REPS):
                _python_once()
            self.samples.append(
                (time.perf_counter() - t0) / SAMPLE_REPS)
        self._since = (time.perf_counter(), time.process_time())
        self.paused_s += self._since[0] - t0

    def __enter__(self):
        self._since = (time.perf_counter(), time.process_time())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
