"""Wall times scaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes: the same ``api.sweep`` call took
3.9 s and 8.1 s a minute apart on a 2-vCPU Xeon VM.  A fixed loop's CPU
time there tracks its wall time (no steal), so the drift is in how fast
each cycle runs, not in how many the process gets.  A median over one
run cannot remove drift that lasts longer than the run; measuring the
host's speed while each step runs can.

Probes of two kinds, timed in the main thread's CPU time, measure the
host: a pure-Python loop and one pass over arrays larger than the L2
cache.  Neither calls the program.  A step whose work runs in this
thread is probed *during* the step: an interval timer interrupts it
every ``INTERVAL_S`` for one probe, alternating the kinds, at a cost of
about 2% of the step, the same for every version of the program.  A
step whose work runs in another process (a cold start, a round of
served requests) is probed only while that process idles, so the probes
never compete with it for the CPU: right before and right after the
step, and between its operations through ``ctx.idle()`` (a served run's
server uses no CPU after its reply, checked from its ``/proc`` CPU
times).

A step's host factor is the geometric mean, over the two kinds, of the
median probe time over that kind's time on a quiet host
(``REFERENCE_S``); every wall time the step produced is reported divided
by it.  A factor of 1.3 means the host ran the probes 30% slower than
quiet, and a 6.5 s sweep measured then reads 5.0 s.  Over 40-80
back-to-back operations the log-log slope of wall time on the factor was
0.96-1.12, and the spread of single operations fell from 20-34% to 6-7%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

#: Seconds between probes.
INTERVAL_S = 0.05

#: Iterations of the pure-Python probe.
PY_LOOPS = 8_000

#: Elements of each array the array probe passes over (2.4 MB each).
ARRAY_LEN = 300_000

#: Probe CPU times on a quiet 2-vCPU Xeon VM (s).
REFERENCE_S = {"python": 0.5e-3, "array": 1.0e-3}

#: Probes of each kind taken after a step that is not probed while it
#: runs, and the fewest a factor rests on: a step probed fewer times
#: while it ran borrows the probes just before it.
MIN_PROBES = 8


class HostScale:
    """Probe the host while steps run; keep their scaled samples.

    Use as a context manager around the measured steps, and run each
    step through :meth:`measure`: every value the step appends to
    ``ctx.samples`` is appended, divided by the step's host factor, to
    :attr:`scaled` under the same key.  Inside the context,
    ``ctx.idle()`` takes one probe of each kind.
    """

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.scaled: Dict[str, List[float]] = {kind: []
                                               for kind in ctx.samples}
        self.factors: List[float] = []
        self.probes: Dict[str, List[float]] = {kind: []
                                               for kind in REFERENCE_S}
        self._a = np.linspace(0.0, 1.0, ARRAY_LEN)
        self._b = np.linspace(1.0, 2.0, ARRAY_LEN)
        self._out = np.empty(ARRAY_LEN)
        self._next = 0
        self._previous = None

    def _python(self) -> None:
        total = 0
        for i in range(PY_LOOPS):
            total += i * i % 7

    def _array(self) -> None:
        np.multiply(self._a, self._b, out=self._out)
        np.add(self._out, self._a, out=self._out)

    def _probe(self, kind: str) -> None:
        began = time.thread_time()
        if kind == "python":
            self._python()
        else:
            self._array()
        self.probes[kind].append(time.thread_time() - began)

    def _on_timer(self, *_) -> None:
        self._probe(("python", "array")[self._next % 2])
        self._next += 1

    def _probe_idle(self) -> None:
        for kind in self.probes:
            self._probe(kind)

    def __enter__(self) -> "HostScale":
        for _ in range(MIN_PROBES):
            self._probe_idle()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self.ctx.idle = self._probe_idle
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ctx.idle = lambda: None

    def _factor(self, marks: Dict[str, int], during: bool) -> float:
        logs = []
        for kind, values in self.probes.items():
            if during:
                window = values[marks[kind]:]
                if len(window) < MIN_PROBES:
                    window = values[-MIN_PROBES:]
            else:
                window = values[marks[kind] - MIN_PROBES:]
            logs.append(math.log(statistics.median(window)
                                 / REFERENCE_S[kind]))
        return math.exp(sum(logs) / len(logs))

    def measure(self, step: Callable[[], None], during: bool) -> None:
        """Run ``step``; scale the samples it added by its host factor.

        ``during`` probes the step while it runs; otherwise the probes
        right before it (the previous step's last), those it takes
        through ``ctx.idle()`` and those right after it count.
        """
        counts = {kind: len(values)
                  for kind, values in self.ctx.samples.items()}
        marks = {kind: len(values) for kind, values in self.probes.items()}
        if during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            step()
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            else:
                for _ in range(MIN_PROBES):
                    self._probe_idle()
            factor = self._factor(marks, during)
            self.factors.append(factor)
            for kind, values in self.ctx.samples.items():
                self.scaled[kind].extend(
                    value / factor for value in values[counts[kind]:])
