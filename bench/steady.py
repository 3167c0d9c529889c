"""A clock that cancels drift in host speed.

On a shared machine the speed of the processor can change by a factor
of two within seconds, and CPU time drifts as much as wall time does.
``SteadyClock`` measures that speed while the benchmark runs: a
``SIGALRM`` interval timer interrupts the program every ``PERIOD``
seconds and runs a short, fixed reference loop that touches no package
code.  Each slice of program time between two interruptions is scaled
by how fast the reference loop ran just before it, so a slice that ran
on a slow host counts for less.

``now()`` returns steady seconds: time at the speed where one reference
burst takes ``NOMINAL_BURST_S``.  ``reading()`` returns them together
with raw ``perf_counter`` seconds.  Both stop while a burst runs, so
the bursts never count as program time.

Only one clock may run per process, because it owns ``SIGALRM``.  The
timer is not inherited by forked worker processes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import signal
import statistics
import time

PERIOD = 0.04
BURST_ITERATIONS = 300
# Duration of one burst on this benchmark's reference host (2-core
# x86-64, CPython 3.11); it only fixes the unit of steady seconds.
NOMINAL_BURST_S = 0.004
SMOOTH = 3  # bursts whose median sets the speed factor


def reference_burst(iterations: int = BURST_ITERATIONS) -> int:
    """A fixed mix of the interpreter work the package does.

    Random draws, small tuples, dict updates, sorting, string building
    and JSON encoding; every object it makes is freed by reference
    counting, so it leaves no garbage for the cyclic collector.
    """
    rng = random.Random(12345)
    acc = 0
    for _ in range(iterations):
        vs = sorted(rng.sample(range(1, 13), 3))
        lits = tuple((v, rng.random() < 0.5) for v in vs)
        seen = {}
        for v, _neg in lits:
            seen.setdefault(v, len(seen) + 1)
        text = " ".join(f"w{v}{'n' if neg else ''}" for v, neg in lits)
        acc += len(json.dumps({"a": text, "b": list(seen)}, sort_keys=True))
    return acc


class SteadyClock:
    """Program time, raw and scaled by the measured host speed."""

    def __init__(self):
        self.bursts = []  # duration of every burst, in order
        # (steady seconds, raw seconds, perf_counter, factor) at the
        # start of the current slice; replaced as one tuple so a signal
        # never leaves a reader with half an update.
        self._state = None
        self._previous_handler = None

    def _burst(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_burst()
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.bursts.append(duration)
        return duration

    def _factor(self) -> float:
        return NOMINAL_BURST_S / statistics.median(self.bursts[-SMOOTH:])

    def _on_alarm(self, signum, frame) -> None:
        steady, raw, start, factor = self._state
        slice_s = time.perf_counter() - start
        self._burst()
        self._state = (
            steady + slice_s * factor,
            raw + slice_s,
            time.perf_counter(),
            self._factor(),
        )

    def start(self) -> "SteadyClock":
        if self._state is not None:
            raise RuntimeError("clock already running")
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        for _ in range(SMOOTH):
            self._burst()
        self._state = (0.0, 0.0, time.perf_counter(), self._factor())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        """Stop the bursts; readings stay valid but no longer advance scaled."""
        if self._previous_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None

    @contextlib.contextmanager
    def offloaded(self):
        """Time a block whose work runs in other processes.

        Bursts inside the block would compete with the workers for the
        processors and measure that contention, not the host.  So the
        timer is held, bursts run on both sides of the block, and the
        block is scaled by the mean speed measured there.
        """
        running = self._previous_handler is not None
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._on_alarm(signal.SIGALRM, None)
        try:
            yield
        finally:
            steady, raw, start, before = self._state
            slice_s = time.perf_counter() - start
            for _ in range(SMOOTH):
                self._burst()
            after = self._factor()
            self._state = (
                steady + slice_s * (before + after) / 2,
                raw + slice_s,
                time.perf_counter(),
                after,
            )
            if running:
                signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def now(self) -> float:
        t = time.perf_counter()
        steady, _, start, factor = self._state
        # A burst that ran between the two reads above started after t;
        # the slice it closed already counts everything up to t.
        return steady + max(t - start, 0.0) * factor

    def reading(self) -> tuple:
        """(steady, raw) seconds, for timing one span of work."""
        t = time.perf_counter()
        steady, raw, start, factor = self._state
        dt = max(t - start, 0.0)
        return steady + dt * factor, raw + dt
