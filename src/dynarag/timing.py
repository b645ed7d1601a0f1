"""Clock abstraction and per-turn time budgets.

Deadline enforcement runs against a ``Clock`` so the same orchestration code
works on wall time in production and on simulated time in tests, where mock
backend latencies advance the clock instantly. That is what makes it cheap to
exercise a 10 s deadline against a 20 s slow stage hundreds of times.

A ``TimeBudget`` always has a deadline (``math.inf`` for none), and every
model call spends from one.
"""

from __future__ import annotations

import time

from .errors import BackendTimeout


class MonotonicClock:
    """Wall-clock backed by time.monotonic; sleep really sleeps."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimulatedClock:
    """Virtual clock: sleep advances time instantly. Single-threaded: every
    turn runs on the caller's thread."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds


class TimeBudget:
    """Remaining-time tracker handed to every stage of a turn.

    Backends consume simulated or real latency through ``spend``; a spend that
    would cross the deadline advances the clock exactly to the deadline and
    raises BackendTimeout, so elapsed time never overshoots the budget.
    """

    def __init__(self, clock, deadline_at: float):
        self.clock = clock
        self.deadline_at = deadline_at

    def remaining(self) -> float:
        return self.deadline_at - self.clock.now()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self) -> None:
        if self.expired():
            raise BackendTimeout("time budget exhausted")

    def spend(self, seconds: float) -> None:
        remaining = self.remaining()
        if seconds > remaining:
            # Abandon the slow operation at the deadline boundary.
            self.clock.sleep(max(0.0, remaining))
            raise BackendTimeout(
                f"operation needs {seconds:.3f}s but only {max(remaining, 0.0):.3f}s remain"
            )
        self.clock.sleep(seconds)
