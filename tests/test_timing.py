import math

import pytest

from dynarag.errors import BackendTimeout
from dynarag.timing import MonotonicClock, SimulatedClock, TimeBudget


def test_simulated_clock_advances_on_sleep():
    clock = SimulatedClock()
    assert clock.now() == 0.0
    clock.sleep(2.5)
    clock.sleep(0.5)
    assert clock.now() == 3.0


def test_simulated_clock_rejects_negative_sleep():
    with pytest.raises(ValueError):
        SimulatedClock().sleep(-1.0)


def test_monotonic_clock_moves_forward():
    clock = MonotonicClock()
    t0 = clock.now()
    clock.sleep(0.01)
    assert clock.now() > t0


def test_budget_spend_within_limit():
    clock = SimulatedClock()
    budget = TimeBudget(clock, deadline_at=10.0)
    budget.spend(4.0)
    assert clock.now() == 4.0
    assert budget.remaining() == 6.0
    assert not budget.expired()


def test_budget_overspend_stops_at_deadline():
    clock = SimulatedClock()
    budget = TimeBudget(clock, deadline_at=10.0)
    with pytest.raises(BackendTimeout):
        budget.spend(20.0)
    # Clock advanced exactly to the deadline, never past it.
    assert clock.now() == 10.0
    assert budget.expired()


def test_budget_check_raises_once_expired():
    clock = SimulatedClock()
    budget = TimeBudget(clock, deadline_at=1.0)
    budget.spend(1.0)
    with pytest.raises(BackendTimeout):
        budget.check()


def test_unlimited_budget_never_expires():
    budget = TimeBudget(SimulatedClock(), deadline_at=math.inf)
    budget.spend(1e9)
    assert not budget.expired()
    assert budget.remaining() == float("inf")
