"""Packed heap-key boundaries: epsilon guard and tick-overflow bounds.

The event queue packs ``(tick, epsilon)`` into one integer key,
``key = (tick << EPSILON_BITS) | epsilon``.  Two hazards follow:

* an epsilon at or above ``2**EPSILON_BITS`` would silently bleed into
  the tick field (epsilon ``2**20`` at tick 5 would sort as tick 6,
  epsilon 0) -- every scheduling entry point must reject it instead;
* ticks at or above ``TICK_FAST_LIMIT = 2**43`` push the key past a
  63-bit machine word.  CPython falls off its fast int-comparison path
  but the arithmetic stays exact, so ordering must remain correct.

These are regression tests for both boundaries; the constants and the
rationale live in :mod:`repro.core.simulator`'s module docstring.
"""

from __future__ import annotations

import pytest

from repro.core.simulator import (
    EPSILON_BITS,
    EPSILON_LIMIT,
    TICK_FAST_LIMIT,
    SimulationError,
    Simulator,
)
from tests.conftest import EXECUTER_LOOPS, executer


def _noop(event):
    pass


def test_constants_are_consistent():
    assert EPSILON_LIMIT == 1 << EPSILON_BITS
    assert TICK_FAST_LIMIT == 1 << (63 - EPSILON_BITS)
    # The largest fast key fits a signed 64-bit machine word.
    largest_fast = ((TICK_FAST_LIMIT - 1) << EPSILON_BITS) | (EPSILON_LIMIT - 1)
    assert largest_fast < 1 << 63


def test_epsilon_below_limit_is_accepted():
    simulator = Simulator()
    event = simulator.call_at(10, _noop, epsilon=EPSILON_LIMIT - 1)
    assert event.tick == 10
    assert event.epsilon == EPSILON_LIMIT - 1


@pytest.mark.parametrize("epsilon", [EPSILON_LIMIT, EPSILON_LIMIT + 1, -1])
def test_epsilon_outside_range_raises_not_corrupts(epsilon):
    simulator = Simulator()
    with pytest.raises(SimulationError):
        simulator.call_at(10, _noop, epsilon=epsilon)
    # Nothing was enqueued: the bad key never reached the heap.
    assert simulator.pending_events == 0


def test_epsilon_guard_covers_every_entry_point():
    from repro.core.event import Event

    simulator = Simulator()
    event = Event(_noop)
    with pytest.raises(SimulationError):
        simulator.add_event(event, 10, epsilon=EPSILON_LIMIT)
    assert simulator.pending_events == 0


def test_ordering_at_the_epsilon_boundary():
    """(t, EPSILON_LIMIT-1) fires before (t+1, 0): no field bleed."""
    simulator = Simulator()
    order = []
    simulator.call_at(6, lambda e: order.append("next-tick"), epsilon=0)
    simulator.call_at(5, lambda e: order.append("max-eps"),
                      epsilon=EPSILON_LIMIT - 1)
    simulator.call_at(5, lambda e: order.append("eps0"), epsilon=0)
    simulator.run()
    assert order == ["eps0", "max-eps", "next-tick"]


def test_ticks_beyond_the_fast_limit_stay_correct():
    """Keys past 63 bits compare slower but must still sort exactly."""
    big = TICK_FAST_LIMIT  # first tick whose packed key leaves 63 bits
    for loop in EXECUTER_LOOPS:
        with executer(loop) as simulator:
            order = []
            simulator.call_at(big + 1, lambda e: order.append("big+1"))
            simulator.call_at(big, lambda e: order.append("big-eps"),
                              epsilon=EPSILON_LIMIT - 1)
            simulator.call_at(big, lambda e: order.append("big"))
            simulator.call_at(big - 1, lambda e: order.append("fast"),
                              epsilon=EPSILON_LIMIT - 1)
            result = simulator.run()
            assert order == ["fast", "big", "big-eps", "big+1"], loop
            assert result.tick == big + 1, loop


def test_scheduling_across_the_fast_boundary_from_a_handler():
    """Relative delays that cross 2**43 keep exact causality, and a
    ``max_time`` past the boundary still bounds the run."""
    for loop in EXECUTER_LOOPS:
        with executer(loop) as simulator:
            seen = []

            def hop(event, simulator=simulator, seen=seen):
                seen.append(simulator.tick)
                if len(seen) < 3:
                    simulator.call_at(
                        simulator.tick + TICK_FAST_LIMIT // 2, hop
                    )

            simulator.call_at(TICK_FAST_LIMIT - 1, hop)
            simulator.run(max_time=TICK_FAST_LIMIT + TICK_FAST_LIMIT // 2)
            assert len(seen) == 2, loop
            simulator.run()
            assert seen == [
                TICK_FAST_LIMIT - 1,
                TICK_FAST_LIMIT - 1 + TICK_FAST_LIMIT // 2,
                TICK_FAST_LIMIT - 1 + TICK_FAST_LIMIT,
            ], loop
