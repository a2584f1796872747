"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.events import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.schedule(1.0, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        ev = sim.schedule(1.0, lambda: ran.append(1))
        sim.cancel(ev)
        sim.run()
        assert ran == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(ev)
        assert sim.pending == 1


class TestRunLimits:
    def test_stop_when(self):
        sim = Simulator()
        ran = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: ran.append(i))
        sim.run(stop_when=lambda: len(ran) >= 3)
        assert len(ran) == 3

    def test_step_empty_queue(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2
