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

    def test_schedule_passes_args_and_keeps_fifo_ties(self):
        """``schedule(delay, fn, *args)`` runs ``fn(*args)``; same-time
        events run in scheduling order whether or not they carry args."""
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(0.5, order.insert, 0, "first")
        sim.schedule(1.0, order.append, "c")
        sim.schedule(1.0, lambda: order.append("d"))
        assert sim.pending == 5
        sim.run()
        assert order == ["first", "a", "b", "c", "d"]
        assert sim.pending == 0


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
