"""Discrete-event scheduler: the heart of the asynchronous network model.

Asynchrony in the paper's model means messages between honest parties are
delivered after finite but adversarially chosen delays.  The simulator
realizes this as a priority queue of timed events; delay models and
adversarial schedulers (see :mod:`repro.sim.network`) choose the times.

An event is one plain ``(time, seq, fn, args)`` tuple on a heap: the
``seq`` counter breaks time ties in scheduling order (and is unique, so
the comparison never reaches ``fn``), and running the event is
``fn(*args)``.  A queued message therefore holds its heap entry and its
argument tuple and nothing else -- no closure per event, no side table
-- which is what keeps a chain-scale run's memory and garbage-collector
walks small.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

__all__ = ["Simulator"]


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Events scheduled for the same instant run in scheduling order, making
    entire protocol executions reproducible for a fixed RNG seed.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple] = []
        self._next_seq = 0

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, fn, args))

    @property
    def pending(self) -> int:
        """Number of queued events."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Number of events run (or running): every scheduled event is
        either still queued or has been popped."""
        return self._next_seq - len(self._queue)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        self.now, _, fn, args = heappop(self._queue)
        fn(*args)
        return True

    def run(self, *, stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Drain the event queue, or stop once ``stop_when()`` turns true
        (polled before every event)."""
        while self._queue:
            if stop_when is not None and stop_when():
                return
            self.step()
