"""Discrete-event scheduler: the heart of the asynchronous network model.

Asynchrony in the paper's model means messages between honest parties are
delivered after finite but adversarially chosen delays.  The simulator
realizes this as a priority queue of timed events; delay models and
adversarial schedulers (see :mod:`repro.sim.network`) choose the times.

The queue holds plain ``(time, seq)`` tuples -- cheaper to compare and
push than ordered dataclass instances -- with callbacks kept in a side
table keyed by sequence number.  Cancellation removes the callback from
the table (the heap entry is skipped lazily on pop), which also makes
:attr:`Simulator.pending` a constant-time ``len`` instead of a queue
scan.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["Simulator"]


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Events scheduled for the same instant run in scheduling order, making
    entire protocol executions reproducible for a fixed RNG seed.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int]] = []
        self._callbacks: dict[int, Callable[[], None]] = {}
        self._next_seq = 0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns an opaque handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        seq = self._next_seq
        self._next_seq = seq + 1
        self._callbacks[seq] = callback
        heapq.heappush(self._queue, (self.now + delay, seq))
        return seq

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled event (lazy heap removal)."""
        self._callbacks.pop(handle, None)

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled queued events (O(1))."""
        return len(self._callbacks)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        callbacks = self._callbacks
        while queue:
            time, seq = heapq.heappop(queue)
            callback = callbacks.pop(seq, None)
            if callback is None:
                continue  # cancelled
            self.now = time
            self.events_processed += 1
            callback()
            return True
        return False

    def run(self, *, stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Drain the event queue, or stop once ``stop_when()`` turns true
        (polled before every event)."""
        queue = self._queue
        callbacks = self._callbacks
        while queue:
            if stop_when is not None and stop_when():
                return
            if queue[0][1] not in callbacks:
                heapq.heappop(queue)  # cancelled
                continue
            self.step()
