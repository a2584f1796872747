"""Host one unmodified :class:`~repro.sim.process.Party` on an event loop.

The sim's parties talk to a ``Network`` duck type: ``send``,
``broadcast``, and ``party_ids``.  :class:`RuntimeNode` is that surface
over the runtime (``party.network`` is the node), so every existing
protocol subclass runs live without modification.

A message waits in the sender's outbox, then in the transport (the
frame FIFO on ``inproc``, a link queue and a socket on ``tcp``) -- and
nowhere on arrival: the transport's delivery callback *is* the
dispatch, so a handler runs where the frame was decoded (the in-process
drain callback, the inbound TCP stream's ``data_received`` callback, a
delay timer or, for a TCP self-send, this node's sender task).  One loop
hosts them all and a handler never awaits, so handler code stays
synchronous and single-threaded, exactly like the simulator's delivery
model.

The outbox and its sender task stay because ``send`` / ``broadcast`` may
only queue: nothing a handler sends (to itself included) is delivered
before it returns, so no handler runs inside another, and the transport
I/O awaits freely.  The outbox is a deque, and the sender task awaits a
future only while it is empty.  An entry is ``(destinations, message)``:
a broadcast is one entry, and the sender task hands its message object
to ``transport.send`` once per destination back to back, which lets the
transport encode it once.  A queued message must not be mutated.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Optional, Sequence

from ..sim.process import Party
from .transport import Transport

__all__ = ["RuntimeNode"]


class RuntimeNode:
    """One cluster member: a party, its ``Network``, outbox and sender task."""

    def __init__(
        self, party: Party, transport: Transport, peer_ids: Sequence[int]
    ) -> None:
        self.party = party
        self.pid = party.pid
        self.transport = transport
        self.outbox: deque = deque()
        self.messages_dispatched = 0
        #: first exception raised by a handler or the sender task, if any --
        #: surfaced by the cluster so codec/handler errors fail loudly
        #: instead of silently stalling the node
        self.failure: Optional[BaseException] = None
        self._peer_ids = tuple(sorted(peer_ids))
        self._pending_sends = 0
        #: what the sender task awaits while the outbox is empty
        self._wakeup: Optional[asyncio.Future] = None
        self._tasks: list[asyncio.Task] = []
        party.network = self
        transport.bind(self.pid, self._on_delivery)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        self._tasks = [asyncio.ensure_future(self._sender_loop())]

    async def stop(self) -> None:
        await asyncio.gather(*self.detach(), return_exceptions=True)

    def detach(self) -> list[asyncio.Task]:
        """Synchronously cancel the sender task (epoch retirement).

        Callable from inside protocol callbacks -- cancellation only lands
        at the task's next ``await``, so the caller's synchronous
        continuation completes first.  The caller must gather the returned
        tasks during shutdown.
        """
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        return tasks

    # -- the ``Network`` a hosted party sees ----------------------------------------
    @property
    def party_ids(self) -> list[int]:
        return list(self._peer_ids)

    def send(self, src: int, dst: int, message: Any) -> None:
        if dst not in self._peer_ids:
            raise KeyError(f"unknown destination {dst}")
        self._queue((dst,), message)

    def broadcast(self, src: int, message: Any, *, include_self: bool = True) -> None:
        dsts = self._peer_ids
        if not include_self:
            dsts = tuple(dst for dst in dsts if dst != src)
        self._queue(dsts, message)

    # -- data path ----------------------------------------------------------------
    def _queue(self, dsts: Sequence[int], message: Any) -> None:
        """One outbox entry, however many destinations."""
        self._pending_sends += 1
        self.outbox.append((dsts, message))
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.done():  # done: set, or cancelled
            wakeup.set_result(None)

    def _on_delivery(self, src: int, message: Any) -> None:
        """Transport delivery callback: run the handler here, where the
        frame was decoded.  A raising handler fails this node (it is
        handed nothing further), never the transport."""
        if self.failure is not None:
            return
        self.messages_dispatched += 1
        try:
            self.party.receive(message, src)
        except Exception as exc:  # noqa: BLE001 -- recorded for the cluster
            self.failure = exc

    async def _sender_loop(self) -> None:
        outbox, loop = self.outbox, asyncio.get_running_loop()
        while True:
            if not outbox:
                self._wakeup = loop.create_future()
                await self._wakeup
            dsts, message = outbox.popleft()
            try:
                for dst in dsts:
                    await self.transport.send(self.pid, dst, message)
            except Exception as exc:  # noqa: BLE001 -- recorded, then re-raised
                if self.failure is None:
                    self.failure = exc
                raise
            finally:
                self._pending_sends -= 1

    @property
    def idle(self) -> bool:
        """Outbox drained: nothing queued and no entry mid-send."""
        return self._pending_sends == 0
