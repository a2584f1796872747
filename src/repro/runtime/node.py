"""Host one unmodified :class:`~repro.sim.process.Party` on an event loop.

The sim's parties talk to a ``Network`` duck type: ``send``,
``broadcast``, and ``party_ids``.  :class:`NodeNetwork` implements that
surface over the runtime, so every existing protocol subclass runs live
without modification -- handler code stays synchronous and single-
threaded (one dispatch task per node), exactly like the simulator's
delivery model.

Outbound sends are buffered on a queue and shipped by a sender task;
that keeps ``Party`` handlers non-async while the actual transport I/O
awaits freely.  An outbox entry is ``(destinations, message)``: a
broadcast is one entry, and the sender task hands its message object to
``transport.send`` once per destination back to back, which lets the
transport encode it once.  A queued message must not be mutated.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional, Sequence

from ..sim.process import Party
from .transport import Transport

__all__ = ["NodeNetwork", "RuntimeNode"]


class NodeNetwork:
    """The ``Network`` facade a hosted party sees.

    Implements the attribute surface protocols actually use
    (``send``/``broadcast``/``party_ids``); anything simulator-specific
    is deliberately absent.
    """

    def __init__(self, node: "RuntimeNode", peer_ids: Sequence[int]) -> None:
        self._node = node
        self._peer_ids = tuple(sorted(peer_ids))

    @property
    def party_ids(self) -> list[int]:
        return list(self._peer_ids)

    def send(self, src: int, dst: int, message: Any) -> None:
        if dst not in self._peer_ids:
            raise KeyError(f"unknown destination {dst}")
        self._node.queue_send((dst,), message)

    def broadcast(self, src: int, message: Any, *, include_self: bool = True) -> None:
        dsts = self._peer_ids
        if not include_self:
            dsts = tuple(dst for dst in dsts if dst != src)
        self._node.queue_send(dsts, message)


class RuntimeNode:
    """One cluster member: a party, its inbox/outbox, and two pump tasks."""

    def __init__(
        self, party: Party, transport: Transport, peer_ids: Sequence[int]
    ) -> None:
        self.party = party
        self.pid = party.pid
        self.transport = transport
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.messages_dispatched = 0
        #: first exception raised by a pump task (send/dispatch), if any --
        #: surfaced by the cluster so codec/handler errors fail loudly
        #: instead of silently stalling the node
        self.failure: Optional[BaseException] = None
        self._pending_sends = 0
        self._pending_dispatch = 0
        self._tasks: list[asyncio.Task] = []
        party.network = NodeNetwork(self, peer_ids)
        transport.bind(self.pid, self._on_delivery)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        self._tasks = [
            asyncio.ensure_future(self._sender_loop()),
            asyncio.ensure_future(self._dispatch_loop()),
        ]

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def detach(self) -> list[asyncio.Task]:
        """Synchronously cancel the pump tasks (epoch retirement).

        Callable from inside protocol callbacks -- cancellation only lands
        at the tasks' next ``await``, so the caller's synchronous
        continuation completes first.  The caller must gather the returned
        tasks during shutdown.
        """
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        return tasks

    # -- data path ----------------------------------------------------------------
    def queue_send(self, dsts: Sequence[int], message: Any) -> None:
        """Called synchronously from inside party handlers: one outbox
        entry, however many destinations."""
        self._pending_sends += 1
        self.outbox.put_nowait((dsts, message))

    def _on_delivery(self, src: int, message: Any) -> None:
        """Transport delivery callback."""
        self._pending_dispatch += 1
        self.inbox.put_nowait((src, message))

    async def _sender_loop(self) -> None:
        while True:
            dsts, message = await self.outbox.get()
            try:
                for dst in dsts:
                    await self.transport.send(self.pid, dst, message)
            except Exception as exc:  # noqa: BLE001 -- recorded, then re-raised
                if self.failure is None:
                    self.failure = exc
                raise
            finally:
                self._pending_sends -= 1

    async def _dispatch_loop(self) -> None:
        while True:
            src, message = await self.inbox.get()
            try:
                self.party.receive(message, src)
            except Exception as exc:  # noqa: BLE001 -- recorded, then re-raised
                if self.failure is None:
                    self.failure = exc
                raise
            finally:
                self.messages_dispatched += 1
                self._pending_dispatch -= 1

    @property
    def idle(self) -> bool:
        """No inbound or outbound work queued or being pumped right now."""
        return self._pending_sends == 0 and self._pending_dispatch == 0
