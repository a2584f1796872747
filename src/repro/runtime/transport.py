"""Live transports: one frame FIFO in-process, sockets over TCP.

Both implementations push every message through the
:class:`~repro.runtime.codec.CodecRegistry` -- even the in-process one --
so byte metrics measure real serialized payloads and a protocol that
works on :class:`InProcTransport` is guaranteed to serialize for
:class:`TcpTransport`.

Delivery semantics match the simulator's network: reliable point-to-point
links with arbitrary (but finite) delays, no ordering guarantee across
links.  A sent message waits in the transport (the one FIFO in process;
the link's queue, then the socket, over TCP) and nowhere after it:
``_deliver`` decodes it and the bound node runs the party's handler right
there, where it was taken out -- the in-process ``_drain`` callback or
the inbound stream's ``data_received`` callback (no task: the event loop
calls either), a ``_deliver_later`` timer, or ``send``'s caller for a TCP
self-send.  A handler only queues what it sends and never raises into
its caller (its node records the failure).  Fault injection
(:class:`~repro.runtime.faults.FaultController`) is consulted at two
points, identically for every transport: terminal faults (crash,
partition, weather loss) at the send point via ``condemn``, re-timing
faults (delay, jitter, duplication) plus an in-flight terminal re-check
at the delivery point via ``decide``.  An unarmed plan costs one branch
at each point, and its ``DELIVER`` goes straight to the handler.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from itertools import chain
from typing import Any, Callable, Optional

from .backoff import BackoffSchedule
from .codec import CodecRegistry
from .faults import DeliveryDecision, FaultController
from .heartbeat import HeartbeatMonitor

__all__ = ["Transport", "InProcTransport", "TcpTransport"]

_DELIVER = DeliveryDecision.DELIVER
#: stream hello: (dialer pid, dialer incarnation) -- the incarnation lets
#: a receiver reset the link's dedup watermark when the dialer comes back
#: reborn (its link sequence numbers restart from 1)
_HELLO = struct.Struct(">II")
#: frame header: (per-link sequence number, codec payload length); seq 0
#: is reserved for heartbeats
_FRAME = struct.Struct(">QI")
#: persist every Nth watermark advance (recovery only needs an
#: approximate floor -- protocol handlers absorb redelivered duplicates)
_WATERMARK_EVERY = 16
#: default cap on the frames a *down* link keeps queued for its reborn
#: peer (drop-oldest beyond it; see ``TcpTransport._shed``)
DEFAULT_RETRY_LIMIT = 256
#: heartbeat period (seconds) and the silent periods after which a remote
#: peer is suspected
_HEARTBEAT_INTERVAL = 0.2
_HEARTBEAT_SUSPECT_AFTER = 3

#: synchronous delivery callback: ``handler(src, message)``
Handler = Callable[[int, Any], None]
#: metrics hook: ``record(type_name, encoded_size)`` called once per send
Recorder = Callable[[str, int], None]


class Transport:
    """Interface both transports implement, plus the shared delivery path."""

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
    ) -> None:
        self.registry = registry
        self.faults = faults or FaultController()
        self._record = record
        self._handlers: dict[int, Handler] = {}
        #: every background task (delay timers, link writers, heartbeats);
        #: :meth:`stop` cancels them all
        self._tasks: set[asyncio.Task] = set()
        #: messages sent but not yet resolved (delivered, dropped, or lost
        #: to shutdown) -- lets the cluster detect true quiescence even
        #: while messages sit in socket buffers or delay timers
        self.in_flight = 0
        #: first delivery-path exception (e.g. a frame that fails to
        #: decode) -- surfaced by the cluster instead of a silent stall
        self.failure: Optional[BaseException] = None
        #: the message encoded last and its payload (``_encode_and_record``)
        self._encoded: tuple[Any, bytes] = (None, b"")

    # -- wiring -------------------------------------------------------------------
    def bind(self, pid: int, handler: Handler) -> None:
        """Attach the delivery callback for node ``pid`` (before start).

        Transports that support node replacement (the epoch service
        retiring one committee's nodes and binding the next's) accept a
        ``bind`` after :meth:`unbind` of the same pid, even mid-run.
        """
        if pid in self._handlers:
            raise ValueError(f"duplicate transport binding for node {pid}")
        self._handlers[pid] = handler

    def unbind(self, pid: int) -> None:
        """Detach node ``pid`` so the id can be rebound (epoch rotation).

        Messages already addressed to the node are dropped, exactly as if
        it had crashed; the in-process FIFO also drops the frames it
        holds for the pid, so a successor bound to it never sees them.
        """
        self._handlers.pop(pid, None)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._handlers)

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        """Open what delivery needs (nothing, in process)."""

    async def stop(self) -> None:
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def send(self, src: int, dst: int, message: Any) -> int:
        """Serialize and ship one message; returns payload bytes sent."""
        raise NotImplementedError

    @property
    def quiescent(self) -> bool:
        """True when no sent message is still awaiting its fate."""
        return self.in_flight == 0

    # -- shared helpers -------------------------------------------------------------
    def _encode_and_record(self, message: Any) -> bytes:
        """What every send starts with: the payload, the byte metric (the
        length of that very buffer -- no second metering encode) and the
        in-flight slot.  A broadcast is ``n`` consecutive sends of one
        message object and is encoded once: the payload of the object
        encoded last serves the next send of *that same object* (by
        identity; the reference is held, so an id cannot be reused).
        Messages are immutable once queued on a node's outbox -- the
        encode always ran after the handler that sent them returned."""
        last, data = self._encoded
        if message is not last:
            data = self.registry.encode(message)
            self._encoded = (message, data)
        if self._record is not None:
            self._record(type(message).__name__, len(data))
        self.in_flight += 1
        return data

    def _resolve(self) -> None:
        self.in_flight -= 1

    def _deliver(self, src: int, dst: int, data: bytes) -> None:
        """Fault check, decode, dispatch -- the common delivery point.

        The plain ``DELIVER`` decision (an unarmed fault plan) goes
        straight to the handler.  Weather duplication delivers
        ``decision.duplicates`` extra copies of the message as distinct
        later arrivals (each holding its own in-flight slot), matching the
        sim network's dispatch."""
        handler = self._handlers.get(dst)
        if handler is None:
            # Unbound pid, checked before the fault decision: a delivery
            # that cannot happen must not be counted as delayed.
            self._resolve()
            return
        decision = self.faults.decide(src, dst)
        if not decision.deliver:
            self._resolve()
            return
        try:
            message = self.registry.decode(data)
        except Exception as exc:  # noqa: BLE001 -- recorded, then re-raised
            if self.failure is None:
                self.failure = exc
            self._resolve()
            raise
        if decision is not _DELIVER:
            for copy in range(decision.duplicates):
                self.in_flight += 1
                late = decision.delay + 0.005 * (copy + 1)
                self._spawn(self._deliver_later(handler, src, message, late))
            if decision.delay > 0:
                self._spawn(self._deliver_later(handler, src, message, decision.delay))
                return
        try:
            handler(src, message)
        finally:
            self.in_flight -= 1

    async def _deliver_later(
        self, handler: Handler, src: int, message: Any, delay: float
    ) -> None:
        try:
            await asyncio.sleep(delay)
            handler(src, message)
        finally:
            self._resolve()


class InProcTransport(Transport):
    """All nodes on one event loop, linked by one FIFO of frames.

    The fast deterministic backend: no sockets, no syscalls, no delivery
    task.  ``send`` appends ``(src, dst, payload)``, and the first send
    finding no drain armed arms one ``call_soon`` drain, so the whole mesh
    is FIFO.  Messages still round-trip the codec: byte counts and
    serialization failures are identical to TCP.
    """

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
    ) -> None:
        super().__init__(registry, faults=faults, record=record)
        #: frames sent and not yet taken out, oldest first; while a drain
        #: runs, ``None`` marks the end of the frames it owns
        self._fifo: deque = deque()
        #: the drain ``send`` armed, until it starts
        self._armed: Optional[asyncio.Handle] = None

    def unbind(self, pid: int) -> None:
        super().unbind(pid)
        # Drop its queued frames and close their slots, in place: a drain
        # running now keeps its end marker.
        fifo = self._fifo
        kept = [frame for frame in fifo if frame is None or frame[1] != pid]
        self.in_flight -= len(fifo) - len(kept)
        fifo.clear()
        fifo.extend(kept)

    async def stop(self) -> None:
        # queued frames die with the transport (an armed drain finds none)
        self.in_flight -= len(self._fifo)
        self._fifo.clear()
        await super().stop()

    async def send(self, src: int, dst: int, message: Any) -> int:
        if dst not in self._handlers:
            raise KeyError(f"unknown destination {dst}")
        data = self._encode_and_record(message)
        # Terminal faults fire at the send point (metrics already counted,
        # matching the sim): a condemned message never enters the FIFO.
        if self.faults.condemn(src, dst):
            self._resolve()
            return len(data)
        self._fifo.append((src, dst, data))
        if self._armed is None:
            self._armed = asyncio.get_running_loop().call_soon(self._drain)
        return len(data)

    def _drain(self) -> None:
        """Deliver the frames queued before this call and only those (one
        sent meanwhile arms the next drain).  A frame that fails (to decode,
        say) is kept as ``self.failure`` for the cluster; the rest flow on."""
        self._armed = None
        fifo, deliver = self._fifo, self._deliver
        fifo.append(None)
        for src, dst, data in iter(fifo.popleft, None):
            try:
                deliver(src, dst, data)
            except Exception as exc:  # noqa: BLE001 -- kept for the cluster
                self.failure = self.failure or exc


class _Link:
    """Both ends' state of one directed link ``(src, dst)``: the sender's
    stream, sequence counter, outbound queue and writer task; the
    receiver's dedup watermark and the dialer incarnation it last saw."""

    __slots__ = (
        "src", "dst", "writer", "seq", "queue", "ready", "task", "down",
        "watermark", "incarnation",
    )

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.writer: Optional[asyncio.StreamWriter] = None
        #: last sequence number sent (frames count from 1; 0 = heartbeat)
        self.seq = 0
        #: ``(header, body)`` of frames not yet drained to the kernel, oldest
        #: first (the body is the one payload a broadcast's destinations
        #: share); ``ready`` is set after an append and wakes ``task``, the
        #: one task that writes this queue to the stream
        self.queue: deque = deque()
        self.ready = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        #: the writer task is backing off after a failed attempt: only
        #: then is the queue a retry queue, bounded by ``retry_limit``
        self.down = False
        #: highest sequence number dispatched
        self.watermark = 0
        self.incarnation = 0


class _Links(dict):
    """``(src, dst) -> _Link``, created on first use."""

    def __missing__(self, key: tuple[int, int]) -> _Link:
        link = self[key] = _Link(*key)
        return link


class TcpTransport(Transport):
    """The one TCP mesh: a set of hosted nodes, a listener for each, and
    a lazily dialed stream per directed link ``(src, dst)``.

    The hosted set is whatever the caller bound: the ``tcp`` backend
    binds all ``n`` nodes on one loop (every link loops back into this
    object), a ``proc`` worker binds exactly one (every link but its
    self-link leaves the process).  Nothing else distinguishes the two.

    Listeners bind ``(host, 0)``; :meth:`listen` returns the
    kernel-assigned port and :meth:`address` reports it, so concurrent
    clusters never collide on a hardcoded port.  A single-loop cluster
    needs nothing more (:meth:`start` listens for every bound pid); the
    proc parent collects each worker's address over the control pipe and
    hands the full map back through :meth:`configure`.

    Wire format: a dialer opens with ``(pid, incarnation)``, after which
    the link is identified and every frame is ``(seq, length, body)``
    with ``body`` the codec payload.  ``seq`` counts from 1 per link; the
    receiver keeps a per-link watermark and silently drops anything at or
    below it, so a frame redelivered from a retry queue is dispatched
    once.  A reborn dialer restarts its sequence numbers, and its higher
    incarnation tells the receiver to reset that link's watermark instead
    of discarding the fresh traffic.  Sequence 0 frames are heartbeats --
    uncounted, undelivered, feeding the suspect/alive failure detector.

    Outbound, a link is a queue and one writer task.  ``send`` judges
    ``condemn``, takes the next sequence number, queues the frame and
    returns without touching the socket; the writer task ships whatever
    is queued by then in a single ``write`` + ``drain``, so a burst of k
    frames is one syscall.  Inbound, a listener serves each accepted
    stream with an :class:`_Inbound` protocol, not a reader coroutine:
    its ``data_received`` cuts every complete frame out of the chunk the
    event loop hands it and delivers each one before it returns, holding
    only a cut-off header -- or the chunks of a body still arriving,
    joined once -- until the next chunk.  :meth:`stop` closes these
    streams before it awaits the listeners.

    Self-healing is the same code: when the write (or the dial before it)
    fails, the frames stay queued and the writer backs off and retries,
    so a SIGKILLed-and-respawned worker's links heal without losing
    frames and without failing the sending node.  Only while a link is
    *down* is its queue bounded (drop-oldest past ``retry_limit``); a
    healthy link's empties every loop turn, and the node outbox in front
    of it was never bounded either.  Self-sends never touch a socket.

    A frame's in-flight slot belongs to whoever can observe its fate.  A
    frame for a node hosted here keeps the slot ``send`` opened until it
    is dispatched, so ``quiescent`` covers link queues and socket
    buffers.  A frame for a remote node closes its slot once drained to
    the kernel and the receiving endpoint reopens one on arrival; global
    quiescence is then the proc parent's frame-count conservation --
    every worker idle and ``sum(frames_sent) == sum(frames_received)``
    over consecutive polls -- which is why both counters are public.

    Fault injection is split by direction, identically for both hosted
    sets: the sender evaluates ``condemn(src, dst)`` (terminal faults,
    incl. weather loss; a condemned frame never touches the frame
    ledgers), the receiver ``decide(src, dst)`` (delays, duplication, the
    in-flight terminal re-check).  Each message is judged once per
    point, so counts summed over proc workers equal one process's.
    """

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
        host: str = "127.0.0.1",
        incarnation: int = 0,
    ) -> None:
        super().__init__(registry, faults=faults, record=record)
        self.host = host
        #: bumped by the proc parent on every respawn of the hosted node
        self.incarnation = incarnation
        #: cumulative frames shipped to / accepted from the mesh (self-sends
        #: count on both sides) -- the conservation check.  Retry resends
        #: and dropped duplicates deliberately do not count.
        self.frames_sent = 0
        self.frames_received = 0
        self.duplicates_dropped = 0
        self.reconnects = 0
        #: cap on the frames queued on a link that is down; beyond it the
        #: *oldest* is discarded (``retries_dropped``) so a long partition
        #: under load cannot grow memory without bound.  Oldest-first keeps
        #: what the reborn peer is most likely to still need; protocol
        #: retransmission covers the discarded prefix.
        self.retry_limit = DEFAULT_RETRY_LIMIT
        self.retries_dropped = 0
        #: optional persistence hook ``(src, dst, seq)`` for receive
        #: watermarks (a recoverable party's WAL); sampled every
        #: ``_WATERMARK_EVERY``
        self.watermark_sink: Optional[Callable[[int, int, int], None]] = None
        self.heartbeat: Optional[HeartbeatMonitor] = None
        #: hosted pid -> its listener
        self._servers: dict[int, asyncio.AbstractServer] = {}
        #: every accepted stream still open
        self._inbound: set[_Inbound] = set()
        #: every reachable pid, hosted or remote -> listening address
        self._peers: dict[int, tuple[str, int]] = {}
        self._links = _Links()

    # -- wiring -------------------------------------------------------------------
    async def listen(self, pid: int) -> int:
        """Host node ``pid``: bind a kernel-assigned port and return it."""
        server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self, pid), self.host, 0
        )
        self._servers[pid] = server
        port = server.sockets[0].getsockname()[1]
        self._peers[pid] = (self.host, port)
        return port

    def address(self, pid: int) -> tuple[str, int]:
        """The listening ``(host, port)`` of node ``pid``."""
        return self._peers[pid]

    def configure(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install or refresh peer addresses (the map the proc parent
        collected; a respawned worker has a new kernel-assigned port).

        Streams to a changed address are dropped so the link's writer
        task -- at its next burst, or when its backoff ends -- re-dials
        the reborn peer; frames queued meanwhile survive and flush there."""
        for pid, (host, port) in peers.items():
            pid, address = int(pid), (host, int(port))
            if self._peers.get(pid) != address:
                self._peers[pid] = address
                for link in self._links.values():
                    if link.dst == pid and link.writer is not None:
                        link.writer.close()
                        link.writer = None

    def restore_watermarks(self, dst: int, watermarks: dict[int, int]) -> None:
        """Seed hosted node ``dst``'s receive watermarks, by source, from
        a replayed WAL (restart path).

        The floor may lag reality by up to ``_WATERMARK_EVERY`` frames;
        the protocol layer's idempotent handlers absorb the resulting
        duplicates, so an approximate floor is sufficient."""
        for src, seq in watermarks.items():
            link = self._links[int(src), dst]
            link.watermark = max(link.watermark, int(seq))

    def enable_heartbeat(
        self,
        *,
        on_suspect: Optional[Callable[[int], None]] = None,
        on_alive: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Start heartbeat emission and suspect/alive detection of the
        remote peers (after :meth:`configure`; heartbeats ride existing
        connections only)."""
        remote = [pid for pid in self._peers if pid not in self._servers]
        self.heartbeat = HeartbeatMonitor(
            remote,
            interval=_HEARTBEAT_INTERVAL,
            suspect_after=_HEARTBEAT_SUSPECT_AFTER,
            on_suspect=on_suspect,
            on_alive=on_alive,
        )
        loop = asyncio.get_running_loop()
        # grace period: every peer starts "just seen" so the detector
        # measures silence from now, not from the monotonic-clock epoch
        now = loop.time()
        for pid in remote:
            self.heartbeat.observe(pid, now)
        self._spawn(self._heartbeat_loop(loop))

    async def _heartbeat_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        assert self.heartbeat is not None
        beat = _FRAME.pack(0, 0)
        while True:
            await asyncio.sleep(self.heartbeat.interval)
            self.heartbeat.check(loop.time())
            for link in self._links.values():
                if link.writer is not None and not link.writer.is_closing():
                    link.writer.write(beat)

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        for pid in self.node_ids:
            if pid not in self._servers:
                await self.listen(pid)

    async def stop(self) -> None:
        links = list(self._links.values())
        writers = [link.writer for link in links if link.writer is not None]
        for writer in writers:
            writer.close()
        # inbound streams go before their listeners: a listener waits for
        # its open connections (Python >= 3.12)
        for inbound in list(self._inbound):
            inbound.stream.close()
        await super().stop()
        # queued frames die with the transport; close their slots
        self.in_flight -= sum(len(link.queue) for link in links)
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._links.clear()
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._peers.clear()

    # -- outbound -----------------------------------------------------------------
    async def send(self, src: int, dst: int, message: Any) -> int:
        if dst not in self._peers:
            raise KeyError(f"unknown destination {dst}")
        data = self._encode_and_record(message)
        size = len(data)
        # Terminal faults fire before sequencing: a condemned frame never
        # touches the frame ledgers, so sent == received stays balanced
        # without transmitting it.
        if self.faults.condemn(src, dst):
            self._resolve()
            return size
        self.frames_sent += 1
        if dst == src:
            # Self-sends short-circuit the socket but still round-trip the
            # codec, and count on both frame ledgers.
            self.frames_received += 1
            self._deliver(src, dst, data)
            return size
        # The one route to the socket.  A queued frame keeps its in-flight
        # slot: the endpoint is not idle while one awaits (re)delivery.
        link = self._links[src, dst]
        link.seq = seq = link.seq + 1
        link.queue.append((_FRAME.pack(seq, size), data))
        link.ready.set()
        if link.down:
            self._shed(link)
        elif link.task is None:
            link.task = self._spawn(self._write_loop(link))
        return size

    def _shed(self, link: _Link) -> None:
        """Bound the queue of a link that is down, dropping the oldest:
        the discarded frame's in-flight slot closes (its fate is decided)
        and ``retries_dropped`` counts it, so tests and postmortems can
        see a partition shedding load."""
        queue = link.queue
        while len(queue) > self.retry_limit:
            queue.popleft()
            self.retries_dropped += 1
            self.faults.trace.append((link.src, link.dst, "retry-dropped"))
            self._resolve()

    async def _write_loop(self, link: _Link) -> None:
        """Ship the link's queue, one ``write`` + ``drain`` per burst.

        A failed attempt leaves the frames queued and backs off (jitter
        seeded per link, so a reconnect storm against a reborn worker is
        spread); the receiver's watermark drops what it had processed.
        ``down`` is never set across the write, so ``send`` cannot shed
        the frames being written."""
        backoff = BackoffSchedule(
            base=0.02, max_delay=0.5, seed=f"{link.src}->{link.dst}"
        )
        queue = link.queue
        while True:
            await link.ready.wait()
            link.ready.clear()
            while queue:
                try:
                    writer = await self._dial(link)
                    burst = len(queue)
                    writer.write(b"".join(chain.from_iterable(queue)))
                    await writer.drain()
                except (ConnectionError, OSError):  # peer crashed or mid-respawn
                    link.writer = None
                    self.reconnects += 1
                    link.down = True
                    self._shed(link)
                    await asyncio.sleep(backoff.next_delay())
                    link.down = False
                    continue
                backoff.reset()
                for _ in range(burst):
                    queue.popleft()
                if link.dst not in self._servers:
                    # Drained to the kernel and bound for another process:
                    # the receiving endpoint's in_flight takes over.
                    self.in_flight -= burst

    async def _dial(self, link: _Link) -> asyncio.StreamWriter:
        """The link's live stream, (re)opened with a hello if need be."""
        writer = link.writer
        if writer is None or writer.is_closing():
            host, port = self._peers[link.dst]
            _, writer = await asyncio.open_connection(host, port)
            writer.write(_HELLO.pack(link.src, self.incarnation))
            await writer.drain()
            link.writer = writer
        return writer


class _Inbound(asyncio.Protocol):
    """One accepted stream into hosted node ``dst``.

    ``data_received`` is the whole receive path: it reads the hello, then
    cuts every complete frame out of the chunk it is handed and delivers
    it before returning -- no reader task, no stream buffer.  Between two
    chunks it holds at most a cut-off hello or frame header, or the
    pieces of a body still arriving, joined once when the last one lands:
    a multi-MiB frame is copied a fixed number of times, never once per
    chunk, and a header's length claim allocates nothing ahead of the
    bytes.

    A frame that fails to decode (``_deliver`` has recorded it as the
    mesh's ``failure``) or a handler that raises closes this stream; the
    exception is kept as the mesh's ``failure`` if none was, and nothing
    escapes to the event loop.
    """

    def __init__(self, mesh: "TcpTransport", dst: int) -> None:
        self.mesh = mesh
        self.dst = dst
        self.stream: Optional[asyncio.Transport] = None
        #: the link named by the hello (``None`` until it has arrived)
        self.link: Optional[_Link] = None
        #: a hosted sender still holds the slot its send() opened; a
        #: remote one resolved it on drain
        self.remote = True
        #: the start of a hello or frame header cut off by a chunk's end
        self.head = b""
        #: a frame whose body is still arriving: its sequence number, the
        #: pieces that have arrived and how many bytes are still missing
        self.seq = 0
        self.pieces: list[bytes] = []
        self.missing = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.stream = transport
        self.mesh._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.mesh._inbound.discard(self)
        self.pieces = []

    def data_received(self, data: bytes) -> None:
        try:
            self._receive(data)
        except Exception as exc:  # noqa: BLE001 -- kept for the cluster
            if self.mesh.failure is None:
                self.mesh.failure = exc
            self.pieces = []
            self.stream.close()

    def _receive(self, data: bytes) -> None:
        pos, end = 0, len(data)
        if self.missing:
            # a body still arriving: this chunk's first bytes continue it
            pos = min(self.missing, end)
            self.pieces.append(data if pos == end else data[:pos])
            self.missing -= pos
            if self.missing:
                return
            body, self.pieces = b"".join(self.pieces), []
            self._frame(self.seq, body)
        elif self.head:
            data = self.head + data
            self.head = b""
            end = len(data)
        if self.link is None:
            if end - pos < _HELLO.size:
                self.head = data[pos:]
                return
            self._hello(*_HELLO.unpack_from(data, pos))
            pos += _HELLO.size
        unpack, header = _FRAME.unpack_from, _FRAME.size
        while True:
            start = pos + header
            if start > end:
                if pos < end:
                    self.head = data[pos:]
                return
            seq, length = unpack(data, pos)
            pos = start + length
            if pos > end:
                # its tail is still on the way (chunk boundary, big body)
                self.seq, self.missing = seq, pos - end
                self.pieces.append(data[start:])
                return
            self._frame(seq, data[start:pos])

    def _hello(self, src: int, incarnation: int) -> None:
        link = self.link = self.mesh._links[src, self.dst]
        if incarnation > link.incarnation:
            # the dialer was reborn: its sequence numbers restart, so the
            # old watermark would wrongly discard all new traffic
            link.incarnation = incarnation
            link.watermark = 0
        self.remote = src not in self.mesh._servers

    def _frame(self, seq: int, data: bytes) -> None:
        mesh, link = self.mesh, self.link
        if mesh.heartbeat is not None:
            mesh.heartbeat.observe(link.src, asyncio.get_running_loop().time())
        if seq <= link.watermark:
            # a heartbeat (seq 0: observed above, nothing to deliver), or
            # a frame redelivered from a retry queue whose first copy was
            # already counted and dispatched
            if seq:
                mesh.duplicates_dropped += 1
            return
        link.watermark = seq
        if mesh.watermark_sink is not None and seq % _WATERMARK_EVERY == 0:
            mesh.watermark_sink(link.src, self.dst, seq)
        mesh.frames_received += 1
        if self.remote:
            # the sender resolved on drain; re-open the slot here so
            # delays/drops settle through the shared _deliver
            mesh.in_flight += 1
        mesh._deliver(link.src, self.dst, data)
