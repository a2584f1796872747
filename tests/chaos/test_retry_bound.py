"""Bounded self-healing link queues: while a link is *down*, a long
partition under load sheds the *oldest* queued frames instead of growing
memory without bound, and every shed frame is visible in
``retries_dropped`` and the fault trace.  The bound applies to a down
link only; a healthy one, and a dead peer end to end over real sockets,
are in ``tests/runtime/test_tcp.py::TestLinkQueue``."""

import asyncio

from repro.protocols.reliable_broadcast import BrachaSend
from repro.runtime import FaultController
from repro.runtime.codec import default_registry
from repro.runtime.transport import _FRAME, DEFAULT_RETRY_LIMIT, TcpTransport


LINK = (0, 1)


def _transport(faults=None):
    return TcpTransport(default_registry(), faults=faults)


def _down(transport):
    """``LINK`` as its writer task leaves it while backing off.  No task
    is spawned for a down link, so these sends never reach a socket."""
    transport._peers[1] = ("127.0.0.1", 9)
    link = transport._links[LINK]
    link.down = True
    return link


def _seqs(link):
    return [_FRAME.unpack(header)[0] for header, _ in link.queue]


class TestRetryBound:
    def test_default_bound_is_wired(self):
        assert _transport().retry_limit == DEFAULT_RETRY_LIMIT

    def test_drop_oldest_beyond_a_small_bound(self):
        async def scenario():
            faults = FaultController()
            transport = _transport(faults)
            transport.retry_limit = 3
            link = _down(transport)
            for i in range(5):
                await transport.send(*LINK, BrachaSend(0, 0, b"frame-%d" % i))
            # oldest-first: the survivors are the newest frames
            assert _seqs(link) == [3, 4, 5]
            assert link.queue[-1][1].endswith(b"frame-4")
            assert transport.retries_dropped == 2
            # a dropped frame's fate is decided: its slot closes; a kept
            # frame holds the slot send() opened
            assert transport.in_flight == 3
            drops = [e for e in faults.trace if e[2] == "retry-dropped"]
            assert drops == [(0, 1, "retry-dropped")] * 2

        asyncio.run(scenario())

    def test_queue_within_the_bound_is_untouched(self):
        async def scenario():
            transport = _transport()
            transport.retry_limit = 3
            link = _down(transport)
            for i in range(3):
                await transport.send(*LINK, BrachaSend(0, 0, b"frame-%d" % i))
            assert _seqs(link) == [1, 2, 3]
            assert transport.retries_dropped == 0
            assert transport.in_flight == 3

        asyncio.run(scenario())
