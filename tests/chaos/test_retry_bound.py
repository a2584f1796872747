"""Bounded self-healing retry queues: a long partition under load sheds
the *oldest* parked frames instead of growing memory without bound, and
every shed frame is visible in ``retries_dropped`` and the fault trace."""

import asyncio

from repro.runtime import FaultController
from repro.runtime.codec import default_registry
from repro.runtime.transport import DEFAULT_RETRY_LIMIT, TcpTransport


LINK = (0, 1)


def _transport(faults=None):
    return TcpTransport(default_registry(), faults=faults)


class TestRetryBound:
    def test_default_bound_is_wired(self):
        assert _transport().retry_limit == DEFAULT_RETRY_LIMIT

    def test_drop_oldest_beyond_a_small_bound(self):
        async def scenario():
            faults = FaultController()
            transport = _transport(faults)
            transport.retry_limit = 3
            # each parked frame holds the in-flight slot send() opened
            transport.in_flight = 5
            for i in range(5):
                transport._park(LINK, b"frame-%d" % i)
            try:
                backlog = transport._links[LINK].backlog
                # oldest-first: the survivors are the newest frames
                assert list(backlog) == [b"frame-2", b"frame-3", b"frame-4"]
                assert transport.retries_dropped == 2
                # a dropped frame's fate is decided: its slot closes
                assert transport.in_flight == 3
                drops = [e for e in faults.trace if e[2] == "retry-dropped"]
                assert drops == [(0, 1, "retry-dropped")] * 2
            finally:
                transport._links[LINK].retry_task.cancel()

        asyncio.run(scenario())

    def test_backlog_within_the_bound_is_untouched(self):
        async def scenario():
            transport = _transport()
            transport.retry_limit = 3
            transport.in_flight = 3
            for i in range(3):
                transport._park(LINK, b"frame-%d" % i)
            try:
                assert len(transport._links[LINK].backlog) == 3
                assert transport.retries_dropped == 0
                assert transport.in_flight == 3
            finally:
                transport._links[LINK].retry_task.cancel()

        asyncio.run(scenario())
