"""The inbound TCP protocol without a socket: ``_Inbound.data_received``
handed chunks cut anywhere.

Every complete frame is delivered from inside the call that completed it,
exactly once and in order, whatever the chunk boundaries; between calls
the protocol holds only a cut-off header or the pieces of one body (each
chunk kept as it came, joined once), so a large frame costs linear time.
"""

import pytest

from repro.protocols.reliable_broadcast import BrachaEcho, BrachaSend
from repro.runtime.codec import CodecError, default_registry
from repro.runtime.transport import _FRAME, _HELLO, TcpTransport, _Inbound

SRC, DST = 7, 1  # a remote dialer into hosted node 1


class _Stream:
    """The stand-in for the socket transport asyncio hands a protocol."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class _Receiver:
    def __init__(self, handler=None):
        self.registry = default_registry()
        self.mesh = TcpTransport(self.registry)
        self.got = []
        self.mesh.bind(DST, handler or (lambda src, message: self.got.append((src, message))))
        self.protocol = _Inbound(self.mesh, DST)
        self.stream = _Stream()
        self.protocol.connection_made(self.stream)

    def frame(self, seq, message):
        body = self.registry.encode(message)
        return _FRAME.pack(seq, len(body)) + body

    def feed(self, data, cuts):
        """Hand ``data`` over in the pieces ``cuts`` delimit."""
        for start, stop in zip([0, *cuts], [*cuts, len(data)]):
            self.protocol.data_received(data[start:stop])


MESSAGES = [
    BrachaSend(0, 0, b"a"),
    BrachaEcho(0, 0, b""),
    BrachaEcho(0, 0, bytes(range(200))),
    BrachaSend(0, 0, b"z" * 40),
]


def _stream_of(receiver, first_seq=1):
    hello = _HELLO.pack(SRC, 0)
    frames = [receiver.frame(first_seq + i, m) for i, m in enumerate(MESSAGES)]
    return hello + b"".join(frames)


@pytest.mark.parametrize("size", [1, 2, 5, 11, 12, 13, 64, 1000])
def test_frames_cut_into_chunks_of_any_size_arrive_once_in_order(size):
    receiver = _Receiver()
    data = _stream_of(receiver)
    receiver.feed(data, list(range(size, len(data), size)))
    assert receiver.got == [(SRC, m) for m in MESSAGES]
    assert len(receiver.protocol.head) < _FRAME.size
    assert receiver.mesh.frames_received == len(MESSAGES)
    assert receiver.mesh.in_flight == 0 and receiver.mesh.failure is None


def test_every_single_cut_point():
    receiver = _Receiver()
    data = _stream_of(receiver)
    for cut in range(1, len(data)):
        receiver = _Receiver()
        receiver.feed(data, [cut])
        assert receiver.got == [(SRC, m) for m in MESSAGES], cut


def test_a_large_body_is_held_as_the_chunks_that_brought_it():
    receiver = _Receiver()
    payload = bytes(range(256)) * 4096  # 1 MiB
    data = _HELLO.pack(SRC, 0) + receiver.frame(1, BrachaSend(0, 0, payload))
    chunk = 4096
    chunks = [data[i : i + chunk] for i in range(0, len(data), chunk)]
    receiver.protocol.data_received(chunks[0])
    for index, piece in enumerate(chunks[1:-1], start=1):
        receiver.protocol.data_received(piece)
        # no copy per chunk: the whole chunk itself is what is kept
        assert receiver.protocol.pieces[-1] is piece
        assert len(receiver.protocol.pieces) == index + 1
    assert receiver.got == []
    receiver.protocol.data_received(chunks[-1])
    assert receiver.got == [(SRC, BrachaSend(0, 0, payload))]
    assert receiver.protocol.pieces == [] and receiver.protocol.missing == 0


def test_a_length_claim_allocates_nothing_ahead_of_the_bytes():
    receiver = _Receiver()
    claim = _FRAME.pack(1, 0xFFFFFFFF)  # a 4 GiB body, never sent
    receiver.protocol.data_received(_HELLO.pack(SRC, 0) + claim + b"x")
    assert receiver.protocol.pieces == [b"x"]
    assert receiver.got == [] and not receiver.stream.closed


def test_frames_at_or_below_the_watermark_are_counted_not_dispatched():
    receiver = _Receiver()
    receiver.feed(_stream_of(receiver), [])
    again = b"".join(receiver.frame(seq, BrachaSend(0, 0, b"again")) for seq in (2, 4))
    receiver.protocol.data_received(again)
    assert receiver.mesh.duplicates_dropped == 2
    assert receiver.got == [(SRC, m) for m in MESSAGES]
    assert receiver.mesh.frames_received == len(MESSAGES)


def test_garbage_sets_the_failure_and_closes_only_this_stream():
    receiver = _Receiver()
    garbage = b"\x00garbage-frame"
    data = (
        _HELLO.pack(SRC, 0)
        + receiver.frame(1, BrachaSend(0, 0, b"before"))
        + _FRAME.pack(2, len(garbage))
        + garbage
        + receiver.frame(3, BrachaSend(0, 0, b"after"))
    )
    receiver.protocol.data_received(data)  # must not raise
    assert isinstance(receiver.mesh.failure, CodecError)
    assert receiver.stream.closed
    assert receiver.got == [(SRC, BrachaSend(0, 0, b"before"))]
    assert receiver.mesh.in_flight == 0


def test_a_raising_handler_is_kept_as_the_failure():
    def handler(src, message):
        raise ValueError("handler bug")

    receiver = _Receiver(handler)
    receiver.protocol.data_received(_stream_of(receiver))  # must not raise
    assert isinstance(receiver.mesh.failure, ValueError)
    assert receiver.stream.closed
    assert receiver.mesh.in_flight == 0


def test_a_reborn_dialer_resets_the_watermark():
    receiver = _Receiver()
    receiver.feed(_stream_of(receiver), [])
    reborn = _Inbound(receiver.mesh, DST)
    reborn.connection_made(_Stream())
    reborn.data_received(
        _HELLO.pack(SRC, 1) + receiver.frame(1, BrachaSend(0, 0, b"fresh"))
    )
    assert receiver.got[-1] == (SRC, BrachaSend(0, 0, b"fresh"))
    assert receiver.mesh._links[SRC, DST].watermark == 1
