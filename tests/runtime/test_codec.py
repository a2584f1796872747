"""Codec round-trips for every registered protocol message type."""

import dataclasses

import pytest

from repro.codes.reed_solomon import BlockFragment
from repro.crypto.dleq import DleqProof
from repro.crypto.threshold_sig import SignatureShare
from repro.protocols.avid import (
    AvidDisperse,
    AvidEcho,
    AvidFragments,
    AvidRetrieveRequest,
)
from repro.protocols.checkpointing import CheckpointShare, CheckpointVote
from repro.protocols.ec_broadcast import EcFragment, EcRequest
from repro.protocols.reliable_broadcast import BrachaEcho, BrachaReady, BrachaSend
from repro.protocols.vaba import Commit, Decide, Proposal, Vote
from repro.recovery.smr import StateSyncRequest, StateSyncResponse
from repro.runtime.codec import CodecError, CodecRegistry, default_registry

_PROOF = DleqProof(challenge=2**255 - 19, response=123456789)
_SHARE = SignatureShare(index=3, value=2**200 + 7, proof=_PROOF)

#: one representative instance of every type default_registry() knows
SAMPLES = [
    BlockFragment(index=7, block=bytes(range(64))),
    _PROOF,
    _SHARE,
    BrachaSend(0, 0, b"hello world"),
    BrachaEcho(0, 0, b""),
    BrachaReady(0, 0, bytes(range(256))),
    BrachaSend(epoch=0, origin=6, payload=b"batch-0"),
    BrachaEcho(epoch=3, origin=0, payload=b"x" * 1000),
    BrachaReady(epoch=2**40, origin=1, payload=b"big epoch"),
    AvidDisperse(
        fragments=(BlockFragment(0, b"\x07\x08"), BlockFragment(1, b"\x09\x0a")),
        hash_list=(b"\x00" * 32, b"\xff" * 32),
        commitment=b"\xab" * 32,
        data_shards=2,
        total_shards=4,
        original_length=4,
    ),
    AvidEcho(commitment=b"\x01" * 32),
    AvidRetrieveRequest(commitment=b"\x02" * 32),
    AvidFragments(commitment=b"\x03" * 32, fragments=(BlockFragment(2, b"\x04"),)),
    CheckpointVote(checkpoint=b"cp-hash"),
    CheckpointShare(checkpoint=b"cp-hash", share=_SHARE),
    EcRequest(),
    EcFragment(fragment=BlockFragment(11, b"\x0d" * 16)),
    Proposal(round=1, value=b"p"),
    Vote(round=2, value=b"v"),
    Commit(value=b"c"),
    Decide(value=b"d"),
    StateSyncRequest(requester=4),
    StateSyncResponse(
        responder=2,
        entries=((0, 1, b"payload-0"), (1, 3, b"payload-1")),
    ),
]


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestRoundTrips:
    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
    def test_message_round_trip(self, registry, message):
        data = registry.encode(message)
        assert registry.decode(data) == message
        assert registry.encoded_size(message) == len(data)

    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
    def test_encode_frame_is_length_then_body(self, registry, message):
        body = registry.encode(message)
        assert registry.encode_frame(message) == len(body).to_bytes(4, "big") + body

    def test_samples_cover_every_registered_type(self, registry):
        sampled = {type(m) for m in SAMPLES}
        registered = set(registry.registered_types())
        missing = {c.__name__ for c in registered - sampled}
        assert not missing, f"add codec samples for: {sorted(missing)}"

    def test_negative_and_huge_ints(self, registry):
        reg = CodecRegistry()

        @dataclasses.dataclass(frozen=True)
        class Probe:
            a: int
            b: int

        reg.register(Probe)
        probe = Probe(a=-(2**300), b=0)
        assert reg.decode(reg.encode(probe)) == probe


class TestErrors:
    def test_unregistered_type_rejected(self, registry):
        @dataclasses.dataclass(frozen=True)
        class Rogue:
            x: int

        with pytest.raises(CodecError, match="unregistered"):
            registry.encode(Rogue(x=1))

    def test_unknown_tag_rejected(self, registry):
        other = CodecRegistry()

        @dataclasses.dataclass(frozen=True)
        class Alien:
            x: int

        other.register(Alien)
        with pytest.raises(CodecError, match="unknown message tag"):
            registry.decode(other.encode(Alien(x=1)))

    def test_trailing_garbage_rejected(self, registry):
        data = registry.encode(SAMPLES[0])
        with pytest.raises(CodecError, match="trailing"):
            registry.decode(data + b"\x00")

    def test_duplicate_tag_rejected(self):
        reg = CodecRegistry()

        @dataclasses.dataclass(frozen=True)
        class One:
            x: int

        reg.register(One, tag="t")
        with pytest.raises(CodecError, match="already bound"):

            @dataclasses.dataclass(frozen=True)
            class Two:
                x: int

            reg.register(Two, tag="t")

    def test_non_dataclass_rejected(self):
        with pytest.raises(CodecError, match="not a dataclass"):
            CodecRegistry().register(int)

    def test_unencodable_value_rejected(self, registry):
        reg = CodecRegistry()

        @dataclasses.dataclass(frozen=True)
        class Holder:
            x: object

        reg.register(Holder)
        with pytest.raises(CodecError, match="cannot encode"):
            reg.encode(Holder(x=3.14))


class TestBytesFastPath:
    """Fuzz round-trips through the codec's zero-copy bytes fast path."""

    @pytest.mark.parametrize("seed", range(12))
    def test_block_fragment_fuzz_round_trip(self, registry, seed):
        import random

        rng = random.Random(seed)
        fragments = tuple(
            BlockFragment(index=rng.randrange(1 << 16), block=rng.randbytes(rng.randrange(0, 2048)))
            for _ in range(rng.randrange(1, 8))
        )
        message = AvidFragments(commitment=rng.randbytes(32), fragments=fragments)
        data = registry.encode(message)
        assert registry.decode(data) == message


class TestSingleEncodePerSend:
    """The transports must encode each message exactly once per send --
    the byte metric comes from that same encode (no metering re-encode)."""

    def _counting_registry(self):
        registry = default_registry()
        counts = {"encode": 0}
        original_body = registry._encode_body

        def counted_body(message, out):
            counts["encode"] += 1
            return original_body(message, out)

        registry._encode_body = counted_body
        return registry, counts

    def test_inproc_send_encodes_once(self):
        import asyncio

        from repro.protocols.reliable_broadcast import BrachaSend
        from repro.runtime.transport import InProcTransport

        registry, counts = self._counting_registry()
        recorded = []

        async def drive():
            transport = InProcTransport(
                registry, record=lambda name, size: recorded.append((name, size))
            )
            got = []
            transport.bind(0, lambda src, m: got.append(m))
            transport.bind(1, lambda src, m: got.append(m))
            await transport.start()
            message = BrachaSend(0, 0, payload=b"x" * 512)
            sent = await transport.send(0, 1, message)
            while not got:
                await asyncio.sleep(0.001)
            await transport.stop()
            return got, sent

        got, sent = asyncio.run(drive())
        # one encode for the send -- nested dataclasses would add to the
        # count only if the message contained any, BrachaSend does not
        assert counts["encode"] == 1
        assert recorded == [("BrachaSend", sent)]

    def test_tcp_send_encodes_once(self):
        import asyncio

        from repro.protocols.reliable_broadcast import BrachaSend
        from repro.runtime.transport import TcpTransport

        registry, counts = self._counting_registry()
        recorded = []

        async def drive():
            transport = TcpTransport(
                registry, record=lambda name, size: recorded.append((name, size))
            )
            got = []
            transport.bind(0, lambda src, m: got.append(m))
            transport.bind(1, lambda src, m: got.append(m))
            await transport.start()
            message = BrachaSend(0, 0, payload=b"y" * 512)
            sent = await transport.send(0, 1, message)
            for _ in range(2000):
                if got:
                    break
                await asyncio.sleep(0.001)
            await transport.stop()
            return got, sent

        got, sent = asyncio.run(drive())
        assert counts["encode"] == 1
        assert got == [BrachaSend(0, 0, payload=b"y" * 512)]
        assert recorded == [("BrachaSend", sent)]


TestSingleEncodePerSend.test_tcp_send_encodes_once = pytest.mark.tcp(
    TestSingleEncodePerSend.test_tcp_send_encodes_once
)


class TestTruncation:
    """A payload cut anywhere raises ``truncated frame`` before anything
    is constructed (it used to slice short, build the dataclass and only
    then fail on a negative count of "trailing bytes")."""

    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
    def test_every_strict_prefix_is_truncated(self, registry, message):
        data = registry.encode(message)
        for cut in range(len(data)):
            with pytest.raises(CodecError) as caught:
                registry.decode(data[:cut])
            assert "trailing" not in str(caught.value), (cut, str(caught.value))

    def test_nothing_is_constructed_from_a_truncated_payload(self):
        built = []

        @dataclasses.dataclass(frozen=True)
        class Watched:
            payload: bytes

            def __post_init__(self):
                built.append(self)

        reg = CodecRegistry()
        reg.register(Watched)
        data = reg.encode(Watched(b"x" * 40))
        built.clear()
        with pytest.raises(CodecError, match="truncated frame"):
            reg.decode(data[:-1])
        assert built == []

    def test_bytes_like_input_decodes(self, registry):
        data = registry.encode(SAMPLES[0])
        assert registry.decode(bytearray(data)) == SAMPLES[0]
        assert registry.decode(memoryview(data)) == SAMPLES[0]


#: a ``BrachaEcho(0, 0, ...)`` frame up to its payload field
_ECHO_HEAD = default_registry().encode(BrachaEcho(0, 0, None))[: -len(b"N")]


def _echo_holding(values: bytes) -> bytes:
    """A ``BrachaEcho(0, 0, ...)`` frame whose payload is the raw ``values``."""
    return _ECHO_HEAD + values


class TestNesting:
    """Nesting is bounded at 32 tuples / nested dataclasses: a frame
    nested deeper is malformed, and raises ``CodecError`` -- not the
    interpreter's ``RecursionError``."""

    def test_a_deeply_nested_frame_raises_codec_error(self, registry):
        one_item_tuple = b"L" + (1).to_bytes(4, "big")
        frame = _echo_holding(one_item_tuple * 5000 + b"N")
        assert len(frame) > 25_000
        with pytest.raises(CodecError, match="nested"):
            registry.decode(frame)

    def test_deeply_nested_dataclasses_raise_codec_error(self, registry):
        inner = b"N"
        for _ in range(5000):
            inner = b"D" + _echo_holding(inner)
        with pytest.raises(CodecError, match="nested"):
            registry.decode(_echo_holding(inner))

    def test_the_bound_is_32(self, registry):
        value = b"x"
        for _ in range(32):
            value = (value,)
        deepest = BrachaEcho(0, 0, value)
        assert registry.decode(registry.encode(deepest)) == deepest
        with pytest.raises(CodecError, match="nested"):
            registry.decode(registry.encode(BrachaEcho(0, 0, (value,))))

    def test_registered_messages_nest_three_deep(self, registry):
        share = CheckpointShare(checkpoint=b"coin-epoch|" + bytes(8), share=_SHARE)
        assert registry.decode(registry.encode(share)) == share


class TestRegistrationRefusals:
    """``decode`` rebuilds ``cls(*values)``: a dataclass it could not
    rebuild is refused when registered, not at the receiver."""

    def test_init_false_field_refused(self):
        @dataclasses.dataclass
        class Derived:
            x: int
            y: int = dataclasses.field(init=False, default=0)

        with pytest.raises(CodecError, match="Derived.y"):
            CodecRegistry().register(Derived)

    def test_keyword_only_field_refused(self):
        @dataclasses.dataclass(kw_only=True)
        class Named:
            x: int

        with pytest.raises(CodecError, match="Named.x"):
            CodecRegistry().register(Named)

    def test_refused_class_leaves_no_trace(self):
        @dataclasses.dataclass
        class Derived:
            x: int = dataclasses.field(init=False, default=0)

        reg = CodecRegistry()
        with pytest.raises(CodecError):
            reg.register(Derived)
        assert not reg.is_registered(Derived)
        assert reg.registered_types() == []
