"""Binary message codec for the live runtime.

The discrete-event simulator charges messages an *estimated* wire size
(``wire_size()`` or a flat header plus payload length).  The runtime
serializes messages for real, so the byte counters it reports are actual
payload bytes on the wire -- a cross-check of the sim's Table 1 numbers.

Design: a :class:`CodecRegistry` maps message dataclasses to short string
tags.  Encoding is a tagged, self-describing binary format covering the
value shapes protocol messages actually use (ints of any size, bytes,
strings, bools, ``None``, tuples, and nested registered dataclasses such
as :class:`~repro.codes.reed_solomon.BlockFragment` inside an AVID
message).  Frames are length-prefixed (4-byte big-endian), so a TCP
stream can be cut back into messages with :class:`FrameAssembler`.

Bytes payloads ride a zero-copy fast path: block fragments are single
``bytes`` values appended to the output buffer in one C-level operation
(no per-symbol marshalling), :meth:`CodecRegistry.encode_frame` builds
the length prefix and body in one buffer (no concatenation copy), and
:class:`FrameAssembler` decodes straight out of its stream buffer
through a memoryview instead of materializing each frame body first.
The transports encode each message exactly once per send -- the byte
metric is taken from that same encode, never from a second pass.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Iterator, Optional, Type

__all__ = [
    "CodecError",
    "CodecRegistry",
    "FrameAssembler",
    "default_registry",
    "frame",
]

_LEN = struct.Struct(">I")

# one-byte type markers of the value encoding
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"I"
_BYTES = b"B"
_STR = b"S"
_TUPLE = b"L"
_DATACLASS = b"D"


class CodecError(ValueError):
    """Raised on unknown tags, unregistered types, or malformed frames."""


class CodecRegistry:
    """Bidirectional mapping ``message class <-> wire tag``.

    Only registered dataclasses can cross a transport; an attempt to
    encode anything else raises :class:`CodecError` so protocol authors
    find out at send time rather than with a silent drop.
    """

    def __init__(self) -> None:
        self._by_tag: dict[str, Type] = {}
        self._by_cls: dict[Type, str] = {}

    # -- registration ------------------------------------------------------------
    def register(self, cls: Type, tag: Optional[str] = None) -> Type:
        """Register ``cls`` (a dataclass) under ``tag`` (default: class name)."""
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"{cls!r} is not a dataclass")
        tag = tag or cls.__name__
        if len(tag.encode()) > 0xFFFF:
            raise CodecError("tag too long")
        existing = self._by_tag.get(tag)
        if existing is not None and existing is not cls:
            raise CodecError(f"tag {tag!r} already bound to {existing!r}")
        self._by_tag[tag] = cls
        self._by_cls[cls] = tag
        return cls

    def registered_types(self) -> list[Type]:
        return list(self._by_cls)

    def is_registered(self, cls: Type) -> bool:
        return cls in self._by_cls

    # -- value encoding ----------------------------------------------------------
    def _encode_value(self, value: Any, out: bytearray) -> None:
        if value is None:
            out += _NONE
        elif value is True:
            out += _TRUE
        elif value is False:
            out += _FALSE
        elif isinstance(value, int):
            raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
            out += _INT
            out += _LEN.pack(len(raw))
            out += raw
        elif isinstance(value, (bytes, bytearray)):
            # Fast path: += on the bytearray appends the buffer directly;
            # no intermediate bytes() copy for the (large) block payloads.
            out += _BYTES
            out += _LEN.pack(len(value))
            out += value
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out += _STR
            out += _LEN.pack(len(raw))
            out += raw
        elif isinstance(value, (tuple, list)):
            out += _TUPLE
            out += _LEN.pack(len(value))
            for item in value:
                self._encode_value(item, out)
        elif dataclasses.is_dataclass(value):
            out += _DATACLASS
            self._encode_body(value, out)
        else:
            raise CodecError(f"cannot encode value of type {type(value).__name__}")

    def _decode_value(self, buf: memoryview, pos: int) -> tuple[Any, int]:
        marker = bytes(buf[pos : pos + 1])
        pos += 1
        if marker == _NONE:
            return None, pos
        if marker == _TRUE:
            return True, pos
        if marker == _FALSE:
            return False, pos
        if marker == _INT:
            n, pos = self._read_len(buf, pos)
            return int.from_bytes(buf[pos : pos + n], "big", signed=True), pos + n
        if marker == _BYTES:
            n, pos = self._read_len(buf, pos)
            return bytes(buf[pos : pos + n]), pos + n
        if marker == _STR:
            n, pos = self._read_len(buf, pos)
            return bytes(buf[pos : pos + n]).decode("utf-8"), pos + n
        if marker == _TUPLE:
            n, pos = self._read_len(buf, pos)
            items = []
            for _ in range(n):
                item, pos = self._decode_value(buf, pos)
                items.append(item)
            return tuple(items), pos
        if marker == _DATACLASS:
            return self._decode_body(buf, pos)
        raise CodecError(f"unknown value marker {marker!r}")

    @staticmethod
    def _read_len(buf: memoryview, pos: int) -> tuple[int, int]:
        if pos + 4 > len(buf):
            raise CodecError("truncated frame")
        return _LEN.unpack_from(buf, pos)[0], pos + 4

    # -- message encoding ----------------------------------------------------------
    def _encode_body(self, message: Any, out: bytearray) -> None:
        tag = self._by_cls.get(type(message))
        if tag is None:
            raise CodecError(f"unregistered message type {type(message).__name__}")
        raw = tag.encode()
        out += struct.pack(">H", len(raw))
        out += raw
        for field in dataclasses.fields(message):
            self._encode_value(getattr(message, field.name), out)

    def _decode_body(self, buf: memoryview, pos: int) -> tuple[Any, int]:
        if pos + 2 > len(buf):
            raise CodecError("truncated frame")
        (tag_len,) = struct.unpack_from(">H", buf, pos)
        pos += 2
        try:
            tag = bytes(buf[pos : pos + tag_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed message tag: {exc}") from exc
        pos += tag_len
        cls = self._by_tag.get(tag)
        if cls is None:
            raise CodecError(f"unknown message tag {tag!r}")
        kwargs = {}
        for field in dataclasses.fields(cls):
            value, pos = self._decode_value(buf, pos)
            kwargs[field.name] = value
        return cls(**kwargs), pos

    def encode(self, message: Any) -> bytes:
        """Serialize one message (no frame prefix)."""
        out = bytearray()
        self._encode_body(message, out)
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`; raises on trailing garbage."""
        return self.decode_view(memoryview(data))

    def decode_view(self, buf: memoryview) -> Any:
        """Decode one message straight out of a memoryview (zero-copy
        entry point: no frame-body materialization before decoding)."""
        message, pos = self._decode_body(buf, 0)
        if pos != len(buf):
            raise CodecError(f"{len(buf) - pos} trailing bytes after message")
        return message

    def encoded_size(self, message: Any) -> int:
        """Real payload bytes of ``message`` -- the runtime's metric unit.

        Diagnostic helper only: the transports never call this, they
        meter the length of the one encode they already perform per send
        (see ``Transport._encode_and_record``).
        """
        return len(self.encode(message))

    # -- framing -------------------------------------------------------------------
    def encode_frame(self, message: Any) -> bytes:
        """Length-prefixed encoding suitable for a byte stream.

        Built in a single buffer: the 4-byte prefix is reserved up front
        and patched after the body is appended, avoiding the
        concatenation copy of ``frame(encode(message))``.
        """
        out = bytearray(_LEN.size)
        self._encode_body(message, out)
        _LEN.pack_into(out, 0, len(out) - _LEN.size)
        return bytes(out)

    def decode_frame(self, frame: bytes) -> Any:
        """Decode one complete length-prefixed frame."""
        if len(frame) < 4:
            raise CodecError("short frame")
        (n,) = _LEN.unpack_from(frame, 0)
        if len(frame) != 4 + n:
            raise CodecError("frame length mismatch")
        return self.decode(frame[4:])


def frame(body: bytes) -> bytes:
    """Wrap an encoded message body in the 4-byte length prefix.

    The single definition of the stream framing -- the TCP transport and
    :class:`FrameAssembler` both build on it.
    """
    return _LEN.pack(len(body)) + body


class FrameAssembler:
    """Incremental frame cutter for a TCP byte stream.

    Feed arbitrary chunks; iterate complete message bodies as they become
    available.  Keeps at most one partial frame of state.
    """

    def __init__(self, registry: CodecRegistry) -> None:
        self.registry = registry
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> Iterator[Any]:
        self._buffer += chunk
        while True:
            if len(self._buffer) < 4:
                return
            (n,) = _LEN.unpack_from(self._buffer, 0)
            if len(self._buffer) < 4 + n:
                return
            # Decode straight from the stream buffer (zero-copy): both
            # views must be released before the buffer can shrink (on
            # errors the traceback would otherwise keep the slice's
            # export alive).  The frame is consumed even when decoding
            # raises, so one bad frame surfaces one error instead of
            # wedging the stream.
            view = memoryview(self._buffer)
            body = view[4 : 4 + n]
            try:
                message = self.registry.decode_view(body)
            finally:
                body.release()
                view.release()
                del self._buffer[: 4 + n]
            yield message

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def default_registry() -> CodecRegistry:
    """A registry pre-loaded with every protocol message type in the repo.

    Nested payload dataclasses (Reed-Solomon fragments, signature shares,
    DLEQ proofs) are registered too so AVID and beacon traffic round-trips.
    """
    from ..codes.reed_solomon import BlockFragment, Fragment
    from ..crypto.dleq import DleqProof
    from ..crypto.threshold_sig import SignatureShare
    from ..protocols.avid import AvidDisperse, AvidEcho, AvidFragments, AvidRetrieveRequest
    from ..protocols.checkpointing import CheckpointShare, CheckpointVote
    from ..protocols.common_coin import CoinShareMsg
    from ..protocols.ec_broadcast import EcFragment, EcRequest
    from ..protocols.reliable_broadcast import RbcEcho, RbcReady, RbcSend
    from ..protocols.smr import BatchEcho, BatchReady, BatchSend
    from ..protocols.vaba import Commit, Decide, Proposal, Vote, Vouch
    from ..recovery.smr import StateSyncRequest, StateSyncResponse

    registry = CodecRegistry()
    for cls in (
        # nested payloads
        Fragment,
        BlockFragment,
        DleqProof,
        SignatureShare,
        # Bracha RBC
        RbcSend,
        RbcEcho,
        RbcReady,
        # SMR batches
        BatchSend,
        BatchEcho,
        BatchReady,
        # AVID
        AvidDisperse,
        AvidEcho,
        AvidRetrieveRequest,
        AvidFragments,
        # randomness beacon
        CoinShareMsg,
        # checkpointing
        CheckpointVote,
        CheckpointShare,
        # erasure-coded broadcast
        EcRequest,
        EcFragment,
        # VABA
        Proposal,
        Vote,
        Commit,
        Decide,
        Vouch,
        # crash recovery (always registered: the fault-free wire format
        # is unchanged because these are only ever sent after a restart)
        StateSyncRequest,
        StateSyncResponse,
    ):
        registry.register(cls)
    return registry
