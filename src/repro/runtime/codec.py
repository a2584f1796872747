"""Binary message codec: the one definition of the wire format.

The live transports serialize every message with it, and the
discrete-event simulator sizes every message with it
(:meth:`CodecRegistry.encoded_size`), so the byte counters of every
backend -- the communication columns of the paper's Table 1 -- are the
payload bytes this codec puts on the wire.

Design: a :class:`CodecRegistry` maps message dataclasses to short string
tags.  A message is its tag (2-byte length, UTF-8 name) followed by its
fields in declaration order; a value is a one-byte marker, a 4-byte
big-endian length where the marker calls for one, and the raw bytes.
That covers the shapes protocol messages use: ints of any size, bytes,
strings, bools, ``None``, tuples, and nested registered dataclasses
(a :class:`~repro.codes.reed_solomon.BlockFragment` inside an AVID
message).  The codec emits message bodies only; cutting a stream into
messages is the transport's business.

Nothing is reflected per message.  :meth:`CodecRegistry.register`
compiles a *plan* for the class -- tag header bytes and field names --
and refuses there a dataclass ``decode`` could not rebuild.  Encoding
dispatches on the exact type of a value (bytes, int, tuple), then falls
through to the ``isinstance`` chain the format was defined by (kept as
the oracle in ``tests/runtime/codec_oracle.py``).  Decoding dispatches on
the integer marker, checks every length against the end of the buffer
*before* slicing, so a truncated payload raises ``CodecError("truncated
frame")`` and constructs nothing, and rebuilds ``cls(*values)``.  The
loop over a class's fields reads the two markers nearly every field
carries -- ``I`` and ``B`` -- itself and hands every other marker to
``_decode_value`` (the recursive decoder it inlines is the oracle's
``oracle_decode``).  Encoding collects a message's parts in a list --
a bytes payload by reference -- and joins them once, so each payload
byte is copied once; decoding slices a payload out of the buffer in one
C-level operation (no per-symbol marshalling of block fragments).

Nesting is bounded: a value sits inside at most ``32`` tuples and nested
dataclasses (the message itself not counted), and a deeper frame raises
``CodecError`` rather than exhausting the interpreter's stack.  The
registered messages nest at most 3 deep (a ``CheckpointShare`` holds a
``SignatureShare`` holding a ``DleqProof``).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, NamedTuple, Optional, Type

__all__ = [
    "CodecError",
    "CodecRegistry",
    "default_registry",
]

_LEN = struct.Struct(">I")
_unpack_len = _LEN.unpack_from
#: a marker byte and the 4-byte length that follows it, packed together
_head = struct.Struct(">BI").pack
_TAG_LEN = struct.Struct(">H")
#: most tuples and nested dataclasses a decoded value may sit inside
_MAX_NESTING = 32

# one-byte type markers of the value encoding, as the integers that
# indexing a ``bytes`` payload yields (and ``_head`` packs); the four
# that no length follows also as bytes to append
_MARKERS = b"NTFIBSLD"
_M_NONE, _M_TRUE, _M_FALSE, _M_INT, _M_BYTES, _M_STR, _M_TUPLE, _M_DATACLASS = _MARKERS
_NONE, _TRUE, _FALSE, _DATACLASS = (
    bytes((marker,)) for marker in (_M_NONE, _M_TRUE, _M_FALSE, _M_DATACLASS)
)


class CodecError(ValueError):
    """Raised on unknown tags, unregistered types, or malformed frames."""


class _Plan(NamedTuple):
    """What ``register`` compiles for one class."""

    cls: Type
    #: 2-byte tag length + tag: the first bytes of every encoding
    header: bytes
    #: field names in declaration order: the order on the wire and the
    #: positional order of ``cls(*values)``
    names: tuple[str, ...]


class CodecRegistry:
    """Bidirectional mapping ``message class <-> wire tag``.

    Only registered dataclasses can cross a transport; an attempt to
    encode anything else raises :class:`CodecError` so protocol authors
    find out at send time rather than with a silent drop.
    """

    def __init__(self) -> None:
        self._plans: dict[Type, _Plan] = {}
        #: raw tag bytes, as they sit in a payload -> plan
        self._by_tag: dict[bytes, _Plan] = {}

    # -- registration ------------------------------------------------------------
    def register(self, cls: Type, tag: Optional[str] = None) -> Type:
        """Register ``cls`` (a dataclass) under ``tag`` (default: class name)."""
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"{cls!r} is not a dataclass")
        raw = (tag or cls.__name__).encode()
        if len(raw) > 0xFFFF:
            raise CodecError("tag too long")
        existing = self._by_tag.get(raw)
        if existing is not None and existing.cls is not cls:
            raise CodecError(f"tag {raw.decode()!r} already bound to {existing.cls!r}")
        fields = dataclasses.fields(cls)
        for field in fields:
            if not field.init or field.kw_only:  # decode rebuilds cls(*values)
                raise CodecError(
                    f"{cls.__name__}.{field.name} is not a positional init field"
                )
        plan = _Plan(cls, _TAG_LEN.pack(len(raw)) + raw, tuple(f.name for f in fields))
        self._by_tag[raw] = plan
        self._plans[cls] = plan
        return cls

    def registered_types(self) -> list[Type]:
        return list(self._plans)

    def is_registered(self, cls: Type) -> bool:
        return cls in self._plans

    # -- encoding ------------------------------------------------------------------
    def _encode_body(self, message: Any, out: list) -> None:
        plan = self._plans.get(type(message))
        if plan is None:
            raise CodecError(f"unregistered message type {type(message).__name__}")
        out.append(plan.header)
        for name in plan.names:
            self._encode_value(getattr(message, name), out)

    def _encode_value(self, value: Any, out: list) -> None:
        kind = type(value)
        if kind is bytes:
            # the (large) block payloads are referenced, not copied: their
            # one copy is encode's final join
            out.append(_head(_M_BYTES, len(value)))
            out.append(value)
        elif kind is int:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out.append(_head(_M_INT, len(raw)))
            out.append(raw)
        elif kind is tuple:
            out.append(_head(_M_TUPLE, len(value)))
            for item in value:
                self._encode_value(item, out)
        # not one of the hot exact types: the chain the format was defined
        # by, a subclass reduced to the built-in it extends
        elif value is None:
            out.append(_NONE)
        elif value is True:
            out.append(_TRUE)
        elif value is False:
            out.append(_FALSE)
        elif isinstance(value, int):
            self._encode_value(int(value), out)
        elif isinstance(value, (bytes, bytearray)):
            self._encode_value(bytes(value), out)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_head(_M_STR, len(raw)))
            out.append(raw)
        elif isinstance(value, (tuple, list)):
            self._encode_value(tuple(value), out)
        elif dataclasses.is_dataclass(value):
            out.append(_DATACLASS)
            self._encode_body(value, out)
        else:
            raise CodecError(f"cannot encode value of type {kind.__name__}")

    def encode(self, message: Any) -> bytes:
        """Serialize one message: tag, then fields, joined once."""
        out: list = []
        self._encode_body(message, out)
        return b"".join(out)

    def encoded_size(self, message: Any) -> int:
        """Payload bytes of ``message``: what the simulator meters (the
        live transports meter the one encode they perform)."""
        return len(self.encode(message))

    def encode_frame(self, message: Any) -> bytes:
        """:meth:`encode` behind a 4-byte length."""
        # No transport calls this (the mesh frames bodies itself): it stays
        # because the ledger's tracer patches it by name and raises if gone.
        body = self.encode(message)
        return _LEN.pack(len(body)) + body

    # -- decoding ------------------------------------------------------------------
    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`; raises :class:`CodecError` on a
        truncated payload and on trailing garbage."""
        if type(data) is not bytes:
            data = bytes(data)  # so that data[i] is an int and a slice is bytes
        end = len(data)
        message, pos = self._decode_body(data, 0, end, 0)
        if pos != end:
            raise CodecError(f"{end - pos} trailing bytes after message")
        return message

    def _decode_body(
        self, buf: bytes, pos: int, end: int, depth: int
    ) -> tuple[Any, int]:
        """The registered dataclass at ``pos``, ``depth`` containers deep."""
        start = pos + 2
        if start > end:
            raise CodecError("truncated frame")
        stop = start + ((buf[pos] << 8) | buf[pos + 1])
        if stop > end:
            raise CodecError("truncated frame")
        plan = self._by_tag.get(buf[start:stop])
        if plan is None:
            raise CodecError(f"unknown message tag {buf[start:stop]!r}")
        pos = stop
        values = []
        for _ in plan.names:
            if pos >= end:
                raise CodecError("truncated frame")
            marker = buf[pos]
            if marker == _M_BYTES or marker == _M_INT:
                start = pos + 5
                if start > end:
                    raise CodecError("truncated frame")
                pos = start + _unpack_len(buf, pos + 1)[0]
                if pos > end:
                    raise CodecError("truncated frame")
                if marker == _M_BYTES:
                    values.append(buf[start:pos])
                else:
                    values.append(int.from_bytes(buf[start:pos], "big", signed=True))
            else:
                value, pos = self._decode_value(buf, pos, end, depth)
                values.append(value)
        return plan.cls(*values), pos

    def _decode_value(
        self, buf: bytes, pos: int, end: int, depth: int
    ) -> tuple[Any, int]:
        """The value at ``pos`` inside a container ``depth`` deep."""
        if pos >= end:
            raise CodecError("truncated frame")
        marker = buf[pos]
        if marker == _M_NONE:
            return None, pos + 1
        if marker == _M_TRUE:
            return True, pos + 1
        if marker == _M_FALSE:
            return False, pos + 1
        if (marker == _M_DATACLASS or marker == _M_TUPLE) and depth >= _MAX_NESTING:
            raise CodecError(f"frame nested more than {_MAX_NESTING} deep")
        if marker == _M_DATACLASS:
            return self._decode_body(buf, pos + 1, end, depth + 1)
        # every other marker is followed by a 4-byte length
        start = pos + 5
        if start > end:
            raise CodecError("truncated frame")
        (n,) = _unpack_len(buf, pos + 1)
        if marker == _M_TUPLE:
            items = []
            pos = start
            for _ in range(n):
                item, pos = self._decode_value(buf, pos, end, depth + 1)
                items.append(item)
            return tuple(items), pos
        stop = start + n
        if stop > end:
            raise CodecError("truncated frame")
        if marker == _M_BYTES:
            return buf[start:stop], stop
        if marker == _M_INT:
            return int.from_bytes(buf[start:stop], "big", signed=True), stop
        if marker == _M_STR:
            try:
                return buf[start:stop].decode("utf-8"), stop
            except UnicodeDecodeError as exc:
                raise CodecError(f"malformed string: {exc}") from exc
        raise CodecError(f"unknown value marker {bytes((marker,))!r}")


def default_registry() -> CodecRegistry:
    """A registry pre-loaded with every protocol message type in the repo.

    Nested payload dataclasses (Reed-Solomon fragments, signature shares,
    DLEQ proofs) are registered too so AVID and beacon traffic round-trips.
    """
    from ..codes.reed_solomon import BlockFragment
    from ..crypto.dleq import DleqProof
    from ..crypto.threshold_sig import SignatureShare
    from ..protocols.avid import AvidDisperse, AvidEcho, AvidFragments, AvidRetrieveRequest
    from ..protocols.checkpointing import CheckpointShare, CheckpointVote
    from ..protocols.ec_broadcast import EcFragment, EcRequest
    from ..protocols.reliable_broadcast import BrachaEcho, BrachaReady, BrachaSend
    from ..protocols.vaba import Commit, Decide, Proposal, Vote
    from ..recovery.smr import StateSyncRequest, StateSyncResponse

    registry = CodecRegistry()
    for cls in (
        # nested payloads
        BlockFragment,
        DleqProof,
        SignatureShare,
        # Bracha broadcast: RBC and SMR batches
        BrachaSend,
        BrachaEcho,
        BrachaReady,
        # AVID
        AvidDisperse,
        AvidEcho,
        AvidRetrieveRequest,
        AvidFragments,
        # checkpointing and the randomness beacon
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
        # crash recovery (always registered: the fault-free wire format
        # is unchanged because these are only ever sent after a restart)
        StateSyncRequest,
        StateSyncResponse,
    ):
        registry.register(cls)
    return registry
