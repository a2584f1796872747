"""The reflective encoder the codec had before it compiled per-class plans:
``dataclasses.fields()`` on every message, an ``isinstance`` chain per
value.  Kept as the reference the plan-driven encoder must match byte for
byte (``test_codec_oracle.py``); never imported from ``src/``.  Tags are
the class names, as in every registry ``default_registry()`` builds.

Beside it, the decoder the codec had before its field loop read the
``I`` / ``B`` markers inline: one recursive call per value, every length
checked before slicing, and no bound on nesting."""

from __future__ import annotations

import dataclasses
import struct
from typing import Any

from repro.runtime.codec import CodecError, CodecRegistry

_LEN = struct.Struct(">I")


def oracle_encode(registry: CodecRegistry, message: Any) -> bytes:
    out = bytearray()
    _encode_body(registry, message, out)
    return bytes(out)


def _encode_body(registry: CodecRegistry, message: Any, out: bytearray) -> None:
    if not registry.is_registered(type(message)):
        raise CodecError(f"unregistered message type {type(message).__name__}")
    raw = type(message).__name__.encode()
    out += struct.pack(">H", len(raw))
    out += raw
    for field in dataclasses.fields(message):
        _encode_value(registry, getattr(message, field.name), out)


def _encode_value(registry: CodecRegistry, value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out += b"I"
        out += _LEN.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += b"B"
        out += _LEN.pack(len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S"
        out += _LEN.pack(len(raw))
        out += raw
    elif isinstance(value, (tuple, list)):
        out += b"L"
        out += _LEN.pack(len(value))
        for item in value:
            _encode_value(registry, item, out)
    elif dataclasses.is_dataclass(value):
        out += b"D"
        _encode_body(registry, value, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def oracle_decode(registry: CodecRegistry, data: bytes) -> Any:
    classes = {cls.__name__.encode(): cls for cls in registry.registered_types()}
    data = bytes(data)
    message, pos = _decode_body(classes, data, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after message")
    return message


def _need(data: bytes, stop: int) -> None:
    if stop > len(data):
        raise CodecError("truncated frame")


def _decode_body(classes: dict, data: bytes, pos: int) -> tuple[Any, int]:
    _need(data, pos + 2)
    (size,) = struct.unpack_from(">H", data, pos)
    start, stop = pos + 2, pos + 2 + size
    _need(data, stop)
    cls = classes.get(data[start:stop])
    if cls is None:
        raise CodecError(f"unknown message tag {data[start:stop]!r}")
    pos = stop
    values = []
    for _ in dataclasses.fields(cls):
        value, pos = _decode_value(classes, data, pos)
        values.append(value)
    return cls(*values), pos


def _decode_value(classes: dict, data: bytes, pos: int) -> tuple[Any, int]:
    _need(data, pos + 1)
    marker = data[pos : pos + 1]
    if marker in (b"N", b"T", b"F"):
        return {b"N": None, b"T": True, b"F": False}[marker], pos + 1
    if marker == b"D":
        return _decode_body(classes, data, pos + 1)
    _need(data, pos + 5)
    (n,) = _LEN.unpack_from(data, pos + 1)
    start = pos + 5
    if marker == b"L":
        items = []
        pos = start
        for _ in range(n):
            item, pos = _decode_value(classes, data, pos)
            items.append(item)
        return tuple(items), pos
    stop = start + n
    _need(data, stop)
    raw = data[start:stop]
    if marker == b"B":
        return raw, stop
    if marker == b"I":
        return int.from_bytes(raw, "big", signed=True), stop
    if marker == b"S":
        try:
            return raw.decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed string: {exc}") from exc
    raise CodecError(f"unknown value marker {marker!r}")
