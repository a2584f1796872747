"""The reflective encoder the codec had before it compiled per-class plans:
``dataclasses.fields()`` on every message, an ``isinstance`` chain per
value.  Kept as the reference the plan-driven encoder must match byte for
byte (``test_codec_oracle.py``); never imported from ``src/``.  Tags are
the class names, as in every registry ``default_registry()`` builds."""

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
