"""The plan-driven codec equals the reflective encoder it replaced.

``codec_oracle`` keeps ``_encode_value`` / ``_encode_body`` as they were
when every message was reflected with ``dataclasses.fields()``.  For
every type ``default_registry()`` knows, with arbitrary field values of
every shape the format covers, the codec's bytes are the oracle's bytes
and decoding them gives the message back.  Its ``oracle_decode`` is the
recursive decoder the inlined field loop replaced: on every encoding and
every strict prefix of it, both decoders give the same value or the same
``CodecError``.
"""

import dataclasses
import enum

import codec_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.codec import default_registry

REGISTRY = default_registry()
TYPES = REGISTRY.registered_types()

INTS = st.one_of(
    st.integers(-300, 300),  # the 1- and 2-byte boundaries (127/128, 255/256)
    st.integers(-(2**64), 2**64),
    st.integers(-(2**4096), 2**4096),
)
BLOBS = st.one_of(st.binary(max_size=48), st.binary(max_size=48).map(bytearray))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, BLOBS, st.text(max_size=12))


def _instances(values):
    """Instances of registered types, every field drawn from ``values``."""
    return st.one_of(
        [
            st.tuples(*[values] * len(dataclasses.fields(cls))).map(
                lambda fields, cls=cls: cls(*fields)
            )
            for cls in TYPES
        ]
    )


#: scalars, tuples of values, and registered dataclasses holding values
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), _instances(inner)
    ),
    max_leaves=8,
)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bytes_equal_the_oracle_and_round_trip(cls, data):
    values = [data.draw(VALUES, label=f.name) for f in dataclasses.fields(cls)]
    message = cls(*values)
    encoded = REGISTRY.encode(message)
    assert encoded == oracle.oracle_encode(REGISTRY, message)
    assert REGISTRY.decode(encoded) == message
    assert REGISTRY.encode_frame(message)[4:] == encoded


def _decoded(decode, data):
    """``decode(data)``'s result as a type-sensitive string, or its error."""
    try:
        return repr(decode(data))
    except oracle.CodecError as exc:
        return f"CodecError: {exc}"


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
@settings(max_examples=10, deadline=None)  # every prefix: quadratic in length
@given(data=st.data())
def test_the_inlined_decoder_agrees_with_the_oracle_on_every_prefix(cls, data):
    """The field loop that reads ``I`` / ``B`` itself decodes what the
    recursive decoder did, and fails every strict prefix with the same
    ``CodecError``."""
    values = [data.draw(VALUES, label=f.name) for f in dataclasses.fields(cls)]
    encoded = REGISTRY.encode(cls(*values))
    for cut in range(len(encoded) + 1):
        prefix = encoded[:cut]
        assert _decoded(REGISTRY.decode, prefix) == _decoded(
            lambda raw: oracle.oracle_decode(REGISTRY, raw), prefix
        ), cut


def test_bools_keep_their_own_markers():
    from repro.protocols.vaba import Proposal

    encoded = REGISTRY.encode(Proposal(round=True, value=False))
    assert encoded.endswith(b"TF")
    decoded = REGISTRY.decode(encoded)
    assert decoded.round is True and decoded.value is False
    assert REGISTRY.encode(Proposal(round=1, value=0)).endswith(
        b"I\x00\x00\x00\x01\x01I\x00\x00\x00\x01\x00"
    )


def test_subclasses_encode_as_the_built_in_they_extend():
    """What exact-type dispatch must not change: values that only an
    ``isinstance`` test recognises."""
    from typing import NamedTuple

    from repro.protocols.vaba import Proposal

    class Colour(enum.IntEnum):
        RED = 7

    class Tagged(bytes):
        pass

    class Name(str):
        pass

    class Pair(NamedTuple):
        a: int
        b: bytes

    for odd, plain in [
        (Colour.RED, 7),
        (Tagged(b"abc"), b"abc"),
        (Name("hé"), "hé"),
        (Pair(1, b"x"), (1, b"x")),
        ([1, None, b"x"], (1, None, b"x")),
    ]:
        message = Proposal(round=odd, value=b"")
        assert REGISTRY.encode(message) == oracle.oracle_encode(REGISTRY, message)
        assert REGISTRY.decode(REGISTRY.encode(message)) == Proposal(plain, b"")
