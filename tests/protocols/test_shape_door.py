"""Every registered message, one wrong-typed field at a time, at every
party that handles it: dropped at the door, and counted.

``Party.receive`` checks a frame's field types against its message
dataclass before any handler runs.  For each message type a party
factory registers, Hypothesis (derandomized) replaces one field -- or
one field nested inside a tuple or a nested dataclass -- of an
honest-shaped frame with a value of another type.  Delivering it must
raise nothing, send nothing, leave the party's state as it was and move
no counter but ``malformed``.

The shapes here are read from the annotations by this file's own small
walker (``_sample``, ``_paths``, ``_kinds``), not by the checker under
test.
"""

import dataclasses
import random
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codes import BlockFragment, ReedSolomon
from repro.crypto.common_coin import WeightedCoin
from repro.crypto.dleq import DleqProof
from repro.crypto.group import TEST_GROUP_256 as G
from repro.protocols.avid import AvidParty
from repro.protocols.checkpointing import CheckpointParty
from repro.protocols.common_coin import BeaconParty
from repro.protocols.ec_broadcast import EcParty
from repro.protocols.reliable_broadcast import BroadcastParty
from repro.protocols.smr import SmrParty
from repro.protocols.vaba import VabaParty
from repro.recovery.smr import RecoverableSmrParty
from repro.runtime import default_registry
from repro.sim.process import shape_check
from repro.weighted.quorum import NominalQuorums
from repro.weighted.transform import blunt_setup
from repro.weighted.virtual import VirtualUserMap

WEIGHTS = [4, 3, 2, 1]
N = len(WEIGHTS)
QUORUMS = NominalQuorums(n=N, t=1)
_COIN = WeightedCoin(G, blunt_setup(WEIGHTS, "1/3", "1/2").result.assignment, "1/2", random.Random(0))

#: every party type that registers a handler, built as party 0 of four
FACTORIES = {
    "rbc": lambda: BroadcastParty(0, QUORUMS, 1),
    "smr": lambda: SmrParty(0, N, QUORUMS, lambda epoch: 0),
    "recoverable-smr": lambda: RecoverableSmrParty(0, N, QUORUMS, lambda epoch: 0),
    "avid": lambda: AvidParty(0, QUORUMS),
    "vaba": lambda: VabaParty(0, N, 1),
    "checkpoint-blunt": lambda: CheckpointParty(0, _COIN, random.Random(1)),
    "checkpoint-tight": lambda: CheckpointParty(
        0, _COIN, random.Random(1), mode="tight", weights=WEIGHTS, beta="1/2"
    ),
    "beacon": lambda: BeaconParty(0, _COIN, random.Random(1)),
    "ec": lambda: EcParty(0, ReedSolomon(k=2, m=N), VirtualUserMap([1] * N)),
}

REGISTERED = default_registry().registered_types()

#: (factory, message type) for every handler a factory registers
HANDLED = [
    (name, cls)
    for name, factory in FACTORIES.items()
    for cls in REGISTERED
    if cls in factory()._handlers
]

#: one value of each shape a decoded field can hold
VALUES = (
    None,
    True,
    7,
    1.5,
    b"x",
    bytearray(b"x"),
    "s",
    (),
    (b"x",),
    [1],
    BlockFragment(0, b"x"),
    DleqProof(1, 2),
)


def _kinds(hint) -> set:
    """The classes a value fitting ``hint`` can have, at its top level."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return set().union(*map(_kinds, typing.get_args(hint)))
    if typing.get_origin(hint) is tuple:
        return {tuple}
    return {hint}


def _sample(hint):
    """An honest-shaped value of ``hint``: one item per variadic tuple."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return _sample(next(arg for arg in args if arg is not type(None)))
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return (_sample(args[0]),)
        return tuple(map(_sample, args))
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(*(_sample(hints[f.name]) for f in dataclasses.fields(hint)))
    return hint()


def _paths(hint, prefix=()):
    """``(path, hint)`` of every value inside a ``hint``-shaped sample."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        for arg in args:
            yield from _paths(arg, prefix)
    elif typing.get_origin(hint) is tuple:
        items = args[:1] if args[-1] is Ellipsis else args
        for i, item in enumerate(items):
            yield prefix + (i,), item
            yield from _paths(item, prefix + (i,))
    elif dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        for field in dataclasses.fields(hint):
            yield prefix + (field.name,), hints[field.name]
            yield from _paths(hints[field.name], prefix + (field.name,))


def _replaced(value, path, new):
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        return value[:step] + (_replaced(value[step], rest, new),) + value[step + 1 :]
    return dataclasses.replace(value, **{step: _replaced(getattr(value, step), rest, new)})


def _state(value, depth=0) -> str:
    """A comparable snapshot: containers and this package's protocol
    objects by content, a random generator by its state, anything else
    (keys, callables) by identity."""
    if depth > 12:
        return "..."
    kind = type(value)
    if value is None or kind in (bool, int, float, str, bytes):
        return repr(value)
    if kind in (list, tuple):
        return f"{kind.__name__}[{','.join(_state(v, depth + 1) for v in value)}]"
    if kind in (set, frozenset):
        return "{" + ",".join(sorted(_state(v, depth + 1) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(f"{_state(k, depth + 1)}:{_state(v, depth + 1)}" for k, v in value.items())
        return f"{kind.__name__}{{{','.join(items)}}}"
    if isinstance(value, random.Random):
        return repr(value.getstate())
    module = kind.__module__
    if module.startswith("repro.") and not module.startswith("repro.crypto"):
        slots = [s for c in kind.__mro__ for s in getattr(c, "__slots__", ())]
        attrs = {s: getattr(value, s) for s in slots if hasattr(value, s)}
        attrs.update(getattr(value, "__dict__", {}))
        return f"{kind.__name__}({_state(attrs, depth + 1)})"
    return f"<{kind.__name__} {id(value)}>"


class _Wire:
    """A network that records what the party says."""

    party_ids = range(N)

    def __init__(self):
        self.said = []

    def send(self, src, dst, message):
        self.said.append((dst, message))

    def broadcast(self, src, message, *, include_self=True):
        self.said.append(("all", message))


def _party_state(party) -> str:
    skip = {"network", "_handlers", "counters"}
    return _state({k: v for k, v in vars(party).items() if k not in skip})


def test_every_registered_type_is_handled_or_nested_in_a_handled_one():
    handled = {cls for _, cls in HANDLED}
    nested = {
        h
        for cls in handled
        for _, hint in _paths(cls)
        for h in _kinds(hint)
        if dataclasses.is_dataclass(h)
    }
    assert set(REGISTERED) == handled | nested


@pytest.mark.parametrize("cls", REGISTERED, ids=lambda cls: cls.__name__)
def test_the_honest_shape_passes_the_door(cls):
    assert shape_check(cls)(_sample(cls))


#: the handled types that have a field to get wrong
FIELDED = [(name, cls) for name, cls in HANDLED if dataclasses.fields(cls)]


@pytest.mark.parametrize("factory, cls", FIELDED, ids=[f"{f}-{c.__name__}" for f, c in FIELDED])
@settings(
    derandomize=True,
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_wrong_typed_field_is_dropped_and_counted(factory, cls, data):
    path, hint = data.draw(st.sampled_from(list(_paths(cls))), label="field")
    wrong = data.draw(
        st.sampled_from([v for v in VALUES if type(v) not in _kinds(hint)]), label="value"
    )
    frame = _replaced(_sample(cls), path, wrong)
    party = FACTORIES[factory]()
    party.network = wire = _Wire()
    before = _party_state(party)
    party.receive(frame, 1)
    assert wire.said == []
    assert dict(party.counters) == {"malformed": 1}
    assert _party_state(party) == before
