"""Party abstraction: a state machine reacting to delivered messages.

Protocol implementations subclass :class:`Party` and register handlers by
message class.  Byzantine behaviors are subclasses overriding the honest
logic (equivocating, withholding, or garbling); crash faults simply stop
processing.  Every backend delivers through :meth:`Party.receive`, the one
place a frame's field types are checked (:func:`shape_check`); handlers
keep only the semantic checks -- ranges, lengths, hashes.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Optional, Type

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["Party", "shape_check"]


@functools.cache
def shape_check(cls: Type) -> Callable[[object], bool]:
    """``check(message)``: whether each field of a ``cls`` instance holds
    a value of its annotated type -- compiled once per class from
    :func:`typing.get_type_hints` to one expression.  Classes match exactly
    (a ``bool`` is no ``int``, a ``bytearray`` no ``bytes``) and
    ``tuple[X, ...]``, fixed tuples, ``X | None`` and nested dataclasses
    are checked through; any other annotation raises ``TypeError``."""
    env: dict[str, object] = {}
    tests = _field_tests(cls, "m", env, 0) if dataclasses.is_dataclass(cls) else []
    exec(f"def check(m):\n    return {' and '.join(tests) or 'True'}\n", env)
    return env["check"]


def _field_tests(cls: Type, path: str, env: dict, depth: int) -> list[str]:
    hints = typing.get_type_hints(cls)
    return [
        _test(hints[field.name], f"{path}.{field.name}", env, depth)
        for field in dataclasses.fields(cls)
    ]


def _test(hint, path: str, env: dict, depth: int) -> str:
    """A Python expression, true when the value at ``path`` fits ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is type(None):
        return f"{path} is None"
    if origin is typing.Union or origin is types.UnionType:
        return "(" + " or ".join(_test(arg, path, env, depth) for arg in args) + ")"
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            item = f"x{depth}"
            each = _test(args[0], item, env, depth + 1)
            return f"(type({path}) is tuple and all({each} for {item} in {path}))"
        tests = [f"type({path}) is tuple", f"len({path}) == {len(args)}"]
        tests += [_test(arg, f"{path}[{i}]", env, depth) for i, arg in enumerate(args)]
        return "(" + " and ".join(tests) + ")"
    if origin is None and isinstance(hint, type):
        name = f"{hint.__name__}_{len(env)}"
        env[name] = hint
        test = f"type({path}) is {name}"
        if not dataclasses.is_dataclass(hint):
            return test
        return "(" + " and ".join([test, *_field_tests(hint, path, env, depth)]) + ")"
    raise TypeError(f"no shape check for the annotation {hint!r}")


class Party:
    """A protocol participant identified by an integer ``pid``.

    Subclasses register message handlers with :meth:`on` (usually in
    ``__init__``) or override :meth:`receive` wholesale.  A handler sees
    only well-typed frames: :meth:`receive` drops and counts the others
    in ``counters["malformed"]``.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.network: Optional["Network"] = None
        self.crashed = False
        #: message class -> (its shape check, its handler)
        self._handlers: dict[Type, tuple[Callable, Callable]] = {}
        #: free-form counters protocols use for computation metrics
        self.counters: dict[str, int] = defaultdict(int)

    # -- wiring -----------------------------------------------------------------
    def on(self, message_type: Type, handler: Callable) -> None:
        """Register ``handler(message, sender)`` for ``message_type``."""
        self._handlers[message_type] = (shape_check(message_type), handler)

    def receive(self, message, sender: int) -> None:
        """Entry point invoked by the network on delivery."""
        if self.crashed:
            return
        entry = self._handlers.get(type(message))
        if entry is None:
            return
        check, handler = entry
        if check(message):
            handler(message, sender)
        else:
            self.counters["malformed"] += 1

    # -- sending ----------------------------------------------------------------
    def send(self, dst: int, message) -> None:
        if self.network is None:
            raise RuntimeError(f"party {self.pid} is not attached to a network")
        self.network.send(self.pid, dst, message)

    def broadcast(self, message, *, include_self: bool = True) -> None:
        if self.network is None:
            raise RuntimeError(f"party {self.pid} is not attached to a network")
        self.network.broadcast(self.pid, message, include_self=include_self)

    # -- fault injection -----------------------------------------------------------
    def crash(self) -> None:
        """Stop reacting to any further message (crash fault)."""
        self.crashed = True

    def restart(self) -> None:
        """Resume reacting to messages (crash-restart fault).

        The base party carries no volatile protocol state to rebuild;
        recoverable subclasses override this to replay their write-ahead
        log and resynchronize from live peers before rejoining.
        """
        self.crashed = False
        self.bump("restarts")

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named computation counter."""
        self.counters[counter] += amount
