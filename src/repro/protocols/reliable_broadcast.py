"""Bracha reliable broadcast, parameterized by a quorum policy.

The canonical SEND / ECHO / READY protocol [Bracha-Toueg 1985]: totality
and agreement come from quorum intersection, so the *same* code runs in
the nominal model (count thresholds) and the weighted model (weighted
voting) -- the paper's Section 1.2 observation.

:class:`BrachaInstance` is the protocol: the state and the three rules of
one broadcast instance at one party.  It builds and sends no message.
:class:`BrachaHost` is the one party that runs instances: it keys them
by ``(epoch, origin)``, speaks the one wire family
(:class:`BrachaSend` / :class:`BrachaEcho` / :class:`BrachaReady`) and
hands each delivery to its subclass.  :class:`BroadcastParty` is the
host with the one key ``(0, sender)``, and
:class:`~repro.protocols.smr.SmrParty` the host with one key per
(epoch, proposer).  Byzantine senders and voters are patched onto honest
parties by :mod:`repro.adversary.byzantine`.

A vote costs one integer add: each phase of an instance is one
:class:`~repro.weighted.quorum.Tally` (a sender's first payload counts,
a later one is dropped), compared with the policy's integer thresholds
(``weight > need``); the policy's set predicates are the oracle the
tallies are tested against (``tests/weighted/test_tally.py``).  Field
types are checked at the door (``Party.receive``); the handlers check
only what a type cannot say (:func:`well_formed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.process import Party
from ..weighted.quorum import QuorumPolicy, Tally

__all__ = [
    "BrachaInstance",
    "BrachaSend",
    "BrachaEcho",
    "BrachaReady",
    "BrachaHost",
    "BroadcastParty",
    "well_formed",
]


class BrachaInstance:
    """One broadcast instance at one party: who voted for which payload,
    and what this party has said so far.

    Each rule takes one received vote and answers what the party must now
    do -- broadcast its ECHO, broadcast its READY, deliver ``payload`` --
    each at most once.  The caller has already decided that the vote
    belongs to this instance and that ``sender`` is who the transport
    says it is.

    The rules are written here and only here, on the policy's integer
    form: the ECHOs and the READYs are one :class:`Tally` each, keyed by
    sender, so a sender's first ECHO (READY) counts and any later one --
    for the same payload or another -- returns before any arithmetic; a
    quorum is a payload's weight ``> quorums.echo_need`` (ECHO quorum,
    delivery) or ``> ready_need`` (READY amplification).  The policy's set
    predicates are the oracle these comparisons are tested against.
    ECHOs only decide this party's READY, so once it is sent they are no
    longer tallied.

    Delivery ends the instance: the party has sent its READY by then and
    the first delivery wins, so the tallies are dropped and a late vote
    returns before the quorum policy is consulted.
    """

    __slots__ = ("origin", "echoed", "readied", "delivered", "echoes", "readies")

    def __init__(self, origin: int) -> None:
        self.origin = origin
        self.echoed = False
        self.readied = False
        self.delivered = False
        #: the ECHO / READY tallies (choices are payloads); ``None`` once
        #: the instance has delivered
        self.echoes: Optional[Tally] = Tally()
        self.readies: Optional[Tally] = Tally()

    def on_send(self, sender: int) -> bool:
        """A SEND arrived from ``sender``; ``True`` when the party must
        ECHO it.  Only the origin's first one is: a broadcast has one
        origin, so no other party can start it with its own value."""
        if sender != self.origin or self.echoed:
            return False
        self.echoed = True
        return True

    def on_echo(self, quorums: QuorumPolicy, payload: bytes, sender: int) -> bool:
        """An ECHO arrived; ``True`` when the party must send READY."""
        if self.readied or self.delivered:
            return False
        if self.echoes.add(sender, payload, quorums.vote_weights) <= quorums.echo_need:
            return False
        self.readied = True
        return True

    def on_ready(
        self, quorums: QuorumPolicy, payload: bytes, sender: int
    ) -> tuple[bool, bool]:
        """A READY arrived; ``(ready, deliver)``: whether the party must
        send READY (amplification) and whether it must deliver."""
        if self.delivered:
            return False, False
        weight = self.readies.add(sender, payload, quorums.vote_weights)
        ready = not self.readied and weight > quorums.ready_need
        if ready:
            self.readied = True
        if weight <= quorums.echo_need:
            return ready, False
        self.delivered = True
        self.echoes = self.readies = None
        return ready, True


@dataclass(frozen=True)
class BrachaSend:
    """SEND: the origin's payload, opening instance ``(epoch, origin)``."""

    epoch: int
    origin: int
    payload: bytes


@dataclass(frozen=True)
class BrachaEcho:
    """ECHO of the payload a SEND carried in ``(epoch, origin)``."""

    epoch: int
    origin: int
    payload: bytes


@dataclass(frozen=True)
class BrachaReady:
    """READY for a payload of ``(epoch, origin)``."""

    epoch: int
    origin: int
    payload: bytes


def well_formed(epoch: int, origin: int, n: int) -> bool:
    """Whether ``(epoch, origin)`` can name a broadcast of one of ``n``
    parties: an epoch ``>= 0`` and an origin in ``range(n)``."""
    return epoch >= 0 and 0 <= origin < n


class _Instances(dict):
    """(epoch, origin) -> its instance, made by the first message that
    names a key its host admits, with the origin as origin.  A key the
    host does not admit maps to ``None`` and is not stored."""

    __slots__ = ("admits",)

    def __init__(self, admits: Callable[[int, int], bool]) -> None:
        super().__init__()
        self.admits = admits

    def __missing__(self, key: tuple[int, int]) -> Optional[BrachaInstance]:
        if not self.admits(*key):
            return None
        instance = self[key] = BrachaInstance(key[1])
        return instance


class BrachaHost(Party):
    """A party that runs Bracha broadcasts: ``instances`` and the SEND /
    ECHO / READY handlers around them.

    A frame reaches a handler well typed (:meth:`Party.receive` drops and
    counts any other); its key is checked (:meth:`_admits`) only when it
    would open an instance.  Each instance that delivers calls
    :meth:`_commit` once.
    """

    def __init__(self, pid: int, quorums: QuorumPolicy) -> None:
        super().__init__(pid)
        self.quorums = quorums
        #: (epoch, origin) -> that broadcast's state at this party
        self.instances = _Instances(self._admits)
        self.on(BrachaSend, self._handle_send)
        self.on(BrachaEcho, self._handle_echo)
        self.on(BrachaReady, self._handle_ready)

    def _admits(self, epoch: int, origin: int) -> bool:
        """Whether a frame naming ``(epoch, origin)`` may open it."""
        raise NotImplementedError

    def _commit(self, epoch: int, origin: int, payload: bytes) -> None:
        """Instance ``(epoch, origin)`` delivered ``payload``."""
        raise NotImplementedError

    def _handle_send(self, message: BrachaSend, sender: int) -> None:
        epoch, origin, payload = message.epoch, message.origin, message.payload
        instance = self.instances[epoch, origin]
        if instance is not None and instance.on_send(sender):
            self.broadcast(BrachaEcho(epoch, origin, payload))

    def _handle_echo(self, message: BrachaEcho, sender: int) -> None:
        epoch, origin, payload = message.epoch, message.origin, message.payload
        instance = self.instances[epoch, origin]
        if instance is not None and instance.on_echo(self.quorums, payload, sender):
            self.broadcast(BrachaReady(epoch, origin, payload))

    def _handle_ready(self, message: BrachaReady, sender: int) -> None:
        epoch, origin, payload = message.epoch, message.origin, message.payload
        instance = self.instances[epoch, origin]
        if instance is None:
            return
        ready, deliver = instance.on_ready(self.quorums, payload, sender)
        if ready:
            self.broadcast(BrachaReady(epoch, origin, payload))
        if deliver:
            self._commit(epoch, origin, payload)


class BroadcastParty(BrachaHost):
    """An honest Bracha participant in ``sender``'s one broadcast, the
    instance ``(0, sender)``: no other key opens an instance, so neither
    another party nor a second epoch of the sender's starts a second one.

    ``delivered`` holds the delivered payload once totality triggers.
    """

    def __init__(self, pid: int, quorums: QuorumPolicy, sender: int) -> None:
        super().__init__(pid, quorums)
        self.sender = sender
        self.delivered: Optional[bytes] = None

    def broadcast_value(self, payload: bytes) -> None:
        """Initiate a broadcast as the designated sender."""
        self.broadcast(BrachaSend(0, self.pid, payload))

    def _admits(self, epoch: int, origin: int) -> bool:
        return epoch == 0 and origin == self.sender

    def _commit(self, epoch: int, origin: int, payload: bytes) -> None:
        self.delivered = payload
        self.bump("deliveries")
