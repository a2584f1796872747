"""Bracha reliable broadcast, parameterized by a quorum policy.

The canonical SEND / ECHO / READY protocol [Bracha-Toueg 1985]: totality
and agreement come from quorum intersection, so the *same* code runs in
the nominal model (count thresholds) and the weighted model (weighted
voting) -- the paper's Section 1.2 observation.

:class:`BrachaInstance` is the protocol: the state and the three rules of
one broadcast instance at one party.  It builds and sends no message, so
every protocol that runs Bracha holds instances and speaks its own wire
format around them -- :class:`BroadcastParty` holds one, and
:class:`~repro.protocols.smr.SmrParty` one per (epoch, proposer).
Byzantine senders and voters are patched onto honest parties by
:mod:`repro.adversary.byzantine`.

A vote costs one integer add: an instance keeps a running tally per
payload over the policy's integer vote weights and compares it with the
policy's integer thresholds (``tally > need``), so no sender set is
re-summed per vote; the policy's set predicates are the oracle the
tallies are tested against (``tests/weighted/test_tally.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.process import Party
from ..weighted.quorum import QuorumPolicy

__all__ = [
    "BrachaInstance",
    "RbcSend",
    "RbcEcho",
    "RbcReady",
    "BroadcastParty",
]


class _Tally:
    """The votes of one phase for one payload: who cast them and the
    integer weight they add up to (``QuorumPolicy.vote_weights``)."""

    __slots__ = ("senders", "weight")

    def __init__(self) -> None:
        self.senders: set[int] = set()
        self.weight = 0

    def add(self, sender: int, weights: tuple[int, ...]) -> bool:
        """Count ``sender``'s vote; ``False`` (and nothing counted) when
        it has already voted."""
        if sender in self.senders:
            return False
        self.senders.add(sender)
        self.weight += weights[sender]
        return True


class BrachaInstance:
    """One broadcast instance at one party: who voted for which payload,
    and what this party has said so far.

    Each rule takes one received vote and answers what the party must now
    do -- broadcast its ECHO, broadcast its READY, deliver ``payload`` --
    each at most once.  The caller has already decided that the vote
    belongs to this instance and that ``sender`` is who the transport
    says it is.

    The rules are written here and only here, on the policy's integer
    form: a vote is one :class:`_Tally` per payload, a repeated voter
    returns before any arithmetic, and a quorum is ``tally.weight >
    quorums.echo_need`` (ECHO quorum, delivery) or ``> ready_need`` (READY
    amplification).  The policy's set predicates are the oracle these
    comparisons are tested against.  ECHOs only decide this party's
    READY, so once it is sent they are no longer tallied.

    Delivery ends the instance: the party has sent its READY by then and
    the first delivery wins, so the tallies are dropped and a late vote
    returns before the quorum policy is consulted.
    """

    __slots__ = ("echoed", "readied", "delivered", "echo_senders", "ready_senders")

    def __init__(self) -> None:
        self.echoed = False
        self.readied = False
        self.delivered = False
        #: payload -> the tally of ECHOs / READYs for it; ``None`` once
        #: the instance has delivered
        self.echo_senders: Optional[dict[bytes, _Tally]] = {}
        self.ready_senders: Optional[dict[bytes, _Tally]] = {}

    def on_send(self) -> bool:
        """A SEND arrived; ``True`` when the party must ECHO it (only
        the first one is)."""
        if self.echoed:
            return False
        self.echoed = True
        return True

    def on_echo(self, quorums: QuorumPolicy, payload: bytes, sender: int) -> bool:
        """An ECHO arrived; ``True`` when the party must send READY."""
        if self.readied or self.delivered:
            return False
        tally = self.echo_senders.get(payload)
        if tally is None:
            tally = self.echo_senders[payload] = _Tally()
        if not tally.add(sender, quorums.vote_weights):
            return False
        if tally.weight <= quorums.echo_need:
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
        tally = self.ready_senders.get(payload)
        if tally is None:
            tally = self.ready_senders[payload] = _Tally()
        if not tally.add(sender, quorums.vote_weights):
            return False, False
        weight = tally.weight
        ready = not self.readied and weight > quorums.ready_need
        if ready:
            self.readied = True
        if weight <= quorums.echo_need:
            return ready, False
        self.delivered = True
        self.echo_senders = self.ready_senders = None
        return ready, True


@dataclass(frozen=True)
class RbcSend:
    """Sender's initial message carrying the broadcast payload."""

    payload: bytes


@dataclass(frozen=True)
class RbcEcho:
    """Second-phase echo of the payload."""

    payload: bytes


@dataclass(frozen=True)
class RbcReady:
    """Third-phase readiness declaration."""

    payload: bytes


class BroadcastParty(Party):
    """An honest Bracha participant: one :class:`BrachaInstance`.

    ``delivered`` holds the delivered payload once totality triggers; the
    ``on_deliver`` callback (if any) fires exactly once.
    """

    #: the wire types of the three phases, SEND / ECHO / READY
    PHASES = (RbcSend, RbcEcho, RbcReady)

    def __init__(
        self,
        pid: int,
        quorums: QuorumPolicy,
        *,
        on_deliver: Optional[Callable[[int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.quorums = quorums
        self.on_deliver = on_deliver
        self.delivered: Optional[bytes] = None
        self.instance = BrachaInstance()
        self.on(RbcSend, self._handle_send)
        self.on(RbcEcho, self._handle_echo)
        self.on(RbcReady, self._handle_ready)

    # -- protocol steps ----------------------------------------------------------
    def broadcast_value(self, payload: bytes) -> None:
        """Initiate a broadcast as the designated sender."""
        self.broadcast(RbcSend(payload))

    def _handle_send(self, message: RbcSend, sender: int) -> None:
        if self.instance.on_send():
            self.broadcast(RbcEcho(message.payload))

    def _handle_echo(self, message: RbcEcho, sender: int) -> None:
        if self.instance.on_echo(self.quorums, message.payload, sender):
            self.broadcast(RbcReady(message.payload))

    def _handle_ready(self, message: RbcReady, sender: int) -> None:
        ready, deliver = self.instance.on_ready(self.quorums, message.payload, sender)
        if ready:
            self.broadcast(RbcReady(message.payload))
        if deliver:
            self.delivered = message.payload
            self.bump("deliveries")
            if self.on_deliver is not None:
                self.on_deliver(self.pid, message.payload)
