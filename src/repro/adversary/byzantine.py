"""Party-level Byzantine behaviors: the code a corrupted party runs.

Strategies (:mod:`repro.adversary.strategies`) decide *who* is corrupted
and with which parameters; the functions here rewrite a just-constructed
party's entry points and handlers to misbehave.  Both execution backends
build parties through the same driver factory, so instance-level patching
makes a corruption mean exactly the same thing on the simulator and on
the live runtime.

Every behavior draws its randomness from a :class:`random.Random` seeded
by the scenario seed, keeping sim-backend records byte-identical across
runs -- the property the fuzz campaign's replay specs rely on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Sequence

from ..crypto.dleq import DleqProof, _root_challenge
from ..crypto.threshold_sig import SignatureShare
from ..protocols.reliable_broadcast import BrachaEcho, BrachaReady, BrachaSend

__all__ = [
    "alt_payload",
    "make_silent",
    "make_equivocator",
    "make_garbler",
    "make_share_flooder",
    "forge_share",
]


def alt_payload(payload: bytes, tag: str = "equivocate") -> bytes:
    """A deterministic second payload of the same length as ``payload``."""
    block = hashlib.sha256(tag.encode() + b"|" + payload).digest()
    reps = (len(payload) + len(block) - 1) // len(block)
    return (block * reps)[: len(payload)] if payload else block[:1]


def make_silent(party) -> None:
    """Byzantine omission: the party receives nothing and initiates
    nothing.  Entry points are patched per protocol surface."""
    party.receive = lambda message, sender: None
    for entry in ("broadcast_value", "propose_batch", "sign_checkpoint", "propose"):
        if hasattr(party, entry):
            setattr(party, entry, lambda *a, **k: None)


def make_equivocator(party, groups: Sequence[Sequence[int]]) -> None:
    """Equivocating sender: whenever the party broadcasts a
    :class:`BrachaSend` (always for its own instance), group 0 gets it and
    group 1 (node ids) gets a conflicting payload; its ECHO / READY votes
    in every instance go out honestly."""
    honest_broadcast = party.broadcast

    def broadcast(message, **kwargs) -> None:
        if not isinstance(message, BrachaSend):
            return honest_broadcast(message, **kwargs)
        conflicting = replace(message, payload=alt_payload(message.payload))
        for version, dsts in zip((message, conflicting), groups):
            for dst in dsts:
                party.send(dst, version)

    party.broadcast = broadcast


def make_garbler(party) -> None:
    """Wrong-payload voter: echoes a garbled copy of every SEND it sees
    (attacking the content-keyed vote maps) and withholds its honest
    echoes and readies entirely."""

    def handle_send(message: BrachaSend, sender: int) -> None:
        garbled = alt_payload(message.payload, "garble")
        party.broadcast(BrachaEcho(message.epoch, message.origin, garbled))

    party.on(BrachaSend, handle_send)
    party.on(BrachaEcho, lambda message, sender: None)
    party.on(BrachaReady, lambda message, sender: None)


def forge_share(scheme, message: bytes, index: int, rng: random.Random) -> SignatureShare:
    """A forged signature share under an *honest* signer's index, built to
    survive every cheap per-item check of the batch verifier.

    The Fiat-Shamir challenge is computed honestly over forged values and
    every element is sent as its canonical root, so the forgery passes
    the range, root-decoding, and challenge-recomputation checks and
    reaches the random-linear-combination aggregate -- which fails,
    driving the bisection down to the per-share oracle.  This is the
    most expensive rejection path a Byzantine share can force.
    """
    group = scheme.group
    canon = group.canonical_root
    g, h = group.generator_root, scheme.message_root(message)
    y1 = scheme.keys.public_shares[index]
    y2 = canon(group.fast_power(h, group.random_exponent(rng)))
    a1 = canon(group.fast_power(g, group.random_exponent(rng)))
    a2 = canon(group.fast_power(h, group.random_exponent(rng)))
    c = _root_challenge(group, g, y1, h, y2, a1, a2)
    r = group.random_exponent(rng)
    return SignatureShare(
        index=index, value=y2, proof=DleqProof(challenge=c, response=r, commit1=a1, commit2=a2)
    )


def make_share_flooder(
    party,
    *,
    honest_indices: Sequence[int],
    rng: random.Random,
    flood: int = 8,
    withhold: bool = True,
) -> None:
    """Checkpoint-share flooder: on every ``sign_checkpoint`` the party
    broadcasts ``flood`` forged shares under honest signer indices (so
    naive index-keyed collectors would block) and, when ``withhold`` is
    set, contributes none of its own honest shares."""
    from ..protocols.checkpointing import CheckpointShare

    original = party.sign_checkpoint
    indices = list(honest_indices)

    def sign_checkpoint(checkpoint: bytes) -> None:
        for _ in range(flood):
            index = indices[rng.randrange(len(indices))]
            share = forge_share(party.scheme, checkpoint, index, rng)
            party.broadcast(CheckpointShare(checkpoint=checkpoint, share=share))
        if not withhold:
            original(checkpoint)

    party.sign_checkpoint = sign_checkpoint
