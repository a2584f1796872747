"""Asynchronous Verifiable Information Dispersal (paper, Section 5.1).

A simplified Cachin-Tessaro AVID: the dealer Reed-Solomon-encodes the
data, commits to the fragment vector with a hash list, and sends each
party its fragment(s) plus the commitment.  Parties that find their
fragments consistent echo the commitment; a storage quorum of echoes
makes the data *stored* (retrievable despite ``f`` faults).  Retrieval
collects hash-verified fragments and erasure-decodes.

Payloads are arbitrary byte strings carried as *block fragments*: the
coding engine (:meth:`~repro.codes.reed_solomon.ReedSolomon.encode_blocks`)
reads the payload as ``k`` contiguous bit-plane shards, so each party
holds one byte block per ticket, end to end -- on the discrete-event
simulator and on the live runtime, whose codec ships the blocks through
its bytes fast path without per-symbol marshalling.

The code is *systematic*, as in practical Cachin-Tessaro dispersal:
fragments ``0..k-1`` are the payload's shards themselves and the dealer
codes only the ``m - k`` parity fragments; the hash list still commits
to all ``m``.  Retrieval keeps the data shards it collected as they are
and rebuilds only the ones it lacks, with the evaluation matrix cached
per index set, so repeated retrievals against the same storage quorum
skip interpolation setup (and a retrieval holding every data shard
combines nothing).

Nominal layout: ``(t+1, n)`` coding, one fragment per party, storage
quorum ``2t + 1``.  Weighted layout (``qualification_setup``): ``(ceil(
beta_n T), T)`` coding, ``t_i`` fragments for party ``i``, storage quorum
weight above ``2 f_w W`` -- the fragments held by the honest part (weight
above ``f_w W``) of any storage quorum suffice to reconstruct because the
WQ constraint qualifies every such subset (Section 5.1's argument).
Field types are checked at the door (``Party.receive``); the handlers
check geometry, lengths and hashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..codes.reed_solomon import BlockFragment, ReedSolomon
from ..sim.process import Party
from ..weighted.quorum import QuorumPolicy, Tally
from ..weighted.virtual import VirtualUserMap

__all__ = [
    "AvidDisperse",
    "AvidEcho",
    "AvidRetrieveRequest",
    "AvidFragments",
    "AvidParty",
    "fragment_digest",
    "commitment_from_hashes",
]


def fragment_digest(fragments: Sequence[BlockFragment]) -> bytes:
    """Commitment: hash of the per-fragment hash list (all ``m`` fragments)."""
    return commitment_from_hashes(_hash_block(f.block) for f in fragments)


def commitment_from_hashes(hashes) -> bytes:
    """The commitment as a pure function of the hash list -- storers use
    this to check that a dealer's commitment actually binds the hash list
    it shipped (otherwise an equivocating dealer could get one commitment
    stored against two different lists, breaking retrievability)."""
    h = hashlib.sha256()
    for index, fragment_hash in enumerate(hashes):
        h.update(index.to_bytes(4, "big"))
        h.update(fragment_hash)
    return h.digest()


@dataclass(frozen=True)
class AvidDisperse:
    """Dealer -> party: the party's fragments, the full hash list, metadata."""

    fragments: tuple[BlockFragment, ...]
    hash_list: tuple[bytes, ...]
    commitment: bytes
    data_shards: int
    total_shards: int
    original_length: int


@dataclass(frozen=True)
class AvidEcho:
    """Party -> all: my fragments are consistent with this commitment."""

    commitment: bytes


@dataclass(frozen=True)
class AvidRetrieveRequest:
    """Retriever -> all: please send your fragments for this commitment."""

    commitment: bytes


@dataclass(frozen=True)
class AvidFragments:
    """Party -> retriever: stored fragments."""

    commitment: bytes
    fragments: tuple[BlockFragment, ...]


def _hash_block(block: bytes) -> bytes:
    return hashlib.sha256(block).digest()


def _hash_fragment(f: BlockFragment) -> bytes:
    return _hash_block(f.block)


class AvidParty(Party):
    """One AVID participant (dealer, storer, and potential retriever).

    A dispersal has one dealer, ``dealer``: an ``AvidDisperse`` from any
    other sender is dropped, so no party can plant a dispersal of its
    own."""

    def __init__(
        self,
        pid: int,
        quorums: QuorumPolicy,
        *,
        dealer: int = 0,
        on_stored: Optional[Callable[[int, bytes], None]] = None,
        on_retrieved: Optional[Callable[[int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.quorums = quorums
        self.dealer = dealer
        self.on_stored = on_stored
        self.on_retrieved = on_retrieved
        self.stored_commitment: Optional[bytes] = None
        self.my_fragments: tuple[BlockFragment, ...] = ()
        self.hash_list: tuple[bytes, ...] = ()
        self.data_shards = 0
        self.total_shards = 0
        self.original_length = 0
        #: the code of the accepted dispersal: its geometry is validated
        #: once, in ``_handle_disperse``, and retrieval decodes with it
        self._code: Optional[ReedSolomon] = None
        self.retrieved: Optional[bytes] = None
        #: the echo phase, one commitment per sender; ``None`` once stored
        self._echoes: Optional[Tally] = Tally()
        self._collected: dict[int, bytes] = {}
        self.on(AvidDisperse, self._handle_disperse)
        self.on(AvidEcho, self._handle_echo)
        self.on(AvidRetrieveRequest, self._handle_retrieve_request)
        self.on(AvidFragments, self._handle_fragments)

    # -- dealer side --------------------------------------------------------------
    def disperse(
        self,
        data: bytes,
        code: ReedSolomon,
        vmap: VirtualUserMap,
    ) -> bytes:
        """Encode the ``data`` payload and send each party its fragments.

        The first ``code.k`` fragments are ``data``'s shards (systematic
        layout).  ``vmap`` maps fragment indices to parties (one fragment
        per virtual user); the nominal case uses the identity assignment.
        Returns the commitment.
        """
        data = bytes(data)
        work_before = code.work_counter
        blocks = code.encode_blocks(data, systematic=True)
        self.bump("encode_symbols", code.work_counter - work_before)
        fragments = [BlockFragment(j, b) for j, b in enumerate(blocks)]
        hash_list = tuple(_hash_fragment(f) for f in fragments)
        commitment = commitment_from_hashes(hash_list)
        assert self.network is not None
        for party in self.network.party_ids:
            mine = tuple(fragments[v] for v in vmap.virtual_ids(party))
            self.send(
                party,
                AvidDisperse(
                    fragments=mine,
                    hash_list=hash_list,
                    commitment=commitment,
                    data_shards=code.k,
                    total_shards=code.m,
                    original_length=len(data),
                ),
            )
        return commitment

    # -- storer side -----------------------------------------------------------------
    def _handle_disperse(self, message: AvidDisperse, sender: int) -> None:
        if sender != self.dealer:
            return  # one dealer: no other party plants a dispersal
        if self._code is not None:
            return  # the first accepted dispersal wins: keep serving it
        # Geometry before any indexing: a Byzantine dealer controls every
        # field of this message.
        if len(message.hash_list) != message.total_shards:
            return
        if commitment_from_hashes(message.hash_list) != message.commitment:
            return  # commitment does not bind this hash list
        if message.original_length < 0:
            return  # invalid geometry; refuse to echo
        try:
            # ReedSolomon owns the (k, m) rules and the field selection.
            code = ReedSolomon(k=message.data_shards, m=message.total_shards)
        except ValueError:
            return  # invalid geometry; refuse to echo
        expected = code.block_length(message.original_length)
        for f in message.fragments:
            if not 0 <= f.index < len(message.hash_list):
                return  # inconsistent dealer; refuse to echo
            if len(f.block) != expected:
                return  # inconsistent dealer; refuse to echo
            if _hash_fragment(f) != message.hash_list[f.index]:
                return  # inconsistent dealer; refuse to echo
        self.my_fragments = message.fragments
        self.hash_list = message.hash_list
        self.data_shards = message.data_shards
        self.total_shards = message.total_shards
        self.original_length = message.original_length
        self._code = code
        self.broadcast(AvidEcho(message.commitment))

    def _handle_echo(self, message: AvidEcho, sender: int) -> None:
        """A sender's first echo counts; once a commitment has echoes of
        weight ``> storage_need`` it is stored, and the first store wins:
        a late echo changes nothing."""
        commitment = message.commitment
        if self._echoes is None:
            return
        quorums = self.quorums
        if self._echoes.add(sender, commitment, quorums.vote_weights) <= quorums.storage_need:
            return
        self.stored_commitment = commitment
        self._echoes = None
        self.bump("stored")
        if self.on_stored is not None:
            self.on_stored(self.pid, commitment)

    # -- retriever side ----------------------------------------------------------------
    def retrieve(self, commitment: bytes) -> None:
        """Ask every party for its fragments of ``commitment``."""
        self._collected.clear()
        self.retrieved = None
        self.broadcast(AvidRetrieveRequest(commitment))

    def _handle_retrieve_request(self, message: AvidRetrieveRequest, sender: int) -> None:
        if self.my_fragments and self.stored_commitment == message.commitment:
            self.send(
                sender,
                AvidFragments(commitment=message.commitment, fragments=self.my_fragments),
            )

    def _handle_fragments(self, message: AvidFragments, sender: int) -> None:
        code = self._code
        if self.retrieved is not None or code is None:
            return
        # A Byzantine dealer could have handed different parties blocks
        # of different lengths, each consistent with its own hash-list
        # entry; collecting only the expected length keeps the decode
        # below from ever seeing an inconsistent fragment set.
        expected = code.block_length(self.original_length)
        for f in message.fragments:
            if (
                0 <= f.index < len(self.hash_list)
                and len(f.block) == expected
                and _hash_fragment(f) == self.hash_list[f.index]
            ):
                self._collected[f.index] = f.block
        if len(self._collected) >= self.data_shards:
            work_before = code.work_counter
            data = code.decode_erasures_blocks(
                self._collected, self.original_length, systematic=True
            )
            self.bump("decode_symbols", code.work_counter - work_before)
            self.retrieved = data
            if self.on_retrieved is not None:
                self.on_retrieved(self.pid, data)
