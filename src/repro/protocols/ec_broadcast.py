"""Error-corrected data dissemination with *online error correction*
(paper, Section 5.2; protocol of Das-Xiang-Ren, "Asynchronous Data
Dissemination").

Model: every honest party already holds (a) the hash of the data and (b)
its own fragment(s) -- the state ADD establishes in its first phase.  To
reconstruct, a party solicits fragments from everyone and repeatedly runs
Reed-Solomon *error* decoding as fragments arrive, accepting the first
decode whose hash matches.  Byzantine parties inject garbage fragments;
the decoder's error-correction budget (``e`` errors need ``k + 2e``
fragments) absorbs them.

Payloads are byte strings carried as *block fragments* from the
vectorized coding engine: one contiguous byte block per virtual user,
end to end on both execution backends, decoded by
:meth:`~repro.codes.reed_solomon.ReedSolomon.decode_errors_blocks`
(fold-locate-verify fast path with a per-stripe fallback).

Weighted layout (Section 5.2): solve ``WQ(beta_w = 1 - f_w, beta_n)``
with ``beta_n >= r + (1 - beta_n)`` i.e. ``beta_n = r/2 + 1/2``; honest
parties then always hold enough fragments to out-vote the corrupted ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..codes.reed_solomon import BlockFragment, DecodingFailure, ReedSolomon
from ..sim.process import Party
from ..weighted.virtual import VirtualUserMap

__all__ = ["EcRequest", "EcFragment", "OnlineDecoder", "EcParty", "GarbageEcParty"]

#: translate table XORing every byte with 0x2A -- the canonical garbling
_GARBLE = bytes(b ^ 0x2A for b in range(256))


@dataclass(frozen=True)
class EcRequest:
    """Reconstructor -> all: send me your fragments."""


@dataclass(frozen=True)
class EcFragment:
    """Party -> reconstructor: one fragment (possibly garbage if Byzantine)."""

    fragment: BlockFragment


class OnlineDecoder:
    """The online-error-correction loop: try decoding on every arrival.

    Tracks the decode attempts (the paper's computation-overhead driver:
    each attempt costs RS error-decoding work proportional to the number
    of fragments).
    """

    def __init__(
        self, code: ReedSolomon, data_hash: bytes, original_length: int
    ) -> None:
        self.code = code
        self.data_hash = data_hash
        self.original_length = original_length
        self.fragments: dict[int, bytes] = {}
        self.attempts = 0
        self.result: Optional[bytes] = None
        #: decoding work (field ops) of the most recent attempt alone --
        #: the per-decode cost the paper's Table 1 computation column
        #: models (total work across attempts is ``code.work_counter``).
        self.last_attempt_work = 0

    @staticmethod
    def hash_data(data: bytes) -> bytes:
        return hashlib.sha256(bytes(data)).digest()

    def add(self, fragment: BlockFragment) -> Optional[bytes]:
        """Record a fragment; attempt decoding when it could succeed.

        Returns the decoded payload on success, else ``None``.  A
        fragment index seen twice keeps the first value (a Byzantine
        sender gains nothing by flooding).
        """
        if self.result is not None:
            return self.result
        if not 0 <= fragment.index < self.code.m:
            return None
        # A malformed (wrong-length) block would poison every later
        # decode attempt; drop it like any other Byzantine garbage.
        if len(fragment.block) != self.code.block_length(self.original_length):
            return None
        self.fragments.setdefault(fragment.index, fragment.block)
        if len(self.fragments) < self.code.k:
            return None
        self.attempts += 1
        work_before = self.code.work_counter
        try:
            data = self.code.decode_errors_blocks(
                self.fragments, self.original_length
            )
        except DecodingFailure:
            return None
        finally:
            self.last_attempt_work = self.code.work_counter - work_before
        if self.hash_data(data) == self.data_hash:
            self.result = data
            return data
        return None


class EcParty(Party):
    """Honest ADD participant: serves its fragments, reconstructs on demand."""

    def __init__(
        self,
        pid: int,
        code: ReedSolomon,
        vmap: VirtualUserMap,
        *,
        on_reconstructed: Optional[Callable[[int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.code = code
        self.vmap = vmap
        self.on_reconstructed = on_reconstructed
        self.my_fragments: tuple[BlockFragment, ...] = ()
        self.data_hash: Optional[bytes] = None
        self.original_length = 0
        self.decoder: Optional[OnlineDecoder] = None
        self.reconstructed: Optional[bytes] = None
        self.on(EcRequest, self._handle_request)
        self.on(EcFragment, self._handle_fragment)

    def install(
        self,
        fragments: Sequence[BlockFragment],
        data_hash: bytes,
        original_length: int,
    ) -> None:
        """Phase-1 state: this party's fragments plus the data hash."""
        self.my_fragments = tuple(fragments)
        self.data_hash = data_hash
        self.original_length = original_length

    def reconstruct(self) -> None:
        """Solicit fragments and start online error correction."""
        if self.data_hash is None:
            raise RuntimeError("install() must run before reconstruct()")
        self.decoder = OnlineDecoder(
            ReedSolomon(k=self.code.k, m=self.code.m, field=self.code.field),
            self.data_hash,
            self.original_length,
        )
        for f in self.my_fragments:
            self.decoder.add(f)
        self.broadcast(EcRequest(), include_self=False)

    def _handle_request(self, message: EcRequest, sender: int) -> None:
        for f in self.my_fragments:
            self.send(sender, EcFragment(f))

    def _handle_fragment(self, message: EcFragment, sender: int) -> None:
        if self.decoder is None or self.reconstructed is not None:
            return
        # Only accept fragment indices the sender actually owns -- the ADD
        # protocol authenticates fragment positions by channel identity.
        if message.fragment.index not in self.vmap.virtual_ids(sender):
            return
        result = self.decoder.add(message.fragment)
        self.bump("decode_attempts", 0)
        if result is not None:
            self.reconstructed = result
            self.bump("decode_work", self.decoder.code.work_counter)
            self.bump("decode_final_work", self.decoder.last_attempt_work)
            self.bump("decode_attempts", self.decoder.attempts)
            if self.on_reconstructed is not None:
                self.on_reconstructed(self.pid, result)


class GarbageEcParty(EcParty):
    """Byzantine: answers fragment requests with garbage values."""

    def _handle_request(self, message: EcRequest, sender: int) -> None:
        for f in self.my_fragments:
            garbled = f.block.translate(_GARBLE)
            if garbled == f.block:  # empty block: nothing to garble
                garbled = b"\x01" * len(f.block)
            self.send(sender, EcFragment(BlockFragment(f.index, garbled)))
