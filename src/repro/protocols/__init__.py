"""Distributed protocols: Bracha broadcast, AVID, online-error-correction
dissemination, randomness beacon, VABA (+ black-box weighted version),
SSLE, and PoS checkpointing (paper, Sections 4-6)."""

from .avid import AvidParty, fragment_digest
from .checkpointing import CheckpointParty, CheckpointShare, CheckpointVote
from .common_coin import BeaconParty
from .ec_broadcast import EcParty, GarbageEcParty, OnlineDecoder
from .reliable_broadcast import BrachaEcho, BrachaReady, BrachaSend, BroadcastParty
from .smr import SmrParty, batch_position
from .ssle import ElectionResult, SsleElection, chain_quality
from .vaba import VabaParty, black_box_parties

__all__ = [
    "BroadcastParty",
    "BrachaSend",
    "BrachaEcho",
    "BrachaReady",
    "AvidParty",
    "fragment_digest",
    "EcParty",
    "GarbageEcParty",
    "OnlineDecoder",
    "BeaconParty",
    "VabaParty",
    "black_box_parties",
    "SmrParty",
    "batch_position",
    "SsleElection",
    "ElectionResult",
    "chain_quality",
    "CheckpointParty",
    "CheckpointShare",
    "CheckpointVote",
]
