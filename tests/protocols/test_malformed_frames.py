"""A Byzantine frame of the wrong shape is dropped, not raised on.

The codec decodes any value into any field, so a share message can
arrive with a ``bytes`` share value, a ``str`` challenge, no proof, or a
checkpoint that is not ``bytes`` (or, at a beacon, no epoch message).
Each such frame, sent ahead of the honest traffic, must leave the epoch
or checkpoint certifying from the honest shares alone, and so must a
tight-mode vote sent to a blunt party, or one whose checkpoint is not
``bytes`` sent to a tight party.  A state-sync
response whose entries are not ``(epoch, proposer, payload)`` triples
must leave a recovering replica's log and vote tallies untouched, and a
Bracha SEND / ECHO / READY of that shape must open no instance and
deliver nothing while the honest broadcasts complete.  An AVID echo
whose commitment is not ``bytes``, and a VABA proposal, vote, commit or
decide whose round is not an ``int >= 0`` or whose value is not
``bytes``, must reach no tally: it takes none of its sender's votes,
and the run stores or decides as a clean one does.  An AVID dispersal
or retrieval frame whose hash list, fragments or geometry are not of the
honest dealer's types must be dropped before any length, comparison or
hash, and the honest dispersal must still store and retrieve.
"""

import asyncio
import hashlib
import random
from dataclasses import replace

import pytest

from repro.crypto.common_coin import WeightedCoin, epoch_message
from repro.crypto.dleq import verify_dleq, verify_dleq_batch
from repro.crypto.group import TEST_GROUP_256 as G
from repro.codes import BlockFragment, ReedSolomon
from repro.crypto.threshold_sig import ThresholdSignatureScheme
from repro.protocols.avid import (
    AvidDisperse,
    AvidEcho,
    AvidFragments,
    AvidParty,
    commitment_from_hashes,
)
from repro.protocols.checkpointing import CheckpointParty, CheckpointShare, CheckpointVote
from repro.protocols.common_coin import BeaconParty
from repro.protocols.reliable_broadcast import (
    BrachaEcho,
    BrachaReady,
    BrachaSend,
    BroadcastParty,
)
from repro.protocols.smr import SmrParty
from repro.protocols.vaba import Commit, Decide, Proposal, VabaParty, Vote
from repro.recovery.smr import RecoverableSmrParty, StateSyncResponse
from repro.runtime import Cluster, default_registry
from repro.sim import SimHost
from repro.weighted.quorum import NominalQuorums
from repro.weighted.transform import blunt_setup
from repro.weighted.virtual import VirtualUserMap

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]
EPOCH = 1


def _honest_share():
    scheme = ThresholdSignatureScheme(G, 4, 2)
    key = scheme.keygen(random.Random(0)).shares[0]
    return scheme, scheme.sign_share(key, b"m", random.Random(1))


def _malformed(share):
    """Each wrong-typed field a decoded share may carry."""
    proof = share.proof
    return {
        "value-bytes": replace(share, value=b"\x01\x02"),
        "value-str": replace(share, value="1"),
        "value-none": replace(share, value=None),
        "challenge-bytes": replace(share, proof=replace(proof, challenge=b"\x07")),
        "commit1-str": replace(share, proof=replace(proof, commit1="a1")),
        "proof-none": replace(share, proof=None),
    }


MALFORMED = sorted(_malformed(_honest_share()[1]))


def _wire(message):
    """``message`` as a peer decodes it: the codec carries every shape."""
    registry = default_registry()
    decoded = registry.decode(registry.encode(message))
    assert decoded == message
    return decoded


@pytest.mark.parametrize("kind", MALFORMED)
def test_dleq_verifiers_reject_wrong_types(kind):
    scheme, honest = _honest_share()
    bad = _malformed(honest)[kind]
    g, h = G.generator_root, scheme.message_root(b"m")
    y1 = scheme.keys.public_shares[1]
    assert verify_dleq(G, g, y1, h, honest.value, honest.proof)
    assert not verify_dleq(G, g, y1, h, bad.value, bad.proof)
    statements = [(y1, honest.value, honest.proof), (y1, bad.value, bad.proof)]
    assert verify_dleq_batch(G, g, h, statements, rng=random.Random(2)) == [True, False]
    assert scheme.verify_shares_batch([bad, honest], b"m") == [False, True]


def _beacon(seed):
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(seed))
    host = SimHost(
        lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)), len(WEIGHTS), seed=seed
    )
    return setup, coin, host


def _run_beacon(setup, host):
    for pid in setup.vmap.parties_with_tickets():
        host.party(pid).start_epoch(EPOCH)
    host.simulator.run()
    values = {p.values.get(EPOCH) for p in host.parties}
    assert len(values) == 1 and None not in values


def _epoch_share(share, checkpoint=epoch_message(EPOCH)):
    return _wire(CheckpointShare(checkpoint=checkpoint, share=share))


@pytest.mark.parametrize("kind", MALFORMED)
def test_beacon_drops_a_malformed_share(kind):
    setup, coin, host = _beacon(seed=5)
    honest = coin.shares_of_party(0, EPOCH, random.Random(79))[0]
    host.party(0).broadcast(_epoch_share(_malformed(honest)[kind]))
    _run_beacon(setup, host)


#: checkpoints that are no epoch message: no 8-byte epoch number after
#: the prefix, or no ``bytes`` at all
NOT_EPOCH_MESSAGES = {
    "junk": b"junk",
    "short": epoch_message(EPOCH)[:-1],
    "long": epoch_message(EPOCH) + b"\0",
    "prefix-str": "coin-epoch|",
}


@pytest.mark.parametrize("kind", sorted(NOT_EPOCH_MESSAGES))
def test_beacon_drops_a_checkpoint_that_is_no_epoch_message(kind):
    # Every honest share re-labelled: enough distinct signers to run a
    # batch under the bad checkpoint.
    setup, coin, host = _beacon(seed=6)
    rng = random.Random(80)
    for pid in range(len(WEIGHTS)):
        for share in coin.shares_of_party(pid, EPOCH, rng):
            host.party(0).broadcast(_epoch_share(share, NOT_EPOCH_MESSAGES[kind]))
    _run_beacon(setup, host)
    for party in host.parties:
        assert set(party.values) == {EPOCH}
        assert party._collectors == {}


@pytest.mark.parametrize("share", [None, 7], ids=["none", "int"])
def test_beacon_drops_a_share_that_is_no_signature_share(share):
    setup, coin, host = _beacon(seed=7)
    host.party(0).broadcast(_epoch_share(share))
    _run_beacon(setup, host)


def _checkpointing(seed, **tight):
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(seed))
    host = SimHost(
        lambda pid: CheckpointParty(pid, coin, random.Random(5000 + pid), **tight),
        len(WEIGHTS),
        seed=seed,
    )
    return setup, coin, host


def _certify(host, cp):
    for party in host.parties:
        party.sign_checkpoint(cp)
    host.simulator.run()
    certs = {p.certificates.get(cp) for p in host.parties}
    assert len(certs) == 1 and None not in certs
    assert all(list(p.certificates) == [cp] for p in host.parties)


@pytest.mark.parametrize("bad", ["checkpoint-str", "share-none"])
def test_checkpoint_drops_a_malformed_share_frame(bad):
    setup, coin, host = _checkpointing(seed=8)
    cp = b"cp-400"
    if bad == "share-none":
        host.party(0).broadcast(_wire(CheckpointShare(checkpoint=cp, share=None)))
    else:
        # Every signer re-labelled: enough to run a batch under "cp-400".
        rng = random.Random(81)
        for key in coin.coin.shares:
            share = coin.coin.scheme.sign_share(key, cp, rng)
            host.party(0).broadcast(_wire(CheckpointShare(checkpoint="cp-400", share=share)))
    _certify(host, cp)


def test_a_live_blunt_party_drops_a_stray_vote():
    # On a live backend a handler that raises fails its node.
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(12))
    cp = b"cp-400"

    async def drive():
        async with Cluster(
            lambda pid: CheckpointParty(pid, coin, random.Random(pid)),
            len(WEIGHTS),
        ) as cluster:
            cluster.parties[-1].broadcast(CheckpointVote(cp))
            for party in cluster.parties:
                party.sign_checkpoint(cp)
            await cluster.run_until(
                lambda: all(cp in p.certificates for p in cluster.parties), timeout=30
            )
            await cluster.settle()  # re-raises a node failure
            return {p.certificates[cp] for p in cluster.parties}

    assert len(asyncio.run(drive())) == 1


@pytest.mark.parametrize("protocol", ["checkpoint", "beacon"])
def test_blunt_party_drops_a_stray_vote(protocol):
    # A blunt party runs no vote round: a vote is a type it does not
    # handle, not a tight gate with no weights.
    byzantine = len(WEIGHTS) - 1
    if protocol == "beacon":
        setup, coin, host = _beacon(seed=11)
        host.party(byzantine).broadcast(_wire(CheckpointVote(epoch_message(EPOCH))))
        _run_beacon(setup, host)
    else:
        setup, coin, host = _checkpointing(seed=11)
        host.party(byzantine).broadcast(_wire(CheckpointVote(b"cp-400")))
        _certify(host, b"cp-400")


#: tight-mode vote checkpoints that are no ``bytes``
NOT_BYTES_VOTES = {"list": [1, 2], "str": "cp-str", "int": 7, "none": None}


@pytest.mark.parametrize("kind", sorted(NOT_BYTES_VOTES))
def test_tight_party_drops_a_vote_that_is_no_bytes(kind):
    # A vote of the wrong shape opens no gate: every party holds the one
    # gate of the honest checkpoint and the certificate of a clean run.
    cp = b"cp-400"
    tight = {"mode": "tight", "weights": WEIGHTS, "beta": "1/2"}
    certificates = []
    registry = default_registry()
    # the codec carries a list as a tuple, which a dict can key
    bad_vote = registry.decode(registry.encode(CheckpointVote(NOT_BYTES_VOTES[kind])))
    for bad in (None, bad_vote):
        setup, coin, host = _checkpointing(seed=13, **tight)
        if bad is not None:
            host.party(len(WEIGHTS) - 1).broadcast(bad)
        _certify(host, cp)
        assert all(list(p._gates) == [cp] for p in host.parties)
        certificates.append(host.party(0).certificates[cp])
    assert certificates[0] == certificates[1]


#: ``StateSyncResponse.entries`` values no honest responder sends
MALFORMED_ENTRIES = {
    "pair": ((0, 1),),
    "proposer-str": ((0, "x", b"p"),),
    "epoch-none": ((None, 1, b"p"),),
    "epoch-negative": ((-1, 1, b"p"),),
    "epoch-bool": ((True, 1, b"p"),),
    "proposer-out-of-range": ((0, 4, b"p"),),
    "payload-int": ((0, 1, 1 << 20),),
    "payload-str": ((0, 1, "p"),),
    "entry-bytes": (b"p",),
    "entries-bytes": b"entries",
    "entries-int": 7,
    "entries-none": None,
}


def _recovering_host():
    """Four recoverable replicas; party 0 is the one being synced."""
    return SimHost(
        lambda pid: RecoverableSmrParty(pid, 4, NominalQuorums(n=4, t=1), lambda epoch: 0),
        4,
        seed=9,
    )


def _sync(host, entries, responders=(1, 2, 3)):
    # Handed straight to party 0: the sim sizes a frame at its sender,
    # and a live peer's codec never does.
    party = host.party(0)
    for pid in responders:
        party.receive(_wire(StateSyncResponse(responder=pid, entries=entries)), pid)
    return party


@pytest.mark.parametrize("kind", sorted(MALFORMED_ENTRIES))
def test_state_sync_drops_a_malformed_entry(kind):
    # Every other replica vouches for it: a deliver quorum would apply it.
    party = _sync(_recovering_host(), MALFORMED_ENTRIES[kind])
    assert party.committed == {}
    assert party._sync_votes == {}
    assert party.recovered_from_peers == 0


def test_state_sync_applies_a_well_formed_entry_on_a_deliver_quorum():
    host = _recovering_host()
    party = _sync(host, ((0, 1, b"p"),), responders=(1, 2))
    assert party.committed == {}
    party = _sync(host, ((0, 1, b"p"),), responders=(3,))
    assert party.committed == {0: {1: (1, b"p")}}
    assert party.recovered_from_peers == 1


#: ``(epoch, origin, payload)`` of Bracha frames party 3 of four sends:
#: a payload that is no ``bytes`` under its own key, or a key that names
#: no instance of four parties
MALFORMED_BRACHA = {
    "payload-none": (0, 3, None),
    "payload-int": (0, 3, 7),
    "payload-str": (0, 3, "s"),
    "payload-tuple": (0, 3, (b"a",)),
    "epoch-none": (None, 3, b"bad"),
    "epoch-str": ("e", 3, b"bad"),
    "epoch-negative": (-5, 3, b"bad"),
    "epoch-bool": (True, 3, b"bad"),
    "origin-n": (0, 4, b"bad"),
    "origin-negative": (0, -1, b"bad"),
    "origin-str": (0, "0", b"bad"),
}

#: the three Bracha hosts, each built for party ``pid`` of four
BRACHA_HOSTS = {
    "smr": lambda pid: SmrParty(pid, 4, NominalQuorums(n=4, t=1), lambda epoch: 0),
    "recoverable-smr": lambda pid: RecoverableSmrParty(
        pid, 4, NominalQuorums(n=4, t=1), lambda epoch: 0
    ),
    "rbc": lambda pid: BroadcastParty(pid, NominalQuorums(n=4, t=1), 3),
}


@pytest.mark.parametrize("protocol", sorted(BRACHA_HOSTS))
@pytest.mark.parametrize("kind", sorted(MALFORMED_BRACHA))
def test_bracha_host_drops_a_malformed_frame(protocol, kind):
    host = SimHost(BRACHA_HOSTS[protocol], 4, seed=10)
    byzantine = host.party(3)
    for phase in (BrachaSend, BrachaEcho, BrachaReady):
        byzantine.broadcast(_wire(phase(*MALFORMED_BRACHA[kind])))
    if protocol == "rbc":
        byzantine.broadcast_value(b"honest")
    else:
        for pid in range(4):
            host.party(pid).propose_batch(0, b"batch-%d" % pid)
    host.simulator.run()
    for party in host.parties:
        if protocol == "rbc":
            assert party.delivered == b"honest"
            assert party.counters["deliveries"] == 1
            assert list(party.instances) == [(0, 3)]
        else:
            # coin 0: proposer p's batch sits at position p
            assert party.committed == {0: {p: (p, b"batch-%d" % p) for p in range(4)}}
            assert party.counters["batches_committed"] == 4
            assert sorted(party.instances) == [(0, p) for p in range(4)]


#: frames party 3 of four sends ahead of its own honest part of an AVID
#: or VABA run, as the simulator hands them over: a commitment or value
#: that is no ``bytes``, a round that is no ``int >= 0``
MALFORMED_VOTES = {
    "avid-echo-list": AvidEcho([1]),
    "avid-echo-bytearray": AvidEcho(bytearray(b"c")),
    "avid-echo-str": AvidEcho("c"),
    "avid-echo-none": AvidEcho(None),
    "proposal-round-list": Proposal([0], b"v"),
    "proposal-round-str": Proposal("0", b"v"),
    "proposal-round-negative": Proposal(-1, b"v"),
    "proposal-round-bool": Proposal(False, b"v"),
    "proposal-value-list": Proposal(0, [1]),
    "vote-round-list": Vote([0], b"v"),
    "vote-round-none": Vote(None, b"v"),
    "vote-value-list": Vote(0, [1]),
    "vote-value-str": Vote(0, "v"),
    "commit-value-list": Commit([1]),
    "commit-value-str": Commit("v"),
    "decide-value-list": Decide([1]),
    "decide-value-tuple": Decide((b"v",)),
}

#: party 2 is crashed, so every quorum of three needs party 3's own vote
LIVE = (0, 1, 3)


def _avid_run(host):
    assert all(host.party(p)._echoes.votes == {} for p in LIVE)
    code, vmap = ReedSolomon(k=2, m=4), VirtualUserMap([1] * 4)
    commitment = host.party(0).disperse(b"stored", code, vmap)
    host.simulator.run()
    assert all(host.party(p).stored_commitment == commitment for p in LIVE)


def _vaba_run(host):
    for pid in LIVE:
        host.party(pid).propose(b"v%d" % pid)
    host.simulator.run()
    decided = {host.party(p).decided for p in LIVE}
    assert len(decided) == 1 and None not in decided
    for pid in LIVE:
        party = host.party(pid)
        rounds = [*party._proposals, *party._votes]
        assert all(type(r) is int and r >= 0 for r in rounds), rounds
        tallies = [*party._votes.values(), party._commits, party._decides]
        values = [v for bucket in party._proposals.values() for v in bucket.values()]
        values += [choice for tally in tallies for choice in tally.totals]
        assert all(type(v) is bytes for v in values), values


@pytest.mark.parametrize("kind", sorted(MALFORMED_VOTES))
def test_avid_and_vaba_drop_a_malformed_frame(kind):
    bad = MALFORMED_VOTES[kind]
    avid = isinstance(bad, AvidEcho)
    if avid:
        quorums = NominalQuorums(n=4, t=1)
        host = SimHost(lambda pid: AvidParty(pid, quorums), 4, seed=14)
    else:
        host = SimHost(lambda pid: VabaParty(pid, 4, 1), 4, seed=14)
    host.party(2).crash()
    host.party(3).broadcast(bad)
    host.simulator.run()
    (_avid_run if avid else _vaba_run)(host)


def _forged_dispersal():
    """A well-formed dispersal of a forged payload (k=2, m=4)."""
    blocks = ReedSolomon(k=2, m=4).encode_blocks(b"forged")
    hash_list = tuple(hashlib.sha256(block).digest() for block in blocks)
    return AvidDisperse(
        fragments=(BlockFragment(3, blocks[3]),),
        hash_list=hash_list,
        commitment=commitment_from_hashes(hash_list),
        data_shards=2,
        total_shards=4,
        original_length=6,
    )


_FORGED = _forged_dispersal()
_BLOCK = _FORGED.fragments[0].block

#: dispersal and retrieval frames whose fields are not of the types the
#: honest dealer and storers send; every other field is well formed
MALFORMED_AVID = {
    "disperse-hash-list-int": replace(_FORGED, hash_list=5),
    "disperse-hash-list-ints": replace(_FORGED, hash_list=[1, 2, 3, 4]),
    "disperse-fragments-int": replace(_FORGED, fragments=7),
    "disperse-fragment-int": replace(_FORGED, fragments=(5,)),
    "disperse-length-str": replace(_FORGED, original_length="10"),
    "disperse-data-shards-str": replace(_FORGED, data_shards="2"),
    "fragments-none": AvidFragments(b"c", None),
    "fragments-item-int": AvidFragments(b"c", (5,)),
    "fragments-index-str": AvidFragments(b"c", (BlockFragment("3", _BLOCK),)),
    "fragments-block-int": AvidFragments(b"c", (BlockFragment(3, 5),)),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_AVID))
def test_avid_drops_a_malformed_dispersal_or_retrieval_frame(kind):
    # Handed straight to the parties: the sim sizes a frame at its
    # sender, and a live peer's codec never does.
    bad = MALFORMED_AVID[kind]
    quorums = NominalQuorums(n=4, t=1)
    host = SimHost(lambda pid: AvidParty(pid, quorums), 4, seed=15)
    host.party(2).crash()
    if isinstance(bad, AvidDisperse):
        for pid in LIVE:
            host.party(pid).receive(bad, 0)  # from the dealer: the door drops it
        assert all(host.party(p)._code is None for p in LIVE)
    code, vmap = ReedSolomon(k=2, m=4), VirtualUserMap([1] * 4)
    commitment = host.party(0).disperse(b"stored", code, vmap)
    host.simulator.run()
    assert all(host.party(p).stored_commitment == commitment for p in LIVE)
    retriever = host.party(0)
    retriever.retrieve(commitment)
    if isinstance(bad, AvidFragments):
        retriever.receive(bad, 3)
        assert retriever._collected == {}
    host.simulator.run()
    assert retriever.retrieved == b"stored"
