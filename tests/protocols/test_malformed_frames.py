"""A Byzantine frame of the wrong shape is dropped, not raised on.

The codec decodes any value into any field, so a share message can
arrive with a ``bytes`` share value, a ``str`` challenge, no proof, an
epoch that is no 8-byte number, or a checkpoint that is not ``bytes``.
Each such frame, sent ahead of the honest traffic, must leave the epoch
or checkpoint certifying from the honest shares alone.  A state-sync
response whose entries are not ``(epoch, proposer, payload)`` triples
must leave a recovering replica's log and vote tallies untouched.
"""

import random
from dataclasses import replace

import pytest

from repro.crypto.common_coin import WeightedCoin
from repro.crypto.dleq import verify_dleq, verify_dleq_batch
from repro.crypto.group import TEST_GROUP_256 as G
from repro.crypto.threshold_sig import ThresholdSignatureScheme
from repro.protocols.checkpointing import CheckpointParty, CheckpointShare
from repro.protocols.common_coin import BeaconParty, CoinShareMsg
from repro.recovery.smr import RecoverableSmrParty, StateSyncResponse
from repro.runtime import default_registry
from repro.sim import build_world
from repro.weighted.quorum import NominalQuorums
from repro.weighted.transform import blunt_setup

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]
EPOCH = 1


def _honest_share():
    scheme = ThresholdSignatureScheme(G, 4, 2)
    scheme.keygen(random.Random(0))
    return scheme, scheme.sign_share(1, b"m", random.Random(1))


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
    g, h = G.generator, scheme.hash_message(b"m")
    y1 = scheme.keys.public_shares[1]
    assert verify_dleq(G, g, y1, h, honest.value, honest.proof)
    assert not verify_dleq(G, g, y1, h, bad.value, bad.proof)
    statements = [(y1, honest.value, honest.proof), (y1, bad.value, bad.proof)]
    assert verify_dleq_batch(G, g, h, statements, rng=random.Random(2)) == [True, False]
    assert scheme.verify_shares_batch([bad, honest], b"m") == [False, True]


def _beacon(seed):
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(seed))
    world = build_world(
        lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)), len(WEIGHTS), seed=seed
    )
    return setup, coin, world


def _run_beacon(setup, world):
    for pid in setup.vmap.parties_with_tickets():
        world.party(pid).start_epoch(EPOCH)
    world.run()
    values = {p.values.get(EPOCH) for p in world.parties}
    assert len(values) == 1 and None not in values


@pytest.mark.parametrize("kind", MALFORMED)
def test_beacon_drops_a_malformed_share(kind):
    setup, coin, world = _beacon(seed=5)
    honest = coin.shares_of_party(0, EPOCH, random.Random(79))[0]
    forged = _wire(CoinShareMsg(epoch=EPOCH, share=_malformed(honest)[kind]))
    world.party(0).broadcast(forged)
    _run_beacon(setup, world)


@pytest.mark.parametrize("epoch", ["e", -1, 2**64], ids=["str", "-1", "2^64"])
def test_beacon_drops_an_epoch_that_is_no_epoch_number(epoch):
    # Every honest share re-labelled: enough distinct signers to run a
    # batch under the bad epoch.
    setup, coin, world = _beacon(seed=6)
    rng = random.Random(80)
    for pid in range(len(WEIGHTS)):
        for share in coin.shares_of_party(pid, EPOCH, rng):
            world.party(0).broadcast(_wire(CoinShareMsg(epoch=epoch, share=share)))
    _run_beacon(setup, world)
    assert all(set(p.values) == {EPOCH} for p in world.parties)


@pytest.mark.parametrize("share", [None, 7], ids=["none", "int"])
def test_beacon_drops_a_share_that_is_no_signature_share(share):
    setup, coin, world = _beacon(seed=7)
    world.party(0).broadcast(_wire(CoinShareMsg(epoch=EPOCH, share=share)))
    _run_beacon(setup, world)


@pytest.mark.parametrize("bad", ["checkpoint-str", "share-none"])
def test_checkpoint_drops_a_malformed_share_frame(bad):
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    scheme = ThresholdSignatureScheme(G, setup.total_virtual, setup.threshold)
    scheme.keygen(random.Random(8))
    world = build_world(
        lambda pid: CheckpointParty(pid, scheme, setup.vmap, random.Random(5000 + pid)),
        len(WEIGHTS),
        seed=8,
    )
    cp = b"cp-400"
    if bad == "share-none":
        world.party(0).broadcast(_wire(CheckpointShare(checkpoint=cp, share=None)))
    else:
        # Every signer re-labelled: enough to run a batch under "cp-400".
        rng = random.Random(81)
        for index in range(1, setup.total_virtual + 1):
            share = scheme.sign_share(index, cp, rng)
            world.party(0).broadcast(_wire(CheckpointShare(checkpoint="cp-400", share=share)))
    for pid in range(len(WEIGHTS)):
        world.party(pid).sign_checkpoint(cp)
    world.run()
    certs = {p.certificates.get(cp) for p in world.parties}
    assert len(certs) == 1 and None not in certs
    assert all(list(p.certificates) == [cp] for p in world.parties)


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


def _recovering_world():
    """Four recoverable replicas; party 0 is the one being synced."""
    return build_world(
        lambda pid: RecoverableSmrParty(pid, 4, NominalQuorums(n=4, t=1), lambda epoch: 0),
        4,
        seed=9,
    )


def _sync(world, entries, responders=(1, 2, 3)):
    # Handed straight to party 0: the sim sizes a frame at its sender,
    # and a live peer's codec never does.
    party = world.party(0)
    for pid in responders:
        party.receive(_wire(StateSyncResponse(responder=pid, entries=entries)), pid)
    return party


@pytest.mark.parametrize("kind", sorted(MALFORMED_ENTRIES))
def test_state_sync_drops_a_malformed_entry(kind):
    # Every other replica vouches for it: a deliver quorum would apply it.
    party = _sync(_recovering_world(), MALFORMED_ENTRIES[kind])
    assert party.committed == {}
    assert party._sync_confirmers == {}
    assert party.recovered_from_peers == 0


def test_state_sync_applies_a_well_formed_entry_on_a_deliver_quorum():
    world = _recovering_world()
    party = _sync(world, ((0, 1, b"p"),), responders=(1, 2))
    assert party.committed == {}
    party = _sync(world, ((0, 1, b"p"),), responders=(3,))
    assert party.committed == {0: {1: (1, b"p")}}
    assert party.recovered_from_peers == 1
