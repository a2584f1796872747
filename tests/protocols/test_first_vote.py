"""A sender's first vote in a phase counts; a later, different one is
dropped before any arithmetic -- in every quorum phase there is.

Each test lets one sender vote for one choice and then for another, and
brings the other choice to the weight that would be a quorum if that
second vote counted: no tally takes it and nothing is decided on it,
and one more distinct voter then decides.  Bracha's ECHO and READY
phases are rows of the rule table in ``test_bracha.py``; the tight
checkpoint's gate has one choice (its checkpoint), so a sender's repeat
is what it drops.  The AVID storage threshold is also checked at its
boundary: echoes weighing exactly ``storage_need`` do not store, and any
one party more does.
"""

import random

import pytest

from repro.crypto.common_coin import WeightedCoin
from repro.crypto.group import TEST_GROUP_256 as G
from repro.protocols.avid import AvidEcho, AvidParty
from repro.protocols.checkpointing import CheckpointParty, CheckpointVote
from repro.protocols.vaba import Commit, Decide, VabaParty, Vote
from repro.recovery.smr import RecoverableSmrParty, StateSyncResponse
from repro.sim import SimHost
from repro.weighted.quorum import NominalQuorums, WeightedQuorums
from repro.weighted.transform import blunt_setup

A, B = b"choice-a", b"choice-b"
WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


def test_avid_storage():
    # n = 4, t = 1: 2t + 1 = 3 echoes store
    party = AvidParty(0, NominalQuorums(n=4, t=1))
    for commitment, sender in ((A, 1), (B, 1), (B, 2), (B, 3)):
        party.receive(AvidEcho(commitment), sender)
    assert party.stored_commitment is None
    assert party._echoes.votes == {1: A, 2: B, 3: B}
    assert party._echoes.totals == {A: 1, B: 2}
    party.receive(AvidEcho(B), 0)
    assert party.stored_commitment == B


def _vaba():
    """Party 0 of four VABA parties (t = 1: a quorum is 3, amplification 2)."""
    return SimHost(lambda pid: VabaParty(pid, 4, 1), 4, seed=0).party(0)


def test_vaba_vote():
    party = _vaba()
    for value, sender in ((A, 1), (B, 1), (B, 2), (B, 3)):
        party.receive(Vote(0, value), sender)
    assert party.committed is None
    assert party._votes[0].totals == {A: 1, B: 2}
    party.receive(Vote(0, B), 0)
    assert party.committed == B


def test_vaba_commit():
    party = _vaba()
    for value, sender in ((A, 1), (B, 1), (B, 2)):
        party.receive(Commit(value), sender)
    assert party.committed is None and party.decided is None
    assert party._commits.totals == {A: 1, B: 1}
    party.receive(Commit(B), 3)
    assert party.committed == B and party.decided is None
    party.receive(Commit(B), 0)
    assert party.decided == B


def test_vaba_decide():
    party = _vaba()
    for value, sender in ((A, 1), (B, 1), (B, 2)):
        party.receive(Decide(value), sender)
    assert party.decided is None
    assert party._decides.totals == {A: 1, B: 1}
    party.receive(Decide(B), 3)
    assert party.decided == B


def _tight(beta="1/2"):
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(0))
    host = SimHost(
        lambda pid: CheckpointParty(
            pid, coin, random.Random(pid), mode="tight", weights=WEIGHTS, beta=beta
        ),
        len(WEIGHTS),
        seed=0,
    )
    return host.party(0)


def test_tight_gate():
    # beta W = 50: 25 + 15 + 10 sits on it, 25 counted twice would pass it
    party, cp = _tight(), b"cp-1"
    for sender in (1, 1, 2, 1, 3):
        party.receive(CheckpointVote(cp), sender)
    assert party._gates[cp].totals == {cp: 50}
    assert party._shared == set()
    party.receive(CheckpointVote(b"cp-2"), 1)  # another checkpoint's gate
    assert party._gates[cp].totals == {cp: 50}
    party.receive(CheckpointVote(cp), 4)
    assert party._shared == {cp}


@pytest.mark.parametrize("beta", ["0", "1", "3/2"])
def test_tight_gate_refuses_a_beta_outside_zero_one_at_construction(beta):
    with pytest.raises(ValueError):
        _tight(beta)


def test_state_sync():
    # n = 4, t = 1: a deliver quorum is 3 responders, of the other three
    party = SimHost(
        lambda pid: RecoverableSmrParty(pid, 4, NominalQuorums(n=4, t=1), lambda e: 0),
        4,
        seed=0,
    ).party(0)
    for payload, responder in ((A, 1), (B, 1), (B, 2), (B, 3)):
        entries = ((0, 1, payload),)
        party.receive(StateSyncResponse(responder=responder, entries=entries), responder)
    assert party.committed == {}
    assert party._sync_votes[0, 1].totals == {A: 1, B: 2}


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2), (10, 3)])
def test_nominal_storage_is_2t_plus_one_echoes(n, t):
    party = AvidParty(0, NominalQuorums(n=n, t=t))
    for sender in range(2 * t):
        party.receive(AvidEcho(A), sender)
    assert party.stored_commitment is None
    party.receive(AvidEcho(A), 2 * t)
    assert party.stored_commitment == A


#: W = 9, f_w = 1/3: storage needs weight above 6, and parties 0-2 weigh 6
SMALL = (3, 2, 1, 1, 1, 1)


@pytest.mark.parametrize("extra", [3, 4, 5])
def test_weighted_storage_is_strictly_above_storage_need(extra):
    quorums = WeightedQuorums(SMALL, "1/3")
    assert quorums.storage_need == 6 == sum(quorums.vote_weights[:3])
    party = AvidParty(0, quorums)
    for sender in (0, 1, 2):
        party.receive(AvidEcho(A), sender)
    assert party.stored_commitment is None
    party.receive(AvidEcho(A), extra)
    assert party.stored_commitment == A
