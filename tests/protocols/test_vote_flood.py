"""One sender flooding one phase leaves its receiver holding next to
nothing.

Each case hands one party 100 000 well-formed frames from one sender,
each naming a fresh payload, commitment or value, all in one phase: one
SMR instance's ECHOs, AVID echoes, round-0 VABA votes and VABA commits.
A phase is a tally keyed by sender, so the sender's first vote is kept
and every later one is dropped before it allocates: the party holds
under 1 MiB, measured with ``tracemalloc`` (tallies keyed by value held
over 30 MiB).  Frames that each name a fresh epoch or round open a new
phase each; bounding those needs a window of live epochs and is not
tested here.
"""

import tracemalloc

import pytest

from repro.protocols.avid import AvidEcho, AvidParty
from repro.protocols.reliable_broadcast import BrachaEcho
from repro.protocols.smr import SmrParty
from repro.protocols.vaba import Commit, VabaParty, Vote
from repro.weighted.quorum import NominalQuorums

FRAMES = 100_000
QUORUMS = NominalQuorums(n=4, t=1)

#: name -> (the receiving party, the frame naming a value)
FLOODS = {
    "smr-echoes": (
        lambda: SmrParty(0, 4, QUORUMS, lambda epoch: 0),
        lambda value: BrachaEcho(0, 2, value),
    ),
    "avid-echoes": (lambda: AvidParty(0, QUORUMS), AvidEcho),
    "vaba-votes": (lambda: VabaParty(0, 4, 1), lambda value: Vote(0, value)),
    "vaba-commits": (lambda: VabaParty(0, 4, 1), Commit),
}


@pytest.mark.parametrize("name", sorted(FLOODS))
def test_one_sender_flooding_one_phase_holds_under_a_mib(name):
    make, frame = FLOODS[name]
    party = make()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(FRAMES):
            party.receive(frame(i.to_bytes(32, "big")), 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20, f"{name}: {held / 2**20:.1f} MiB held"
