"""The rules of one Bracha instance, on :class:`BrachaInstance` alone --
no party, no network, no message class.

One table runs under both quorum models.  Its senders are chosen so the
two cross each threshold on the same vote:

=================  ===================  ==============================
votes from         ``NominalQuorums``   ``WeightedQuorums`` (W = 7)
                   ``(4, 1)``           ``((3, 2, 1, 1), "1/3")``
=================  ===================  ==============================
3, 2               2 (amplify is 2,     2 (amplify needs > 7/3)
                   quorum is 3)
3, 1               2 -> amplify         3 -> amplify
3, 2, 0 / 3, 1, 0  3 -> echo, deliver   5 / 6 -> echo, deliver (> 14/3)
=================  ===================  ==============================
"""

import pytest

from repro.protocols.reliable_broadcast import BrachaInstance
from repro.weighted.quorum import NominalQuorums, QuorumPolicy, WeightedQuorums

POLICIES = [
    pytest.param(NominalQuorums(4, 1), id="nominal"),
    pytest.param(WeightedQuorums((3, 2, 1, 1), "1/3"), id="weighted"),
]

A, B = b"payload-a", b"payload-b"
#: the party whose broadcast every instance here is
ORIGIN = 0
NOTHING = (False, False)
READY = (True, False)
DELIVER = (False, True)

#: name -> steps; a step is ``("send", sender, expected)`` or
#: ``("echo" | "ready", payload, sender, expected)``
CASES = {
    "only the first SEND echoes": [
        ("send", ORIGIN, True),
        ("send", ORIGIN, False),
        ("send", ORIGIN, False),
    ],
    "only the origin's SEND echoes": [
        ("send", 3, False),
        ("send", 1, False),
        ("send", ORIGIN, True),
        ("send", 3, False),
    ],
    "READY by echo quorum, once": [
        ("echo", A, 3, False),
        ("echo", A, 2, False),
        ("echo", A, 0, True),
        ("echo", A, 1, False),
    ],
    "a repeated voter counts once": [
        ("echo", A, 3, False),
        ("echo", A, 3, False),
        ("echo", A, 3, False),
        ("ready", A, 3, NOTHING),
        ("ready", A, 3, NOTHING),
    ],
    "votes are counted per payload": [
        # pooled, either triple is an echo quorum and either pair amplifies
        ("echo", A, 3, False),
        ("echo", A, 2, False),
        ("echo", B, 0, False),
        ("ready", A, 3, NOTHING),
        ("ready", B, 1, NOTHING),
    ],
    "a sender's second ECHO, for another payload, is dropped": [
        ("echo", A, 3, False),
        ("echo", B, 3, False),
        ("echo", B, 2, False),
        ("echo", B, 0, False),  # with 3's dropped ECHO: a quorum
        ("echo", B, 1, True),
    ],
    "a sender's second READY, for another payload, is dropped": [
        ("ready", A, 3, NOTHING),
        ("ready", B, 3, NOTHING),
        ("ready", B, 1, NOTHING),  # with 3's dropped READY: amplify
        ("ready", B, 2, READY),
        ("ready", B, 0, DELIVER),
    ],
    "READY by amplification with no echo quorum": [
        ("echo", A, 3, False),
        ("ready", A, 3, NOTHING),
        ("ready", A, 1, READY),
    ],
    "no second READY: echo quorum after amplification": [
        ("ready", A, 3, NOTHING),
        ("ready", A, 1, READY),
        ("echo", A, 3, False),
        ("echo", A, 2, False),
        ("echo", A, 0, False),
    ],
    "no second READY: amplification after echo quorum": [
        ("echo", A, 3, False),
        ("echo", A, 2, False),
        ("echo", A, 0, True),
        ("ready", A, 3, NOTHING),
        ("ready", A, 1, NOTHING),
        ("ready", A, 0, DELIVER),
    ],
    "deliver exactly once": [
        ("ready", A, 3, NOTHING),
        ("ready", A, 1, READY),
        ("ready", A, 0, DELIVER),
        ("ready", A, 2, NOTHING),
        ("echo", A, 2, False),
    ],
}


def play(instance, quorums, steps):
    for number, step in enumerate(steps):
        if step[0] == "send":
            got, expected = instance.on_send(step[1]), step[2]
        else:
            rule, payload, sender, expected = step
            got = getattr(instance, f"on_{rule}")(quorums, payload, sender)
        assert got == expected, f"step {number}: {step}"


@pytest.mark.parametrize("quorums", POLICIES)
@pytest.mark.parametrize("name", CASES)
def test_rule_table(name, quorums):
    play(BrachaInstance(ORIGIN), quorums, CASES[name])


def test_one_heavy_vote_both_amplifies_and_delivers():
    # weights 2 then 3 of 7: the second READY crosses 7/3 and 14/3 at once
    # (never so under n = 3t + 1 counting, where t + 1 < n - t)
    steps = [("ready", A, 1, NOTHING), ("ready", A, 0, (True, True))]
    play(BrachaInstance(ORIGIN), WeightedQuorums((3, 2, 1, 1), "1/3"), steps)


class ConsultedAfterDecision(QuorumPolicy):
    """Reading a vote weight or a threshold raises, and so does every
    predicate: a decided instance must not get this far."""

    def _raise(self, *senders):
        raise AssertionError("quorum policy consulted after delivery")

    echo_quorum = ready_amplify = deliver_quorum = storage_quorum = _raise
    vote_weights = echo_need = ready_need = storage_need = property(_raise)


@pytest.mark.parametrize("quorums", POLICIES)
class TestDelivery:
    @staticmethod
    def delivered_with_a_loser_in_flight(quorums):
        instance = BrachaInstance(ORIGIN)
        play(
            instance,
            quorums,
            [
                ("send", ORIGIN, True),
                ("echo", B, 2, False),
                ("ready", B, 2, NOTHING),
                ("echo", A, 3, False),
                ("ready", A, 3, NOTHING),
                ("ready", A, 1, READY),
            ],
        )
        assert set(instance.echoes.totals) == set(instance.readies.totals) == {A, B}
        play(instance, quorums, [("ready", A, 0, DELIVER)])
        return instance

    def test_every_tally_is_gone_the_losers_too(self, quorums):
        instance = self.delivered_with_a_loser_in_flight(quorums)
        assert instance.delivered and instance.readied and instance.echoed
        assert instance.echoes is None and instance.readies is None

    def test_late_votes_answer_no_before_the_policy_is_asked(self, quorums):
        instance = self.delivered_with_a_loser_in_flight(quorums)
        late = ConsultedAfterDecision()
        for payload in (A, B, b"never seen"):
            for sender in range(4):
                assert instance.on_echo(late, payload, sender) is False
                assert instance.on_ready(late, payload, sender) == NOTHING
        assert instance.on_send(ORIGIN) is False
        assert instance.echoes is None and instance.readies is None


def test_an_undecided_instance_does_ask_the_policy():
    # ... so the late-vote test above is not vacuous: a first ECHO and a
    # first READY read the policy's vote weights and thresholds
    with pytest.raises(AssertionError, match="consulted after delivery"):
        BrachaInstance(ORIGIN).on_echo(ConsultedAfterDecision(), A, 0)
    with pytest.raises(AssertionError, match="consulted after delivery"):
        BrachaInstance(ORIGIN).on_ready(ConsultedAfterDecision(), A, 0)


def test_the_ready_rules_are_written_in_one_module():
    """The ECHO-quorum and READY-amplification thresholds are read in
    ``reliable_broadcast.py`` -- and, for a deliver quorum of a set that
    is no Bracha phase, by state sync and ``SmrParty.epoch_closed``, and
    by VABA's nominal vote / commit / decide tallies -- and nowhere else, and no module asks any of the four set predicates:
    a protocol that needs Bracha holds instances, and every other quorum
    is a tally, so none grows another copy of the rules."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    readers, askers = set(), set()
    for path in root.rglob("*.py"):
        where = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                if node.attr in ("echo_need", "ready_need"):
                    readers.add(where)
                elif node.attr in (
                    "echo_quorum", "ready_amplify", "deliver_quorum", "storage_quorum"
                ):
                    askers.add(where)
    assert readers - {"weighted/quorum.py"} == {
        "protocols/reliable_broadcast.py",
        "recovery/smr.py",  # state sync: a deliver quorum of responders
        "protocols/smr.py",  # epoch_closed: a deliver quorum of proposers
        "protocols/vaba.py",  # vote / commit / decide tallies, nominal
    }
    assert askers - {"weighted/quorum.py"} == set()
