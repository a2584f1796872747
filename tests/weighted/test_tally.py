"""A policy's integer form against its set predicates, the oracle.

Bracha's rules run on running tallies (``vote_weights`` summed once per
distinct voter, compared ``tally > need``); the set predicates judge a
sender set from scratch.  For every subset of a committee the two agree
(and agree with plain ``Fraction`` arithmetic on the unscaled weights),
and a :class:`BrachaInstance` fed votes in any order, repeats included,
answers what the same rules written on sets and predicates answer.
"""

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Committee
from repro.protocols.reliable_broadcast import BrachaInstance
from repro.weighted.quorum import NominalQuorums, WeightedQuorums

#: the ``smr-tcp`` ledger row's committee
ZIPF = Committee.synthetic("zipf", n=8, total=800, skew=1.2, seed=0).weights

WEIGHT_VECTORS = [
    pytest.param((3, 2, 1, 1), id="3-2-1-1"),
    pytest.param((30, 25, 20, 10, 5, 5, 3, 2), id="30-25-...-2"),
    pytest.param(tuple(ZIPF), id="smr-tcp-zipf"),
]
NOMINAL = [(n, t) for n in range(1, 8) for t in range((n - 1) // 3 + 1)]

#: a heavy head over a light tail, up to 10 parties
SKEWED = st.tuples(
    st.integers(1, 10**9), st.lists(st.integers(1, 1000), min_size=0, max_size=9)
).map(lambda drawn: (drawn[0], *drawn[1]))


def _subsets(n):
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def assert_tallies_match_the_predicates(quorums):
    weights = quorums.vote_weights
    for members in _subsets(len(weights)):
        tally = sum(weights[i] for i in members)
        assert (tally > quorums.echo_need) == quorums.echo_quorum(members), members
        assert (tally > quorums.echo_need) == quorums.deliver_quorum(members), members
        assert (tally > quorums.ready_need) == quorums.ready_amplify(members), members


def assert_predicates_match_fractions(quorums):
    total = quorums.total
    for members in _subsets(len(quorums.weights)):
        weight = quorums.weight(members)
        assert quorums.echo_quorum(members) == (weight > (1 - quorums.f_w) * total)
        assert quorums.ready_amplify(members) == (weight > quorums.f_w * total)


@pytest.mark.parametrize("n, t", NOMINAL)
def test_nominal_tallies_match_the_predicates(n, t):
    quorums = NominalQuorums(n, t)
    assert quorums.vote_weights == (1,) * n
    assert_tallies_match_the_predicates(quorums)


@pytest.mark.parametrize("f_w", ["1/3", "1/4", "2/5", "0.3"])
@pytest.mark.parametrize("weights", WEIGHT_VECTORS)
def test_weighted_tallies_match_the_predicates(weights, f_w):
    quorums = WeightedQuorums(weights, f_w)
    assert all(type(w) is int for w in quorums.vote_weights)
    assert_tallies_match_the_predicates(quorums)
    assert_predicates_match_fractions(quorums)


@settings(max_examples=40, deadline=None)
@given(weights=SKEWED, f_w=st.sampled_from(["1/3", "1/4", "3/10", "49/100"]))
def test_skewed_tallies_match_the_predicates(weights, f_w):
    quorums = WeightedQuorums(weights, f_w)
    assert_tallies_match_the_predicates(quorums)
    assert_predicates_match_fractions(quorums)


class SetRules:
    """Bracha's ECHO / READY rules as they were written before tallies:
    a sender set per payload, judged by the set predicates each vote."""

    def __init__(self):
        self.readied = self.delivered = False
        self.echo = defaultdict(set)
        self.ready = defaultdict(set)

    def on_echo(self, quorums, payload, sender):
        if self.delivered:
            return False
        self.echo[payload].add(sender)
        if self.readied or not quorums.echo_quorum(self.echo[payload]):
            return False
        self.readied = True
        return True

    def on_ready(self, quorums, payload, sender):
        if self.delivered:
            return False, False
        self.ready[payload].add(sender)
        ready = not self.readied and quorums.ready_amplify(self.ready[payload])
        if ready:
            self.readied = True
        if not quorums.deliver_quorum(self.ready[payload]):
            return ready, False
        self.delivered = True
        return ready, True


POLICIES = [
    NominalQuorums(4, 1),
    NominalQuorums(7, 2),
    WeightedQuorums((3, 2, 1, 1), "1/3"),
    WeightedQuorums((30, 25, 20, 10, 5, 5, 3, 2), "1/3"),
    WeightedQuorums(ZIPF, "1/3"),
]


@settings(max_examples=60, deadline=None)
@given(
    quorums=st.sampled_from(POLICIES),
    data=st.data(),
)
def test_an_instance_answers_what_the_set_rules_answer(quorums, data):
    n = len(quorums.vote_weights)
    votes = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["echo", "ready"]),
                st.sampled_from([b"a", b"b"]),
                st.integers(0, n - 1),
            ),
            max_size=6 * n,
        )
    )
    # every vote at least once more, somewhere later: duplicates abound
    votes += data.draw(st.permutations(votes))
    instance, reference = BrachaInstance(), SetRules()
    for step, (rule, payload, sender) in enumerate(votes):
        got = getattr(instance, f"on_{rule}")(quorums, payload, sender)
        expected = getattr(reference, f"on_{rule}")(quorums, payload, sender)
        assert got == expected, (step, rule, payload, sender)
    assert (instance.readied, instance.delivered) == (reference.readied, reference.delivered)


@pytest.mark.parametrize(
    "quorums", POLICIES, ids=lambda q: f"{type(q).__name__}-n{len(q.vote_weights)}"
)
def test_every_policy_readies_and_delivers_on_everyone(quorums):
    # ... so the replay above reaches both decisions
    parties = range(len(quorums.vote_weights))
    instance = BrachaInstance()
    assert any(instance.on_echo(quorums, b"a", pid) for pid in parties)
    assert any(instance.on_ready(quorums, b"a", pid)[1] for pid in parties)


def test_a_repeated_vote_adds_nothing():
    quorums = WeightedQuorums((3, 2, 1, 1), "1/3")
    instance = BrachaInstance()
    for _ in range(5):
        instance.on_ready(quorums, b"a", 1)
    tally = instance.ready_senders[b"a"]
    assert tally.senders == {1} and tally.weight == quorums.vote_weights[1]
    assert Fraction(tally.weight, sum(quorums.vote_weights)) == Fraction(2, 7)
