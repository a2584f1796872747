"""The one vote tally and a policy's integer form, against oracles.

Every quorum runs on a :class:`Tally` (``vote_weights`` summed over each
sender's first vote, compared ``weight > need``); the set predicates
judge a sender set from scratch.  For every subset of a committee the
two agree (and agree with plain ``Fraction`` arithmetic on the unscaled
weights), a :class:`BrachaInstance` fed votes in any order, repeats and
changed votes included, answers what the same rules written on sets and
predicates answer, and a tally over ``need(beta)`` is the tight gate of
Section 4.3.
"""

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Committee
from repro.protocols.reliable_broadcast import BrachaInstance
from repro.weighted.quorum import NominalQuorums, Tally, WeightedQuorums

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
        assert (tally > quorums.storage_need) == quorums.storage_quorum(members), members


def assert_predicates_match_fractions(quorums):
    total = quorums.total
    for members in _subsets(len(quorums.weights)):
        weight = quorums.weight(members)
        assert quorums.echo_quorum(members) == (weight > (1 - quorums.f_w) * total)
        assert quorums.ready_amplify(members) == (weight > quorums.f_w * total)
        assert quorums.storage_quorum(members) == (weight > 2 * quorums.f_w * total)


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
    a sender set per payload, judged by the set predicates each vote.
    A sender's first vote in a phase counts, and any later one -- for
    the same payload or another -- is dropped."""

    def __init__(self):
        self.readied = self.delivered = False
        self.echo = defaultdict(set)
        self.ready = defaultdict(set)

    @staticmethod
    def first(phase, payload, sender):
        """Record ``sender``'s vote unless it voted in ``phase`` before."""
        if any(sender in senders for senders in phase.values()):
            return False
        phase[payload].add(sender)
        return True

    def on_echo(self, quorums, payload, sender):
        if self.delivered or not self.first(self.echo, payload, sender):
            return False
        if self.readied or not quorums.echo_quorum(self.echo[payload]):
            return False
        self.readied = True
        return True

    def on_ready(self, quorums, payload, sender):
        if self.delivered or not self.first(self.ready, payload, sender):
            return False, False
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
    instance, reference = BrachaInstance(0), SetRules()
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
    instance = BrachaInstance(0)
    assert any(instance.on_echo(quorums, b"a", pid) for pid in parties)
    assert any(instance.on_ready(quorums, b"a", pid)[1] for pid in parties)


def test_a_repeated_vote_adds_nothing():
    quorums = WeightedQuorums((3, 2, 1, 1), "1/3")
    instance = BrachaInstance(0)
    for payload in (b"a", b"a", b"b", b"a", b"c"):
        instance.on_ready(quorums, payload, 1)
    tally = instance.readies
    assert tally.votes == {1: b"a"} and tally.totals == {b"a": quorums.vote_weights[1]}
    assert Fraction(tally.totals[b"a"], sum(quorums.vote_weights)) == Fraction(2, 7)


class TestTally:
    def test_a_senders_first_vote_counts_and_a_later_one_is_dropped(self):
        weights = (3, 2, 1)
        tally = Tally()
        assert tally.add(0, "a", weights) == 3
        assert tally.add(1, "b", weights) == 2
        for choice in ("a", "b", "c"):
            assert tally.add(0, choice, weights) == 0
        assert tally.add(2, "b", weights) == 3
        assert tally.votes == {0: "a", 1: "b", 2: "b"}
        assert tally.totals == {"a": 3, "b": 3}

    def test_an_unknown_voter_is_refused_and_not_recorded(self):
        tally = Tally()
        with pytest.raises(IndexError):
            tally.add(5, "a", (1, 1))
        assert tally.votes == {} and tally.totals == {}


def gate(weights, beta):
    """The tight checkpoint's vote round over ``weights``: one tally, and
    the integer threshold of "more than ``beta W``"."""
    quorums = WeightedQuorums(weights)
    return Tally(), quorums.vote_weights, quorums.need(beta)


class TestTightGate:
    """Section 4.3's vote round: open iff distinct voters weigh strictly
    more than ``beta W``."""

    def test_opens_above_beta_w(self):
        tally, weights, need = gate([40, 25, 15, 10, 5, 3, 1, 1], "1/2")
        assert not tally.add(0, b"cp", weights) > need  # 40/100
        assert tally.add(1, b"cp", weights) > need  # 65/100 > 1/2

    def test_strictly_above(self):
        tally, weights, need = gate([1, 1], "1/2")
        assert not tally.add(0, b"cp", weights) > need  # exactly 1/2
        assert tally.add(1, b"cp", weights) > need
        tally, weights, need = gate([2, 2], "1/2")
        assert need == 2
        assert tally.add(0, b"cp", weights) == need  # on the threshold: shut

    def test_a_repeated_vote_is_idempotent(self):
        tally, weights, need = gate([10, 1], "1/2")
        assert tally.add(1, b"cp", weights) == 1
        assert tally.add(1, b"cp", weights) == 0
        assert tally.totals == {b"cp": 1} and not tally.totals[b"cp"] > need

    def test_a_single_heavy_voter_opens_it(self):
        tally, weights, need = gate([10, 1], "1/2")
        assert tally.add(0, b"cp", weights) > need

    @pytest.mark.parametrize("beta", ["0", "1", "-1/2", "3/2"])
    def test_a_beta_outside_zero_one_is_refused(self, beta):
        with pytest.raises(ValueError):
            gate([1, 1], beta)

    @pytest.mark.parametrize("beta", ["1/3", "1/2", "2/3", "0.3", "99/100"])
    @pytest.mark.parametrize("weights", WEIGHT_VECTORS)
    def test_need_is_the_fraction_threshold(self, weights, beta):
        quorums = WeightedQuorums(weights)
        need, c = quorums.need(beta), Fraction(beta)
        for members in _subsets(len(weights)):
            tally = sum(quorums.vote_weights[i] for i in members)
            assert (tally > need) == (quorums.weight(members) > c * quorums.total)
