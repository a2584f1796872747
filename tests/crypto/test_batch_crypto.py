"""Batched crypto engine tests: the per-share path is the correctness
oracle and the batch engine must agree with it everywhere -- on honest
inputs, on malformed Byzantine inputs, and through the adversarial
bisection path.
"""

import random

import pytest

from repro.crypto.common_coin import CommonCoin, WeightedCoin, epoch_message
from repro.crypto.dleq import (
    DleqProof,
    prove_dleq,
    verify_dleq,
    verify_dleq_batch,
)
from repro.crypto.feldman import FeldmanVSS, Share
from repro.crypto.group import RFC3526_GROUP_2048, TEST_GROUP_256, SchnorrGroup
from threshold_enc import ThresholdElGamal
from repro.crypto.threshold_sig import SignatureShare, ThresholdSignatureScheme
from signature_oracle import verify_signature

G = TEST_GROUP_256

#: both shipped groups; the big one only gets small draws to stay fast
GROUPS = [TEST_GROUP_256, RFC3526_GROUP_2048]

#: roots a decoded share may carry that lie outside ``[1, q]``; ``None``
#: stands for the twin ``p - r`` of the honest root in the forged field
OUT_OF_RANGE = {
    "-1": -1, "0": 0, "p": G.p, "2^(bits+8)": 1 << (G.p.bit_length() + 8),
    "q+1": G.order + 1, "p-r": None,
}


class TestEngine:
    def test_exp_g_matches_pow(self):
        rng = random.Random(0)
        for group in GROUPS:
            for _ in range(8):
                e = rng.randrange(2 * group.order)  # includes reduction cases
                assert group.exp_g(e) == pow(group.generator, e % group.order, group.p)
        assert G.exp_g(0) == 1

    def test_fast_power_matches_pow_on_a_recurring_base(self):
        rng = random.Random(1)
        base = G.hash_to_group(b"recurring-base")
        for _ in range(12):
            e = rng.randrange(G.order)
            assert G.fast_power(base, e) == pow(base, e, G.p)

    def test_multi_exp_matches_naive_product(self):
        rng = random.Random(2)
        for group in GROUPS:
            draws = 6 if group is G else 2
            for n in (1, 2, 7):
                for _ in range(draws if group is G else 1):
                    pairs = [
                        (
                            group.hash_to_group(rng.randbytes(8)),
                            rng.randrange(group.order),
                        )
                        for _ in range(n)
                    ]
                    naive = 1
                    for b, e in pairs:
                        naive = naive * pow(b, e, group.p) % group.p
                    assert group.multi_exp(pairs) == naive

    @pytest.mark.parametrize("group", GROUPS, ids=["256", "2048"])
    def test_multi_exp_signed_residues_match_naive_product(self, group):
        """Exponents around ``q/2`` and ``q`` -- the signed-residue
        rewrite's boundary and its target -- and mixes of small
        positive and small negative residues, unreduced in the oracle."""
        q, p = group.order, group.p
        rng = random.Random(4)
        bases = [group.hash_to_group(b"signed-%d" % i) for i in range(6)]
        for e in (q // 2, q // 2 + 1, q - 1, q + 1, 2 * q - 1):
            assert group.multi_exp([(bases[0], e)]) == pow(bases[0], e, p), e
        for draw in range(4):
            exps = [
                rng.choice((rng.randrange(1, 1 << 8), q - rng.randrange(1, 1 << 8)))
                for _ in bases
            ]
            if draw == 3:  # one full-width residue keeps the long chain
                exps[2] = rng.randrange(q)
            naive = 1
            for b, e in zip(bases, exps):
                naive = naive * pow(b, e, p) % p
            assert group.multi_exp(list(zip(bases, exps))) == naive
            # Negative exponents are the same residues.
            assert group.multi_exp([(b, e - q) for b, e in zip(bases, exps)]) == naive

    def test_multi_exp_edge_cases(self):
        assert G.multi_exp([]) == 1
        assert G.multi_exp([(G.exp_g(9), 0)]) == 1
        assert G.multi_exp([(1, 12345)]) == 1
        assert G.multi_exp([(0, 3)]) == 0
        # Exponents reduce mod q.
        b = G.exp_g(3)
        assert G.multi_exp([(b, G.order + 2)]) == G.power(b, 2)

    def test_is_member_fast_agrees_with_euler(self):
        rng = random.Random(3)
        for _ in range(300):
            a = rng.randrange(0, G.p + 2)
            assert G.is_member_fast(a) == G.is_member(a), a
        # The generator's coset partner -g is the canonical non-member.
        assert not G.is_member_fast(G.p - G.generator)
        for group in GROUPS:
            a = group.hash_to_group(b"member")
            assert group.is_member_fast(a)
            assert not group.is_member_fast(group.p - a)

    def test_hash_to_group_deterministic(self):
        assert G.hash_to_group(b"same") == G.hash_to_group(b"same")
        other = SchnorrGroup(p=G.p, generator=G.generator)
        assert other.hash_to_group(b"same") == G.hash_to_group(b"same")
        assert G.hash_to_group(bytearray(b"same")) == G.hash_to_group(b"same")


class TestBatchDleq:
    def _statements(self, group, n, seed=0):
        rng = random.Random(seed)
        h = group.hash_to_root(b"batch-base")
        stmts = []
        for _ in range(n):
            x = group.random_exponent(rng)
            y1, y2, proof = prove_dleq(group, x, group.generator_root, h, rng)
            stmts.append((y1, y2, proof))
        return h, stmts, rng

    @pytest.mark.parametrize("group", GROUPS, ids=["256", "2048"])
    def test_honest_batch_verifies(self, group):
        n = 16 if group is G else 4
        h, stmts, rng = self._statements(group, n)
        assert verify_dleq_batch(group, group.generator_root, h, stmts, rng=rng) == [
            True
        ] * n

    def test_batch_equals_oracle_property(self):
        """Randomized corruption sweep: the batch verdict must match the
        per-share oracle statement for statement, on every draw."""
        rng = random.Random(7)
        h, stmts, _ = self._statements(G, 24, seed=7)
        for trial in range(6):
            mutated = list(stmts)
            for _ in range(rng.randrange(0, 4)):
                i = rng.randrange(len(mutated))
                y1, y2, pr = mutated[i]
                kind = rng.randrange(5)
                if kind == 0:  # wrong share value
                    mutated[i] = (y1, G.canonical_root(G.mul(y2, h)), pr)
                elif kind == 1:  # the share value's twin root
                    mutated[i] = (y1, G.p - y2, pr)
                elif kind == 2:  # out-of-range response
                    mutated[i] = (
                        y1,
                        y2,
                        DleqProof(pr.challenge, pr.response + G.order, pr.commit1, pr.commit2),
                    )
                elif kind == 3:  # tampered commitment
                    mutated[i] = (
                        y1,
                        y2,
                        DleqProof(
                            pr.challenge, pr.response, G.canonical_root(G.mul(pr.commit1, h)),
                            pr.commit2,
                        ),
                    )
                else:  # commitment-stripped honest proof (oracle fallback)
                    mutated[i] = (y1, y2, DleqProof(pr.challenge, pr.response))
            got = verify_dleq_batch(G, G.generator_root, h, mutated, rng=rng)
            want = [
                verify_dleq(G, G.generator_root, y1, h, y2, pr)
                for (y1, y2, pr) in mutated
            ]
            assert got == want, f"trial {trial}"

    def test_one_bad_share_in_64_is_bisected_out(self):
        """The acceptance scenario: one corrupted share hidden in a batch
        of 64 is located and the remaining 63 still verify."""
        h, stmts, rng = self._statements(G, 64, seed=11)
        bad_pos = 41
        y1, y2, pr = stmts[bad_pos]
        stmts[bad_pos] = (y1, G.canonical_root(G.mul(y2, G.generator_root)), pr)
        got = verify_dleq_batch(G, G.generator_root, h, stmts, rng=rng)
        assert got == [i != bad_pos for i in range(64)]

    def test_empty_batch(self):
        assert verify_dleq_batch(G, G.generator_root, G.hash_to_root(b"h"), []) == []

    def _forged(self, h, rng):
        """A forgery that survives every cheap per-item check (range,
        root decoding, Fiat-Shamir recomputation) and dies only in the
        random-linear-combination aggregate -- the worst-case input for
        the bisection."""
        from repro.crypto.dleq import _root_challenge

        g, canon = G.generator_root, G.canonical_root
        x = G.random_exponent(rng)
        y1 = G.exp_g(x)
        y2 = canon(G.fast_power(h, G.random_exponent(rng)))
        a1 = canon(G.fast_power(g, G.random_exponent(rng)))
        a2 = canon(G.fast_power(h, G.random_exponent(rng)))
        c = _root_challenge(G, g, y1, h, y2, a1, a2)
        return (y1, y2, DleqProof(c, G.random_exponent(rng), a1, a2))

    def _count_oracle_calls(self, monkeypatch):
        import repro.crypto.dleq as dleq_mod

        calls = []
        real = dleq_mod.verify_dleq

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dleq_mod, "verify_dleq", counting)
        return calls

    def test_all_shares_bad_degrades_to_one_oracle_call_each(self, monkeypatch):
        """Bisection worst case: every share forged.  Every aggregate
        fails, the recursion reaches every leaf, and each share is
        settled by exactly one per-share oracle call -- no looping, no
        re-verification."""
        rng = random.Random(23)
        h = G.hash_to_root(b"batch-base")
        n = 16  # power of two: the bisection tree is perfectly balanced
        stmts = [self._forged(h, rng) for _ in range(n)]
        calls = self._count_oracle_calls(monkeypatch)
        got = verify_dleq_batch(G, G.generator_root, h, stmts, rng=rng)
        assert got == [False] * n
        assert len(calls) == n

    def test_exactly_one_good_share_survives_the_flood(self, monkeypatch):
        """The other worst case: one honest share drowning in forgeries.
        Every chunk above leaf size contains a forgery, so the bisection
        still bottoms out at one oracle call per share -- and the honest
        share's verdict must match the per-share oracle (True)."""
        rng = random.Random(29)
        h = G.hash_to_root(b"batch-base")
        n, good_pos = 16, 7
        stmts = [self._forged(h, rng) for _ in range(n)]
        x = G.random_exponent(rng)
        y1, y2, proof = prove_dleq(G, x, G.generator_root, h, rng)
        stmts[good_pos] = (y1, y2, proof)
        calls = self._count_oracle_calls(monkeypatch)
        got = verify_dleq_batch(G, G.generator_root, h, stmts, rng=rng)
        assert got == [i == good_pos for i in range(n)]
        assert len(calls) == n

    def test_forged_share_passes_every_cheap_check(self):
        # The forgery helper must actually reach the aggregate: its
        # per-share oracle verdict is False, but a batch of size one is
        # the aggregate itself -- both paths must reject it.
        rng = random.Random(31)
        h = G.hash_to_root(b"batch-base")
        y1, y2, proof = self._forged(h, rng)
        assert proof.commit1 is not None  # not the oracle-fallback path
        assert not verify_dleq(G, G.generator_root, y1, h, y2, proof)
        assert verify_dleq_batch(G, G.generator_root, h, [(y1, y2, proof)], rng=rng) == [
            False
        ]

    @pytest.mark.parametrize("field", ["y2", "commit1", "commit2"])
    @pytest.mark.parametrize("bad", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_element_is_rejected_not_raised(self, field, bad):
        """A forged share decodes to any signed int: the batch verifier
        must reject a root outside ``[1, q]`` the way the oracle does, not
        raise while encoding it into the Fiat-Shamir transcript."""
        h, stmts, rng = self._statements(G, 4, seed=37)
        y1, y2, pr = stmts[1]
        if field == "y2":
            y2 = G.p - y2 if bad is None else bad
        else:
            honest = getattr(pr, field)
            commits = {"commit1": pr.commit1, "commit2": pr.commit2}
            commits[field] = G.p - honest if bad is None else bad
            pr = DleqProof(pr.challenge, pr.response, **commits)
        stmts[1] = (y1, y2, pr)
        got = verify_dleq_batch(G, G.generator_root, h, stmts, rng=rng)
        want = [verify_dleq(G, G.generator_root, a, h, b, c) for a, b, c in stmts]
        assert got == want == [True, False, True, True]

    def test_identity_bases_rejected(self):
        h, stmts, rng = self._statements(G, 3)
        assert verify_dleq_batch(G, 1, h, stmts, rng=rng) == [False] * 3
        assert verify_dleq_batch(G, G.generator_root, G.p - 1, stmts, rng=rng) == [False] * 3

    def test_hardened_oracle_rejects_malformed(self):
        h, stmts, _ = self._statements(G, 1)
        y1, y2, pr = stmts[0]
        g = G.generator_root
        assert verify_dleq(G, g, y1, h, y2, pr)
        # Exponent-range malleability (r + q) is rejected, not reduced.
        assert not verify_dleq(
            G, g, y1, h, y2, DleqProof(pr.challenge, pr.response + G.order)
        )
        assert not verify_dleq(
            G, g, y1, h, y2, DleqProof(pr.challenge + G.order, pr.response)
        )
        assert not verify_dleq(
            G, g, y1, h, y2, DleqProof(pr.challenge, -1)
        )
        # Identity bases and roots out of range.
        assert not verify_dleq(G, 1, y1, h, y2, pr)
        assert not verify_dleq(G, 0, y1, h, y2, pr)
        assert not verify_dleq(G, g, y1, G.p - 1, y2, pr)
        assert not verify_dleq(G, G.p - g, y1, h, y2, pr)


class TestSchemeBatch:
    def _scheme(self, n=12, k=5, seed=0):
        rng = random.Random(seed)
        scheme = ThresholdSignatureScheme(G, n, k)
        return scheme, scheme.keygen(rng).shares, rng

    def test_verify_shares_batch_equals_per_share(self):
        scheme, keys, rng = self._scheme()
        shares = [scheme.sign_share(key, b"epoch-1", rng) for key in keys]
        # Corrupt two, fake one index.
        shares[3] = SignatureShare(
            index=shares[3].index,
            value=G.canonical_root(G.mul(shares[3].value, G.generator_root)),
            proof=shares[3].proof,
        )
        shares[8] = SignatureShare(index=99, value=shares[8].value, proof=shares[8].proof)
        got = scheme.verify_shares_batch(shares, b"epoch-1")
        want = [scheme.verify_share(s, b"epoch-1") for s in shares]
        assert got == want
        assert got.count(False) == 2

    def test_combine_uses_batch_and_matches_seed_combine(self):
        scheme, keys, rng = self._scheme(n=8, k=4, seed=2)
        shares = [scheme.sign_share(key, b"m", rng) for key in keys]
        sigma = scheme.combine(shares[:4], b"m")
        # Seed-path combine: scalar pow chain over the same coefficients.
        from repro.crypto.polynomial import lagrange_coefficients_at

        lambdas = lagrange_coefficients_at(scheme.field, [s.index for s in shares[:4]], 0)
        seed_sigma = 1
        for lam, share in zip(lambdas, shares[:4]):
            seed_sigma = seed_sigma * G.power(G.decode_root(share.value), lam) % G.p
        assert sigma == seed_sigma
        assert verify_signature(scheme, keys, sigma, b"m")

    @pytest.mark.parametrize("group", GROUPS, ids=["256", "2048"])
    def test_combine_contiguous_and_scattered_quorums(self, group):
        """A contiguous quorum's Lagrange coefficients are small signed
        integers (the signed-residue path); a scattered one's are
        full-width fractions.  Both open the one unique signature."""
        rng = random.Random(13)
        scheme = ThresholdSignatureScheme(group, 11, 6)
        keys = scheme.keygen(rng).shares
        shares = {key.index: scheme.sign_share(key, b"epoch-3", rng) for key in keys}
        for indices in ((1, 2, 3, 4, 5, 6), (6, 7, 8, 9, 10, 11), (1, 3, 4, 7, 10, 11)):
            sigma = scheme.combine([shares[i] for i in indices], b"epoch-3")
            assert verify_signature(scheme, keys, sigma, b"epoch-3"), indices

    def test_signed_shares_are_pinned(self):
        """Signing reuses the published key share instead of recomputing
        ``g^x_i``: values, proofs and RNG draws must stay bit-identical.
        The digests are over the elements the roots stand for, pinned
        when shares travelled as those elements."""
        import hashlib

        pinned = {
            "256": "47189297e7f8fd3239e1bb589bc859f121fc4346c7ce039197c3b04a1f505953",
            "2048": "13f233d4354d90d00ca3d1d22ca9bdcb50daf741a3ee12633002bf7f2aeca356",
        }
        cases = {
            "256": (TEST_GROUP_256, [3, 4, 2], 1, 7),
            "2048": (RFC3526_GROUP_2048, [1, 2], 1, 3),
        }
        for name, (group, tickets, party, epoch) in cases.items():
            coin = WeightedCoin(group, tickets, "1/2", random.Random("pin|keys"))
            h = hashlib.sha256()
            for s in coin.shares_of_party(party, epoch, random.Random("pin|sign")):
                pr = s.proof
                value, a1, a2 = map(group.decode_root, (s.value, pr.commit1, pr.commit2))
                fields = (s.index, value, pr.challenge, pr.response, a1, a2)
                h.update(repr(fields).encode())
            assert h.hexdigest() == pinned[name], name

    def test_combine_rejects_and_names_bad_share(self):
        scheme, keys, rng = self._scheme(n=6, k=3, seed=3)
        shares = [scheme.sign_share(key, b"m", rng) for key in keys[:2]]
        bad = SignatureShare(index=5, value=G.generator, proof=shares[0].proof)
        with pytest.raises(ValueError, match="from 5"):
            scheme.combine(shares + [bad], b"m")

    def test_elgamal_batch_and_combine(self):
        rng = random.Random(5)
        scheme = ThresholdElGamal(G, 9, 4)
        scheme.keygen(rng)
        msg = G.hash_to_group(b"plaintext")
        ct = scheme.encrypt(msg, rng)
        shares = [scheme.decryption_share(i, ct, rng) for i in range(1, 10)]
        got = scheme.verify_shares_batch(shares, ct)
        assert got == [True] * 9
        from threshold_enc import DecryptionShare

        shares[2] = DecryptionShare(
            index=shares[2].index,
            value=G.canonical_root(G.mul(shares[2].value, msg)),
            proof=shares[2].proof,
        )
        got = scheme.verify_shares_batch(shares, ct)
        want = [scheme.verify_share(s, ct) for s in shares]
        assert got == want and not got[2]
        good = [s for s, ok in zip(shares, got) if ok]
        assert scheme.combine(good, ct) == msg

    def test_feldman_batch_equals_per_share(self):
        rng = random.Random(6)
        vss = FeldmanVSS(G, 10, 4)
        dealing = vss.deal(424242, rng)
        shares = list(dealing.shares)
        shares[7] = Share(index=shares[7].index, value=(shares[7].value + 1) % G.order)
        got = dealing.commitment.verify_shares_batch(shares, rng=rng)
        want = [dealing.commitment.verify_share(s) for s in shares]
        assert got == want
        assert got == [i != 7 for i in range(10)]


class TestBatchCoin:
    def test_weighted_coin_1024_tickets_batch_equals_oracle(self):
        """Acceptance: a weighted coin open at >= 1024 tickets completes
        through the batch path with a bit-identical value to the
        per-share oracle."""
        rng = random.Random(9)
        tickets = [8] * 128  # T = 1024 virtual signers
        coin = WeightedCoin(G, tickets, "1/2", rng)
        assert coin.total_shares == 1024 and coin.threshold == 512
        epoch = 1
        shares = []
        for party in range(128):  # all 1024 tickets
            shares.extend(coin.shares_of_party(party, epoch, rng))
        verdicts = coin.verify_shares(shares, epoch, rng=rng)
        assert all(verdicts)
        batch_value = coin.coin.open(shares[:640], epoch, verify=False)
        # Oracle: per-share verification loop + scalar pow combine over a
        # different share subset (uniqueness makes the value identical).
        oracle_shares = shares[512 : 512 + coin.threshold]
        message = epoch_message(epoch)
        assert all(
            coin.coin.scheme.verify_share(s, message=message) for s in oracle_shares[:4]
        )
        from repro.crypto.polynomial import lagrange_coefficients_at

        lambdas = lagrange_coefficients_at(
            coin.coin.scheme.field, [s.index for s in oracle_shares], 0
        )
        sigma = 1
        for lam, share in zip(lambdas, oracle_shares):
            sigma = sigma * G.power(G.decode_root(share.value), lam) % G.p
        import hashlib

        digest = hashlib.sha256(
            b"coin-value|" + sigma.to_bytes((sigma.bit_length() + 7) // 8 or 1, "big")
        ).digest()
        assert batch_value == int.from_bytes(digest, "big")

    def test_coin_batch_open_with_byzantine_share(self):
        rng = random.Random(10)
        coin = CommonCoin(G, n=8, k=4, rng=rng)
        shares = [coin.share(i, epoch=2, rng=rng) for i in range(1, 7)]
        shares[1] = SignatureShare(
            index=shares[1].index,
            value=G.canonical_root(G.mul(shares[1].value, G.exp_g(7))),
            proof=shares[1].proof,
        )
        verdicts = coin.verify_shares(shares, 2, rng=rng)
        assert verdicts == [True, False, True, True, True, True]
        good = [s for s, ok in zip(shares, verdicts) if ok]
        value = coin.open(good, 2, verify=False)
        assert value == coin.open([s for s in shares if s.index != shares[1].index], 2)


class ThresholdCoin:
    """A threshold-signature round coin pluggable into VABA.

    Callable as ``coin(round) -> int``: the dealer-trusted simulation
    setup signs one share per virtual signer, batch-verifies them in a
    single aggregate at the moment the round's value is demanded (the
    quorum decision point in :class:`~repro.protocols.vaba.VabaParty`),
    and opens the unique signature.  Values are cached per round, so
    every party sharing one instance -- the same trust model as the
    ``coin_seed`` hash stand-in it replaces -- sees the same leader at a
    fraction of the per-share verification cost.
    """

    def __init__(self, group: SchnorrGroup, n: int, k: int, rng) -> None:
        self.coin = CommonCoin(group, n=n, k=k, rng=rng)
        self.k = k
        self.rng = rng
        self._values: dict[int, int] = {}
        #: total shares batch-verified
        self.shares_verified = 0

    def __call__(self, rnd: int) -> int:
        value = self._values.get(rnd)
        if value is None:
            shares = [self.coin.share(i, rnd, self.rng) for i in range(1, self.k + 1)]
            valid = [
                s
                for s, ok in zip(shares, self.coin.verify_shares(shares, rnd))
                if ok
            ]
            self.shares_verified += len(shares)
            value = self._values[rnd] = self.coin.open(valid, rnd, verify=False)
        return value


class TestBatchBeaconProtocol:
    def test_beacon_discards_byzantine_share_and_still_opens(self):
        """A garbled share injected into the beacon traffic is isolated
        by the batch verifier at the quorum point; honest shares open."""
        from repro.protocols.checkpointing import CheckpointShare
        from repro.protocols.common_coin import BeaconParty
        from repro.sim import SimHost
        from repro.weighted.transform import blunt_setup

        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        rng = random.Random(3)
        setup = blunt_setup(weights, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", rng)
        host = SimHost(
            lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)),
            len(weights),
            seed=3,
        )
        # Party 0 also broadcasts one garbled share under a fresh index.
        epoch = 1
        honest = coin.shares_of_party(0, epoch, random.Random(77))
        garbled = SignatureShare(
            index=honest[0].index,
            value=G.mul(honest[0].value, G.exp_g(5)),
            proof=honest[0].proof,
        )
        host.party(0).broadcast(
            CheckpointShare(checkpoint=epoch_message(epoch), share=garbled)
        )
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(epoch)
        host.simulator.run()
        values = {p.values.get(epoch) for p in host.parties}
        assert len(values) == 1 and None not in values
        assert any(p.counters["invalid_shares"] > 0 for p in host.parties)

    def test_beacon_opens_past_an_out_of_range_share(self):
        """A share decoded with ``value = -1`` reaches the batch verifier
        ahead of an honest quorum: it is counted invalid, not raised on,
        and every party still opens the epoch."""
        from repro.protocols.checkpointing import CheckpointShare
        from repro.protocols.common_coin import BeaconParty
        from repro.sim import SimHost
        from repro.weighted.transform import blunt_setup

        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        setup = blunt_setup(weights, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(4))
        host = SimHost(
            lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)),
            len(weights),
            seed=4,
        )
        epoch = 1
        honest = coin.shares_of_party(0, epoch, random.Random(78))[0]
        forged = SignatureShare(index=honest.index, value=-1, proof=honest.proof)
        host.party(0).broadcast(
            CheckpointShare(checkpoint=epoch_message(epoch), share=forged)
        )
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(epoch)
        host.simulator.run()
        values = {p.values.get(epoch) for p in host.parties}
        assert len(values) == 1 and None not in values
        assert any(p.counters["invalid_shares"] > 0 for p in host.parties)

    def test_forged_index_cannot_block_honest_share(self):
        """Liveness regression: a Byzantine sender broadcasting garbage
        under honest signer indices *before* the honest shares arrive
        must not blacklist those indices -- the beacon still opens."""
        from repro.protocols.checkpointing import CheckpointShare
        from repro.protocols.common_coin import BeaconParty
        from repro.sim import SimHost
        from repro.weighted.transform import blunt_setup

        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        rng = random.Random(8)
        setup = blunt_setup(weights, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", rng)
        host = SimHost(
            lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)),
            len(weights),
            seed=8,
        )
        epoch = 1
        # Forge a garbage share for *every* virtual signer index and
        # broadcast them first (they deliver before the honest traffic).
        probe = coin.shares_of_party(0, epoch, random.Random(99))[0]
        for index in range(1, coin.total_shares + 1):
            forged = SignatureShare(
                index=index, value=G.exp_g(index + 12345), proof=probe.proof
            )
            host.party(0).broadcast(
            CheckpointShare(checkpoint=epoch_message(epoch), share=forged)
        )
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(epoch)
        host.simulator.run()
        values = {p.values.get(epoch) for p in host.parties}
        assert len(values) == 1 and None not in values, "forgeries blocked the coin"
        # At least one party had to reject forgeries on its way to quorum
        # (parties that reached quorum on honest shares alone never pay
        # for the buffered forgeries -- that laziness is the point).
        assert any(p.counters["invalid_shares"] > 0 for p in host.parties)

    def test_batched_quorum_collector_unit(self):
        from repro.protocols.batching import BatchedQuorumCollector
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FakeShare:
            index: int
            good: bool

        verified_batches = []

        def verify(batch):
            verified_batches.append(list(batch))
            return [s.good for s in batch]

        collector = BatchedQuorumCollector(2, verify)
        assert collector.add(FakeShare(1, False)) is None  # buffered
        assert collector.add(FakeShare(1, False)) is None  # dedup, no re-verify
        outcome = collector.add(FakeShare(2, True))  # quorum's worth pending
        assert outcome == (1, 1) and not collector.has_quorum
        # The honest share for index 1 arrives after the forgery: counted.
        outcome = collector.add(FakeShare(1, True))
        assert outcome == (1, 0) and collector.has_quorum
        assert {s.index for s in collector.quorum_shares()} == {1, 2}
        # Rejected forgeries were verified exactly once.
        flat = [s for batch in verified_batches for s in batch]
        assert flat.count(FakeShare(1, False)) == 1

    def test_vaba_with_threshold_coin(self):
        from repro.protocols.vaba import VabaParty
        from repro.sim import SimHost

        n = 5
        coin = ThresholdCoin(G, n=6, k=3, rng=random.Random(12))
        host = SimHost(
            lambda pid: VabaParty(pid, n, 1, coin=coin), n, seed=12
        )
        for pid in range(n):
            host.party(pid).propose(f"v{pid}".encode())
        host.simulator.run()
        decided = {p.decided for p in host.parties}
        assert len(decided) == 1 and None not in decided
        assert coin.shares_verified > 0
