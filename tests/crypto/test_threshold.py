"""Tests for DLEQ, Feldman VSS, threshold signatures, threshold ElGamal,
and the common coin."""

import random

import pytest

from repro.crypto.common_coin import CommonCoin, WeightedCoin
from repro.crypto.dleq import prove_dleq, verify_dleq
from repro.crypto.feldman import FeldmanVSS
from repro.crypto.group import TEST_GROUP_256 as G
from threshold_enc import ThresholdElGamal
from repro.crypto.threshold_sig import ThresholdSignatureScheme
from signature_oracle import verify_signature


class TestGroup:
    def test_membership(self):
        assert G.is_member(G.generator)
        assert G.is_member(G.exp_g(123))
        assert not G.is_member(0)
        assert not G.is_member(G.p)

    def test_hash_to_group_members(self):
        for msg in (b"", b"a", b"hello world", bytes(100)):
            assert G.is_member(G.hash_to_group(msg))

    def test_hash_to_group_deterministic(self):
        assert G.hash_to_group(b"x") == G.hash_to_group(b"x")
        assert G.hash_to_group(b"x") != G.hash_to_group(b"y")

    def test_power_reduces_exponent(self):
        assert G.power(G.generator, G.order + 5) == G.power(G.generator, 5)

    def test_inv(self):
        a = G.exp_g(9999)
        assert G.mul(a, G.inv(a)) == 1

    def test_exponent_field_is_prime_order(self):
        assert G.exponent_field.modulus == G.order


class TestDleq:
    def test_roundtrip(self):
        rng = random.Random(0)
        x = G.random_exponent(rng)
        h = G.hash_to_root(b"base2")
        y1, y2, proof = prove_dleq(G, x, G.generator_root, h, rng)
        assert y1 == G.exp_g(x)
        assert G.decode_root(y2) == G.power(G.hash_to_group(b"base2"), x)
        assert verify_dleq(G, G.generator_root, y1, h, y2, proof)

    def test_wrong_statement_rejected(self):
        rng = random.Random(0)
        x = G.random_exponent(rng)
        h = G.hash_to_root(b"base2")
        g = G.generator_root
        y1, y2, proof = prove_dleq(G, x, g, h, rng)
        assert not verify_dleq(G, g, y1, h, G.canonical_root(G.mul(y2, h)), proof)
        assert not verify_dleq(G, g, G.mul(y1, G.decode_root(h)), h, y2, proof)

    def test_nonmember_rejected(self):
        rng = random.Random(0)
        x = G.random_exponent(rng)
        h = G.hash_to_root(b"b")
        y1, y2, proof = prove_dleq(G, x, G.generator_root, h, rng)
        assert not verify_dleq(G, G.generator_root, 0, h, y2, proof)


class TestFeldman:
    def test_all_shares_verify(self):
        rng = random.Random(1)
        vss = FeldmanVSS(G, 6, 3)
        dealing = vss.deal(31337, rng)
        for share in dealing.shares:
            assert dealing.commitment.verify_share(share)

    def test_tampered_share_rejected(self):
        rng = random.Random(1)
        vss = FeldmanVSS(G, 5, 2)
        dealing = vss.deal(7, rng)
        from repro.crypto.feldman import Share

        bad = Share(index=1, value=(dealing.shares[0].value + 1) % G.order)
        assert not dealing.commitment.verify_share(bad)

    def test_reconstruct(self):
        rng = random.Random(2)
        vss = FeldmanVSS(G, 7, 4)
        dealing = vss.deal(55555, rng)
        assert vss.reconstruct(dealing.shares[2:6]) == 55555

    def test_public_key_is_g_to_secret(self):
        rng = random.Random(3)
        vss = FeldmanVSS(G, 4, 2)
        dealing = vss.deal(777, rng)
        assert dealing.commitment.public_key == G.exp_g(777)

    def test_insufficient_shares(self):
        rng = random.Random(4)
        vss = FeldmanVSS(G, 4, 3)
        dealing = vss.deal(1, rng)
        with pytest.raises(ValueError):
            vss.reconstruct(dealing.shares[:2])


class TestThresholdSignatures:
    def _scheme(self, n=5, k=3, seed=0):
        rng = random.Random(seed)
        scheme = ThresholdSignatureScheme(G, n, k)
        return scheme, scheme.keygen(rng).shares, rng

    def test_share_verification(self):
        scheme, keys, rng = self._scheme()
        share = scheme.sign_share(keys[1], b"msg", rng)
        assert scheme.verify_share(share, b"msg")
        assert not scheme.verify_share(share, b"other")

    def test_unknown_signer_rejected(self):
        scheme, keys, rng = self._scheme()
        share = scheme.sign_share(keys[0], b"m", rng)
        from repro.crypto.threshold_sig import SignatureShare

        fake = SignatureShare(index=99, value=share.value, proof=share.proof)
        assert not scheme.verify_share(fake, b"m")

    def test_uniqueness(self):
        """The signature is independent of the combining share subset --
        the property randomness beacons rely on (Section 4.1)."""
        scheme, keys, rng = self._scheme(n=6, k=3)
        shares = [scheme.sign_share(key, b"epoch-9", rng) for key in keys]
        sig_a = scheme.combine(shares[:3], b"epoch-9")
        sig_b = scheme.combine(shares[3:], b"epoch-9")
        sig_c = scheme.combine([shares[0], shares[2], shares[4]], b"epoch-9")
        assert sig_a == sig_b == sig_c
        assert verify_signature(scheme, keys, sig_a, b"epoch-9")

    def test_combine_rejects_invalid_share(self):
        scheme, keys, rng = self._scheme()
        shares = [scheme.sign_share(key, b"m", rng) for key in keys[:2]]
        from repro.crypto.threshold_sig import SignatureShare

        bad = SignatureShare(index=3, value=G.generator, proof=shares[0].proof)
        with pytest.raises(ValueError):
            scheme.combine(shares + [bad], b"m")

    def test_combine_needs_k_distinct(self):
        scheme, keys, rng = self._scheme()
        s1 = scheme.sign_share(keys[0], b"m", rng)
        with pytest.raises(ValueError):
            scheme.combine([s1, s1, s1], b"m")

    def test_verify_rejects_wrong_message(self):
        scheme, keys, rng = self._scheme()
        shares = [scheme.sign_share(key, b"m1", rng) for key in keys[:3]]
        sig = scheme.combine(shares, b"m1")
        assert not verify_signature(scheme, keys, sig, b"m2")

    def test_two_schemes_on_one_group_test_q_once(self, monkeypatch):
        import repro.crypto.field as field_mod
        import repro.crypto.group as group_mod

        calls = []
        real = field_mod._is_probable_prime
        monkeypatch.setattr(field_mod, "_is_probable_prime", lambda n: calls.append(n) or real(n))
        monkeypatch.setattr(group_mod, "_FIELDS", {})
        first, second = ThresholdSignatureScheme(G, 5, 3), ThresholdSignatureScheme(G, 7, 4)
        assert first.field is second.field
        assert calls == [G.order]

    def test_keygen_required(self):
        scheme = ThresholdSignatureScheme(G, 3, 2)
        with pytest.raises(RuntimeError):
            _ = scheme.keys


class TestThresholdElGamal:
    def _scheme(self, n=5, k=3, seed=0):
        rng = random.Random(seed)
        scheme = ThresholdElGamal(G, n, k)
        scheme.keygen(rng)
        return scheme, rng

    def test_roundtrip(self):
        scheme, rng = self._scheme()
        msg = G.exp_g(123456)
        ct = scheme.encrypt(msg, rng)
        shares = [scheme.decryption_share(i, ct, rng) for i in (1, 3, 5)]
        assert scheme.combine(shares, ct) == msg

    def test_any_k_shares_work(self):
        scheme, rng = self._scheme(n=6, k=2)
        msg = G.hash_to_group(b"plain")
        ct = scheme.encrypt(msg, rng)
        for pair in ((1, 2), (3, 6), (2, 5)):
            shares = [scheme.decryption_share(i, ct, rng) for i in pair]
            assert scheme.combine(shares, ct) == msg

    def test_share_verification(self):
        scheme, rng = self._scheme()
        ct = scheme.encrypt(G.exp_g(1), rng)
        share = scheme.decryption_share(2, ct, rng)
        assert scheme.verify_share(share, ct)
        other_ct = scheme.encrypt(G.exp_g(2), rng)
        assert not scheme.verify_share(share, other_ct)

    def test_nonmember_message_rejected(self):
        scheme, rng = self._scheme()
        with pytest.raises(ValueError):
            scheme.encrypt(0, rng)

    def test_insufficient_shares(self):
        scheme, rng = self._scheme()
        ct = scheme.encrypt(G.exp_g(5), rng)
        shares = [scheme.decryption_share(1, ct, rng)]
        with pytest.raises(ValueError):
            scheme.combine(shares, ct)


class TestCommonCoin:
    def test_agreement_across_share_subsets(self):
        rng = random.Random(0)
        coin = CommonCoin(G, n=6, k=3, rng=rng)
        shares = [coin.share(i, epoch=4, rng=rng) for i in range(1, 7)]
        v1 = coin.open(shares[:3], 4)
        v2 = coin.open(shares[3:], 4)
        assert v1 == v2

    def test_epochs_differ(self):
        rng = random.Random(0)
        coin = CommonCoin(G, n=4, k=2, rng=rng)
        shares_a = [coin.share(i, 1, rng) for i in (1, 2)]
        shares_b = [coin.share(i, 2, rng) for i in (1, 2)]
        assert coin.open(shares_a, 1) != coin.open(shares_b, 2)

    def test_share_verification(self):
        rng = random.Random(0)
        coin = CommonCoin(G, n=4, k=2, rng=rng)
        share = coin.share(1, 9, rng)
        assert coin.verify_share(share, 9)
        assert not coin.verify_share(share, 10)

    def test_toss_is_bit(self):
        rng = random.Random(0)
        coin = CommonCoin(G, n=4, k=2, rng=rng)
        shares = [coin.share(i, 3, rng) for i in (1, 2)]
        assert coin.toss(shares, 3) in (0, 1)


class TestWeightedCoin:
    def test_honest_coalition_opens_adversary_cannot(self):
        from repro import WeightRestriction, solve
        from repro.sim.adversary import most_tickets_under

        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        result = solve(WeightRestriction("1/3", "1/2"), weights)
        rng = random.Random(0)
        coin = WeightedCoin(G, result.assignment, "1/2", rng)
        corrupt = most_tickets_under(weights, result.assignment.to_list(), "1/3")
        honest = [i for i in range(len(weights)) if i not in corrupt]
        assert coin.coalition_can_open(honest)
        assert not coin.coalition_can_open(sorted(corrupt))
        value = coin.open_with_parties(honest, epoch=1, rng=rng)
        assert isinstance(value, int)

    def test_zero_assignment_rejected(self):
        with pytest.raises(ValueError):
            WeightedCoin(G, [0, 0], "1/2", random.Random(0))
