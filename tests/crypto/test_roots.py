"""Canonical roots: the wire form of DLEQ statement elements.

Every element ``x`` of the order-``q`` subgroup has exactly one square root
in ``[1, q]``; a share value or commitment sent as that root is a member by
construction.  These tests hold the encoding itself, the decoder's refusals,
the batch verifier against the per-share oracle on root-form forgeries, and
the claim that a beacon epoch computes no Jacobi symbol.
"""

import random

import pytest

import repro.crypto.group as group_mod
from repro.crypto.common_coin import WeightedCoin
from repro.crypto.dleq import DleqProof
from repro.crypto.group import RFC3526_GROUP_2048, TEST_GROUP_256 as G
from repro.crypto.threshold_sig import SignatureShare, ThresholdSignatureScheme

P, Q = G.p, G.order


def _sampled_elements():
    rng = random.Random(0)
    elements = [1, G.generator, G.hash_to_group(b"sampled")]
    elements += [G.exp_g(rng.randrange(Q)) for _ in range(40)]
    return elements


@pytest.mark.parametrize("x", _sampled_elements())
def test_each_element_has_one_root_in_range(x):
    r = pow(x, (P + 1) // 4, P)
    assert r * r % P == x
    in_range = [v for v in (r, P - r) if 1 <= v <= Q]
    assert len(in_range) == 1
    assert G.canonical_root(r) == G.canonical_root(P - r) == in_range[0]
    assert G.decode_root(in_range[0]) == x


@pytest.mark.parametrize("group", [G, RFC3526_GROUP_2048], ids=["256", "2048"])
def test_generator_and_hash_roots(group):
    assert 1 < group.generator_root <= group.order
    assert group.decode_root(group.generator_root) == group.generator
    root = group.hash_to_root(b"root")
    assert group.canonical_root(root) == root
    assert group.decode_root(root) == group.hash_to_group(b"root")


@pytest.mark.parametrize(
    "bad", [0, Q + 1, P - 1, P, -1, True, "1", None],
    ids=["0", "q+1", "p-1", "p", "-1", "True", "str", "None"],
)
def test_decoder_refuses(bad):
    assert G.decode_root(bad) is None


def test_decoder_accepts_the_range_ends():
    assert G.decode_root(1) == 1
    assert G.decode_root(Q) == Q * Q % P


def _forgeries(honest: SignatureShare) -> dict[str, SignatureShare]:
    """Root-form forgeries of each of the share's three roots."""
    wrong = G.canonical_root(honest.value * G.generator_root)
    out = {}
    for field in ("value", "commit1", "commit2"):
        current = honest.value if field == "value" else getattr(honest.proof, field)
        for kind, bad in (("twin", P - current), ("q+1", Q + 1), ("0", 0), ("wrong", wrong)):
            if field == "value":
                out[f"{field}-{kind}"] = SignatureShare(honest.index, bad, honest.proof)
            else:
                pr = honest.proof
                commits = {"commit1": pr.commit1, "commit2": pr.commit2, field: bad}
                proof = DleqProof(pr.challenge, pr.response, **commits)
                out[f"{field}-{kind}"] = SignatureShare(honest.index, honest.value, proof)
    return out


def test_batch_and_oracle_agree_on_root_forgeries():
    rng = random.Random(1)
    scheme = ThresholdSignatureScheme(G, 6, 3)
    honest = [scheme.sign_share(key, b"m", rng) for key in scheme.keygen(rng).shares]
    forged = _forgeries(honest[2])
    assert len(forged) == 12
    for name, bad in forged.items():
        shares = honest[:2] + [bad] + honest[3:]
        got = scheme.verify_shares_batch(shares, b"m", rng=rng)
        want = [scheme.verify_share(s, b"m") for s in shares]
        assert got == want == [True, True, False, True, True, True], name
    assert scheme.verify_shares_batch(honest, b"m", rng=rng) == [True] * 6


def test_a_beacon_epoch_runs_no_jacobi_symbol(monkeypatch):
    coin = WeightedCoin(G, [3, 4, 2, 1], "1/2", random.Random(2))
    calls = []
    real = group_mod._jacobi

    def counting(a, n):
        calls.append(a)
        return real(a, n)

    monkeypatch.setattr(group_mod, "_jacobi", counting)
    epoch, rng = 5, random.Random(3)
    shares = [s for party in range(4) for s in coin.shares_of_party(party, epoch, rng)]
    assert all(coin.verify_shares(shares, epoch, rng=rng))
    value = coin.coin.open(shares, epoch)
    assert value == coin.coin.open(shares[::-1], epoch)
    assert calls == []
