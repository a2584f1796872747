"""Which kernel each exponent reaches, and how much work a public product
does.

Secret exponents (share values, nonces, a dealer's coefficients) must
only ever run on the constant-time kernel: with the public entry points
patched to raise, dealing, signing and the shareholder's side of a share
check must still complete.  Public products are counted on a recording
kernel: a contiguous quorum's combine and a six-share DLEQ aggregate
make the exact number of two-base calls the pairing promises, no
constant-time call and at most one inverse.
"""

import builtins
import math
import random

import pytest

import repro.crypto.dleq as dleq_mod
import repro.crypto.group as group_mod
from repro.crypto.common_coin import WeightedCoin
from repro.crypto.dleq import prove_dleq
from repro.crypto.feldman import FeldmanVSS
from repro.crypto.group import RFC3526_GROUP_2048, TEST_GROUP_256, GroupEngine
from repro.crypto.modexp import ModExp, PowExp, mod_exp
from repro.crypto.polynomial import lagrange_coefficients_at
from repro.crypto.threshold_sig import ThresholdSignatureScheme

G = TEST_GROUP_256

needs_libcrypto = pytest.mark.skipif(
    not isinstance(mod_exp(G.p), ModExp), reason="no libcrypto kernel in this process"
)

CONSTTIME = "BN_mod_exp_mont_consttime"
EXP2 = "BN_mod_exp2_mont"
EXP1 = "BN_mod_exp_mont"


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every libcrypto exponentiation, as ``(function name, exponent bit
    lengths)``."""
    calls = []
    real = ModExp._exp

    def recording(self, fn, pairs):
        calls.append((fn.__name__, tuple(e.bit_length() for _, e in pairs)))
        return real(self, fn, pairs)

    monkeypatch.setattr(ModExp, "_exp", recording)
    return calls


@pytest.fixture
def inverses(monkeypatch):
    """Every modular inverse the group engine takes."""
    taken = []

    def counting_pow(base, exponent, modulus=None):
        if exponent == -1:
            taken.append(base)
        return builtins.pow(base, exponent, modulus)

    monkeypatch.setattr(group_mod, "pow", counting_pow, raising=False)
    return taken


class TestSecretExponents:
    """``multi_exp`` takes public exponents only: nothing that handles a
    secret may reach it."""

    @pytest.fixture(autouse=True)
    def no_public_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a secret exponent reached the variable-time path")

        monkeypatch.setattr(GroupEngine, "multi_exp", refuse)
        monkeypatch.setattr(ModExp, "product", refuse)
        monkeypatch.setattr(PowExp, "product", refuse)

    def test_keygen_and_signing(self):
        scheme = ThresholdSignatureScheme(G, 5, 3)
        dealing = scheme.keygen(random.Random("keys"))
        share = scheme.sign_share(dealing.shares[0], b"msg", random.Random("sign"))
        assert share.index == 1

    def test_prove_dleq(self):
        h = G.hash_to_root(b"second base")
        y1, y2, proof = prove_dleq(G, 12345, G.generator_root, h, random.Random(1))
        assert y1 == G.exp_g(12345) and proof.commit1 is not None

    def test_deal_and_the_shareholders_side_of_a_check(self):
        """``verify_share`` is ``exp_g(value) == expected_share_commitment``:
        the left side carries the secret and must run here; it must equal
        ``prod_j C_j^{i^j}``, taken with ``pow`` (the right side only
        carries the index)."""
        dealing = FeldmanVSS(G, 6, 4).deal(None, random.Random("deal"))
        for share in dealing.shares:
            expected = math.prod(
                pow(c, share.index**j, G.p) for j, c in enumerate(dealing.commitment.values)
            ) % G.p
            assert G.exp_g(share.value) == expected, share.index

    def test_a_weighted_coin_signs_every_ticket(self):
        coin = WeightedCoin(G, [3, 2, 1], "1/2", random.Random("coin"))
        shares = coin.shares_of_party(0, 7, random.Random("epoch"))
        assert [s.index for s in shares] == [1, 2, 3]

    @needs_libcrypto
    def test_only_the_constant_time_kernel_runs(self, kernel_calls):
        coin = WeightedCoin(G, [2, 1], "1/2", random.Random("coin"))
        coin.shares_of_party(1, 3, random.Random("epoch"))
        FeldmanVSS(G, 4, 2).deal(7, random.Random("deal"))
        assert kernel_calls and {name for name, _ in kernel_calls} == {CONSTTIME}


@needs_libcrypto
class TestWorkCount:
    """Tripwire on the public products' kernel calls at 2048 bits."""

    GROUP = RFC3526_GROUP_2048

    @pytest.fixture(scope="class")
    def signed(self):
        scheme = ThresholdSignatureScheme(self.GROUP, 6, 6)
        dealing = scheme.keygen(random.Random("work|keys"))
        rng = random.Random("work|sign")
        shares = [scheme.sign_share(s, b"epoch", rng) for s in dealing.shares]
        return scheme, shares

    def test_contiguous_combine_is_short_paired_calls_and_one_inverse(
        self, signed, kernel_calls, inverses
    ):
        scheme, shares = signed
        q = self.GROUP.order
        lambdas = lagrange_coefficients_at(scheme.field, [1, 2, 3, 4, 5, 6], 0)
        pos = sum(lam.bit_length() < 64 for lam in lambdas)
        neg = sum((q - lam).bit_length() < 64 for lam in lambdas)
        assert (pos, neg) == (3, 3)  # 6, 20, 6 and -15, -15, -1
        scheme.combine(shares, b"epoch", verify=False)
        assert len(kernel_calls) == math.ceil(pos / 2) + math.ceil(neg / 2)
        assert {name for name, _ in kernel_calls} <= {EXP2, EXP1}
        assert max(max(widths) for _, widths in kernel_calls) <= 5
        assert len(inverses) <= 1

    def test_six_share_aggregate_is_thirteen_paired_calls(
        self, signed, kernel_calls, inverses, monkeypatch
    ):
        scheme, shares = signed

        def no_oracle(*args):
            raise AssertionError("an honest batch reached the per-proof oracle")

        monkeypatch.setattr(dleq_mod, "verify_dleq", no_oracle)
        assert scheme.verify_shares_batch(shares, b"epoch") == [True] * 6
        # 12 64-bit pairs on the left, 12 320-bit ``z c`` pairs and the two
        # bases' full-width ones on the right
        assert [name for name, _ in kernel_calls] == [EXP2] * (6 + 7)
        full = [widths for _, widths in kernel_calls if max(widths) > 1024]
        assert len(full) == 1 and min(full[0]) > 1024
        assert inverses == []
