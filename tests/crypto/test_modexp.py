"""The Montgomery kernel against builtin ``pow``: the kernel itself on
both shipped groups' moduli and on small odd ones, every power the group
engine takes, and the beacon run end to end on the ``pow`` fallback."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.group as group_mod
import repro.crypto.modexp as modexp
from repro.crypto.common_coin import WeightedCoin
from repro.crypto.group import RFC3526_GROUP_2048, TEST_GROUP_256, GroupEngine
from repro.crypto.modexp import ModExp, mod_exp
from repro.crypto.polynomial import lagrange_coefficients_at

GROUPS = [TEST_GROUP_256, RFC3526_GROUP_2048]
IDS = ["256", "2048"]

#: ``p`` and ``q`` of both shipped groups
MODULI = {f"{name}-{side}": m for group, name in zip(GROUPS, IDS)
          for side, m in (("p", group.p), ("q", group.order))}


def _edge_bases(m):
    return (0, 1, 2, m - 1, m, m + 1, 2 * m - 1, 3 * m + 5)


def _edge_exponents(m, q):
    return (0, 1, 2, q - 1, q, q + 1, m + 1, 2 * m + 3, (1 << (m.bit_length() + 70)) - 1)


class TestKernel:
    @pytest.mark.parametrize("name", sorted(MODULI))
    def test_edge_bases_and_exponents(self, name):
        m = MODULI[name]
        kernel = mod_exp(m)
        q = (m - 1) // 2
        for b in _edge_bases(m):
            for e in _edge_exponents(m, q):
                assert kernel(b, e) == pow(b, e, m), (b, e)

    @pytest.mark.parametrize("name", sorted(MODULI))
    def test_random_operands(self, name):
        m = MODULI[name]
        kernel = mod_exp(m)
        rng = random.Random(name)
        draws = 30 if m.bit_length() <= 256 else 3
        for _ in range(draws):
            b, e = rng.randrange(2 * m), rng.randrange(2 * m)
            assert kernel(b, e) == pow(b, e, m), (b, e)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(min_value=1, max_value=1 << 90).map(lambda k: 2 * k + 1),
           b=st.integers(min_value=0, max_value=1 << 100),
           e=st.integers(min_value=0, max_value=1 << 100))
    def test_small_odd_moduli(self, m, b, e):
        assert mod_exp(m)(b, e) == pow(b, e, m)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MODULI)),
           b=st.integers(min_value=0, max_value=1 << 2100),
           e=st.integers(min_value=0, max_value=1 << 300))
    def test_shipped_moduli(self, name, b, e):
        m = MODULI[name]
        assert mod_exp(m)(b, e) == pow(b, e, m)

    @pytest.mark.parametrize("m", [-3, 0, 1, 2, 4, 1 << 64])
    def test_even_or_tiny_modulus_is_refused(self, m):
        with pytest.raises(ValueError):
            mod_exp(m)

    @pytest.mark.parametrize("path", ["kernel", "pow"])
    def test_negative_exponent_is_refused_on_both_paths(self, path, monkeypatch):
        if path == "pow":
            monkeypatch.setattr(modexp, "_libcrypto", lambda: None)
        kernel = mod_exp(TEST_GROUP_256.p)
        assert isinstance(kernel, ModExp) == (path == "kernel")
        for e in (-1, -TEST_GROUP_256.order):
            with pytest.raises(ValueError):
                kernel(2, e)


def _mapped_libcryptos():
    with open("/proc/self/maps") as maps:
        return {line.split(maxsplit=5)[5].rstrip("\n") for line in maps
                if "/libcrypto.so" in line}


class TestLibrary:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_the_library_is_the_one_hashlib_mapped(self):
        """Loading opens no second OpenSSL: the one mapped libcrypto is
        the kernel's, and it stays the only one."""
        mapped = _mapped_libcryptos()
        assert len(mapped) == 1
        assert isinstance(mod_exp(TEST_GROUP_256.p), ModExp)
        assert modexp._libcrypto()._name in mapped
        assert _mapped_libcryptos() == mapped

    @pytest.mark.parametrize("platform", ["darwin", "win32", "freebsd14", "emscripten"])
    def test_any_other_platform_takes_the_pow_path(self, platform, monkeypatch):
        monkeypatch.setattr(modexp.sys, "platform", platform)
        assert modexp._libcrypto.__wrapped__() is None


def _engine(group):
    """An engine of the test's own, so odd bases stay out of the shared one."""
    return GroupEngine(group.p, group.order, group.generator)


class TestEngine:
    @pytest.mark.parametrize("group", GROUPS, ids=IDS)
    def test_generator_root_is_the_canonical_square_root(self, group):
        p, q = group.p, group.order
        root = pow(group.generator, (p + 1) // 4, p)
        assert group.engine.generator_root == (root if root <= q else p - root)

    @pytest.mark.parametrize("group", GROUPS, ids=IDS)
    def test_edge_exponents_on_every_base(self, group):
        engine, p, q = _engine(group), group.p, group.order
        bases = (group.generator, group.hash_to_group(b"kernel-base"),
                 group.generator_root, 0, 1, p - 1)
        for base in bases:
            for e in (0, 1, 63, 64, q - 1, q, q + 1, 2 * q - 1):
                assert engine.power(base, e) == pow(base, e % q, p), (base, e)
        for e in (0, 1, q - 1, q, q + 1, 2 * q - 1):
            assert engine.generator_power(e) == pow(group.generator, e % q, p), e

    @settings(max_examples=60, deadline=None)
    @given(base=st.integers(min_value=0, max_value=1 << 300),
           exponent=st.integers(min_value=0, max_value=1 << 260))
    def test_any_power_on_the_small_group(self, base, exponent):
        G = TEST_GROUP_256
        assert G.fast_power(base, exponent) == G.power(base, exponent)
        assert G.exp_g(exponent) == G.power(G.generator, exponent)

    @pytest.mark.parametrize("group", GROUPS, ids=IDS)
    @pytest.mark.parametrize("indices", [(1, 2, 3, 4, 5, 6), (2, 9, 17, 40)],
                             ids=["contiguous", "scattered"])
    def test_lagrange_combine_over_roots(self, group, indices):
        """Share roots may have order ``2q``: the product is right up to
        sign, which the canonical root (or the square) removes."""
        p, q, canon = group.p, group.order, group.canonical_root
        rng = random.Random(repr(indices))
        roots = []  # orders 2q and q alternate
        while len(roots) < len(indices):
            r = canon(rng.randrange(2, p - 1))
            if (pow(r, q, p) != 1) == (len(roots) % 2 == 0):
                roots.append(r)
        lambdas = lagrange_coefficients_at(group.exponent_field, list(indices), 0)
        if indices[0] == 1:
            assert any((q - lam).bit_length() < 8 for lam in lambdas)  # near q
        got = group.multi_exp(list(zip(roots, lambdas)))
        naive = 1
        for r, lam in zip(roots, lambdas):
            naive = naive * pow(r, lam, p) % p
        assert canon(got) == canon(naive)
        assert got * got % p == naive * naive % p

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_multi_exp_is_the_product_of_powers(self, data):
        """Subgroup bases, exponents anywhere mod ``q`` and past it,
        signed-residue rewrites included (``q - small``)."""
        G = TEST_GROUP_256
        p, q = G.p, G.order
        exponent = st.one_of(
            st.integers(min_value=0, max_value=3 * q),
            st.integers(min_value=1, max_value=1 << 20).map(lambda k: q - k),
        )
        pairs = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=q).map(G.exp_g), exponent),
            max_size=8,
        ))
        naive = 1
        for b, e in pairs:
            naive = naive * pow(b, e, p) % p
        assert G.multi_exp(pairs) == naive


def _beacon_outputs(group):
    """Every share, batch verdict and coin value of three beacon epochs."""
    tickets = [3, 2, 2, 1, 1]
    coin = WeightedCoin(group, tickets, "1/2", random.Random("keys"))
    out = []
    for epoch in (1, 2, 3):
        rng = random.Random(epoch)
        shares = [s for party in range(len(tickets))
                  for s in coin.shares_of_party(party, epoch, rng)]
        out.append(tuple(shares))
        out.append(tuple(coin.verify_shares(shares, epoch, rng=random.Random(0))))
        out.append(coin.coin.open(shares, epoch))
    return out


def test_the_pow_fallback_gives_the_same_beacon(monkeypatch):
    G = TEST_GROUP_256
    with_kernel = _beacon_outputs(G)
    monkeypatch.setattr(modexp, "_libcrypto", lambda: None)
    monkeypatch.setattr(group_mod, "_ENGINES", {})
    monkeypatch.setattr(group_mod, "_FIELDS", {})
    assert not isinstance(G.engine.kernel, ModExp)
    assert _beacon_outputs(G) == with_kernel
