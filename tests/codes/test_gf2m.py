"""Tests for GF(2^w) arithmetic and polynomial helpers."""

import random

import pytest
import translate_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.gf2m import GF256, GF65536, GF2m


class TestConstruction:
    def test_rejects_nonprimitive_poly(self):
        # Tables build lazily, so the primitivity error surfaces on
        # first arithmetic use rather than at construction.
        bogus = GF2m(8, 0x100)  # x^8: not primitive
        with pytest.raises(ValueError):
            bogus.mul(2, 3)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            GF2m(1, 0x3)
        with pytest.raises(ValueError):
            GF2m(17, 0x3)

    def test_table_sizes(self):
        assert len(GF256.log) == 256
        assert GF65536.size == 65536

    def test_tables_lazy(self):
        # Importing the package must not pay for the ~196k GF(2^16)
        # table entries; a fresh field only materializes them on use.
        fresh = GF2m(16, 0x1100B)
        assert not fresh.tables_built
        assert fresh.mul(0x1234, 0x5678) == fresh.mul(0x5678, 0x1234)
        assert fresh.tables_built


class TestTranslateOracle:
    """The translate kernel ``test_block_kernel.py`` holds the plane
    kernel to is itself held to scalar multiplication here."""

    def test_scale_block_matches_scalar_gf256(self):
        rng = random.Random(10)
        block = rng.randbytes(97)
        for s in (0, 1, 2, 7, 0x53, 255):
            expect = bytes(GF256.mul(s, v) for v in block)
            assert translate_oracle.scale_block(GF256, s, block) == expect

    def test_scale_block_matches_scalar_gf65536(self):
        rng = random.Random(11)
        symbols = [rng.randrange(65536) for _ in range(41)]
        block = translate_oracle.symbols_to_block(GF65536, symbols)
        for s in (0, 1, 2, 0x100, 0xBEEF, 65535):
            expect = translate_oracle.symbols_to_block(
                GF65536, [GF65536.mul(s, v) for v in symbols]
            )
            assert translate_oracle.scale_block(GF65536, s, block) == expect

    def test_scale_block_empty(self):
        assert translate_oracle.scale_block(GF256, 7, b"") == b""

    def test_xor_blocks(self):
        a, b = bytes(range(50)), bytes(reversed(range(50)))
        assert translate_oracle.xor_blocks(a, b) == bytes(
            x ^ y for x, y in zip(a, b)
        )
        with pytest.raises(ValueError):
            translate_oracle.xor_blocks(b"\x00", b"\x00\x00")

    def test_symbol_block_roundtrip(self):
        rng = random.Random(12)
        for field in (GF256, GF65536):
            symbols = [rng.randrange(field.size) for _ in range(24)]
            assert field.block_to_symbols(field.symbols_to_block(symbols)) == symbols
            packed = translate_oracle.symbols_to_block(field, symbols)
            assert translate_oracle.block_to_symbols(field, packed) == symbols


class TestArithmetic:
    def test_add_is_xor(self):
        assert GF256.add(0x53, 0xCA) == 0x53 ^ 0xCA
        assert GF256.sub(0x53, 0xCA) == 0x53 ^ 0xCA

    def test_mul_identity_and_zero(self):
        for a in (1, 7, 200, 255):
            assert GF256.mul(a, 1) == a
            assert GF256.mul(a, 0) == 0

    def test_known_aes_product(self):
        # 0x53 * 0xCA == 0x01 in GF(2^8) with poly 0x11B... our poly is
        # 0x11D, so verify against the log tables instead.
        a, b = 0x53, 0xCA
        expected = GF256.exp[(GF256.log[a] + GF256.log[b]) % 255]
        assert GF256.mul(a, b) == expected

    def test_inverse_all_elements(self):
        for a in range(1, 256):
            assert GF256.mul(a, GF256.inv(a)) == 1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_div_roundtrip(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b = rng.randrange(256), rng.randrange(1, 256)
            assert GF256.mul(GF256.div(a, b), b) == a

    def test_pow(self):
        assert GF256.pow(2, 0) == 1
        assert GF256.pow(2, 1) == 2
        assert GF256.pow(0, 5) == 0
        assert GF256.pow(0, 0) == 1
        # Fermat: a^(2^8 - 1) == 1
        for a in (3, 99, 255):
            assert GF256.pow(a, 255) == 1

    def test_element_at_distinct(self):
        points = [GF256.element_at(i) for i in range(255)]
        assert len(set(points)) == 255
        assert 0 not in points

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        c=st.integers(min_value=0, max_value=255),
    )
    def test_field_axioms(self, a, b, c):
        f = GF256
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


class TestPolynomials:
    def test_eval_constant(self):
        assert GF256.poly_eval([7], 100) == 7
        assert GF256.poly_eval([], 100) == 0

    def test_eval_linear(self):
        # p(x) = 3 + 2x at x=5: 3 ^ mul(2,5)
        assert GF256.poly_eval([3, 2], 5) == 3 ^ GF256.mul(2, 5)

    def test_add_cancels(self):
        assert GF256.poly_add([1, 2, 3], [1, 2, 3]) == []

    def test_mul_degree(self):
        p = GF256.poly_mul([1, 1], [1, 1])  # (1+x)^2 = 1 + x^2 in char 2
        assert p == [1, 0, 1]

    def test_divmod_exact(self):
        a = GF256.poly_mul([3, 1], [5, 7, 1])
        q, r = GF256.poly_divmod(a, [3, 1])
        assert r == []
        assert q == [5, 7, 1]

    def test_divmod_remainder(self):
        num = [1, 0, 0, 1]  # 1 + x^3
        den = [1, 1]  # 1 + x
        q, r = GF256.poly_divmod(num, den)
        # verify num = q*den + r
        recon = GF256.poly_add(GF256.poly_mul(q, den), r)
        assert recon == [c for c in num]

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF256.poly_divmod([1], [])

    def test_deriv_char2(self):
        # d/dx (a + bx + cx^2 + dx^3) = b + dx^2 (even terms vanish)
        assert GF256.poly_deriv([9, 7, 5, 3]) == [7, 0, 3]

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.integers(min_value=0, max_value=255), max_size=6),
        b=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4),
    )
    def test_property_divmod_identity(self, a, b):
        if not any(b):
            return
        q, r = GF256.poly_divmod(a, b)
        recon = GF256.poly_add(GF256.poly_mul(q, b), r)
        trimmed = list(a)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert recon == trimmed
