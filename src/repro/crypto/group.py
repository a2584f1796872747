"""A Schnorr group: the prime-order subgroup of ``Z_p^*`` for a safe prime.

Unique threshold signatures (paper, Sections 4.1-4.3 and 6) need a cyclic
group of prime order ``q`` with hard discrete log.  For a safe prime
``p = 2q + 1`` the quadratic residues form such a subgroup; any square
generates it.  Hash-to-group squares a hash output, landing in the
subgroup at an unknown discrete log -- exactly what BLS-style unique
signatures require.

Two groups ship by default: the RFC 3526 2048-bit MODP group (realistic
parameter sizes) and a small 256-bit group for fast tests and simulations.

Each group carries a lazily-built :class:`GroupEngine` -- the
exponentiation substrate the signing and verification call sites run on:

* **two Montgomery kernels, split by whose exponent it is**
  (:mod:`~repro.crypto.modexp`): a power whose exponent is secret (a
  share value, a nonce, a dealer's coefficient) is one constant-time
  ``BN_mod_exp_mont_consttime`` call into the process's libcrypto,
  2.4-2.7 ms for a full-width (2047-bit) exponent at 2048 bits against
  29-33 ms for builtin ``pow``, and 0.021-0.026 ms against 0.14-0.19 ms
  at 256 bits.  :meth:`GroupEngine.multi_exp` takes public exponents
  only (Lagrange and batch coefficients, challenges, responses) and
  runs them variable-time, two bases per ``BN_mod_exp2_mont`` call:
  2.5 ms for two full-width powers against 2 x 2.4 ms on the
  constant-time kernel, 0.42 against 2 x 0.37 ms at 320 bits, and
  0.015 ms for two 4-bit ones against 2 x 0.1 ms (the constant-time
  kernel pads an exponent to whole 64-bit words).  Timings are on one
  core of a shared 2-vCPU Intel Xeon VM; fixed-base squaring ladders
  and Straus interleaving written in Python took 6.1 ms per full-width
  power, so no base is special-cased;
* **signed residues** in :meth:`GroupEngine.multi_exp`: an exponent
  within half its bit length of ``q`` is rewritten as the power
  ``(q - e)`` of the inverse, so the small negative Lagrange
  coefficients of a contiguous quorum (``-15 mod q`` is 2047 bits at
  2048) cost a 4-bit power, not a full-width one.  The rewritten pairs
  are multiplied into one product and inverted once per call (0.35 ms
  at 2048 bits).  Random and scattered-quorum exponents are left as
  they are;
* **canonical roots** (:meth:`SchnorrGroup.canonical_root`,
  :meth:`SchnorrGroup.decode_root`): ``p = 2q + 1`` is ``3 (mod 4)``, so
  every subgroup element ``x`` has the two square roots ``+-r`` and
  exactly one of them lies in ``[1, q]``.  An element sent as that root
  is a member by construction: the receiver checks ``1 <= r <= q`` and
  squares.  DLEQ statements (share values, proof commitments, the bases
  ``g`` and ``H(m)``) travel this way, and the generator's powers are
  taken on its root ``g^((p+1)/4)``;
* **Jacobi-symbol membership** (:meth:`SchnorrGroup.is_member_fast`) for
  elements that arrive as themselves -- Feldman commitments and an
  untrusted DLEQ ``y1``: for a safe prime the order-``q`` subgroup is
  exactly the quadratic residues, so Euler's criterion collapses from
  one full exponentiation to a GCD-shaped symbol computation that
  strips all factors of two in one shift per step: 0.45-0.78 ms against
  2.4-2.7 ms for the kernel's ``a^q`` at 2048 bits on the same core.

:meth:`SchnorrGroup.power` and :meth:`SchnorrGroup.is_member` stay on
builtin ``pow``: they are the oracles the kernel is tested against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .field import PrimeField
from .modexp import mod_exp

__all__ = [
    "SchnorrGroup",
    "GroupEngine",
    "batch_bisect",
    "RFC3526_GROUP_2048",
    "TEST_GROUP_256",
]


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0`` (binary algorithm).

    Each step strips every factor of two from ``a`` in one shift: ``(2/n)``
    is ``-1`` exactly when ``n = 3, 5 (mod 8)``, so ``2^s`` flips the sign
    iff ``s`` is odd.  Residues are read with ``&`` -- ``a % 8`` on a
    2048-bit int walks every digit, ``a & 7`` does not.
    """
    a %= n
    result = 1
    while a:
        s = (a & -a).bit_length() - 1
        a >>= s
        if s & 1 and n & 7 in (3, 5):
            result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class GroupEngine:
    """The exponentiation engine of one Schnorr group.

    Every power is one call of :attr:`kernel`, libcrypto's Montgomery
    exponentiation for ``p`` (:func:`~repro.crypto.modexp.mod_exp`),
    and the call site says whose exponent it is: :meth:`power`,
    :meth:`generator_power` and the canonical root ``generator_root``
    take any exponent, secret ones included, on the constant-time
    kernel; :meth:`multi_exp` takes public exponents only, on the
    variable-time two-base kernel.  Obtained via
    :meth:`SchnorrGroup.engine`; one engine is shared by all equal group
    instances.
    """

    __slots__ = ("p", "order", "generator_root", "kernel")

    def __init__(self, p: int, order: int, generator: int) -> None:
        self.p = p
        self.order = order
        self.kernel = mod_exp(p)
        root = self.kernel(generator, (p + 1) // 4)
        self.generator_root = root if root <= order else p - root

    def generator_power(self, exponent: int) -> int:
        """``g^exponent``: the square of its root's power."""
        r = self.kernel(self.generator_root, exponent % self.order)
        return r * r % self.p

    def power(self, base: int, exponent: int) -> int:
        """``base^exponent`` with the exponent reduced mod ``q``.

        For a base of order ``2q`` (a canonical root may be one) the power
        is right up to sign: squaring it, or taking its canonical root,
        removes the sign.
        """
        return self.kernel(base, exponent % self.order)

    def multi_exp(self, pairs: Iterable[tuple[int, int]]) -> int:
        """``prod_i base_i^{exp_i} mod p`` over signed residues.

        **Public exponents only**: the kernel's time follows each
        exponent's length, so a secret exponent goes through
        :meth:`power`.  Exponents are reduced mod ``q`` -- bases must lie
        in the order-``q`` subgroup, or be canonical roots whose product
        the caller squares (the rewrite below changes it only in sign) --
        and that same fact lets a residue just below ``q`` be read as a
        small negative one: ``b^e == (b^(q - e))^-1``.  When ``q - e`` has
        at most half the bits of ``e`` the pair joins the rewritten ones,
        whose product is inverted once.  Lagrange coefficients of a
        contiguous index set (``6, -15, 20, -15, 6, -1`` for ``{1..6}``;
        ``-15 mod q`` is 2047 bits at 2048) then cost a few-bit power each
        instead of a full-width one; a scattered set's coefficients are
        full-width on both sides.  Each product pairs its bases in the
        order given, two per kernel call, so a caller lists exponents of
        one width together (every caller's pairs already come that way).
        """
        p, q = self.p, self.order
        direct: list[tuple[int, int]] = []
        inverted: list[tuple[int, int]] = []
        for base, exp in pairs:
            e = exp % q
            b = base % p
            if e == 0 or b == 1:
                continue
            if b == 0:
                return 0
            if (q - e).bit_length() <= e.bit_length() >> 1:
                inverted.append((b, q - e))
            else:
                direct.append((b, e))
        acc = self.kernel.product(direct)
        if inverted:
            acc = acc * pow(self.kernel.product(inverted), -1, p) % p
        return acc


#: engines shared by value-equal group instances, keyed by (p, generator)
_ENGINES: dict[tuple[int, int], GroupEngine] = {}

#: exponent fields shared by every group of one order: building one runs
#: Miller-Rabin on ``q`` (~0.044 s at 2047 bits)
_FIELDS: dict[int, PrimeField] = {}


#: chunks of at most this many items skip the aggregate and go to the oracle
_BISECT_LEAF = 2


def batch_bisect(items, aggregate_holds, oracle) -> list[bool]:
    """Per-item verdicts via aggregate-accept / bisect-on-failure.

    The shared skeleton of every random-linear-combination batch
    verifier: a chunk whose ``aggregate_holds`` check passes is accepted
    wholesale; a failing chunk is split in half (the caller's aggregate
    draws fresh randomness each call, re-randomizing every level); chunks
    of at most ``_BISECT_LEAF`` are settled by the per-item ``oracle``.
    Returns one bool per item, positionally.
    """
    results: dict[int, bool] = {}

    def resolve(chunk: list) -> None:
        if len(chunk) <= _BISECT_LEAF:
            for pos, item in chunk:
                results[pos] = oracle(item)
            return
        if aggregate_holds([item for _, item in chunk]):
            for pos, _ in chunk:
                results[pos] = True
            return
        mid = len(chunk) // 2
        resolve(chunk[:mid])
        resolve(chunk[mid:])

    if items:
        resolve(list(enumerate(items)))
    return [results[i] for i in range(len(items))]


@dataclass(frozen=True)
class SchnorrGroup:
    """Prime-order subgroup of ``Z_p^*`` with ``p = 2q + 1``.

    Attributes
    ----------
    p:
        The safe prime modulus.
    generator:
        A generator of the order-``q`` subgroup of quadratic residues.
    """

    p: int
    generator: int

    def __post_init__(self) -> None:
        if self.p % 4 != 3 or self.p < 7:
            raise ValueError("modulus must be a safe prime >= 7")
        # Euler's criterion: g^q == 1 iff (g/p) == 1 -- the Jacobi symbol
        # decides it without a full-width exponentiation at import
        if _jacobi(self.generator, self.p) != 1 or self.generator in (0, 1):
            raise ValueError("generator must generate the order-q subgroup")

    @property
    def order(self) -> int:
        """``q``: the prime order of the subgroup."""
        return (self.p - 1) // 2

    @property
    def exponent_field(self) -> PrimeField:
        """``GF(q)``: the field Shamir polynomials over this group use."""
        field = _FIELDS.get(self.order)
        if field is None:
            field = _FIELDS[self.order] = PrimeField(self.order)
        return field

    # -- engine ------------------------------------------------------------------
    @property
    def engine(self) -> GroupEngine:
        """The exponentiation engine (shared across equal groups)."""
        key = (self.p, self.generator)
        engine = _ENGINES.get(key)
        if engine is None:
            engine = _ENGINES[key] = GroupEngine(self.p, self.order, self.generator)
        return engine

    # -- group operations --------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def power(self, base: int, exponent: int) -> int:
        return pow(base, exponent % self.order, self.p)

    def fast_power(self, base: int, exponent: int) -> int:
        """``base^exponent`` on the engine's kernel; :meth:`power`'s value."""
        return self.engine.power(base, exponent)

    def multi_exp(self, pairs: Sequence[tuple[int, int]]) -> int:
        """``prod_i base_i^{exp_i}`` over signed residues, public exponents
        only (the engine's)."""
        return self.engine.multi_exp(pairs)

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def exp_g(self, exponent: int) -> int:
        """``g^exponent`` for the fixed generator (its root's square)."""
        return self.engine.generator_power(exponent)

    # -- canonical roots -----------------------------------------------------------
    @property
    def generator_root(self) -> int:
        """The canonical root of the generator, ``g^((p+1)/4)`` or its twin."""
        return self.engine.generator_root

    def canonical_root(self, r: int) -> int:
        """The one of ``+-r`` in ``[1, q]``: the canonical root of ``r^2``."""
        r %= self.p
        return r if r <= self.order else self.p - r

    def decode_root(self, r) -> int | None:
        """The element ``r^2`` a canonical root stands for, or ``None``.

        Anything but an ``int`` (``bool`` included) in ``[1, q]`` is
        refused, so each element has exactly one encoding.
        """
        if type(r) is not int or not 0 < r <= self.order:
            return None
        return r * r % self.p

    def is_member(self, a: int) -> bool:
        """Subgroup membership: ``a^q == 1`` and ``0 < a < p``."""
        return 0 < a < self.p and pow(a, self.order, self.p) == 1

    def is_member_fast(self, a: int) -> bool:
        """Subgroup membership via the Jacobi symbol.

        For a safe prime the order-``q`` subgroup is exactly the
        quadratic residues, and Euler's criterion says ``a^q == 1`` iff
        ``(a/p) == 1`` -- so the Jacobi symbol decides membership
        without a full-width exponentiation (0.45-0.78 ms against
        2.4-2.7 ms for the kernel's ``a^q`` at 2048 bits on one core of a
        shared 2-vCPU Intel Xeon VM).
        Agrees with :meth:`is_member` on every input (property-tested).
        """
        return 0 < a < self.p and _jacobi(a, self.p) == 1

    # -- hashing -----------------------------------------------------------------
    def hash_to_root(self, message: bytes) -> int:
        """The canonical root of :meth:`hash_to_group`'s element.

        ``sha256``-derived material ``u`` mod ``p``; ``u^2`` is the
        element, so its root costs nothing.
        """
        p = self.p
        counter = 0
        while True:
            digest = hashlib.sha256(message + counter.to_bytes(4, "big")).digest()
            candidate = int.from_bytes(
                hashlib.sha512(digest).digest() * ((p.bit_length() // 512) + 1),
                "big",
            ) % p
            if candidate not in (0, 1, p - 1):
                return self.canonical_root(candidate)
            counter += 1

    def hash_to_group(self, message: bytes) -> int:
        """Map ``message`` to a subgroup element of unknown discrete log.

        Squares ``sha256``-derived material mod ``p``; squares are exactly
        the order-``q`` subgroup for a safe prime.
        """
        r = self.hash_to_root(message)
        return r * r % self.p

    def hash_to_exponent(self, *parts: bytes) -> int:
        """Fiat-Shamir challenge: hash transcript parts into ``GF(q)``."""
        h = hashlib.sha256()
        for part in parts:
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
        return int.from_bytes(h.digest(), "big") % self.order

    def random_exponent(self, rng) -> int:
        """Uniform exponent in ``[0, q)``."""
        return rng.randrange(self.order)

    def encode_int(self, a: int) -> bytes:
        """Fixed-width big-endian encoding for transcripts."""
        width = (self.p.bit_length() + 7) // 8
        return a.to_bytes(width, "big")


#: RFC 3526, group 14 (2048-bit MODP).  p is a safe prime with
#: p = 7 (mod 8), so 2 is a quadratic residue and already has order q;
#: the generator is 4 = 2^2, a square and hence of order q as well.
_RFC3526_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)

RFC3526_GROUP_2048 = SchnorrGroup(p=_RFC3526_P, generator=4)

#: A 256-bit safe prime group for tests and simulation speed:
#: p = 2q + 1 with both p and q prime (verified at import via PrimeField
#: in exponent_field and the SchnorrGroup invariant).
_TEST_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
TEST_GROUP_256 = SchnorrGroup(p=_TEST_P, generator=4)
