"""A Schnorr group: the prime-order subgroup of ``Z_p^*`` for a safe prime.

Unique threshold signatures (paper, Sections 4.1-4.3 and 6) need a cyclic
group of prime order ``q`` with hard discrete log.  For a safe prime
``p = 2q + 1`` the quadratic residues form such a subgroup; any square
generates it.  Hash-to-group squares a hash output, landing in the
subgroup at an unknown discrete log -- exactly what BLS-style unique
signatures require.

Two groups ship by default: the RFC 3526 2048-bit MODP group (realistic
parameter sizes) and a small 256-bit group for fast tests and simulations.

Each group carries a lazily-built :class:`GroupEngine` -- the batched
exponentiation substrate the verification-heavy call sites run on:

* **fixed-base squaring ladders** for every base that goes through
  :meth:`GroupEngine.power` (the roots of the generator and of
  ``H(m)``): the first use stores ``base^(2^(w*j))`` for every base-``2^w``
  digit position -- the squarings of one exponentiation, 20 ms against
  24 ms for a native ``pow`` at 2048 bits on one Intel Xeon core --
  and every exponent is then Yao's bucket method over those rungs,
  ~``bits/w + 2^(w+1)`` multiplications and no squarings (4.9 ms).
  ``w`` is :func:`_straus_window` of the exponent width, 6 at 2047 bits
  and 4 at 255.  The ladder replaced a promote-after-four-uses window
  table of ``base^(d << w*j)`` whose w=5 build alone took 163 ms and
  3.9 MB (5.5 ms per exponent), against 0.1 MB for a ladder;
* **simultaneous multi-exponentiation** (Straus interleaving) for
  products ``prod_i b_i^{e_i}`` -- one shared squaring chain for the
  whole product, which is what batch DLEQ verification and
  Lagrange-in-the-exponent share combines reduce to.  Exponents are
  *signed residues*: one within half its bit length of ``q`` is
  rewritten as ``(b^-1)^(q - e)``, so the small negative Lagrange
  coefficients of a contiguous quorum (``-15 mod q`` is 2047 bits at
  2048) no longer force a full-width squaring chain.  It pays only when
  every exponent is small on one side or the other; random and
  scattered-quorum exponents are left as they are;
* **canonical roots** (:meth:`SchnorrGroup.canonical_root`,
  :meth:`SchnorrGroup.decode_root`): ``p = 2q + 1`` is ``3 (mod 4)``, so
  every subgroup element ``x`` has the two square roots ``+-r`` and
  exactly one of them lies in ``[1, q]``.  An element sent as that root
  is a member by construction: the receiver checks ``1 <= r <= q`` and
  squares.  DLEQ statements (share values, proof commitments, the bases
  ``g`` and ``H(m)``) travel this way, and the generator's ladder is
  built on its root ``g^((p+1)/4)``;
* **Jacobi-symbol membership** (:meth:`SchnorrGroup.is_member_fast`) for
  elements that arrive as themselves -- Feldman commitments and an
  untrusted DLEQ ``y1``: for a safe prime the order-``q`` subgroup is
  exactly the quadratic residues, so Euler's criterion collapses from
  one full exponentiation to a GCD-shaped symbol computation that
  strips all factors of two in one shift per step: 0.38 ms against
  25 ms for ``pow(a, q, p)`` at 2048 bits on one Intel Xeon core.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .field import PrimeField

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


def _straus_window(max_bits: int) -> int:
    """Window width minimizing per-base work ``2^w - 2 + ceil(bits/w)``."""
    best_w, best_cost = 1, None
    for w in range(1, 9):
        cost = (1 << w) - 2 + -(-max_bits // w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


class _Ladder:
    """The squaring ladder ``rungs[j] = base^(2^(w*j)) mod p`` of one base.

    Building it is the squaring chain of one full-width exponentiation,
    stopping every ``w`` squarings to keep the rung.  An exponent with
    base-``2^w`` digits ``d_j`` is then ``prod_j rungs[j]^d_j``, evaluated
    by Yao's method: multiply each rung into the bucket of its digit, and
    sweep the buckets from ``2^w - 1`` down keeping a running product --
    bucket ``d`` is in that product ``d`` times.  That is ``~bits/w``
    multiplications to fill the buckets and ``2 (2^w - 1)`` to sweep, no
    squarings; ``w`` is :func:`_straus_window`, whose cost shape it is.
    """

    __slots__ = ("p", "window", "rungs")

    def __init__(self, base: int, p: int, exponent_bits: int) -> None:
        self.p = p
        self.window = w = _straus_window(exponent_bits)
        b = base % p
        rungs = [b]
        for _ in range(-(-exponent_bits // w) - 1):
            b = pow(b, 1 << w, p)
            rungs.append(b)
        self.rungs = rungs

    def power(self, exponent: int) -> int:
        """``base^exponent`` for ``0 <= exponent < 2^exponent_bits``."""
        p, w = self.p, self.window
        mask = (1 << w) - 1
        buckets: list[int | None] = [None] * (mask + 1)
        for rung in self.rungs:
            if not exponent:
                break
            d = exponent & mask
            if d:
                held = buckets[d]
                buckets[d] = rung if held is None else held * rung % p
            exponent >>= w
        acc = run = None
        for d in range(mask, 0, -1):
            held = buckets[d]
            if held is not None:
                run = held if run is None else run * held % p
            if run is not None:
                acc = run if acc is None else acc * run % p
        return 1 if acc is None else acc


#: at most this many ladders of non-generator bases are kept per engine
#: (LRU eviction); the generator's ladder is held apart
_MAX_TABLES = 6


class GroupEngine:
    """Batched exponentiation engine for one Schnorr group.

    Every base that goes through :meth:`power` or :meth:`generator_power`
    gets a squaring :class:`_Ladder` on first use -- about one native
    ``pow`` of work, so even a base used once costs little more -- and
    keeps it: the generator's, built on its canonical root
    ``generator_root``, is never evicted; the others sit in an LRU of
    :data:`_MAX_TABLES` (the root of ``H(m)`` for the epoch being
    signed).  The engine also runs the Straus simultaneous
    multi-exponentiation loop.  Obtained via :meth:`SchnorrGroup.engine`;
    one engine is shared by all equal group instances.
    """

    __slots__ = ("p", "order", "generator_root", "_gen_ladder", "_ladders")

    def __init__(self, p: int, order: int, generator: int) -> None:
        self.p = p
        self.order = order
        root = pow(generator, (p + 1) // 4, p)
        self.generator_root = root if root <= order else p - root
        self._gen_ladder: _Ladder | None = None
        self._ladders: dict[int, _Ladder] = {}

    # -- fixed-base paths --------------------------------------------------------
    def _root_power(self, exponent: int) -> int:
        """``generator_root^exponent``, up to sign, through its ladder."""
        if self._gen_ladder is None:
            self._gen_ladder = _Ladder(self.generator_root, self.p, self.order.bit_length())
        return self._gen_ladder.power(exponent % self.order)

    def generator_power(self, exponent: int) -> int:
        """``g^exponent``: the square of its root's power."""
        r = self._root_power(exponent)
        return r * r % self.p

    def power(self, base: int, exponent: int) -> int:
        """``base^exponent`` through ``base``'s ladder, built on first use.

        The exponent is reduced mod ``q``, so for a base of order ``2q``
        (a canonical root may be one) the power is right up to sign:
        squaring it, or taking its canonical root, removes the sign.
        """
        b = base % self.p
        if b == self.generator_root:
            return self._root_power(exponent)
        ladder = self._ladders.pop(b, None)
        if ladder is None:
            if len(self._ladders) >= _MAX_TABLES:
                del self._ladders[next(iter(self._ladders))]
            ladder = _Ladder(b, self.p, self.order.bit_length())
        self._ladders[b] = ladder  # dicts keep insertion order: LRU last
        return ladder.power(exponent % self.order)

    # -- simultaneous multi-exponentiation ---------------------------------------
    def multi_exp(self, pairs: Iterable[tuple[int, int]]) -> int:
        """``prod_i base_i^{exp_i} mod p`` via signed-residue Straus.

        All bases share one squaring chain: the cost is ``max_bits``
        squarings plus ``2^w - 2 + max_bits/w`` multiplications *per
        base*, instead of ``max_bits`` squarings per base for independent
        ``pow`` calls.  Exponents are reduced mod ``q`` -- bases must lie
        in the order-``q`` subgroup, or be canonical roots whose product
        the caller squares (the rewrites below change it only in sign) --
        and that same fact lets a residue just below ``q`` be read as a
        small negative one: ``b^e == (b^-1)^(q - e)``.  When ``q - e`` has at
        most half the bits of ``e`` the pair is rewritten at the price of
        one modular inverse, so ``max_bits`` is set by the short side.
        Lagrange coefficients of a contiguous index set (``6, -15, 20,
        -15, 6, -1`` for ``{1..6}``) then cost a few squarings instead of
        a full-width chain; a scattered set's coefficients are full-width
        fractions on both sides and keep the full-width chain.
        """
        p, q = self.p, self.order
        items: list[tuple[int, int]] = []
        for base, exp in pairs:
            e = exp % q
            b = base % p
            if e == 0 or b == 1:
                continue
            if b == 0:
                return 0
            if (q - e).bit_length() <= e.bit_length() >> 1:
                b, e = pow(b, -1, p), q - e
            items.append((b, e))
        if not items:
            return 1 % p
        max_bits = max(e.bit_length() for _, e in items)
        w = _straus_window(max_bits)
        size = 1 << w
        mask = size - 1
        tables: list[list[int]] = []
        for b, _ in items:
            row = [1] * size
            row[1] = b
            for d in range(2, size):
                row[d] = row[d - 1] * b % p
            tables.append(row)
        acc = 1
        for j in range(-(-max_bits // w) - 1, -1, -1):
            if acc != 1:
                for _ in range(w):
                    acc = acc * acc % p
            shift = j * w
            for (b, e), row in zip(items, tables):
                d = (e >> shift) & mask
                if d:
                    acc = acc * row[d] % p
        return acc


#: engines shared by value-equal group instances, keyed by (p, generator)
_ENGINES: dict[tuple[int, int], GroupEngine] = {}

#: exponent fields shared by every group of one order: building one runs
#: Miller-Rabin on ``q`` (~0.35 s at 2047 bits)
_FIELDS: dict[int, PrimeField] = {}


def batch_bisect(items, aggregate_holds, oracle, *, leaf_size: int = 2) -> list[bool]:
    """Per-item verdicts via aggregate-accept / bisect-on-failure.

    The shared skeleton of every random-linear-combination batch
    verifier: a chunk whose ``aggregate_holds`` check passes is accepted
    wholesale; a failing chunk is split in half (the caller's aggregate
    draws fresh randomness each call, re-randomizing every level); chunks
    of at most ``leaf_size`` are settled by the per-item ``oracle``.
    Returns one bool per item, positionally.
    """
    results: dict[int, bool] = {}

    def resolve(chunk: list) -> None:
        if len(chunk) <= leaf_size:
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
        """The batched exponentiation engine (shared across equal groups)."""
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
        """``base^exponent`` through the engine's squaring ladders.

        Identical values to :meth:`power` (property-tested); a base's
        ladder is built on its first use and kept while it recurs.
        """
        return self.engine.power(base, exponent)

    def multi_exp(self, pairs: Sequence[tuple[int, int]]) -> int:
        """``prod_i base_i^{exp_i}`` as one Straus interleaved product."""
        return self.engine.multi_exp(pairs)

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def exp_g(self, exponent: int) -> int:
        """``g^exponent`` for the fixed generator (its root's ladder)."""
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
        without a full-width exponentiation (0.38 ms against 25 ms for
        ``pow(a, q, p)`` at 2048 bits on one Intel Xeon core).
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
