"""Chaum-Pedersen DLEQ proofs (non-interactive via Fiat-Shamir).

A DLEQ proof convinces a verifier that two group elements share the same
discrete logarithm: ``y1 = g1^x`` and ``y2 = g2^x``.  Threshold-signature
and threshold-decryption shares attach one so that anybody can check a
share against the signer's public key share *without pairings* -- this is
what makes our BLS-style unique threshold signatures publicly verifiable
in the offline environment (DESIGN.md, substitution 2).

Two verification paths ship:

* :func:`verify_dleq` -- the per-proof **correctness oracle**: recompute
  the Sigma-protocol commitments from ``(challenge, response)`` and
  re-derive the Fiat-Shamir challenge.  Hardened against malformed
  Byzantine inputs (exponent range checks, identity-base rejection).
* :func:`verify_dleq_batch` -- N proofs sharing the base pair
  ``(g1, g2)`` checked with one small-exponent random-linear-combination
  aggregate: two multi-exponentiations and two fixed-base powers for
  the whole batch instead of four full-width exponentiations per proof.
  An aggregate failure bisects down to the oracle, pinpointing the bad
  proofs while the rest still verify in aggregate.

Batching needs the commitments ``(a1, a2) = (g1^w, g2^w)`` on the wire
(the challenge-only form forces the per-proof hash round-trip), so
:class:`DleqProof` carries them; proofs without commitments fall back to
the oracle inside the batch path.

What travels: the bases ``g1``, ``g2``, the second element ``y2`` and both
commitments are given by their *canonical roots* -- the square root in
``[1, q]`` (:meth:`~repro.crypto.group.SchnorrGroup.decode_root`).  A
root in range stands for a subgroup member by construction, so the
verifiers square it instead of testing membership, and its twin
``p - r`` is refused, leaving each element one encoding.  ``y1`` (a
dealer-published key share) stays an element; an untrusted one still
pays the Jacobi symbol.  The Fiat-Shamir transcript hashes the squared
elements, so challenges and responses are those of the element form.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .group import SchnorrGroup, batch_bisect

__all__ = [
    "DleqProof",
    "prove_dleq",
    "verify_dleq",
    "verify_dleq_batch",
    "verify_indexed_dleq_batch",
]

#: bit width of the random batching exponents; a bad proof survives one
#: aggregate with probability ~2^-64 (and the bisection re-randomizes)
_BATCH_EXP_BITS = 64


@dataclass(frozen=True)
class DleqProof:
    """A non-interactive equality-of-discrete-log proof.

    ``(challenge, response)`` is the compressed Schnorr form the oracle
    verifies; ``commit1``/``commit2`` are the canonical roots of the
    Sigma commitments ``(g1^w, g2^w)`` that make the proof
    batch-verifiable.  Proofs produced before the batch engine (or
    stripped in transit) carry ``None`` there and verify per-proof only.
    """

    challenge: int
    response: int
    commit1: int | None = None
    commit2: int | None = None


def _well_typed(y1, y2, proof) -> bool:
    """Are ``y1``, ``y2`` ints and ``proof`` a :class:`DleqProof` of ints
    (commitments may be ``None``)?  The verifiers are public entry points:
    their callers pass statements no ``Party.receive`` has checked."""
    return (
        isinstance(proof, DleqProof)
        and all(isinstance(v, int) for v in (y1, y2, proof.challenge, proof.response))
        and all(v is None or isinstance(v, int) for v in (proof.commit1, proof.commit2))
    )


def _challenge(
    group: SchnorrGroup, g1: int, y1: int, g2: int, y2: int, a1: int, a2: int
) -> int:
    enc = group.encode_int
    return group.hash_to_exponent(
        enc(g1), enc(y1), enc(g2), enc(y2), enc(a1), enc(a2)
    )


def _root_challenge(
    group: SchnorrGroup, g1: int, y1: int, g2: int, y2: int, a1: int, a2: int
) -> int:
    """:func:`_challenge` of a root-form statement: the elements the
    roots ``g1, g2, y2, a1, a2`` stand for, and ``y1`` as it is."""
    p = group.p
    return _challenge(group, g1**2 % p, y1, g2**2 % p, y2**2 % p, a1**2 % p, a2**2 % p)


def prove_dleq(
    group: SchnorrGroup, x: int, g1: int, g2: int, rng, *, y1: int | None = None
) -> tuple[int, int, DleqProof]:
    """Prove knowledge of ``x`` with ``y1 = g1^x`` and ``y2 = g2^x``.

    ``g1`` and ``g2`` are canonical roots of the bases.  Returns ``(y1,
    y2, proof)``: ``y1`` an element, ``y2`` and the commitments canonical
    roots -- the root of ``g^x`` is ``canon(root(g)^x)``, so they cost no
    extra exponentiation.  Exponentiations run on the engine's kernel.
    A signer whose ``g1^x`` is already published (a threshold key
    share) passes it as ``y1`` and skips recomputing it; the proof is
    the same.
    """
    p, canon = group.p, group.canonical_root
    if y1 is None:
        y1 = group.fast_power(g1, x) ** 2 % p
    y2 = canon(group.fast_power(g2, x))
    w = group.random_exponent(rng)
    a1 = canon(group.fast_power(g1, w))
    a2 = canon(group.fast_power(g2, w))
    c = _root_challenge(group, g1, y1, g2, y2, a1, a2)
    r = (w - c * x) % group.order
    return y1, y2, DleqProof(challenge=c, response=r, commit1=a1, commit2=a2)


def verify_dleq(
    group: SchnorrGroup, g1: int, y1: int, g2: int, y2: int, proof: DleqProof
) -> bool:
    """Verify a :class:`DleqProof` for the statement ``log_g1 y1 == log_g2 y2``.

    ``g1``, ``g2`` and ``y2`` are canonical roots, ``y1`` an element.
    Malformed Byzantine proofs are rejected up front instead of passing
    through modular reduction: the response and challenge must already
    lie in the exponent range ``[0, q)`` (otherwise ``r + q`` would be a
    distinct valid encoding of the same proof), every root must lie in
    ``[1, q]``, and the bases must not be the identity.  A statement or
    proof of the wrong types is rejected, not raised on.
    """
    p, q = group.p, group.order
    if not _well_typed(y1, y2, proof):
        return False
    if not (0 <= proof.response < q and 0 <= proof.challenge < q):
        return False
    h1, h2, v2 = group.decode_root(g1), group.decode_root(g2), group.decode_root(y2)
    if h1 in (None, 1) or h2 in (None, 1) or v2 is None or not group.is_member(y1):
        return False
    a1 = group.power(h1, proof.response) * group.power(y1, proof.challenge) % p
    a2 = group.power(h2, proof.response) * group.power(v2, proof.challenge) % p
    if proof.commit1 is not None and (
        group.decode_root(proof.commit1) != a1 or group.decode_root(proof.commit2) != a2
    ):
        # Commitments, when present, must be the recomputed values --
        # otherwise the compressed and the batch form would disagree.
        return False
    return _challenge(group, h1, y1, h2, v2, a1, a2) == proof.challenge


def verify_dleq_batch(
    group: SchnorrGroup,
    g1: int,
    g2: int,
    statements: Sequence[tuple[int, int, DleqProof]],
    *,
    rng=None,
    assume_y1_member: bool = False,
) -> list[bool]:
    """Batch-verify DLEQ proofs sharing the base pair ``(g1, g2)``.

    ``statements`` is a sequence of ``(y1, y2, proof)``, in the root form
    :func:`verify_dleq` takes.  Returns one bool per statement, equal to
    what :func:`verify_dleq` would return (up to the ~2^-64 soundness
    error of the random linear combination).

    The happy path costs two multi-exponentiations and two fixed-base
    powers for the whole batch: with random ``z_i, z'_i`` of
    :data:`_BATCH_EXP_BITS` bits,

    ``prod_i a1_i^{z_i} a2_i^{z'_i}  ==
    g1^{sum z_i r_i} g2^{sum z'_i r_i} prod_i y1_i^{z_i c_i} y2_i^{z'_i c_i}``

    holds for honest proofs by substituting ``a = g^r y^c``; a cheat in
    any position breaks the equation except with negligible probability
    over the ``z``.  Per-statement work is limited to the Fiat-Shamir
    hash and squaring three roots.  The fixed-base side is taken on the
    roots: ``g1^{r1} g2^{r2} = (root(g1)^{r1} root(g2)^{r2})^2``.
    When the aggregate fails, the batch is bisected (re-randomizing each
    level) and the leaves are settled by the per-proof oracle -- one
    corrupted share in a batch of 64 costs ~log2(64) extra aggregates,
    and the remaining 63 still verify in aggregate.

    ``assume_y1_member`` skips the Jacobi-symbol membership check on the
    ``y1`` side for callers whose first elements are trusted
    (dealer-published public key shares); ``rng`` defaults to a system
    RNG -- verifier randomness never needs to be reproducible.
    """
    n = len(statements)
    if n == 0:
        return []
    p, q = group.p, group.order
    results: list[bool | None] = [None] * n
    h1, h2 = group.decode_root(g1), group.decode_root(g2)
    if h1 in (None, 1) or h2 in (None, 1):
        return [False] * n
    if rng is None:
        rng = _random.SystemRandom()

    root = group.decode_root
    items: list[tuple[int, int, int, int, int, int, int]] = []
    for i, (y1, y2, proof) in enumerate(statements):
        if not _well_typed(y1, y2, proof):
            results[i] = False
            continue
        if proof.commit1 is None or proof.commit2 is None:
            results[i] = verify_dleq(group, g1, y1, g2, y2, proof)
            continue
        c, r = proof.challenge, proof.response
        if not (0 <= r < q and 0 <= c < q):
            results[i] = False
            continue
        # Decoding first: it bounds every element to ``0 < v < p``
        # before the transcript encodes it at fixed width.
        v2, a1, a2 = root(y2), root(proof.commit1), root(proof.commit2)
        if v2 is None or a1 is None or a2 is None:
            results[i] = False
            continue
        if not assume_y1_member and not group.is_member_fast(y1):
            results[i] = False
            continue
        if _challenge(group, h1, y1, h2, v2, a1, a2) != c:
            results[i] = False
            continue
        items.append((i, y1 % p, v2, c, r, a1, a2))

    def aggregate_holds(chunk: list[tuple[int, int, int, int, int, int, int]]) -> bool:
        lhs_pairs: list[tuple[int, int]] = []
        rhs_pairs: list[tuple[int, int]] = []
        r1 = r2 = 0
        for _, y1, y2, c, r, a1, a2 in chunk:
            z = rng.getrandbits(_BATCH_EXP_BITS) | 1
            zp = rng.getrandbits(_BATCH_EXP_BITS) | 1
            lhs_pairs.append((a1, z))
            lhs_pairs.append((a2, zp))
            rhs_pairs.append((y1, z * c))
            rhs_pairs.append((y2, zp * c))
            r1 += z * r
            r2 += zp * r
        lhs = group.multi_exp(lhs_pairs)
        fixed = group.fast_power(g1, r1 % q) * group.fast_power(g2, r2 % q) % p
        rhs = fixed * fixed % p * group.multi_exp(rhs_pairs) % p
        return lhs == rhs

    def oracle(item: tuple[int, int, int, int, int, int, int]) -> bool:
        y1, y2, proof = statements[item[0]]
        return verify_dleq(group, g1, y1, g2, y2, proof)

    for item, ok in zip(items, batch_bisect(items, aggregate_holds, oracle)):
        results[item[0]] = ok
    return [bool(v) for v in results]


def verify_indexed_dleq_batch(
    group: SchnorrGroup,
    g2: int,
    public_shares: Mapping[int, int],
    shares: Sequence,
    *,
    rng=None,
) -> list[bool]:
    """Batch-verify index-carrying shares against dealer-published keys.

    The common shape of threshold-signature and threshold-decryption
    share verification: each ``share`` has ``.index``/``.value``/``.proof``,
    proves DLEQ against the bases ``(g, g2)`` (``g2`` a canonical root),
    and its ``y1`` is the public key share ``public_shares[share.index]``.
    Unknown indices are invalid; public key shares come from the dealer
    transcript, so their membership check is skipped.
    """
    statements: list[tuple[int, int, DleqProof]] = []
    known: list[int] = []
    results = [False] * len(shares)
    for pos, share in enumerate(shares):
        pk_i = public_shares.get(share.index)
        if pk_i is None:
            continue
        known.append(pos)
        statements.append((pk_i, share.value, share.proof))
    verdicts = verify_dleq_batch(
        group,
        group.generator_root,
        g2,
        statements,
        rng=rng,
        assume_y1_member=True,
    )
    for pos, ok in zip(known, verdicts):
        results[pos] = ok
    return results
