"""Reed-Solomon erasure and error-correcting codes (paper, Section 5).

``(k, m)`` evaluation-style RS: the ``k`` data symbols are the
coefficients of a polynomial ``f`` of degree below ``k``; fragment ``j``
is ``f(alpha^j)``.  Any ``k`` fragments reconstruct (erasure decoding by
Lagrange interpolation); with ``k + 2e`` fragments up to ``e`` of which
are wrong, Gao's extended-Euclidean decoder recovers ``f`` (error
decoding) -- matching the correction capability the paper assumes for the
online-error-correction broadcast (Section 5.2).

The engine codes whole byte payloads as *bit-plane blocks* (see
:mod:`~repro.codes.gf2m`): a payload is zero-padded to ``k`` blocks and
data shard ``i`` is the contiguous slice ``payload[i*B:(i+1)*B]``, read
as ``w`` planes; symbol ``s`` of every shard and fragment forms one
codeword.  Encoding, erasure decoding, systematic parity and the error
decoder's re-encode check are each one call of the field's plane kernel
(:meth:`~repro.codes.gf2m.GF2m.combine`) with a coefficient matrix:
powers of the evaluation points, the Lagrange basis keyed by the
fragment index set, or the barycentric evaluation matrix keyed by the
index set and the target points.  Both matrices are LRU-cached (AVID
retrieval and checkpointing decode repeatedly with the same quorum
indices).

The systematic mode is AVID's layout: the first ``k`` fragments *are*
the data shards, so encoding computes only the ``m - k`` parity blocks,
and an erasure decode keeps every data shard it holds as it is and
combines rows only for the shards it lacks (none, from the ``k`` data
fragments).  Either layout's decoder hands the payload back in one copy:
the last shard is cut to the payload's length before the final join.

Operation counters expose the decoding *work*, which is what the paper's
Table 1 computation-overhead columns measure (work grows with the number
of fragments ``m``, i.e. with the ticket count in the weighted setting).
They count symbol-equivalent field operations per ``k``-symbol stripe of
the payload (:meth:`ReedSolomon.stripe_count`), so nominal vs weighted
overhead ratios stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .gf2m import GF256, GF65536, GF2m

__all__ = [
    "ReedSolomon",
    "BlockFragment",
    "DecodingFailure",
    "min_message_symbols",
]


class DecodingFailure(Exception):
    """Raised when decoding cannot produce a consistent codeword."""


@dataclass(frozen=True)
class BlockFragment:
    """One coded *block*: position ``index`` and the bit-plane byte block
    holding this fragment's symbol for every stripe of the payload."""

    index: int
    block: bytes


def min_message_symbols(k: int, m: int) -> int:
    """Paper, Section 5.1: Reed-Solomon needs messages of at least
    ``k * log2(m)`` bits; expressed here in field symbols the data block is
    ``k`` symbols, each of ``ceil(log2(m))`` bits minimum -- callers use
    this to account for padding overhead with large ``m``."""
    return k * max(1, (m - 1).bit_length())


# -- cached interpolation structures ----------------------------------------------
#
# Keyed by (field, evaluation-point tuple): protocols decode over and
# over with the same quorum's fragment indices, and every AVID storer
# constructs its own ReedSolomon per dispersal -- so the caches live at
# module level, shared across instances of the same field.


@lru_cache(maxsize=64)
def _lagrange_basis(
    field: GF2m, xs: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Coefficient form of the Lagrange basis through points ``xs``.

    ``basis[j][i]`` is the coefficient of ``x^i`` in ``L_j``, the unique
    polynomial of degree below ``len(xs)`` with ``L_j(xs[j]) = 1`` and
    zero at every other point.  Computed barycentrically in ``O(k^2)``:
    ``L_j = l / ((x + xs[j]) * l'(xs[j]))`` with ``l = prod (x + xs[t])``
    and the synthetic-division quotient ``q_j = l / (x + xs[j])``
    satisfying ``l'(xs[j]) = q_j(xs[j])`` in characteristic 2.
    """
    k = len(xs)
    l = [1]
    for a in xs:
        l = field.poly_mul(l, [a, 1])
    mul = field.mul
    basis = []
    for xj in xs:
        q = [0] * k
        acc = l[k]
        for d in range(k - 1, -1, -1):
            q[d] = acc
            acc = l[d] ^ mul(acc, xj)
        inv = field.inv(field.poly_eval(q, xj))
        basis.append(tuple(mul(c, inv) for c in q))
    return tuple(basis)


@lru_cache(maxsize=64)
def _eval_matrix(
    field: GF2m, xs: tuple[int, ...], targets: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """``matrix[t][j] = L_j(targets[t])`` for the Lagrange basis over
    ``xs`` -- re-evaluation of an interpolated polynomial at new points
    without coefficient form (barycentric, ``O(k^2)``).  Systematic
    coding calls it: the encoder's parity rows (one key per geometry) and
    a decoder's rows for the data shards it lacks (one key per quorum)."""
    k = len(xs)
    mul, inv = field.mul, field.inv
    weights = []
    for j, xj in enumerate(xs):
        d = 1
        for t, xt in enumerate(xs):
            if t != j:
                d = mul(d, xj ^ xt)
        weights.append(inv(d))
    pos = {x: j for j, x in enumerate(xs)}
    rows = []
    for ti in targets:
        j0 = pos.get(ti)
        if j0 is not None:
            rows.append(tuple(1 if j == j0 else 0 for j in range(k)))
            continue
        lt = 1
        for xj in xs:
            lt = mul(lt, ti ^ xj)
        rows.append(
            tuple(mul(lt, mul(weights[j], inv(ti ^ xj))) for j, xj in enumerate(xs))
        )
    return tuple(rows)


def _join_prefix(shards: Sequence, length: int) -> bytes:
    """The first ``length`` bytes of the shards laid end to end, copied
    once: the shard holding the payload's end is cut to it before the
    join, and the padding after it is never copied."""
    parts = []
    for shard in shards:
        if length <= 0:
            break
        view = memoryview(shard).cast("B")
        parts.append(view[:length])
        length -= len(view)
    return b"".join(parts)


class ReedSolomon:
    """A ``(k, m)`` Reed-Solomon code over ``GF(2^w)``.

    Parameters
    ----------
    k:
        Data symbols per block (reconstruction threshold).
    m:
        Total fragments; must satisfy ``k <= m <= 2^w - 1``.
    field:
        The :class:`~repro.codes.gf2m.GF2m` instance; chosen automatically
        (GF(2^8) when ``m < 256``, else GF(2^16)) if omitted.
    """

    def __init__(self, k: int, m: int, field: Optional[GF2m] = None) -> None:
        if field is None:
            field = GF256 if m < 256 else GF65536
        if not 1 <= k <= m <= field.size - 1:
            raise ValueError(
                f"need 1 <= k <= m <= {field.size - 1}, got k={k}, m={m}"
            )
        self.k = k
        self.m = m
        self.field = field
        #: evaluation points alpha^0 .. alpha^{m-1} (distinct, non-zero)
        self.points = [field.element_at(i) for i in range(m)]
        #: cumulative decoding work counter (field multiplications, approx)
        self.work_counter = 0
        self._scalar_probe: Optional["ReedSolomon"] = None

    @property
    def rate(self) -> float:
        """Code rate ``k / m``."""
        return self.k / self.m

    # -- error decoding (Gao) --------------------------------------------------------
    def _gao_finish(
        self,
        xs: Sequence[int],
        ys: Sequence[int],
        g0: list[int],
        g1: list[int],
        r: int,
    ) -> list[int]:
        """Shared tail of Gao decoding: partial extended Euclid on
        ``(g0, g1)`` until ``deg(remainder) < (r + k) / 2``, division by
        the Bezout coefficient, and the consistency check."""
        f = self.field
        if not g1:
            return [0] * self.k

        def small_enough(poly: list[int]) -> bool:
            return 2 * (len(poly) - 1) < r + self.k

        # Bezout coefficients for b-track: v satisfies g = u*g0 + v*g1.
        v_prev, v_cur = [], [1]
        g_prev, g_cur = g0, g1
        while g_cur and not small_enough(g_cur):
            q, rem = f.poly_divmod(g_prev, g_cur)
            self.work_counter += max(1, len(q)) * max(1, len(g_cur))
            g_prev, g_cur = g_cur, rem
            v_prev, v_cur = v_cur, f.poly_add(v_prev, f.poly_mul(q, v_cur))
        if not g_cur:
            # Exact division: the interpolant is supported entirely on
            # error positions, so the candidate codeword is zero -- valid
            # iff the zero word stays within the error budget (the same
            # consistency check as below guards against a wrong accept).
            errors = sum(1 for y in ys if y != 0)
            if errors > (r - self.k) // 2:
                raise DecodingFailure("degenerate Euclidean step")
            return [0] * self.k
        f1, rem = f.poly_divmod(g_cur, v_cur)
        if rem:
            raise DecodingFailure("too many errors: remainder not divisible")
        if len(f1) > self.k:
            raise DecodingFailure("too many errors: degree overflow")
        data = f1 + [0] * (self.k - len(f1))
        # Consistency check: the decoded word must disagree with at most
        # (r - k) // 2 received fragments.
        errors = sum(
            1 for x, y in zip(xs, ys) if f.poly_eval(data, x) != y
        )
        if errors > (r - self.k) // 2:
            raise DecodingFailure(f"{errors} errors exceed correction budget")
        return data

    def _decode_errors_scalars(self, received: Mapping[int, int]) -> list[int]:
        """Gao decoding of one scalar word using the LRU-cached Lagrange
        basis for interpolation (``O(r^2)``) -- the block error decoder's
        locator and per-stripe fallback."""
        r = len(received)
        if r < self.k:
            raise DecodingFailure(f"need at least k={self.k} fragments, got {r}")
        f = self.field
        xs = [self.points[i] for i in received]
        ys = list(received.values())
        g0 = [1]
        for x in xs:
            g0 = f.poly_mul(g0, [x, 1])
        basis = _lagrange_basis(f, tuple(xs))
        g1 = [0] * r
        exp, log = f.exp, f.log
        for j, y in enumerate(ys):
            if y:
                ly = log[y]
                for i, c in enumerate(basis[j]):
                    if c:
                        g1[i] ^= exp[ly + log[c]]
        while g1 and g1[-1] == 0:
            g1.pop()
        self.work_counter += r * r
        return self._gao_finish(xs, ys, g0, g1, r)

    # -- the block engine -------------------------------------------------------------
    #
    # A payload of L bytes is zero-padded to k blocks of B bytes; data
    # shard i is bytes [i*B, (i+1)*B), read as w bit planes, and fragment
    # j holds f_s(alpha^j) at every symbol position s.  Every map below is
    # one GF2m.combine call with a k- or m-row coefficient matrix.

    def stripe_count(self, payload_len: int) -> int:
        """Number of ``k``-symbol codewords covering ``payload_len`` bytes."""
        chunk = self.k * self.field.sym_bytes
        return -(-payload_len // chunk)

    def block_length(self, payload_len: int) -> int:
        """Bytes per fragment block: ``w`` planes of one bit per stripe,
        rounded up to whole bytes."""
        return self.field.width * -(-self.stripe_count(payload_len) // 8)

    def _powers(self, indices: Iterable[int]) -> list[list[int]]:
        """Rows ``(1, x, ..., x^(k-1))`` for ``x = alpha^i``, ``i`` in
        ``indices``: evaluation of the coefficient shards at those points."""
        at = self.field.element_at
        return [[at(i * e) for e in range(self.k)] for i in indices]

    def _map(self, rows: Sequence[Sequence[int]], blocks: Sequence) -> list[bytes]:
        """``combine`` into fresh blocks, each handed out as ``bytes`` and
        its array dropped as soon as it is copied."""
        outs = self.field.combine(rows, blocks)
        result = []
        for o in range(len(outs)):
            result.append(outs[o].tobytes())
            outs[o] = None
        return result

    def encode_blocks(
        self, data: bytes, *, systematic: bool = False
    ) -> list[bytes]:
        """Encode a bytes-like payload into ``m`` fragment blocks.

        Symbol for symbol, the default (non-systematic) layout gives each
        codeword ``(f(alpha^0), ..., f(alpha^(m-1)))`` of the data symbols
        ``f``.  With ``systematic=True`` the first ``k`` fragments *are*
        the data shards (zero coding work; decoding from indices
        ``0..k-1`` is a copy) and only ``m - k`` parity blocks are
        computed.  ``data`` is only read.
        """
        view = memoryview(data).cast("B")
        blen = self.block_length(len(view))
        if not blen:
            return [b""] * self.m
        stripes = self.stripe_count(len(view))
        shards = []
        for i in range(self.k):
            shard = view[i * blen : (i + 1) * blen]
            if len(shard) < blen:
                shard = bytes(shard) + bytes(blen - len(shard))
            shards.append(shard)
        if systematic:
            matrix = _eval_matrix(
                self.field,
                tuple(self.points[: self.k]),
                tuple(self.points[self.k : self.m]),
            )
            out = [bytes(shard) for shard in shards] + self._map(matrix, shards)
            self.work_counter += (self.m - self.k) * self.k * stripes
        else:
            out = self._map(self._powers(range(self.m)), shards)
            self.work_counter += self.m * self.k * stripes
        return out

    def _unique_blocks(
        self,
        fragments: Union[
            Mapping[int, bytes],
            Iterable[Union[BlockFragment, tuple[int, bytes]]],
        ],
    ) -> dict[int, bytes]:
        """Normalize fragment input to ``{index: block}`` (last value wins)."""
        if isinstance(fragments, Mapping):
            items = fragments.items()
        else:
            items = (
                (f.index, f.block) if isinstance(f, BlockFragment) else tuple(f)
                for f in fragments
            )
        width = self.field.width
        out: dict[int, bytes] = {}
        for index, block in items:
            if not 0 <= index < self.m:
                raise DecodingFailure(f"fragment index {index} out of range")
            block = bytes(block)
            if len(block) % width:
                raise DecodingFailure(
                    f"fragment block length {len(block)} is not {width} "
                    "whole-byte bit planes"
                )
            out[index] = block
        lengths = {len(b) for b in out.values()}
        if len(lengths) > 1:
            raise DecodingFailure("fragment blocks have inconsistent lengths")
        return out

    def decode_erasures_blocks(
        self,
        fragments,
        original_length: int,
        *,
        systematic: bool = False,
    ) -> bytes:
        """Reconstruct a byte payload from any ``k`` correct fragment blocks.

        ``fragments`` is a mapping ``index -> block`` or an iterable of
        :class:`BlockFragment` / ``(index, block)`` pairs.  The default
        layout interpolates through the first ``k`` of them.  The
        systematic layout keeps every data shard (index below ``k``) it
        holds as it is and fills up to ``k`` with the first others; only
        the shards it lacks are combined, one row each.  The matrix for
        the chosen index set is LRU-cached, so repeated decodes with the
        same quorum indices skip the interpolation setup.
        """
        unique = self._unique_blocks(fragments)
        k = self.k
        if len(unique) < k:
            raise DecodingFailure(f"need {k} fragments, got {len(unique)} distinct")
        self.work_counter += k * k * max(self.stripe_count(original_length), 1)
        if systematic:
            held = [i for i in range(k) if i in unique]
            chosen = held + [i for i in unique if i >= k][: k - len(held)]
        else:
            chosen = list(unique)[:k]
        blocks = [unique[i] for i in chosen]
        if not blocks[0]:
            return b""
        xs = tuple(self.points[i] for i in chosen)
        if not systematic:
            # coefficient i of the interpolant: XOR_j basis[j][i] * y_j
            rows = tuple(zip(*_lagrange_basis(self.field, xs)))
            return _join_prefix(self.field.combine(rows, blocks), original_length)
        lacking = tuple(i for i in range(k) if i not in unique)
        rebuilt = {}
        if lacking:
            rows = _eval_matrix(self.field, xs, tuple(self.points[i] for i in lacking))
            rebuilt = dict(zip(lacking, self.field.combine(rows, blocks)))
        shards = [unique[i] if i in unique else rebuilt[i] for i in range(k)]
        return _join_prefix(shards, original_length)

    def _probe(self) -> "ReedSolomon":
        """A same-geometry instance for scalar sub-decodes whose work
        should not double-count on this instance's counter."""
        if self._scalar_probe is None:
            self._scalar_probe = ReedSolomon(self.k, self.m, field=self.field)
        return self._scalar_probe

    def decode_errors_blocks(
        self,
        fragments,
        original_length: int,
        *,
        systematic: bool = False,
    ) -> bytes:
        """Reconstruct a byte payload from fragment blocks containing up
        to ``(r - k) // 2`` corrupted blocks (``r`` = distinct fragments).

        Fast path: every block folds to one scalar, the position-weighted
        sum of its symbols (:meth:`~repro.codes.gf2m.GF2m.fold`); the
        scalar word is Gao-decoded to *locate* corrupted fragments, the
        survivors erasure-decode at block speed, and the result is
        verified by re-encoding at every other received index.  A
        corruption pattern that hides from the fold (a fragment's error
        symbols cancel under the weights) fails verification and falls
        back to the per-stripe decoder, so correctness never depends on
        the fold.
        """
        unique = self._unique_blocks(fragments)
        r = len(unique)
        if r < self.k:
            raise DecodingFailure(f"need at least k={self.k} fragments, got {r}")
        if not next(iter(unique.values())):
            return b""
        self.work_counter += r * r * max(self.stripe_count(original_length), 1)
        coeffs = self._locate_and_decode(unique, (r - self.k) // 2)
        if coeffs is None:
            coeffs = self._decode_errors_per_stripe(unique)
        if systematic:
            # Systematic payloads are the polynomial's values at the
            # first k points, not its coefficients.
            coeffs = self.field.combine(self._powers(range(self.k)), coeffs)
        return _join_prefix(coeffs, original_length)

    def _locate_and_decode(
        self, unique: Mapping[int, bytes], budget: int
    ) -> Optional[list[bytes]]:
        """Fold-locate-verify fast path: the coefficient shards, or
        ``None`` to fall back."""
        f = self.field
        folded = {idx: f.fold(block) for idx, block in unique.items()}
        try:
            folded_data = self._probe()._decode_errors_scalars(folded)
        except DecodingFailure:
            return None
        bad = {
            idx
            for idx, v in folded.items()
            if f.poly_eval(folded_data, self.points[idx]) != v
        }
        if len(bad) > budget or len(unique) - len(bad) < self.k:
            return None
        good = [i for i in unique if i not in bad][: self.k]
        basis = _lagrange_basis(f, tuple(self.points[i] for i in good))
        coeffs = self._map(tuple(zip(*basis)), [unique[i] for i in good])
        # Verification: the decoded word passes through the k blocks it
        # was interpolated from and must disagree with at most `budget`
        # of the others (the scalar decoder's consistency check).
        others = [i for i in unique if i not in good]
        if others:
            encoded = f.combine(self._powers(others), coeffs)
            errors = sum(
                not np.array_equal(block.ravel(), np.frombuffer(unique[i], np.uint8))
                for i, block in zip(others, encoded)
            )
            if errors > budget:
                return None
        return coeffs

    def _decode_errors_per_stripe(self, unique: Mapping[int, bytes]) -> list[bytes]:
        """Fallback: scalar Gao decoding, one symbol position at a time.

        Always correct; reached only when the fold-locate fast path
        fails: a corruption whose error symbols cancel under the fold's
        weights (by chance about one fragment in ``2^w``, or a garbling
        built against them), or folds that decode beyond the budget.
        """
        f = self.field
        symbol_lists = {i: f.block_to_symbols(b) for i, b in unique.items()}
        positions = len(next(iter(symbol_lists.values())))
        shard_symbols: list[list[int]] = [[] for _ in range(self.k)]
        probe = self._probe()
        work_before = probe.work_counter
        for s in range(positions):
            received = {i: syms[s] for i, syms in symbol_lists.items()}
            data = probe._decode_errors_scalars(received)
            for i in range(self.k):
                shard_symbols[i].append(data[i])
        self.work_counter += probe.work_counter - work_before
        return [f.symbols_to_block(syms) for syms in shard_symbols]
