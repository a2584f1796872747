"""The Swiper ticket-assignment family ``t(s, k)`` (paper, Section 3.1).

Swiper restricts its search to assignments of the form
``t_i = floor(s * w_i + c)`` where parties "on the border" (those for which
``s * w_i + c`` is an integer) may each give back one ticket, all but a
deterministically chosen ``k`` of them.

The crucial observation of the paper is that this two-index family is
*totally ordered* by its total ticket count ``T(s, k)``, each member having
exactly one more ticket than the previous one.  An equivalent and
computationally convenient formulation: give party ``i`` an unbounded list
of *ticket prices* ``(m - c) / w_i`` for ``m = 1, 2, ...``; the family
member with total ``T0`` hands out the ``T0`` globally cheapest tickets
(ties broken deterministically by party index, which realizes the
"arbitrary yet deterministically chosen" border set ``K_{s,k}``).

Proof of equivalence: ``floor(s*w_i + c) >= m  <=>  (m - c)/w_i <= s``, so
the tickets priced at most ``s`` are exactly the tickets of the full floor
assignment at scale ``s``; tickets priced exactly ``s`` belong to the
border set ``B_s``.

Prices are :class:`~fractions.Fraction` only where this module hands one
back (:func:`ticket_price`, :func:`scale_for_total`).  The stream orders
them as integers: with ``c = p / q`` and the weights scaled to integers
``a_i = w_i * D`` (:class:`~repro.core.types.ScaledWeights`), the price
``(m - c) / w_i`` is the positive constant ``D / q`` times
``(m q - p) / a_i``, and the heap key of that ticket is
``((m q - p) << K) // a_i`` with ``K`` the view's ``shift``.  Because
``2**K >= a_max**2``, distinct prices have distinct keys in the same order
and equal prices have equal keys (the argument is in
:mod:`repro.core.types`), so ``(key, party)`` tuples sort -- and tie on
party index -- exactly as ``(price, party)`` tuples would.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Sequence

from .types import Number, ScaledWeights

__all__ = [
    "PriceStream",
    "assignment_for_total",
    "total_at_scale",
    "scale_for_total",
    "ticket_price",
]


def ticket_price(weight: Fraction, c: Fraction, m: int) -> Fraction:
    """Price of the ``m``-th ticket of a party with ``weight`` (``m >= 1``).

    The party holds at least ``m`` tickets in the floor assignment at scale
    ``s`` iff ``s >= (m - c) / weight``.
    """
    if weight <= 0:
        raise ValueError("zero-weight parties have no ticket prices")
    if m < 1:
        raise ValueError("ticket index m starts at 1")
    return (m - c) / weight


class PriceStream:
    """Memoized prefix of the globally-cheapest ticket sequence for one
    ``(weights, c)`` pair.

    The solver's binary search probes the family at many different
    totals; recomputing each probe from scratch repeats the same heap
    pops.  A stream pops each ticket *once*, caching the party index of
    the ``k``-th cheapest ticket, so a probe at total ``T`` costs only
    the extension beyond the deepest total seen so far -- across a whole
    binary search, ``O(T_max * log n)`` integer operations in total.

    ``weights`` is a :class:`~repro.core.types.ScaledWeights` view or
    anything one can be built from; ``scaled`` is the view in use.
    """

    def __init__(self, weights: "Sequence[Number] | ScaledWeights", c: Fraction) -> None:
        self.scaled = ScaledWeights.of(weights)
        self._c = c
        # Heap entries: (key, party index, ticket ordinal m) with
        # key = ((m q - p) << K) // a_i -- see the module docstring.  Keys
        # are exact, so ties fall through to the party index, giving the
        # deterministic border-set choice the paper requires.
        self._heap = self._ladder_heads(
            (i, 1) for i, a in enumerate(self.scaled.ints) if a
        )
        #: party index of the k-th cheapest ticket, extended on demand
        self._picks: list[int] = []
        #: key of the k-th cheapest ticket (parallel to ``_picks``); kept
        #: so a later epoch can merge this prefix with a handful of changed
        #: parties' ladders instead of re-popping the whole heap
        self._pick_keys: list[int] = []
        #: parties with positive weight (the ones that have a price ladder)
        self._live = len(self._heap)
        #: patched-stream chain length above this stream (0 for a plain one)
        self._chain = 0

    def _ladder_heads(
        self, tickets: Iterable[tuple[int, int]]
    ) -> list[tuple[int, int, int]]:
        """A heap of the given ``(party, ticket ordinal)`` pairs."""
        ints, shift = self.scaled.ints, self.scaled.shift
        p, q = self._c.numerator, self._c.denominator
        heap = [(((m * q - p) << shift) // ints[i], i, m) for i, m in tickets]
        heapq.heapify(heap)
        return heap

    @property
    def rounding_constant(self) -> Fraction:
        return self._c

    @property
    def depth(self) -> int:
        """Number of cheapest-ticket picks memoized so far."""
        return len(self._picks)

    def _extend(self, total: int) -> None:
        heap, picks, keys = self._heap, self._picks, self._pick_keys
        ints, shift = self.scaled.ints, self.scaled.shift
        p, q = self._c.numerator, self._c.denominator
        while len(picks) < total:
            key, i, m = heap[0]
            picks.append(i)
            keys.append(key)
            m += 1
            heapq.heapreplace(heap, (((m * q - p) << shift) // ints[i], i, m))

    def assignment(self, total: int) -> list[int]:
        """The unique family member with exactly ``total`` tickets."""
        if total < 0:
            raise ValueError("total must be non-negative")
        self._extend(total)
        tickets = [0] * len(self.scaled)
        for i, count in Counter(self._picks[:total]).items():
            tickets[i] = count
        return tickets

    def sparse_counts(self, total: int) -> tuple[list[int], list[int]]:
        """``assignment(total)`` in sparse form: ascending holder indices
        and their positive ticket counts.  ``O(total)`` instead of
        ``O(n + total)`` -- the per-probe win for large committees."""
        if total < 0:
            raise ValueError("total must be non-negative")
        self._extend(total)
        counts = Counter(self._picks[:total])
        indices = sorted(counts)
        return indices, [counts[i] for i in indices]

    def patched(self, changes: Mapping[int, Number]) -> "PriceStream":
        """A stream for this stream's weights with ``changes`` (party index
        -> new weight; indices from ``n`` up are joining parties) applied,
        reusing this stream's memoized picks.

        Only the *changed* parties' price ladders are re-heaped; unchanged
        parties' picks are replayed from this stream's prefix in their
        original (already sorted) order and merged by key.  The merged pick
        sequence is identical to a fresh stream's over the new weights
        because both enumerate the same set of ``(price, party)`` pairs in
        the same total order; the new view (``.scaled`` of the result) is
        patched from this one in ``O(len(changes))``.

        Raises :class:`ValueError` -- build a fresh ``PriceStream`` instead
        -- when no positive-weight party is left unchanged (there is
        nothing to reuse) or the new weights do not fit this stream's
        integer scaling (:meth:`ScaledWeights.patched`).
        """
        return _PatchedPriceStream(self, changes)

    def compact(self) -> "PriceStream":
        """A plain stream with the same memoized prefix and future picks.

        Flattens a (possibly patched) stream in ``O(depth + n)`` so that
        epoch-over-epoch patching never chains through old base streams.
        """
        s = PriceStream.__new__(PriceStream)
        s.scaled = self.scaled
        s._c = self._c
        s._picks = list(self._picks)
        s._pick_keys = list(self._pick_keys)
        next_m = {i: 1 for i, a in enumerate(self.scaled.ints) if a}
        for i in s._picks:
            next_m[i] += 1
        s._heap = s._ladder_heads(next_m.items())
        s._live = self._live
        s._chain = 0
        return s


class _PatchedPriceStream(PriceStream):
    """Lazy merge of a base stream's pick prefix with changed parties'
    fresh price ladders (see :meth:`PriceStream.patched`)."""

    def __init__(self, base: PriceStream, changes: Mapping[int, Number]) -> None:
        try:
            self.scaled = base.scaled.patched(changes)
        except ValueError as exc:
            raise ValueError(f"{exc}; build a fresh PriceStream instead") from None
        old, new = base.scaled.ints, self.scaled.ints
        unchanged = base._live - sum(1 for i in changes if i < len(old) and old[i])
        if unchanged <= 0:
            raise ValueError(
                "patched stream needs at least one unchanged positive-weight "
                "party; build a fresh PriceStream instead"
            )
        self._c = base._c
        self._base = base
        self._changed = frozenset(changes)
        self._heap = self._ladder_heads((i, 1) for i in changes if new[i])
        self._base_ptr = 0
        self._picks = []
        self._pick_keys = []
        self._live = unchanged + len(self._heap)
        self._chain = base._chain + 1

    def _extend(self, total: int) -> None:
        base, changed = self._base, self._changed
        base_picks, base_keys = base._picks, base._pick_keys
        heap, picks, keys = self._heap, self._picks, self._pick_keys
        ints, shift = self.scaled.ints, self.scaled.shift
        p, q = self._c.numerator, self._c.denominator
        ptr = self._base_ptr
        while len(picks) < total:
            # At most this many more picks come from the base's prefix.
            end = ptr + total - len(picks)
            base._extend(end)
            # The run of base picks that sort before the cheapest ticket of
            # a changed party is copied whole (less the picks that belonged
            # to changed parties); equal keys tie on the party index.
            stop = end
            if heap:
                key, i, m = heap[0]
                stop = bisect_left(base_keys, key, ptr, end)
                while stop < end and base_keys[stop] == key and base_picks[stop] < i:
                    stop += 1
            run, run_keys = base_picks[ptr:stop], base_keys[ptr:stop]
            if not changed.isdisjoint(run):
                keep = [k for k, party in enumerate(run) if party not in changed]
                run = [run[k] for k in keep]
                run_keys = [run_keys[k] for k in keep]
            picks += run
            keys += run_keys
            ptr = stop
            if stop < end:
                picks.append(i)
                keys.append(key)
                m += 1
                heapq.heapreplace(heap, (((m * q - p) << shift) // ints[i], i, m))
        self._base_ptr = ptr


def assignment_for_total(
    weights: "Sequence[Number] | ScaledWeights", c: Fraction, total: int
) -> list[int]:
    """The unique family member with exactly ``total`` tickets.

    Selects the ``total`` globally cheapest tickets, ``O(total * log n)``.
    Zero-weight parties never receive tickets (their prices are infinite).
    One-shot form of :class:`PriceStream`; repeated probes over the same
    ``(weights, c)`` should share a stream instead.
    """
    return PriceStream(weights, c).assignment(total)


def total_at_scale(
    weights: "Sequence[Number] | ScaledWeights", c: Fraction, s: Fraction
) -> int:
    """Total tickets of the *full* floor assignment at scale ``s``:
    ``sum_i floor(s * w_i + c)`` (i.e. ``T(s, |B_s|)``)."""
    if s < 0:
        raise ValueError("scale s must be non-negative")
    view = ScaledWeights.of(weights)
    # s * w_i + c = (s.num * q * a_i + p * s.den * D) / (s.den * D * q)
    mul = s.numerator * c.denominator
    add = c.numerator * s.denominator * view.denom
    den = s.denominator * view.denom * c.denominator
    return sum((mul * a + add) // den for a in view.ints if a)


def scale_for_total(
    weights: "Sequence[Number] | ScaledWeights", c: Fraction, total: int
) -> Fraction:
    """The smallest scale ``s`` whose full floor assignment reaches
    ``total`` tickets -- i.e. the price of the ``total``-th cheapest ticket.

    Provided for introspection and tests; the solver itself works directly
    in "total tickets" space via :func:`assignment_for_total`.
    """
    if total < 1:
        raise ValueError("total must be >= 1 to define a positive scale")
    stream = PriceStream(weights, c)
    stream._extend(total)
    last = stream._picks[-1]
    weight = Fraction(stream.scaled.ints[last], stream.scaled.denom)
    return ticket_price(weight, c, stream._picks.count(last))
