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
back (:func:`ticket_price`, :func:`scale_for_total`).  With ``c = p / q``
and the weights scaled to integers ``a_i = w_i * D``
(:class:`~repro.core.types.ScaledWeights`), the price ``(m - c) / w_i`` is
the positive constant ``D / q`` times ``(m q - p) / a_i``, and the stream
orders tickets in two steps:

* by a float key ``log(m q - p) - log a_i``, taken in the log domain so it
  neither overflows nor underflows for any weight size, and sorted with
  numpy;
* then every run of adjacent float keys closer than their error bound is
  re-sorted on the exact integer key ``((m q - p) << K) // a_i``, ties by
  party index, with ``K`` the view's ``shift``.  Because
  ``2**K >= a_max**2``, distinct prices have distinct integer keys in the
  same order and equal prices have equal keys (the argument is in
  :mod:`repro.core.types`), so ``(key, party)`` tuples sort -- and tie on
  party index -- exactly as ``(price, party)`` tuples would.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from typing import Sequence

import numpy as np

from .types import KEY_TOLERANCE, Number, ScaledWeights, close_runs

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


class _Ladders:
    """The price ladders of a view's positive-weight parties, keyed in floats.

    In units of ``1 / q``, ticket ``m`` of party ``i`` is keyed
    ``log((m - 1) + rho) - log a_i`` with ``rho = 1 - c``: the module
    docstring's ``log(m q - p) - log a_i`` less the constant ``log q``.  A
    first ticket's ``log rho`` comes from the exact integers, so a ``c``
    within ``2**-1022`` of 1 is keyed as closely as any other.
    """

    def __init__(self, view: ScaledWeights, c: Fraction) -> None:
        # ``parties``: the positive-weight parties, as C ints like the pick
        # arrays; ``log_weights``: the logs of their weights -- the view's
        # own array when no weight is zero.
        logs = view.arrays.logs
        self.parties = np.flatnonzero(logs > -math.inf).astype(np.intc)
        self.log_weights = logs if len(self.parties) == len(logs) else logs[self.parties]
        p, q = c.numerator, c.denominator
        self.log_rho = math.log(q - p) - math.log(q)
        self.rho = math.exp(self.log_rho)
        #: bounds the magnitude of each term of a key, bar the ordinal's
        self.magnitude = float(self.log_weights.max()) + math.log(q) + 1

    def keys(self, before: np.ndarray, log_a: np.ndarray) -> np.ndarray:
        """Float keys of ticket ``before + 1`` of the parties whose log
        weights are ``log_a``."""
        out = np.full(len(before), self.log_rho)
        np.log(before + self.rho, out=out, where=before > 0)
        out -= log_a
        return out

    def counts(self, theta: float, held: np.ndarray, k: int) -> np.ndarray:
        """Each party's tickets keyed at most ``theta`` beyond its ``held``
        ones, capped at ``k`` (more cannot all be among the ``k`` cheapest)."""
        x = theta + self.log_weights
        np.minimum(x, 700.0, out=x)  # e**700 tickets: far past any k
        np.exp(x, out=x)
        x -= self.rho
        np.floor(x, out=x)
        x -= held
        x += 1
        np.clip(x, 0, k, out=x)
        return x.astype(np.int32)


class PriceStream:
    """Memoized prefix of the globally-cheapest ticket sequence for one
    ``(weights, c)`` pair.

    The solver's binary search probes the family at many different
    totals.  A stream selects each ticket *once*, caching the party index
    and ordinal of the ``k``-th cheapest ticket, so a probe at total ``T``
    costs only the extension beyond the deepest total seen so far.  An
    extension by ``k`` tickets is one array selection: a price threshold
    with at least ``k`` new tickets below it (a few ``O(n)`` numpy passes),
    one sort of those candidates by float key, and exact integer keys only
    for the runs the float keys cannot separate -- ``O(n + k log k)``
    numpy work instead of one Python heap operation per ticket.

    ``weights`` is a :class:`~repro.core.types.ScaledWeights` view or
    anything one can be built from; ``scaled`` is the view in use.
    """

    def __init__(self, weights: "Sequence[Number] | ScaledWeights", c: Fraction) -> None:
        self.scaled = ScaledWeights.of(weights)
        self._c = c
        #: party index and ticket ordinal ``m`` of the k-th cheapest ticket
        self._picks = array("i")
        self._ords = array("i")
        self._ladders = _Ladders(self.scaled, c)
        #: parties with positive weight (the ones that have a price ladder)
        self._live = len(self._ladders.parties)
        #: patched-stream chain length above this stream (0 for a plain one)
        self._chain = 0

    @property
    def rounding_constant(self) -> Fraction:
        return self._c

    @property
    def depth(self) -> int:
        """Number of cheapest-ticket picks memoized so far."""
        return len(self._picks)

    def _extend(self, total: int) -> None:
        if total > len(self._picks):
            parties, ords = self._select(total - len(self._picks))
            self._picks.frombytes(parties.tobytes())
            self._ords.frombytes(ords.tobytes())

    def _select(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` cheapest tickets beyond the memoized prefix, in order:
        their parties and ordinals as C-int arrays.

        Every ticket outside the prefix sorts after all of it, so the new
        tickets are the ``k`` cheapest of each party's unpicked ladder.
        """
        ladders = self._ladders
        held = np.bincount(np.array(self._picks, dtype=np.intp), minlength=len(self.scaled))
        held = held[ladders.parties]
        # Float keys are off by a few ulps of the magnitudes that enter them.
        tol = KEY_TOLERANCE * (ladders.magnitude + math.log(len(self._picks) + k + 1))
        theta, cnt = self._threshold(held, k, tol)
        for attempt in range(4):
            parties = np.repeat(ladders.parties, cnt)
            # A candidate's ordinal less one: its party's held tickets plus
            # its rank among the party's candidates.
            before = np.arange(len(parties)) + np.repeat(held - (np.cumsum(cnt) - cnt), cnt)
            fk = ladders.keys(before, np.repeat(ladders.log_weights, cnt))
            order = np.argsort(fk)
            # Runs of adjacent keys the floats cannot separate are re-sorted
            # on exact keys, ties by party index; only the runs that start
            # among the k cheapest matter.
            members, runs = close_runs(fk[order], tol)
            keep = members[np.searchsorted(runs, runs)] < k
            members, runs = members[keep], runs[keep]
            run = order[members]
            tickets = zip(
                runs.tolist(), parties[run].tolist(), (before[run] + 1).tolist(), run.tolist()
            )
            order[members] = [
                t for *_, t in sorted((r, self._exact_key(i, m), i, t) for r, i, m, t in tickets)
            ]
            chosen = order[:k]
            cut = float(fk[chosen].max())
            # The cut holds if each party's first ticket left out is keyed
            # clearly above the k-th pick (a party with k candidates leaves
            # out only tickets dearer than one of its own).
            after = ladders.keys(held + cnt, ladders.log_weights)
            if np.all((after > cut + tol) | (cnt == k)):
                return parties[chosen], (before[chosen] + 1).astype(np.intc)
            theta = max(theta, cut) + 4 * tol * 2**attempt
            cnt = ladders.counts(theta, held, k)
        raise AssertionError("price stream cut did not certify")

    def _threshold(self, held: np.ndarray, k: int, tol: float) -> tuple[float, np.ndarray]:
        """A key threshold with ``k`` to ``2 k`` unpicked tickets at or
        below it (more only where one jump of tied prices crosses that
        window), and each party's count of those tickets."""
        ladders = self._ladders
        lo, hi = -math.inf, math.inf
        # The floor assignment at scale e**theta holds about e**theta W tickets.
        theta = math.log(len(self._picks) + k) - math.log(self.scaled.total)
        while True:
            cnt = ladders.counts(theta, held, k)
            got = int(cnt.sum())
            if got < k:
                lo = theta
            elif got <= 2 * k:
                return theta, cnt
            else:
                hi = theta
            if hi - lo <= tol:
                return hi, ladders.counts(hi, held, k)
            step = theta + math.log((k + 1) / (got + 1))
            theta = step if lo < step < hi else (lo + hi) / 2

    def _exact_key(self, party: int, m: int) -> int:
        """The exact integer key of ticket ``m`` of ``party``."""
        c = self._c
        return ((m * c.denominator - c.numerator) << self.scaled.shift) // self.scaled.ints[party]

    def _key(self, j: int) -> int:
        """The exact integer key of the ``j``-th cheapest ticket."""
        return self._exact_key(self._picks[j], self._ords[j])

    def _prefix(self, total: int) -> np.ndarray:
        """The parties of the ``total`` cheapest tickets.  A plain stream's
        are a view of its ``array("i")`` picks: drop it before the stream
        extends (an array exporting its buffer cannot grow)."""
        if total < 0:
            raise ValueError("total must be non-negative")
        self._extend(total)
        if isinstance(self._picks, array):
            return np.frombuffer(self._picks, dtype=np.intc, count=total)
        return np.fromiter(self._picks, dtype=np.intc, count=total)

    def assignment(self, total: int) -> list[int]:
        """The unique family member with exactly ``total`` tickets."""
        return np.bincount(self._prefix(total), minlength=len(self.scaled)).tolist()

    def sparse_counts(self, total: int) -> tuple[np.ndarray, np.ndarray]:
        """``assignment(total)`` in sparse form: ascending holder indices
        and their positive ticket counts, as arrays.  One sort of the
        ``total`` picks, nothing of size ``n`` -- the per-probe win for
        large committees, and the form the assignment a solve returns is
        packed from, too (:meth:`TicketAssignment.from_holders`)."""
        return np.unique(self._prefix(total), return_counts=True)

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
        s = PriceStream(self.scaled, self._c)
        s._picks = array("i", self._picks)
        s._ords = array("i", self._ords)
        return s


class _PatchedPriceStream(PriceStream):
    """Lazy merge of a base stream's pick prefix with changed parties'
    fresh price ladders (see :meth:`PriceStream.patched`).

    Its picks and ordinals are lists.  The merge reads exact keys of the
    base's picks only where it bisects for a changed party's next ticket.
    """

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
        # Heap entries: (key, party index, ticket ordinal m).
        self._heap = [(self._exact_key(i, 1), i, 1) for i in changes if new[i]]
        heapq.heapify(self._heap)
        self._base_ptr = 0
        self._picks = []
        self._ords = []
        self._live = unchanged + len(self._heap)
        self._chain = base._chain + 1

    def _extend(self, total: int) -> None:
        base, changed = self._base, self._changed
        base_picks, base_ords = base._picks, base._ords
        heap, picks, ords = self._heap, self._picks, self._ords
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
                head, i, m = heap[0]
                stop = bisect_left(range(end), head, ptr, end, key=base._key)
                while stop < end and base._key(stop) == head and base_picks[stop] < i:
                    stop += 1
            run, run_ords = base_picks[ptr:stop], base_ords[ptr:stop]
            if not changed.isdisjoint(run):
                keep = [k for k, party in enumerate(run) if party not in changed]
                run = [run[k] for k in keep]
                run_ords = [run_ords[k] for k in keep]
            picks += run
            ords += run_ords
            ptr = stop
            if stop < end:
                picks.append(i)
                ords.append(m)
                heapq.heapreplace(heap, (self._exact_key(i, m + 1), i, m + 1))
        self._base_ptr = ptr


def assignment_for_total(
    weights: "Sequence[Number] | ScaledWeights", c: Fraction, total: int
) -> list[int]:
    """The unique family member with exactly ``total`` tickets.

    Selects the ``total`` globally cheapest tickets, ``O(n + total log
    total)``.  Zero-weight parties never receive tickets (their prices are
    infinite).  One-shot form of :class:`PriceStream`; repeated probes over
    the same ``(weights, c)`` should share a stream instead.
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
    weight = Fraction(stream.scaled.ints[stream._picks[-1]], stream.scaled.denom)
    return ticket_price(weight, c, stream._ords[-1])
