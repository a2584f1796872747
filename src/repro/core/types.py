"""Fundamental value types shared by the weight-reduction machinery.

The paper maps large *real* weights ``w_1..w_n`` to small *integer* ticket
counts ``t_1..t_n``, and its prototype "uses the Fraction class to avoid
any possible rounding errors" (Section 3.1).  This package is exactly as
exact, but only holds :class:`fractions.Fraction` values where a caller can
see them: weights and thresholds entering through :func:`as_fraction` /
:func:`normalize_weights`, the problem parameters in
:mod:`repro.core.problems`, the prices :mod:`repro.core.prices` hands back,
and the one ``upper < target`` comparison that ends each quick test.

Everything a solve does in between reads one :class:`ScaledWeights` view:
the weights as integers ``a_i = w_i * D`` over their common denominator
``D``.  Subset weights, capacities and the rounded ``int64`` scalings are
plain integer arithmetic on it, and ticket prices and profit densities --
rationals ``N / a_i`` that have to be *ordered* -- are compared through
the integer keys ``(N << K) // a_i``, where ``K`` is the view's ``shift``.

Why those keys are exact: two distinct rationals ``N1 / a_i`` and
``N2 / a_j`` differ by ``|N1 a_j - N2 a_i| / (a_i a_j) >= 1 / (a_i a_j)``.
With ``2**K >= a_max**2`` the shifted values ``2**K N1 / a_i`` and
``2**K N2 / a_j`` are at least ``1`` apart, so their floors differ, in the
same direction; equal rationals have equal floors.  The keys therefore
order, and tie, exactly like the Fractions they replace.

Array code orders by float keys first (logs, so that no weight size
overflows them) and computes the exact key only inside the runs of
adjacent float keys closer than their error bound (:func:`close_runs`);
sums of weights are exact on the view's limbs (:class:`WeightArrays`).
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

Number = Union[int, float, str, Fraction]

__all__ = [
    "Number",
    "as_fraction",
    "normalize_weights",
    "scale_weights_exact",
    "scale_ints_rounded",
    "ScaledWeights",
    "WeightArrays",
    "TicketAssignment",
    "SCALE_BITS",
]

#: Relative precision (bits) of the rounded integer scaling used by the
#: numpy DP tier.  2**40 leaves ample headroom in int64 accumulators.
SCALE_BITS = 40

#: Spare bits per weight in a view's key ``shift``: a patched view keeps its
#: base's shift (the keys of both must stay comparable), so the heaviest
#: party may grow 2**8-fold across patches before a fresh scaling is needed.
_KEY_SLACK_BITS = 8

#: Float keys carry a few ulps (2**-52) of error relative to the magnitudes
#: that enter them; keys closer than this many of those magnitudes are
#: ordered exactly.  The headroom only costs exact comparisons, never
#: correctness.
KEY_TOLERANCE = 2.0**-40

#: Limb width of :attr:`WeightArrays.limbs` when the total overflows int64:
#: a cumulative sum of up to 2**32 such limbs still fits.
_LIMB_BITS = 31


def as_fraction(value: Number) -> Fraction:
    """Convert ``value`` to an exact :class:`~fractions.Fraction`.

    Integers (numpy's included), strings (``"1/3"``, ``"0.25"``),
    :class:`~fractions.Fraction` and floats are accepted.  Floats are
    converted *exactly* (binary expansion), which is deterministic and
    never silently rounds.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("weights and thresholds must be numeric, not bool")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value {value!r} is not a weight")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _validate_weights(ws: Sequence) -> None:
    """Weights (ints or Fractions) must be non-negative and at least one
    must be positive (the paper's problems require ``W != 0``)."""
    if not ws:
        raise ValueError("weight vector must be non-empty")
    if min(ws) < 0:
        i = next(i for i, w in enumerate(ws) if w < 0)
        raise ValueError(f"weight #{i} is negative ({ws[i]}); weights are R>=0")
    if not any(ws):
        raise ValueError("total weight W must be non-zero")


def normalize_weights(weights: Iterable[Number]) -> tuple[Fraction, ...]:
    """Validate and convert a weight sequence to exact fractions.

    Weights must be non-negative and at least one must be positive (the
    paper's problems require ``W != 0``).

    Already-normalized vectors (tuples of :class:`Fraction`) are validated
    and returned as they are, without ``n`` redundant conversions.
    """
    if isinstance(weights, tuple) and all(type(w) is Fraction for w in weights):
        ws = weights
    else:
        ws = tuple(as_fraction(w) for w in weights)
    _validate_weights(ws)
    return ws


def scale_weights_exact(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale rational weights to exact integers.

    Returns ``(int_weights, denominator)`` where
    ``int_weights[i] == weights[i] * denominator`` exactly, with
    ``denominator`` the LCM of all weight denominators.
    """
    denom = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (denom // w.denominator) for w in weights], denom


def scale_ints_rounded(
    ints: Sequence[int], num: int, den: int, *, round_up: bool
) -> np.ndarray:
    """``ints[i] * num / den`` rounded down or up to ``int64``."""
    bump = den - 1 if round_up else 0
    return np.array([(a * num + bump) // den for a in ints], dtype=np.int64)


def close_runs(keys: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The positions in sorted float ``keys`` that a float sort cannot be
    trusted to order -- the runs whose adjacent members are at most
    ``tol`` apart -- ascending, and the number (from 0) of each one's run,
    so that one exact sort by ``(run, exact key)`` re-orders them all."""
    linked = np.zeros(len(keys) + 1, dtype=bool)  # key i is close to key i - 1
    np.less_equal(keys[1:] - keys[:-1], tol, out=linked[1:-1])
    members = (linked[:-1] | linked[1:]).nonzero()[0]
    return members, (~linked[members]).cumsum() - 1


class WeightArrays(NamedTuple):
    """A view's weights as numpy arrays, built once per view.

    The float forms order and locate; the limbs decide.  ``floats`` are
    ``a_i >> float_shift``, with the shift chosen so that the total (and so
    any capacity or prefix sum, all at most ``W``) converts to a finite
    float; float rounding is monotone, so ``floats[i] > float(x >>
    float_shift)`` proves ``a_i > x``.  The limbs are exact:
    ``a_i == sum(limbs[l, i] << (limb_bits * l))``, one int64 row of the
    weights themselves when the total fits int64 (the floats are converted
    from that row) and 31-bit limbs when it does not, so a cumulative sum
    of any row never overflows.  Every entry of party ``i`` depends on
    ``a_i`` and the layout alone, which lets a patched view rewrite only
    the parties it changed (:meth:`patched`).
    """

    #: ``log a_i``; ``-inf`` for a zero weight
    logs: np.ndarray
    floats: np.ndarray
    float_shift: int
    limbs: np.ndarray
    limb_bits: int

    @classmethod
    def of(cls, ints: list[int], total: int) -> "WeightArrays":
        """The arrays of weights ``ints`` that sum to ``total``, which sets
        the layout: the float shift and the limb width and count."""
        # Below 2**1000, every sum of weights is a finite float (< 2**1024).
        shift = max(0, total.bit_length() - 1000)
        if total >> 63 == 0:  # one conversion: the floats are the row's
            limb_bits, limbs = 63, np.array([ints], dtype=np.int64)
            floats = limbs[0].astype(np.float64)
        else:
            limb_bits, exact = _LIMB_BITS, np.array(ints, dtype=object)
            count = -(-total.bit_length() // _LIMB_BITS)
            limbs = np.array(
                [(exact >> (_LIMB_BITS * l)) & ((1 << _LIMB_BITS) - 1) for l in range(count)],
                dtype=np.int64,
            )
            floats = np.array([a >> shift for a in ints] if shift else ints, dtype=np.float64)
        if shift:  # past the float range: logs of the exact ints
            logs = np.array([math.log(a) if a else -math.inf for a in ints])
        else:
            logs = np.log(floats, out=np.full(len(ints), -math.inf), where=floats > 0)
        return cls(logs, floats, shift, limbs, limb_bits)

    def patched(
        self, ints: list[int], total: int, changed: list[int]
    ) -> Optional["WeightArrays"]:
        """The arrays of ``ints`` (summing to ``total``), which differ from
        these arrays' weights only at the ascending indices ``changed``
        (indices from the old length up are joining parties): a copy with
        those parties rewritten, bitwise equal to ``WeightArrays.of(ints,
        total)``.  ``None`` when ``total`` calls for another layout."""
        new = WeightArrays.of([ints[i] for i in changed], total)
        if (new.float_shift, new.limb_bits, len(new.limbs)) != (
            self.float_shift, self.limb_bits, len(self.limbs)
        ):
            return None
        out = []
        for old, column in zip(
            (self.logs, self.floats, self.limbs), (new.logs, new.floats, new.limbs)
        ):
            arr = np.empty(old.shape[:-1] + (len(ints),), old.dtype)
            arr[..., : old.shape[-1]] = old
            arr[..., changed] = column
            out.append(arr)
        return new._replace(logs=out[0], floats=out[1], limbs=out[2])


class ScaledWeights(Sequence):
    """The one exact integer scaling of a weight vector that a solve reads.

    ``ints[i] == w_i * denom`` exactly, ``total`` is their integer sum
    ``W * denom`` and ``shift`` is the ``K`` of the module docstring
    (``2**shift >= max(ints)**2``, plus slack).  The price stream, the
    density order, the greedy bounds, the strict capacities and the rounded
    ``int64`` scalings all compute on these integers, and whoever solves
    and then re-checks hands the *same* view to both steps.

    As a sequence the view yields the weights as :class:`Fraction` (built
    on first use), so it can stand wherever a normalized weight vector is
    expected.  Its numpy forms, :attr:`arrays`, are built on first use
    too, and shared by the price stream and the checker.  Treat ``ints``
    as read-only.
    """

    __slots__ = ("ints", "denom", "total", "shift", "_fractions", "_arrays")

    def __init__(self, weights: Iterable[Number]) -> None:
        if isinstance(weights, (tuple, list)) and set(map(type, weights)) <= {int}:
            # Stake snapshots are plain ints: skipping n Fraction
            # constructions is 67 ms -> 3 ms on Algorand's 42 920 parties.
            ints, denom, fractions = list(weights), 1, None
            _validate_weights(ints)
        elif isinstance(weights, np.ndarray) and weights.dtype.kind in "iu":
            ints, denom, fractions = weights.tolist(), 1, None
            _validate_weights(ints)
        else:
            fractions = normalize_weights(weights)
            ints, denom = scale_weights_exact(fractions)
        shift = 2 * (max(ints).bit_length() + _KEY_SLACK_BITS)
        self._set(ints, denom, sum(ints), shift, fractions)

    def _set(
        self,
        ints: list[int],
        denom: int,
        total: int,
        shift: int,
        fractions: Optional[tuple[Fraction, ...]],
    ) -> None:
        if total <= 0:
            raise ValueError("total weight W must be non-zero")
        self.ints = ints
        self.denom = denom
        self.total = total
        self.shift = shift
        self._fractions = fractions
        self._arrays: Optional[WeightArrays] = None

    @property
    def arrays(self) -> WeightArrays:
        """The weights' log, float and limb arrays (built on first use)."""
        if self._arrays is None:
            self._arrays = WeightArrays.of(self.ints, self.total)
        return self._arrays

    @classmethod
    def of(cls, weights: "Iterable[Number] | ScaledWeights") -> "ScaledWeights":
        """``weights`` itself when it already is a view, else its scaling."""
        return weights if isinstance(weights, cls) else cls(weights)

    def patched(self, changes: Mapping[int, Number]) -> "ScaledWeights":
        """The view of this vector with ``changes`` (party index -> new
        weight) applied, in ``O(len(changes))`` arithmetic.

        Indices from ``len(self)`` up append joining parties.  The result
        keeps ``denom`` and ``shift``, so keys computed on it compare with
        keys computed on this view.  Raises :class:`ValueError` when that
        cannot be kept exact -- a new weight is not a multiple of
        ``1 / denom``, or is too heavy for ``shift`` -- and a fresh scaling
        has to be built instead.

        When this view's :attr:`arrays` exist and the new total keeps their
        layout, the result's are a copy with only the changed and joining
        parties rewritten (:meth:`WeightArrays.patched`); otherwise they
        are built on first use, as for any view.
        """
        ints, total, changed = self.ints.copy(), self.total, sorted(changes)
        for i in changed:
            scaled = as_fraction(changes[i]) * self.denom
            a = scaled.numerator
            if scaled.denominator != 1:
                raise ValueError(
                    f"weight #{i} ({changes[i]}) needs a new common denominator"
                )
            if a < 0:
                raise ValueError(
                    f"weight #{i} is negative ({changes[i]}); weights are R>=0"
                )
            if 2 * a.bit_length() > self.shift:
                raise ValueError(
                    f"weight #{i} ({changes[i]}) outgrows the key precision"
                )
            if i < len(ints):
                total += a - ints[i]
                ints[i] = a
            elif i == len(ints):
                total += a
                ints.append(a)
            else:
                raise ValueError("joining parties must extend the vector contiguously")
        view = object.__new__(ScaledWeights)
        view._set(ints, self.denom, total, self.shift, None)
        if self._arrays is not None:
            view._arrays = self._arrays.patched(ints, total, changed)
        return view

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        """The weights as exact fractions (the API-boundary form)."""
        if self._fractions is None:
            denom = self.denom
            self._fractions = tuple(Fraction(a, denom) for a in self.ints)
        return self._fractions

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, index):
        return self.fractions[index]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.fractions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaledWeights):
            return NotImplemented
        if self is other:
            return True
        if self.denom == other.denom:
            return self.ints == other.ints
        # A patched view keeps its base's denominator, which need not be
        # the least one: equality is of the weights, not their scaling.
        return len(self.ints) == len(other.ints) and all(
            a * other.denom == b * self.denom for a, b in zip(self.ints, other.ints)
        )

    __hash__ = None  # type: ignore[assignment]


def _narrowest(top: int) -> Optional[str]:
    """The narrowest unsigned :mod:`array` typecode that holds ``top``."""
    return next((c for c in "BHIQ" if top >> 8 * array(c).itemsize == 0), None)


def _count(i: int, t) -> int:
    """Ticket count ``#i`` as an ``int``: counts are ints or numpy
    integers, never ``bool`` and never floats, integral or not."""
    if isinstance(t, (int, np.integer)) and not isinstance(t, bool):
        return int(t)
    raise TypeError(f"ticket count #{i} must be an integer, not {type(t).__name__}")


class TicketAssignment:
    """An integer ticket assignment ``t_1..t_n`` (the solver's output).

    Instances are immutable value objects.  ``tickets[i]`` is the number of
    tickets given to party ``i``; the paper calls the units of the assigned
    integer weights "tickets".  A count is an ``int`` or a numpy integer
    (:class:`TypeError` otherwise: a ``bool``, a float even when integral)
    and never negative (:class:`ValueError`).

    The counts are held packed, in the narrowest unsigned :mod:`array`
    that fits the largest of them (one byte a party for a typical Swiper
    output, against the eight of a tuple slot), because results outlive
    the solve: a service or an experiment that keeps one per epoch or per
    round would otherwise grow by ``8 n`` bytes each time.  When few of
    many parties hold tickets -- Swiper's usual output on a large
    committee, 97 tickets among Algorand's 42 920 parties -- only the
    holders' indices and counts are kept, whenever that is smaller.
    Either form is packed from the holders (:meth:`from_holders`), so a
    solver that has only its holders never builds the dense vector.
    """

    __slots__ = ("_packed", "_holders", "_n")

    def __init__(self, tickets: Iterable[int]) -> None:
        if not isinstance(tickets, (tuple, list)):
            tickets = tuple(tickets)
        if not set(map(type, tickets)) <= {int}:
            tickets = [_count(i, t) for i, t in enumerate(tickets)]
        if tickets and min(tickets) < 0:
            i = next(i for i, t in enumerate(tickets) if t < 0)
            raise ValueError(f"ticket count #{i} is negative ({tickets[i]})")
        holders = list(compress(range(len(tickets)), tickets))
        self._pack(len(tickets), holders, [tickets[i] for i in holders])

    @classmethod
    def from_holders(cls, n: int, holders, counts) -> "TicketAssignment":
        """The assignment over ``n`` parties with ``counts[k]`` tickets at
        party ``holders[k]`` and none elsewhere, packed exactly as the
        dense vector would be.  ``holders`` ascend and ``counts`` are
        positive: sequences or integer arrays, such as
        :meth:`repro.core.prices.PriceStream.sparse_counts` returns."""
        assignment = object.__new__(cls)
        assignment._pack(n, holders, counts)
        return assignment

    def _pack(self, n: int, holders, counts) -> None:
        self._n = n
        #: ascending holder indices when ``_packed`` holds only their counts
        self._holders: Optional[array] = None
        code = _narrowest(
            int(counts.max(initial=0)) if isinstance(counts, np.ndarray) else max(counts, default=0)
        )
        if code is None:
            # Counts past 64 bits (no solver makes them) stay a dense tuple.
            dense = [0] * n
            for i, t in zip(holders, counts):
                dense[i] = t
            self._packed = tuple(dense)
            return
        packed = np.asarray(counts, dtype=code)  # numpy reads array typecodes
        at = np.asarray(holders, dtype=np.intp)
        index = _narrowest(n)
        if len(at) * (np.dtype(index).itemsize + packed.itemsize) < n * packed.itemsize:
            self._holders = array(index, at.astype(index).tobytes())
        else:
            dense = np.zeros(n, dtype=code)
            dense[at] = packed
            packed = dense
        self._packed = array(code, packed.tobytes())

    def sparse_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending holder indices (``intp``) and their positive counts
        (of the packed unsigned type, objects past 64 bits), as arrays."""
        if isinstance(self._packed, tuple):
            counts = np.array(self._packed, dtype=object)
        else:
            counts = np.array(self._packed)  # numpy reads the buffer's typecode
        if self._holders is not None:
            return np.array(self._holders, dtype=np.intp), counts
        indices = np.flatnonzero(counts)
        return indices, counts[indices]

    def _dense(self):
        """The counts party by party."""
        if self._holders is None:
            return self._packed
        dense = array(self._packed.typecode, bytes(self._n * self._packed.itemsize))
        for i, t in zip(self._holders, self._packed):
            dense[i] = t
        return dense

    @property
    def tickets(self) -> tuple[int, ...]:
        """The counts as a tuple (built on each access)."""
        return tuple(self._dense())

    def __eq__(self, other: object) -> bool:
        # Equal counts pack alike, so comparing the packed forms is enough.
        if not isinstance(other, TicketAssignment):
            return NotImplemented
        return (self._n, self._holders, self._packed) == (other._n, other._holders, other._packed)

    def __hash__(self) -> int:
        return hash(self.tickets)

    def __repr__(self) -> str:
        return f"TicketAssignment(tickets={self.tickets})"

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(self._dense())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._dense()[index])
        if self._holders is None:
            return self._packed[index]
        i = range(self._n)[index]  # bounds and negative indices as for a tuple
        k = bisect_left(self._holders, i)
        return self._packed[k] if k < len(self._holders) and self._holders[k] == i else 0

    # -- aggregate metrics used throughout the paper's evaluation -----------
    @property
    def total(self) -> int:
        """``T``: the total number of tickets (the minimized objective)."""
        return sum(self._packed)

    @property
    def max_tickets(self) -> int:
        """The largest number of tickets held by a single party."""
        return max(self._packed, default=0)

    @property
    def holders(self) -> int:
        """Number of parties holding at least one ticket ("# Holders")."""
        return sum(1 for t in self._packed if t > 0)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of parties holding at least one ticket."""
        return tuple(compress(range(self._n), self._dense()))

    def subset_total(self, subset: Iterable[int]) -> int:
        """``t(S)``: total tickets held by the parties in ``subset``."""
        return sum(self[i] for i in subset)

    def to_list(self) -> list[int]:
        """Return the tickets as a plain list (defensive copy)."""
        return list(self._dense())

    @staticmethod
    def zeros(n: int) -> "TicketAssignment":
        """The all-zero assignment over ``n`` parties (never *viable*)."""
        return TicketAssignment.from_holders(n, (), ())


def weight_of(weights: Sequence[Fraction], subset: Iterable[int]) -> Fraction:
    """``w(S)``: total weight of the parties in ``subset``."""
    return sum((weights[i] for i in subset), start=Fraction(0))
