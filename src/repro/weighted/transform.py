"""The paper's transformations, packaged as setup helpers.

* :func:`blunt_setup` -- Theorem 4.2: solve ``WR(f_w, alpha_n)`` and
  return the virtual-user map plus the nominal threshold, turning any
  nominal threshold primitive into a weighted one with a *blunt* access
  structure.
* :func:`black_box_setup` -- Section 4.4: for a nominal protocol with
  resilience ``f_n``, choose ``f_w = f_n - epsilon`` and solve
  ``WR(f_w, f_n)``; the nominal protocol then runs among ``T`` virtual
  users of which the adversary controls less than a fraction ``f_n``,
  and :meth:`BlackBoxSetup.real_outputs` maps their outputs back.
* :func:`qualification_setup` -- Section 5: solve ``WQ(beta_w, beta_n)``
  for erasure/error-coded protocols, returning the fragment layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..core.problems import WeightQualification, WeightRestriction
from ..core.solver import Swiper, SwiperResult
from ..core.types import Number, TicketAssignment, as_fraction, normalize_weights
from .quorum import Tally, WeightedQuorums
from .virtual import VirtualUserMap

__all__ = [
    "BluntSetup",
    "BlackBoxSetup",
    "QualificationSetup",
    "ErrorCorrectionSetup",
    "blunt_setup",
    "black_box_setup",
    "qualification_setup",
    "error_correction_setup",
]


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class BluntSetup:
    """Weighted threshold primitive setup (Theorem 4.2).

    ``threshold`` is the nominal share threshold ``ceil(alpha_n * T)``;
    instantiate the nominal ``(T, threshold)`` primitive and give party
    ``i`` the virtual users ``vmap.virtual_ids(i)``.
    """

    result: SwiperResult
    vmap: VirtualUserMap
    alpha_n: Fraction
    threshold: int

    @property
    def total_virtual(self) -> int:
        return self.vmap.total_virtual


def blunt_setup(
    weights: Sequence[Number],
    f_w: Number,
    alpha_n: Number,
    *,
    mode: str = "full",
) -> BluntSetup:
    """Solve ``WR(f_w, alpha_n)`` (requires ``alpha_n <= 1/2`` for the
    honest-liveness half of bluntness) and package the virtual-user map."""
    aw, an = as_fraction(f_w), as_fraction(alpha_n)
    if an > Fraction(1, 2):
        raise ValueError(
            "blunt access structures need alpha_n <= 1/2 (Theorem 4.2)"
        )
    result = Swiper(mode=mode).solve(WeightRestriction(aw, an), weights)
    vmap = VirtualUserMap(result.assignment)
    threshold = _ceil_frac(an * vmap.total_virtual)
    return BluntSetup(result=result, vmap=vmap, alpha_n=an, threshold=threshold)


@dataclass(frozen=True)
class BlackBoxSetup:
    """Black-box transformation setup (Section 4.4).

    Run the nominal protocol among ``vmap.total_virtual`` virtual users
    with nominal resilience ``f_n``; the weighted protocol tolerates
    corrupt weight below ``f_w = f_n - epsilon``.  ``weights`` are the
    weights the WR problem was solved on.
    """

    result: SwiperResult
    vmap: VirtualUserMap
    f_n: Fraction
    f_w: Fraction
    weights: tuple[Fraction, ...]

    @property
    def total_virtual(self) -> int:
        return self.vmap.total_virtual

    def nominal_fault_budget(self) -> int:
        """Largest corrupt virtual-user count the nominal protocol takes:
        strictly fewer than ``f_n * T``."""
        value = self.f_n * self.vmap.total_virtual
        # strictly less than value
        if value.denominator == 1:
            return value.numerator - 1
        return value.numerator // value.denominator

    def real_outputs(self, virtual_outputs: Mapping[int, bytes]) -> dict[int, bytes]:
        """Section 4.4's output mapping: virtual decisions -> real parties.

        A ticket holder outputs its first virtual user's decision.  The
        holders' values are one :class:`~repro.weighted.quorum.Tally`
        over the weights; once a value has weight above ``f_w W``, every
        other party outputs the first such value to appear, in party
        order.
        """
        quorums = WeightedQuorums(self.weights)
        holders = Tally()
        real: dict[int, bytes] = {}
        for party in range(self.vmap.n_parties):
            ids = self.vmap.virtual_ids(party)
            if len(ids) > 0 and ids[0] in virtual_outputs:
                value = real[party] = virtual_outputs[ids[0]]
                holders.add(party, value, quorums.vote_weights)
        need = quorums.need(self.f_w)
        backed = [value for value, weight in holders.totals.items() if weight > need]
        if backed:
            for party in range(self.vmap.n_parties):
                real.setdefault(party, backed[0])
        return real


def black_box_setup(
    weights: Sequence[Number],
    f_n: Number,
    epsilon: Number,
    *,
    mode: str = "full",
) -> BlackBoxSetup:
    """Solve ``WR(f_n - epsilon, f_n)`` for the black-box transformation."""
    fn = as_fraction(f_n)
    eps = as_fraction(epsilon)
    if eps <= 0 or eps >= fn:
        raise ValueError("need 0 < epsilon < f_n")
    fw = fn - eps
    weights = normalize_weights(weights)
    result = Swiper(mode=mode).solve(WeightRestriction(fw, fn), weights)
    return BlackBoxSetup(
        result=result,
        vmap=VirtualUserMap(result.assignment),
        f_n=fn,
        f_w=fw,
        weights=weights,
    )


@dataclass(frozen=True)
class QualificationSetup:
    """Erasure-coding layout from a WQ solution (Section 5.1).

    Use ``(data_shards, total_shards)`` Reed-Solomon coding; party ``i``
    stores the fragments with indices ``vmap.virtual_ids(i)``.
    """

    result: SwiperResult
    vmap: VirtualUserMap
    beta_n: Fraction

    @property
    def total_shards(self) -> int:
        """``m = T``: total fragments."""
        return self.vmap.total_virtual

    @property
    def data_shards(self) -> int:
        """``k = ceil(beta_n * T)``: reconstruction threshold."""
        return _ceil_frac(self.beta_n * self.vmap.total_virtual)

    @property
    def rate(self) -> Fraction:
        """Achieved code rate ``k / m`` (paper compares it to ``beta_n``)."""
        return Fraction(self.data_shards, self.total_shards)


def qualification_setup(
    weights: Sequence[Number],
    beta_w: Number,
    beta_n: Number,
    *,
    mode: str = "full",
) -> QualificationSetup:
    """Solve ``WQ(beta_w, beta_n)``: any subset heavier than ``beta_w W``
    holds more than ``beta_n T`` fragments, hence at least
    ``ceil(beta_n T)`` -- enough to reconstruct."""
    bw, bn = as_fraction(beta_w), as_fraction(beta_n)
    result = Swiper(mode=mode).solve(WeightQualification(bw, bn), weights)
    return QualificationSetup(
        result=result, vmap=VirtualUserMap(result.assignment), beta_n=bn
    )


@dataclass(frozen=True)
class ErrorCorrectionSetup:
    """Error-corrected dissemination layout (Section 5.2).

    The online-error-correction argument needs the *code rate* to satisfy
    ``beta_n >= rate + (1 - beta_n)``, i.e. ``rate <= 2 beta_n - 1`` --
    the honest fragment fraction (at least ``beta_n`` by WQ) must cover
    the data plus twice the adversarial fragment fraction (at most
    ``1 - beta_n``).  Use ``(data_shards, total_shards)`` Reed-Solomon
    coding with *error* decoding.
    """

    result: SwiperResult
    vmap: VirtualUserMap
    beta_n: Fraction
    rate: Fraction

    @property
    def total_shards(self) -> int:
        """``m = T``: total fragments."""
        return self.vmap.total_virtual

    @property
    def data_shards(self) -> int:
        """``k = floor(rate * T)`` (at least 1)."""
        k = (self.rate * self.vmap.total_virtual).numerator // (
            self.rate * self.vmap.total_virtual
        ).denominator
        return max(1, k)

    def error_budget(self, received: int) -> int:
        """Errors correctable from ``received`` fragments:
        ``(received - k) // 2``."""
        return max(0, (received - self.data_shards) // 2)


def error_correction_setup(
    weights: Sequence[Number],
    f_w: Number = Fraction(1, 3),
    rate: Number = Fraction(1, 4),
    *,
    mode: str = "full",
) -> ErrorCorrectionSetup:
    """Section 5.2's parameterization: ``beta_w = 1 - f_w`` (the honest
    weight fraction) and ``beta_n = rate/2 + 1/2`` so that honest
    fragments always out-number the data requirement plus twice the
    adversarial garbage.  Requires ``rate < 1 - 2 f_w``."""
    fw = as_fraction(f_w)
    r = as_fraction(rate)
    if not 0 < r < 1 - 2 * fw:
        raise ValueError(
            f"rate must lie in (0, {1 - 2 * fw}) for f_w={fw} (Section 5.2)"
        )
    beta_w = 1 - fw
    beta_n = r / 2 + Fraction(1, 2)
    result = Swiper(mode=mode).solve(WeightQualification(beta_w, beta_n), weights)
    return ErrorCorrectionSetup(
        result=result,
        vmap=VirtualUserMap(result.assignment),
        beta_n=beta_n,
        rate=r,
    )
