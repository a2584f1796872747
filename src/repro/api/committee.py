"""The :class:`Committee` value object: a weighted party set with provenance.

A committee is the noun every layer of the pipeline shares: the solvers
take its weights, the quorum policies take its normalized fractions, the
scenario harness sizes clusters from it, and the CLI validates user
input against it.  It is immutable, built from inline values, a weights
file, a chain snapshot or any :class:`~repro.datasets.WeightSpec`, and
deterministic -- building the same spec with the same seed yields an
equal committee.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..core.types import Number, as_fraction, normalize_weights
from ..datasets import WeightSpec, load_chain

__all__ = ["Committee", "CommitteeValidationError"]


class CommitteeValidationError(ValueError):
    """An infeasible committee/parameter combination.

    A :class:`ValueError` subclass so pre-facade ``except ValueError``
    paths keep working; carries a stable payload shape for the CLI's
    machine-readable error output (every invalid combination exits with
    status 2 and the same ``{"error": ...}`` JSON object).
    """

    def as_payload(self) -> dict:
        return {"error": str(self)}


@dataclass(frozen=True)
class Committee:
    """An immutable weighted party set.

    ``weights`` are kept exactly as given (ints for every
    :class:`~repro.datasets.WeightSpec`; fraction strings survive
    untouched until normalization).  ``normalized`` is the exact-rational
    view consumed by solvers and quorum policies.
    """

    weights: tuple[Number, ...]
    provenance: str = "inline"
    seed: int = 0
    normalized: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        # Normalization doubles as validation: non-empty, no negatives,
        # W > 0 -- the invariants every consumer may assume.
        object.__setattr__(self, "normalized", normalize_weights(self.weights))

    # -- constructors ------------------------------------------------------------------
    @classmethod
    def from_weights(
        cls, values: Iterable[Number], *, provenance: str = "inline"
    ) -> "Committee":
        return cls(weights=tuple(values), provenance=provenance)

    @classmethod
    def from_file(cls, path: str) -> "Committee":
        """One weight per line; blank lines are skipped (CLI ``--weights-file``)."""
        with open(path) as fh:
            values = [line.strip() for line in fh if line.strip()]
        if not values:
            raise ValueError(f"weights file {path!r} contains no weights")
        return cls(weights=tuple(values), provenance=f"file:{path}")

    @classmethod
    def from_chain(cls, chain: str) -> "Committee":
        """A full calibrated chain snapshot, in snapshot order."""
        return cls(weights=load_chain(chain).weights, provenance=f"chain:{chain}")

    @classmethod
    def synthetic(
        cls, kind: str, n: int, total: int, *, skew: float = 1.0, seed: int = 0
    ) -> "Committee":
        spec = WeightSpec(kind, n=n, total=total, skew=skew)
        return cls.from_weight_spec(spec, seed=seed)

    @classmethod
    def uniform(cls, n: int) -> "Committee":
        """The egalitarian committee (one vote each): the nominal model."""
        if n < 1:
            raise CommitteeValidationError("a committee needs at least one party")
        return cls(weights=(1,) * n, provenance=f"uniform[{n}]")

    @classmethod
    def from_weight_spec(cls, spec: WeightSpec, *, seed: int = 0) -> "Committee":
        """Materialize ``spec`` (deterministically in ``seed``)."""
        return cls(
            weights=tuple(spec.materialize(seed)), provenance=spec.describe(), seed=seed
        )

    # -- views -------------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        return self.n

    @property
    def total_weight(self) -> Fraction:
        return sum(self.normalized, start=Fraction(0))

    @property
    def int_weights(self) -> list[int]:
        """The weights as plain ints (every built-in source yields ints);
        raises when a weight is not integral."""
        out = []
        for i, w in enumerate(self.normalized):
            if w.denominator != 1:
                raise ValueError(f"weight #{i} ({w}) is not an integer")
            out.append(int(w))
        return out

    @property
    def weights_digest(self) -> str:
        """Short stable fingerprint, matching the scenario engine's
        historical ``sha256(repr(materialized list))[:16]`` convention so
        facade-produced records stay byte-identical to pre-facade ones."""
        return hashlib.sha256(repr(self.int_weights).encode()).hexdigest()[:16]

    def weight_of(self, parties: Iterable[int]) -> Fraction:
        return sum((self.normalized[i] for i in set(parties)), start=Fraction(0))

    # -- integrations ------------------------------------------------------------------
    def quorums(self, f_w: Number = Fraction(1, 3)):
        """Weighted quorum thresholds over this committee
        (:class:`repro.weighted.quorum.WeightedQuorums`)."""
        from ..weighted.quorum import WeightedQuorums

        return WeightedQuorums.for_committee(self, f_w)

    def solve(self, problem, policy: str = "swiper", *, verify: bool = True):
        """Solve a weight-reduction problem on this committee via a named
        :mod:`~repro.api.policy` entry; returns ``TicketAssignmentResult``."""
        from .policy import solve_with_policy

        return solve_with_policy(problem, self, policy, verify=verify)

    # -- validation --------------------------------------------------------------------
    def validate(
        self,
        *,
        expect_n: Optional[int] = None,
        f_w: Optional[Number] = None,
        crashes: Sequence[int] = (),
        partition: Sequence[Sequence[int]] = (),
        link_delays: Sequence[tuple] = (),
        payload_size: Optional[int] = None,
        epochs: Optional[int] = None,
        weight_budget: bool = True,
    ) -> None:
        """Reject infeasible parameter combinations in one place.

        The scenario harness (hence ``repro cluster`` and ``repro
        scenario``) and the service route their feasibility checks
        through here, so an invalid combination produces the same error
        text, exit status (2) and JSON error shape everywhere.  The crash
        set must stay under the ``f_w*W`` budget unless ``weight_budget``
        is off (nominal quorums count parties instead).  Raises
        :class:`CommitteeValidationError`; passes silently when
        everything is feasible.
        """
        n = self.n
        if expect_n is not None and expect_n != n:
            raise CommitteeValidationError(
                f"--n {expect_n} does not match the {n} provided weights"
            )
        f = None
        if f_w is not None:
            f = as_fraction(f_w)
            if not 0 < f < Fraction(1, 2):
                raise CommitteeValidationError("f_w must be in (0, 1/2)")
        if payload_size is not None and payload_size < 1:
            raise CommitteeValidationError("payload_size must be positive")
        if epochs is not None and epochs < 1:
            raise CommitteeValidationError("epochs must be positive")

        referenced = set(crashes)
        referenced.update(pid for group in partition for pid in group)
        referenced.update(pid for (src, dst, *_rest) in link_delays for pid in (src, dst))
        bad = sorted(pid for pid in referenced if not 0 <= pid < n)
        if bad:
            raise CommitteeValidationError(
                f"fault plan references pids {bad} out of range for {n} parties"
            )
        crash_set = set(crashes)
        if crash_set and len(crash_set) == n:
            raise CommitteeValidationError(
                "fault plan crashes every party; nothing left to run"
            )
        if f is not None and weight_budget and crash_set:
            # Refuse crash sets that make weighted quorums provably
            # unreachable -- the run would only burn its timeout.
            crashed_weight = self.weight_of(crash_set)
            budget = f * self.total_weight
            if crashed_weight >= budget:
                raise CommitteeValidationError(
                    f"crash set holds weight {crashed_weight} >= the "
                    f"resilience budget f_w*W = {budget}; quorums can never form"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Committee(n={self.n}, source={self.provenance!r}, seed={self.seed})"
