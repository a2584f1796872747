"""Epoch management: weight schedules and committee re-formation.

A long-lived service outlives its committee: stake moves, parties bond
and unbond, and every rotation must re-resolve the weight vector and
re-run the solver policy to form the next :class:`~repro.api.Committee`.
The :class:`EpochManager` owns that pipeline.  Its solver is the
:class:`~repro.api.policy.IncrementalSolver`, so a rotation caused by a
small stake delta (the common case -- one party's weight moved) reuses
the previous epoch's memoized price stream instead of re-solving cold;
the resulting ticket assignment is identical to a cold solve by
construction.

Weight evolution is described by a :class:`DriftSchedule` -- the
service-side analogue of :class:`~repro.datasets.WeightSpec`: where a
spec materializes one vector per seed, a schedule resolves one vector
per *epoch*: an initial vector plus dated per-party deltas, with
optional scenario-time events that *trigger* rotations (the third
rotation trigger next to slot-count and wall-clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..api.committee import Committee, CommitteeValidationError
from ..api.policy import IncrementalSolver, TicketAssignmentResult
from ..core.problems import WeightRestriction
from ..core.types import Number

__all__ = ["DriftSchedule", "EpochManager"]


@dataclass(frozen=True)
class DriftSchedule:
    """An initial vector plus dated stake deltas.

    ``drifts`` entries are ``(epoch, party, new_weight)``: from ``epoch``
    on, ``party`` weighs ``new_weight``.  A party index one past the end
    of the current vector is a *join* (the vector grows); weights set to
    zero model unbonding without shrinking the index space.  ``times``
    lists scenario times at which the service should rotate because the
    schedule changed (weight-delta events).
    """

    initial: tuple[Number, ...]
    drifts: tuple[tuple[int, int, Number], ...] = ()
    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(
            self, "drifts", tuple((int(e), int(i), w) for e, i, w in self.drifts)
        )
        object.__setattr__(self, "times", tuple(self.times))
        if not self.initial:
            raise ValueError("drift schedule needs a non-empty initial vector")

    def resolve(self, epoch: int) -> list[Number]:
        ws = list(self.initial)
        # Apply in (epoch, declaration) order so later drifts win.
        for e, i, w in sorted(self.drifts, key=lambda d: d[0]):
            if e > epoch:
                continue
            if i == len(ws):
                ws.append(w)
            elif 0 <= i < len(ws):
                ws[i] = w
            else:
                raise CommitteeValidationError(
                    f"drift for epoch {e} names party {i}, but the committee "
                    f"has {len(ws)} parties (joins must be contiguous)"
                )
        return ws

    def event_times(self) -> tuple[float, ...]:
        """Scenario times at which the service rotates because the
        schedule changed."""
        return self.times


class EpochManager:
    """Form each epoch's committee and ticket assignment.

    One manager per service.  ``next_committee(epoch)`` resolves the
    schedule, validates the committee (every infeasibility surfaces as
    :class:`CommitteeValidationError` carrying the epoch, which the CLI
    renders as the uniform ``{"error": ...}`` exit-2 object), and re-runs
    the incremental ticket solve that backs the epoch's threshold setup.
    """

    def __init__(
        self,
        schedule: DriftSchedule,
        *,
        f_w: Number = "1/3",
    ) -> None:
        self.schedule = schedule
        self.f_w = f_w
        # WR(f_w, 1/2) is the service's threshold-primitive problem (the
        # common-coin / checkpoint transformation of Sections 4.1 / 4.3).
        self.solver = IncrementalSolver(WeightRestriction(f_w, "1/2"))

    def next_committee(
        self, epoch: int
    ) -> tuple[Committee, TicketAssignmentResult]:
        try:
            weights = self.schedule.resolve(epoch)
            committee = Committee.from_weights(
                weights, provenance=f"schedule[epoch {epoch}]"
            )
            committee.validate(f_w=self.f_w)
            tickets = self.solver.solve(committee.normalized)
        except CommitteeValidationError as exc:
            raise CommitteeValidationError(
                f"epoch {epoch} rotation failed: {exc}"
            ) from exc
        except (ValueError, ZeroDivisionError) as exc:
            # Normalization failures (negative / all-zero weights) and the
            # like become the same uniform validation error, so a service
            # rotation never dies with a bare traceback.
            raise CommitteeValidationError(
                f"epoch {epoch} rotation failed: {exc}"
            ) from exc
        return committee, tickets

    @property
    def last_solver_mode(self) -> Optional[str]:
        """How the latest re-solve ran: ``"cold"`` or ``"incremental"``."""
        return self.solver.last_mode
