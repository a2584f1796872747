"""The solver-policy registry: one name, one way to turn a committee
into tickets.

Every registered policy maps ``(problem, weights)`` to a ticket
assignment; :func:`solve_with_policy` wraps whichever one ran in a
uniform :class:`TicketAssignmentResult` carrying the theorem bound, the
achieved total, and a validity verdict.  New strategies -- an ILP warm
start, a heuristic, an external solver -- plug in through
:func:`register_policy` without touching any caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.exact import solve_exact_milp, solve_family_optimal
from ..core.prices import PriceStream
from ..core.problems import WeightQualification
from ..core.solver import Swiper, SwiperResult, is_valid_assignment
from ..core.types import ScaledWeights, TicketAssignment

__all__ = [
    "SolverPolicy",
    "TicketAssignmentResult",
    "IncrementalSolver",
    "POLICIES",
    "register_policy",
    "get_policy",
    "solve_with_policy",
]


@dataclass(frozen=True)
class TicketAssignmentResult:
    """Uniform outcome of solving a weight-reduction problem via any policy.

    Attributes
    ----------
    problem:
        The WR / WQ / WS instance that was solved.
    policy:
        Registry name of the strategy that produced the assignment.
    assignment:
        The integer ticket assignment.
    bound:
        The theorem ticket bound for this problem at this ``n`` (the
        approximation yardstick every policy is measured against).
    achieved:
        Total tickets actually allocated (``assignment.total``).
    verdict:
        ``"valid"`` / ``"invalid"`` when the assignment was checked
        against the problem definition, ``"unverified"`` when the caller
        skipped the check (large instances).
    elapsed_seconds:
        Wall-clock duration of the solve, scaling the weights included
        (excludes verification).
    probes:
        Family members examined, for policies that search (else ``None``).
    """

    problem: object
    policy: str
    assignment: TicketAssignment
    bound: int
    achieved: int
    verdict: str
    elapsed_seconds: float
    probes: Optional[int] = None

    @property
    def total_tickets(self) -> int:
        return self.achieved

    @property
    def max_tickets(self) -> int:
        return self.assignment.max_tickets

    @property
    def holders(self) -> int:
        return self.assignment.holders

    @property
    def within_bound(self) -> bool:
        return self.achieved <= self.bound

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (CLI ``--json`` and benchmark rows)."""
        return {
            "problem": str(self.problem),
            "policy": self.policy,
            "total_tickets": self.achieved,
            "ticket_bound": self.bound,
            "max_per_party": self.max_tickets,
            "ticket_holders": self.holders,
            "verdict": self.verdict,
            "solve_seconds": self.elapsed_seconds,
        }


#: parties per block of :meth:`IncrementalSolver._delta`'s comparison
_DELTA_BLOCK = 512

#: a policy's solve function: (problem, weights) -> assignment-ish
SolveFn = Callable[[object, Sequence], "TicketAssignment | SwiperResult"]


@dataclass(frozen=True)
class SolverPolicy:
    """A named ticket-assignment strategy."""

    name: str
    description: str
    fn: SolveFn


POLICIES: dict[str, SolverPolicy] = {}


def register_policy(name: str, fn: SolveFn, *, description: str = "") -> SolverPolicy:
    """Register (or replace) a policy under ``name``.

    ``fn(problem, weights)`` may return a ``TicketAssignment``, a raw
    ticket sequence, or a full ``SwiperResult``; the wrapper normalizes
    all three.  ``weights`` arrives as the committee's
    :class:`~repro.core.types.ScaledWeights` view: a sequence of exact
    ``Fraction`` weights (not the raw ints / floats / strings the
    committee was built from) that also carries the integer scaling
    (``.ints``, ``.denom``, ``.total``) and that every ``repro.core``
    entry point accepts in place of a weight list.

    This is the ``custom`` hook: applications register their
    own strategies and the whole facade (``Committee.solve``, the CLI's
    internals, benchmarks) can name them.
    """
    policy = SolverPolicy(name=name, description=description, fn=fn)
    POLICIES[name] = policy
    return policy


def get_policy(name: str) -> SolverPolicy:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown solver policy {name!r}; options: {sorted(POLICIES)}"
        ) from None


def solve_with_policy(
    problem,
    committee,
    policy: str = "swiper",
    *,
    verify: bool = True,
) -> TicketAssignmentResult:
    """Run ``policy`` on ``committee`` (anything with ``.weights``) and
    wrap the outcome uniformly.

    ``verify=True`` re-checks the assignment against the problem
    definition with the exact checker -- cheap for typical instances,
    skippable (``verdict="unverified"``) for throughput benchmarks.

    The weights are scaled to integers once; the policy and the re-check
    both receive that :class:`~repro.core.types.ScaledWeights` view, which
    reads as the sequence of exact ``Fraction`` weights.
    """
    chosen = get_policy(policy)
    start = time.perf_counter()
    weights = ScaledWeights.of(getattr(committee, "weights", committee))
    raw = chosen.fn(problem, weights)
    elapsed = time.perf_counter() - start
    probes: Optional[int] = None
    if isinstance(raw, SwiperResult):
        assignment = raw.assignment
        probes = raw.probes
    elif isinstance(raw, TicketAssignment):
        assignment = raw
    else:
        assignment = TicketAssignment(raw)
    bound = problem.ticket_bound(len(assignment))
    if verify:
        verdict = (
            "valid" if is_valid_assignment(problem, weights, assignment) else "invalid"
        )
    else:
        verdict = "unverified"
    return TicketAssignmentResult(
        problem=problem,
        policy=chosen.name,
        assignment=assignment,
        bound=bound,
        achieved=assignment.total,
        verdict=verdict,
        elapsed_seconds=elapsed,
        probes=probes,
    )


class IncrementalSolver:
    """Epoch-over-epoch ticket re-solver that reuses the memoized price
    stream when only a few weights changed.

    The epoch service re-forms its committee every rotation, usually after
    a small stake delta (one party bonding or unbonding).  A cold Swiper
    solve selects the cheapest-ticket prefix afresh, down to the first
    binary-search probe, over all ``n`` price ladders.  This solver keeps
    the previous epoch's :class:`~repro.core.prices.PriceStream` and, when
    at most ``max_delta`` parties changed, runs the *same* binary search on
    a patched stream (see :meth:`PriceStream.patched`) that replays the
    kept prefix and merges in only the changed parties' ladders.

    The result is equal to a cold solve **by construction**: the patched
    stream enumerates bitwise-identical picks, so every probe sees the
    same holders, every checker verdict matches, and the search walks the same
    ``lo``/``hi`` path to the same family member.  This matters because
    family validity is *not* monotone in the total -- a warm-started
    search from the previous answer can land on a different local
    minimum, so replaying the cold search is the only incremental
    strategy that keeps every party's locally computed assignment in
    agreement.

    Not thread-safe; one instance per (service, problem).
    """

    #: patched-stream chains longer than this are flattened (``compact``)
    #: before being cached, bounding per-extension overhead for services
    #: that rotate many times
    _MAX_CHAIN = 8

    def __init__(
        self,
        problem,
        *,
        mode: str = "full",
        use_quick_test: bool = True,
        max_delta: int = 16,
        verify: bool = False,
    ) -> None:
        self.problem = problem
        self.max_delta = max_delta
        self.verify = verify
        self._swiper = Swiper(mode=mode, use_quick_test=use_quick_test)
        self._effective = (
            problem.to_restriction()
            if isinstance(problem, WeightQualification)
            else problem
        )
        self._c = self._effective.rounding_constant
        self._raw: Optional[list] = None
        self._stream: Optional[PriceStream] = None
        self._assignment: Optional[TicketAssignment] = None
        #: ``"cold"`` or ``"incremental"`` -- how the last solve ran
        self.last_mode: Optional[str] = None
        #: parties whose weight differed from the cached epoch (cold: n)
        self.last_changed: int = 0
        self.solves = 0
        self.incremental_hits = 0

    def _delta(self, raw: list) -> Optional[list[int]]:
        """Changed party indices vs the cached epoch, or ``None`` when the
        cache cannot be reused (first solve, shrink, or large delta)."""
        old = self._raw
        if old is None or self._stream is None or len(raw) < len(old):
            return None
        # List comparison runs in C: only blocks that differ are scanned.
        changed = [
            i
            for lo in range(0, len(old), _DELTA_BLOCK)
            if raw[lo : lo + _DELTA_BLOCK] != old[lo : lo + _DELTA_BLOCK]
            for i in range(lo, min(lo + _DELTA_BLOCK, len(old)))
            if raw[i] != old[i]
        ]
        changed.extend(range(len(old), len(raw)))
        if len(changed) > self.max_delta:
            return None
        return changed

    def solve(self, weights: Sequence) -> TicketAssignmentResult:
        """Solve for ``weights``, incrementally when the delta from the
        previous call is small; returns the same
        :class:`TicketAssignmentResult` a cold ``"swiper"`` policy solve
        would (up to timing fields)."""
        raw = list(weights)
        changed = self._delta(raw)
        stream = None
        if changed is not None:
            try:
                # The patched stream carries the view patched in O(delta).
                stream = (
                    self._stream.patched({i: raw[i] for i in changed})
                    if changed
                    else self._stream
                )
            except ValueError:
                pass
        if stream is not None:
            self.last_mode = "incremental"
            self.last_changed = len(changed)
            self.incremental_hits += 1
        else:
            stream = PriceStream(raw, self._c)
            self.last_mode = "cold"
            self.last_changed = len(raw)
        self.solves += 1
        raw_result = self._swiper.solve(self.problem, stream.scaled, stream=stream)
        # Results outlive the solve: an epoch that moved no ticket hands
        # back the previous epoch's object, not a second packed copy.
        assignment = raw_result.assignment
        if assignment == self._assignment:
            assignment = self._assignment
        self._assignment = assignment
        self._raw = raw
        self._stream = (
            stream.compact() if stream._chain >= self._MAX_CHAIN else stream
        )
        if self.verify:
            verdict = (
                "valid"
                if is_valid_assignment(self.problem, stream.scaled, assignment)
                else "invalid"
            )
        else:
            verdict = "unverified"
        return TicketAssignmentResult(
            problem=self.problem,
            policy="swiper",
            assignment=assignment,
            bound=raw_result.ticket_bound,
            achieved=assignment.total,
            verdict=verdict,
            elapsed_seconds=raw_result.elapsed_seconds,
            probes=raw_result.probes,
        )


# -- built-in policies -----------------------------------------------------------------

register_policy(
    "swiper",
    lambda problem, weights: Swiper(mode="full").solve(problem, weights),
    description="binary search over the ticket family, knapsack-backed checks",
)
register_policy(
    "swiper-linear",
    lambda problem, weights: Swiper(mode="linear").solve(problem, weights),
    description="quasilinear quick-test-only mode (paper's --linear)",
)
register_policy(
    "milp",
    solve_exact_milp,
    description="true optimum over all integer assignments (Appendix B, n <= 16)",
)
register_policy(
    "brute-force",
    solve_family_optimal,
    description="globally minimal family member via the exact oracle (n <= 20)",
)
