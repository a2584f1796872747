"""Liveness watchdog: turn a silent stall into a structured postmortem.

A run under chaos can legitimately never complete (an unhealed partition
below the deliver quorum, weather that loses messages, an equivocating
sender) -- that is *expected no-liveness*, and the interesting question
is only what state the cluster froze in.  A run that was expected to
complete but went quiescent without doing so is a *genuine stall* -- a
bug in the protocol or the harness.  The watchdog distinguishes the two
via the adversary/chaos liveness claim and, either way, assembles a
postmortem bundle (per-link last-N message trace, fault and weather
counters, the chaos timeline with fired flags) that rides on
the scenario record instead of a bare ``TimeoutError``.

The watchdog is a post-hoc classifier on every backend: *when* a run
ends is the harness's one stop rule
(:class:`repro.scenarios.harness._StopRule`) -- the sim runs to exact
quiescence; the live runtimes stop once the plan has nothing left to
fire and message flow has gone quiet -- at once when liveness was never
expected, after ``stall_after`` wall seconds otherwise (a postmortem in
~1 s instead of a burned timeout) -- so a run that ended without
completing *is* the stall.
"""

from __future__ import annotations

__all__ = ["LivenessWatchdog"]


class LivenessWatchdog:
    """One run's liveness monitor (see module docstring)."""

    def __init__(self, chaos, *, expect_liveness: bool = True) -> None:
        self.chaos = chaos
        self.stall_after = chaos.stall_after
        self.expect_liveness = expect_liveness
        self.stalled = False

    def observe_quiescence(self, completed: bool) -> None:
        """The run ended by the stop rule; classify the result."""
        self.stalled = not completed

    @property
    def classification(self) -> str:
        if not self.stalled:
            return "completed"
        return "expected-no-liveness" if not self.expect_liveness else "stall"

    # -- the postmortem bundle -------------------------------------------------------
    def report(self, *, faults=None, orchestrator=None) -> dict:
        """The ``watchdog`` record section; a ``postmortem`` key appears
        only for stalled runs (keeping completed records deterministic
        across backends)."""
        section: dict = {
            "stalled": self.stalled,
            "expect_liveness": self.expect_liveness,
        }
        if not self.stalled:
            return section
        section["classification"] = self.classification
        postmortem: dict = {}
        if orchestrator is not None:
            postmortem["stages"] = orchestrator.describe_stages()
        if faults is not None:
            postmortem["dropped_messages"] = faults.dropped_messages
            postmortem["delayed_messages"] = faults.delayed_messages
            postmortem["partitioned"] = faults.partitioned
            postmortem["crashed"] = sorted(faults.crashed)
            postmortem["trace"] = [list(entry) for entry in faults.trace]
            if faults.weather is not None:
                postmortem["weather"] = faults.weather.describe()
        section["postmortem"] = postmortem
        return section
