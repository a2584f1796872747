"""The epoch service: long-lived multi-committee SMR.

One :class:`EpochService` accepts requests through :meth:`submit`,
batches them into pipelined consensus *slots* driven by the composed SMR
of Section 6.1 (one weighted Bracha RBC per proposer per slot, coin-keyed
ordering), and rotates its committee between epochs: on a trigger (slot
count, scenario clock, or a weight-delta event from the
:class:`~repro.service.epoch.DriftSchedule`) it drains the open slots,
certifies the epoch's log digest with the blunt weighted threshold
signature of Section 4.3 (the checkpoint handover), re-forms the
committee via the :class:`~repro.service.epoch.EpochManager` -- whose
incremental re-solve reuses the previous epoch's price stream -- and
switches atomically to the next generation of parties.

Slots are *global*: the service's slot counter maps directly onto
``SmrParty`` epoch numbers and never resets, so the common coin (keyed by
slot id) and the committed log are continuous across rotations.  A
request's latency runs from :meth:`submit` to its slot being committed by
*every* replica of its committee -- the conservative end-to-end number.

Everything here is synchronous and backend-agnostic: the clock, timers
and party generations are the *backend*'s -- a
:class:`~repro.sim.runner.SimHost` or :class:`~repro.runtime.cluster.Cluster`,
or under the scenario harness the run's context over one.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..api.committee import Committee, CommitteeValidationError
from ..crypto.common_coin import WeightedCoin
from ..crypto.group import TEST_GROUP_256
from ..protocols.checkpointing import CheckpointParty
from ..protocols.common_coin import deterministic_coin
from ..protocols.smr import SmrParty
from ..sim.process import Party
from .epoch import EpochManager
from .load import LoadGenerator
from .metrics import EpochRecord, ServiceMetrics, ServiceResult

__all__ = ["ServiceConfig", "EpochService"]

_COUNT = struct.Struct(">I")
_REQ = struct.Struct(">II")


def encode_batch(requests: list[tuple[int, bytes]]) -> bytes:
    """Wire encoding of one proposer's slot batch: count, then
    ``(request_id, length, payload)`` per request."""
    parts = [_COUNT.pack(len(requests))]
    for rid, payload in requests:
        parts.append(_REQ.pack(rid, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_batch(data: bytes) -> list[tuple[int, bytes]]:
    (count,) = _COUNT.unpack_from(data, 0)
    offset = _COUNT.size
    out = []
    for _ in range(count):
        rid, size = _REQ.unpack_from(data, offset)
        offset += _REQ.size
        out.append((rid, data[offset : offset + size]))
        offset += size
    return out


#: most requests batched into one slot (across all proposers)
MAX_BATCH = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service run."""

    #: quorum resilience of every epoch's committee
    f_w: str = "1/3"
    #: seconds between slot-cut attempts (a slot is only cut when requests
    #: are pending, so an idle service sends nothing)
    slot_interval: float = 0.05
    #: rotate after this many slots in an epoch (0 = no slot-count trigger)
    slots_per_epoch: int = 0
    #: rotate after this much scenario time in an epoch (0 = no clock trigger)
    epoch_seconds: float = 0.0
    #: hard stop: unfinished runs abort with an error after this long
    max_time: float = 60.0
    #: high-water mark on the submit queue (0 = unbounded): submissions
    #: beyond it are rejected with an explicit retry-after instead of
    #: growing the queue without bound under overload
    max_pending: int = 0
    #: per-request deadline in scenario seconds (0 = none): requests
    #: still pending past it are shed at the next slot cut rather than
    #: committed uselessly late
    request_deadline: float = 0.0

    def __post_init__(self) -> None:
        # A non-positive interval re-arms the tick at the same instant, so
        # the clock never reaches max_time and the run never ends.
        if self.slot_interval <= 0:
            raise ValueError(f"slot_interval must be positive, got {self.slot_interval}")
        for name in ("slots_per_epoch", "epoch_seconds", "max_pending", "request_deadline"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


class _SlotState:
    """Commitment progress of one cut slot across its committee."""

    __slots__ = ("epoch", "n", "cut_at", "batches", "commits")

    def __init__(self, epoch: int, n: int, cut_at: float) -> None:
        self.epoch = epoch
        self.n = n
        self.cut_at = cut_at
        #: position -> batch payload (first commit's copy)
        self.batches: dict[int, bytes] = {}
        #: position -> replica pids that committed it
        self.commits: dict[int, set[int]] = {}

    @property
    def complete(self) -> bool:
        return len(self.commits) == self.n and all(
            len(pids) == self.n for pids in self.commits.values()
        )


class EpochService:
    """Long-lived SMR service over rotating weighted committees.

    Lifecycle: construct with a backend, an :class:`EpochManager`, and a
    config; optionally attach a :class:`LoadGenerator`; then :meth:`run`
    drives it to completion on a host (the scenario harness calls
    :meth:`start` on its run context and runs the host itself).
    ``on_committed(slot, position, payload)`` fires for every committed
    batch in global ``(slot, position)`` order -- the subscription API.
    """

    def __init__(
        self,
        backend,
        manager: EpochManager,
        config: Optional[ServiceConfig] = None,
        *,
        name: str = "service",
        seed: int = 0,
        load: Optional[LoadGenerator] = None,
        on_committed: Optional[Callable[[int, int, bytes], None]] = None,
        adversary=None,
    ) -> None:
        self.backend = backend
        self.manager = manager
        self.config = config or ServiceConfig()
        self.name = name
        self.seed = seed
        self.load = load
        self.on_committed = on_committed
        #: optional :class:`repro.adversary.Adversary` attacking epoch
        #: handovers (service-protocol strategies, e.g. bad-handover)
        self.adversary = adversary
        self.metrics = ServiceMetrics()
        # Slot ids double as SmrParty epoch numbers; one coin source is
        # shared across rotations because slot ids never repeat.
        self.coin = deterministic_coin(f"{name}|{seed}")

        # committee state (set at activation)
        self.epoch = -1
        self.committee: Optional[Committee] = None
        self.tickets = None
        #: the current committee's parties, by pid
        self.group: Sequence[Party] = ()
        self.n = 0
        #: per-epoch {pid: log digest} over the epoch's slots -- equal
        #: digests across pids are the prefix-consistency evidence
        self.epoch_party_digests: list[dict[int, str]] = []

        # request flow
        self.pending: deque[tuple[int, bytes]] = deque()
        self._submit_time: dict[int, float] = {}
        self._next_request_id = 0
        #: total requests the attached load will submit (None = open-ended)
        self.expected_requests: Optional[int] = None

        # slot flow
        self.next_slot = 0
        self._slots: dict[int, _SlotState] = {}
        self._incomplete: set[int] = set()
        self._emit_ptr = 0
        #: committed batches in emission order: (slot, position, payload)
        self.committed_log: list[tuple[int, int, bytes]] = []
        self._requests_by_epoch: dict[int, int] = {}

        # phase machine: running -> draining -> checkpoint -> running ...
        self.phase = "idle"
        self._epoch_first_slot = 0
        self._epoch_started_at = 0.0
        self._epoch_slots = 0
        self._epoch_meta: dict = {}
        self._rotation_started_at = 0.0
        self._ckpt_group: Sequence[Party] = ()
        #: generations spawned so far (each one's network seed is its own)
        self._generations = 0
        self._ckpt_digest: Optional[bytes] = None

        # outcome
        self.finished = False
        self.completed = False
        self.error: Optional[str] = None
        self.finished_at: Optional[float] = None

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> None:
        """Form epoch 0's committee and begin cutting slots."""
        self.phase = "running"
        if self.load is not None:
            self.expected_requests = self.load.total
            self.load.install(self)
        for when in self.manager.schedule.event_times():
            self.backend.call_later(when, self.trigger_rotation)
        try:
            self._activate(0, rotation_seconds=0.0)
        except CommitteeValidationError as exc:
            self._fail(str(exc))
            return
        self.backend.call_later(self.config.slot_interval, self._tick)
        self.backend.call_later(self.config.max_time, self.abort)

    def run(self) -> ServiceResult:
        """Drive to completion on the backend (a host) and return the
        result; a node failure fails the service, then raises."""
        try:
            self.backend.run(
                self.start,
                lambda: self.finished,
                timeout=self.config.max_time,
                poll=self.config.slot_interval,
                drain=False,
            )
        except TimeoutError:
            self.abort()  # the host's deadline beat the service's own
        except RuntimeError as exc:
            self.abort(f"{exc}: {exc.__cause__!r}")
            raise
        return self.result()

    def abort(self, message: Optional[str] = None) -> None:
        """Fail the run from outside its slot logic: at ``max_time`` (no
        ``message``) or on a node failure; idempotent."""
        if not self.finished:
            late = f"service did not finish within max_time={self.config.max_time}s"
            self._fail(message or late)

    # -- public API -----------------------------------------------------------------
    def submit(self, payload: bytes):
        """Enqueue one opaque request.

        Returns the request id on acceptance.  A service that cannot take
        the request answers with the uniform error shape instead (the
        same ``{"error": ...}`` object the CLI emits on failures): after
        the run has drained, ``{"error": ...}`` alone; under overload --
        the pending queue at or beyond ``config.max_pending`` -- the
        object adds ``retry_after`` (seconds) and the current queue
        depth, and the rejection is counted in ``metrics.rejected``.
        Explicit backpressure instead of an unbounded queue.
        """
        if self.finished:
            return {"error": "service has drained; request not accepted"}
        limit = self.config.max_pending
        if limit > 0 and len(self.pending) >= limit:
            self.metrics.rejected += 1
            return {
                "error": "submit queue full",
                "retry_after": self.config.slot_interval,
                "pending": len(self.pending),
            }
        rid = self._next_request_id
        self._next_request_id += 1
        self._submit_time[rid] = self.backend.now()
        self.pending.append((rid, payload))
        self.metrics.submitted += 1
        return rid

    def trigger_rotation(self) -> None:
        """External rotation trigger (weight-delta event)."""
        if self.phase != "running" or self.finished:
            return
        self.phase = "draining"
        self._rotation_started_at = self.backend.now()
        if not self._incomplete:
            self._start_checkpoint()

    @property
    def elapsed(self) -> float:
        """Scenario seconds from start to finish (to now while running)."""
        return self.finished_at if self.finished_at is not None else self.backend.now()

    def result(self) -> ServiceResult:
        elapsed = self.elapsed
        totals = self.backend.metrics
        return ServiceResult(
            completed=self.completed,
            error=self.error,
            elapsed_seconds=elapsed,
            service=self.metrics.summary(elapsed),
            messages=totals.messages,
            bytes=totals.bytes,
        )

    # -- slot cutting ---------------------------------------------------------------
    def _tick(self) -> None:
        if self.finished:
            return
        now = self.backend.now()
        if self.phase == "running":
            clock_due = (
                self.config.epoch_seconds > 0
                and now - self._epoch_started_at >= self.config.epoch_seconds
            )
            if clock_due and self._more_work_expected():
                self.trigger_rotation()
            elif self.pending:
                self._cut_slot(now)
        self._check_finished()
        if not self.finished:
            self.backend.call_later(self.config.slot_interval, self._tick)

    def _cut_slot(self, now: float) -> None:
        if self.config.request_deadline > 0:
            self._shed_expired(now)
            if not self.pending:
                return
        take = min(len(self.pending), MAX_BATCH)
        assigned: list[list[tuple[int, bytes]]] = [[] for _ in range(self.n)]
        for j in range(take):
            assigned[j % self.n].append(self.pending.popleft())
        slot = self.next_slot
        self.next_slot += 1
        self.metrics.slots_cut += 1
        self._epoch_slots += 1
        self._slots[slot] = _SlotState(self.epoch, self.n, now)
        self._incomplete.add(slot)
        # Every replica proposes -- an empty batch if it drew no requests --
        # so slot completion is uniform: n committed positions everywhere.
        for pid in range(self.n):
            self.group[pid].propose_batch(slot, encode_batch(assigned[pid]))
        if (
            self.config.slots_per_epoch > 0
            and self._epoch_slots >= self.config.slots_per_epoch
            and self._more_work_expected()
        ):
            self.trigger_rotation()

    def _shed_expired(self, now: float) -> None:
        """Overload shedding: drop pending requests older than the
        per-request deadline instead of committing them uselessly late
        (their clients have already timed out)."""
        deadline = self.config.request_deadline
        kept: deque[tuple[int, bytes]] = deque()
        while self.pending:
            rid, payload = self.pending.popleft()
            submitted_at = self._submit_time.get(rid, now)
            if now - submitted_at > deadline:
                self._submit_time.pop(rid, None)
                self.metrics.shed += 1
            else:
                kept.append((rid, payload))
        self.pending = kept

    def _more_work_expected(self) -> bool:
        if self.expected_requests is None:
            return True
        return bool(self.pending) or self.metrics.submitted < self.expected_requests

    # -- commitment -----------------------------------------------------------------
    def _on_commit(self, pid: int, slot: int, position: int, payload: bytes) -> None:
        state = self._slots.get(slot)
        if state is None or state.epoch != self.epoch:
            return  # stale delivery from a retired generation
        state.batches.setdefault(position, payload)
        state.commits.setdefault(position, set()).add(pid)
        if slot in self._incomplete and state.complete:
            self._incomplete.discard(slot)
            self._slot_completed(slot, state)

    def _slot_completed(self, slot: int, state: _SlotState) -> None:
        now = self.backend.now()
        requests = 0
        for position in sorted(state.batches):
            for rid, _payload in decode_batch(state.batches[position]):
                submitted_at = self._submit_time.pop(rid, None)
                if submitted_at is not None:
                    self.metrics.observe_latency(now - submitted_at)
                    requests += 1
        self._requests_by_epoch[state.epoch] = (
            self._requests_by_epoch.get(state.epoch, 0) + requests
        )
        self._emit_ready()
        if self.phase == "draining" and not self._incomplete:
            self._start_checkpoint()
        else:
            self._check_finished()

    def _emit_ready(self) -> None:
        """Surface committed batches to the subscriber in global
        ``(slot, position)`` order -- never ahead of an incomplete slot."""
        while self._emit_ptr < self.next_slot:
            state = self._slots.get(self._emit_ptr)
            if state is None or not state.complete:
                return
            for position in sorted(state.batches):
                payload = state.batches[position]
                self.committed_log.append((self._emit_ptr, position, payload))
                if self.on_committed is not None:
                    self.on_committed(self._emit_ptr, position, payload)
            self._emit_ptr += 1

    # -- rotation -------------------------------------------------------------------
    def _epoch_digests(self) -> dict[int, str]:
        """Per-replica digest over the epoch's slot range, computed from
        each replica's own ordered logs."""
        out = {}
        for pid in range(self.n):
            h = hashlib.sha256()
            for slot in range(self._epoch_first_slot, self.next_slot):
                for proposer, payload in self.group[pid].ordered_log(slot):
                    h.update(f"{slot}|{proposer}|".encode())
                    h.update(payload)
            out[pid] = h.hexdigest()[:16]
        return out

    def _start_checkpoint(self) -> None:
        """All open slots drained: certify the epoch's log digest with the
        blunt weighted threshold signature, then hand over."""
        self.phase = "checkpoint"
        digests = self._epoch_digests()
        self.epoch_party_digests.append(digests)
        self._ckpt_digest = hashlib.sha256(
            f"{self.name}|{self.epoch}|{digests[0]}".encode()
        ).digest()
        self.backend.retire(self.group)
        # Theorem 4.2 setup, but from the epoch's *existing* ticket
        # assignment (the same WR(f_w, 1/2) solution the manager computed
        # at activation) -- no second solve.
        setup = WeightedCoin(
            TEST_GROUP_256, self.tickets.assignment, "1/2",
            random.Random(f"{self.seed}|ckpt|{self.epoch}"),
        )

        def factory(pid: int) -> CheckpointParty:
            return CheckpointParty(
                pid,
                setup,
                random.Random(f"{self.seed}|ckpt|{self.epoch}|{pid}"),
                mode="blunt",
                on_certified=self._on_certified,
            )

        build = factory
        if self.adversary is not None:
            # Handover attack: corrupted validators (re-selected against
            # this epoch's stake) misbehave inside the checkpoint protocol.
            build = self.adversary.wrap_handover_factory(
                factory,
                weights=tuple(self.committee.int_weights),
                epoch=self.epoch,
            )
        self._ckpt_group = self._spawn(build, self.n)
        for party in self._ckpt_group:
            party.sign_checkpoint(self._ckpt_digest)

    def _on_certified(self, pid: int, checkpoint: bytes, signature: int) -> None:
        if self.phase != "checkpoint" or checkpoint != self._ckpt_digest:
            return
        self.phase = "rotating"  # first certificate wins; ignore the rest
        self.backend.retire(self._ckpt_group)
        self._ckpt_group = ()
        self._close_epoch_record()
        next_epoch = self.epoch + 1
        try:
            self._activate(
                next_epoch,
                rotation_seconds=self.backend.now() - self._rotation_started_at,
            )
        except CommitteeValidationError as exc:
            self._fail(str(exc))
            return
        self.metrics.rotations += 1

    def _activate(self, epoch: int, *, rotation_seconds: float) -> None:
        """Form and install the committee for ``epoch`` (raises
        :class:`CommitteeValidationError` when infeasible)."""
        committee, tickets = self.manager.next_committee(epoch)
        self.epoch = epoch
        self.committee = committee
        self.tickets = tickets
        self.n = committee.n
        quorums = committee.quorums(self.config.f_w)

        def factory(pid: int) -> SmrParty:
            return SmrParty(
                pid, committee.n, quorums, self.coin, on_commit=self._on_commit
            )

        self.group = self._spawn(factory, committee.n)
        self._epoch_first_slot = self.next_slot
        self._epoch_started_at = self.backend.now()
        self._epoch_slots = 0
        self._epoch_meta = {
            "total_tickets": tickets.achieved,
            "solver_mode": self.manager.last_solver_mode or "cold",
            "rotation_seconds": rotation_seconds,
        }
        self.phase = "running"

    def _spawn(self, factory: Callable[[int], Party], n: int) -> Sequence[Party]:
        """The next generation, its simulated network seeded from ours."""
        seed = f"{self.seed}|net|{self._generations}"
        self._generations += 1
        return self.backend.spawn(factory, n, seed=seed)

    def _close_epoch_record(self) -> None:
        self.metrics.epochs.append(
            EpochRecord(
                epoch=self.epoch,
                n=self.n,
                first_slot=self._epoch_first_slot,
                last_slot=self.next_slot,
                requests=self._requests_by_epoch.get(self.epoch, 0),
                total_tickets=self._epoch_meta["total_tickets"],
                solver_mode=self._epoch_meta["solver_mode"],
                rotation_seconds=self._epoch_meta["rotation_seconds"],
            )
        )

    # -- completion -----------------------------------------------------------------
    def _check_finished(self) -> None:
        if (
            self.phase == "running"
            and not self.finished
            and self.expected_requests is not None
            and self.metrics.submitted >= self.expected_requests
            and not self.pending
            and not self._incomplete
        ):
            self.epoch_party_digests.append(self._epoch_digests())
            self._close_epoch_record()
            self._finish(completed=True)

    def _finish(self, *, completed: bool, error: Optional[str] = None) -> None:
        self.completed = completed
        self.error = error
        self.finished_at = self.backend.now()
        self.finished = True
        self.phase = "done" if completed else "failed"
        self.backend.wake()

    def _fail(self, message: str) -> None:
        if self._epoch_meta:
            self._close_epoch_record()
        self._finish(completed=False, error=message)
