"""The protocol drivers and their registry, :data:`DRIVERS` (protocol
name -> driver class; :data:`PROTOCOLS` is its keys).  The run lifecycle
in :mod:`repro.scenarios.harness` runs every driver the same way and names
no protocol.  The spec module imports this one for the keys; this one
imports the spec for type checking only, so no cycle.

Every hook takes the run's host -- a :class:`~repro.sim.runner.SimHost`
or a :class:`~repro.runtime.cluster.Cluster` -- and reads parties through
``host.party(nid)``; ``host.hosts(nid)`` is false only on a proc
worker's one-node cluster, for every node but its own."""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Optional, Sequence

from ..chaos.orchestrator import at
from ..chaos.schedule import compile_timeline

if TYPE_CHECKING:
    from ..sim.process import Party
    from .spec import ScenarioSpec

__all__ = [
    "ProtocolDriver", "RbcDriver", "SmrDriver", "VabaDriver", "CheckpointDriver",
    "DRIVERS", "PROTOCOLS", "payload", "digest",
]


def digest(data: bytes) -> str:
    """Short stable fingerprint of a decided value."""
    return hashlib.sha256(data).hexdigest()[:16]


def payload(spec: ScenarioSpec, pid: int, epoch: int) -> bytes:
    """Deterministic per-(party, epoch) workload payload."""
    seed = f"{spec.name}|{spec.seed}|{epoch}|{pid}".encode()
    block = hashlib.sha256(seed).digest()
    reps = (spec.workload.payload_size + len(block) - 1) // len(block)
    return (block * reps)[: spec.workload.payload_size]


class ProtocolDriver:
    """Backend-independent execution recipe for one protocol.

    ``map_pid`` translates a *real* party id from the fault plan into the
    node ids hosting it -- identity except for the black-box VABA driver,
    whose nodes are virtual users (it builds them before this class's
    constructor, which maps the plan's crashes onto ``live_nodes``).
    """

    #: message counts match across backends (phase messages sent exactly once)
    count_comparable = True

    #: ``spec.f_w`` governs this driver's quorums, so crash plans are
    #: pre-checked against the f_w*W resilience budget (a crash set at or
    #: above it could never complete and would only burn the timeout)
    uses_f_w = True

    #: the driver supports the process-per-party backend: completion and
    #: output are expressible per node (``node_done``/``node_output``), so
    #: a worker that hosts exactly one party can report its slice alone
    proc_capable = True

    #: the driver's parties implement crash-restart recovery (WAL replay
    #: plus state sync); only then may a fault plan carry ``restarts``
    supports_restarts = False

    #: the driver's parties vote through a ``QuorumPolicy``, so
    #: ``params["quorums"] = "nominal"`` may swap in the unweighted
    #: ``n = 3t + 1`` thresholds (:func:`_quorums`)
    takes_nominal = False

    #: the protocol a byzantine strategy must attack (None: the spec's)
    attacked_as: Optional[str] = None

    #: the run drains to quiescence once the stop rule is met
    drains = True

    #: seconds between two stop-rule polls on a live backend
    poll = 0.002

    #: epochs a chaos ``load-surge`` stage proposed past the workload's
    surge_epochs = 0

    @classmethod
    def check(cls, spec: ScenarioSpec, backend: str) -> None:
        """Refuse a spec this driver cannot run on ``backend``."""
        if backend == "proc" and not cls.proc_capable:
            raise ValueError(
                f"protocol {spec.protocol!r} is not supported on the proc "
                "backend (its outputs need cross-node aggregation)"
            )

    @classmethod
    def nominal(cls, spec: ScenarioSpec) -> bool:
        """Whether ``params["quorums"]`` asks for nominal quorums; raises on
        an unknown value and on a spec the nominal layout cannot honour."""
        layout = spec.param("quorums", "weighted")
        if layout not in ("weighted", "nominal"):
            raise ValueError(f"unknown quorums {layout!r}; one of weighted, nominal")
        if layout == "weighted":
            return False
        if not cls.takes_nominal:
            takers = [p for p, driver in DRIVERS.items() if driver.takes_nominal]
            raise ValueError(
                f"nominal quorums run {' and '.join(takers)} only, not {spec.protocol!r}"
            )
        if spec.faults.byzantine or spec.chaos is not None:  # an adversary spends f_w*W
            raise ValueError("nominal quorums take crash plans only, no adversary")
        return True

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        self.spec = spec
        self.committee = committee
        self.adversary = adversary
        #: directory for durable per-party write-ahead logs (``None`` =
        #: in-memory WALs; set by ``build_driver`` from ``--state-dir``)
        self.state_dir: Optional[str] = None
        #: the run's time budget (set by ``build_driver``)
        self.timeout = 60.0
        self.weights = committee.int_weights
        self.timeline = compile_timeline(spec)  # the whole fault plan
        restart = any(stage.action == "restart" for stage in self.timeline.stages)
        if restart and not self.supports_restarts:
            raise ValueError(
                f"protocol {spec.protocol!r} has no crash-recoverable "
                "party; crash-restart plans need one (smr)"
            )
        self.live_real = tuple(
            pid for pid in range(len(self.weights)) if pid not in spec.faults.crashes
        )
        if not self.live_real:
            raise ValueError("fault plan crashes every party; nothing left to run")
        # Corruption strategies only apply to identity-mapped protocols
        # (node id == real pid), so the corrupted set is in node-id terms.
        corrupted = adversary.corrupted if adversary is not None else frozenset()
        self.honest_real = tuple(
            pid for pid in self.live_real if pid not in corrupted
        )
        crashed = {nid for pid in spec.faults.crashes for nid in self.map_pid(pid)}
        #: the nodes the flat plan leaves up (``build_driver`` refuses a
        #: plan that leaves none)
        self.live_nodes = tuple(
            nid for nid in range(self.n_nodes) if nid not in crashed
        )
        #: the nodes whose outputs carry correctness claims: live honest
        #: nodes (corrupted parties stay live but their state means nothing)
        self.observers = tuple(nid for nid in self.live_nodes if nid not in corrupted)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def map_pid(self, pid: int) -> Sequence[int]:
        return (pid,)

    def factory(self, nid: int) -> Party:
        raise NotImplementedError

    @property
    def expect_liveness(self) -> bool:
        """False when the adversary (or chaos plan) voids the liveness
        claim: ``done()`` may then never hold, and quiescence is final."""
        return self.adversary is None or self.adversary.expect_liveness

    @property
    def epochs(self) -> int:
        """Workload epochs this driver fires (one-shot protocols: 1)."""
        return self.spec.workload.epochs

    # -- the workload, per (node, epoch) -----------------------------------------

    def fire(self, host, nid: int, epoch: int) -> None:
        """Node ``nid``'s share of epoch ``epoch``'s workload."""
        raise NotImplementedError

    def spawn(self, host) -> None:
        """Host the run's one generation, before the plan is armed."""
        host.spawn(self.factory, self.n_nodes)  # a proc worker's: one party

    def start(self, host) -> None:
        """Schedule the workload: one event per epoch fires every live
        node ``host`` hosts in node order (which fixes the sim's event
        order; a proc worker's cluster hosts one node, so the same call
        fires exactly its slice)."""
        for epoch in range(self.epochs):

            def fire_epoch(e: int = epoch) -> None:
                for nid in self.live_nodes:
                    if host.hosts(nid):
                        self.fire(host, nid, e)

            at(host, self.spec.workload.start_time(epoch), fire_epoch)

    def restart_node(self, host, nid: int) -> None:
        """Rejoin hook fired right after a crash-restarted node comes
        back (its party has already replayed its WAL and broadcast the
        state-sync request); drivers re-fire the node's workload here."""
        raise NotImplementedError(f"{type(self).__name__} has no recoverable party")

    # -- completion and outputs, per node and aggregated ---------------------------

    def node_done(self, host, nid: int) -> bool:
        """Completion as observable by node ``nid`` alone."""
        raise NotImplementedError

    def node_output(self, host, nid: int) -> str:
        """Node ``nid``'s canonical decided value (digest string)."""
        raise NotImplementedError

    def done(self, host) -> bool:
        return all(self.node_done(host, nid) for nid in self.observers)

    def completed(self, host) -> bool:
        return self.done(host)

    def sections(self, host) -> dict:
        """The driver's own record sections, by field name."""
        return {}

    def outputs(self, host) -> dict[str, str]:
        """Canonical decided values per observer (digest strings)."""
        return {
            str(nid): self.node_output(host, nid) for nid in self.observers
        }


def _quorums(driver: ProtocolDriver):
    """The quorum policy an RBC / SMR party votes with, and its crash budget.

    Weighted (the default) is ``committee.quorums(spec.f_w)``; its
    ``f_w*W`` budget is ``build_driver``'s check.  Nominal is the
    unweighted original's ``n = 3t + 1`` thresholds, ``t = (n - 1) // 3``
    and one vote per party -- the baseline a weighted protocol's cost is
    stated against; it tolerates at most ``t`` parties crashed or
    restarted.
    """
    spec, committee = driver.spec, driver.committee
    if not driver.nominal(spec):
        return committee.quorums(spec.f_w)
    from ..weighted.quorum import NominalQuorums

    n = committee.n
    if n < 4:
        raise ValueError("nominal quorums need n >= 4 (n = 3t + 1, t >= 1)")
    quorums = NominalQuorums(n=n, t=(n - 1) // 3)
    down = set(spec.faults.crashes).union(pid for pid, _, _ in spec.faults.restarts)
    if len(down) > quorums.t:
        raise ValueError(
            f"fault plan takes down {len(down)} parties, more than the "
            f"nominal fault tolerance t = {quorums.t}; quorums can never form"
        )
    return quorums


class RbcDriver(ProtocolDriver):
    """Bracha reliable broadcast (weighted or nominal quorums, see
    :func:`_quorums`); the lowest live honest party sends -- unless an
    equivocation strategy claims the sender role."""

    epochs = 1
    takes_nominal = True

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        self.quorums = _quorums(self)
        override = adversary.sender_override if adversary is not None else None
        if override is not None:
            self.sender = override
        else:
            self.sender = min(self.honest_real or self.live_real)
        self.payload = payload(spec, self.sender, 0)

    def factory(self, nid: int) -> Party:
        from ..protocols.reliable_broadcast import BroadcastParty

        return BroadcastParty(nid, self.quorums, self.sender)

    def fire(self, host, nid: int, epoch: int) -> None:
        if nid == self.sender:
            host.party(nid).broadcast_value(self.payload)

    def node_done(self, host, nid: int) -> bool:
        return host.party(nid).delivered == self.payload

    def node_output(self, host, nid: int) -> str:
        return digest(host.party(nid).delivered or b"")


class SmrDriver(ProtocolDriver):
    """Composed SMR: every live party proposes a batch per epoch.

    Epochs started while a partition is active are best-effort (the
    cross-partition RBC instances lose messages and cannot commit
    everywhere); completion requires full logs only for epochs started at
    or after the timeline's heal.
    """

    supports_restarts = True
    takes_nominal = True

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        from ..protocols.common_coin import deterministic_coin

        self.quorums = _quorums(self)
        self.coin = deterministic_coin(f"{spec.name}|{spec.seed}")
        # Reject specs with nothing to certify: a vacuously-true done()
        # would report a successful run in which no epoch committed.
        required = self._required_epochs()
        if not required:
            raise ValueError(
                "no SMR epoch can commit everywhere under this fault plan: "
                "a partition needs heal_at and at least one epoch starting "
                "at or after it"
            )
        if spec.faults.restarts or len(required) < self.epochs:
            # recovery traffic (state sync, re-proposals) and how much of
            # a best-effort epoch's traffic the heal still catches in
            # flight both depend on timing, so message counts stop being
            # comparable across backends
            self.count_comparable = False

    def factory(self, nid: int) -> Party:
        from ..protocols.smr import SmrParty

        if self.spec.faults.restarts:
            # crash-restart plans need durable commits and rejoin logic;
            # every party gets the recoverable subclass so sync requests
            # are answered cluster-wide
            from ..recovery.smr import RecoverableSmrParty
            from ..recovery.wal import open_wal

            wal = open_wal(self.state_dir, f"{self.spec.name}-party{nid}")
            return RecoverableSmrParty(
                nid, self.n_nodes, self.quorums, self.coin, wal=wal
            )
        return SmrParty(nid, self.n_nodes, self.quorums, self.coin)

    def _required_epochs(self) -> list[int]:
        epochs = range(self.spec.workload.epochs)
        start, heal = self.timeline.partition_window()
        if start is None:
            return list(epochs)
        if heal is None:
            # No epoch commits everywhere.  A chaos plan keeps them all
            # required, so the watchdog classifies the stall rather than
            # a vacuous done() hiding it; a flat plan is rejected.
            return list(epochs) if self.spec.chaos is not None else []
        return [e for e in epochs if self.spec.workload.start_time(e) >= heal]

    def fire(self, host, nid: int, epoch: int) -> None:
        host.party(nid).propose_batch(epoch, payload(self.spec, nid, epoch))

    def restart_node(self, host, nid: int) -> None:
        # Re-propose every epoch's batch: receivers absorb duplicates (a
        # ``BrachaInstance`` echoes only its first SEND) and the payloads are
        # a pure function of the spec, so re-proposal cannot fork an instance.
        # Needed when the crash predates the original proposal -- no live
        # peer can supply a batch that was never broadcast.
        for epoch in range(self.epochs):
            self.fire(host, nid, epoch)

    def node_done(self, host, nid: int) -> bool:
        if self.adversary is None:
            want = len(self.live_nodes)
            return all(
                len(host.party(nid).ordered_log(e)) == want
                for e in self._required_epochs()
            )
        # Under an active adversary only the honest proposers' batches are
        # guaranteed to commit (a Byzantine proposer's instance may never
        # terminate); require every honest log to contain all of them.
        honest = set(self.honest_real)
        return all(
            honest <= {p for p, _ in host.party(nid).ordered_log(e)}
            for e in self._required_epochs()
        )

    def node_output(self, host, nid: int) -> str:
        honest = set(self.honest_real)
        h = hashlib.sha256()
        for e in self._required_epochs():
            for proposer, batch in host.party(nid).ordered_log(e):
                # A Byzantine proposer's batch may legitimately commit
                # at some honest parties and not others; the agreement
                # claim covers the honest proposers' sub-log.
                if self.adversary is not None and proposer not in honest:
                    continue
                h.update(f"{e}|{proposer}|".encode())
                h.update(batch)
        return h.hexdigest()[:16]


class VabaDriver(ProtocolDriver):
    """Black-box weighted VABA: nodes are *virtual users* of a WR(f_n -
    eps, f_n) solution; real party ``i`` drives ``vmap.virtual_ids(i)``
    (paper, Section 4.4).  Message counts are timing-dependent (round
    advancement races the decision), so they are not cross-backend
    comparable -- decided values are.
    """

    count_comparable = False
    #: resilience comes from the WR(f_n - eps, f_n) params, not spec.f_w
    uses_f_w = False
    #: real outputs aggregate *all* virtual parties' decisions through
    #: ``setup.real_outputs``, which no single-node worker can compute
    proc_capable = False
    epochs = 1

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        from ..protocols.vaba import black_box_parties
        from ..weighted.transform import black_box_setup

        f_n = str(spec.param("f_n", "1/3"))
        epsilon = str(spec.param("epsilon", "1/12"))
        # the virtual users first: the base maps crashes onto them
        self.setup = black_box_setup(committee.int_weights, f_n, epsilon)
        self._parties = black_box_parties(self.setup, coin_seed=spec.seed)
        super().__init__(spec, committee, adversary)

    @property
    def n_nodes(self) -> int:
        return self.setup.vmap.total_virtual

    def map_pid(self, pid: int) -> Sequence[int]:
        return tuple(self.setup.vmap.virtual_ids(pid))

    def factory(self, nid: int) -> Party:
        return self._parties[nid]

    def fire(self, host, nid: int, epoch: int) -> None:
        host.party(nid).propose(payload(self.spec, self.setup.vmap.owner(nid), 0))

    def node_done(self, host, nid: int) -> bool:
        return host.party(nid).decided is not None

    def outputs(self, host) -> dict[str, str]:
        virtual_outputs = {
            p.pid: p.decided for p in self._parties if p.decided is not None
        }
        real = self.setup.real_outputs(virtual_outputs)
        return {
            str(pid): digest(value)
            for pid, value in sorted(real.items())
            if pid in self.live_real
        }


class CheckpointDriver(ProtocolDriver):
    """Threshold-signed checkpoints over a blunt WR(f_w, 1/2) setup; one
    checkpoint per workload epoch, ``mode`` / ``beta`` via params."""

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        from ..crypto.common_coin import WeightedCoin
        from ..crypto.group import TEST_GROUP_256
        from ..weighted.transform import blunt_setup

        self.mode = str(spec.param("mode", "blunt"))
        self.beta = str(spec.param("beta", "1/2"))
        tickets = blunt_setup(self.weights, spec.f_w, "1/2").result.assignment
        self.coin = WeightedCoin(TEST_GROUP_256, tickets, "1/2", random.Random(spec.seed))
        self.checkpoints = [
            payload(spec, 0, epoch) for epoch in range(spec.workload.epochs)
        ]

    def factory(self, nid: int) -> Party:
        from ..protocols.checkpointing import CheckpointParty

        return CheckpointParty(
            nid,
            self.coin,
            random.Random(f"{self.spec.seed}|{nid}"),
            mode=self.mode,
            weights=self.weights if self.mode == "tight" else None,
            beta=self.beta if self.mode == "tight" else None,
        )

    def fire(self, host, nid: int, epoch: int) -> None:
        host.party(nid).sign_checkpoint(self.checkpoints[epoch])

    def node_done(self, host, nid: int) -> bool:
        return all(cp in host.party(nid).certificates for cp in self.checkpoints)

    def node_output(self, host, nid: int) -> str:
        certs = host.party(nid).certificates
        blob = "|".join(str(certs.get(cp, "")) for cp in self.checkpoints)
        return digest(blob.encode())


#: protocol name -> its driver; the one list of protocols a spec may name
DRIVERS: dict[str, type[ProtocolDriver]] = {
    "rbc": RbcDriver,
    "smr": SmrDriver,
    "vaba": VabaDriver,
    "checkpoint": CheckpointDriver,
}

#: the protocols a :class:`~repro.scenarios.spec.ScenarioSpec` may name
PROTOCOLS = tuple(DRIVERS)
