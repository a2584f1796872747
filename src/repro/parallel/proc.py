"""The ``proc`` backend: one OS process per party, a parent orchestrator.

Topology::

    parent (ProcCluster) ── mp.Pipe ──> worker 0 (one-node Cluster over TcpTransport)
                         ── mp.Pipe ──> worker 1
                         ...                       workers ── TCP mesh ── workers

Each worker hosts exactly one node on the runtime's one live host and
TCP mesh: a :class:`~repro.runtime.cluster.Cluster` with ``node_id=nid``
over the :class:`~repro.runtime.transport.TcpTransport` the ``tcp``
backend hosts all ``n`` nodes on, spawned through the driver's one
``spawn`` as on every backend; ``listen(nid)`` for itself,
``configure(peers)`` for the rest.  Its links leave the process, so a
frame's in-flight slot closes on drain, reopens at the receiver, and the
parent decides quiescence.

Lifecycle, over each control pipe (tuples, strictly request/reply after
the handshake):

1. the parent pickles ``spec.to_dict()`` to every worker; each worker
   deterministically rebuilds the *same* driver -- committee, adversary,
   threshold keys -- via :func:`~repro.scenarios.harness.build_driver`
   (every piece is a pure function of the spec, which is what makes
   "distribute key material via a spec pickle" sound);
2. each worker binds a loopback port and replies ``("ready", nid, addr)``
   with the kernel-assigned port; the parent broadcasts the collected
   peer map -- no hardcoded ports, so concurrent clusters never collide
   -- and every worker arms the run's fault plan (the harness's one
   ``_arm``, over its cluster, which hosts just its party) and replies
   ``("armed", ...)``; only then does ``("start",)`` release the
   workload, so no frame meets a node that is not yet bound and armed;
3. the parent polls ``("status",)``; a worker reports its local done
   flag (always true at a node that is no observer), cumulative frame
   counters, and its cluster's quiescence and failure.  Global
   completion is distributed termination detection by frame-count
   conservation: every worker idle and ``sum(sent) == sum(received)``
   over consecutive polls (a Mattern-style counting argument -- matching
   totals on a stale snapshot would require a frame observed received
   but never sent);
4. ``("finish",)`` collects each node's output, metrics, fault counters,
   and OS pid; the parent merges them into the unified
   :class:`~repro.scenarios.harness.ScenarioResult` (message/byte totals
   sum to exactly the single-process backends' counts).

Crash-restart plans (``spec.faults.restarts``) exercise real process
death: at ``crash_at`` the parent SIGKILLs the worker; at ``restart_at``
it respawns one with a bumped *incarnation* and the run's ``state_dir``.
The reborn worker replays its party's write-ahead log, broadcasts a
state-sync request, re-proposes its batches, and replies ``("rejoined",
nid, info)`` -- only then does the parent re-broadcast the refreshed
peer map (the respawn gets a new kernel-assigned port), so no peer
learns the new address before the node can absorb traffic.  Peers'
frames for the dead worker stay on their per-link outbound queues
(see :class:`~repro.runtime.transport.TcpTransport`), which drain
once the link heals.  A SIGKILL destroys the victim's frame counters,
so restart runs relax termination detection to done-and-idle over
stable polls; the link queues keep senders non-idle while any frame
awaits redelivery, which is what makes the relaxation safe.

Failure containment: a worker that dies (or reports a failure of its
node, its transport, or a scheduled workload / chaos callback) surfaces
as :class:`ProcError` with a per-worker postmortem -- OS pid, age of the
last status heard, and frame counters; the parent reaps every child on
any exit path, including timeout.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import tempfile
import time
import traceback
from typing import Any, Optional

from ..scenarios.spec import ScenarioSpec

__all__ = ["ProcCluster", "ProcError", "CRASH_ENV"]

#: test hook: a worker whose node id matches this env var's value exits
#: hard at startup, exercising the parent's crash surface
CRASH_ENV = "REPRO_PROC_TEST_CRASH"

#: consecutive conserved-and-idle polls required before trusting the
#: snapshot (one poll can race a frame between counters)
_STABLE_POLLS = 2

#: seconds between two of the parent's status polls
_POLL_INTERVAL = 0.01


class ProcError(RuntimeError):
    """A worker process died, wedged, or reported a failure."""


# -- worker side -----------------------------------------------------------------------


def _worker_entry(
    spec_dict: dict,
    nid: int,
    conn,
    state_dir: Optional[str] = None,
    incarnation: int = 0,
) -> None:
    if os.environ.get(CRASH_ENV) == str(nid):
        os._exit(3)
    try:
        asyncio.run(_worker_main(spec_dict, nid, conn, state_dir, incarnation))
    except BaseException:  # noqa: BLE001 -- last-resort report, then die
        try:
            conn.send(("crashed", nid, traceback.format_exc(limit=8)))
        except (OSError, ValueError):
            pass
        os._exit(1)
    os._exit(0)


def _command_queue(conn, loop: asyncio.AbstractEventLoop) -> asyncio.Queue:
    """Bridge the control pipe into the worker's event loop."""
    queue: asyncio.Queue = asyncio.Queue()

    def _drain() -> None:
        try:
            while conn.poll():
                queue.put_nowait(conn.recv())
        except (EOFError, OSError):
            loop.remove_reader(conn.fileno())
            queue.put_nowait(None)  # parent went away: shut down

    loop.add_reader(conn.fileno(), _drain)
    return queue


async def _worker_main(
    spec_dict: dict,
    nid: int,
    conn,
    state_dir: Optional[str],
    incarnation: int,
) -> None:
    from ..runtime.cluster import Cluster
    from ..scenarios.harness import _arm, build_driver

    spec = ScenarioSpec.from_dict(spec_dict)
    driver = build_driver(spec, validate=False, state_dir=state_dir)  # parent vetted
    cluster = Cluster(transport="tcp", node_id=nid)
    transport, metrics, faults = cluster.transport, cluster.metrics, cluster.faults
    transport.incarnation = incarnation
    await transport.listen(nid)
    commands = _command_queue(conn, asyncio.get_running_loop())
    conn.send(("ready", nid, transport.address(nid)))

    command = await commands.get()
    if command is None or command[0] != "peers":
        await cluster.stop()
        return
    transport.configure(command[1])

    driver.spawn(cluster)  # this worker's one party; its node starts with the cluster
    party = cluster.party(nid)
    if spec.faults.restarts:
        # self-healing plumbing: persist receive watermarks through the
        # party's WAL and run the heartbeat failure detector, feeding
        # suspect/alive transitions into the run's metrics
        if hasattr(party, "note_watermark"):
            transport.watermark_sink = (
                lambda src, _dst, seq: party.note_watermark(src, seq)
            )

        def _suspect(_peer: int) -> None:
            metrics.suspect_transitions += 1

        def _alive(_peer: int) -> None:
            metrics.alive_transitions += 1

        transport.enable_heartbeat(on_suspect=_suspect, on_alive=_alive)
    orchestrator = _arm(spec, driver, cluster, restart_timers=False)
    observer = nid in driver.observers
    if incarnation > 0:
        # Rejoin: replay the WAL into the fresh party (queueing the
        # state-sync broadcast on the outbox), seed the transport's dedup
        # watermarks from the replayed floor, then start the node's sender
        # and re-propose this node's batches.  The parent withholds our new
        # address from peers until "rejoined", so nothing arrives before
        # the WAL is replayed.
        party.restart()
        transport.restore_watermarks(nid, getattr(party, "watermarks", {}))
        await cluster.start()
        driver.restart_node(cluster, nid)
        conn.send(
            (
                "rejoined",
                nid,
                {
                    "os_pid": os.getpid(),
                    "recovered_from_wal": getattr(party, "recovered_from_wal", 0),
                },
            )
        )
    else:
        # Armed and bound, not yet started: the parent releases the
        # workload only once *every* worker is, so no frame can reach a
        # node before its handler and fault plan exist (it would be
        # dropped, or dodge a receive-side delay).  A frame that arrives
        # between "armed" and "start" -- a peer was released first -- is
        # handled at once, in the inbound stream's callback, by this
        # party; whatever it sends waits in the outbox until the cluster
        # starts.
        conn.send(("armed", nid, None))

    while True:
        command = await commands.get()
        if command is None or command[0] == "stop":
            break
        kind = command[0]
        if kind == "start":
            await cluster.start()
            driver.start(cluster)
        elif kind == "peers":
            # refreshed address map (a peer respawned on a new port)
            transport.configure(command[1])
        elif kind == "status":
            failure = cluster.failure
            conn.send(
                (
                    "status",
                    nid,
                    {
                        "done": driver.node_done(cluster, nid) if observer else True,
                        "sent": transport.frames_sent,
                        "received": transport.frames_received,
                        "idle": cluster.quiescent,
                        "failure": _describe(failure),
                    },
                )
            )
        elif kind == "finish":
            conn.send(
                (
                    "result",
                    nid,
                    {
                        "done": driver.node_done(cluster, nid) if observer else None,
                        "output": driver.node_output(cluster, nid) if observer else None,
                        "observer": observer,
                        "metrics": metrics,
                        "dropped": faults.dropped_messages,
                        "delayed": faults.delayed_messages,
                        "os_pid": os.getpid(),
                        "recovery": (
                            {
                                "restarts": party.counters.get("restarts", 0),
                                "recovered_from_wal": getattr(
                                    party, "recovered_from_wal", 0
                                ),
                                "recovered_from_peers": getattr(
                                    party, "recovered_from_peers", 0
                                ),
                                "duplicates_dropped": transport.duplicates_dropped,
                                "reconnects": transport.reconnects,
                                "retries_dropped": transport.retries_dropped,
                            }
                            if spec.faults.restarts
                            else None
                        ),
                        "chaos": (
                            {
                                **orchestrator.summary(),
                                "trace": [list(e) for e in faults.trace],
                            }
                            if spec.chaos is not None
                            else None
                        ),
                    },
                )
            )
    await cluster.stop()


def _describe(failure: Optional[BaseException]) -> Optional[str]:
    """A status report's failure text: the exception and its cause."""
    if failure is None:
        return None
    cause = failure.__cause__
    return repr(failure) + (f" from {cause!r}" if cause is not None else "")


# -- parent side -----------------------------------------------------------------------


class ProcCluster:
    """Spawn, wire, poll, and reap one process per party.

    Synchronous by design (the parent never runs an event loop): spawn is
    blocking, polling is request/reply over pipes, and every exit path
    funnels through :meth:`_teardown`.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        timeout: float = 60.0,
        committee=None,
        state_dir: Optional[str] = None,
    ) -> None:
        from ..scenarios.harness import _StopRule, build_driver

        self.spec = spec
        self.timeout = timeout
        self.driver = build_driver(spec, committee, backend="proc")
        #: when the run may end (the harness's one stop rule); its horizon
        #: floor keeps quiescence before a late stage from ending the run
        self.stop_rule = _StopRule(spec, self.driver)
        #: the crash-restart plan in node-id terms, ordered by fire time
        self.restarts = sorted(
            (crash_at, restart_at, node_id)
            for pid, crash_at, restart_at in spec.faults.restarts
            for node_id in self.driver.map_pid(pid)
        )
        #: durable WAL directory; auto-provisioned (and reaped) for
        #: restart runs when the caller does not supply one
        self.state_dir = state_dir
        self._own_state_dir: Optional[str] = None
        if self.restarts and self.state_dir is None:
            self._own_state_dir = tempfile.mkdtemp(prefix="repro-proc-state-")
            self.state_dir = self._own_state_dir
        #: per-restarted-node wall-clock recovery record
        self.recovery_events: dict[int, dict[str, float]] = {}
        self._procs: list = []
        self._conns: list = []
        self._down: set[int] = set()
        self._incarnations: dict[int, int] = {}
        #: nid -> (monotonic time, frames sent, frames received) of the
        #: last status heard -- the postmortem in ProcError messages
        self._last_status: dict[int, tuple[float, int, int]] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._mp_ctx = None
        self._spec_dict: Optional[dict] = None

    # -- plumbing -----------------------------------------------------------------
    def _postmortem(self, nid: int) -> str:
        """Per-worker forensics appended to crash/timeout errors."""
        proc = self._procs[nid] if nid < len(self._procs) else None
        pid = proc.pid if proc is not None else "?"
        last = self._last_status.get(nid)
        if last is None:
            return f" [pid={pid}; no status heard yet]"
        age = time.perf_counter() - last[0]
        return (
            f" [pid={pid}; last status {age:.2f}s ago; "
            f"frames sent={last[1]} received={last[2]}]"
        )

    def _alive_check(self, nid: int) -> None:
        proc = self._procs[nid]
        if not proc.is_alive():
            raise ProcError(
                f"proc worker {nid} died (exit code {proc.exitcode})"
                f"{self._postmortem(nid)}"
            )

    def _recv(self, nid: int, deadline: float) -> tuple:
        """One message from worker ``nid``, with crash/timeout surfacing."""
        conn = self._conns[nid]
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(
                    f"proc cluster timed out after {self.timeout}s waiting on "
                    f"worker {nid}{self._postmortem(nid)}"
                )
            if conn.poll(min(remaining, 0.05)):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._alive_check(nid)
                    raise ProcError(
                        f"proc worker {nid} closed its control pipe"
                        f"{self._postmortem(nid)}"
                    )
                if message[0] == "crashed":
                    raise ProcError(
                        f"proc worker {message[1]} crashed:\n{message[2]}"
                    )
                return message
            self._alive_check(nid)

    def _live_workers(self) -> list[int]:
        return [nid for nid in range(len(self._conns)) if nid not in self._down]

    def _request_all(self, command: tuple, reply: str, deadline: float) -> dict[int, Any]:
        live = self._live_workers()
        for nid in live:
            self._conns[nid].send(command)
        out = {}
        for nid in live:
            message = self._recv(nid, deadline)
            if message[0] != reply:
                raise ProcError(
                    f"proc worker {nid} sent {message[0]!r}, expected {reply!r}"
                )
            out[message[1]] = message[2]
        return out

    # -- lifecycle ----------------------------------------------------------------
    def _spawn(self, nid: int, incarnation: int):
        parent_conn, child_conn = self._mp_ctx.Pipe()
        suffix = f"-r{incarnation}" if incarnation else ""
        proc = self._mp_ctx.Process(
            target=_worker_entry,
            args=(self._spec_dict, nid, child_conn, self.state_dir, incarnation),
            name=f"repro-proc-{self.spec.name}-{nid}{suffix}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def run(self):
        from ..scenarios.harness import _assemble
        from ..sim.network import NetworkMetrics

        deadline = time.perf_counter() + self.timeout
        self._mp_ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._spec_dict = self.spec.to_dict()
        try:
            for nid in range(self.driver.n_nodes):
                proc, conn = self._spawn(nid, 0)
                self._procs.append(proc)
                self._conns.append(conn)
            self._addresses = self._collect_ready(deadline)
            self._request_all(("peers", self._addresses), "armed", deadline)
            started_at = time.perf_counter()
            for conn in self._conns:
                conn.send(("start",))
            self._await_completion(deadline, started_at)
            quiesced_at = time.perf_counter()
            results = self._request_all(("finish",), "result", deadline)
        finally:
            self._teardown()
            if self._own_state_dir is not None:
                shutil.rmtree(self._own_state_dir, ignore_errors=True)

        totals = NetworkMetrics()
        dropped = delayed = 0
        decided: dict[str, str] = {}
        workers: dict[str, int] = {}
        completed = True
        recovery: Optional[dict] = None
        if self.restarts:
            recovery = {
                "nodes": {},
                "restarts": 0,
                "recovered_from_wal": 0,
                "recovered_from_peers": 0,
                "duplicates_dropped": 0,
                "reconnects": 0,
                "retries_dropped": 0,
                "suspect_transitions": 0,
                "alive_transitions": 0,
            }
            for nid, events in sorted(self.recovery_events.items()):
                node_rec = dict(events)
                if "killed_at" in events and "respawned_at" in events:
                    node_rec["downtime_seconds"] = (
                        events["respawned_at"] - events["killed_at"]
                    )
                    node_rec["rejoin_seconds"] = (
                        quiesced_at - started_at - events["respawned_at"]
                    )
                recovery["nodes"][str(nid)] = node_rec
        for nid in sorted(results):
            r = results[nid]
            m = r["metrics"]
            totals.add(m)
            dropped += r["dropped"]
            delayed += r["delayed"]
            workers[str(nid)] = r["os_pid"]
            if recovery is not None and r.get("recovery"):
                for key, value in r["recovery"].items():
                    recovery[key] += value
                recovery["suspect_transitions"] += m.suspect_transitions
                recovery["alive_transitions"] += m.alive_transitions
            if r["observer"]:
                decided[str(nid)] = r["output"]
                completed = completed and bool(r["done"])
        return _assemble(
            self.spec, "proc", self.driver.committee, totals,
            n_nodes=self.driver.n_nodes,
            count_comparable=self.driver.count_comparable,
            adversary=self.driver.adversary,
            completed=completed,
            decided=decided,
            dropped_messages=dropped,
            delayed_messages=delayed,
            wall_seconds=quiesced_at - started_at,
            workers=workers,
            recovery=recovery,
            chaos=(
                self._merge_chaos(results, completed)
                if self.spec.chaos is not None
                else None
            ),
        )

    def _merge_chaos(self, results: dict, completed: bool) -> dict:
        """Fold per-worker chaos sections into one record section.

        Stage ``fired`` flags are OR-ed (fault-controller stages fire in
        every worker, party-level stages only on the hosting one), weather
        counters and duplicate commits are summed, and the shared
        watchdog section classifies the outcome -- on a stall the
        postmortem carries each worker's message trace.
        """
        from ..scenarios.harness import _chaos_section

        worker_sections = {
            nid: r["chaos"] for nid, r in results.items() if r.get("chaos")
        }
        stages: list = []
        weather: Optional[dict] = None
        duplicate_commits = 0
        for nid in sorted(worker_sections):
            section = worker_sections[nid]
            duplicate_commits += section["duplicate_commits"]
            if not stages:
                stages = [dict(s) for s in section["stages"]]
            else:
                for merged, local in zip(stages, section["stages"]):
                    merged["fired"] = merged["fired"] or local["fired"]
                    if local.get("gave_up") and not merged["fired"]:
                        merged["gave_up"] = True
            local = section.get("weather")
            if local is not None:
                if weather is None:
                    weather = {**local, "counters": dict.fromkeys(local["counters"], 0)}
                for key, value in local["counters"].items():
                    weather["counters"][key] += value
        chaos_section: dict = {"stages": stages}
        if weather is not None:
            chaos_section["weather"] = weather
        chaos_section["duplicate_commits"] = duplicate_commits
        _chaos_section(self.spec, self.driver, completed, chaos_section)
        postmortem = chaos_section.get("watchdog", {}).get("postmortem")
        if postmortem is not None:
            postmortem.update(
                {
                    "stages": stages,
                    "dropped_messages": sum(r["dropped"] for r in results.values()),
                    "delayed_messages": sum(r["delayed"] for r in results.values()),
                    "trace": {
                        str(nid): worker_sections[nid]["trace"]
                        for nid in sorted(worker_sections)
                    },
                }
            )
        return chaos_section

    def _collect_ready(self, deadline: float) -> dict[int, tuple[str, int]]:
        addresses: dict[int, tuple[str, int]] = {}
        for nid in range(len(self._conns)):
            message = self._recv(nid, deadline)
            if message[0] != "ready":
                raise ProcError(
                    f"proc worker {nid} sent {message[0]!r} before 'ready'"
                )
            addresses[message[1]] = message[2]
        return addresses

    # -- crash-restart orchestration ----------------------------------------------
    def _kill_worker(self, nid: int, elapsed: float) -> None:
        """SIGKILL the worker mid-run -- a real crash, not a simulation."""
        proc = self._procs[nid]
        proc.kill()
        proc.join(timeout=5.0)
        self._down.add(nid)
        try:
            self._conns[nid].close()
        except OSError:
            pass
        self.recovery_events.setdefault(nid, {})["killed_at"] = elapsed

    def _respawn_worker(self, nid: int, elapsed: float, deadline: float) -> None:
        """Respawn a SIGKILLed worker and re-wire its new port.

        The reborn worker gets the run's ``state_dir`` and a bumped
        incarnation; the refreshed peer map reaches the other workers
        only after the worker reports ``rejoined``, so its WAL replay
        and watermark restore finish before any peer can dial the new
        port.
        """
        incarnation = self._incarnations.get(nid, 0) + 1
        self._incarnations[nid] = incarnation
        proc, conn = self._spawn(nid, incarnation)
        self._procs[nid] = proc
        self._conns[nid] = conn
        self._down.discard(nid)
        message = self._recv(nid, deadline)
        if message[0] != "ready":
            raise ProcError(
                f"respawned proc worker {nid} sent {message[0]!r} before 'ready'"
            )
        self._addresses[nid] = message[2]
        conn.send(("peers", self._addresses))
        message = self._recv(nid, deadline)
        if message[0] != "rejoined":
            raise ProcError(
                f"respawned proc worker {nid} sent {message[0]!r} before 'rejoined'"
            )
        events = self.recovery_events.setdefault(nid, {})
        events["respawned_at"] = elapsed
        events["recovered_from_wal"] = message[2].get("recovered_from_wal", 0)
        for other in self._live_workers():
            if other != nid:
                self._conns[other].send(("peers", self._addresses))

    def _await_completion(self, deadline: float, started_at: float) -> None:
        """Distributed termination detection (see module docstring)."""
        # (fire time, 0=kill | 1=respawn, nid): kills sort before the
        # respawns they precede, and a kill at t ties before an unrelated
        # respawn at t only by nid -- the spec forbids equal-time pairs
        # for one pid (restart_at > crash_at).
        events = sorted(
            [(crash_at, 0, nid) for crash_at, _, nid in self.restarts]
            + [(restart_at, 1, nid) for _, restart_at, nid in self.restarts]
        )
        stable = 0
        while True:
            elapsed = time.perf_counter() - started_at
            while events and events[0][0] <= elapsed:
                _, action, nid = events.pop(0)
                if action == 0:
                    self._kill_worker(nid, elapsed)
                else:
                    self._respawn_worker(nid, elapsed, deadline)
            statuses = self._request_all(("status",), "status", deadline)
            now = time.perf_counter()
            for nid, s in statuses.items():
                self._last_status[nid] = (now, s["sent"], s["received"])
            failures = {
                nid: s["failure"] for nid, s in statuses.items() if s["failure"]
            }
            if failures:
                details = "; ".join(
                    f"node {nid}: {text}" for nid, text in sorted(failures.items())
                )
                raise ProcError(f"proc worker failure: {details}")
            sent = sum(s["sent"] for s in statuses.values())
            received = sum(s["received"] for s in statuses.values())
            # A SIGKILLed worker takes its counters with it, so restart
            # runs cannot balance the books; they rely on done + idle
            # instead (link queues keep senders non-idle while any
            # frame awaits redelivery).
            conserved = (sent == received) if not self.restarts else True
            quiescent = (
                all(s["idle"] for s in statuses.values())
                and conserved
                and not events
                and not self._down
            )
            done = all(s["done"] for s in statuses.values())
            # there is no separate drain step here, so ending also needs
            # quiescence, confirmed over consecutive polls
            if self.stop_rule(elapsed, done, quiescent, sent) and quiescent:
                stable += 1
                if stable >= _STABLE_POLLS:
                    return
            else:
                stable = 0
            if time.perf_counter() > deadline:
                postmortems = "".join(
                    f"\n  worker {nid}:{self._postmortem(nid)}"
                    for nid in range(len(self._procs))
                )
                raise TimeoutError(
                    f"proc scenario did not complete within {self.timeout}s "
                    f"(done={done}, in-flight frames={sent - received})"
                    f"{postmortems}"
                )
            time.sleep(_POLL_INTERVAL)

    def _teardown(self) -> None:
        for nid in self._live_workers():
            try:
                self._conns[nid].send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._conns.clear()
        self._down.clear()

