"""Which entry points of ``repro.*`` the ledger wraps, and what it makes
of the spans: the per-layer metrics of ``BENCHMARK.json``.

Layers are this repo's packages.  Every wrapped name is a *public* entry
point (a method without a leading underscore, or a function in a
package's ``__all__`` / module docs); private helpers stay unwrapped, so
a layer's self time is "time inside the layer's public calls, minus time
inside the other layers' public calls they made".
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from typing import Any, Optional

from .report import percentile
from .trace import Target, Tracer

__all__ = ["LAYERS", "Probes", "install", "per_layer_metrics"]

#: rows of the self-time table, in reporting order.  ``runtime.transport``
#: is not one: its only public entry point on the data path is the ``send``
#: coroutine, whose wall time is ``runtime.transport.send_s``; the CPU it
#: burns outside the codec lands in ``loop.untraced_s`` with asyncio's own.
LAYERS = (
    "core",
    "codes",
    "crypto",
    "runtime.codec",
    "protocols",
    "weighted",
    "service",
)


class Probes:
    """Measurements a span's duration cannot carry: link transit times,
    repeated encodes of one object, solver probe counts."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.clock = tracer.clock
        self.reset()
        #: every transport a node was bound to (for their reconnect counts)
        self.transports: set = set()
        #: (src, dst) -> send-entry times of frames not yet handed to the
        #: destination's bound handler (links are FIFO on both transports)
        self._links: dict[tuple[int, int], deque] = defaultdict(deque)

    def reset(self) -> None:
        """Start of the measured window."""
        self.transit = array("d")
        self.frames = 0
        self.in_flight_max = 0
        self.encodes = 0
        self.distinct_encodes = 0
        self._recent: dict[int, Any] = {}
        self.probes = 0
        self.incremental_attempts = 0
        self.incremental_hits = 0
        self.incremental_seconds = 0.0

    # -- runtime.transport ------------------------------------------------------------
    def before_send(self, args: tuple) -> None:
        self._links[(args[1], args[2])].append(self.clock())

    def after_send(self, args: tuple, result: Any) -> None:
        in_flight = args[0].in_flight
        if in_flight > self.in_flight_max:
            self.in_flight_max = in_flight

    def wrap_bind(self, original):
        """``Transport.bind`` replacement: the bound handler notes when a
        frame reaches it, which closes the frame's transit time."""
        probes = self

        def bind(transport, pid, handler):
            probes.transports.add(transport)
            # A re-bound pid (epoch rotation) starts with clean links: the
            # frames queued for its predecessor were dropped by unbind.
            for link in [link for link in probes._links if link[1] == pid]:
                del probes._links[link]

            def timed_handler(src, message):
                if probes.tracer.on:
                    sent = probes._links[(src, pid)]
                    if sent:
                        probes.transit.append(probes.clock() - sent.popleft())
                    probes.frames += 1
                handler(src, message)

            return original(transport, pid, timed_handler)

        return bind

    # -- runtime.codec ----------------------------------------------------------------
    def after_encode(self, args: tuple, result: Any) -> None:
        """A broadcast encodes one message object once per destination;
        count how many encodes were of an object not seen just before."""
        message = args[1]
        self.encodes += 1
        key = id(message)
        if self._recent.get(key) is not message:
            self.distinct_encodes += 1
            # A sender drains its outbox in one go, so repeats of an
            # object are close together: remembering the last few is
            # enough, and holding them keeps their ids from being reused
            # (few, because an AVID message is megabytes).
            if len(self._recent) >= 32:
                del self._recent[next(iter(self._recent))]
            self._recent[key] = message

    # -- core -------------------------------------------------------------------------
    def after_solve(self, args: tuple, result: Any) -> None:
        self.probes += result.probes or 0

    def after_incremental(self, args: tuple, result: Any) -> None:
        solver = args[0]
        self.incremental_attempts += 1
        if solver.last_mode == "incremental":
            self.incremental_hits += 1
            self.incremental_seconds += result.elapsed_seconds
        self.probes += result.probes or 0


def install(tracer: Tracer) -> Probes:
    """Wrap every layer's public entry points; returns the probes."""
    from repro.api import policy
    from repro.codes.reed_solomon import ReedSolomon
    from repro.core import solver as core_solver
    from repro.core.verify import RestrictionChecker, SeparationChecker
    from repro.crypto import dleq
    from repro.crypto.common_coin import CommonCoin, WeightedCoin
    from repro.crypto.group import GroupEngine, SchnorrGroup
    from repro.crypto.threshold_sig import ThresholdSignatureScheme
    from repro.protocols.avid import AvidParty
    from repro.protocols.common_coin import BeaconParty
    from repro.protocols.smr import SmrParty
    from repro.runtime.codec import CodecRegistry
    from repro.runtime.transport import InProcTransport, TcpTransport, Transport
    from repro.service.epoch import EpochManager
    from repro.service.service import EpochService
    from repro.sim.process import Party
    from repro.weighted import transform
    from repro.weighted.quorum import WeightedQuorums

    probes = Probes(tracer)

    def first_len(index):
        return lambda args, result: len(args[index])

    def result_len(args, result):
        return len(result)

    targets = [
        # core: the solver and its validity checkers
        Target(policy, "solve_with_policy", "core", "core.solve", after=probes.after_solve),
        Target(policy.IncrementalSolver, "solve", "core", "core.solve",
               after=probes.after_incremental),
        Target(core_solver.Swiper, "solve", "core", "core.solve"),
        Target(EpochManager, "next_committee", "core", "core.solve"),
        Target(core_solver, "is_valid_assignment", "core", "core.verify"),
        Target(RestrictionChecker, "check", "core", "core.verify"),
        Target(RestrictionChecker, "check_sparse", "core", "core.verify"),
        Target(SeparationChecker, "check", "core", "core.verify"),
        Target(SeparationChecker, "check_sparse", "core", "core.verify"),
        # codes: block Reed-Solomon
        Target(ReedSolomon, "encode_blocks", "codes", "codes.encode", size=first_len(1)),
        Target(ReedSolomon, "decode_erasures_blocks", "codes", "codes.decode",
               size=result_len),
        Target(ReedSolomon, "decode_errors_blocks", "codes", "codes.decode",
               size=result_len),
        # crypto: DLEQ proofs, threshold signatures, the coin, the group engine
        Target(dleq, "prove_dleq", "crypto", "crypto.sign"),
        Target(ThresholdSignatureScheme, "sign_share", "crypto", "crypto.sign"),
        Target(WeightedCoin, "shares_of_party", "crypto", "crypto.sign"),
        Target(dleq, "verify_dleq", "crypto", "crypto.oracle_verify"),
        Target(dleq, "verify_dleq_batch", "crypto", "crypto.verify_batch",
               size=first_len(3)),
        Target(ThresholdSignatureScheme, "verify_shares_batch", "crypto",
               "crypto.verify_batch", size=first_len(1)),
        Target(WeightedCoin, "verify_shares", "crypto", "crypto.verify_batch",
               size=first_len(1)),
        Target(ThresholdSignatureScheme, "combine", "crypto", "crypto.combine"),
        Target(CommonCoin, "open", "crypto", "crypto.combine"),
        Target(GroupEngine, "multi_exp", "crypto", "crypto.multi_exp"),
        Target(SchnorrGroup, "hash_to_group", "crypto", "crypto.hash_to_group"),
        # runtime.codec
        Target(CodecRegistry, "encode", "runtime.codec", "runtime.codec.encode",
               size=result_len, after=probes.after_encode, op_arg=1),
        Target(CodecRegistry, "encode_frame", "runtime.codec", "runtime.codec.encode",
               size=result_len, after=probes.after_encode, op_arg=1),
        Target(CodecRegistry, "decode", "runtime.codec", "runtime.codec.decode",
               size=first_len(1)),
        # runtime.transport: coroutine spans (wall time, awaits included)
        Target(InProcTransport, "send", "runtime.transport", "runtime.transport.send",
               is_async=True, before=probes.before_send, after=probes.after_send,
               size=lambda args, result: result, op_arg=3),
        Target(TcpTransport, "send", "runtime.transport", "runtime.transport.send",
               is_async=True, before=probes.before_send, after=probes.after_send,
               size=lambda args, result: result, op_arg=3),
        # protocols: message handlers and the calls that start an instance
        Target(Party, "receive", "protocols", "protocols.handler", op_arg=1),
        Target(SmrParty, "propose_batch", "protocols", "protocols.propose"),
        Target(AvidParty, "disperse", "protocols", "protocols.propose"),
        Target(AvidParty, "retrieve", "protocols", "protocols.propose"),
        Target(BeaconParty, "start_epoch", "protocols", "protocols.propose"),
        # weighted: quorum predicates and the paper's set-up transformations
        Target(WeightedQuorums, "echo_quorum", "weighted", "weighted.quorum"),
        Target(WeightedQuorums, "ready_amplify", "weighted", "weighted.quorum"),
        Target(WeightedQuorums, "deliver_quorum", "weighted", "weighted.quorum"),
        Target(WeightedQuorums, "storage_quorum", "weighted", "weighted.quorum"),
        Target(transform, "blunt_setup", "weighted", "weighted.setup"),
        Target(transform, "qualification_setup", "weighted", "weighted.setup"),
        # service
        Target(EpochService, "submit", "service", "service.submit"),
    ]
    tracer.install(targets)
    tracer.patch(Transport, "bind", probes.wrap_bind)
    return probes


def _lru_hit_ratio() -> float:
    """Hit ratio of the Reed-Solomon interpolation caches (module-level
    ``lru_cache`` functions; absent ones count as no lookups)."""
    from repro.codes import reed_solomon

    hits = lookups = 0
    for name in ("_lagrange_basis", "_eval_matrix"):
        info = getattr(getattr(reed_solomon, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            lookups += info().hits + info().misses
    return hits / lookups if lookups else 0.0


def per_layer_metrics(
    tracer: Tracer,
    probes: Probes,
    *,
    ops: int,
    window_cpu_s: float,
    extras: Optional[dict[str, tuple[float, str]]] = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    Counts and times are per op of the measured window; ``weighted.setup_s``
    is of the set-up (the wrapped transformations only run there).  A layer
    the workload never enters reports zeros -- that *is* its measurement.
    """
    window, setup = tracer.window_totals, tracer.setup_totals
    per_op = 1.0 / max(ops, 1)

    def calls(group: str) -> float:
        return window.calls.get(group, 0) * per_op

    def busy(group: str) -> float:
        return window.busy.get(group, 0.0) * per_op

    def rate_mib(group: str) -> float:
        seconds = window.busy.get(group, 0.0)
        return window.size.get(group, 0.0) / 2**20 / seconds if seconds else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "core.solve_calls": (calls("core.solve"), "1/op"),
        "core.solve_busy_s": (busy("core.solve"), "s/op"),
        "core.verify_calls": (calls("core.verify"), "1/op"),
        "core.verify_busy_s": (busy("core.verify"), "s/op"),
        "core.probes": (probes.probes * per_op, "1/op"),
        "core.incremental_solve_s": (
            ratio(probes.incremental_seconds, probes.incremental_hits), "s"),
        "core.incremental_hit_ratio": (
            ratio(probes.incremental_hits, probes.incremental_attempts), "ratio"),
        "codes.encode_calls": (calls("codes.encode"), "1/op"),
        "codes.encode_busy_s": (busy("codes.encode"), "s/op"),
        "codes.encode_mib_per_s": (rate_mib("codes.encode"), "MiB/s"),
        "codes.decode_calls": (calls("codes.decode"), "1/op"),
        "codes.decode_busy_s": (busy("codes.decode"), "s/op"),
        "codes.decode_mib_per_s": (rate_mib("codes.decode"), "MiB/s"),
        "codes.basis_cache_hit_ratio": (_lru_hit_ratio(), "ratio"),
        "crypto.sign_calls": (calls("crypto.sign"), "1/op"),
        "crypto.sign_busy_s": (busy("crypto.sign"), "s/op"),
        "crypto.verify_batch_calls": (calls("crypto.verify_batch"), "1/op"),
        "crypto.verify_batch_busy_s": (busy("crypto.verify_batch"), "s/op"),
        "crypto.shares_per_batch": (
            ratio(window.size.get("crypto.verify_batch", 0.0),
                  window.calls.get("crypto.verify_batch", 0)), "count"),
        "crypto.oracle_verify_calls": (calls("crypto.oracle_verify"), "1/op"),
        "crypto.combine_calls": (calls("crypto.combine"), "1/op"),
        "crypto.combine_busy_s": (busy("crypto.combine"), "s/op"),
        "crypto.multi_exp_calls": (calls("crypto.multi_exp"), "1/op"),
        "crypto.multi_exp_busy_s": (busy("crypto.multi_exp"), "s/op"),
        "crypto.hash_to_group_busy_s": (busy("crypto.hash_to_group"), "s/op"),
        "runtime.codec.encode_calls": (calls("runtime.codec.encode"), "1/op"),
        "runtime.codec.encode_busy_s": (busy("runtime.codec.encode"), "s/op"),
        "runtime.codec.encode_bytes": (
            window.size.get("runtime.codec.encode", 0.0) * per_op, "B/op"),
        "runtime.codec.decode_calls": (calls("runtime.codec.decode"), "1/op"),
        "runtime.codec.decode_busy_s": (busy("runtime.codec.decode"), "s/op"),
        "runtime.codec.decode_bytes": (
            window.size.get("runtime.codec.decode", 0.0) * per_op, "B/op"),
        "runtime.codec.distinct_encode_ratio": (
            ratio(probes.distinct_encodes, probes.encodes), "ratio"),
        "runtime.transport.send_calls": (calls("runtime.transport.send"), "1/op"),
        "runtime.transport.send_s": (busy("runtime.transport.send"), "s/op"),
        "runtime.transport.transit_p50_s": (percentile(probes.transit, 50), "s"),
        "runtime.transport.transit_p90_s": (percentile(probes.transit, 90), "s"),
        "runtime.transport.frames": (probes.frames * per_op, "1/op"),
        "runtime.transport.bytes": (
            window.size.get("runtime.transport.send", 0.0) * per_op, "B/op"),
        "runtime.transport.reconnects": (
            float(sum(getattr(t, "reconnects", 0) for t in probes.transports)), "count"),
        "runtime.transport.in_flight_max": (float(probes.in_flight_max), "count"),
        "protocols.handler_calls": (calls("protocols.handler"), "1/op"),
        "protocols.handler_busy_s": (
            window.self_s.get("protocols.handler", 0.0) * per_op, "s/op"),
        "protocols.propose_busy_s": (busy("protocols.propose"), "s/op"),
        "weighted.quorum_calls": (calls("weighted.quorum"), "1/op"),
        "weighted.quorum_busy_s": (busy("weighted.quorum"), "s/op"),
        "weighted.setup_s": (setup.busy.get("weighted.setup", 0.0), "s"),
    }
    table = window.by_layer()
    traced = 0.0
    for layer in LAYERS:
        seconds = table.get(layer, 0.0)
        traced += seconds
        out[f"self.{layer}_s"] = (seconds * per_op, "s/op")
    # CPU of the window spent inside no span: asyncio, queue pumps, timers
    out["loop.untraced_s"] = ((window_cpu_s - traced) * per_op, "s/op")
    out.update(extras or {})
    return out
