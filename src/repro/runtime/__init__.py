"""Live asyncio execution runtime (the backends beside :mod:`repro.sim`).

Runs the *same* :class:`~repro.sim.process.Party` subclasses that the
discrete-event simulator executes, but over real concurrent transports:
in-process asyncio queues (:class:`InProcTransport`) for fast
deterministic tests, or the one TCP mesh (:class:`TcpTransport`) -- a
listener per hosted node, a sequenced self-healing stream per directed
link -- for wall-clock measurements.  The ``tcp`` backend hosts all
``n`` nodes of a :class:`Cluster` on that mesh; a ``proc`` worker
(:mod:`repro.parallel.proc`) hosts one node on the very same class.
Messages are serialized through a registry-based binary codec, so
reported byte counts are real wire payloads; the simulator sizes its
messages with the same codec, so the counts agree across backends.
"""

from .cluster import TRANSPORTS, Cluster, LiveHost, RuntimeMetrics, run_cluster
from .codec import CodecError, CodecRegistry, default_registry
from .faults import DeliveryDecision, FaultController
from .node import RuntimeNode
from .transport import InProcTransport, TcpTransport, Transport

__all__ = [
    "Cluster",
    "LiveHost",
    "RuntimeMetrics",
    "run_cluster",
    "TRANSPORTS",
    "CodecError",
    "CodecRegistry",
    "default_registry",
    "DeliveryDecision",
    "FaultController",
    "RuntimeNode",
    "Transport",
    "InProcTransport",
    "TcpTransport",
]
