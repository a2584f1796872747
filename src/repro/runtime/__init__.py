"""Live asyncio execution runtime (the backends beside :mod:`repro.sim`).

Runs the *same* :class:`~repro.sim.process.Party` subclasses that the
discrete-event simulator executes, but over real concurrent transports:
in-process asyncio queues (:class:`InProcTransport`) for fast
deterministic tests, or the one TCP mesh (:class:`TcpTransport`) -- a
listener per hosted node, a sequenced self-healing stream per directed
link -- for wall-clock measurements.  :class:`Cluster` is the one live
host: the ``inproc`` and ``tcp`` backends host all ``n`` nodes of a run
on one, and a ``proc`` worker (:mod:`repro.parallel.proc`) hosts its one
node on one over the very same mesh.
Messages are serialized through a registry-based binary codec, so
reported byte counts are real wire payloads; the simulator sizes its
messages with the same codec, so the counts agree across backends.
"""

from .cluster import TRANSPORTS, Cluster, RuntimeMetrics
from .codec import CodecError, CodecRegistry, default_registry
from .faults import DeliveryDecision, FaultController
from .node import RuntimeNode
from .transport import InProcTransport, TcpTransport, Transport

__all__ = [
    "Cluster",
    "RuntimeMetrics",
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
