"""Parallel execution engine: a deterministic multiprocessing map and
the process-per-party ``proc`` runtime backend.

Two complementary halves, one principle -- *parallelism must never change
an output record*:

* :class:`ParallelExecutor` fans out **pure work units** (fuzz campaign
  episodes, scenario-registry sweeps) across worker processes and merges
  results in index order, so the output is byte-identical to the sequential path
  regardless of ``jobs``.  Work units carry their own seeds -- an episode
  is a pure function of ``(campaign_seed, episode_index)`` -- so no
  randomness crosses a process boundary.
* :class:`ProcCluster` hosts every party in its own OS process, each on
  a one-node :class:`~repro.runtime.cluster.Cluster` over the runtime's
  :class:`~repro.runtime.transport.TcpTransport` mesh (the ``proc``
  backend of :func:`~repro.scenarios.harness.run_scenario`), which is
  what finally lets an n-party cluster use n cores.

The heavy halves (the proc orchestrator, the registry sweep) resolve
lazily so importing the executor stays cheap.
"""

from .executor import ParallelExecutor, available_parallelism, parse_jobs

#: names resolved lazily (PEP 562) from their defining modules
_LAZY = {
    "ProcCluster": "proc",
    "ProcError": "proc",
    "run_specs": "sweep",
}

__all__ = [
    "ParallelExecutor",
    "available_parallelism",
    "parse_jobs",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
