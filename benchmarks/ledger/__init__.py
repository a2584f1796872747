"""The performance ledger: one benchmark for the whole repo.

Five workloads on the live runtime (wall clock, one process, one
thread), every metric named in the repo-root ``BENCHMARK.json``:

* ``python3 benchmarks/ledger/run.py --workload W --seed S --seconds N
  --trace 0|1`` -- one measured run; the last stdout line is the result
  object (end-to-end metrics untraced, per-layer metrics traced).
* ``PYTHONPATH=src python -m benchmarks.ledger run`` -- every workload in
  a fresh child interpreter, one environment-stamped result file.
* ``PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json``
  -- the one gate rule.

Layer attribution is done from here: :mod:`.trace` wraps the public
entry points of ``repro.*`` while a traced run is on and restores them
afterwards; nothing under ``src/`` knows about the ledger.
"""
