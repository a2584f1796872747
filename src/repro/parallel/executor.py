"""A deterministic ``multiprocessing`` map over pure work units.

The executor adds *no* randomness and *no* ordering freedom of its own:

* work items must be pure functions of their arguments (every seeded
  work unit in this repo is keyed ``f"{seed}|kind|{index}"``, so the
  seed travels inside the item, never through process state);
* results are merged in submission (index) order via ``Pool.imap``, so
  ``map(fn, items)`` returns the exact list the sequential loop would --
  byte-identical output records regardless of ``jobs``.

``jobs=1`` never touches ``multiprocessing`` at all (tier-1 tests stay
single-process); ``jobs="auto"`` means one worker per available core.
Worker exceptions propagate to the caller like sequential ones would.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, Optional, Union

__all__ = ["ParallelExecutor", "available_parallelism", "parse_jobs"]


def available_parallelism() -> int:
    """Worker count for ``jobs='auto'``: the visible CPU count."""
    return os.cpu_count() or 1


def parse_jobs(value: Union[int, str, None]) -> int:
    """Validate a ``--jobs`` value: a positive integer or ``'auto'``.

    Accepts the raw CLI string so argparse never gets a chance to print
    its own (non-JSON) error for a malformed value; raises ``ValueError``
    with a message fit for the CLI's uniform ``{"error": ...}`` shape.
    """
    if value is None:
        return 1
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ValueError(f"--jobs wants a positive integer or 'auto', got {value!r}")
    if isinstance(value, int):
        jobs = value
    else:
        text = str(value).strip().lower()
        if text == "auto":
            return available_parallelism()
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"--jobs wants a positive integer or 'auto', got {value!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"--jobs wants a positive integer or 'auto', got {value!r}")
    return jobs


def _start_method() -> str:
    """Prefer ``fork`` (cheap, inherits imported modules); fall back to
    the platform default where fork is unavailable (macOS/Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ParallelExecutor:
    """Seeded, deterministic fan-out of pure work units.

    ``map(fn, items)`` == ``[fn(item) for item in items]``, always -- the
    only degree of freedom ``jobs`` buys is wall-clock.  ``fn`` must be a
    picklable top-level callable (or ``functools.partial`` of one) and
    each item must be picklable; both hold for every work unit this repo
    fans out (frozen dataclasses and plain tuples).
    """

    def __init__(self, jobs: Union[int, str] = 1, *, start_method: Optional[str] = None) -> None:
        self.jobs = parse_jobs(jobs)
        self._start_method = start_method or _start_method()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        progress: Optional[Callable[[int, Any], None]] = None,
        chunksize: Optional[int] = None,
    ) -> list:
        """Apply ``fn`` to every item; results in submission order.

        ``progress(index, result)`` fires in index order as results are
        merged.  ``chunksize`` defaults to 1 -- work units here are
        coarse (an episode, a scenario), so per-item dispatch costs
        nothing and keeps uneven items load-balanced.
        """
        items = list(items)
        workers = min(self.jobs, len(items))
        if workers <= 1:
            out = []
            for index, item in enumerate(items):
                result = fn(item)
                out.append(result)
                if progress is not None:
                    progress(index, result)
            return out
        ctx = multiprocessing.get_context(self._start_method)
        with ctx.Pool(processes=workers) as pool:
            out = []
            for index, result in enumerate(
                pool.imap(fn, items, chunksize or 1)
            ):
                out.append(result)
                if progress is not None:
                    progress(index, result)
        return out
