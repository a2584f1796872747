"""Heartbeat-driven failure detection.

A peer is *suspected* after ``suspect_after`` intervals with no traffic
and flips back to *alive* on the next receipt.  The monitor is pure
bookkeeping over ``observe``/``check`` calls -- it never reads a clock
itself, so the same code runs on simulated and wall-clock time and a
seeded sim run stays byte-deterministic.  Transition counts feed
``RuntimeMetrics`` so a run record shows how flappy its links were.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

__all__ = ["HeartbeatMonitor"]


class HeartbeatMonitor:
    """Track last-seen times per peer and raise suspect/alive transitions."""

    def __init__(
        self,
        peers: Iterable[int] = (),
        *,
        interval: float = 0.5,
        suspect_after: int = 3,
        on_suspect: Optional[Callable[[int], None]] = None,
        on_alive: Optional[Callable[[int], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        self.interval = interval
        self.suspect_after = suspect_after
        self.on_suspect = on_suspect
        self.on_alive = on_alive
        self.suspect_transitions = 0
        self.alive_transitions = 0
        self._last_seen: dict[int, float] = {}
        self._suspected: set[int] = set()
        for peer in peers:
            self._last_seen[peer] = 0.0

    # -- inputs -------------------------------------------------------------------
    def observe(self, peer: int, now: float) -> None:
        """Any traffic from ``peer`` counts as a heartbeat."""
        self._last_seen[peer] = now
        if peer in self._suspected:
            self._suspected.discard(peer)
            self.alive_transitions += 1
            if self.on_alive is not None:
                self.on_alive(peer)

    def check(self, now: float) -> list[int]:
        """Sweep for newly suspected peers; returns them (sorted)."""
        newly = []
        threshold = self.interval * self.suspect_after
        for peer, seen in sorted(self._last_seen.items()):
            if peer not in self._suspected and now - seen >= threshold:
                self._suspected.add(peer)
                self.suspect_transitions += 1
                newly.append(peer)
                if self.on_suspect is not None:
                    self.on_suspect(peer)
        return newly

    # -- views --------------------------------------------------------------------
    def is_suspected(self, peer: int) -> bool:
        return peer in self._suspected
