"""Bounded slow-query log: top-N requests by ``total_ms``.

A min-heap of capacity N keyed on total latency: recording is O(log N)
and a fast query that would not displace the current N-th slowest is a
single comparison. Entries are free-form dicts — the service records the
request's name/mode/k, its request id, the ``Timings`` projection, and
the full span-tree breakdown, so ``GET /v1/slow_queries`` explains
*where* a slow query's milliseconds went, not just that it was slow.
"""

from __future__ import annotations

import heapq
import threading
import time

DEFAULT_CAPACITY = 32


class SlowQueryLog:
    """Keep the ``capacity`` slowest entries seen so far."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = 0
        self._lock = threading.Lock()

    def would_record(self, total_ms: float) -> bool:
        """Would an entry this slow displace anything? A cheap pre-check so
        callers skip building expensive entries (span-tree dicts) for the
        fast queries that dominate a healthy workload. Advisory under
        races — :meth:`record` re-checks under the lock."""
        heap = self._heap
        return len(heap) < self.capacity or float(total_ms) > heap[0][0]

    def record(self, entry: dict) -> bool:
        """Offer one entry (must carry ``total_ms``); True when kept."""
        total_ms = float(entry.get("total_ms", 0.0))
        with self._lock:
            self._seq += 1
            item = (total_ms, self._seq, dict(entry, recorded_at=time.time()))
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, item)
                return True
            if total_ms > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)
                return True
        return False

    def snapshot(self) -> list[dict]:
        """Entries slowest-first (ties: most recent first)."""
        with self._lock:
            items = list(self._heap)
        items.sort(key=lambda item: (-item[0], -item[1]))
        return [dict(entry) for _, _, entry in items]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
