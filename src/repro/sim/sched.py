"""The simulation kernel's event queue.

The :class:`~repro.sim.engine.Environment` keeps its pending events in a
:class:`HeapScheduler`: one binary heap (``heapq``) of
``(time, priority, eid, event)`` entries, popped in that total order.

Lazy cancellation: rather than removing an entry (O(n) in a heap), the
kernel marks the event's ``_tombstone`` flag and the dispatch loop
discards it when popped.  :meth:`HeapScheduler.pop` never filters — the
engine owns tombstone handling.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

#: A scheduled entry: (time, priority, eid, event).
Entry = Tuple[float, int, int, object]

_INF = float("inf")


class HeapScheduler:
    """Ordered container of pending simulation events: one binary heap."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: List[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._queue, entry)

    def pop(self) -> Entry:
        """Remove and return the least entry; raise IndexError if empty."""
        return heappop(self._queue)

    def peek_time(self) -> float:
        """Time of the least entry, or ``inf`` when empty."""
        return self._queue[0][0] if self._queue else _INF

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} len={len(self)}>"
