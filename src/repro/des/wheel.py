"""Binary-heap event store.

The future-event store of the DES core: a C ``heapq`` of
``(when, seq, payload)`` tuples.  ``seq`` comes from one monotone counter
per store (one store per :class:`~repro.des.engine.Environment`), so
entries pop in ascending ``(time, seq)`` order — equal timestamps in
push order — and the payload is never compared.

The store replaced an array-backed calendar queue.  A calendar queue is
O(1) per operation only while one bucket width fits the schedule; the
MPI simulations mix µs-spaced message events with compute timeouts tens
of seconds away, so no width fits and its pop scan walked whole years of
empty buckets.  A heap costs O(log n) C-level tuple comparisons whatever
the mix of timescales.

Ordering contract (property-tested against a sorted reference in
``tests/des/test_wheel.py``): ascending ``(time, seq)`` with ``seq``
assigned in push order.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Tuple

_INF = math.inf


class EventWheel:
    """Future-event store: a ``heapq`` of ``(when, seq, payload)``."""

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        #: The tie-break counter: ``next(...)`` yields 0, 1, 2, ...
        self._next_seq = count().__next__

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, when: float, payload: Any) -> None:
        """File ``payload`` at time ``when``; equal times pop in push
        order."""
        heappush(self._heap, (when, self._next_seq(), payload))

    def pop(self) -> Tuple[float, Any]:
        """Remove and return ``(when, payload)`` of the earliest entry;
        raises :class:`IndexError` when empty."""
        when, _seq, payload = heappop(self._heap)
        return when, payload

    def pop_batch(self, out_append: Callable[[Any], None]) -> float:
        """Pop *every* entry bearing the earliest queued time, feed their
        payloads to ``out_append`` in push order and return that time.
        Raises :class:`IndexError` when empty.

        This is the engine's inner-loop primitive: one call drains a
        whole simultaneous-event group into the now-ring, where a C
        ``deque`` dispatches it.
        """
        heap = self._heap
        when, _seq, payload = heappop(heap)
        out_append(payload)
        while heap and heap[0][0] == when:
            out_append(heappop(heap)[2])
        return when

    def peek_time(self) -> float:
        """Earliest queued time, or ``inf`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else _INF
