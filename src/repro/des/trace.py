"""Execution tracing.

A :class:`Tracer` collects timestamped records from instrumented
components (the communicator logs message sends and deliveries when given
one).  Traces answer "what did the network actually do" questions —
message timelines, per-category counts, inter-arrival statistics — that
aggregate counters cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    category: str
    label: str
    data: Mapping[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceRecord`\\ s, optionally filtered by category.

    Parameters
    ----------
    categories:
        If given, only these categories are recorded (others are dropped
        cheaply); ``None`` records everything.
    limit:
        Hard cap on stored records (protects long simulations); the count
        of dropped records is kept.
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        limit: int = 1_000_000,
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._categories = frozenset(categories) if categories else None
        self._limit = limit
        self.records: list[TraceRecord] = []
        self.dropped = 0
        #: Per-category overflow counts — a consumer summing
        #: :meth:`counts` can see exactly which categories the limit
        #: truncated instead of silently reading skewed totals.
        self.dropped_by_category: dict[str, int] = {}

    def wants(self, category: str) -> bool:
        """Whether this tracer records ``category`` (cheap pre-check)."""
        return self._categories is None or category in self._categories

    def record(self, time: float, category: str, label: str, **data: Any) -> None:
        """Store one record (subject to filter and limit)."""
        if not self.wants(category):
            return
        if len(self.records) >= self._limit:
            self._drop(category)
            return
        self.records.append(TraceRecord(time, category, label, data))

    def _drop(self, category: str) -> None:
        self.dropped += 1
        self.dropped_by_category[category] = (
            self.dropped_by_category.get(category, 0) + 1
        )

    def checkpoint(self) -> tuple:
        """State for :meth:`rollback` (records are only ever appended)."""
        return len(self.records), self.dropped, dict(self.dropped_by_category)

    def rollback(self, state: tuple) -> None:
        """Forget everything recorded since the :meth:`checkpoint`."""
        n, self.dropped, dropped_by_category = state
        del self.records[n:]
        self.dropped_by_category = dict(dropped_by_category)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_seen(self) -> int:
        """Records offered past the category filter: stored + dropped."""
        return len(self.records) + self.dropped

    def by_category(self, category: str) -> list[TraceRecord]:
        """All records of one category, in time order."""
        return [r for r in self.records if r.category == category]

    def counts(self) -> dict[str, int]:
        """Record count per category."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.category] = out.get(r.category, 0) + 1
        return out

    def time_span(self) -> tuple[float, float]:
        """(first, last) record times; (0, 0) when empty."""
        if not self.records:
            return (0.0, 0.0)
        return (self.records[0].time, self.records[-1].time)

    # -- merging ------------------------------------------------------------
    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's records in, preserving counts.

        Records ``other`` already accepted bypass this tracer's category
        filter (they were wanted where they were recorded); the limit
        still applies, with overflow counted as dropped.  Afterwards
        ``total_seen`` has grown by exactly ``other.total_seen``, and
        the stored records are re-sorted by time so :meth:`by_category`
        and :meth:`time_span` stay correct.
        """
        for r in other.records:
            if len(self.records) >= self._limit:
                self._drop(r.category)
            else:
                self.records.append(r)
        self.dropped += other.dropped
        for cat, n in sorted(other.dropped_by_category.items()):
            self.dropped_by_category[cat] = (
                self.dropped_by_category.get(cat, 0) + n
            )
        self.records.sort(key=lambda r: r.time)
