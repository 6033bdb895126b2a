"""Deterministic metric instruments and their registry.

All instruments are built for reproducibility: histograms use *fixed*
bucket boundaries chosen at construction (never adapted to the data), and
every dump is emitted in sorted-name order, so two identical simulations
produce byte-identical metric payloads — which is what lets the trace
digest cover metrics too.

Merge semantics (used when combining per-component registries, and
property-tested): counters add, gauges keep last/min/max coherently, and
histograms with identical boundaries add bucket-wise.  Merging
histograms with different boundaries is an error, never a silent
re-bucketing.
"""

from __future__ import annotations

import bisect
import copy
from typing import Iterable, Optional, Sequence

#: Default histogram boundaries for durations in seconds: half-decade
#: steps from 1 µs to 1000 s.  Fixed so that results are deterministic
#: and mergeable across components and runs.
DEFAULT_TIME_BOUNDS: tuple[float, ...] = tuple(
    b * 10.0**e for e in range(-6, 3) for b in (1.0, 3.0)
) + (1000.0,)


class MetricError(ValueError):
    """Invalid metric operation (bad value, incompatible merge...)."""


class Counter:
    """A monotonically increasing count (events, messages, drops)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be >= 0) to the count."""
        if n < 0:
            raise MetricError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (values add)."""
        if not isinstance(other, Counter):
            raise MetricError(f"cannot merge {type(other).__name__} into counter")
        self.value += other.value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A sampled value; remembers the last, min and max observations."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def set(self, v: float) -> None:
        """Record the current value."""
        self.value = v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: other's last value wins, extrema union."""
        if not isinstance(other, Gauge):
            raise MetricError(f"cannot merge {type(other).__name__} into gauge")
        if other.min is None:
            return
        if self.min is None:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.value = other.value

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "min": self.min,
            "max": self.max,
        }


class Histogram:
    """Fixed-boundary histogram of non-negative observations.

    ``bounds`` are the strictly increasing upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    above the last edge.  An observation ``v`` lands in the first bucket
    whose edge satisfies ``v <= edge``.
    """

    kind = "histogram"

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BOUNDS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise MetricError(f"histogram {name!r}: empty bounds")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(
                f"histogram {name!r}: bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = bounds
        self.counts: list[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        """Record one observation."""
        if v < 0:
            raise MetricError(f"histogram {self.name!r}: negative value {v}")
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.sum += v

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in; boundaries must match exactly."""
        if not isinstance(other, Histogram):
            raise MetricError(
                f"cannot merge {type(other).__name__} into histogram"
            )
        if other.bounds != self.bounds:
            raise MetricError(
                f"histogram {self.name!r}: incompatible bucket boundaries"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter("mpi.messages")`` returns the existing instrument if one is
    registered under that name, creating it otherwise; asking for an
    existing name with a different kind is an error (it would silently
    fork the accounting).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise MetricError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BOUNDS
    ) -> Histogram:
        h = self._get_or_create(name, lambda: Histogram(name, bounds), "histogram")
        if h.bounds != tuple(float(b) for b in bounds):
            raise MetricError(
                f"histogram {name!r} already registered with other bounds"
            )
        return h

    def get(self, name: str):
        """The instrument registered under ``name`` (KeyError if none)."""
        return self._metrics[name]

    def value_of(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge, ``default`` if absent.

        Lets assertion-style readers (benchmark gates, chaos checks)
        probe a metric without creating it as a side effect; histograms
        have no single value and also report ``default``.
        """
        metric = self._metrics.get(name)
        return getattr(metric, "value", default) if metric else default

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def checkpoint(self) -> dict:
        """State for :meth:`rollback`: each instrument with a copy of its
        fields."""
        return {
            name: (metric, copy.deepcopy(vars(metric)))
            for name, metric in self._metrics.items()
        }

    def rollback(self, state: dict) -> None:
        """Restore the :meth:`checkpoint` ``state`` in place: instruments
        created since are dropped, the others get their old values back
        (callers holding an instrument keep a live one)."""
        self._metrics = {}
        for name, (metric, fields) in state.items():
            vars(metric).update(copy.deepcopy(fields))
            self._metrics[name] = metric

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of ``other`` into this registry."""
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                factory = {
                    "counter": lambda: Counter(name),
                    "gauge": lambda: Gauge(name),
                    "histogram": lambda: Histogram(name, theirs.bounds),
                }[theirs.kind]
                mine = self._metrics[name] = factory()
            mine.merge(theirs)

    def to_dict(self) -> dict:
        """Deterministic dump: sorted by name, stable field order."""
        return {name: self._metrics[name].to_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` dump.

        The inverse of :meth:`to_dict` up to instrument state — this is
        how a shard worker's metrics cross a process boundary as plain
        JSON-able data (see :mod:`repro.serve.cluster`).  A malformed
        payload raises :class:`MetricError`, never silently drops data.
        """
        if not isinstance(payload, dict):
            raise MetricError(f"metrics dump must be a dict, got {payload!r}")
        reg = cls()
        for name in sorted(payload):
            entry = payload[name]
            if not isinstance(entry, dict) or "kind" not in entry:
                raise MetricError(f"metric {name!r}: malformed dump entry")
            kind = entry["kind"]
            try:
                if kind == "counter":
                    reg.counter(name).inc(entry["value"])
                elif kind == "gauge":
                    g = reg.gauge(name)
                    g.value = entry["value"]
                    g.min = entry["min"]
                    g.max = entry["max"]
                elif kind == "histogram":
                    h = reg.histogram(name, bounds=entry["bounds"])
                    counts = list(entry["counts"])
                    if len(counts) != len(h.counts):
                        raise MetricError(
                            f"histogram {name!r}: {len(counts)} buckets "
                            f"for {len(h.bounds)} bounds"
                        )
                    h.counts = counts
                    h.count = entry["count"]
                    h.sum = entry["sum"]
                else:
                    raise MetricError(
                        f"metric {name!r}: unknown kind {kind!r}"
                    )
            except (KeyError, TypeError) as exc:
                raise MetricError(
                    f"metric {name!r}: malformed dump entry: {exc}"
                ) from None
        return reg

    def merge_dict(self, payload: dict) -> None:
        """Fold a :meth:`to_dict` dump into this registry (see
        :meth:`merge` for the per-kind semantics)."""
        self.merge(MetricsRegistry.from_dict(payload))
