"""The serve front end and the single-process study service.

:class:`FrontEnd` is the asyncio front door both serving backends share:
callers ``await submit(spec)`` (optionally with a ``deadline``) and get
an :class:`~repro.core.metrics.ExperimentResult` back, while the front
end collapses duplicate work and bounds the damage of overload.  It
drives *lanes* — a lane is a queue of flights feeding one executor with
at most one outstanding batch — and owns every mechanism that does not
depend on where that executor lives:

Single-flight
    Every admitted spec becomes a *flight* keyed by its
    :func:`~repro.exec.speckey.spec_key`.  A request whose key already
    has a flight in progress attaches to that flight instead of opening
    a new one, so N concurrent identical requests cost exactly one
    simulation, one cache write and N responses (all carrying the same
    result payload).  The flight is retired only after its waiters are
    resolved — a request arriving *after* completion opens a fresh
    flight (which the executor's result cache then answers cheaply).

Admission control
    At most ``max_pending`` flights may be in the building (queued or
    executing) per lane.  Request N+1 with a *new* key is rejected
    immediately with :class:`Overloaded` carrying a ``retry_after`` hint
    — explicit backpressure beats an unbounded queue collapsing under
    its own latency.  Piggybacking on an existing flight is always
    admitted (it adds no work).

Deadlines
    ``submit(spec, deadline=seconds)`` bounds one request: the waiter
    raises :class:`DeadlineExceeded` when its budget lapses, and a flight
    whose opening request's budget lapsed while it was queued is dropped
    at batch sealing instead of executed.  A joiner's budget never
    cancels the shared flight.

Batching
    Every lane is self-clocking: it seals its next batch (at most
    ``max_batch`` flights) the moment its executor is free and it has
    queued flights — no timer.  A request reaching an idle lane runs at
    once; requests arriving while a batch runs share the next batch, so
    batch size grows with load.  The cost: with a pooled executor the
    first flight of a burst gathered onto an idle lane runs as its own
    batch, ahead of the rest.

Drain
    :meth:`~FrontEnd.drain` stops admissions and completes every
    in-flight request before returning — graceful shutdown never drops
    accepted work.

:class:`StudyService` is the in-process backend: one lane over an
:class:`~repro.exec.executor.ExperimentExecutor` whose blocking
``run_many`` runs on a worker thread.
:class:`~repro.serve.cluster.StudyCluster` is the sharded backend: one
lane per worker process plus an in-process fallback lane.

Everything is instrumented through :mod:`repro.obs` (counters
``serve.requests`` / ``serve.dedup_hits`` / ``serve.rejected`` /
``serve.batches`` / ``serve.failures`` / ``serve.deadline_exceeded``,
gauges ``serve.queue_depth`` / ``serve.batch_size``, histograms
``serve.request_seconds`` and ``serve.queue_wait_seconds`` (admission
to batch sealing, per sealed flight), and one ``serve.request`` span
per completed request), and mirrored in :class:`ServeStats` which
additionally keeps exact request latencies for p50/p95/p99 reporting.
Of each batch's executor-side observability only the metrics are folded
in.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.experiment import ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.exec.executor import ExperimentExecutor
from repro.exec.failures import FailedPoint
from repro.exec.speckey import spec_key
from repro.obs.span import Observability

#: Seconds one batch is assumed to take at least, for ``retry_after``.
NOMINAL_BATCH_SECONDS = 0.01


class ServeError(RuntimeError):
    """Base class of everything the service can raise to a caller."""


class Overloaded(ServeError):
    """Admission refused: the pending-flight queue is full.

    Attributes
    ----------
    retry_after:
        Seconds after which a retry has a realistic chance — the time
        the current backlog needs to clear its batches.
    """

    def __init__(self, pending: int, retry_after: float) -> None:
        super().__init__(
            f"study service overloaded: {pending} flights pending; "
            f"retry after {retry_after:.3f}s"
        )
        self.pending = pending
        self.retry_after = retry_after


class ServiceClosed(ServeError):
    """Request refused: the service is draining or has shut down."""


class DeadlineExceeded(ServeError):
    """The request's deadline lapsed before its flight landed.

    Raised by ``submit(spec, deadline=...)`` on either front end — either
    because the waiter's own budget ran out while it waited on a shared
    flight, or because the flight was cancelled before executing (a
    queued flight whose budget lapsed is never run; shard workers apply
    the same rule to batchmates).  ``deadline`` is the request's budget
    in seconds.
    """

    def __init__(self, key: str, deadline: float) -> None:
        super().__init__(
            f"request deadline of {deadline:.3f}s exceeded "
            f"(key {key[:12]}…)"
        )
        self.key = key
        self.deadline = deadline


class RequestFailed(ServeError):
    """The simulation behind a request failed deterministically.

    Wraps the :class:`~repro.exec.failures.FailedPoint` (or the raw
    executor exception message) so every waiter of the flight sees the
    same diagnosis.
    """

    def __init__(self, point: Optional[FailedPoint], detail: str) -> None:
        super().__init__(detail)
        self.point = point


@dataclass
class ServeStats:
    """Cumulative accounting of one front end's traffic."""

    requests: int = 0
    #: Requests that attached to an already-in-flight identical spec.
    dedup_hits: int = 0
    rejected: int = 0
    batches: int = 0
    #: Flights handed to an executor (= unique specs actually driven).
    flights: int = 0
    failures: int = 0
    deadline_exceeded: int = 0
    #: Simulations executed, L1-memo hits and on-disk L2 cache hits,
    #: accumulated from per-batch executor-stat deltas as batches land.
    executed: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    #: Shard count (0 = in-process) and requests routed to each shard
    #: (dedupe joins included — the traffic balance the router produced).
    shards: int = 0
    requests_by_shard: list = field(default_factory=list)
    #: Per-request wall-clock latencies [s], completed requests only.
    latencies: list = field(default_factory=list)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the completed-request latencies.

        ``p`` in [0, 100]; returns 0.0 when nothing has completed yet.
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile out of range: {p}")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without math
        return ordered[int(rank) - 1]

    def latency_summary(self) -> dict:
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def balance_ratio(self) -> float:
        """max/min requests per shard (1.0 without shards, ``inf`` if a
        shard saw none)."""
        if not self.requests_by_shard:
            return 1.0
        low = min(self.requests_by_shard)
        if low == 0:
            return float("inf")
        return max(self.requests_by_shard) / low

    def fold(self, delta: dict) -> None:
        """Add one batch's executor-stat delta (``ExecStats.delta``)."""
        self.executed += delta["executed"]
        self.l1_hits += delta["l1_hits"]
        self.l2_hits += delta["l2_hits"]

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "dedup_hits": self.dedup_hits,
            "rejected": self.rejected,
            "batches": self.batches,
            "flights": self.flights,
            "failures": self.failures,
            "latency": self.latency_summary(),
        }


class _Flight:
    """One admitted unique spec: the work unit batching operates on."""

    __slots__ = (
        "key", "spec", "future", "lane", "shard",
        "admitted", "deadline", "deadline_s", "replays",
    )

    def __init__(self, key, spec, future, lane, shard, t_start, deadline):
        self.key = key
        self.spec = spec
        self.future = future
        #: The lane the flight is queued on or executing in.
        self.lane = lane
        #: The shard owning the key (None without shards).
        self.shard = shard
        #: Monotonic admission time (the opening request's start).
        self.admitted = t_start
        #: Absolute (monotonic) expiry, or None.  Set by the flight's
        #: *opening* request; joiners enforce their own budget
        #: waiter-side.
        self.deadline = None if deadline is None else t_start + deadline
        self.deadline_s = deadline
        #: Times this flight was orphaned by a shard death and replayed.
        self.replays = 0


class _Lane:
    """A flight queue feeding one executor, at most one batch at a time.

    ``executor`` is set for in-process lanes; shard lanes leave it None
    and ship their batches to a worker process instead.
    """

    __slots__ = ("queue", "batch", "alive", "executor", "task")

    def __init__(self, executor=None) -> None:
        self.queue: deque = deque()
        #: The outstanding batch (a list of flights), or None.
        self.batch: Optional[list] = None
        #: Whether the backend can take a batch now.
        self.alive = True
        self.executor = executor
        self.task: Optional[asyncio.Task] = None

    @property
    def load(self) -> int:
        """Admitted flights on this lane: queued plus executing."""
        return len(self.queue) + len(self.batch or ())


class FrontEnd:
    """Single-flight, admission, deadlines, batching, stats and drain.

    Backends subclass it, create their lanes and implement
    :meth:`_route`; a backend whose lanes do not run in-process also
    overrides :meth:`_dispatch` and calls :meth:`_batch_done` when a
    batch lands.  :meth:`start` and :meth:`_shutdown` bracket the
    backend's own resources.
    """

    def __init__(
        self,
        max_pending: int,
        max_batch: int,
        obs: Optional[Observability],
        stats: ServeStats,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.obs = obs or Observability()
        self.stats = stats
        self._lanes: list[_Lane] = []
        #: key -> flight, for every flight not yet retired.
        self._flights: dict[str, _Flight] = {}
        self._idle: Optional[asyncio.Event] = None
        self._started = True
        self._draining = False
        self._closed = False
        self._t0 = time.monotonic()

    # -- lifecycle -----------------------------------------------------------
    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    async def start(self):
        """Bring the backend up (nothing to do in-process)."""
        return self

    @property
    def pending(self) -> int:
        """Flights currently in the building (queued + executing)."""
        return len(self._flights)

    async def drain(self) -> None:
        """Refuse new admissions, finish every in-flight request.

        Idempotent; after it returns, :meth:`submit` raises
        :class:`ServiceClosed` and all previously admitted futures are
        resolved.
        """
        if self._closed:
            return
        self._draining = True
        if self._started:
            if self._idle is None:  # shared by concurrent drains
                self._idle = asyncio.Event()
            while self._flights:
                self._idle.clear()
                await self._idle.wait()
            await self._shutdown()
        self._closed = True

    async def _shutdown(self) -> None:
        """Release the backend once every flight has settled."""

    # -- the request path ----------------------------------------------------
    async def submit(
        self,
        spec: ExperimentSpec,
        deadline: Optional[float] = None,
    ) -> ExperimentResult:
        """Serve one request; resolves when its flight lands.

        ``deadline`` is this request's wall-clock budget in seconds; the
        request raises :class:`DeadlineExceeded` when it lapses.  Also
        raises :class:`Overloaded` (carrying ``retry_after``) when
        admission control refuses the request, :class:`ServiceClosed`
        after :meth:`drain`, and :class:`RequestFailed` when the
        simulation itself failed.
        """
        t_start = time.monotonic()
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds")
        self.stats.requests += 1
        self.obs.metrics.counter("serve.requests").inc()
        if self._draining or self._closed:
            raise ServiceClosed(
                f"{type(self).__name__} is draining; not admitting"
            )
        if not self._started:
            raise RuntimeError(
                f"{type(self).__name__}.submit before start(); use "
                "'async with' or await start() first"
            )
        key = spec_key(spec)
        flight = self._flights.get(key)
        deduped = flight is not None
        if deduped:
            self.stats.dedup_hits += 1
            self.obs.metrics.counter("serve.dedup_hits").inc()
        else:
            flight = self._admit(key, spec, t_start, deadline)
        if flight.shard is not None:
            self.stats.requests_by_shard[flight.shard] += 1
        # shield: one waiter cancelling must not cancel the shared
        # flight — the other waiters (and the cache write) still want it.
        try:
            shielded = asyncio.shield(flight.future)
            if deadline is not None:
                budget = (t_start + deadline) - time.monotonic()
                outcome = await asyncio.wait_for(
                    shielded, timeout=max(0.0, budget)
                )
            else:
                outcome = await shielded
        except asyncio.TimeoutError:
            self._count_deadline()
            raise DeadlineExceeded(key, deadline) from None
        except DeadlineExceeded:
            self._count_deadline()
            raise
        except ServeError:
            self._count_failure()
            raise
        latency = time.monotonic() - t_start
        self.stats.latencies.append(latency)
        self.obs.metrics.histogram("serve.request_seconds").observe(latency)
        attrs = {"key": key, "deduped": deduped}
        if flight.shard is not None:
            attrs["shard"] = flight.shard
        self.obs.add_span(
            "serve.request", "serve",
            t_start - self._t0, t_start - self._t0 + latency,
            track="serve", **attrs,
        )
        if isinstance(outcome, FailedPoint):
            self._count_failure()
            raise RequestFailed(
                outcome,
                f"request {spec.name!r} failed: {outcome.error_type}: "
                f"{outcome.error}",
            )
        return outcome

    def _admit(self, key, spec, t_start, deadline) -> _Flight:
        """Route a new key to a lane, admit it there and queue it."""
        lane, shard = self._route(key, t_start)
        if lane.load >= self.max_pending:
            self.stats.rejected += 1
            self.obs.metrics.counter("serve.rejected").inc()
            raise Overloaded(
                pending=lane.load, retry_after=self._retry_after(lane)
            )
        flight = _Flight(
            key, spec, asyncio.get_running_loop().create_future(),
            lane, shard, t_start, deadline,
        )
        self._flights[key] = flight
        lane.queue.append(flight)
        self._gauge_depth()
        self._flush(lane)
        return flight

    def _route(self, key: str, t_start: float) -> tuple[_Lane, Optional[int]]:
        """The lane a new key runs on, and the shard owning it."""
        raise NotImplementedError

    def _retry_after(self, lane: _Lane) -> float:
        """Backpressure hint: batches needed to clear the lane's backlog
        times :data:`NOMINAL_BATCH_SECONDS`, so it is never 0."""
        backlog_batches = -(-lane.load // self.max_batch)
        return NOMINAL_BATCH_SECONDS * max(1, backlog_batches)

    def _count_failure(self) -> None:
        self.stats.failures += 1
        self.obs.metrics.counter("serve.failures").inc()

    def _count_deadline(self) -> None:
        self.stats.deadline_exceeded += 1
        self.obs.metrics.counter("serve.deadline_exceeded").inc()

    def _gauge_depth(self) -> None:
        self.obs.metrics.gauge("serve.queue_depth").set(len(self._flights))

    def _check_idle(self) -> None:
        if not self._flights and self._idle is not None:
            self._idle.set()

    # -- batches -------------------------------------------------------------
    def _flush(self, lane: _Lane) -> None:
        """Seal and dispatch the lane's next batch if its backend is free
        and flights are queued (called on every admission and landing,
        so a lane never waits on a timer)."""
        if lane.batch is not None or not lane.queue or not lane.alive:
            return
        now = time.monotonic()
        waits = self.obs.metrics.histogram("serve.queue_wait_seconds")
        batch = []
        while lane.queue and len(batch) < self.max_batch:
            flight = lane.queue.popleft()
            if flight.deadline is not None and now >= flight.deadline:
                # The opening request's budget lapsed while the flight
                # sat in the queue — never execute it.
                self._settle(
                    flight, DeadlineExceeded(flight.key, flight.deadline_s)
                )
                continue
            waits.observe(now - flight.admitted)
            batch.append(flight)
        if not batch:
            self._gauge_depth()
            self._check_idle()
            return
        lane.batch = batch
        self.stats.batches += 1
        self.stats.flights += len(batch)
        self.obs.metrics.counter("serve.batches").inc()
        self.obs.metrics.gauge("serve.batch_size").set(len(batch))
        self._dispatch(lane, batch)

    def _dispatch(self, lane: _Lane, batch: list) -> None:
        """Hand a sealed batch to the lane's backend: in-process lanes
        run it on their executor."""
        lane.task = asyncio.get_running_loop().create_task(
            self._run_local(lane, batch)
        )

    async def _run_local(self, lane: _Lane, batch: list) -> None:
        executor = lane.executor
        specs = [f.spec for f in batch]
        # run_many blocks, so it runs on a thread and writes into its
        # own batch Observability.  Only the batch's metrics (the exec.*
        # counters) are folded into the front end's sink, on the loop
        # thread: per-point spans and records stay out of it, the same
        # policy shard workers follow.
        batch_obs = Observability()
        before = executor.stats.snapshot()
        try:
            outcomes = await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.run_many(specs, obs=batch_obs)
            )
        except Exception as exc:  # fail-fast executor or infra error
            detail = f"batch execution failed: {type(exc).__name__}: {exc}"
            # One instance per flight: a shared exception object would
            # interleave tracebacks across waiter tasks.
            outcomes = [RequestFailed(None, detail) for _ in batch]
        self.stats.fold(executor.stats.delta(before))
        self.obs.metrics.merge(batch_obs.metrics)
        self._batch_done(lane, zip(batch, outcomes))

    def _batch_done(self, lane: _Lane, settled) -> None:
        """Settle a landed batch's ``(flight, outcome)`` pairs, free the
        lane and seal its next batch."""
        for flight, outcome in settled:
            self._settle(flight, outcome)
        lane.batch = None
        self._gauge_depth()
        self._flush(lane)
        self._check_idle()

    def _settle(self, flight: _Flight, outcome) -> None:
        """Resolve a flight's shared future and retire the flight.

        A result or :class:`FailedPoint` becomes the future's result
        (each waiter raises its own :class:`RequestFailed` for the
        latter); a :class:`ServeError` becomes its exception, retrieved
        at once: a waiter whose own deadline already lapsed has
        abandoned the future, and an unretrieved exception would be
        logged as a leak at garbage collection.  Later identical
        requests open a fresh flight (and typically hit a cache).
        """
        future = flight.future
        if not future.done():
            if isinstance(outcome, ServeError):
                future.set_exception(outcome)
                future.exception()
            else:
                future.set_result(outcome)
        self._flights.pop(flight.key, None)


class StudyService(FrontEnd):
    """Serve experiment requests over a shared in-process executor.

    Parameters
    ----------
    executor:
        The :class:`ExperimentExecutor` driving the actual simulations
        (anything with its ``run_many(specs, obs=)`` and
        :class:`~repro.exec.executor.ExecStats` ``stats``).  Defaults to
        a serial, cached, ``keep_going`` executor — ``keep_going``
        matters: one failing spec must annotate its own flight, not
        abort its batchmates.
    max_pending:
        Admission bound on flights in the building (queued + executing).
    max_batch:
        Hard cap on flights per executor submission.
    obs:
        Metrics/span sink; a fresh :class:`Observability` by default
        (exposed as :attr:`obs` either way).
    """

    def __init__(
        self,
        executor: Optional[ExperimentExecutor] = None,
        max_pending: int = 64,
        max_batch: int = 16,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(max_pending, max_batch, obs, ServeStats())
        self.executor = executor or ExperimentExecutor(
            workers=1, cache=True, keep_going=True
        )
        self._lanes = [_Lane(self.executor)]

    def _route(self, key, t_start):
        return self._lanes[0], None
