"""The sharded study cluster: shard worker lanes behind the serve front end.

:class:`StudyCluster` is the process-boundary backend of
:class:`~repro.serve.service.FrontEnd`, which owns single-flight,
admission, deadlines, batching, stats and drain exactly as it does for
the in-process :class:`~repro.serve.service.StudyService`.  What this
module adds is transport and supervision: N *shard workers* — one OS
process each, each owning its own
:class:`~repro.exec.executor.ExperimentExecutor` with an in-memory L1
memo (``l1=True``) and, optionally, the shared on-disk
:class:`~repro.exec.cache.ResultCache` as L2 — sit behind a
:class:`~repro.serve.router.ShardRouter` that consistent-hashes every
request's :func:`~repro.exec.speckey.spec_key`.  Each worker is one
front-end lane:

- **Global single-flight.** Identical requests always route to the same
  shard, so the front end's dedupe *is* cluster-wide dedupe: concurrent
  duplicates join the in-flight request (no second message crosses the
  pipe), later repeats hit the owning worker's L1.  A spec executes at
  most once per cluster lifetime, no matter which of millions of
  callers asks, how often, or when.
- **Self-clocking batches**, the front end's rule for every lane.  Each
  shard has at most one outstanding batch; requests arriving while the
  worker is busy accumulate and are flushed (up to ``max_batch``) the
  moment its previous batch lands.
- **Bounded admission.** At most ``max_pending`` unique specs may be in
  flight per shard; beyond that, new keys are rejected with
  :class:`~repro.serve.service.Overloaded`.
- **Self-healing** (``self_heal=True``, the default).  A supervisor
  task detects dead workers two ways — pipe EOF for a process that
  exited, and missed heartbeats (a ``ping``/``pong`` RPC on the same
  duplex pipe) for a *wedged* process that is alive but unresponsive,
  which is then killed.  Dead workers are respawned with a fresh
  executor (the router never remaps, so every key routes back to the
  original shard id), and the in-flight requests that died with the old
  worker are **replayed** transparently: responses stay byte-identical
  because replayed keys hit the shared L2 cache or re-execute
  deterministically.  While a shard is down or flapping, its per-shard
  circuit breaker (:mod:`repro.serve.breaker`: closed → open →
  half-open with seeded decorrelated-jitter backoff) degrades
  gracefully — new keys for that shard run on the front end's
  in-process *fallback lane*, an executor backed by the same L2 — and
  traffic recovers to the ring when the breaker half-opens.  With
  ``self_heal=False`` the cluster keeps the original crash-containment
  contract: a dying worker fails only *its* requests with
  :class:`ShardDown` and stays down.
- **Deadlines.** The remaining budget of a request's deadline travels
  with the batch, so the worker cancels a queued spec whose budget
  lapsed while earlier batchmates executed (worker-side cancellation).

Transport is a duplex :func:`multiprocessing.Pipe` per worker: specs
travel as pickles, results return as the same canonical JSON the result
cache writes — so a response is byte-identical whether it was computed
here, replayed from L1/L2, served by the fallback lane, or served by a
single-process :class:`StudyService` (the parity and chaos gates in
``benchmarks/bench_serve_throughput.py`` hold the cluster to that).

Worker-side accounting comes back two ways: exact per-batch execution
deltas piggyback on every ``done`` message (so a worker killed later
never takes already-reported counts with it), and the worker's
``serve.shard.*`` metrics registry is folded into the front end's
:class:`~repro.obs.span.Observability` at drain.  Supervision adds
``serve.shard.respawns`` / ``heartbeat_misses`` / ``replayed`` /
``breaker_opens`` / ``breaker_closes`` counters, the
``serve.shard.breaker_state`` gauge and ``serve.shard.respawn`` /
``serve.shard.breaker`` spans.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.metrics import ExperimentResult
from repro.exec.executor import ExperimentExecutor
from repro.exec.failures import FailedPoint
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Observability
from repro.serve import breaker as breaker_mod
from repro.serve.breaker import CircuitBreaker
from repro.serve.router import ShardRouter
from repro.serve.service import (
    DeadlineExceeded,
    FrontEnd,
    ServeError,
    ServeStats,
    ServiceClosed,
    _Lane,
)

#: Seed of the per-shard circuit breakers' backoff draws.
BREAKER_SEED = 0
#: Times one flight may die with a worker and be replayed on the ring
#: before it is routed to the fallback lane instead — the guard against
#: a poison spec that kills every worker it meets.
MAX_FLIGHT_REPLAYS = 2


class ShardDown(ServeError):
    """The shard owning this request's key has died (``self_heal=False``
    clusters only — a self-healing cluster replays or degrades instead
    of surfacing this to callers)."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(f"shard {shard} is down: {detail}")
        self.shard = shard


@dataclass
class ShardConfig:
    """Per-worker executor configuration (pickled to the worker)."""

    shard_id: int
    workers: int = 1
    cache: bool = False
    cache_dir: str = ".repro-cache"
    l1: bool = True


@dataclass
class ClusterStats(ServeStats):
    """Front-end accounting plus the per-shard and supervision view.

    The totals (`requests`, `dedup_hits`, `executed`, ...) mean the same
    thing as on :class:`~repro.serve.service.ServeStats`, counted across
    all workers and the fallback lane; the supervision block
    (``shard_crashes`` … ``heartbeat_misses``) tracks the self-healing
    machinery.
    """

    #: Unique in-flight specs actually sent to each worker (replayed
    #: flights count once per send).
    flights_by_shard: list = field(default_factory=list)
    shard_crashes: int = 0
    #: Workers respawned by the supervisor.
    respawns: int = 0
    #: In-flight requests orphaned by a death and replayed on the ring.
    replayed: int = 0
    #: Flights served by the front end's in-process fallback lane.
    fallbacks: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    heartbeat_misses: int = 0

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update(
            {
                "shards": self.shards,
                "requests_by_shard": list(self.requests_by_shard),
                "flights_by_shard": list(self.flights_by_shard),
                "executed": self.executed,
                "l1_hits": self.l1_hits,
                "l2_hits": self.l2_hits,
                "shard_crashes": self.shard_crashes,
                "respawns": self.respawns,
                "replayed": self.replayed,
                "fallbacks": self.fallbacks,
                "breaker_opens": self.breaker_opens,
                "breaker_closes": self.breaker_closes,
                "heartbeat_misses": self.heartbeat_misses,
                "deadline_exceeded": self.deadline_exceeded,
                "balance_ratio": self.balance_ratio(),
            }
        )
        return out


# -- the worker process ------------------------------------------------------

def _worker_main(conn, cfg: ShardConfig) -> None:
    """Shard worker: recv batches, run them, send outcomes, repeat.

    Protocol (parent → worker): ``("run", [(seq, spec, key, remaining),
    …])`` where ``key`` is the spec's
    :func:`~repro.exec.speckey.spec_key`, computed once by the parent
    for single-flight, and ``remaining`` is the request's leftover
    deadline budget in seconds (or ``None``); ``("ping", token)``
    answered with ``("pong", token)`` — between batches *and* between
    execution chunks mid-batch, so a busy worker stays visibly alive
    while a wedged (stopped) process, which can answer nothing, does
    not;
    ``("shutdown",)`` answered with ``("bye", metrics_dump,
    exec_stats)``.  Every ``("done", replies, delta)`` carries the
    batch's exact executor-stat delta so the parent's accounting never
    depends on the worker surviving to say goodbye.  Results travel as
    canonical JSON — the cache's wire format — so the parent
    reconstructs exactly what a local executor would have returned.
    """
    executor = ExperimentExecutor(
        workers=cfg.workers,
        cache=cfg.cache,
        cache_dir=cfg.cache_dir,
        l1=cfg.l1,
        keep_going=True,
    )
    metrics = MetricsRegistry()
    requests_c = metrics.counter("serve.shard.requests")
    batches_c = metrics.counter("serve.shard.batches")
    executed_c = metrics.counter("serve.shard.executed")
    l1_c = metrics.counter("serve.shard.l1_hits")
    l2_c = metrics.counter("serve.shard.l2_hits")
    failures_c = metrics.counter("serve.shard.failures")
    deadline_c = metrics.counter("serve.shard.deadline_cancelled")
    batch_g = metrics.gauge("serve.shard.batch_size")

    def encode(seq, outcome):
        if isinstance(outcome, FailedPoint):
            failures_c.inc()
            return (seq, "failed", outcome)
        blob = json.dumps(outcome.to_json_dict(), sort_keys=True)
        return (seq, "result", blob)

    backlog = deque()

    def answer_pings():
        """Drain queued liveness probes between execution chunks.

        A batch can legitimately run for many heartbeat intervals, so a
        worker that only read the pipe between batches would look
        wedged to the supervisor while merely busy.  Answering pings at
        chunk boundaries bounds unresponsiveness to one chunk's
        runtime — a SIGSTOPped process still answers nothing, which is
        exactly the signal wedge detection needs.  Non-ping messages
        surfaced by the drain keep their order in the backlog.
        """
        while conn.poll(0):
            probe = conn.recv()
            if probe[0] == "ping":
                conn.send(("pong", probe[1]))
            else:
                backlog.append(probe)

    try:
        while True:
            try:
                msg = backlog.popleft() if backlog else conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            if msg[0] == "ping":
                conn.send(("pong", msg[1]))
                continue
            if msg[0] == "shutdown":
                conn.send(
                    ("bye", metrics.to_dict(), executor.stats.as_dict())
                )
                return
            if msg[0] != "run":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
            batch = msg[1]
            requests_c.inc(len(batch))
            batches_c.inc()
            batch_g.set(len(batch))
            t_recv = time.monotonic()
            before = executor.stats.snapshot()
            replies = []
            # Chunked execution: one executor drive per `workers` specs,
            # answering heartbeats at every boundary.  Deadline budgets
            # are checked per spec, so a budget that lapses while
            # earlier batchmates execute cancels the spec instead of
            # running it.
            step = max(1, cfg.workers)
            for start in range(0, len(batch), step):
                answer_pings()
                chunk = []
                for seq, spec, key, remaining in batch[start:start + step]:
                    if (
                        remaining is not None
                        and time.monotonic() - t_recv >= remaining
                    ):
                        deadline_c.inc()
                        replies.append((seq, "deadline", None))
                    else:
                        chunk.append((seq, spec, key))
                if chunk:
                    outcomes = executor.run_many(
                        [s for _, s, _ in chunk], keys=[k for *_, k in chunk]
                    )
                    for (seq, *_), outcome in zip(chunk, outcomes):
                        replies.append(encode(seq, outcome))
            delta = executor.stats.delta(before)
            executed_c.inc(delta["executed"])
            l1_c.inc(delta["l1_hits"])
            l2_c.inc(delta["l2_hits"])
            conn.send(("done", replies, delta))
    except Exception as exc:  # infra failure: tell the parent, then die
        try:
            conn.send(("crash", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):  # pragma: no cover
            pass
        raise


class _Shard(_Lane):
    """A front-end lane whose executor is one worker process."""

    __slots__ = (
        "shard_id", "proc", "conn", "bye", "bye_payload", "reader", "gen",
        "awaiting_pong", "missed", "respawns", "breaker",
    )

    def __init__(self, shard_id, proc, conn, breaker: CircuitBreaker) -> None:
        super().__init__()
        self.shard_id = shard_id
        self.proc = proc
        self.conn = conn
        self.bye = asyncio.Event()
        self.bye_payload = None
        self.reader: Optional[threading.Thread] = None
        #: Process generation.  Bumped on every death so messages (and
        #: the EOF) from a superseded reader thread are discarded
        #: instead of being mistaken for the respawned worker's — the
        #: guard against double-settling a replayed flight.
        self.gen = 0
        self.awaiting_pong = False
        self.missed = 0
        self.respawns = 0
        self.breaker = breaker

    def reset(self, proc, conn) -> None:
        """Point this shard at a freshly respawned worker process."""
        self.proc = proc
        self.conn = conn
        self.alive = True
        self.bye = asyncio.Event()
        self.bye_payload = None
        self.awaiting_pong = False
        self.missed = 0


class StudyCluster(FrontEnd):
    """Serve experiment requests across N shard worker processes.

    The request API is the front end's, shared with
    :class:`~repro.serve.service.StudyService` (``await submit(spec,
    deadline=None)`` → :class:`ExperimentResult`, raising
    :class:`Overloaded` / :class:`ServiceClosed` / :class:`RequestFailed`
    / :class:`DeadlineExceeded` plus — with ``self_heal=False`` — the
    cluster-specific :class:`ShardDown`), so load generators, the CLI
    and the parity tests drive either interchangeably.  Unlike the
    service, a cluster must be started (``async with`` or
    :meth:`start`) before it serves.

    Parameters
    ----------
    shards:
        Worker process count (ignored when ``router`` is given).
    router:
        The consistent-hash router; a default
        :class:`~repro.serve.router.ShardRouter` over ``shards`` if
        omitted.
    workers_per_shard:
        Executor processes *inside* each worker (default 1: the worker
        itself is the parallelism unit).
    cache / cache_dir:
        Give every worker (and the fallback lane) the shared on-disk
        result cache as L2.  Strongly recommended with ``self_heal``:
        it is what makes replays and degraded-path responses cost a
        cache hit instead of a re-execution.
    l1:
        Per-worker in-memory result memo (default on — it is what makes
        repeats of a served spec cost one dict lookup).
    max_pending:
        Admission bound on unique in-flight specs *per shard* (the
        fallback lane is bounded by the same number).
    max_batch:
        Max specs per pipe message / executor submission.
    obs:
        Front-end metrics/span sink; worker-side ``serve.shard.*``
        metrics are folded in at drain.
    self_heal:
        Supervise, respawn and replay (default).  ``False`` restores
        the original contract: crashes surface as :class:`ShardDown`
        and the shard stays down.
    heartbeat_interval / heartbeat_misses:
        Supervisor tick in seconds, and consecutive unanswered ticks
        before a live-but-silent worker is declared wedged and killed.
        The product is the wedge-detection budget — keep it above the
        longest legitimate batch runtime (a worker only answers pings
        between batches).
    max_respawns:
        Per-shard respawn budget (``None`` = unlimited).  A shard past
        its budget serves its keys through the fallback lane forever.
    breaker_base_backoff / breaker_max_backoff:
        Deterministic decorrelated-jitter backoff of the per-shard
        circuit breakers (:mod:`repro.serve.breaker`).
    """

    def __init__(
        self,
        shards: int = 2,
        router: Optional[ShardRouter] = None,
        workers_per_shard: int = 1,
        cache: bool = False,
        cache_dir: str = ".repro-cache",
        l1: bool = True,
        max_pending: int = 64,
        max_batch: int = 16,
        obs: Optional[Observability] = None,
        self_heal: bool = True,
        heartbeat_interval: float = 0.5,
        heartbeat_misses: int = 6,
        max_respawns: Optional[int] = 8,
        breaker_base_backoff: float = 0.05,
        breaker_max_backoff: float = 2.0,
    ) -> None:
        self.router = router or ShardRouter(shards)
        n = self.router.n_shards
        super().__init__(
            max_pending, max_batch, obs,
            ClusterStats(
                shards=n,
                requests_by_shard=[0] * n,
                flights_by_shard=[0] * n,
            ),
        )
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be >= 0 (or None)")
        self.workers_per_shard = workers_per_shard
        self.cache = cache
        self.cache_dir = cache_dir
        self.l1 = l1
        self.self_heal = self_heal
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.max_respawns = max_respawns
        self._breaker_backoff = (breaker_base_backoff, breaker_max_backoff)
        self._shards: list[_Shard] = []
        # Shares the L2 cache (and key space) with the workers, so a key
        # the ring already computed is a cache hit here, and a key
        # computed *here* is a cache hit when the ring recovers — the
        # degraded path changes latency, never bytes.
        self._fallback = _Lane(
            executor=ExperimentExecutor(
                workers=1,
                cache=cache,
                cache_dir=str(cache_dir),
                l1=True,
                keep_going=True,
            )
        )
        self._ping_tokens = itertools.count()
        self._ctx = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    async def start(self) -> "StudyCluster":
        """Spawn the worker processes, their pipe readers, and — with
        ``self_heal`` — the supervisor task."""
        if self._started:
            return self
        if self._closed:
            raise ServiceClosed("cluster has been drained")
        self._loop = asyncio.get_running_loop()
        # fork is cheap (workers inherit the warm interpreter) and is
        # the Linux default; fall back to spawn where fork is absent.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        base, cap = self._breaker_backoff
        for shard_id in range(self.n_shards):
            proc, conn = self._spawn_proc(shard_id)
            self._shards.append(
                _Shard(
                    shard_id, proc, conn,
                    CircuitBreaker(
                        shard_id, seed=BREAKER_SEED,
                        base_backoff=base, max_backoff=cap,
                    ),
                )
            )
        self._lanes = [*self._shards, self._fallback]
        # Readers start only after every fork: forking a multi-threaded
        # process is where the dragons live.  (A later *respawn* does
        # fork with readers running — the child execs nothing but
        # _worker_main and touches no parent locks, the same bargain
        # ProcessPoolExecutor makes on POSIX.)
        for shard in self._shards:
            self._start_reader(shard)
        self._started = True
        self.obs.metrics.gauge("serve.cluster.shards").set(self.n_shards)
        if self.self_heal:
            self._supervisor = self._loop.create_task(
                self._supervise(), name="repro-serve-supervisor"
            )
        return self

    def _spawn_proc(self, shard_id: int):
        cfg = ShardConfig(
            shard_id=shard_id,
            workers=self.workers_per_shard,
            cache=self.cache,
            cache_dir=str(self.cache_dir),
            l1=self.l1,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, cfg),
            daemon=True,
            name=f"repro-serve-shard-{shard_id}",
        )
        proc.start()
        # Parent's copy of the child end must close *before* the next
        # fork, so no sibling holds a stray write end open (that would
        # defeat EOF-based crash detection).
        child_conn.close()
        return proc, parent_conn

    def _start_reader(self, shard: _Shard) -> None:
        t = threading.Thread(
            target=self._reader,
            args=(shard.shard_id, shard.conn, shard.gen),
            daemon=True,
            name=f"repro-serve-reader-{shard.shard_id}.{shard.gen}",
        )
        shard.reader = t
        t.start()

    async def _shutdown(self) -> None:
        """Retire every worker once the building is empty.

        The supervisor keeps running while flights drain — a shard
        dying *mid-drain* is still respawned and its orphans replayed,
        so accepted work is never dropped — and is cancelled only now.
        Collects each worker's ``serve.shard.*`` metrics into
        :attr:`obs` before the processes exit.
        """
        if self._supervisor is not None:
            # All work is settled; stop supervising so a worker dying
            # on the way out is contained, not respawned.
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for shard in self._shards:
            if shard.alive:
                try:
                    shard.conn.send(("shutdown",))
                except (OSError, ValueError, BrokenPipeError):
                    shard.alive = False
                    shard.bye.set()
        await asyncio.gather(*(self._collect_bye(s) for s in self._shards))
        for shard in self._shards:
            await asyncio.get_running_loop().run_in_executor(
                None, shard.proc.join, 10.0
            )
            if shard.proc.is_alive():  # pragma: no cover
                shard.proc.terminate()
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._finalise_stats()

    async def _collect_bye(self, shard: _Shard) -> None:
        if not shard.alive:
            return
        try:
            await asyncio.wait_for(shard.bye.wait(), timeout=60.0)
        except asyncio.TimeoutError:  # pragma: no cover
            shard.alive = False
            shard.proc.terminate()

    def _finalise_stats(self) -> None:
        load = self.stats.requests_by_shard
        self.obs.metrics.gauge("serve.cluster.load_max").set(
            max(load) if load else 0
        )
        self.obs.metrics.gauge("serve.cluster.load_min").set(
            min(load) if load else 0
        )
        for shard in self._shards:
            payload = shard.bye_payload
            if payload is None:
                continue
            # Execution counts already accumulated live from the
            # per-batch done-deltas; the bye only contributes the
            # worker's metric registry.
            metrics_dump, _exec_stats = payload
            self.obs.metrics.merge_dict(metrics_dump)

    # -- chaos hooks ---------------------------------------------------------
    def worker_pid(self, shard_id: int) -> Optional[int]:
        """The shard's current worker pid (changes across respawns)."""
        return self._shards[shard_id].proc.pid

    def kill_worker(self, shard_id: int) -> None:
        """Chaos hook: SIGKILL the shard's worker (``kill -9``).

        The supervisor sees the pipe EOF, replays the shard's in-flight
        requests and respawns the worker.  Safe to call on an
        already-dead shard.
        """
        try:
            self._shards[shard_id].proc.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass

    def wedge_worker(self, shard_id: int) -> None:
        """Chaos hook: SIGSTOP the worker — alive but unresponsive.

        A stopped process answers no heartbeats, so after
        ``heartbeat_misses`` supervisor ticks it is declared wedged,
        killed and respawned.  POSIX only.
        """
        if not hasattr(signal, "SIGSTOP"):  # pragma: no cover
            raise RuntimeError("wedge_worker requires POSIX signals")
        try:
            os.kill(self._shards[shard_id].proc.pid, signal.SIGSTOP)
        except (ProcessLookupError, TypeError):  # pragma: no cover
            pass

    # -- routing and transport -----------------------------------------------
    def _route(self, key, t_start):
        """The owning shard's lane, or the fallback lane while the
        shard's breaker is open or its respawn budget is spent."""
        shard_id = self.router.shard_for(key)
        shard = self._shards[shard_id]
        if not self.self_heal:
            if not shard.alive:
                self._count_failure()
                raise ShardDown(shard_id, "worker process has exited")
            return shard, shard_id
        if not shard.alive and not self._respawn_budget_left(shard):
            return self._fallback, shard_id  # permanently down
        prev = shard.breaker.state
        route = shard.breaker.route(t_start)
        if shard.breaker.state != prev:
            self._breaker_event(shard_id, shard.breaker)
        # A HALF_OPEN probe may target a dead-but-respawnable shard:
        # the flight queues and flushes after the respawn.
        return (shard if route == "ring" else self._fallback), shard_id

    def _dispatch(self, lane, batch) -> None:
        if lane is self._fallback:
            self.stats.fallbacks += len(batch)
            self.obs.metrics.counter("serve.fallback_requests").inc(
                len(batch)
            )
            super()._dispatch(lane, batch)
            return
        self.stats.flights_by_shard[lane.shard_id] += len(batch)
        now = time.monotonic()
        # A reply names its flight by index into the batch.
        wire = [
            (
                i, f.spec, f.key,
                None if f.deadline is None else f.deadline - now,
            )
            for i, f in enumerate(batch)
        ]
        try:
            lane.conn.send(("run", wire))
        except (OSError, ValueError, BrokenPipeError):
            # _shard_died finds the batch's flights by their lane and
            # replays or fails them.
            self._shard_died(lane.shard_id, "pipe write failed")

    def _respawn_budget_left(self, shard: _Shard) -> bool:
        return (
            self.max_respawns is None
            or shard.respawns < self.max_respawns
        )

    def _to_fallback(self, flight) -> None:
        """Re-route an already-admitted (orphaned) flight to the
        fallback lane — replays never drop accepted work."""
        flight.lane = self._fallback
        self._fallback.queue.append(flight)
        self._flush(self._fallback)

    # -- supervision ---------------------------------------------------------
    async def _supervise(self) -> None:
        """Heartbeat every worker; kill the wedged; respawn the dead.

        Runs until drain cancels it (after the last flight settles, so
        mid-drain deaths are still healed).
        """
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            for shard in self._shards:
                try:
                    self._tick(shard)
                except Exception:  # pragma: no cover - must not die
                    self.obs.metrics.counter(
                        "serve.supervisor_errors"
                    ).inc()

    def _tick(self, shard: _Shard) -> None:
        shard_id = shard.shard_id
        if shard.alive:
            if not shard.proc.is_alive():
                # EOF normally beats us to it; belt and braces for a
                # pipe end kept open by an inherited descriptor.
                self._shard_died(shard_id, "worker process exited")
                return
            if shard.awaiting_pong:
                shard.missed += 1
                self.stats.heartbeat_misses += 1
                self.obs.metrics.counter(
                    "serve.shard.heartbeat_misses"
                ).inc()
                if shard.missed >= self.heartbeat_misses:
                    self._kill_shard(
                        shard_id,
                        f"wedged: {shard.missed} heartbeats missed",
                    )
            else:
                try:
                    shard.conn.send(("ping", next(self._ping_tokens)))
                    shard.awaiting_pong = True
                except (OSError, ValueError, BrokenPipeError):
                    self._shard_died(shard_id, "pipe write failed (ping)")
        elif not self._draining or shard.queue:
            if self._respawn_budget_left(shard):
                self._respawn(shard)
            else:  # pragma: no cover - defensive
                while shard.queue:
                    self._to_fallback(shard.queue.popleft())

    def _kill_shard(self, shard_id: int, detail: str) -> None:
        """Forcibly terminate a wedged worker, then run the death path
        (replay + breaker) exactly as if it had crashed."""
        try:
            self._shards[shard_id].proc.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass
        self._shard_died(shard_id, detail)

    def _respawn(self, shard: _Shard) -> None:
        try:
            proc, conn = self._spawn_proc(shard.shard_id)
        except OSError:  # pragma: no cover - retry next tick
            return
        shard.reset(proc, conn)
        self._start_reader(shard)
        shard.respawns += 1
        self.stats.respawns += 1
        self.obs.metrics.counter("serve.shard.respawns").inc()
        t = time.monotonic() - self._t0
        self.obs.add_span(
            "serve.shard.respawn", "serve", t, t,
            track="serve", shard=shard.shard_id, generation=shard.gen,
        )
        # Replay the orphans _shard_died queued for this shard.
        self._flush(shard)

    def _breaker_event(self, shard_id: int, brk: CircuitBreaker) -> None:
        """Record a breaker state *transition* (caller checks it moved)."""
        self.obs.metrics.gauge("serve.shard.breaker_state").set(brk.state)
        t = time.monotonic() - self._t0
        self.obs.add_span(
            "serve.shard.breaker", "serve", t, t,
            track="serve", shard=shard_id, state=brk.state_name,
        )
        if brk.state == breaker_mod.OPEN:
            self.stats.breaker_opens += 1
            self.obs.metrics.counter("serve.shard.breaker_opens").inc()
        elif brk.state == breaker_mod.CLOSED:
            self.stats.breaker_closes += 1
            self.obs.metrics.counter("serve.shard.breaker_closes").inc()

    # -- worker messages (loop thread; scheduled by the readers) -------------
    def _reader(self, shard_id: int, conn, gen: int) -> None:
        """Blocking pipe reader (one daemon thread per worker process).

        Bound to one process *generation*: after a death bumps
        ``shard.gen``, anything this thread still delivers (including
        its EOF) is discarded on the loop thread.
        """
        try:
            while True:
                msg = conn.recv()
                self._loop.call_soon_threadsafe(
                    self._on_message, shard_id, gen, msg
                )
                if msg[0] in ("bye", "crash"):
                    return
        except (EOFError, OSError):
            self._loop.call_soon_threadsafe(self._on_eof, shard_id, gen)

    def _on_message(self, shard_id: int, gen: int, msg) -> None:
        shard = self._shards[shard_id]
        if gen != shard.gen:
            return  # a superseded generation; its flights were replayed
        kind = msg[0]
        if kind == "done":
            replies, delta = msg[1], msg[2]
            self.stats.fold(delta)
            shard.missed = 0
            if self.self_heal and shard.breaker.state != breaker_mod.CLOSED:
                prev = shard.breaker.state
                shard.breaker.record_success()
                if shard.breaker.state != prev:
                    self._breaker_event(shard_id, shard.breaker)
            settled = []
            for i, outcome_kind, payload in replies:
                flight = shard.batch[i]
                if outcome_kind == "deadline":
                    outcome = DeadlineExceeded(flight.key, flight.deadline_s)
                elif outcome_kind == "failed":
                    outcome = payload  # the FailedPoint
                else:
                    outcome = ExperimentResult.from_json_dict(
                        json.loads(payload)
                    )
                settled.append((flight, outcome))
            self._batch_done(shard, settled)
        elif kind == "pong":
            shard.awaiting_pong = False
            shard.missed = 0
        elif kind == "bye":
            shard.bye_payload = (msg[1], msg[2])
            shard.alive = False
            shard.bye.set()
        elif kind == "crash":
            self._shard_died(shard_id, msg[1])

    def _on_eof(self, shard_id: int, gen: int) -> None:
        shard = self._shards[shard_id]
        if gen != shard.gen:
            return  # EOF of a generation already declared dead
        if shard.bye_payload is not None or not shard.alive:
            return  # clean shutdown (or already handled)
        self._shard_died(shard_id, "worker pipe closed unexpectedly")

    def _shard_died(self, shard_id: int, detail: str) -> None:
        """One shard's worker is gone.  With ``self_heal``: open the
        breaker and queue its orphaned flights for replay (or degrade
        them to the fallback lane); without: fail them with
        :class:`ShardDown` and leave the shard down."""
        shard = self._shards[shard_id]
        if not shard.alive:
            return
        shard.alive = False
        # Invalidate the old reader: anything it still delivers is for
        # a flight we are about to replay — processing it would settle
        # the flight twice (once now, once after the replay executes).
        shard.gen += 1
        shard.awaiting_pong = False
        shard.missed = 0
        shard.bye.set()  # a drain waiting on this shard must not hang
        self.stats.shard_crashes += 1
        self.obs.metrics.counter("serve.shard_crashes").inc()
        # Admission order, which is the order the flights were queued.
        affected = [f for f in self._flights.values() if f.lane is shard]
        shard.queue.clear()
        shard.batch = None
        if not self.self_heal:
            for flight in affected:
                self._settle(flight, ShardDown(shard_id, detail))
        else:
            prev = shard.breaker.state
            shard.breaker.record_failure(time.monotonic())
            if shard.breaker.state != prev:
                self._breaker_event(shard_id, shard.breaker)
            respawnable = self._respawn_budget_left(shard)
            requeued = 0
            for flight in affected:
                flight.replays += 1
                if not respawnable or flight.replays > MAX_FLIGHT_REPLAYS:
                    # A flight that keeps dying with workers may be a
                    # poison spec — isolate it on the fallback lane
                    # instead of taking another worker down.
                    self._to_fallback(flight)
                else:
                    shard.queue.append(flight)
                    requeued += 1
            if requeued:
                self.stats.replayed += requeued
                self.obs.metrics.counter("serve.shard.replayed").inc(
                    requeued
                )
        self._gauge_depth()
        self._check_idle()
