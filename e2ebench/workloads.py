"""The benchmark's four workloads and its correctness gate.

Each workload runs in *episodes*: a set-up (spec/universe/mix
construction, executor or cluster start) followed by a timed region
(artefact regeneration with its paper-shape verdicts, or a full replay
plus drain).  Everything is driven through public entry points only:
the study classes, :class:`ExperimentExecutor`, :class:`StudyService`,
:class:`StudyCluster` and :func:`run_load`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

import repro.core.runner as runner_module
from repro.core.metrics import ExperimentResult
from repro.core.report import check_fig1, check_fig3
from repro.core.runner import ExperimentRunner
from repro.core.study import ContainerSolutionsStudy, ScalabilityStudy
from repro.des.engine import Environment
from repro.exec import ExperimentExecutor
from repro.exec import speckey
from repro.exec.cache import ResultCache
from repro.serve.cluster import StudyCluster
from repro.serve.loadgen import ZipfianMix, default_universe, run_load
from repro.serve.service import StudyService

#: Study pool size, shard count and closed-loop client count.
NPROC = os.cpu_count() or 1

#: The zipf exponent of both serve mixes.
ZIPF_S = 1.1

#: Run records, span dumps and the serve workloads' fresh L2
#: directories go here, under the checkout root.
OUT_DIR = ".e2ebench-out"


@dataclass
class Episode:
    """One set-up plus one timed region."""

    setup_s: float
    wall_s: float
    attempted: int
    failed: int
    #: Per-request latencies [s]; a fig episode is one request.
    latencies: list
    #: The executor / service / cluster that served the episode.
    target: object = None
    #: The serve replay's LoadReport (None for fig workloads).
    report: object = None
    mix: object = None


def fingerprint(result: ExperimentResult) -> dict:
    """The per-spec values the committed reference pins."""
    fp = {
        "elapsed_seconds": result.elapsed_seconds,
        "messages": result.messages,
        "internode_messages": result.internode_messages,
        "phases": dict(sorted(result.phases.items())),
    }
    return json.loads(json.dumps(fp))


def payload(result: ExperimentResult) -> str:
    """A result in the load generator's response encoding."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


class _DirectExecutor:
    """Stands in for an executor: runs every spec straight through
    :class:`ExperimentRunner`, no pool, cache or retry layer."""

    def run_many(self, specs, obs=None):
        return [ExperimentRunner().run(spec) for spec in specs]


class Gate:
    """Checks outputs against committed fingerprints, falling back to a
    direct run (outside the timed region) where nothing is committed."""

    def __init__(self, committed: dict) -> None:
        self.committed = committed
        self.sources = {"committed": 0, "direct": 0}
        self.mismatches: list = []
        self._direct_fig: dict = {}
        self._direct_serve: dict = {}

    def check_fig(self, workload, quick, outcome, verdicts) -> int:
        """Failed grid points of one fig episode (all of them when a
        verdict fails or the grid raised)."""
        size = workload.grid_size(quick)
        if outcome is None or not all(verdicts.values()):
            bad = [k for k, ok in (verdicts or {}).items() if not ok]
            self.mismatches.append(f"{workload.name}: verdicts {bad or 'n/a'}")
            return size
        committed = self.committed.get(workload.name, {})
        failed = 0
        for result in workload.points(outcome):
            if not isinstance(result, ExperimentResult):
                failed += 1
                self.mismatches.append(f"{result.spec_name}: {result.error}")
                continue
            ref = committed.get(result.spec_name)
            if ref is not None:
                self.sources["committed"] += 1
            else:
                ref = self.direct_fig(workload, quick).get(result.spec_name)
                self.sources["direct"] += 1
            if fingerprint(result) != ref:
                failed += 1
                self.mismatches.append(f"{result.spec_name}: fingerprint")
        return failed

    def direct_fig(self, workload, quick) -> dict:
        key = (workload.name, quick)
        if key not in self._direct_fig:
            outcome = workload.study(_DirectExecutor(), quick).run()
            self._direct_fig[key] = {
                r.spec_name: fingerprint(r) for r in workload.points(outcome)
            }
        return self._direct_fig[key]

    def check_serve(self, mix, report) -> int:
        """Failed requests of one replay: errors plus payloads that
        differ from a direct run of their spec."""
        failed = 0
        for idx, item in enumerate(mix.sequence):
            spec = mix.universe[item]
            ref = self._direct_serve.get(spec.name)
            if ref is None:
                ref = payload(ExperimentRunner().run(spec))
                self._direct_serve[spec.name] = ref
            self.sources["direct"] += 1
            if report.payloads[idx] != ref:
                failed += 1
                self.mismatches.append(
                    f"request {idx} ({spec.name}): "
                    f"{str(report.payloads[idx])[:40]}"
                )
        return failed


class FigWorkload:
    """A ``repro-study`` artefact regenerated with the CLI-default
    executor (a pool of ``NPROC`` workers, no cache, fail-fast)."""

    kind = "fig"

    def __init__(self, name, study_cls, check, quick_kwargs, points, grid):
        self.name = name
        self.study_cls = study_cls
        self.check = check
        self.quick_kwargs = quick_kwargs
        #: outcome -> its results; study -> its grid size.
        self.points = points
        self.grid = grid

    def study(self, executor, quick: bool):
        kwargs = self.quick_kwargs if quick else {}
        return self.study_cls(executor=executor, **kwargs)

    def grid_size(self, quick: bool) -> int:
        return self.grid(self.study(_DirectExecutor(), quick))

    def episode(self, seed, quick, gate, workers=NPROC, timed=None,
                index=0):
        # The artefact is fixed by the paper; the seed does not reach it.
        t0 = time.perf_counter()
        executor = ExperimentExecutor(workers=workers)
        study = self.study(executor, quick)
        t1 = time.perf_counter()
        outcome, verdicts = None, {}
        with timed(executor) if timed else contextlib.nullcontext():
            try:
                outcome = study.run()
                verdicts = self.check(outcome)
            except Exception as exc:  # a fail-fast grid point
                gate.mismatches.append(f"{self.name}: {exc}")
            t2 = time.perf_counter()
        failed = gate.check_fig(self, quick, outcome, verdicts)
        return Episode(
            setup_s=t1 - t0, wall_s=t2 - t1,
            attempted=self.grid_size(quick), failed=failed,
            latencies=[t2 - t1], target=executor,
        )


class ServeWorkload:
    """A seeded zipf mix of fig1-shaped 2-node ``sim_steps=1`` specs
    replayed by a closed loop of ``NPROC`` clients against a fresh L2."""

    kind = "serve"
    UNIVERSE = 16
    REQUESTS = 1000
    QUICK_UNIVERSE = 8
    QUICK_REQUESTS = 200

    def __init__(self, name: str, sharded: bool) -> None:
        self.name = name
        self.sharded = sharded

    def mix(self, seed: int, quick: bool) -> ZipfianMix:
        n = self.QUICK_UNIVERSE if quick else self.UNIVERSE
        requests = self.QUICK_REQUESTS if quick else self.REQUESTS
        return ZipfianMix.build(
            default_universe(n), requests, s=ZIPF_S, seed=seed
        )

    def episode(self, seed, quick, gate, workers=None, timed=None,
                index=0):
        """Episode ``index`` of a run replays its own mix, drawn from
        ``seed * 100 + index``, so a run's tail latency averages over
        several sequences."""
        os.makedirs(OUT_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="l2-", dir=OUT_DIR)
        try:
            ep = asyncio.run(self._episode(
                seed * 100 + index, quick, timed, cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        ep.failed = gate.check_serve(ep.mix, ep.report)
        return ep

    async def _episode(self, seed, quick, timed, cache_dir) -> Episode:
        t0 = time.perf_counter()
        mix = self.mix(seed, quick)
        if self.sharded:
            target = StudyCluster(
                shards=NPROC, cache=True, cache_dir=cache_dir, l1=True
            )
            await target.start()
        else:
            # The repro-serve in-process default, with L1 off so that
            # repeats are answered by the on-disk L2.
            target = StudyService(
                executor=ExperimentExecutor(
                    workers=1, cache=True, cache_dir=cache_dir,
                    keep_going=True,
                )
            )
        t1 = time.perf_counter()
        try:
            with timed(target) if timed else contextlib.nullcontext():
                report = await run_load(target, mix, concurrency=NPROC)
                await target.drain()
                t2 = time.perf_counter()
        finally:
            await target.drain()
        return Episode(
            setup_s=t1 - t0, wall_s=t2 - t1,
            attempted=mix.n_requests, failed=0,
            latencies=[x for x in report.latencies if x is not None],
            target=target, report=report, mix=mix,
        )


WORKLOADS = {
    "fig3_mn4": FigWorkload(
        "fig3_mn4", ScalabilityStudy, check_fig3,
        {"nodes": (4, 32, 64)},
        lambda outcome: [r for series in outcome.results.values()
                         for r in series.values()],
        lambda study: len(study.VARIANTS) * len(study.nodes),
    ),
    "fig1_lenox": FigWorkload(
        "fig1_lenox", ContainerSolutionsStudy, check_fig1,
        {"configs": ((8, 14), (112, 1))},
        lambda outcome: list(outcome.results.values()),
        lambda study: len(study.RUNTIMES) * len(study.configs),
    ),
    "serve_local": ServeWorkload("serve_local", sharded=False),
    "serve_sharded": ServeWorkload("serve_sharded", sharded=True),
}

#: Modules a fresh interpreter imports before each kind can start.
IMPORTS = {
    "fig": "repro.core.study, repro.core.report, repro.exec",
    "serve": "repro.serve.service, repro.serve.cluster, "
             "repro.serve.loadgen, repro.exec",
}


def instrument(rec, target) -> None:
    """Install span wrappers around the program's public entry points.

    Called after set-up, so shard workers forked at cluster start stay
    untraced: ``serve_sharded`` is traced on the front-end side only.
    """
    comms: list = []
    real_comm = runner_module.SimComm

    def recording_comm(*args, **kwargs):
        comm = real_comm(*args, **kwargs)
        comms.append(comm)
        return comm

    def runner_done(state, result, attrs):
        c = rec.counters
        c["mpi.messages"] += result.messages
        c["mpi.bytes"] += result.bytes_sent
        c["mpi.internode_messages"] += result.internode_messages
        while comms:
            c["mpi.matched_fast"] += comms.pop().messages_matched_fast

    def env_done(state, result, attrs):
        env, before = state
        rec.counters["des.events"] += env.events_executed - before
        attrs["events"] = env.events_executed - before

    rec.replace(runner_module, "SimComm", recording_comm)
    rec.wrap(ExperimentRunner, "run", "core.run",
             trace=lambda a: f"spec-{a[1].name}", leave=runner_done)
    rec.wrap(Environment, "run", "des.run",
             enter=lambda a: (a[0], a[0].events_executed), leave=env_done)
    original_key = speckey.spec_key
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, "spec_key", None) is original_key):
            rec.wrap(module, "spec_key", "exec.spec_key")
    rec.wrap(ResultCache, "get", "exec.cache_get")
    rec.wrap(ResultCache, "put", "exec.cache_put")
    rec.wrap(ExperimentExecutor, "run_many", "exec.run_many",
             trace=lambda a: rec.next_batch(),
             enter=lambda a: [s.name for s in a[1]],
             leave=lambda names, r, attrs: attrs.update(specs=names))
    submit_owner = type(target)
    if submit_owner in (StudyService, StudyCluster):
        rec.wrap(submit_owner, "submit", "serve.submit",
                 trace=lambda a: rec.next_request(),
                 enter=lambda a: a[1].name,
                 leave=lambda name, r, attrs: attrs.update(spec=name))
        # Only the front-end's own long-lived Observability: merges into
        # per-batch scratch instances inside the executor are not this.
        rec.wrap(target.obs, "merge", "serve.obs_merge")
