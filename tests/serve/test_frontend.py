"""The serve front end both backends share.

:class:`~repro.serve.service.StudyService` and
:class:`~repro.serve.cluster.StudyCluster` are two backends over one
:class:`~repro.serve.service.FrontEnd`, so the request contract holds for
either:

- ``submit(spec, deadline=...)`` raises a typed, counted
  :class:`DeadlineExceeded` both when the waiter's budget lapses and
  when a queued flight expires before its batch is sealed (the expired
  flight is never executed);
- only metrics cross from a batch's executor into the front end's sink,
  never per-point spans or records;
- ``Overloaded.retry_after`` is one formula and never 0;
- ``repro-serve --json`` writes strict JSON even when a shard saw no
  requests.

Timing is pinned with the :class:`GateExecutor` of ``test_service.py``.
"""

import asyncio
import json
import multiprocessing as mp
import re
import threading

import pytest

from repro.exec import ExperimentExecutor, spec_key
from repro.serve import (
    DeadlineExceeded,
    Overloaded,
    StudyCluster,
    StudyService,
    default_universe,
)
from repro.serve.cli import main
from tests.serve.test_service import GateExecutor, small_spec

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="cluster workers are forked",
)


# -- deadlines on the in-process service -------------------------------------

def test_service_waiter_deadline_lapses_while_waiting():
    gate = threading.Event()
    executor = GateExecutor(gate=gate)
    service = StudyService(executor=executor, batch_window=0.0)
    spec = small_spec()

    async def scenario():
        async with service:
            with pytest.raises(DeadlineExceeded) as exc_info:
                await service.submit(spec, deadline=0.05)
            gate.set()  # the flight itself still lands
            return exc_info.value

    exc = asyncio.run(scenario())
    assert exc.deadline == 0.05
    assert exc.key == spec_key(spec)
    assert service.stats.deadline_exceeded == 1
    assert service.obs.metrics.value_of("serve.deadline_exceeded") == 1
    assert executor.stats.executed == 1
    assert service.pending == 0


def test_service_queued_flight_expires_before_its_batch_is_sealed():
    gate = threading.Event()
    executor = GateExecutor(gate=gate)
    service = StudyService(executor=executor, batch_window=0.0)
    busy, doomed = small_spec(nodes=1), small_spec(nodes=2)

    async def scenario():
        async with service:
            first = asyncio.ensure_future(service.submit(busy))
            await asyncio.sleep(0)  # busy's batch holds the executor
            opener = asyncio.ensure_future(
                service.submit(doomed, deadline=0.05)
            )
            joiner = asyncio.ensure_future(service.submit(doomed))
            with pytest.raises(DeadlineExceeded):
                await opener
            gate.set()
            await first
            # The joiner set no budget of its own: it learns of the
            # expiry from the flight, which was dropped at sealing.
            with pytest.raises(DeadlineExceeded):
                await joiner

    asyncio.run(scenario())
    assert executor.batches == [[busy.name]]
    assert service.stats.dedup_hits == 1
    assert service.stats.deadline_exceeded == 2
    assert service.obs.metrics.value_of("serve.deadline_exceeded") == 2
    assert service.pending == 0


def test_service_deadline_must_be_positive():
    service = StudyService(executor=GateExecutor())

    async def scenario():
        with pytest.raises(ValueError):
            await service.submit(small_spec(), deadline=0.0)

    asyncio.run(scenario())


# -- observability policy ----------------------------------------------------

def test_service_sink_gets_exec_metrics_but_no_executor_traces():
    executor = ExperimentExecutor(workers=1, keep_going=True)
    service = StudyService(executor=executor, batch_window=0.01)
    specs = [small_spec(nodes=1), small_spec(nodes=2)]

    async def replay():
        async with service:
            await asyncio.gather(
                *(service.submit(s) for s in specs * 3)
            )

    asyncio.run(replay())
    assert service.obs.metrics.value_of("exec.submits") == 2
    assert service.stats.executed == 2
    assert len(service.obs.records) == 0
    spans = service.obs.spans.by_category("serve")
    assert len(spans) == len(service.obs.spans) == 6
    assert {s.name for s in spans} == {"serve.request"}


# -- admission backpressure --------------------------------------------------

@needs_fork
def test_retry_after_is_one_positive_formula_for_both_front_ends():
    first, second = default_universe(2, fig="fig3", nodes=4, sim_steps=1)

    async def hint(target, release=lambda: None):
        """Fill the one admission slot with ``first``, then get
        ``second`` rejected."""
        async with target:
            flight = asyncio.ensure_future(target.submit(first))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded) as exc_info:
                await target.submit(second)
            release()
            await flight
        return exc_info.value

    gate = threading.Event()
    from_service = asyncio.run(hint(
        StudyService(
            executor=GateExecutor(gate=gate), max_pending=1,
            batch_window=0.0,
        ),
        release=gate.set,
    ))
    from_cluster = asyncio.run(hint(StudyCluster(shards=1, max_pending=1)))
    assert from_service.pending == from_cluster.pending == 1
    assert from_service.retry_after > 0
    assert from_service.retry_after == from_cluster.retry_after


# -- repro-serve --json ------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@needs_fork
def test_json_report_is_strict_when_a_shard_sees_no_requests(
    tmp_path, capsys
):
    report = tmp_path / "report.json"
    rc = main([
        "--zipf", "1.1", "--requests", "8", "--universe", "1",
        "--seed", "0", "--shards", "2", "--json", str(report),
    ])
    assert rc == 0
    assert re.search(
        r"shard balance \(max/min\)\s+inf", capsys.readouterr().out
    )
    payload = json.loads(
        report.read_text(), parse_constant=_reject_constant
    )
    assert sorted(payload["serve"]["requests_by_shard"]) == [0, 8]
    assert payload["serve"]["balance_ratio"] is None
    assert payload["scoreboard"]["balance_ratio"] is None
