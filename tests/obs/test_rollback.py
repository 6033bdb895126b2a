"""Observability.checkpoint()/rollback(): an aborted run leaves no trace."""

from repro.des import Environment
from repro.obs import Observability


def state(obs: Observability) -> dict:
    return {
        "spans": list(obs.spans.spans),
        "open": obs.spans.open_count(),
        "records": list(obs.records.records),
        "metrics": obs.metrics.to_dict(),
        "drops": obs.drop_stats(),
    }


def populated() -> Observability:
    obs = Observability(env=Environment(), span_limit=4, record_limit=3)
    obs.add_span("before", "phase", 0.0, 1.0)
    obs.event("mpi.collective", "allreduce", rank=0)
    obs.metrics.counter("mpi.messages_sent").inc(5)
    obs.metrics.gauge("job.elapsed_seconds").set(2.0)
    obs.metrics.histogram("h").observe(0.5)
    return obs


def test_rollback_restores_every_layer():
    obs = populated()
    before = state(obs)
    saved = obs.checkpoint()

    sid = obs.spans.begin("open", "phase", 1.0)  # never closed
    for i in range(5):  # past both limits: drops too
        obs.add_span(f"s{i}", "phase", 1.0, 2.0)
        obs.event("mpi.send", f"{i}->0")
    obs.metrics.counter("mpi.messages_sent").inc(7)
    obs.metrics.gauge("job.elapsed_seconds").set(9.0)
    obs.metrics.histogram("h").observe(50.0)
    obs.metrics.counter("new.counter").inc()
    assert state(obs) != before

    obs.rollback(saved)
    assert state(obs) == before
    assert sid not in obs.spans._track_of
    # Span ids restart where they were: the replay numbers its spans
    # exactly like a run that never had an aborted attempt.
    assert obs.add_span("after", "phase", 1.0, 2.0).span_id == sid


def test_held_instruments_stay_live_and_state_is_reusable():
    obs = populated()
    counter = obs.metrics.counter("mpi.messages_sent")
    saved = obs.checkpoint()
    for _ in range(2):
        counter.inc(3)
        obs.event("mpi.collective", "bcast")
        obs.rollback(saved)
        assert counter.value == 5
        assert len(obs.records) == 1
    counter.inc()
    assert obs.metrics.value_of("mpi.messages_sent") == 6
