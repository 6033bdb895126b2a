"""Collective fast-path refusals fall back to the simulated schedule.

Fig. 2's 6- and 12-node points run a ``p = 3·2^k`` fold allreduce whose
entries are staggered, so the lockstep closed form refuses them; the
fault study arms injectors, which keep the simulated schedule.  Both
used to crash with the fast path engaged.  The runner now re-runs a
refused spec on the simulated schedule, and an attached ``obs`` holds
exactly what a never-fast run writes, plus one
``mpi.fastpath_fallbacks`` count.
"""

import dataclasses

from repro.core import calibration
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.core.study import FaultSensitivityStudy, PortabilityStudy
from repro.exec import ExperimentExecutor
from repro.faults import FaultPlan
from repro.hardware import catalog
from repro.obs import Observability


class RecordingExecutor:
    """Delegates to a real executor and remembers every spec it ran."""

    def __init__(self) -> None:
        self.inner = ExperimentExecutor(workers=1)
        self.specs = []
        self.results = []

    def run_many(self, specs, obs=None):
        results = self.inner.run_many(specs, obs=obs)
        self.specs.extend(specs)
        self.results.extend(results)
        return results


def simulated(spec):
    """The simulated-schedule reference: a full observer wants
    per-message records, which only that schedule materialises."""
    return ExperimentRunner().run(spec, obs=Observability())


def assert_matches_simulated(executor: RecordingExecutor) -> None:
    assert executor.specs
    for spec, result in zip(executor.specs, executor.results):
        assert result.to_json_dict() == simulated(spec).to_json_dict(), (
            spec.name
        )


def fig2_spec(n_nodes: int, runtime: str = "bare-metal") -> ExperimentSpec:
    cluster = catalog.CTE_POWER
    return ExperimentSpec(
        name=f"fig2-{runtime}-{n_nodes}n",
        cluster=cluster,
        runtime_name=runtime,
        technique=None,
        workmodel=calibration.ctepower_cfd_workmodel(),
        n_nodes=n_nodes,
        ranks_per_node=cluster.node.cores,
        threads_per_rank=1,
        sim_steps=2,
        granularity=EndpointGranularity.NODE,
    )


def test_portability_study_completes_and_matches_simulated():
    executor = RecordingExecutor()
    outcome = PortabilityStudy(executor=executor).run()
    assert len(outcome.fig2) == 3 and len(outcome.archs) == 3
    assert {s.name for s in executor.specs} >= {
        "fig2-bare-metal-6n", "fig2-bare-metal-12n",
    }
    assert_matches_simulated(executor)


def test_fault_study_completes_and_matches_simulated():
    executor = RecordingExecutor()
    outcome = FaultSensitivityStudy(
        rates=(0.0, 8.0), executor=executor
    ).run()
    assert not outcome.failed()
    assert any(s.fault_plan is not None for s in executor.specs)
    assert_matches_simulated(executor)


def observations(obs: Observability) -> dict:
    metrics = obs.metrics.to_dict()
    metrics.pop("mpi.fastpath_fallbacks", None)
    return {
        "spans": list(obs.spans.spans),
        "records": list(obs.records.records),
        "metrics": metrics,
        "drops": obs.drop_stats(),
    }


def never_fast(spec, obs):
    return ExperimentRunner()._attempt(spec, obs, collective_fastpath=False)


def test_fallback_counts_once_and_leaves_no_trace_of_the_attempt():
    spec = fig2_spec(6)
    obs = Observability(categories={"mpi.collective"})
    result = ExperimentRunner().run(spec, obs=obs)
    assert obs.metrics.value_of("mpi.fastpath_fallbacks") == 1

    ref_obs = Observability(categories={"mpi.collective"})
    ref = never_fast(spec, ref_obs)
    assert result.to_json_dict() == ref.to_json_dict()
    assert observations(obs) == observations(ref_obs)
    assert obs.records.counts()["mpi.collective"] > 0


def test_fallback_keeps_what_a_shared_obs_held_before():
    """A shared ``obs`` accumulates runs: rolling back the aborted
    attempt must restore the earlier run's data, not clear it."""
    first, refused = fig2_spec(2), fig2_spec(12)
    obs = Observability(categories={"mpi.collective"})
    runner = ExperimentRunner()
    runner.run(first, obs=obs)
    assert "mpi.fastpath_fallbacks" not in obs.metrics
    runner.run(refused, obs=obs)
    assert obs.metrics.value_of("mpi.fastpath_fallbacks") == 1

    ref_obs = Observability(categories={"mpi.collective"})
    runner.run(first, obs=ref_obs)
    never_fast(refused, ref_obs)
    assert observations(obs) == observations(ref_obs)


def test_eligible_run_takes_the_fast_path_without_fallback():
    obs = Observability(categories={"mpi.collective"})
    fast = ExperimentRunner().run(fig2_spec(4), obs=obs)
    assert "mpi.fastpath_fallbacks" not in obs.metrics
    simulated_obs = Observability()
    assert fast.to_json_dict() == ExperimentRunner().run(
        fig2_spec(4), obs=simulated_obs
    ).to_json_dict()
    # Same simulated answer from far fewer events.
    assert obs.metrics.value_of("des.events_executed") < (
        simulated_obs.metrics.value_of("des.events_executed")
    )


def test_armed_faults_keep_the_simulated_schedule():
    """A degrade firing after a session resolved would break its closed
    form, so a faulted run never engages the fast path (no attempt, no
    fallback): it observes exactly what a never-fast run does."""
    spec = dataclasses.replace(
        fig2_spec(4),
        fault_plan=FaultPlan(seed=7, link_degrade_rate=20.0, horizon=0.4),
    )
    obs = Observability(categories={"mpi.collective"})
    result = ExperimentRunner().run(spec, obs=obs)
    assert result.faults_injected > 0
    assert "mpi.fastpath_fallbacks" not in obs.metrics
    ref_obs = Observability(categories={"mpi.collective"})
    assert never_fast(spec, ref_obs).to_json_dict() == result.to_json_dict()
    assert observations(obs) == observations(ref_obs)



def test_runs_that_cannot_engage_skip_the_checkpoint(monkeypatch):
    """A full observer (per-message records) or an armed fault plan keeps
    the simulated schedule from the start, so there is no attempt to
    roll back and no checkpoint to pay for."""

    def no_checkpoint(self):
        raise AssertionError("checkpoint taken for a run that cannot go fast")

    monkeypatch.setattr(Observability, "checkpoint", no_checkpoint)
    faulted = dataclasses.replace(
        fig2_spec(4),
        fault_plan=FaultPlan(seed=7, link_degrade_rate=20.0, horizon=0.4),
    )
    for spec, obs in (
        (fig2_spec(6), Observability()),
        (faulted, Observability(categories={"mpi.collective"})),
    ):
        ExperimentRunner().run(spec, obs=obs)
        assert "mpi.fastpath_fallbacks" not in obs.metrics
