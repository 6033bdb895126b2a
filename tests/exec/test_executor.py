"""Executor behaviour: ordering, stats, markers, cache integration."""

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.exec import ExperimentExecutor
from repro.hardware import catalog
from repro.obs import Observability


def small_wm():
    return AlyaWorkModel(
        case=CaseKind.CFD, n_cells=200_000, cg_iters_per_step=3,
        nominal_timesteps=10,
    )


def make_specs(n_nodes_list=(1, 2, 4)):
    return [
        ExperimentSpec(
            name=f"exec-{n}n",
            cluster=catalog.LENOX,
            runtime_name="singularity",
            technique=BuildTechnique.SELF_CONTAINED,
            workmodel=small_wm(),
            n_nodes=n,
            ranks_per_node=7,
            threads_per_rank=1,
            sim_steps=1,
            granularity=EndpointGranularity.RANK,
        )
        for n in n_nodes_list
    ]


def test_workers_must_be_positive():
    with pytest.raises(ValueError, match="workers"):
        ExperimentExecutor(workers=0)


def test_default_workers_is_cpu_count():
    import os

    assert ExperimentExecutor().workers == (os.cpu_count() or 1)


def test_results_come_back_in_submission_order():
    ex = ExperimentExecutor(workers=2)
    specs = make_specs((4, 1, 2))
    results = ex.run_many(specs)
    assert [r.spec_name for r in results] == ["exec-4n", "exec-1n", "exec-2n"]
    assert [r.n_nodes for r in results] == [4, 1, 2]


def test_single_run_matches_direct_runner():
    ex = ExperimentExecutor(workers=1)
    spec = make_specs((2,))[0]
    assert ex.run(spec) == ExperimentRunner().run(spec)


def test_stats_accounting_without_cache():
    ex = ExperimentExecutor(workers=1)
    ex.run_many(make_specs())
    assert ex.stats.submitted == 3
    assert ex.stats.executed == 3
    assert ex.stats.hits == ex.stats.misses == 0
    assert ex.stats.parallel_executed == 0


def test_obs_gets_one_submit_marker_per_point_in_grid_order():
    ex = ExperimentExecutor(workers=1)
    obs = Observability()
    ex.run_many(make_specs(), obs=obs)
    markers = [s for s in obs.spans.spans if s.name == "exec.submit"]
    assert [m.attrs["index"] for m in markers] == [0, 1, 2]
    assert [m.attrs["spec"] for m in markers] == [
        "exec-1n", "exec-2n", "exec-4n",
    ]
    assert all(s.track == "exec" and s.duration == 0.0 for s in markers)
    assert obs.metrics.counter("exec.submits").value == 3
    # Executed points contribute full traces, not just markers.
    assert any(s.name == "pipeline" for s in obs.spans.spans)


def test_each_point_is_hashed_once_per_batch(tmp_path, monkeypatch):
    """The executor keys every spec once and hands that key to the L2
    lookup and write-back — a miss, its write and a later hit each cost
    no further hash."""
    import repro.exec.speckey as speckey

    hashed = []
    real_payload = speckey.canonical_spec_payload

    def counting_payload(spec):
        hashed.append(spec.name)
        return real_payload(spec)

    monkeypatch.setattr(speckey, "canonical_spec_payload", counting_payload)
    specs = make_specs()
    for _ in range(2):  # cold (miss + write), then warm (L2 hit)
        hashed.clear()
        ExperimentExecutor(
            workers=1, cache=True, cache_dir=tmp_path
        ).run_many(specs)
        assert sorted(hashed) == sorted(s.name for s in specs)


def test_cache_hits_skip_execution_entirely(tmp_path, monkeypatch):
    specs = make_specs()
    warm = ExperimentExecutor(workers=1, cache=True, cache_dir=tmp_path)
    first = warm.run_many(specs)
    assert warm.stats.misses == 3 and warm.stats.hits == 0

    # A hit must never reach the runner: make any execution explode.
    def boom(self, spec, obs=None):  # pragma: no cover - must not run
        raise AssertionError("cache hit executed a simulation")

    monkeypatch.setattr(ExperimentRunner, "run", boom)
    replay = ExperimentExecutor(workers=1, cache=True, cache_dir=tmp_path)
    obs = Observability()
    second = replay.run_many(specs, obs=obs)
    assert replay.stats.hits == 3 and replay.stats.misses == 0
    assert replay.stats.executed == 0
    assert second == first
    markers = [s.name for s in obs.spans.spans]
    assert markers.count("exec.cache_hit") == 3
    assert "exec.submit" not in markers
    assert obs.metrics.counter("exec.cache_hits").value == 3


def test_partial_cache_executes_only_the_new_points(tmp_path):
    ex1 = ExperimentExecutor(workers=1, cache=True, cache_dir=tmp_path)
    ex1.run_many(make_specs((1, 2)))
    ex2 = ExperimentExecutor(workers=2, cache=True, cache_dir=tmp_path)
    results = ex2.run_many(make_specs((1, 2, 4)))
    assert ex2.stats.hits == 2 and ex2.stats.misses == 1
    assert [r.n_nodes for r in results] == [1, 2, 4]


def test_parallel_and_serial_results_are_equal():
    serial = ExperimentExecutor(workers=1).run_many(make_specs())
    parallel = ExperimentExecutor(workers=3).run_many(make_specs())
    assert serial == parallel
