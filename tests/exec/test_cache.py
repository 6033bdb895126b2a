"""Result cache: lossless round trips, hits, misses, and invalidation."""

import dataclasses
import json

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.containers.runtime import DeploymentReport
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.core.runner import ExperimentRunner
from repro.exec.cache import CACHE_FORMAT, ResultCache
from repro.exec.speckey import spec_key
from repro.hardware import catalog


def make_spec(**overrides):
    base = dict(
        name="cache-test",
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=AlyaWorkModel(
            case=CaseKind.CFD, n_cells=300_000, cg_iters_per_step=4,
            nominal_timesteps=15,
        ),
        n_nodes=2,
        ranks_per_node=7,
        threads_per_rank=1,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def hand_made_result(name="hand"):
    return ExperimentResult(
        spec_name=name,
        runtime_name="singularity",
        cluster_name="Lenox",
        n_nodes=2,
        total_ranks=14,
        threads_per_rank=1,
        avg_step_seconds=0.123456789123,
        elapsed_seconds=1.851851836845,
        deployment=DeploymentReport(
            runtime_name="singularity",
            image_name="alya.sif",
            node_count=2,
            total_seconds=3.25,
            steps={"pull": 2.0, "mount": 1.25},
        ),
        image_size_bytes=2.1e8,
        image_transfer_bytes=2.1e8,
        messages=420,
        bytes_sent=1.5e7,
        internode_messages=99,
        phase_fractions={"compute": 0.7, "halo": 0.3},
        phases={"solver.compute": 1.296296285792,
                "solver.halo": 0.555555551054},
    )


def assert_results_identical(a: ExperimentResult, b: ExperimentResult):
    """Field-by-field equality, including the compare=False dicts."""
    for f in dataclasses.fields(ExperimentResult):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_json_round_trip_is_lossless():
    r = hand_made_result()
    blob = json.dumps(r.to_json_dict())
    r2 = ExperimentResult.from_json_dict(json.loads(blob))
    assert_results_identical(r, r2)


def test_round_trip_of_a_real_run(tmp_path):
    spec = make_spec()
    r = ExperimentRunner().run(spec)
    r2 = ExperimentResult.from_json_dict(
        json.loads(json.dumps(r.to_json_dict()))
    )
    assert_results_identical(r, r2)


def test_round_trip_without_deployment():
    r = dataclasses.replace(hand_made_result(), deployment=None)
    r2 = ExperimentResult.from_json_dict(r.to_json_dict())
    assert r2.deployment is None
    assert r2.deployment_seconds == 0.0


def test_put_then_get_returns_identical_result(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec(name="hand")
    r = hand_made_result()
    cache.put(spec_key(spec), r)
    hit = cache.get(spec_key(spec), spec.name)
    assert hit is not None
    assert_results_identical(r, hit)
    assert len(cache) == 1
    assert spec_key(spec) in cache


def test_hit_rewrites_spec_name_to_the_request(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(spec_key(make_spec(name="first-label")),
              hand_made_result(name="first-label"))
    hit = cache.get(spec_key(make_spec(name="second-label")), "second-label")
    assert hit is not None
    assert hit.spec_name == "second-label"


def test_stale_key_misses_and_recomputes_cleanly(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(spec_key(make_spec()), hand_made_result())
    for stale in (make_spec(sim_steps=2), make_spec(n_nodes=4)):
        assert cache.get(spec_key(stale), stale.name) is None


def test_corrupted_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    path = cache.put(spec_key(spec), hand_made_result())
    path.write_text("{not json")
    assert cache.get(spec_key(spec), spec.name) is None
    path.write_text(json.dumps([1, 2, 3]))
    assert cache.get(spec_key(spec), spec.name) is None


def test_format_mismatch_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    path = cache.put(spec_key(spec), hand_made_result())
    payload = json.loads(path.read_text())
    payload["format"] = CACHE_FORMAT + 1
    path.write_text(json.dumps(payload))
    assert cache.get(spec_key(spec), spec.name) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(spec_key(make_spec()), hand_made_result())
    cache.put(spec_key(make_spec(sim_steps=2)), hand_made_result())
    assert cache.clear() == 2
    assert len(cache) == 0


def test_entry_path_is_keyed_by_spec(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    assert cache.path_for(spec_key(spec)).name == f"{spec_key(spec)}.json"


def test_missing_root_is_an_empty_cache(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert len(cache) == 0
    assert cache.get(spec_key(make_spec()), "x") is None
    assert cache.clear() == 0
