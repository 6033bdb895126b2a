"""Spec-key canonicalisation: stability, sensitivity, exhaustiveness.

The sensitivity sweep is *self-enforcing*: every
:class:`~repro.core.experiment.ExperimentSpec` field must have an entry
in :data:`PERTURBATIONS` below, so adding a spec field without teaching
the key about it fails this module before it can silently alias cache
entries (the ``workload`` field was added exactly because of that
hazard).
"""

import dataclasses
import re

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.exec.speckey import KEY_VERSION, canonical_spec_payload, spec_key
from repro.faults import FaultPlan
from repro.hardware import catalog
from repro.hardware.topology import SwitchTopology
from repro.workloads import StencilWorkModel


def small_wm(cells=500_000):
    return AlyaWorkModel(
        case=CaseKind.CFD, n_cells=cells, cg_iters_per_step=5,
        nominal_timesteps=20,
    )


def make_spec(**overrides):
    base = dict(
        name="key-test",
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=small_wm(),
        n_nodes=2,
        ranks_per_node=7,
        threads_per_rank=1,
        sim_steps=1,
        granularity=EndpointGranularity.RANK,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


#: field under test -> (base overrides, perturbed overrides).  The two
#: override dicts may carry companion fields needed to keep the spec
#: constructible (e.g. a cluster swap needs a compatible rank count, a
#: workload swap needs its work-model type) — what matters is that the
#: pair isolates a change to the named field.
PERTURBATIONS = {
    "name": ({}, {"name": "other"}),  # the one field that must NOT perturb
    "cluster": ({}, {"cluster": catalog.MARENOSTRUM4, "ranks_per_node": 7}),
    "runtime_name": ({}, {"runtime_name": "shifter"}),
    "technique": ({}, {"technique": BuildTechnique.SYSTEM_SPECIFIC}),
    "workmodel": ({}, {"workmodel": small_wm(cells=600_000)}),
    "n_nodes": ({}, {"n_nodes": 4}),
    "ranks_per_node": ({}, {"ranks_per_node": 14}),
    "threads_per_rank": ({}, {"threads_per_rank": 2}),
    "sim_steps": ({}, {"sim_steps": 2}),
    "granularity": ({}, {"granularity": EndpointGranularity.NODE}),
    "docker_host_network": (
        {"runtime_name": "docker"},
        {"runtime_name": "docker", "docker_host_network": True},
    ),
    "switch_topology": (
        {}, {"switch_topology": SwitchTopology(nodes_per_switch=2)},
    ),
    "fault_plan": (
        {}, {"fault_plan": FaultPlan(seed=7, link_degrade_rate=0.1)},
    ),
    "workload": (
        {},
        {
            "workload": "stencil",
            "workmodel": StencilWorkModel(n_cells=500_000),
        },
    ),
}


def test_perturbation_table_is_exhaustive():
    """Every spec field — present and future — must appear above."""
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert set(PERTURBATIONS) == fields, (
        "ExperimentSpec grew a field without a spec-key perturbation "
        f"entry: {sorted(fields ^ set(PERTURBATIONS))}"
    )


@pytest.mark.parametrize(
    "field", sorted(set(PERTURBATIONS) - {"name"})
)
def test_every_simulation_field_changes_the_key(field):
    base_over, changed_over = PERTURBATIONS[field]
    assert spec_key(make_spec(**base_over)) != spec_key(
        make_spec(**changed_over)
    ), f"perturbing {field!r} left the spec key unchanged"


def test_key_is_sha256_hex_and_stable():
    spec = make_spec()
    key = spec_key(spec)
    assert re.fullmatch(r"[0-9a-f]{64}", key)
    assert spec_key(make_spec()) == key


def test_name_is_excluded_from_key():
    base_over, changed_over = PERTURBATIONS["name"]
    assert spec_key(make_spec(**base_over)) == spec_key(
        make_spec(**changed_over)
    )


def test_payload_covers_all_fields_but_name():
    spec = make_spec()
    payload = canonical_spec_payload(spec)["spec"]
    # `fault_plan` is omitted while unset so pre-fault cache keys stay
    # valid; every other simulation field must be covered.
    expected = (
        {f.name for f in dataclasses.fields(ExperimentSpec)}
        - {"name", "fault_plan"}
    )
    assert set(payload) == expected


def test_workload_name_is_part_of_the_payload():
    assert canonical_spec_payload(make_spec())["spec"]["workload"] == "alya"
    stencil = make_spec(
        workload="stencil", workmodel=StencilWorkModel(n_cells=500_000)
    )
    assert canonical_spec_payload(stencil)["spec"]["workload"] == "stencil"
    assert spec_key(stencil) != spec_key(make_spec())


def test_fault_plan_changes_the_key_only_when_set():
    plain = make_spec()
    with_plan = dataclasses.replace(
        plain, fault_plan=FaultPlan(seed=7, link_degrade_rate=0.1)
    )
    assert spec_key(plain) != spec_key(with_plan)
    assert "fault_plan" in canonical_spec_payload(with_plan)["spec"]
    assert "fault_plan" not in canonical_spec_payload(plain)["spec"]


def test_key_version_bumped_for_workload_field():
    assert KEY_VERSION >= 3
    assert canonical_spec_payload(make_spec())["key_version"] == KEY_VERSION


def test_version_is_inside_the_hashed_payload(monkeypatch):
    """Bumping KEY_VERSION re-keys every spec — old entries become
    unreachable misses rather than stale hits."""
    import repro.exec.speckey as speckey

    spec = make_spec()
    current = spec_key(spec)
    monkeypatch.setattr(speckey, "KEY_VERSION", KEY_VERSION - 1)
    assert spec_key(spec) != current


def test_old_version_cache_entries_read_as_misses(tmp_path, monkeypatch):
    """An entry persisted under the previous KEY_VERSION must be a miss
    for the same spec today (it sits under a different file name)."""
    import repro.exec.speckey as speckey
    from repro.exec.cache import ResultCache

    from .test_cache import hand_made_result

    spec = make_spec()
    cache = ResultCache(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(speckey, "KEY_VERSION", KEY_VERSION - 1)
        old_path = cache.put(spec_key(spec), hand_made_result(spec.name))
    assert old_path.exists()
    key = spec_key(spec)
    assert cache.get(key, spec.name) is None  # never looked up
    cache.put(key, hand_made_result(spec.name))
    assert cache.get(key, spec.name) is not None
    assert len(cache) == 2  # both files exist; only one is reachable


def test_version_3_entries_read_as_misses(tmp_path):
    """v3 keys hashed a ``collective_fastpath`` field that no longer
    exists: an entry written under such a key must never be served."""
    import hashlib
    import json

    from repro.exec.cache import ResultCache

    from .test_cache import hand_made_result

    assert KEY_VERSION == 4
    spec = make_spec()
    payload = canonical_spec_payload(spec)
    payload["key_version"] = 3
    payload["spec"]["collective_fastpath"] = False
    v3_key = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert v3_key != spec_key(spec)
    cache = ResultCache(tmp_path)
    assert cache.put(v3_key, hand_made_result(spec.name)).exists()
    assert cache.get(spec_key(spec), spec.name) is None
    assert spec_key(spec) not in cache


def test_set_elements_canonicalise_by_type_not_str():
    """``{1}`` and ``{"1"}`` used to collide to ``["1"]`` — they must
    canonicalise (and therefore hash) differently now."""
    from repro.exec.speckey import _canon

    import json

    assert _canon({1}) != _canon({"1"})
    assert _canon({1}) == [1]
    assert _canon({"1"}) == ["1"]
    # bool vs int: equal under Python ``==`` but distinct on the wire,
    # which is what the SHA-256 key hashes.
    assert json.dumps(_canon({True})) != json.dumps(_canon({1}))


def test_mixed_type_sets_are_order_independent_and_json_safe():
    import json

    from repro.exec.speckey import _canon

    a = _canon({1, "a", 2.5, None, False})
    b = _canon({False, None, 2.5, "a", 1})
    assert a == b
    # Deterministic across hash seeds: a type-tagged sort, not set order.
    assert json.loads(json.dumps(a)) == a


def test_set_elements_canonicalise_recursively():
    import enum

    from repro.exec.speckey import _canon

    class Colour(enum.Enum):
        RED = 1

    assert _canon(frozenset({Colour.RED})) == ["Colour.RED"]


def test_payload_is_json_safe_and_order_independent():
    import json

    payload = canonical_spec_payload(make_spec())
    blob = json.dumps(payload, sort_keys=True)
    assert json.loads(blob) == payload
    # Enum members are rendered class-qualified, not by repr/id.
    assert payload["spec"]["granularity"] == "EndpointGranularity.RANK"
    assert payload["spec"]["technique"] == "BuildTechnique.SELF_CONTAINED"
