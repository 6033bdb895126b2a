"""Tests for experiment specs and calibration."""

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.compat import (
    CompatibilityError,
    RuntimeNotInstalledError,
)
from repro.containers.recipes import BuildTechnique
from repro.core import calibration
from repro.core.experiment import (
    RANK_ENDPOINT_LIMIT,
    EndpointGranularity,
    ExperimentSpec,
)
from repro.hardware import catalog


def wm():
    return AlyaWorkModel(case=CaseKind.CFD, n_cells=1_000_000)


def make_spec(**overrides):
    base = dict(
        name="t",
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=wm(),
        n_nodes=4,
        ranks_per_node=28,
        threads_per_rank=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_valid_spec():
    spec = make_spec()
    assert spec.total_ranks == 112
    assert spec.total_cores_used == 112


def test_oversubscription_rejected():
    with pytest.raises(ValueError, match="oversubscribe"):
        make_spec(ranks_per_node=28, threads_per_rank=2)


def test_too_many_nodes_rejected():
    with pytest.raises(ValueError, match="exceed"):
        make_spec(n_nodes=5)


def test_runtime_must_be_installed():
    with pytest.raises(RuntimeNotInstalledError):
        make_spec(cluster=catalog.MARENOSTRUM4, runtime_name="docker",
                  n_nodes=4, ranks_per_node=48)


def test_docker_needs_admin():
    # CTE-POWER has no docker and no admin; Lenox works.
    make_spec(runtime_name="docker")
    with pytest.raises(CompatibilityError):
        make_spec(cluster=catalog.CTE_POWER, runtime_name="docker",
                  ranks_per_node=40)


def test_container_run_needs_technique():
    with pytest.raises(ValueError, match="technique"):
        make_spec(technique=None)
    make_spec(runtime_name="bare-metal", technique=None)  # fine


def test_granularity_auto_switches():
    small = make_spec(ranks_per_node=28)  # 112 ranks
    assert small.effective_granularity() is EndpointGranularity.RANK
    big = make_spec(
        cluster=catalog.MARENOSTRUM4,
        n_nodes=16,
        ranks_per_node=48,
    )  # 768 ranks
    assert big.total_ranks > RANK_ENDPOINT_LIMIT
    assert big.effective_granularity() is EndpointGranularity.NODE
    forced = make_spec(granularity=EndpointGranularity.NODE)
    assert forced.effective_granularity() is EndpointGranularity.NODE


def test_granularity_boundary_is_exactly_the_limit():
    """AUTO stays in rank mode AT the limit and switches one rank past
    it — 256 ranks is still per-rank, 257 is per-node."""
    def mn4(n_nodes):
        return make_spec(
            cluster=catalog.MARENOSTRUM4,
            n_nodes=n_nodes,
            ranks_per_node=1,
            granularity=EndpointGranularity.AUTO,
        )

    at_limit = mn4(RANK_ENDPOINT_LIMIT)  # 256 x 1 rank
    assert at_limit.total_ranks == RANK_ENDPOINT_LIMIT == 256
    assert at_limit.effective_granularity() is EndpointGranularity.RANK
    past = mn4(RANK_ENDPOINT_LIMIT + 1)  # 257 ranks
    assert past.effective_granularity() is EndpointGranularity.NODE


def test_n_endpoints_follows_granularity():
    """One endpoint per rank under RANK, one per node under NODE, and
    AUTO resolves against the limit: at it per-rank, past it per-node."""
    assert make_spec(granularity=EndpointGranularity.RANK).n_endpoints == 112
    assert make_spec(granularity=EndpointGranularity.NODE).n_endpoints == 4

    def mn4(n_nodes):
        return make_spec(
            cluster=catalog.MARENOSTRUM4,
            n_nodes=n_nodes,
            ranks_per_node=2,
            granularity=EndpointGranularity.AUTO,
        )

    at_limit = mn4(RANK_ENDPOINT_LIMIT // 2)  # 256 ranks on 128 nodes
    assert at_limit.n_endpoints == at_limit.total_ranks == RANK_ENDPOINT_LIMIT
    past = mn4(RANK_ENDPOINT_LIMIT // 2 + 1)  # 258 ranks on 129 nodes
    assert past.n_endpoints == past.n_nodes == 129


@pytest.mark.parametrize(
    "fig, per", [("fig1", "total_ranks"), ("fig3", "n_nodes")]
)
def test_runner_rankmap_has_n_endpoints(fig, per, monkeypatch):
    """The runner sizes its RankMap by ``n_endpoints``: every rank for
    a fig1 spec, one endpoint per node for a fig3 spec."""
    import repro.core.runner as runner_mod
    from repro.core.runner import ExperimentRunner
    from repro.serve import build_spec

    made = []
    real = runner_mod.RankMap

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(runner_mod, "RankMap", recording)
    spec = build_spec(fig, nodes=4, sim_steps=1)
    assert spec.n_nodes != spec.total_ranks
    ExperimentRunner().run(spec)
    assert [m.n_ranks for m in made] == [spec.n_endpoints]
    assert spec.n_endpoints == getattr(spec, per)


def test_calibration_covers_all_clusters():
    for spec in (catalog.LENOX, catalog.MARENOSTRUM4, catalog.CTE_POWER,
                 catalog.THUNDERX):
        assert 0 < calibration.sustained_fraction(spec) <= 1
        assert calibration.openmp_model(spec).bandwidth_cores >= 1


def test_calibration_canonical_cases():
    assert calibration.lenox_cfd_workmodel().case is CaseKind.CFD
    fsi = calibration.mn4_fsi_workmodel()
    assert fsi.case is CaseKind.FSI
    assert fsi.solid_flops_per_step > 0
    assert calibration.ctepower_cfd_workmodel().n_cells > 0
    assert calibration.cluster_for("lenox") is catalog.LENOX


def test_sustained_fraction_ordering():
    """Wide-vector Skylake sustains the smallest share of its peak."""
    assert calibration.sustained_fraction(
        catalog.MARENOSTRUM4
    ) < calibration.sustained_fraction(catalog.CTE_POWER)
