"""Differential suite: the collective fast path never changes a result.

Every spec of the quick (``sim_steps=1``) Fig. 1, Fig. 3 and §B.1 grids
runs twice — unobserved, where eligible collectives take the closed form
(:mod:`repro.mpi.fastpath`), and under a full
:class:`~repro.obs.Observability`, whose per-message records force the
simulated schedule — and the two ``to_json_dict()`` payloads must be
equal, ``bytes_sent`` included.  A hypothesis property extends the check
over generated Fig. 3-shaped specs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import calibration
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.core.study import (
    FIG3_NODES,
    ContainerSolutionsStudy,
    ScalabilityStudy,
)
from repro.hardware import catalog
from repro.obs import Observability

from ..obs.test_golden_traces import FIG3_TECHNIQUES, _fig3_spec, _load


def assert_fast_equals_simulated(spec: ExperimentSpec):
    fast = ExperimentRunner().run(spec)
    simulated = ExperimentRunner().run(spec, obs=Observability())
    assert fast.to_json_dict() == simulated.to_json_dict(), spec.name
    return fast


class DifferentialExecutor:
    """Stands in for the study's executor: runs each spec both ways."""

    def __init__(self) -> None:
        self.specs = []

    def run_many(self, specs, obs=None):
        self.specs.extend(specs)
        return [assert_fast_equals_simulated(spec) for spec in specs]


QUICK_GRIDS = {
    "fig1": lambda ex: ContainerSolutionsStudy(sim_steps=1, executor=ex),
    # The two largest Fig. 3 points add ~15 s of simulated-schedule
    # reference time; the property below covers the shape space instead.
    "fig3": lambda ex: ScalabilityStudy(
        nodes=tuple(n for n in FIG3_NODES if n <= 64), sim_steps=1,
        executor=ex,
    ),
    "eval1": lambda ex: ContainerSolutionsStudy(
        configs=((28, 4),), sim_steps=1, executor=ex
    ),
}


@pytest.mark.parametrize("grid", sorted(QUICK_GRIDS))
def test_quick_grid_fast_equals_simulated(grid):
    executor = DifferentialExecutor()
    QUICK_GRIDS[grid](executor).run()
    assert executor.specs


@pytest.mark.parametrize(
    "technique", FIG3_TECHNIQUES, ids=lambda t: t.value
)
def test_unobserved_fig3_golden_specs_reproduce_golden_numbers(technique):
    golden = _load("fig3_golden.json")[technique.value]
    result = ExperimentRunner().run(_fig3_spec(technique))
    assert result.elapsed_seconds == golden["elapsed_seconds"]
    assert result.phases == golden["phases"]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_nodes=st.integers(min_value=2, max_value=16),
    variant=st.sampled_from(ScalabilityStudy.VARIANTS),
)
def test_fig3_shaped_specs_fast_equals_simulated(n_nodes, variant):
    label, runtime, technique = variant
    cluster = catalog.MARENOSTRUM4
    assert_fast_equals_simulated(
        ExperimentSpec(
            name=f"prop-{label}-{n_nodes}n",
            cluster=cluster,
            runtime_name=runtime,
            technique=technique,
            workmodel=calibration.mn4_fsi_workmodel(),
            n_nodes=n_nodes,
            ranks_per_node=cluster.node.cores,
            threads_per_rank=1,
            sim_steps=1,
            granularity=EndpointGranularity.NODE,
        )
    )
