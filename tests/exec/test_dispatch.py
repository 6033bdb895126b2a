"""Pool dispatch order: longest-first submission, grid-order everything else.

A pooled round submits its points longest-first by the cost estimate
``n_endpoints × sim_steps`` (ties in grid order), so a Fig. 1-shaped
grid's costliest layouts no longer start last.  Nothing downstream may
see that order:

- results, and their trace digest, equal a ``workers=1`` run;
- fail-fast names the grid-first failing point even when a costlier,
  later failure is collected first, after waiting for (and
  checkpointing) the points before it;
- exhausted infrastructure retries come back in grid order.

Submission order is recorded by a :class:`ProcessPoolExecutor` subclass
patched into :mod:`repro.exec.executor`; worker bodies are module-level
functions because the pool pickles the submitted callable by name.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.exec.executor as executor_mod
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.core.study import ContainerSolutionsStudy
from repro.exec import ExperimentExecutor
from repro.exec.executor import ExecutionError, _execute_spec
from repro.exec.failures import FailedPoint
from repro.obs import Observability, trace_digest
from tests.exec.test_robustness import _always_crash, make_specs

_real_execute = _execute_spec


class RecordingPool(ProcessPoolExecutor):
    """A process pool that logs the spec name of every submission."""

    submitted: list = []

    def submit(self, fn, *args, **kwargs):
        RecordingPool.submitted.append(args[0].name)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def recorded(monkeypatch):
    RecordingPool.submitted = []
    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.submitted


def fig1_study(executor):
    """Fig. 1's four runtimes × three rank layouts, on a tiny case."""
    wm = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=100_000, cg_iters_per_step=2,
        nominal_timesteps=10,
    )
    return ContainerSolutionsStudy(
        workmodel=wm, configs=((4, 7), (16, 1), (8, 3)), sim_steps=1,
        executor=executor,
    )


def test_fig1_grid_is_submitted_longest_first_grid_stable(recorded):
    obs_pooled = Observability()
    pooled = fig1_study(ExperimentExecutor(workers=2)).run(obs=obs_pooled)
    # 16 ranks before 8 before 4; the four runtimes tie and keep their
    # grid order (bare-metal, singularity, shifter, docker).
    assert recorded == [
        f"fig1-{rt}-{layout}"
        for layout in ("16x1", "8x3", "4x7")
        for rt in ("bare-metal", "singularity", "shifter", "docker")
    ]
    obs_serial = Observability()
    serial = fig1_study(ExperimentExecutor(workers=1)).run(obs=obs_serial)
    assert len(recorded) == 12  # the inline path never touches the pool
    assert list(pooled.results) == list(serial.results)
    assert pooled.results == serial.results
    assert trace_digest(obs_pooled) == trace_digest(obs_serial)


def _fail_listed(spec, with_obs):
    """Raise a deterministic simulation error for the listed specs."""
    if spec.name in os.environ["DISPATCH_FAIL"].split(","):
        raise RuntimeError(f"injected failure in {spec.name}")
    return _real_execute(spec, with_obs)


def test_fail_fast_names_the_grid_first_failure(recorded, monkeypatch):
    # Both points fail; the grid-first one is the cheaper, so it is
    # submitted (and collected) last.
    monkeypatch.setenv("DISPATCH_FAIL", "robust-1n,robust-2n")
    monkeypatch.setattr(executor_mod, "_execute_spec", _fail_listed)
    with pytest.raises(ExecutionError) as exc_info:
        ExperimentExecutor(workers=2).run_many(make_specs((1, 2)))
    assert recorded == ["robust-2n", "robust-1n"]
    assert exc_info.value.point.spec_name == "robust-1n"


def test_fail_fast_waits_for_the_points_before_the_failure(
    recorded, tmp_path, monkeypatch
):
    # The costly grid-last point fails first; the cheap grid-first point
    # still finishes and is checkpointed before the sweep aborts, as it
    # would be in grid-order collection.
    monkeypatch.setenv("DISPATCH_FAIL", "robust-2n")
    monkeypatch.setattr(executor_mod, "_execute_spec", _fail_listed)
    specs = make_specs((1, 2))
    ex = ExperimentExecutor(workers=2, checkpoint_dir=tmp_path)
    with pytest.raises(ExecutionError) as exc_info:
        ex.run_many(specs)
    assert exc_info.value.point.spec_name == "robust-2n"
    resumed = ExperimentExecutor(workers=1, checkpoint_dir=tmp_path)
    monkeypatch.setattr(executor_mod, "_execute_spec", _real_execute)
    first = resumed.run_many(specs[:1])
    assert resumed.stats.resumed == 1 and resumed.stats.executed == 0
    assert first == ExperimentExecutor(workers=1).run_many(specs[:1])


def test_exhausted_retries_come_back_in_grid_order(recorded, monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_spec", _always_crash)
    specs = make_specs((1, 2, 3))
    ex = ExperimentExecutor(
        workers=2, max_retries=1, retry_backoff=0.01, keep_going=True
    )
    out = ex.run_many(specs)
    assert all(isinstance(r, FailedPoint) for r in out)
    names = ["robust-1n", "robust-2n", "robust-3n"]
    assert [r.spec_name for r in out] == names
    assert {(r.error_type, r.attempts) for r in out} == {("WorkerFailure", 2)}
    # Each round dispatches longest-first; the retry round is the same.
    assert recorded == names[::-1] * 2


def test_exhausted_retries_fail_fast_on_the_grid_first_point(
    recorded, monkeypatch
):
    monkeypatch.setattr(executor_mod, "_execute_spec", _always_crash)
    ex = ExperimentExecutor(workers=2, max_retries=1, retry_backoff=0.01)
    with pytest.raises(ExecutionError) as exc_info:
        ex.run_many(make_specs((1, 2, 3)))
    assert exc_info.value.point.spec_name == "robust-1n"
    assert exc_info.value.point.error_type == "WorkerFailure"
