"""Fault-subsystem overhead on the no-fault path.

The tentpole constraint on :mod:`repro.faults` is that it is *free when
off*: a spec without a :class:`~repro.faults.plan.FaultPlan` never
constructs an injector, so the only recurring cost is the per-step
``faults is None`` check in :meth:`SimulatedAlya.rank_body` (everything
else is a handful of per-run ``is None`` checks).  This benchmark proves
that empirically, mirroring ``bench_obs_overhead.py``:

- ``test_faults_off_overhead_under_2pct`` runs the full experiment
  pipeline with the production application body against a baseline
  subclass whose ``rank_body`` is the pre-fault body (this file keeps a
  copy with only the fault lines deleted), and asserts the off-path
  overhead stays under 2%;
- ``test_no_injector_constructed_off_path`` proves the runner never even
  builds a :class:`FaultInjector` without a plan;
- ``test_baseline_and_production_results_agree`` proves the two bodies
  are the same physics, so the timing comparison is apples-to-apples;
- ``test_run_once_builds_the_given_class`` proves the class swap reaches
  the runner, so the two timed arms really run different bodies.

The timed comparison is a guard, not a measurement: the true difference
(one ``is None`` check per step per rank) is far below the wall-clock
noise of a busy host, so each measurement round takes best-of-``REPEATS``
for both bodies in alternating order, and the test passes as soon as one
of ``MAX_ROUNDS`` rounds lands under budget.  A genuine hot-path
regression shifts *every* round above 2% and still fails.
"""

import time

import repro.core.runner as runner_mod
import repro.workloads.alya as alya_workload
from repro.alya.app import PhaseTimes, SimulatedAlya
from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog
from repro.mpi import collectives

REPEATS = 8
MAX_ROUNDS = 5
MAX_OFF_OVERHEAD = 0.02

_OPS_PER_STEP = 2048
_OP_HALO_MAIN = 0
_OP_HALO_CG = 10
_OP_ALLREDUCE = 700
_OP_FSI_GATHER = 1900
_OP_FSI_BCAST = 1901


class BaselineAlya(SimulatedAlya):
    """``SimulatedAlya`` with the pre-fault ``rank_body``: identical to
    the production body (observability marks included) except the three
    fault lines — ``faults = self.faults``, the node lookup, and the
    per-step ``comp_step`` conditional — are deleted."""

    def rank_body(self, comm, ep):
        env = comm.env
        work = self.work
        n = comm.size
        comp = self.compute_seconds_per_step(n)
        solid = self.solid_seconds_per_step(n)
        halo_parts = self._halo_parts(n)
        halo_main = work.halo_bytes_main(halo_parts)
        halo_cg = work.halo_bytes_cg(halo_parts)
        intra_pen = self.intra_collective_penalty()
        iface = work.interface_bytes() if work.case is CaseKind.FSI else 0.0
        phases = PhaseTimes()
        obs = self.obs
        track = f"ep-{ep}"

        def mark(name, t0):
            if obs is not None and env.now > t0:
                obs.add_span(name, "solver", t0, env.now, track=track,
                             step=step)

        for step in range(self.sim_steps):
            base = step * _OPS_PER_STEP
            step_t0 = env.now
            if self.overlap_halo:
                pending = self._post_halo(
                    comm, ep, base + _OP_HALO_MAIN, halo_main
                )
                t = env.now
                yield env.timeout(comp)
                phases.compute += env.now - t
                mark("compute", t)
                t = env.now
                if pending:
                    yield env.all_of(pending)
                phases.halo += env.now - t
                mark("halo", t)
            else:
                t = env.now
                yield env.timeout(comp)
                phases.compute += env.now - t
                mark("compute", t)
                t = env.now
                yield from self._halo_exchange(
                    comm, ep, base + _OP_HALO_MAIN, halo_main
                )
                phases.halo += env.now - t
                mark("halo", t)
            cg_t0 = env.now
            for it in range(work.cg_iters_per_step):
                t = env.now
                yield from self._halo_exchange(
                    comm, ep, base + _OP_HALO_CG + 2 * it, halo_cg
                )
                phases.halo += env.now - t
                t = env.now
                if intra_pen:
                    yield env.timeout(intra_pen)
                yield from collectives.allreduce(
                    comm, ep, op=base + _OP_ALLREDUCE + it, nbytes=16.0
                )
                phases.collective += env.now - t
            mark("cg_solve", cg_t0)
            if work.case is CaseKind.FSI:
                t = env.now
                yield from collectives.gather(
                    comm, ep, op=base + _OP_FSI_GATHER,
                    nbytes_per_rank=max(iface / n, 1.0), root=0,
                )
                if ep == 0:
                    yield env.timeout(solid)
                yield from collectives.bcast(
                    comm, ep, op=base + _OP_FSI_BCAST, nbytes=iface, root=0
                )
                phases.coupling += env.now - t
                mark("coupling", t)
            mark("step", step_t0)
        return phases


def make_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="bench-faults-off",
        cluster=catalog.LENOX,
        runtime_name="singularity",
        technique=BuildTechnique.SELF_CONTAINED,
        workmodel=AlyaWorkModel(
            case=CaseKind.CFD, n_cells=2_000_000, cg_iters_per_step=10,
            nominal_timesteps=10,
        ),
        n_nodes=4,
        ranks_per_node=7,
        threads_per_rank=1,
        sim_steps=4,
        granularity=EndpointGranularity.RANK,
    )


def run_once(app_cls):
    """(wall seconds, result) of one end-to-end no-plan run.

    ``app_cls`` replaces the class the ``alya`` workload's ``build_app``
    instantiates for the duration of the run."""
    original = alya_workload.SimulatedAlya
    alya_workload.SimulatedAlya = app_cls
    try:
        t0 = time.perf_counter()
        result = ExperimentRunner().run(make_spec())
        return time.perf_counter() - t0, result
    finally:
        alya_workload.SimulatedAlya = original


def measure_overhead(repeats: int = REPEATS) -> float:
    """One measurement round: best-of-``repeats`` ratio, orders
    alternated so machine drift hits both bodies equally."""
    prod, base = [], []
    for i in range(repeats):
        first, second = (
            (SimulatedAlya, BaselineAlya) if i % 2 == 0
            else (BaselineAlya, SimulatedAlya)
        )
        a = run_once(first)[0]
        b = run_once(second)[0]
        if first is SimulatedAlya:
            prod.append(a), base.append(b)
        else:
            base.append(a), prod.append(b)
    return min(prod) / min(base) - 1.0


def test_baseline_and_production_results_agree():
    """Sanity: the baseline body is the same physics, fault lines aside."""
    _, production = run_once(SimulatedAlya)
    _, baseline = run_once(BaselineAlya)
    assert production.elapsed_seconds == baseline.elapsed_seconds
    assert production.sim_span_seconds == baseline.sim_span_seconds
    assert production.messages == baseline.messages


def test_run_once_builds_the_given_class():
    """The patch in ``run_once`` reaches the runner: a class that refuses
    construction must abort the run (otherwise both timed arms would
    silently run the production body)."""

    class Refused(Exception):
        pass

    class Refusing(SimulatedAlya):
        def __init__(self, *a, **kw):
            raise Refused

    try:
        run_once(Refusing)
    except Refused:
        return
    raise AssertionError("run_once did not build the patched app class")


def test_no_injector_constructed_off_path():
    """Without a plan the runner must not even build an injector."""

    class Boom:
        def __init__(self, *a, **kw):
            raise AssertionError("FaultInjector built without a FaultPlan")

    original = runner_mod.FaultInjector
    runner_mod.FaultInjector = Boom
    try:
        result = ExperimentRunner().run(make_spec())
    finally:
        runner_mod.FaultInjector = original
    assert result.faults_injected == 0
    assert result.fault_timeline_digest == ""


def test_faults_off_overhead_under_2pct():
    run_once(SimulatedAlya)  # warm both classes before timing
    run_once(BaselineAlya)
    rounds = []
    for _ in range(MAX_ROUNDS):
        overhead = measure_overhead()
        rounds.append(overhead)
        if overhead < MAX_OFF_OVERHEAD:
            break
    print(
        "\nfaults-off overhead rounds: "
        + " ".join(f"{r:+.2%}" for r in rounds)
        + f" (budget {MAX_OFF_OVERHEAD:.0%})"
    )
    assert min(rounds) < MAX_OFF_OVERHEAD, (
        f"no-plan pipeline measured above the {MAX_OFF_OVERHEAD:.0%} "
        f"budget in every round: "
        + ", ".join(f"{r:+.1%}" for r in rounds)
    )


if __name__ == "__main__":
    test_baseline_and_production_results_agree()
    test_run_once_builds_the_given_class()
    test_no_injector_constructed_off_path()
    test_faults_off_overhead_under_2pct()
    print("bench_fault_overhead: OK")
