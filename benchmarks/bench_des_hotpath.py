#!/usr/bin/env python
"""DES/MPI hot-path benchmark: absolute wall time and events/s.

Runs the two figure-shaped workloads the simulator core is optimised
for, on the one hot path the product code has:

- ``fig3_grid``: the Fig. 3 MareNostrum4 grid (NODE granularity, one
  DES endpoint per node).  Its collectives take the analytic fast path
  (:mod:`repro.mpi.fastpath`), which cuts the event count about 3x;
- ``fig1_grid``: the Fig. 1 Lenox grid (RANK granularity, several ranks
  per node).  It is structurally ineligible for the fast path and
  measures matching, the delivery chain and the fair-share links.

Per workload the report holds the best-of-``--repeats`` wall seconds of
un-instrumented runs, ``events_executed`` from one extra pass under an
:class:`~repro.obs.Observability` that records only ``mpi.collective``
(per-message ``mpi.send``/``mpi.deliver`` records would force the
simulated schedule, so this pass counts the same run that was timed),
``events_per_second``, the wall time divided by a fixed pure-Python
calibration loop (``normalised_wall``), and a SHA-256 fingerprint of the
full results.

Usage::

    PYTHONPATH=src python benchmarks/bench_des_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_des_hotpath.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_des_hotpath.py --quick --check

``--check`` compares against the committed baseline
(``benchmarks/BENCH_hotpath_baseline.json``) and exits non-zero when a
workload's ``events_executed`` or result fingerprint differs at all, or
its ``normalised_wall`` is more than 25 % above the baseline.  The event
count is deterministic; on ``fig3_grid`` it grows about 3x if the
collective fast path silently stops engaging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.containers.recipes import BuildTechnique  # noqa: E402
from repro.core import calibration  # noqa: E402
from repro.core.experiment import (  # noqa: E402
    EndpointGranularity,
    ExperimentSpec,
)
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.core.study import FIG3_NODES, ScalabilityStudy  # noqa: E402
from repro.hardware import catalog  # noqa: E402
from repro.obs import Observability  # noqa: E402

#: A normalised wall time above ``baseline * REGRESSION_FACTOR`` fails
#: --check.
REGRESSION_FACTOR = 1.25


def fig3_specs(quick: bool) -> list[ExperimentSpec]:
    """The ScalabilityStudy grid (three variants x 4..256 MareNostrum4
    nodes; 4..32 in quick mode), NODE granularity — one DES endpoint per
    node."""
    cluster = catalog.MARENOSTRUM4
    nodes = FIG3_NODES[:4] if quick else FIG3_NODES
    workmodel = calibration.mn4_fsi_workmodel()
    return [
        ExperimentSpec(
            name=f"bench-fig3-{rt}-{n}n",
            cluster=cluster,
            runtime_name=rt,
            technique=tech,
            workmodel=workmodel,
            n_nodes=n,
            ranks_per_node=cluster.node.cores,
            threads_per_rank=1,
            sim_steps=2,
            granularity=EndpointGranularity.NODE,
        )
        for _, rt, tech in ScalabilityStudy.VARIANTS
        for n in nodes
    ]


def fig1_specs(quick: bool) -> list[ExperimentSpec]:
    """The ContainerSolutionsStudy grid (runtime x ranks-x-threads on 4
    Lenox nodes, RANK granularity); a 2x2 corner of it in quick mode."""
    cluster = catalog.LENOX
    runtimes: tuple[tuple[str, BuildTechnique | None], ...] = (
        ("bare-metal", None),
        ("singularity", BuildTechnique.SELF_CONTAINED),
        ("shifter", BuildTechnique.SELF_CONTAINED),
        ("docker", BuildTechnique.SELF_CONTAINED),
    )
    configs = ((8, 14), (16, 7), (28, 4), (56, 2), (112, 1))
    if quick:
        runtimes = (runtimes[0], runtimes[3])  # bare-metal + docker (bridge)
        configs = (configs[0], configs[4])
    workmodel = calibration.lenox_cfd_workmodel()
    return [
        ExperimentSpec(
            name=f"bench-fig1-{rt}-{ranks}x{threads}",
            cluster=cluster,
            runtime_name=rt,
            technique=tech,
            workmodel=workmodel,
            n_nodes=4,
            ranks_per_node=ranks // 4,
            threads_per_rank=threads,
            sim_steps=2,
            granularity=EndpointGranularity.RANK,
        )
        for rt, tech in runtimes
        for ranks, threads in configs
    ]


WORKLOADS = {"fig3_grid": fig3_specs, "fig1_grid": fig1_specs}


def calibrate() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def fingerprint(results) -> str:
    """SHA-256 of every result field (floats as exact reprs)."""
    blob = json.dumps(
        [r.to_json_dict() for r in results], sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def bench_workload(specs: list[ExperimentSpec], repeats: int) -> dict:
    runner = ExperimentRunner()
    # The host's speed drifts: calibrate around every timed pass and
    # normalise the best wall time by the best calibration.
    calib_s = calibrate()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = [runner.run(s) for s in specs]
        best = min(best, time.perf_counter() - t0)
        calib_s = min(calib_s, calibrate())
    obs = Observability(categories=("mpi.collective",))
    digest = fingerprint(results)
    if fingerprint([runner.run(s, obs=obs) for s in specs]) != digest:
        raise SystemExit(
            "the counting pass disagrees with the timed runs: observing "
            "a run changed its simulated results"
        )
    events = int(obs.metrics.value_of("des.events_executed"))
    return {
        "wall_seconds": best,
        "calibration_seconds": calib_s,
        "normalised_wall": best / calib_s,
        "events_executed": events,
        "events_per_second": events / best if best > 0 else 0.0,
        "messages": sum(r.messages for r in results),
        "messages_matched_fast": int(
            obs.metrics.value_of("mpi.messages_matched_fast")
        ),
        "fastpath_fallbacks": int(
            obs.metrics.value_of("mpi.fastpath_fallbacks")
        ),
        "fingerprint": digest,
    }


def check(report: dict, baseline_path: str) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)
    section = baseline["quick" if report["quick"] else "full"]
    failures = []
    for name, ref in section.items():
        got = report["workloads"][name]
        ceiling = ref["normalised_wall"] * REGRESSION_FACTOR
        problems = []
        if got["events_executed"] != ref["events_executed"]:
            problems.append(
                f"events_executed {got['events_executed']} != "
                f"{ref['events_executed']}"
            )
        if got["fingerprint"] != ref["fingerprint"]:
            problems.append("result fingerprint changed")
        if got["normalised_wall"] > ceiling:
            problems.append(
                f"normalised wall {got['normalised_wall']:.3f} > "
                f"{ceiling:.3f}"
            )
        print(
            f"check {name}: normalised wall {got['normalised_wall']:.3f} "
            f"(baseline {ref['normalised_wall']:.3f}, ceiling "
            f"{ceiling:.3f}), events {got['events_executed']} "
            f"(baseline {ref['events_executed']}) "
            f"{'; '.join(problems) or 'ok'}"
        )
        if problems:
            failures.append(name)
    if failures:
        print(f"FAILED: hot-path regression in {', '.join(failures)}")
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help="small shapes for CI smoke (Fig. 3 grid to 32 nodes, 2x2 Fig. 1)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="fail on any events/fingerprint change or a >25%% slower "
             "normalised wall time vs the committed baseline",
    )
    ap.add_argument(
        "--repeats", type=int, default=1,
        help="wall-clock is best-of-N over un-instrumented runs",
    )
    ap.add_argument("--out", default="BENCH_hotpath.json")
    ap.add_argument(
        "--baseline",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "BENCH_hotpath_baseline.json",
        ),
    )
    args = ap.parse_args(argv)

    report = {
        "schema": 2,
        "quick": bool(args.quick),
        "repeats": args.repeats,
        "workloads": {},
    }
    for name, factory in WORKLOADS.items():
        wl = bench_workload(factory(args.quick), args.repeats)
        report["workloads"][name] = wl
        print(
            f"{name}: {wl['wall_seconds']:.3f}s wall "
            f"({wl['normalised_wall']:.3f} calibration units), "
            f"{wl['events_executed']} events, "
            f"{wl['events_per_second']:.0f} events/s"
        )
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    if args.check:
        return check(report, args.baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
