"""End-to-end and per-layer benchmark of the reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fig3_mn4 --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload serve_local --seed 1 --trace 1
    python3 e2ebench/run.py --workload all --seed 1
    python3 e2ebench/run.py --write-reference

``--trace 0`` repeats episodes for ``--seconds``, stopping at the
nearest episode boundary after at least ``MIN_EPISODES``, with tracing
off, and reports the end-to-end metrics.  ``wall_s`` is the mean timed
region: host speed drifts by about 10 % between 10 s windows, and the
mean over a whole run averages that drift where a median of two
episodes would keep it.
``--trace 1`` runs one untraced episode per executor configuration and
one traced episode, and reports the per-layer metrics.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is 1 when any output fails the
correctness gate.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
MIN_EPISODES = 2
IMPORT_PROBES = 3
NAMES = ("fig3_mn4", "fig1_lenox", "serve_local", "serve_sharded")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p99_ms": "ms",
}


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed, so
    runs on different machines can be read side by side."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds(kind: str, src: str) -> float:
    """Median import time of the workload's modules in fresh
    interpreters."""
    from workloads import IMPORTS

    code = (
        f"import sys, time; sys.path.insert(0, {src!r}); "
        f"t = time.perf_counter(); import {IMPORTS[kind]}; "
        f"print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], check=True,
            capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile, the definition ``ServeStats`` uses; kept
    here so that the measurement does not run the code under test."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def timed_run(workload, args, gate, src):
    """``--trace 0``: end-to-end metrics over repeated episodes."""
    import_s = import_seconds(workload.kind, src)
    episodes = []
    t_start = time.perf_counter()
    while True:
        t_ep = time.perf_counter()
        ep = workload.episode(args.seed, args.quick, gate,
                              index=len(episodes))
        # Keep only the timings, so that the benchmark's own memory does
        # not grow with the episode count and inflate peak_rss_mb.
        ep.target = ep.report = ep.mix = None
        episodes.append(ep)
        # Stop at the episode boundary nearest to --seconds.
        elapsed = time.perf_counter() - t_start
        step = time.perf_counter() - t_ep
        if len(episodes) >= MIN_EPISODES and elapsed + step / 2 > args.seconds:
            break
    latencies = [x for ep in episodes for x in ep.latencies]
    values = {
        "wall_s": statistics.fmean(ep.wall_s for ep in episodes),
        "setup_s": import_s + statistics.median(
            ep.setup_s for ep in episodes),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": nearest_rank(latencies, 50) * 1e3,
        "p99_ms": nearest_rank(latencies, 99) * 1e3,
    }
    notes = {
        "wall_s": f"mean of {len(episodes)} episodes",
        "setup_s": f"import {import_s:.4f} s (median of {IMPORT_PROBES} "
                   f"fresh interpreters) + median build of "
                   f"{len(episodes)}",
        "peak_rss_mb": "ru_maxrss of self + largest child",
        "p50_ms": f"n={len(latencies)} "
                  f"{'requests' if workload.kind == 'serve' else 'artefact regenerations'}",
        "p99_ms": f"n={len(latencies)}, "
                  f"{len(latencies) - int(-(-len(latencies) * 99 // 100))} "
                  f"samples beyond it",
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return episodes, metrics, notes


def traced_run(workload, args, gate):
    """``--trace 1``: per-layer metrics from a separate traced episode."""
    from tracing import LAYER_NAMES, SpanRecorder, StackSampler
    from workloads import OUT_DIR, instrument

    untraced = workload.episode(args.seed, args.quick, gate)
    episodes = [untraced]
    extra = {}
    if workload.kind == "fig":
        # The traced run is serial; compare it with an untraced serial
        # run so the overhead ratio measures tracing, not parallelism.
        baseline = workload.episode(args.seed, args.quick, gate, workers=1)
        episodes.append(baseline)
        extra = {"workers": 1}
    else:
        baseline = untraced
    rec = SpanRecorder()
    sampler = StackSampler()

    @contextlib.contextmanager
    def timed(target):
        instrument(rec, target)
        try:
            with sampler:
                yield
        finally:
            rec.uninstall()

    traced = workload.episode(args.seed, args.quick, gate, timed=timed,
                              **extra)
    episodes.append(traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
    rec.dump(trace_path)

    m: dict = {}
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = (sampler.self_s[layer], "s")
    c = rec.counters
    run_s = rec.total_s["core.run"]
    m["des.events"] = (c["des.events"], "count")
    m["des.events_per_s"] = (c["des.events"] / run_s if run_s else 0.0, "1/s")
    m["mpi.messages"] = (c["mpi.messages"], "count")
    m["mpi.bytes"] = (c["mpi.bytes"], "B")
    m["mpi.internode_messages"] = (c["mpi.internode_messages"], "count")
    m["mpi.matched_fast_ratio"] = (
        c["mpi.matched_fast"] / c["mpi.messages"]
        if c["mpi.messages"] else 0.0, "ratio")
    m["core.specs"] = (rec.calls["core.run"], "count")
    m["core.run_s"] = (run_s, "s")
    m["core.run_max_s"] = (rec.max_s["core.run"], "s")

    target = traced.target
    if workload.kind == "fig":
        workers = untraced.target.workers
        executed, hits, l1_hits = (target.stats.executed, target.stats.hits,
                                   target.stats.l1_hits)
    elif workload.sharded:
        workers = target.n_shards
        executed, hits, l1_hits = (target.stats.executed,
                                   target.stats.l2_hits, target.stats.l1_hits)
    else:
        workers = target.executor.workers
        xs = target.executor.stats
        executed, hits, l1_hits = xs.executed, xs.hits, xs.l1_hits
    m["exec.pool_efficiency"] = (run_s / (workers * untraced.wall_s), "ratio")
    m["exec.executed"] = (executed, "count")
    m["exec.hits"] = (hits, "count")
    m["exec.l1_hits"] = (l1_hits, "count")
    lookups = executed + hits + l1_hits
    m["exec.hit_ratio"] = ((hits + l1_hits) / lookups if lookups else 0.0,
                           "ratio")
    m["exec.spec_key_s"] = (rec.total_s["exec.spec_key"], "s")
    m["exec.cache_get_s"] = (rec.total_s["exec.cache_get"], "s")
    m["exec.cache_put_s"] = (rec.total_s["exec.cache_put"], "s")
    m["serve.obs_merge_s"] = (rec.total_s["serve.obs_merge"], "s")

    hit_ms = miss_ms = 0.0
    batches = flights = dedup = retries = respawns = 0
    balance = 1.0
    if workload.kind == "serve":
        # Hits and misses are classified from the seeded sequence, not
        # by the program: the first occurrence of an item is a miss.
        seen, hit, miss = set(), [], []
        for item, lat in zip(untraced.mix.sequence,
                             untraced.report.latencies):
            (hit if item in seen else miss).append(lat)
            seen.add(item)
        hit_ms = nearest_rank(hit, 50) * 1e3 if hit else 0.0
        miss_ms = nearest_rank(miss, 50) * 1e3
        stats = target.stats
        batches, flights, dedup = stats.batches, stats.flights, stats.dedup_hits
        retries = traced.report.retries
        if workload.sharded:
            balance = stats.balance_ratio()
            respawns = stats.respawns
    m["serve.hit_p50_ms"] = (hit_ms, "ms")
    m["serve.miss_p50_ms"] = (miss_ms, "ms")
    m["serve.batches"] = (batches, "count")
    m["serve.mean_batch"] = (flights / batches if batches else 0.0, "count")
    m["serve.dedup_hits"] = (dedup, "count")
    m["serve.retries"] = (retries, "count")
    m["serve.balance_ratio"] = (balance, "ratio")
    m["serve.respawns"] = (respawns, "count")
    m["obs.trace_overhead"] = (traced.wall_s / baseline.wall_s, "ratio")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    notes = {
        "traced wall_s": f"{traced.wall_s:.4f} s; sampled "
                         f"{sampler.total_s:.4f} s in {sampler.samples} "
                         f"samples",
        "untraced wall_s": f"{untraced.wall_s:.4f} s "
                           f"(workers={workers})",
        "spans": f"{len(rec.spans)} written to {trace_path}",
        "sampled_share": sampler.total_s / traced.wall_s,
    }
    if workload.kind == "serve":
        notes["serve.hit_p50_ms"] = (
            f"n={len(hit)} repeats / {len(miss)} first occurrences, "
            "untraced episode")
    return episodes, metrics, notes


def write_reference() -> int:
    """Record the fig workloads' per-spec fingerprints by direct runs."""
    from workloads import WORKLOADS, Gate

    gate = Gate({})
    data = {"format": 1, "fingerprints": {}}
    for name, workload in WORKLOADS.items():
        if workload.kind == "fig":
            data["fingerprints"][name] = gate.direct_fig(workload, False)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print their output;
    the last line maps each workload to its exit code."""
    code, results = 0, {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        results[name] = proc.returncode
    print(json.dumps({"exit_codes": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small grids and mixes (self-test size)")
    parser.add_argument("--reference", default=REFERENCE,
                        help="committed fingerprints to check against")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the fig fingerprints and exit")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: run from the root of a checkout: src/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    from workloads import OUT_DIR, WORKLOADS, Gate

    with open(args.reference, encoding="utf-8") as fh:
        committed = json.load(fh)["fingerprints"]
    workload = WORKLOADS[args.workload]
    gate = Gate(committed)
    calib_s = calibrate()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        episodes, metrics, notes = traced_run(workload, args, gate)
        metrics["host.calib_s"] = {"value": calib_s, "unit": "s"}
    else:
        episodes, metrics, notes = timed_run(workload, args, gate, src)
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)

    mode = "traced" if args.trace else "timed"
    print(f"{workload.name} seed={args.seed} {mode} episodes={len(episodes)} "
          f"nproc={os.cpu_count()} host.calib_s={calib_s:.4f} s")
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"{note}")
    for name in ("traced wall_s", "untraced wall_s", "spans"):
        if name in notes:
            print(f"  {name:<24} {notes[name]}")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed}/{attempted} operations; reference "
          f"{gate.sources['committed']} committed, "
          f"{gate.sources['direct']} direct")
    for line in gate.mismatches[:10]:
        print(f"  [FAIL] {line}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "quick": args.quick,
        "host.calib_s": calib_s, "attempted": attempted, "failed": failed,
        "metrics": metrics, "notes": notes, "reference": gate.sources,
        "episodes": [{"setup_s": ep.setup_s, "wall_s": ep.wall_s}
                     for ep in episodes],
    }
    path = os.path.join(OUT_DIR, f"run-{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
