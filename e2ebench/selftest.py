"""Self-test of the benchmark: quick sizes of every workload, the gate.

Run from the root of a checkout::

    python3 e2ebench/selftest.py

It checks five things:

- every workload passes at quick size, timed and traced;
- a run reports exactly the metrics ``BENCHMARK.json`` declares, and a
  traced run's sampled layer times account for its traced wall time;
- a tampered committed fingerprint is rejected (exit 1, failures
  counted);
- a run with no committed data still verifies through the direct-run
  reference path, for a fig workload and for an unused serve seed;
- the command refuses to run, printing no result, in a directory that
  holds only the benchmark.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
OUT = ".e2ebench-out"
NAMES = ("fig3_mn4", "fig1_lenox", "serve_local", "serve_sharded")


def bench(*args, cwd=".", script=RUN):
    """Run the benchmark; return (exit code, result line or None, run
    record or None)."""
    proc = subprocess.run(
        [sys.executable, script, "--seconds", "1", "--quick", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    record = None
    if result is not None:
        opts = dict(zip(args[::2], args[1::2]))
        path = os.path.join(
            cwd, OUT, f"run-{opts['--workload']}-seed{opts['--seed']}"
                      f"-trace{opts.get('--trace', '0')}.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    return proc.returncode, result, record


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    per_layer = [m["name"] for m in declared["per_layer"]]
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    os.makedirs(OUT, exist_ok=True)
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"  [{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip(),
              flush=True)

    for name in NAMES:
        code, result, _ = bench("--workload", name, "--seed", "1")
        check(f"{name} timed", code == 0 and result["correct"]
              and sorted(result["metrics"]) == sorted(end_to_end))
        code, result, record = bench("--workload", name, "--seed", "1",
                                     "--trace", "1")
        ok = code == 0 and result["correct"]
        same = ok and sorted(result["metrics"]) == sorted(per_layer)
        share = record["notes"]["sampled_share"] if ok else 0.0
        check(f"{name} traced", same and abs(share - 1.0) < 0.02,
              f"sampled/wall={share:.4f}")
        if name.startswith("serve"):
            merge = result["metrics"]["serve.obs_merge_s"]["value"]
            want = merge > 0 if name == "serve_local" else merge == 0
            check(f"{name} serve.obs_merge_s", want, f"= {merge:.4g} s")

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    tampered = json.loads(json.dumps(reference))
    fp = tampered["fingerprints"]["fig3_mn4"]["fig3-bare-metal-4n"]
    fp["elapsed_seconds"] *= 1.0 + 1e-12
    path = os.path.join(OUT, "tampered-reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tampered, fh)
    code, result, _ = bench("--workload", "fig3_mn4", "--seed", "1",
                            "--reference", path)
    check("tampered fingerprint rejected",
          code == 1 and not result["correct"] and result["failed"] > 0,
          f"exit {code}, failed {result and result['failed']}")

    path = os.path.join(OUT, "empty-reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": 1, "fingerprints": {}}, fh)
    code, result, record = bench("--workload", "fig1_lenox", "--seed", "1",
                                 "--reference", path)
    check("fig with no committed data verifies directly",
          code == 0 and record["reference"]["committed"] == 0
          and record["reference"]["direct"] > 0, str(record["reference"]))
    code, result, record = bench("--workload", "serve_local",
                                 "--seed", "987654")
    check("unused serve seed verifies directly",
          code == 0 and record["reference"]["direct"] > 0,
          str(record["reference"]))

    bare = os.path.abspath(os.path.join(OUT, "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "fig1_lenox", "--seed", "1",
                            cwd=bare,
                            script=os.path.join(bare, "e2ebench", "run.py"))
    shutil.rmtree(bare)
    check("refuses to run outside a checkout",
          code != 0 and result is None, f"exit {code}")

    print(f"{sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
