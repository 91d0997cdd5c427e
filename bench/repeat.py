"""Repeat the benchmark and print the spread of every end-to-end metric.

    python3 bench/repeat.py [--workloads a,b] [--runs 10] [--seed0 1] [--seconds S]

Each run is its own process, so every ``setup_s`` is a cold set-up; run
i of a workload uses seed ``seed0 + i``.  For each workload the table
gives the ops attempted and failed, and for each metric its median,
first and third quartile (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json.  Every run's result is written to
``bench/out/repeat-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run of %s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            results.append(one_run(workload, args.seed0 + i, args.seconds))
            r = results[-1]
            print("  %s seed %d: attempted %d failed %d correct %s"
                  % (workload, args.seed0 + i, r["attempted"], r["failed"], r["correct"]),
                  flush=True)
        (OUT_DIR / ("repeat-%s.json" % workload)).write_text(json.dumps(results, indent=1))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, all correct %s, failed share %s"
              % (workload, len(results), all(r["correct"] for r in results),
                 ", ".join("%.6f" % s for s in shares)))
        print("  %-40s %12s %12s %12s %8s %6s %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "unit"))
        for name, first in results[0]["metrics"].items():
            med, q1, q3 = summary([r["metrics"][name]["value"] for r in results])
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-40s %12.6g %12.6g %12.6g %8.4f %6s %s"
                  % (name, med, q1, q3, spread, bounds[name], first["unit"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
