"""Seeded end-to-end benchmark of symidx, one workload per process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.
After set-up (imports, input files, one untimed warm-up op) the run
attempts whole rounds of ops until ``--seconds`` of timed work is done,
and checks each round's outputs after the round, outside the timing.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each
metric a ``{"value", "unit"}`` pair.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same rounds untraced and then traced, reports per-layer calls and self
times plus the tracing overhead, and writes the spans to
``bench/out/trace-<workload>.npz``.  ``--quick`` runs one reduced round,
for the benchmark's own tests.
"""

import os

# one BLAS thread: the benchmark is single-threaded, and threaded BLAS on
# small matrices only adds scheduling noise; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

_IMPORTED_AT = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# the seeds of the matching acceptance tests; the dynamics test has none
DEFAULT_SEEDS = {
    "sp2-three-algorithms": 11,
    "axiom-sweep": 7,
    "loop-spectral-flow": 31,
    "periodic-orbits": 5,
}
WARMUP_ROUND = 1_000_000  # a round index no timed round reaches

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


def load_symidx(root: Path = ROOT):
    """Import symidx from ``root/src``, and from nowhere else."""
    package = root / "src" / "symidx"
    if not (package / "__init__.py").is_file():
        raise SetupError("no symidx sources at %s" % package)
    sys.path.insert(0, str(root / "src"))
    import symidx

    if Path(symidx.__file__).resolve().parent != package.resolve():
        raise SetupError("symidx imported from %s, not %s" % (symidx.__file__, package))
    return symidx


@dataclass
class Phase:
    """Outcome of the timed rounds of one phase."""

    rounds: int = 0
    wall_s: float = 0.0
    durations: list = field(default_factory=list)
    failed: int = 0
    incorrect: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)


def _attempt(op):
    """Run one op; an exception is returned, to be counted, not raised."""
    try:
        return op.run(), None
    except Exception as e:  # noqa: BLE001 - counted and reported by _settle
        return None, e


def _settle(op, out, err, phase: Phase):
    """Check one op's output and count it as passed, failed or incorrect."""
    from checks import CheckError

    problem = err
    if err is None:
        try:
            op.check(out)
        except CheckError as e:
            problem = e
    if problem is None:
        return
    if op.fault is not None:
        phase.failed += 1  # a named fault: fails on every seed, every round
    elif err is not None:
        phase.failed += 1
        print("unexpected failure in %s:" % op.kind, file=sys.stderr)
        traceback.print_exception(err, file=sys.stderr)
    else:
        phase.incorrect.append("%s: %s" % (op.kind, problem))


def timed_rounds(workload, seconds: float = 0.0, rounds: int = 0, tracer=None) -> Phase:
    """Whole rounds until ``seconds`` of timed work, or exactly ``rounds``."""
    phase = Phase()
    clock = time.perf_counter
    while (phase.rounds < rounds) if rounds else (phase.rounds == 0 or phase.wall_s < seconds):
        ops = workload.round(phase.rounds)
        results = []
        with tracer if tracer is not None else nullcontext():
            t_round = clock()
            for op in ops:
                t0 = clock()
                out, err = _attempt(op)
                phase.durations.append(clock() - t0)
                results.append((op, out, err))
            phase.wall_s += clock() - t_round
        for op, out, err in results:
            _settle(op, out, err, phase)
        phase.rounds += 1
    return phase


def run(workload_name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    load_symidx()
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SetupError("unknown workload %r; choose from %s"
                         % (workload_name, ", ".join(WORKLOADS)))
    workload = WORKLOADS[workload_name](seed, OUT_DIR / "inputs", quick=quick)

    # the warm-up op comes from the reduced round, whose inputs are cheap
    # to make, so that set-up time is mostly imports
    warm = Phase()
    op = type(workload)(seed, workload.workdir, quick=True).round(WARMUP_ROUND)[0]
    _settle(op, *_attempt(op), warm)
    setup_s = process_age()

    if quick:
        seconds = 0.0
    phase = timed_rounds(workload, seconds=seconds)
    incorrect = warm.incorrect + phase.incorrect
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": (phase.attempted - phase.failed) / phase.wall_s,
            "op_p50_ms": 1e3 * statistics.median(phase.durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        from tracing import Tracer, metric_specs

        tracer = Tracer()
        traced = timed_rounds(workload, rounds=phase.rounds, tracer=tracer)
        incorrect += traced.incorrect
        if tracer.missing:
            print("layers not found, reported as 0: %s" % ", ".join(tracer.missing),
                  file=sys.stderr)
        tracer.write(OUT_DIR / ("trace-%s.npz" % workload_name))
        metrics = tracer.layer_metrics(traced.attempted, traced.wall_s - phase.wall_s)
        units = {name: unit for name, unit, _ in metric_specs()}
    for line in incorrect:
        print("incorrect output: %s" % line, file=sys.stderr)
    return {
        "correct": not incorrect,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def default_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, the run length the bounds are set for."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError) as e:
        raise SetupError("cannot read run_seconds from BENCHMARK.json: %s" % e) from None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    seed = DEFAULT_SEEDS.get(args.workload, 0) if args.seed is None else args.seed
    try:
        seconds = default_seconds() if args.seconds is None else args.seconds
        result = run(args.workload, seed, seconds, bool(args.trace), args.quick)
    except SetupError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    print("workload %s  seed %d  attempted %d  failed %d  correct %s"
          % (args.workload, seed, result["attempted"], result["failed"], result["correct"]))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
