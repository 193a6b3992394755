"""geominima benchmark: one workload, one seed, one JSON line of results.

    python3 benchmark/run.py --workload {verify,estimate,compute} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout, in one process with one BLAS
thread, as a closed loop of one caller: each op is a list of
``geominima.cli.main`` calls made in-process on seeded inputs, and the next
op starts when the last one has returned.  Every op's outputs are checked
against values computed apart from the program (``checks.py``).  Set-up
also times the import of geominima in fresh interpreters, one at a time,
each waited for before the next starts.

``--trace 0`` times ops until their summed wall time reaches ``--seconds``
and prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of ops
(``traced_ops`` of the workload, whatever ``--seconds``) with tracing on and
prints the per-layer metrics and the tracing overhead.
The last line of standard output is the result object.  Working files go
to ``.bench_out/`` under the checkout root.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

# The imports this file makes before geominima is ready, timed the same way
# in a fresh interpreter: ``python3 -c IMPORT_PROBE <src dir>``.
IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import os, argparse, json, resource, statistics, subprocess, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import geominima.cli, geominima.grids
print(time.perf_counter() - t0)
"""


def _import_program():
    """Import geominima from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import geominima.cli
        import geominima.grids
    except ImportError as exc:
        sys.exit(f"cannot import geominima from {SRC}: {exc}")
    if not Path(geominima.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"geominima was imported from {geominima.__file__}, not from {SRC}")
    return geominima.cli, geominima.grids


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "estimate", "compute"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Ops attempted and failed, and the first few check messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, workload, op, label):
        failed, errs = workload.outcome(op)
        self.attempted += 1
        self.failed += failed
        if errs and not failed:
            self.correct = False
        for msg in errs[:5]:
            print(f"[{workload.name} {label}] {'FAILED' if failed else 'WRONG'}: {msg}",
                  file=sys.stderr)


def import_seconds(first, repeats):
    """This process's import time ``first``, and that of ``repeats - 1``
    fresh interpreters run one after another."""
    times = [first]
    for _ in range(repeats - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, timeout=60, check=True)
        times.append(float(probe.stdout))
    return times


def setup(workload, grids, seed, t_imported):
    """setup_s: the median import time (this process and fresh interpreters),
    plus the median of SETUP_REPEATS rounds of (grids from an empty cache,
    first op's inputs, one warm-up op)."""
    imports = import_seconds(t_imported - _T_START, SETUP_REPEATS)
    rounds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        grids.make_grid.cache_clear()
        workload.make_grids(grids)
        first = workload.make_op(seed, 0)
        warmup = workload.make_warmup(seed)
        workload.run(warmup)
        rounds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(rounds), first, warmup


def timed_run(workload, seed, seconds, first, tally):
    durations = []
    op, index = first, 0
    while True:
        t0 = time.perf_counter()
        workload.run(op)
        durations.append(time.perf_counter() - t0)
        tally.add(workload, op, f"op {index}")
        if sum(durations) >= seconds:
            break
        index += 1
        op = workload.make_op(seed, index)
    total = sum(durations)
    print(f"[{workload.name}] op seconds: {' '.join(f'{d:.3f}' for d in durations)}",
          file=sys.stderr)
    return {
        "wall_s": total / len(durations),
        "ops_per_s": len(durations) / total,
        "op_p50_ms": 1000.0 * statistics.median(durations),
    }


def traced_run(workload, seed, first, tally):
    from tracing import Tracer

    ops = [first] + [workload.make_op(seed, i) for i in range(1, workload.traced_ops)]
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            workload.run(op)
    finally:
        tracer.uninstall()
    for i, op in enumerate(ops):
        tally.add(workload, op, f"traced op {i}")
    return tracer.metrics()


def _declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them for a section."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _with_units(metrics, units):
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are printed "
                           "but not declared in BENCHMARK.json, or the reverse")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    cli, grids = _import_program()
    t_imported = time.perf_counter()
    import workloads            # after t_imported: its imports are not the program's set-up

    workload = workloads.make(args.workload, cli, OUT_DIR, SRC / "geominima")
    setup_s, first, warmup = setup(workload, grids, args.seed, t_imported)
    warm_tally = Tally()
    warm_tally.add(workload, warmup, "warm-up")
    tally = Tally()
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = traced_run(workload, args.seed, first, tally)
    else:
        metrics = timed_run(workload, args.seed, args.seconds, first, tally)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        # the warm-up op is not counted as attempted, so its failure makes the run incorrect
        "correct": tally.correct and warm_tally.correct and warm_tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _with_units(metrics, units),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
