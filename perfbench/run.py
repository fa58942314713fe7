"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs pass after pass, one process
and one thread, until the next pass would end past ``--seconds`` (at least one
pass).  ``--trace 0`` reports the end-to-end metrics, with the set-up time
measured in fresh processes; ``--trace 1`` alternates untimed-layer and
traced passes, reports the per-layer metrics of the median traced pass and
writes its spans to ``perfbench/out/``.  Every run checks the outputs against
``perfbench/golden/``.  The last line of standard output is the JSON result;
the lines before it give the host and every metric by name and unit.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in the set-up child processes, so BLAS
# threads do not compete with the single measured thread on a small host.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("fdm.march_s", "s"),
    ("fdm.assemble_s", "s"),
    ("fdm.ns_per_node_step", "ns"),
    ("fdm.step_us", "us"),
    ("fdm.time_steps", "count"),
    ("fdm.node_steps", "count"),
    ("gridgen.map_build_s", "s"),
    ("gridgen.map_builds", "count"),
    ("gridgen.map_cache_hit_ratio", "ratio"),
    ("gridgen.sample_s", "s"),
    ("gridgen.nodes_sampled", "count"),
    ("gridgen.eval_s", "s"),
    ("gridgen.sinh_ns_per_elem", "ns"),
    ("gridgen.cubic_ns_per_elem", "ns"),
    ("gridgen.cubic_speedup", "x"),
    ("placement.apply_s", "s"),
    ("placement.calls", "count"),
    ("placement.nodes_added", "count"),
    ("placement.ns_per_node", "ns"),
    ("spline.interp_s", "s"),
    ("spline.calls", "count"),
    ("instruments.hooks_s", "s"),
    ("instruments.observation_steps", "count"),
    ("analytics.oracle_s", "s"),
    ("bench.parse_s", "s"),
    ("bench.emit_s", "s"),
    ("bench.csv_bytes", "B"),
    ("bench.self_s", "s"),
    ("bench.node_steps_per_s", "1/s"),
    ("bench.time_to_accuracy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("check.max_dprice_1e5", "1e-5"),
    ("check.oracle_err_1e5", "1e-5"),
    ("check.failed_ratio", "ratio"),
    ("check.csv_identical", "flag"),
)

SETUP_REPEATS = 3
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from stretchgrid import bench; "
               "[bench.load_bundled(key) for key in sys.argv[2:]]")


def host_facts() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def measure_setup(keys: tuple[str, ...]) -> list[float]:
    """Fresh-process import of the package plus parsing of the configs."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), *keys]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure(workload, order, seconds: float, traced: bool):
    """Plain passes (and, when traced, a traced pass after each) until the
    next cycle would end past ``seconds``."""
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(workload.run_pass(order, traced=False))
        if traced:
            traced_passes.append(workload.run_pass(order, traced=True))
        cycle = time.perf_counter() - t0
        if time.perf_counter() - start + cycle > seconds:
            return plain, traced_passes


def row_medians(passes) -> dict[str, float]:
    seconds = defaultdict(list)
    for p in passes:
        for row, s in p.rec.row_seconds().items():
            seconds[row].append(s)
    return {row: statistics.median(values) for row, values in seconds.items()}


def time_to_accuracy(passes) -> float:
    rows = row_medians(passes)
    accurate = set.intersection(*(p.accurate_rows for p in passes))
    return min((rows[row] for row in accurate), default=0.0)


def layer_metrics(workload, plain, traced) -> dict:
    from perfbench import tracing, workloads
    med = statistics.median
    chosen = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    self_s = chosen.rec.self_times()
    count = chosen.rec.counts
    plain_wall = med(p.wall for p in plain)
    evals = {name: [p.eval_best[name] for p in plain + traced if name in p.eval_best]
             for name in workloads.EVAL_MAPS}
    evals = {name: med(best) if best else 0.0 for name, best in evals.items()}

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    return {
        "fdm.march_s": self_s["fdm.march"],
        "fdm.assemble_s": self_s["fdm.assemble"],
        "fdm.ns_per_node_step": per(self_s["fdm.march"], count["fdm.node_steps"], 1e9),
        "fdm.step_us": per(self_s["fdm.march"], count["fdm.time_steps"], 1e6),
        "fdm.time_steps": count["fdm.time_steps"],
        "fdm.node_steps": count["fdm.node_steps"],
        "gridgen.map_build_s": self_s["gridgen.map_build"],
        "gridgen.map_builds": count["gridgen.map_builds"],
        "gridgen.map_cache_hit_ratio": 1.0 - per(count["gridgen.map_builds"],
                                                 count["gridgen.grid_requests"], 1.0),
        "gridgen.sample_s": self_s["gridgen.sample"],
        "gridgen.nodes_sampled": count["gridgen.nodes_sampled"],
        "gridgen.eval_s": self_s["gridgen.eval"],
        "gridgen.sinh_ns_per_elem": per(evals["sinh"], workloads.EVAL_SAMPLES, 1e9),
        "gridgen.cubic_ns_per_elem": per(evals["cubic"], workloads.EVAL_SAMPLES, 1e9),
        "gridgen.cubic_speedup": per(evals["sinh"], evals["cubic"], 1.0),
        "placement.apply_s": self_s["placement.apply"],
        "placement.calls": count["placement.calls"],
        "placement.nodes_added": count["placement.nodes_added"],
        "placement.ns_per_node": per(self_s["placement.apply"], count["placement.nodes_out"], 1e9),
        "spline.interp_s": self_s["spline.interp"],
        "spline.calls": count["spline.calls"],
        "instruments.hooks_s": self_s["instruments.hooks"],
        "instruments.observation_steps": count["instruments.observation_steps"],
        "analytics.oracle_s": workload.oracle_seconds,
        "bench.parse_s": self_s["bench.parse"],
        "bench.emit_s": self_s["bench.emit"],
        "bench.csv_bytes": count["bench.csv_bytes"],
        "bench.self_s": sum(self_s[name] for name in tracing.BENCH_SPANS),
        "bench.node_steps_per_s": per(workload.node_steps, plain_wall, 1.0),
        "bench.time_to_accuracy_s": time_to_accuracy(plain),
        "trace.wall_s": chosen.wall,
        "trace.overhead_s": med(p.wall for p in traced) - plain_wall,
        "trace.spans": len(chosen.rec.spans),
    }


def write_spans(path: Path, traced, origin: float):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for index, p in enumerate(traced):
            for span in p.rec.spans:
                fh.write(json.dumps({
                    "pass": index, "name": span.name, "start": span.start - origin,
                    "end": span.end - origin, "parent": span.parent, "row": span.row,
                }) + "\n")


def _finite(value):
    # JSON has no infinity; a non-finite drift only appears with correct=false.
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "stretchgrid" / "__init__.py").is_file():
        print(f"perfbench: no stretchgrid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        golden = workloads.load_golden()
    except OSError as exc:
        print(f"perfbench: cannot read the golden outputs: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("host: " + json.dumps(host_facts()))

    origin = time.perf_counter()
    setup = [] if args.trace else measure_setup(workload.config_keys)
    order = workload.prepare(args.seed, golden)
    plain, traced = measure(workload, order, args.seconds, bool(args.trace))

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = list(dict.fromkeys(m for p in passes for m in p.messages))
    for message in messages:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    wall = statistics.median(p.wall for p in plain)
    checks = {
        "check.max_dprice_1e5": _finite(max(p.max_diff_1e5 for p in passes)),
        "check.oracle_err_1e5": max(p.oracle_err_1e5 for p in passes),
        "check.failed_ratio": failed / attempted,
        "check.csv_identical": int(all(p.csv_identical for p in passes)),
    }
    print(f"workload: {workload.name}, seed {args.seed}, order {order}, "
          f"accuracy target {workload.target_1e5} x 1e-5")
    print(f"plain pass walls: {[round(p.wall, 4) for p in plain]}")
    print(f"traced pass walls: {[round(p.wall, 4) for p in traced]}")
    if args.trace:
        metrics = {**layer_metrics(workload, plain, traced), **checks}
        units = dict(PER_LAYER)
        write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl", traced, origin)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        info = {"node_steps_per_s": (workload.node_steps / wall, "1/s"),
                "time_to_accuracy_s": (time_to_accuracy(plain), "s"),
                "max_dprice_1e5": (checks["check.max_dprice_1e5"], "1e-5"),
                "oracle_err_1e5": (checks["check.oracle_err_1e5"], "1e-5"),
                "failed_ratio": (checks["check.failed_ratio"], "ratio"),
                "csv_identical": (checks["check.csv_identical"], "flag")}
        print(f"setup runs: {[round(s, 4) for s in setup]}")
        for name, (value, unit) in info.items():
            print(f"{name:<32} {value:.6g} {unit}")
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:.6g} {unit}")
    result = {"correct": not messages and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
