"""Benchmark runner for dimprune.

    python3 benchmarks/run.py --workload tiny-pipeline --seed 1 --seconds 30 --trace 0

Runs one workload from workloads.py for ``--seconds`` seconds in this
process, checks the program's outputs, and prints '#' lines (machine facts,
check summary, detail file) followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured without
layer instrumentation. With ``--trace 1`` they are the per-layer ones, and
the spans are written to bench_out/ as JSON lines. Everything the run writes
goes under bench_out/ at the repository root. The package is imported from
src/ next to this directory; without it the runner exits with status 1. A
run in which no iteration completes prints its result line with the
failures counted and no metrics, and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")
# Set-up runs at least SETUP_MIN times, and more while it stays cheap.
SETUP_MIN = 3
SETUP_MAX = 40
SETUP_BUDGET_S = 2.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "dimprune", "__init__.py")):
        sys.exit(f"run.py: dimprune sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import dimprune
    if not os.path.abspath(dimprune.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported dimprune from {dimprune.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tiny-pipeline", "swin-t-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _write_spans(path, spans_list, own):
    origin = spans_list[0]["start"] if spans_list else 0.0
    with open(path, "w") as fh:
        for s in spans_list:
            fh.write(json.dumps({
                "id": s["id"], "parent": s["parent"], "trace": s["trace"],
                "name": s["name"], "start": s["start"] - origin,
                "end": s["end"] - origin, "self": own[s["id"]], "attrs": s["attrs"],
            }, sort_keys=True) + "\n")


def measure(args, workdir):
    """Set up, run the closed loop, and compute this mode's metrics."""
    import layers
    import machine
    import metrics
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    setups = []  # (seconds, speed probe seconds around them)
    st = None
    while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and sum(t for t, _ in setups) < SETUP_BUDGET_S):
        st = None  # release the previous setup before timing the next
        before = machine.speed_probe_s()
        t0 = time.perf_counter()
        st = workloads.setup(workload, args.seed, workdir)
        elapsed = time.perf_counter() - t0
        setups.append((elapsed, (before + machine.speed_probe_s()) / 2))
    if workload.reference_config is not None:
        checks.check(st.run.model == workload.reference_config,
                     f"config file gives {st.run.model}, expected "
                     f"{workload.reference_config}")

    tracer = spans.Tracer()
    traced = (lambda: spans.instrument(tracer)) if args.trace else None
    steal0, t0 = machine.cpu_steal_s(), time.perf_counter()
    reference, last = workloads.run_iterations(
        workload, st, tracer, checks, workdir, args.seconds,
        min_iterations=2 if args.trace else 1, traced=traced,
        keep_last=bool(args.trace))
    steal1, elapsed = machine.cpu_steal_s(), time.perf_counter() - t0
    # Share of the CPUs' time taken by other guests while the iterations ran.
    steal_share = (None if steal0 is None or steal1 is None else
                   (steal1 - steal0) / (elapsed * len(os.sched_getaffinity(0))))
    done = [s["attrs"]["traced"] for s in metrics.without_failed(tracer.spans)
            if s["name"] == "iteration"]
    # The end-to-end metrics need one completed iteration, the per-layer ones
    # a completed traced and a completed plain one.
    measurable = bool(done) and (not args.trace or (True in done and False in done))

    extra = {}
    if not measurable:
        values, details, units = {}, {}, {}
    elif args.trace:
        tracer.trace = "layers"
        costs = layers.layer_costs(tracer, last["model"], last["scored"], st)
        peak = layers.tape_peak_mb(last["model"], last["scored"], st,
                                   st.run.train.gamma)
        values, details = metrics.per_layer(tracer.spans, costs, peak)
        units = metrics.PER_LAYER
        spans_path = os.path.join(OUT, f"{workload.name}-seed{args.seed}.spans.jsonl")
        _write_spans(spans_path, tracer.spans, spans.self_times(tracer.spans))
        extra["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        rss, _ = machine.peak_rss_mb()
        values, details = metrics.end_to_end(tracer.spans, setups, rss,
                                             reference["search_losses"],
                                             workload.probe_scaled)
        units = metrics.END_TO_END
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": len(done),
        "machine": machine.facts(), "cpu_steal_share": steal_share,
        "metrics": {name: {"value": values[name], "unit": unit, "better": better}
                    for name, (unit, better) in units.items()},
        "details": details,
        "checks": {"attempted": checks.attempted, "failed": len(checks.failures),
                   "ops_failed_ratio": len(checks.failures) / max(1, checks.attempted),
                   "failures": checks.failures},
        **extra,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _limit_blas_threads()
    _import_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        report = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    checks = report["checks"]
    print("# machine " + json.dumps(report["machine"], sort_keys=True))
    print(f"# iterations completed {report['iterations']}, ops_failed_ratio "
          f"{checks['ops_failed_ratio']} ({checks['failed']} of "
          f"{checks['attempted']} checks failed), cpu steal share "
          f"{report['cpu_steal_share']}")
    for failure in checks["failures"][:10]:
        print(f"# failed: {failure}")
    print(f"# details {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }))
    # A run whose iterations all raised still prints its result line, with
    # the failures counted and without the metrics it could not measure.
    return 0 if report["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
