"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload tiny-pipeline --seeds 1-10

Runs run.py once per seed, one run at a time, with run_seconds from
BENCHMARK.json. For every end-to-end metric it prints the median of the
runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. A metric is steady when its share is below a third of
its bound. The result lines, the machine facts, each run's CPU steal share
and the summary are written to bench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def summarise(results, end_to_end) -> dict:
    """Per metric: median, quartiles, spread share, bound and the values."""
    out = {}
    for spec in end_to_end:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[spec["name"]] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": spec["bound"],
                             "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    results = []
    steal = []
    machine = None
    for seed in seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        detail = [ln for ln in lines if ln.startswith("# details ")][0].split(" ", 2)[2]
        with open(os.path.join(ROOT, detail)) as fh:
            report = json.load(fh)
        machine = report["machine"]
        steal.append(report["cpu_steal_share"])
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed, "
              f"cpu steal share {steal[-1]}", flush=True)

    summary = summarise(results, bench["end_to_end"])
    os.makedirs(os.path.join(ROOT, "bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, "bench_out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seeds": seeds,
                   "run_seconds": bench["run_seconds"], "machine": machine,
                   "summary": summary, "cpu_steal_share": steal,
                   "results": results}, fh, indent=1)
    print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  steady")
    for name, row in summary.items():
        steady = row["spread"] < row["bound"] / 3
        print(f"{name:<26} {row['median']:>12.5g} {row['q1']:>12.5g} {row['q3']:>12.5g} "
              f"{row['spread']:>8.4f} {row['bound']:>6}  {'yes' if steady else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
