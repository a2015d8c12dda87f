"""Smoke test for the benchmark harness: every workload at toy length.

    python3 -m pytest benchmarks/tests -q

It checks BENCHMARK.json's schema, that each run's last line is a result
object naming every metric BENCHMARK.json lists with its unit, that the
traced run's spans are well formed, that an iteration which raises is
counted as a failure instead of ending the run, and that the runner refuses
to run without the package sources. It has no timing thresholds. A full
pass takes a few minutes, most of it in the Swin-T workload.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import spans  # noqa: E402  (benchmarks/spans.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MACHINE_FACTS = {"nproc", "cpu_model", "python", "numpy", "blas_vendor",
                 "blas_threads", "peak_rss_source", "checkpoint_io"}


def _run(cwd, workload, trace, seconds="0.01"):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", "7", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def test_benchmark_file_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = WORKLOADS[:]
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["better"] in ("higher", "lower")
        assert UNIT.fullmatch(m["unit"]), m
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def _check_spans(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    assert records
    assert spans.span_problems(records) == []
    # The written self time plus the direct children's durations is the span.
    own = spans.self_times(records)
    for s in records:
        assert math.isclose(s["self"], own[s["id"]], rel_tol=1e-9, abs_tol=1e-9)
    names = {s["name"] for s in records}
    assert {"iteration", "pipeline.search_step", "blocks.wmsa", "blocks.mlp",
            "blocks.patch_embed", "blocks.merge", "pruner.prune_model"} <= names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] != 0, m["name"]

    detail = [ln for ln in lines if ln.startswith("# details ")][0].split(" ", 2)[2]
    with open(os.path.join(ROOT, detail)) as fh:
        report = json.load(fh)
    assert MACHINE_FACTS <= set(report["machine"])
    assert report["checks"]["ops_failed_ratio"] == 0
    if trace:
        _check_spans(os.path.join(ROOT, report["spans_file"]))
        for layer in ("patch_embed", "wmsa", "mlp", "merge"):
            assert result["metrics"][f"blocks.{layer}.gflop_per_s"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, "bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _run_in_process(monkeypatch, capsys, fail_when):
    """run.main on tiny-pipeline with every iteration for which
    ``fail_when(tracer)`` holds raising a DimPruneError."""
    import run
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import workloads
    from dimprune import NumericError

    real = workloads.iteration

    def iteration(workload, st, tracer, *args):
        if fail_when(tracer):
            raise NumericError("injected")
        return real(workload, st, tracer, *args)

    monkeypatch.setattr(workloads, "iteration", iteration)
    code = run.main(["--workload", "tiny-pipeline", "--seed", "3",
                     "--seconds", "0.01", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failed_warmup_is_counted(monkeypatch, capsys):
    code, result = _run_in_process(monkeypatch, capsys,
                                   lambda tracer: tracer.trace == "warmup")
    assert code == 0
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_all_iterations_failing_still_prints_result(monkeypatch, capsys):
    code, result = _run_in_process(monkeypatch, capsys, lambda tracer: True)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2  # warm-up and one more
    assert result["metrics"] == {}
