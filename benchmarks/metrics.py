"""Metric definitions and their computation from a run's spans.

End-to-end metrics come from untraced runs, per-layer metrics from traced
ones. Each name maps to (unit, better); BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from machine import PROBE_REF_S
from spans import duration, self_times

END_TO_END = {
    "setup_s": ("s", "lower"),
    "search_images_per_s": ("img/s", "higher"),
    "search_step_tail_ms": ("ms", "lower"),
    "finetune_images_per_s": ("img/s", "higher"),
    "eval_images_per_s": ("img/s", "higher"),
    "pruned_eval_images_per_s": ("img/s", "higher"),
    "prune_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "search_loss": ("nat", "lower"),
}

LAYER_NAMES = ("patch_embed", "wmsa", "mlp", "merge")

PER_LAYER = {
    "tensor.tape_records": ("count", "lower"),
    "tensor.matmul_calls": ("count", "lower"),
    "tensor.backward_s": ("s", "lower"),
    "tensor.macs": ("count", "lower"),
    "tensor.tape_peak_mb": ("MB", "lower"),
    **{f"blocks.{layer}.{kind}": unit
       for layer in LAYER_NAMES
       for kind, unit in (("fwd_s", ("s", "lower")), ("bwd_s", ("s", "lower")),
                          ("gflop_per_s", ("GFLOP/s", "higher")))},
    "blocks.other.fwd_s": ("s", "lower"),
    "scoring.total_loss_s": ("s", "lower"),
    "pipeline.forward_s": ("s", "lower"),
    "pipeline.optimizer_s": ("s", "lower"),
    "pipeline.data_wait_s": ("s", "lower"),
    "pruner.prune_model_s": ("s", "lower"),
    "pruner.params_before": ("count", "lower"),
    "pruner.params_after": ("count", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.bytes": ("count", "lower"),
    "costmodel.measured_cost_s": ("s", "lower"),
    "costmodel.model_cost_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it. Below 20 samples no percentile above the median has
    ten samples beyond it, and the maximum (percentile 100) is reported."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def _named(spans, name, parent_names=None, traces=None):
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name or (traces is not None and s["trace"] not in traces):
            continue
        if parent_names is not None:
            parent = by_id.get(s["parent"])
            if parent is None or parent["name"] not in parent_names:
                continue
        out.append(s)
    return out


def without_failed(spans):
    """The spans of every iteration that did not raise, and those outside
    iterations."""
    failed = {s["trace"] for s in spans
              if s["name"] == "iteration" and s["attrs"].get("failed")}
    return [s for s in spans if s["trace"] not in failed]


def _per_trace_sum(spans):
    total = defaultdict(float)
    for s in spans:
        total[s["trace"]] += duration(s)
    return statistics.median(total.values())


def scaled(seconds, probe_s):
    """``seconds`` as they would read with the machine at the speed probe's
    reference speed, given what the probe took around them."""
    return seconds * PROBE_REF_S / probe_s


def _scaled(span):
    return scaled(duration(span), span["attrs"]["probe_s"])


def _timings(stages, setups, time_of):
    """The timing metrics, with ``time_of(span)`` as each stage's time and
    ``setups`` as the set-up times."""
    search = stages["pipeline.search_step"]
    prune = stages["stage.prune"]

    def rate(group):
        return sum(s["attrs"]["images"] for s in group) / sum(time_of(s) for s in group)

    return {
        "setup_s": statistics.median(setups),
        "search_images_per_s": rate(search),
        "search_step_tail_ms": 1e3 * tail([time_of(s) for s in search])[1],
        "finetune_images_per_s": rate(stages["pipeline.finetune_step"]),
        "eval_images_per_s": rate(stages["pipeline.eval"]),
        "pruned_eval_images_per_s": rate(stages["pipeline.pruned_eval"]),
        "prune_s": sum(time_of(s) for s in prune) / len(prune),
    }


def end_to_end(spans, setups, peak_rss_mb, search_losses, probe_scaled):
    """Returns ({name: value}, {name: detail}) for the untraced run, from
    the iterations that completed. ``setups`` holds (seconds, probe seconds)
    of each set-up.

    With ``probe_scaled`` every timing is scaled to the speed probe's
    reference speed, stage by stage, with the probe run just before and
    after the stage: the machine's speed wanders by up to a factor of two in
    spells of seconds to minutes, which moved the unscaled figures of whole
    tiny runs by as much. The details then keep the unscaled figures. Every
    stage sample keeps its probe time. Rates and ``prune_s`` are totals
    over the run (work / time), not medians of samples, since a median of
    a few dozen correlated samples jumps between the fast and slow spells.
    """
    spans = without_failed(spans)
    stages = {name: _named(spans, name) for name in (
        "pipeline.search_step", "pipeline.finetune_step", "pipeline.eval",
        "pipeline.pruned_eval", "stage.prune")}
    if probe_scaled:
        values = _timings(stages, [scaled(t, p) for t, p in setups], _scaled)
    else:
        values = _timings(stages, [t for t, _ in setups], duration)
    values["peak_rss_mb"] = peak_rss_mb
    values["search_loss"] = statistics.fmean(search_losses)

    search = stages["pipeline.search_step"]
    details = {name: {"samples_s": [duration(s) for s in group],
                      "probe_s": [s["attrs"]["probe_s"] for s in group]}
               for name, group in stages.items()}
    details["setup_s"] = {"samples_s": [t for t, _ in setups],
                          "probe_s": [p for _, p in setups]}
    if probe_scaled:
        details["unscaled"] = _timings(stages, [t for t, _ in setups], duration)
    # The median step jumps between the machine's fast and slow spells, so it
    # is recorded here rather than gated.
    details["search_step_tail_ms"] = {
        "samples": len(search), "percentile": tail([duration(s) for s in search])[0],
        "median_ms": 1e3 * statistics.median(
            (_scaled if probe_scaled else duration)(s) for s in search)}
    # Page-cache throughput of every save and load, unscaled; too noisy on the
    # tiny workload's 50-300 KB files to gate on, so it is reported here only.
    details["checkpoint_io_mb_per_s"] = {
        kind: sum(s["attrs"]["bytes"] for s in group) / sum(duration(s) for s in group) / 1e6
        for kind, group in (("save", _named(spans, "checkpoint.save")),
                            ("load", _named(spans, "checkpoint.load")))}
    return values, details


def per_layer(spans, layer_costs, tape_peak_mb):
    """Per-layer values from the completed traced iterations of a traced run."""
    recorded = len(spans)
    spans = without_failed(spans)
    roots = _named(spans, "iteration")
    traced = {s["trace"] for s in roots if s["attrs"]["traced"]}
    plain = {s["trace"] for s in roots if not s["attrs"]["traced"]}
    timed = defaultdict(float)  # trace -> iteration time outside checks
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "iteration" and s["name"] != "check":
            timed[s["trace"]] += duration(s)

    def med(name, parents=None):
        return statistics.median(duration(s) for s in
                                 _named(spans, name, parents, traced))

    step = ("pipeline.search_step",)
    search = _named(spans, "pipeline.search_step", None, traced)
    evals = _named(spans, "pipeline.eval", None, traced)
    own = self_times(spans)
    other = [sum(own[f["id"]] for f in _named(spans, "pipeline.forward")
                 if f["parent"] == e["id"]) / e["attrs"]["images"] for e in evals]
    prune = _named(spans, "pipeline.run_prune", None, traced)
    values = {
        "tensor.tape_records": statistics.median(s["attrs"]["tape_records"] for s in search),
        "tensor.matmul_calls": statistics.median(s["attrs"]["matmul_calls"] for s in search),
        "tensor.backward_s": med("tensor.backward", step),
        "tensor.macs": evals[0]["attrs"]["macs"] / evals[0]["attrs"]["images"],
        "tensor.tape_peak_mb": tape_peak_mb,
        "blocks.other.fwd_s": statistics.median(other),
        "scoring.total_loss_s": med("scoring.total_loss", step),
        "pipeline.forward_s": med("pipeline.forward", step),
        "pipeline.optimizer_s": med("pipeline.optimizer", step),
        "pipeline.data_wait_s": med("data.batch", step),
        "pruner.prune_model_s": med("pruner.prune_model"),
        "pruner.params_before": prune[0]["attrs"]["params_before"],
        "pruner.params_after": prune[0]["attrs"]["params_after"],
        "checkpoint.save_s": _per_trace_sum(_named(spans, "checkpoint.save", None, traced)),
        "checkpoint.load_s": _per_trace_sum(_named(spans, "checkpoint.load", None, traced)),
        "checkpoint.restore_s": _per_trace_sum(
            _named(spans, "checkpoint.restore", None, traced)),
        "checkpoint.bytes": statistics.median(
            sum(s["attrs"]["bytes"] for s in _named(spans, "checkpoint.save", None, {t}))
            for t in traced),
        "costmodel.measured_cost_s": med("costmodel.measured_cost"),
        "costmodel.model_cost_s": statistics.median(
            duration(s) for s in _named(spans, "costmodel.model_cost")),
        "trace.overhead_ratio": statistics.median(timed[t] for t in traced)
        / statistics.median(timed[t] for t in plain),
        "trace.spans": recorded,
    }
    for layer in LAYER_NAMES:
        cost = layer_costs[layer]
        values[f"blocks.{layer}.fwd_s"] = cost["fwd_s"]
        values[f"blocks.{layer}.bwd_s"] = cost["bwd_s"]
        values[f"blocks.{layer}.gflop_per_s"] = 2 * cost["macs"] / cost["fwd_s"] / 1e9
    details = {"traced_iterations": sorted(traced), "untraced_iterations": sorted(plain),
               "layer_costs": layer_costs}
    return values, details
