"""Spans recorded around calls into dimprune, kept in memory until the run ends.

Every run records stage spans from the benchmark's own code (one search step,
one checkpoint save, one eval pass, ...). A traced run additionally wraps the
package's public layer functions for the duration of ``instrument`` so that
each W-MSA, MLP, patch-embed and merge call gets its own span and every
``tensor.matmul`` call is counted. Nothing inside the package is edited: the
wrappers replace module attributes and are removed again on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from machine import speed_probe_s

# blocks function name -> layer name used in span and metric names
LAYERS = {
    "patch_embed": "patch_embed",
    "wmsa_forward": "wmsa",
    "mlp_forward": "mlp",
    "patch_merge": "merge",
}


class Tracer:
    """Nested spans of one thread; ``trace`` groups the spans of one iteration."""

    def __init__(self):
        self.spans = []
        self.trace = 0
        self.matmul_calls = 0
        self.instrumented = False
        self.capture = None  # list receiving (layer, fn, args, kwargs) when set
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "parent": parent, "trace": self.trace,
                  "name": name, "start": 0.0, "end": 0.0, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record)
        matmuls = self.matmul_calls
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self.instrumented:
                record["attrs"]["matmul_calls"] = self.matmul_calls - matmuls


    @contextlib.contextmanager
    def stage(self, name: str, **attrs):
        """A span whose end-to-end timing is read against the machine's speed:
        the speed probe runs just before and just after it, outside its
        interval, and their mean is kept as ``attrs["probe_s"]``."""
        before = speed_probe_s()
        with self.span(name, **attrs) as record:
            yield record
        record["attrs"]["probe_s"] = (before + speed_probe_s()) / 2


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def span_problems(spans) -> list:
    """Describe every malformed span: missing parent, escaping its parent's
    interval or trace, or negative self time. Spans of one thread nest, so
    children never overlap and their durations add up."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        parent = s["parent"]
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"span {s['id']} {s['name']} has no parent {parent}")
        elif p["trace"] != s["trace"] or s["start"] < p["start"] or s["end"] > p["end"]:
            problems.append(f"span {s['id']} {s['name']} escapes parent {parent}")
    for sid, own in self_times(spans).items():
        if own < 0:
            problems.append(f"span {sid} {by_id[sid]['name']} has self time {own}")
    return problems


def _layer_wrapper(tracer: Tracer, layer: str, fn):
    def wrapper(*args, **kwargs):
        if tracer.capture is not None:
            tracer.capture.append((layer, fn, args, kwargs))
        with tracer.span("blocks." + layer):
            return fn(*args, **kwargs)
    return wrapper


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counting_wrapper(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        tracer.matmul_calls += 1
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap dimprune's layer functions with spans while the block runs.

    ``blocks`` looks its layer functions up as module globals on every call
    and ``costmodel`` imported them by name, so both modules are patched;
    ``run_prune`` reaches restore and surgery through ``pipeline`` globals.
    """
    from dimprune import blocks, costmodel, pipeline, tensor

    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    for attr, layer in LAYERS.items():
        wrapped = _layer_wrapper(tracer, layer, getattr(blocks, attr))
        patch(blocks, attr, wrapped)
        patch(costmodel, attr, wrapped)
    patch(pipeline, "scored_from_checkpoint",
          _span_wrapper(tracer, "checkpoint.restore", pipeline.scored_from_checkpoint))
    patch(pipeline, "prune_model",
          _span_wrapper(tracer, "pruner.prune_model", pipeline.prune_model))
    patch(tensor, "matmul", _counting_wrapper(tracer, tensor.matmul))
    tracer.instrumented = True
    try:
        yield tracer
    finally:
        tracer.instrumented = False
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
