"""The benchmark's traced run (benchmarks/spans.py) wraps dimprune's layer
functions by module attribute. This keeps that reach-in under tier-1: a
renamed or removed name fails here, not only in the benchmark's smoke run.
"""

import os

import numpy as np

from dimprune.blocks import BackboneConfig, build_backbone, forward_batch
from dimprune.costmodel import measured_cost, model_cost, runtime_convention

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")


def test_benchmark_instrument_traces_forward_and_measured_cost(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import spans

    cfg = BackboneConfig(depths=(2, 1), heads=(2, 4))
    model = build_backbone(cfg, seed=0)
    images = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        forward_batch(model, images)
        measured = measured_cost(model)
    names = {s["name"] for s in tracer.spans}
    assert {"blocks." + layer for layer in spans.LAYERS.values()} <= names
    closed = model_cost(cfg, 1.0, runtime_convention(cfg))
    assert [(s.site_id, s.params, s.flops) for s in measured.sites] == \
        [(s.site_id, s.params, s.flops) for s in closed.sites]
    assert (measured.total_params, measured.total_flops) == \
        (closed.total_params, closed.total_flops)
