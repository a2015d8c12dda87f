"""Isolated per-layer timings for the traced run.

One forward of one image captures the arguments of every public layer call
(patch embed, W-MSA, MLP, merge). Each captured call is then replayed alone:
once without a tape for the forward time and the MACs, once on its own
``Tape`` followed by ``backward`` for the backward time. Sums over all sites
of a layer give that layer's cost per image.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from dimprune import Tape, Tensor, backward, forward_batch, total_loss
from dimprune import tensor as T
from dimprune.data import preprocess
from dimprune.tensor import count_macs

from metrics import LAYER_NAMES
from spans import instrument

# Replays of the whole captured set stop once this much time has been spent
# (at least one, at most MAX_REPEATS).
REPEAT_BUDGET_S = 3.0
MAX_REPEATS = 5


def _with_grad(arg):
    """Activations captured without a tape get a gradient slot of their own."""
    if isinstance(arg, Tensor) and not arg.requires_grad:
        return Tensor(arg.data, requires_grad=True)
    return arg


def _replay(captured):
    totals = {layer: {"fwd_s": 0.0, "bwd_s": 0.0, "macs": 0} for layer in LAYER_NAMES}
    for layer, fn, args, kwargs in captured:
        with count_macs() as counter:
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            t1 = time.perf_counter()
        grad_args = [_with_grad(a) for a in args]
        with Tape() as tape:
            loss = T.sum_all(fn(*grad_args, **kwargs))
        t2 = time.perf_counter()
        backward(loss, tape)
        t3 = time.perf_counter()
        totals[layer]["fwd_s"] += t1 - t0
        totals[layer]["bwd_s"] += t3 - t2
        totals[layer]["macs"] += counter.macs
    return totals


def layer_costs(tracer, model, scored, st) -> dict:
    """Median per-image fwd/bwd seconds and MACs of each layer."""
    image = preprocess(st.eval_set.images[:1], False, st.mean, st.std)
    tracer.capture = []
    with instrument(tracer), tracer.span("layers.capture"):
        forward_batch(model, image, scores=scored.score_map())
    captured, tracer.capture = tracer.capture, None
    runs = []
    start = time.perf_counter()
    while not runs or (len(runs) < MAX_REPEATS
                       and time.perf_counter() - start < REPEAT_BUDGET_S):
        runs.append(_replay(captured))
    scored.zero_grads()
    return {layer: {"fwd_s": statistics.median(r[layer]["fwd_s"] for r in runs),
                    "bwd_s": statistics.median(r[layer]["bwd_s"] for r in runs),
                    "macs": runs[0][layer]["macs"], "repeats": len(runs)}
            for layer in LAYER_NAMES}


def tape_peak_mb(model, scored, st, gamma) -> float:
    """Peak traced allocation of one search step's forward, loss and backward."""
    images = st.train_set.images[:st.run.train.batch_size]
    labels = st.train_set.labels[:st.run.train.batch_size]
    batch = preprocess(images, False, st.mean, st.std)
    scored.zero_grads()
    tracemalloc.start()
    try:
        with Tape() as tape:
            logits = forward_batch(model, batch, scores=scored.score_map())
            loss = total_loss(logits, labels, scored.scores, gamma)
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scored.zero_grads()
    return peak / 1e6
