"""The benchmark's workloads: one search -> prune -> finetune -> eval chain,
run on two model scales.

Every iteration restarts from the same start checkpoint with the same data
order, so all iterations of a run do identical work. That keeps the timings
comparable and lets each iteration's outputs be checked bitwise against the
first one. The chain follows the command line's stages, which talk only
through checkpoint files:

  resume from the start checkpoint (as ``search --resume``)
  search steps: tape, backward, AdamW over weights and scores
  save the search checkpoint
  prune stage (as ``dimprune prune``), ``prune_repeats`` times: load,
      run_prune, save, load, model_from_checkpoint, measured_cost
  finetune steps on the surgered model (warm start, fresh AdamW)
  eval of the searched model at full width, eval of the surgered model

WORKLOADS.md explains why each workload is shaped the way it is.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

import numpy as np

from dimprune import (AdamW, Dataset, DimPruneError, Tape, attach_scores, backward,
                      build_backbone, checkpoint_from_model, forward_batch,
                      load_checkpoint, masked_scores, measured_cost, model_cost,
                      model_from_checkpoint, run_prune, save_checkpoint,
                      swin_t_config, total_loss)
from dimprune.checkpoint import scored_from_checkpoint
from dimprune.config import load_config, make_dataset
from dimprune.costmodel import runtime_convention
from dimprune.scoring import score_l1
from dimprune.data import iterate_batches, preprocess
from dimprune.tensor import count_macs

# The README's run.cfg model with two blocks per stage, so the shifted-window
# mask path is trained too.
TINY_CFG = """\
model.image_size = 32
model.patch_size = 4
model.in_channels = 3
model.base_dim = 16
model.depths = 2, 2
model.heads = 2, 4
model.window = 2
model.mlp_ratio = 2.0
model.num_classes = 4
train.batch_size = 8
train.lr = 0.01
train.weight_decay = 0.01
train.gamma = 0.001
data.kind = synth
data.n_per_class = 16
prune.rho = 0.6
"""

# swin_t_config(num_classes=10). synth_dataset holds an O(C^2 * CHW)
# pairwise-distance array, so ten classes is as far as 224^2 inputs go.
SWIN_T_CFG = """\
model.image_size = 224
model.patch_size = 4
model.in_channels = 3
model.base_dim = 96
model.depths = 2, 2, 6, 2
model.heads = 3, 6, 12, 24
model.window = 7
model.mlp_ratio = 4.0
model.num_classes = 10
train.batch_size = 1
train.lr = 0.001
train.weight_decay = 0.05
train.gamma = 0.001
data.kind = synth
data.n_per_class = 1
prune.rho = 0.6
"""


@dataclass(frozen=True)
class Workload:
    name: str
    cfg_text: str
    search_steps: int
    finetune_steps: int
    eval_images: int       # evaluated in one batch of this size
    # Start from seeded non-uniform scores and AdamW moments instead of a
    # fresh search; at all-ones scores every |alpha| ties and ranking is moot.
    seeded_start: bool
    # Times the prune stage runs per iteration at the config's prune.rho. The
    # repeats do identical work; they give the millisecond-scale tiny stage
    # enough samples per run.
    prune_repeats: int
    # Least accuracy the finetuned surgered model must reach on the eval set,
    # or None where the run is too short to learn anything. Eight search and
    # eight finetune steps leave 4-class accuracy between 0.75 and 1.0 across
    # seeds; 0.5 is twice chance.
    min_accuracy: float | None
    # Whether the end-to-end timings are scaled by the speed probe (see
    # metrics.end_to_end). The probe is interpreter-bound small-op work, like
    # tiny's stages, which are short next to the machine's speed spells.
    # Swin-T's seconds-long BLAS- and memory-bound stages track it loosely:
    # scaling took one five-seed spread from 0.04-0.07 to 0.10-0.12 and a
    # ten-seed one from 0.10-0.11 to 0.04-0.13, so Swin-T stays in plain
    # wall time.
    probe_scaled: bool = False
    # Expected model config, checked against what load_config produced.
    reference_config: object = None


WORKLOADS = {
    "tiny-pipeline": Workload(
        name="tiny-pipeline", cfg_text=TINY_CFG, search_steps=8,
        finetune_steps=8, eval_images=64, seeded_start=False,
        prune_repeats=8, min_accuracy=0.5, probe_scaled=True),
    "swin-t-pipeline": Workload(
        name="swin-t-pipeline", cfg_text=SWIN_T_CFG, search_steps=1,
        finetune_steps=1, eval_images=1, seeded_start=True,
        prune_repeats=1, min_accuracy=None,
        reference_config=swin_t_config(num_classes=10)),
}


class Checks:
    """Correctness checks counted against attempts instead of raising."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Setup:
    run: object            # dimprune.config.RunConfig
    train_set: Dataset
    eval_set: Dataset
    mean: np.ndarray
    std: np.ndarray
    start: object          # in-memory search Checkpoint every iteration resumes
    full_macs: int         # model_cost MACs of one image at full width


def setup(workload: Workload, seed: int, workdir: str) -> Setup:
    """Config, data and start checkpoint.

    ``seed`` makes the data, the shuffle order and, with ``seeded_start``, the
    start scores and AdamW moments. The weights come from the config's fixed
    model seed: with them drawn from ``seed`` as well, the search loss of
    tiny-pipeline spread twice as far between seeds.
    """
    cfg_path = os.path.join(workdir, f"{workload.name}.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(workload.cfg_text)
    run = load_config(cfg_path, [f"data.seed={seed}", f"train.seed={seed}"])
    train_set = make_dataset(run)
    n = workload.eval_images
    eval_set = Dataset(images=train_set.images[:n], labels=train_set.labels[:n],
                       num_classes=train_set.num_classes)
    model = build_backbone(run.model, seed=run.model_seed)
    scored = attach_scores(model)
    opt_m, opt_v, step = {}, {}, 0
    if workload.seeded_start:
        rng = np.random.default_rng([seed, 1])
        for sv in scored.scores:
            sv.alpha.data[:] = rng.uniform(0.05, 1.0, size=sv.length)
        named = scored.named_parameters()
        opt_m = {name: rng.standard_normal(p.shape, dtype=np.float32) * np.float32(1e-3)
                 for name, p in named}
        opt_v = {name: rng.random(p.shape, dtype=np.float32) * np.float32(1e-6)
                 for name, p in named}
        step = 10
    start = checkpoint_from_model(model, scored, step=step, seed=seed,
                                  opt_m=opt_m, opt_v=opt_v)
    mean, std = train_set.channel_stats()
    full = model_cost(run.model, 1.0, runtime_convention(run.model)).total_flops
    return Setup(run=run, train_set=train_set, eval_set=eval_set, mean=mean,
                 std=std, start=start, full_macs=full)


def _batches(dataset: Dataset, batch_size: int, seed: int):
    """Endless shuffled batches, reshuffled every epoch as training does."""
    rng = np.random.default_rng(seed)
    while True:
        yield from iterate_batches(dataset, batch_size, rng)


def _train_step(tracer, name, model, holder, opt, batches, st: Setup,
                scores, gamma) -> float:
    """One closed-loop step: fetch, forward on a tape, loss, backward, AdamW."""
    score_map = holder.score_map() if scores else None
    with tracer.stage(name) as sp:
        with tracer.span("data.batch"):
            images, labels = next(batches)
            batch = preprocess(images, False, st.mean, st.std)
        holder.zero_grads()
        with Tape() as tape:
            with tracer.span("pipeline.forward"):
                logits = forward_batch(model, batch, scores=score_map)
            with tracer.span("scoring.total_loss"):
                loss = total_loss(logits, labels, scores, gamma)
        # The tape has no public size accessor; its record list is read here.
        sp["attrs"]["tape_records"] = len(tape._nodes)
        sp["attrs"]["images"] = len(labels)
        with tracer.span("tensor.backward"):
            backward(loss, tape)
        with tracer.span("pipeline.optimizer"):
            opt.step()
    return loss.item()


def _eval(tracer, name, model, st: Setup):
    """No-tape pass over the eval set; returns (logits, accuracy, macs)."""
    rows = []
    hits = 0
    with tracer.stage(name) as sp:
        with count_macs() as counter:
            for images, labels in iterate_batches(st.eval_set, len(st.eval_set)):
                with tracer.span("data.batch"):
                    batch = preprocess(images, False, st.mean, st.std)
                with tracer.span("pipeline.forward"):
                    logits = forward_batch(model, batch)
                rows.append(logits.data)
                hits += int((logits.data.argmax(axis=1) == labels).sum())
        sp["attrs"]["images"] = len(st.eval_set)
        sp["attrs"]["macs"] = counter.macs
    return np.concatenate(rows), hits / len(st.eval_set), counter.macs


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    raw = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(np.ascontiguousarray(a).view(raw),
                               np.ascontiguousarray(b).view(raw)))


def _same_checkpoint(a, b) -> bool:
    """load(save(x)) == x, bit for bit."""
    if (a.config, a.site_dims, a.step, a.seed, a.rng_state) != \
            (b.config, b.site_dims, b.step, b.seed, b.rng_state):
        return False
    for ta, tb in ((a.params, b.params), (a.scores, b.scores),
                   (a.opt_m, b.opt_m), (a.opt_v, b.opt_v)):
        if ta.keys() != tb.keys():
            return False
        if not all(_bitwise_equal(arr, tb[key]) for key, arr in ta.items()):
            return False
    return True


def _save(tracer, path, ckpt):
    with tracer.span("checkpoint.save") as sp:
        save_checkpoint(path, ckpt)
    sp["attrs"]["bytes"] = os.path.getsize(path)


def _load(tracer, path):
    with tracer.span("checkpoint.load") as sp:
        ckpt = load_checkpoint(path)
    sp["attrs"]["bytes"] = os.path.getsize(path)
    return ckpt


def _prune_stage(tracer, checks: Checks, workdir, search_path, search,
                 closed, model, scored, st: Setup, masked_check: bool):
    """``dimprune prune`` at the config's keep ratio, then the checks on its
    output. Returns the surgered model rebuilt from the saved pruned checkpoint.
    """
    rho = st.run.rho
    pruned_path = os.path.join(workdir, "pruned.ckpt")
    with tracer.stage("stage.prune", rho=rho):
        loaded = _load(tracer, search_path)
        with tracer.span("pipeline.run_prune", rho=rho) as sp:
            pruned, report = run_prune(loaded, rho)
        sp["attrs"]["params_before"] = report.pre_params
        sp["attrs"]["params_after"] = report.post_params
        _save(tracer, pruned_path, pruned)
        pruned_loaded = _load(tracer, pruned_path)
        with tracer.span("checkpoint.restore"):
            pruned_model = model_from_checkpoint(pruned_loaded)
        with tracer.span("costmodel.measured_cost"):
            measured = measured_cost(pruned_model)

    with tracer.span("check"):
        checks.check(_same_checkpoint(search, loaded),
                     "search checkpoint load(save(x)) differs")
        checks.check(_same_checkpoint(pruned, pruned_loaded),
                     "pruned checkpoint load(save(x)) differs")
        del loaded, pruned, pruned_loaded
        checks.check(measured.total_flops == closed.total_flops
                     and measured.total_params == closed.total_params
                     == report.post_params,
                     f"measured_cost {measured.total_params}/"
                     f"{measured.total_flops} != model_cost {closed.total_params}/"
                     f"{closed.total_flops}")
        if masked_check:
            # Criterion 4 at this scale: surgery equals zero-masking the scores.
            x = preprocess(st.eval_set.images[:1], False, st.mean, st.std)
            want = forward_batch(model, x, scores=masked_scores(scored, report)).data
            got = forward_batch(pruned_model, x).data
            gap = float(np.abs(got - want).max())
            checks.check(gap <= 1e-4, f"surgered logits differ from masked "
                                      f"logits by {gap}")
    return pruned_model


def iteration(workload: Workload, st: Setup, tracer, checks: Checks,
              workdir: str, first: dict | None) -> dict:
    """Run the chain once; returns the outputs later iterations must repeat.

    ``first`` holds the reference outputs (None until an iteration has
    completed). Checks run inside ``check`` spans, which the metrics leave out.
    """
    run = st.run
    train = run.train
    with tracer.span("checkpoint.restore"):
        model, scored = scored_from_checkpoint(st.start)
    with tracer.span("check"):
        start_penalty = train.gamma * score_l1(scored.scores)
    opt = AdamW(scored.named_parameters(), lr=train.lr,
                weight_decay=train.weight_decay, m=st.start.opt_m,
                v=st.start.opt_v, step=st.start.step)
    batches = _batches(st.train_set, train.batch_size, train.seed)
    search_losses = [
        _train_step(tracer, "pipeline.search_step", model, scored, opt, batches,
                    st, scored.scores, train.gamma)
        for _ in range(workload.search_steps)]

    search = checkpoint_from_model(model, scored, step=opt.step_count,
                                   seed=train.seed, opt_m=opt.m, opt_v=opt.v)
    del opt
    search_path = os.path.join(workdir, "search.ckpt")
    _save(tracer, search_path, search)
    with tracer.span("check"):
        with tracer.span("costmodel.model_cost"):
            closed = model_cost(run.model, run.rho, runtime_convention(run.model))
    for repeat in range(workload.prune_repeats):
        pruned_model = None  # release the previous repeat's model first
        pruned_model = _prune_stage(tracer, checks, workdir, search_path, search,
                                    closed, model, scored, st,
                                    masked_check=first is None and repeat == 0)
    del search

    ft_opt = AdamW(pruned_model.named_parameters(), lr=train.lr,
                   weight_decay=train.weight_decay)
    ft_batches = _batches(st.train_set, train.batch_size, train.seed)
    finetune_losses = [
        _train_step(tracer, "pipeline.finetune_step", pruned_model, pruned_model,
                    ft_opt, ft_batches, st, [], 0.0)
        for _ in range(workload.finetune_steps)]
    del ft_opt

    # Each model is evaluated twice; the passes must agree bit for bit.
    full = [_eval(tracer, "pipeline.eval", model, st) for _ in range(2)]
    pruned = [_eval(tracer, "pipeline.pruned_eval", pruned_model, st) for _ in range(2)]
    (full_logits, _, full_macs), (pruned_logits, accuracy, pruned_macs) = full[0], pruned[0]
    pruned_flops = closed.total_flops

    out = {"search_losses": search_losses, "finetune_losses": finetune_losses,
           "full_logits": full_logits, "pruned_logits": pruned_logits,
           "accuracy": accuracy, "model": model, "scored": scored}
    with tracer.span("check"):
        n = len(st.eval_set)
        for value in search_losses + finetune_losses:
            checks.check(bool(np.isfinite(value)), f"non-finite loss {value}")
        # Both loops start from the same shuffle seed, so the first finetune
        # batch is the first search batch. The search updates and the surgery
        # must have cut the cross-entropy on it by at least a quarter. This
        # covers backward and AdamW on Swin-T too, whose one search loss is
        # taken before any update.
        search_ce = search_losses[0] - start_penalty
        checks.check(finetune_losses[0] < 0.75 * search_ce,
                     f"first-batch cross-entropy {search_ce} before the search "
                     f"only fell to {finetune_losses[0]} after it")
        checks.check(full_macs == n * st.full_macs,
                     f"count_macs {full_macs} != {n} x model_cost {st.full_macs}")
        checks.check(pruned_macs == n * pruned_flops,
                     f"pruned count_macs {pruned_macs} != {n} x {pruned_flops}")
        for name, passes in (("full-width", full), ("surgered", pruned)):
            checks.check(_bitwise_equal(passes[0][0], passes[1][0]),
                         f"{name} eval logits differ between two passes")
        if workload.min_accuracy is not None:
            checks.check(accuracy >= workload.min_accuracy,
                         f"finetuned accuracy {accuracy} < {workload.min_accuracy}")
        if first is not None:
            for key in ("search_losses", "finetune_losses"):
                checks.check(out[key] == first[key], f"{key} differ between iterations")
            for key in ("full_logits", "pruned_logits"):
                checks.check(_bitwise_equal(out[key], first[key]),
                             f"{key} differ between iterations")
    return out


def run_iterations(workload: Workload, st: Setup, tracer, checks: Checks,
                   workdir: str, seconds: float, min_iterations: int,
                   traced=None, keep_last=False):
    """Closed loop with one client: each iteration starts when the last ends.

    An untimed warm-up iteration runs first: the first pass pays one-off
    costs later passes do not (the allocator growing the heap to the tape's
    size, the window-permutation caches). Its spans are dropped and its
    outputs become the reference later iterations must reproduce. Then
    iterations run until ``seconds`` have passed and at least
    ``min_iterations`` ran. With ``traced`` (a callable returning a context
    manager), even-numbered iterations run inside it, so traced and untraced
    iterations alternate.

    An iteration that raises DimPruneError counts as a failed check, and its
    ``iteration`` span is marked ``failed`` so the metrics leave it out. If
    the warm-up fails, the first iteration that completes becomes the
    reference. Returns (reference outputs, last completed outputs); the
    latter only with ``keep_last``, since holding them while the next
    iteration runs raises peak RSS.
    """
    def attempt(k, wrap):
        tracer.trace = k
        with wrap, tracer.span("iteration", traced=wrap is not nowrap) as root:
            try:
                return iteration(workload, st, tracer, checks, workdir, reference)
            except DimPruneError as exc:
                root["attrs"]["failed"] = True
                checks.check(False, f"iteration {k}: {type(exc).__name__}: {exc}")
                return None

    def as_reference(out):
        return {key: out[key] for key in
                ("search_losses", "finetune_losses", "full_logits", "pruned_logits")}

    nowrap = contextlib.nullcontext()
    reference = None
    warm = attempt("warmup", nowrap)
    if warm is not None:
        reference = as_reference(warm)
    del warm
    tracer.spans.clear()
    last = None
    start = time.perf_counter()
    k = 0
    while k < min_iterations or time.perf_counter() - start < seconds:
        out = attempt(k, traced() if traced is not None and k % 2 == 0 else nowrap)
        if out is not None:
            if reference is None:
                reference = as_reference(out)
            if keep_last:
                last = out
        del out
        k += 1
    return reference, last
