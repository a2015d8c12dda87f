"""Search, prune, fine-tune and evaluate stages with a deterministic loop.

The optimizer is adaptive-moment with decoupled weight decay; decay is not
applied to score vectors (it would double-count the l1 penalty) or to norm
gains/biases. All stage functions are deterministic given the settings seed
and communicate through Checkpoint objects only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Backbone, forward_batch
from .checkpoint import (Checkpoint, checkpoint_from_model, model_from_checkpoint,
                         scored_from_checkpoint)
from .data import Dataset, iterate_batches, preprocess
from .errors import ConfigError, NumericError, UsageError
from .pruner import prune_model
from .scoring import attach_scores, score_l1, score_summary, total_loss
from .tensor import Tape, backward


def decay_exempt(name: str) -> bool:
    return name.startswith("score.") or "norm" in name


class AdamW:
    """Adaptive moments with decoupled weight decay, beta = (0.9, 0.999)."""

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 m: dict | None = None, v: dict | None = None, step: int = 0):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ConfigError(f"weight decay must be >= 0, got {weight_decay}")
        self.params = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise UsageError("duplicate parameter names passed to optimizer")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = int(step)
        self.m = {n: np.zeros(p.shape, dtype=np.float32) for n, p in self.params}
        self.v = {n: np.zeros(p.shape, dtype=np.float32) for n, p in self.params}
        for table, given in ((self.m, m or {}), (self.v, v or {})):
            for name, arr in given.items():
                if name in table:
                    table[name] = np.asarray(arr, dtype=np.float32).reshape(
                        table[name].shape).copy()

    def step(self):
        """One update in float32 array arithmetic; the bias corrections and
        the learning rate are folded into two scalars. The moments are rebound
        to fresh arrays, so a Checkpoint built from ``m``/``v`` keeps its values."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        # mhat / (sqrt(vhat) + eps) == m * sqrt(1-b2^t)/(1-b1^t) / (sqrt(v) + eps_hat)
        root2 = math.sqrt(1.0 - b2 ** t)
        step_size = self.lr * root2 / (1.0 - b1 ** t)
        eps_hat = self.eps * root2
        shrink = 1.0 - self.lr * self.weight_decay
        for name, p in self.params:
            g = p.grad
            if g is None:
                raise UsageError(f"parameter {name} has no gradient; "
                                 "run backward before stepping")
            # One scratch buffer serves every temporary of this parameter.
            update = g * (1.0 - b1)
            m = b1 * self.m[name]
            m += update
            np.multiply(g, g, out=update)
            update *= 1.0 - b2
            v = b2 * self.v[name]
            v += update
            self.m[name], self.v[name] = m, v
            np.sqrt(v, out=update)
            update += eps_hat
            np.divide(m, update, out=update)
            update *= step_size
            if self.weight_decay and not decay_exempt(name):
                p.data *= shrink
            p.data -= update

    def zero_grads(self):
        for _, p in self.params:
            p.grad = None


@dataclass
class TrainSettings:
    epochs: int = 20
    batch_size: int = 16
    lr: float = 0.003
    weight_decay: float = 0.05
    gamma: float = 0.0001
    seed: int = 0
    augment: bool = False
    normalize: bool = True
    log_path: str | None = None

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")


def _append_log(path, record: dict):
    if path is None:
        return
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _stats(dataset: Dataset, normalize: bool):
    """Per-channel (mean, std) for preprocessing; identity stats when off."""
    if normalize:
        return dataset.channel_stats()
    c = dataset.images.shape[1]
    return np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)


def _train(model: Backbone, scored, dataset: Dataset, settings: TrainSettings,
           gamma: float, stage: str, resume=None):
    settings.validate()
    rng = np.random.default_rng(settings.seed)
    holder = scored if scored is not None else model
    m, v, step = resume if resume is not None else (None, None, 0)
    opt = AdamW(holder.named_parameters(), lr=settings.lr,
                weight_decay=settings.weight_decay, m=m, v=v, step=step)
    mean, std = _stats(dataset, settings.normalize)
    score_map = scored.score_map() if scored is not None else None
    scores = scored.scores if scored is not None else []

    for epoch in range(settings.epochs):
        total = 0.0
        hits = 0
        count = 0
        for images, labels in iterate_batches(dataset, settings.batch_size, rng):
            batch = preprocess(images, settings.augment, mean, std, rng=rng)
            holder.zero_grads()
            with Tape() as tape:
                logits = forward_batch(model, batch, scores=score_map)
                loss = total_loss(logits, labels, scores, gamma)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}: {value}")
            backward(loss, tape)
            opt.step()
            total += value * len(labels)
            hits += int((logits.data.argmax(axis=1) == labels).sum())
            count += len(labels)
        record = {"stage": stage, "epoch": epoch, "loss": total / count,
                  "accuracy": hits / count}
        if scores:
            record["score_l1"] = score_l1(scores)
            record["scores_below_0.1"] = int(sum(
                row["below_threshold"] for row in score_summary(scores, 0.1)))
        _append_log(settings.log_path, record)
    return opt


def _resume_state(start):
    """(opt_m, opt_v, step) of a checkpoint that carries optimizer state, else None."""
    if isinstance(start, Checkpoint) and (start.opt_m or start.opt_v or start.step):
        return start.opt_m, start.opt_v, start.step
    return None


def run_search(start, dataset: Dataset, settings: TrainSettings) -> Checkpoint:
    """Train weights and scores jointly under the l1-regularized objective."""
    if isinstance(start, Checkpoint):
        if start.has_scores():
            model, scored = scored_from_checkpoint(start)
        else:
            model = model_from_checkpoint(start)
            scored = attach_scores(model)
    elif isinstance(start, Backbone):
        model = start
        scored = attach_scores(model)
    else:
        raise UsageError(f"run_search needs a Backbone or Checkpoint, got {type(start)}")
    opt = _train(model, scored, dataset, settings, gamma=settings.gamma,
                 stage="search", resume=_resume_state(start))
    return checkpoint_from_model(model, scored, step=opt.step_count,
                                 seed=settings.seed, opt_m=opt.m, opt_v=opt.v)


def run_prune(ckpt: Checkpoint, rho: float):
    """Rank the stored scores and cut the model; drops the score table."""
    if not ckpt.has_scores():
        raise UsageError("prune needs a search checkpoint with a score table")
    _, scored = scored_from_checkpoint(ckpt)
    pruned, report = prune_model(scored, rho)
    out = checkpoint_from_model(pruned, step=0, seed=ckpt.seed)
    return out, report


def run_finetune(ckpt: Checkpoint, dataset: Dataset,
                 settings: TrainSettings) -> Checkpoint:
    """Warm-start training of a pruned, score-free checkpoint."""
    if ckpt.has_scores():
        raise UsageError("finetune expects a pruned checkpoint without scores; "
                         "run prune first")
    model = model_from_checkpoint(ckpt)
    opt = _train(model, None, dataset, settings, gamma=0.0, stage="finetune",
                 resume=_resume_state(ckpt))
    return checkpoint_from_model(model, step=opt.step_count, seed=settings.seed,
                                 opt_m=opt.m, opt_v=opt.v)


def evaluate(source, dataset: Dataset, batch_size: int = 64,
             normalize: bool = True) -> dict:
    """Deterministic accuracy/loss pass; never mutates parameters."""
    if isinstance(source, Checkpoint):
        if source.has_scores():
            model, scored = scored_from_checkpoint(source)
            score_map = scored.score_map()
        else:
            model = model_from_checkpoint(source)
            score_map = None
    else:
        model = source
        score_map = None
    mean, std = _stats(dataset, normalize)
    hits = 0
    total = 0.0
    for images, labels in iterate_batches(dataset, batch_size):
        batch = preprocess(images, False, mean, std)
        logits = forward_batch(model, batch, scores=score_map)
        loss = T.cross_entropy_with_logits(logits, labels)
        total += loss.item() * len(labels)
        hits += int((logits.data.argmax(axis=1) == labels).sum())
    n = len(dataset)
    return {"accuracy": hits / n, "loss": total / n, "count": n}
