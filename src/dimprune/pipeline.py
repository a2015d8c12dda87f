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
from .errors import ConfigError, DimensionError, NumericError, UsageError
from .pruner import prune_model
from .scoring import ScoredModel, attach_scores, score_l1, score_summary, total_loss
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
                    arr = np.asarray(arr, dtype=np.float32)
                    if arr.shape != table[name].shape:
                        raise DimensionError(
                            f"optimizer moment for parameter {name} has shape "
                            f"{arr.shape}, the parameter has {table[name].shape}")
                    table[name] = arr

    def step(self):
        """One update in float32 array arithmetic; the bias corrections and
        the learning rate are folded into two scalars. Each parameter and
        moment is rebound to a fresh array and none is written into, so a
        tape that recorded a parameter still pulls through the values it
        read, and a Checkpoint built from the model or ``m``/``v`` keeps its
        values.

        Raises UsageError, changing nothing, when a parameter has no gradient."""
        for name, p in self.params:
            if p.grad is None:
                raise UsageError(f"parameter {name} has no gradient; "
                                 "run backward before stepping")
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
                new = p.data * shrink
                new -= update
            else:
                new = np.subtract(p.data, update, out=update)
            p.data = new


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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError(f"gamma must be >= 0 and finite, got {self.gamma}")


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


def _restore(source) -> ScoredModel:
    """The ScoredModel of a stage input: a Checkpoint rebuilt with its score
    table, or a Backbone as given; the table is empty when there is none."""
    if isinstance(source, Checkpoint):
        if source.has_scores():
            return scored_from_checkpoint(source)[1]
        return ScoredModel(model_from_checkpoint(source), [])
    if isinstance(source, Backbone):
        return ScoredModel(source, [])
    raise UsageError(f"expected a Backbone or Checkpoint, got {type(source)}")


def _train(scored: ScoredModel, start, dataset: Dataset, settings: TrainSettings,
           gamma: float, stage: str) -> Checkpoint:
    """Train ``scored`` and return the result as a Checkpoint; AdamW resumes
    from the optimizer state of ``start`` when it is a Checkpoint."""
    settings.validate()
    rng = np.random.default_rng(settings.seed)
    model = scored.model
    resume = start if isinstance(start, Checkpoint) else Checkpoint(model.config)
    opt = AdamW(scored.named_parameters(), lr=settings.lr,
                weight_decay=settings.weight_decay, m=resume.opt_m, v=resume.opt_v,
                step=resume.step)
    mean, std = _stats(dataset, settings.normalize)
    score_map = scored.score_map()

    for epoch in range(settings.epochs):
        total = 0.0
        hits = 0
        count = 0
        for images, labels in iterate_batches(dataset, settings.batch_size, rng):
            batch = preprocess(images, settings.augment, mean, std, rng=rng)
            scored.zero_grads()
            with Tape() as tape:
                logits = forward_batch(model, batch, scores=score_map)
                loss = total_loss(logits, labels, scored.scores, gamma)
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
        if scored.scores:
            record["score_l1"] = score_l1(scored.scores)
            record["scores_below_0.1"] = int(sum(
                row["below_threshold"] for row in score_summary(scored.scores, 0.1)))
        _append_log(settings.log_path, record)
    return checkpoint_from_model(model, scored, step=opt.step_count, seed=settings.seed,
                                 opt_m=opt.m, opt_v=opt.v)


def run_search(start, dataset: Dataset, settings: TrainSettings) -> Checkpoint:
    """Train weights and scores jointly under the l1-regularized objective;
    a start without a score table gets fresh scores of 1."""
    scored = _restore(start)
    if not scored.scores:
        scored = attach_scores(scored.model)
    return _train(scored, start, dataset, settings, gamma=settings.gamma,
                  stage="search")


def run_prune(ckpt: Checkpoint, rho: float):
    """Rank the stored scores and cut the model; drops the score table."""
    if not ckpt.has_scores():
        raise UsageError("prune needs a search checkpoint with a score table")
    pruned, report = prune_model(_restore(ckpt), rho)
    out = checkpoint_from_model(pruned, step=0, seed=ckpt.seed)
    return out, report


def run_finetune(ckpt: Checkpoint, dataset: Dataset,
                 settings: TrainSettings) -> Checkpoint:
    """Warm-start training of a pruned, score-free checkpoint."""
    if ckpt.has_scores():
        raise UsageError("finetune expects a pruned checkpoint without scores; "
                         "run prune first")
    return _train(_restore(ckpt), ckpt, dataset, settings, gamma=0.0, stage="finetune")


def evaluate(source, dataset: Dataset, batch_size: int = 64,
             normalize: bool = True) -> dict:
    """Deterministic accuracy/loss pass; never mutates parameters."""
    scored = _restore(source)
    score_map = scored.score_map()
    mean, std = _stats(dataset, normalize)
    hits = 0
    total = 0.0
    for images, labels in iterate_batches(dataset, batch_size):
        batch = preprocess(images, False, mean, std)
        logits = forward_batch(scored.model, batch, scores=score_map)
        loss = T.cross_entropy_with_logits(logits, labels)
        total += loss.item() * len(labels)
        hits += int((logits.data.argmax(axis=1) == labels).sum())
    n = len(dataset)
    return {"accuracy": hits / n, "loss": total / n, "count": n}
