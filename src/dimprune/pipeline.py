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
from .tensor import Tape, backward, scan_finite


def decay_exempt(name: str) -> bool:
    return name.startswith("score.") or "norm" in name


# Entries per block of an AdamW step: the temporaries of one block stay in
# cache, and parameters smaller than a block are updated together.
_BLOCK = 1 << 16
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class _Block:
    """A run of consecutive parameters updated as one flat array: several
    smaller than ``_BLOCK`` packed together, or one of at least ``_BLOCK``
    entries, updated in ``_BLOCK``-sized slices.

    ``m`` and ``v`` are the block's flat moments, and ``p`` is the flat
    array whose views (``held``) the parameters were given at the last step,
    so a step gathers the parameters afresh only when one was rebound."""

    def __init__(self, run, shrink, m: dict, v: dict):
        self.members, start = [], 0         # (name, param, start, stop)
        for name, p in run:
            self.members.append((name, p, start, start + p.size))
            start += p.size
        self.size = start
        # The decay factor: None when no entry decays, else ``shrink`` for
        # every entry or, in a pack that mixes both kinds, a float32 array;
        # p * 1.0 is exact, so an exempt entry keeps its undecayed bits.
        decayed = [shrink is not None and not decay_exempt(name) for name, _ in run]
        if not any(decayed):
            self.factor = None
        elif all(decayed):
            self.factor = shrink
        else:
            self.factor = np.concatenate([np.full(p.size, shrink if d else 1.0,
                                                  dtype=np.float32)
                                          for (_, p), d in zip(run, decayed)])
        self.m, self.v = (_flat([np.asarray(given[name], dtype=np.float32) if name in given
                                 else np.zeros(p.shape, dtype=np.float32)
                                 for name, p in run])
                          for given in (m, v))
        self.p = None
        self.held = [None] * len(run)

    def params(self):
        """The members' arrays as one flat array, copied only when one of
        them is not the view handed out at the last step."""
        for (_, p, _, _), held in zip(self.members, self.held):
            if p.data is not held:
                return _flat([p.data for _, p, _, _ in self.members])
        return self.p

    def views(self, flat) -> list:
        """One view of ``flat`` per member, in the member's shape."""
        return [flat[start:stop].reshape(p.shape) for _, p, start, stop in self.members]


def _flat(arrays):
    """One flat array of ``arrays`` in order; a single contiguous array is
    not copied."""
    return arrays[0].reshape(-1) if len(arrays) == 1 else np.concatenate(arrays, axis=None)


def _blocks(params, shrink, m: dict, v: dict) -> list:
    """``params`` in order as blocks; ``shrink`` is the factor of a decayed
    entry, None without weight decay; ``m`` and ``v`` map a name to its
    starting moment, zero for a name they leave out."""
    blocks, run, filled = [], [], 0
    for name, p in params:
        if run and (p.size >= _BLOCK or filled + p.size > _BLOCK):
            blocks.append(_Block(run, shrink, m, v))
            run, filled = [], 0
        run.append((name, p))
        filled += p.size
    if run:
        blocks.append(_Block(run, shrink, m, v))
    return blocks


class AdamW:
    """Adaptive moments with decoupled weight decay, beta = (0.9, 0.999) and
    eps = 1e-8.

    A step runs over blocks of at most ``_BLOCK`` entries, so its
    temporaries stay in cache: consecutive parameters smaller than a block
    are packed into one flat array, and a larger parameter is updated in
    block-sized slices. Every entry goes through the same float32
    operations in the same order whatever its block, so the result does
    not depend on the blocking. Each block keeps its moments as two flat
    arrays, which a step replaces and never writes into; ``m`` and ``v``
    map each parameter name to a view of them, built when read."""

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0,
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
        self.step_count = int(step)
        shapes = {n: p.shape for n, p in self.params}
        for given in (m or {}), (v or {}):
            for name, arr in given.items():
                if name in shapes and np.shape(arr) != shapes[name]:
                    raise DimensionError(
                        f"optimizer moment for parameter {name} has shape "
                        f"{np.shape(arr)}, the parameter has {shapes[name]}")
        shrink = (1.0 - self.lr * self.weight_decay) if self.weight_decay else None
        self._blocks = _blocks(self.params, shrink, m or {}, v or {})
        largest = max((b.size for b in self._blocks), default=0)
        self._scratch = np.empty(min(largest, _BLOCK), dtype=np.float32)
        self._grads = np.empty(min(largest, _BLOCK), dtype=np.float32)

    @property
    def m(self) -> dict:
        """Each parameter's first moment by name, as views no step writes into."""
        return self._by_name("m")

    @property
    def v(self) -> dict:
        """Each parameter's second moment by name, as views no step writes into."""
        return self._by_name("v")

    def _by_name(self, table: str) -> dict:
        return {name: view for block in self._blocks
                for (name, _, _, _), view in zip(block.members,
                                                  block.views(getattr(block, table)))}

    def step(self):
        """One update in float32 array arithmetic; the bias corrections and
        the learning rate are folded into two scalars. Each parameter is
        rebound to a view of a fresh array, and each block's moments to
        fresh arrays; none is written into, so a tape that recorded a
        parameter still pulls through the values it read, and a Checkpoint
        built from the model or ``m``/``v`` keeps its values.

        Each parameter's gradient is released (``p.grad = None``) once its
        block has read it, so gradient memory is freed block by block and a
        model that is not stepped again holds none.

        Raises UsageError, changing nothing, when a parameter has no
        gradient, as on a second step with no ``backward`` between."""
        for name, p in self.params:
            if p.grad is None:
                raise UsageError(f"parameter {name} has no gradient; "
                                 "run backward before stepping")
        self.step_count += 1
        t = self.step_count
        # mhat / (sqrt(vhat) + eps) == m * sqrt(1-b2^t)/(1-b1^t) / (sqrt(v) + eps_hat)
        root2 = math.sqrt(1.0 - _BETA2 ** t)
        step_size = self.lr * root2 / (1.0 - _BETA1 ** t)
        eps_hat = _EPS * root2
        for block in self._blocks:
            members = block.members
            if len(members) == 1:
                g = members[0][1].grad.reshape(-1)
            else:
                g = np.concatenate([p.grad for _, p, _, _ in members], axis=None,
                                   out=self._grads[:block.size])
            for _, p, _, _ in members:
                p.grad = None
            p_old, m_old, v_old = block.params(), block.m, block.v
            p_new, m_new, v_new = (np.empty(block.size, dtype=np.float32)
                                   for _ in range(3))
            # only a pack, which is one slice, has a factor array
            for lo in range(0, block.size, _BLOCK):
                s = slice(lo, lo + _BLOCK)
                self._update(g[s], p_old[s], m_old[s], v_old[s], block.factor,
                             p_new[s], m_new[s], v_new[s], step_size, eps_hat)
            held = block.views(p_new)
            for (_, p, _, _), view in zip(members, held):
                p.data = view
            block.p, block.held, block.m, block.v = p_new, held, m_new, v_new

    def _update(self, g, p, m, v, factor, p_new, m_new, v_new, step_size, eps_hat):
        """The update of one block slice into fresh ``p_new``, ``m_new`` and
        ``v_new``; one scratch buffer serves every temporary."""
        update = self._scratch[:g.size]
        np.multiply(g, 1.0 - _BETA1, out=update)
        np.multiply(m, _BETA1, out=m_new)
        m_new += update
        np.multiply(g, g, out=update)
        update *= 1.0 - _BETA2
        np.multiply(v, _BETA2, out=v_new)
        v_new += update
        np.sqrt(v_new, out=update)
        update += eps_hat
        np.divide(m_new, update, out=update)
        update *= step_size
        if factor is None:
            np.subtract(p, update, out=p_new)
        else:
            np.multiply(p, factor, out=p_new)
            p_new -= update


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
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
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

    # An overflow to inf or NaN outside the checked forward (a huge gamma's
    # penalty scale, a huge learning rate's update) warns nothing: the loss
    # check or the next checked forward raises NumericError for it.
    with np.errstate(over="ignore", invalid="ignore"):
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
    # The epoch loop checks each loss and each step's gradients, but not the
    # last update, so a non-finite weight is caught here before it is saved.
    named = scored.named_parameters()
    scan_finite([p.data for _, p in named],
                lambda i: f"{stage} parameter {named[i][0]} after the last step")
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
