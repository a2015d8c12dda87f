"""Learnable dimension scores and the regularized search objective.

Each prunable site (one per attention block, one per MLP block) owns a score
vector alpha, applied as a diagonal matrix inside the forward pass. Training
minimizes cross-entropy plus gamma times the l1 norm of all scores, which
drives unneeded dimensions toward zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Backbone, sites
from .errors import ConfigError, UsageError
from .tensor import Tensor


@dataclass
class ScoreVector:
    """Scores for one site: its site id plus the alpha tensor."""

    site_id: str
    alpha: Tensor

    @property
    def length(self) -> int:
        return self.alpha.size


class ScoredModel:
    """A backbone plus one ScoreVector per prunable site."""

    def __init__(self, model: Backbone, scores: list):
        self.model = model
        self.scores = scores
        ids = [s.site_id for s in scores]
        if len(set(ids)) != len(ids):
            raise UsageError(f"duplicate site ids in score table: {ids}")
        self._by_id = {s.site_id: s for s in scores}

    def score(self, site_id: str) -> ScoreVector:
        return self._by_id[site_id]

    def score_map(self) -> dict:
        """site_id -> alpha Tensor, the form ``forward_batch`` consumes."""
        return {s.site_id: s.alpha for s in self.scores}

    def named_parameters(self) -> list:
        """Backbone weights followed by score vectors, stable order."""
        out = list(self.model.named_parameters())
        out.extend((f"score.{s.site_id}", s.alpha) for s in self.scores)
        return out

    def zero_grads(self):
        for _, p in self.named_parameters():
            p.grad = None


def attach_scores(model: Backbone) -> ScoredModel:
    """Give every attention and MLP site a score vector initialized to 1."""
    if model.scores_attached:
        raise UsageError("scores are already attached to this model")
    scores = []
    for site in sites(model.config):
        alpha = Tensor(np.ones(model.site_dims[site.id], dtype=np.float32), requires_grad=True)
        scores.append(ScoreVector(site.id, alpha))
    model.scores_attached = True
    return ScoredModel(model, scores)


def total_loss(logits: Tensor, labels, scores, gamma: float) -> Tensor:
    """Cross-entropy plus gamma times the summed l1 norm of all scores."""
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    loss = T.cross_entropy_with_logits(logits, labels)
    if gamma == 0 or not scores:
        return loss
    reg = T.l1_norm(*(sv.alpha for sv in scores))
    return T.add(loss, T.scale(reg, float(gamma)))


def score_l1(scores) -> float:
    return float(sum(np.abs(sv.alpha.data.astype(np.float64)).sum() for sv in scores))


def score_summary(scores, threshold: float = 0.1) -> list:
    """Per-site |alpha| statistics; pure read, deterministic."""
    rows = []
    for sv in scores:
        mag = np.sort(np.abs(sv.alpha.data.astype(np.float64)))
        rows.append({
            "site_id": sv.site_id,
            "length": int(mag.size),
            "min": float(mag[0]),
            "median": float(np.median(mag)),
            "max": float(mag[-1]),
            "l1": float(mag.sum()),
            "below_threshold": int((mag < threshold).sum()),
            "threshold": float(threshold),
        })
    return rows
