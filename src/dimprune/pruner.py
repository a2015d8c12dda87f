"""Rank scores, pick surviving dimensions, and cut the weight matrices.

Surgery folds each surviving score into its weight column, so the pruned
model reproduces the scored model with dropped scores set to zero (masked
equivalence) without carrying scores into fine-tuning. The attention logit
scale keeps using the original per-head width, which is what makes the
equivalence exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import AttentionParams, Backbone, MlpParams, sites
from .errors import ConfigError, DimensionError
from .scoring import ScoredModel
from .tensor import Tensor


@dataclass(frozen=True)
class KeepSet:
    """Surviving dimension indices for one site, sorted ascending."""

    site_id: str
    indices: tuple
    original: int
    rho: float

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(set(idx)) != len(idx):
            raise DimensionError(f"duplicate keep indices for {self.site_id}: {idx}")
        if idx and (min(idx) < 0 or max(idx) >= self.original):
            raise DimensionError(
                f"keep indices for {self.site_id} out of range [0, {self.original})")
        if list(idx) != sorted(idx):
            raise DimensionError(f"keep indices for {self.site_id} must be sorted")

    def __len__(self):
        return len(self.indices)


@dataclass
class PruneReport:
    rho: float
    keeps: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)
    pre_params: int = 0
    post_params: int = 0

    def keep_for(self, site_id: str) -> KeepSet:
        for ks in self.keeps:
            if ks.site_id == site_id:
                return ks
        raise KeyError(site_id)


def keep_count(k: int, rho: float) -> int:
    """Dimensions surviving at keep ratio rho: round half up, at least one."""
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"rho must lie in (0, 1], got {rho}")
    if k < 1:
        raise ConfigError(f"site dimension must be >= 1, got {k}")
    return max(1, int(math.floor(rho * k + 0.5)))


def rank_order(alpha: np.ndarray) -> np.ndarray:
    """Indices sorted by decreasing |alpha|, ties going to the lower index."""
    mag = np.abs(np.asarray(alpha, dtype=np.float64))
    return np.argsort(-mag, kind="stable")


def select_keep(score, rho: float) -> KeepSet:
    """Keep the keep_count highest-|alpha| indices of one score vector."""
    k = score.alpha.size
    count = keep_count(k, rho)
    order = rank_order(score.alpha.data)
    kept = np.sort(order[:count])
    return KeepSet(site_id=score.site_id, indices=tuple(int(i) for i in kept),
                   original=k, rho=rho)


def _fold(weight: np.ndarray, idx, alpha: np.ndarray) -> np.ndarray:
    cols = weight[:, idx].astype(np.float64) * np.asarray(alpha, dtype=np.float64)[idx]
    return cols.astype(np.float32)


def prune_attention(p: AttentionParams, keep: KeepSet, alpha) -> AttentionParams:
    """Cut per-head Q/K/V columns and the matching W_O rows, folding scores."""
    idx = np.array(keep.indices, dtype=np.int64)
    if keep.original != p.head_dim:
        raise DimensionError(
            f"keep set built for width {keep.original}, site has {p.head_dim}")
    a = alpha.data if isinstance(alpha, Tensor) else np.asarray(alpha)
    rows = np.concatenate([j * p.head_dim + idx for j in range(p.heads)])
    return AttentionParams(
        wq=[Tensor(_fold(wm.data, idx, a), requires_grad=True) for wm in p.wq],
        wk=[Tensor(_fold(wm.data, idx, a), requires_grad=True) for wm in p.wk],
        wv=[Tensor(_fold(wm.data, idx, a), requires_grad=True) for wm in p.wv],
        wo=Tensor(np.ascontiguousarray(p.wo.data[rows]), requires_grad=True),
        head_dim=len(keep),
        scale_dim=p.scale_dim,
        rpb=None if p.rpb is None else
            [Tensor(t.data.copy(), requires_grad=True) for t in p.rpb],
        rpb_index=p.rpb_index,
    )


def prune_mlp(p: MlpParams, keep: KeepSet, alpha) -> MlpParams:
    """Cut hidden columns of W_1 (folding scores) and matching W_2 rows."""
    idx = np.array(keep.indices, dtype=np.int64)
    if keep.original != p.hidden:
        raise DimensionError(
            f"keep set built for width {keep.original}, site has {p.hidden}")
    a = alpha.data if isinstance(alpha, Tensor) else np.asarray(alpha)
    return MlpParams(
        w1=Tensor(_fold(p.w1.data, idx, a), requires_grad=True),
        w2=Tensor(np.ascontiguousarray(p.w2.data[idx]), requires_grad=True),
    )


def prune_model(scored: ScoredModel, rho: float):
    """Apply select_keep and surgery at every site; returns (model, report)."""
    src = scored.model
    report = PruneReport(rho=rho, pre_params=src.parameter_count())

    keeps = {}
    for sv in scored.scores:
        ks = select_keep(sv, rho)
        keeps[sv.site_id] = ks
        report.keeps.append(ks)
        mags = np.abs(sv.alpha.data.astype(np.float64))
        report.thresholds[sv.site_id] = float(mags[list(ks.indices)].min())

    site_dims = {site: len(ks) for site, ks in keeps.items()}
    out = Backbone(src.config, site_dims=site_dims, rng=None)
    # Weights outside the sites (embed, norms, merges, head) carry over as is.
    targets = dict(out.named_parameters())
    for name, t in src.named_parameters():
        if name.rpartition(".")[0] not in keeps:
            targets[name].data[:] = t.data
    for site in sites(src.config):
        blk_src = src.stages[site.stage].blocks[site.block]
        blk_out = out.stages[site.stage].blocks[site.block]
        alpha = scored.score(site.id).alpha
        if site.kind == "attn":
            blk_out.attn = prune_attention(blk_src.attn, keeps[site.id], alpha)
        else:
            blk_out.mlp = prune_mlp(blk_src.mlp, keeps[site.id], alpha)

    report.post_params = out.parameter_count()
    return out, report


def masked_scores(scored: ScoredModel, report: PruneReport) -> dict:
    """Score map with dropped entries zeroed; the equivalence-oracle input."""
    masked = {}
    for sv in scored.scores:
        ks = report.keep_for(sv.site_id)
        vals = np.zeros(sv.alpha.size, dtype=np.float32)
        idx = list(ks.indices)
        vals[idx] = sv.alpha.data[idx]
        masked[sv.site_id] = Tensor(vals)
    return masked
