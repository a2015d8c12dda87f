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
from .errors import ConfigError, DimensionError, NumericError
from .scoring import ScoredModel
from .tensor import Tensor


@dataclass(frozen=True)
class KeepSet:
    """Surviving dimension indices for one site, sorted ascending."""

    site_id: str
    indices: tuple
    original: int

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64)
        idx = tuple(arr.tolist())
        object.__setattr__(self, "indices", idx)
        ascending = bool(np.all(arr[1:] > arr[:-1]))
        if not ascending and np.unique(arr).size != arr.size:
            raise DimensionError(f"duplicate keep indices for {self.site_id}: {idx}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.original):
            raise DimensionError(
                f"keep indices for {self.site_id} out of range [0, {self.original})")
        if not ascending:
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
    return KeepSet(site_id=score.site_id, indices=np.sort(order[:count]), original=k)


def _fold(weight: np.ndarray, idx, scale: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of a float32 weight, each times its score, as one new
    C-contiguous array that the pruned model takes as it is. ``np.take``
    gathers in C order (``weight[:, idx]`` comes back in Fortran order, so
    the fold would stride and ``Tensor`` would copy it again), and the score
    is folded into it in place. The product of two float32 values is exact
    in float64, so one float32 multiply gives the bits of the product taken
    in float64 and rounded to float32."""
    cols = np.take(weight, idx, axis=1)
    cols *= scale
    return cols


def prune_attention(p: AttentionParams, keep: KeepSet, alpha: np.ndarray) -> dict:
    """Cut per-head Q/K/V columns and the matching W_O rows, folding scores;
    the cut arrays keyed by their name within the site ("wq0", ..., "wo")."""
    idx = np.array(keep.indices, dtype=np.int64)
    if keep.original != p.head_dim:
        raise DimensionError(
            f"keep set built for width {keep.original}, site has {p.head_dim}")
    scale = alpha[idx]
    rows = np.concatenate([j * p.head_dim + idx for j in range(p.heads)])
    cut = {f"{kind}{j}": _fold(t.data, idx, scale)
           for kind, heads in (("wq", p.wq), ("wk", p.wk), ("wv", p.wv))
           for j, t in enumerate(heads)}
    cut["wo"] = p.wo.data[rows]
    return cut


def prune_mlp(p: MlpParams, keep: KeepSet, alpha: np.ndarray) -> dict:
    """Cut hidden columns of W_1 (folding scores) and matching W_2 rows; the
    cut arrays keyed "w1" and "w2"."""
    idx = np.array(keep.indices, dtype=np.int64)
    if keep.original != p.hidden:
        raise DimensionError(
            f"keep set built for width {keep.original}, site has {p.hidden}")
    return {"w1": _fold(p.w1.data, idx, alpha[idx]),
            "w2": p.w2.data[idx]}


def prune_model(scored: ScoredModel, rho: float):
    """Rank each site's scores, keep the select_keep indices and cut the
    site's weights, in one walk over the sites; returns (model, report).

    A site whose kept scores are not all finite, or whose folded weights
    overflow float32, raises NumericError naming it: numpy flags no
    overflow for an inf or NaN operand, so the kept scores are checked
    before they fold, and the fold runs with overflow raising."""
    src = scored.model
    # Surgery on the source's name table: the weights outside the sites
    # (embed, norms, position tables, merges, head) carry over as they are,
    # and every site's cut weights are written over theirs by name.
    params = {name: t.data for name, t in src.named_parameters()}
    report = PruneReport(rho=rho, pre_params=sum(a.size for a in params.values()))
    for site in sites(src.config):
        sv = scored.score(site.id)
        ks = select_keep(sv, rho)
        alpha = sv.alpha.data
        kept = alpha[list(ks.indices)]
        if not np.isfinite(kept).all():
            raise NumericError(f"{site.id}: kept scores are not all finite")
        blk = src.stages[site.stage].blocks[site.block]
        try:
            with np.errstate(over="raise"):
                cut = (prune_attention(blk.attn, ks, alpha) if site.kind == "attn"
                       else prune_mlp(blk.mlp, ks, alpha))
        except FloatingPointError as exc:
            raise NumericError(f"{site.id}: folding the scores into the weights "
                               f"overflows float32") from exc
        report.keeps.append(ks)
        report.thresholds[site.id] = float(np.abs(kept).min())
        params.update((f"{site.id}.{name}", arr) for name, arr in cut.items())
    out = Backbone(src.config, site_dims={ks.site_id: len(ks) for ks in report.keeps},
                   params=params)
    report.post_params = sum(a.size for a in params.values())
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
