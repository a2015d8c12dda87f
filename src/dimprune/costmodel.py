"""Closed-form and measured parameter/FLOP accounting.

Closed forms use integer keep counts (round half up, floor one), so they
agree exactly with enumerating tensors of a surgically pruned model. FLOPs
count matmul multiply-accumulates only; softmax, norms and elementwise work
are excluded by convention. Counting conventions are decoupled from runtime
execution: a Convention can include reference extras (biases, position
tables) that the runtime blocks never materialize.

The measured cross-check runs the model's real forward once inside
``count_macs`` and reads each site's MACs from the site scopes that
``block_forward`` enters, so it shares no code path with the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import (SITE_WEIGHTS, Backbone, BackboneConfig, check_site_dims, forward_batch,
                     sites, stage_geometry)
# Not used here: benchmarks/spans.py patches these names on this module.
from .blocks import mlp_forward, patch_embed, patch_merge, wmsa_forward  # noqa: F401
from .errors import ConfigError
from .pruner import keep_count
from .tensor import count_macs


@dataclass(frozen=True)
class Convention:
    """Counting flags: what the totals include and how MACs convert to FLOPs."""

    mac_factor: int = 1
    include_bias: bool = False
    include_rpb: bool = False

    def __post_init__(self):
        if self.mac_factor not in (1, 2):
            raise ConfigError(f"mac_factor must be 1 or 2, got {self.mac_factor}")


# Published Swin-T accounting: biases and relative-position tables included.
REFERENCE_CONVENTION = Convention(include_bias=True, include_rpb=True)


def runtime_convention(config: BackboneConfig) -> Convention:
    """Convention matching the actual tensors a model of this config holds,
    one FLOP per MAC."""
    return Convention(include_rpb=config.use_relative_position_bias)


@dataclass(frozen=True)
class SiteCost:
    site_id: str
    params: int
    flops: int


@dataclass
class CostReport:
    rho: float
    sites: list = field(default_factory=list)
    overhead_params: int = 0
    overhead_flops: int = 0
    head_params: int = 0

    @property
    def total_params(self) -> int:
        return sum(s.params for s in self.sites) + self.overhead_params

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.sites) + self.overhead_flops

    @property
    def backbone_params(self) -> int:
        return self.total_params - self.head_params


def _site_cost(kind, n, d, h, k, conv: Convention, attended=0, table=0):
    """(params, flops) of one site of ``kind`` at width k in a stage of width
    d with h heads, over n tokens. Its weights are its ``SITE_WEIGHTS``, each
    one MAC per entry and token, with a bias on each output column under
    ``conv.include_bias``. Attention adds its core, each of the n queries
    attending to ``attended`` tokens per head, and ``table`` relative-position
    entries per head under ``conv.include_rpb``."""
    weights = [(h if w.per_head else 1, w.shape(d, h, k)) for w in SITE_WEIGHTS[kind]]
    params = sum(count * math.prod(shape) for count, shape in weights)
    macs = n * params
    if conv.include_bias:
        params += sum(count * shape[-1] for count, shape in weights)
    if kind == "attn":
        macs += 2 * n * attended * h * k
        params += table * h if conv.include_rpb else 0
    return params, conv.mac_factor * macs


def msa_cost(n, d, h, rho, conv: Convention = Convention()) -> dict:
    """Global attention over n tokens: params 4*rho*d^2, flops 4*rho*n*d^2 + 2*rho*n^2*d."""
    if d % h:
        raise ConfigError(f"dim {d} not divisible by {h} heads")
    params, flops = _site_cost("attn", n, d, h, keep_count(d // h, rho), conv, attended=n)
    return {"params": params, "flops": flops}


def wmsa_cost(n, d, h, window, rho, conv: Convention = Convention()) -> dict:
    """Windowed attention: the n^2 term shrinks to n*M^2."""
    if d % h:
        raise ConfigError(f"dim {d} not divisible by {h} heads")
    if n % (window * window):
        raise ConfigError(f"{n} tokens do not tile into {window}x{window} windows")
    params, flops = _site_cost("attn", n, d, h, keep_count(d // h, rho), conv,
                               attended=window * window, table=(2 * window - 1) ** 2)
    return {"params": params, "flops": flops}


def mlp_cost(n, d, d_m, rho, conv: Convention = Convention()) -> dict:
    params, flops = _site_cost("mlp", n, d, 1, keep_count(d_m, rho), conv)
    return {"params": params, "flops": flops}


def model_cost(config: BackboneConfig, rho: float = 1.0,
               conv: Convention | None = None,
               site_dims: dict | None = None) -> CostReport:
    """Closed-form report over all sites plus non-prunable overhead, counted
    by ``conv``; by default the config's ``runtime_convention``, the
    tensors its model holds.

    site_dims (same keys as Backbone.site_dims) overrides the uniform keep
    ratio per site, so reports can be produced for surgically pruned models.
    It may name only some sites; a key that names no site raises ConfigError.
    """
    site_dims = check_site_dims(config, site_dims or {})
    if conv is None:
        conv = runtime_convention(config)
    report = CostReport(rho=rho)
    geoms = stage_geometry(config)
    window = config.window

    for site in sites(config):
        g = geoms[site.stage]
        k = site_dims[site.id] if site.id in site_dims else keep_count(site.full, rho)
        p, f = _site_cost(site.kind, g.tokens, g.dim, g.heads, k, conv,
                          attended=window * window, table=(2 * window - 1) ** 2)
        report.sites.append(SiteCost(site.id, p, f))

    patch_width = config.in_channels * config.patch_size ** 2
    overhead_p = patch_width * config.base_dim
    overhead_f = conv.mac_factor * geoms[0].tokens * patch_width * config.base_dim
    if conv.include_bias:
        overhead_p += 3 * config.base_dim   # embed bias plus embed norm
    for g in geoms:
        overhead_p += config.depths[g.index] * 4 * g.dim   # two norms per block
        if g.index < len(geoms) - 1:
            overhead_p += 8 * g.dim * g.dim
            if conv.include_bias:
                overhead_p += 8 * g.dim
            overhead_f += conv.mac_factor * 2 * g.tokens * g.dim * g.dim

    last = geoms[-1].dim
    report.head_params = last * config.num_classes + (
        config.num_classes if conv.include_bias else 0)
    report.overhead_params = overhead_p + 2 * last + report.head_params
    report.overhead_flops = overhead_f + conv.mac_factor * last * config.num_classes
    return report


def measured_cost(model: Backbone) -> CostReport:
    """Count parameters by enumerating tensors and FLOPs by one counted
    forward pass, one FLOP per MAC, split per site by the forward's site
    scopes."""
    cfg = model.config
    report = CostReport(rho=float("nan"))
    # A site's weights are named "<site id>.<weight>"; everything else is overhead.
    site_params = {site.id: 0 for site in sites(cfg)}
    for name, t in model.named_parameters():
        key = name.rpartition(".")[0]
        if key in site_params:
            site_params[key] += t.size
        else:
            report.overhead_params += t.size
    report.head_params = model.head.size

    img = np.zeros((cfg.in_channels, cfg.image_size, cfg.image_size), dtype=np.float32)
    with count_macs() as counter:
        forward_batch(model, img[None])
    for key, params in site_params.items():
        report.sites.append(SiteCost(key, params, counter.scopes[key]))
    report.overhead_flops = counter.macs - sum(counter.scopes.values())
    return report


def swin_t_config(num_classes: int = 100, image_size: int = 224) -> BackboneConfig:
    """The published Swin-T shape: d=96, depths 2/2/6/2, heads 3/6/12/24, M=7."""
    return BackboneConfig(
        image_size=image_size, patch_size=4, in_channels=3, base_dim=96,
        depths=(2, 2, 6, 2), heads=(3, 6, 12, 24), window=7, mlp_ratio=4.0,
        num_classes=num_classes)


def calibrate_mac_factor(config: BackboneConfig | None = None,
                         target_flops: float = 4.49e9,
                         rel_tol: float = 0.05) -> int:
    """Pick the MAC-to-FLOP factor whose full-model count hits the target."""
    config = config or swin_t_config()
    for mac in (1, 2):
        conv = replace(REFERENCE_CONVENTION, mac_factor=mac)
        flops = model_cost(config, 1.0, conv).total_flops
        if abs(flops - target_flops) <= rel_tol * target_flops:
            return mac
    raise ConfigError(
        f"neither mac factor lands within {rel_tol:.0%} of {target_flops:.3g} flops")
