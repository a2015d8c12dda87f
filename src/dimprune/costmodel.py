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

from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import Backbone, BackboneConfig, check_site_dims, sites, stage_geometry
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


RUNTIME_CONVENTION = Convention()
# Published Swin-T accounting: biases and relative-position tables included.
REFERENCE_CONVENTION = Convention(include_bias=True, include_rpb=True)


def runtime_convention(config: BackboneConfig, mac_factor: int = 1) -> Convention:
    """Convention matching the actual tensors a model of this config holds."""
    return Convention(mac_factor=mac_factor,
                      include_rpb=config.use_relative_position_bias)


@dataclass(frozen=True)
class SiteCost:
    site_id: str
    params: int
    flops: int


@dataclass
class CostReport:
    config: BackboneConfig
    rho: float
    convention: Convention
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


def _attn_cost(n, d, h, kq, attended, table, conv: Convention):
    """h heads of width kq over n tokens, each query attending to `attended`
    tokens; `table` relative-position entries per head (0 for none)."""
    hk = h * kq
    params = 4 * d * hk
    if conv.include_bias:
        params += 3 * hk + d          # qkv bias on kept columns, proj bias
    if conv.include_rpb:
        params += table * h
    flops = conv.mac_factor * (4 * n * d * hk + 2 * n * attended * hk)
    return params, flops


def _mlp_cost(n, d, km, conv: Convention):
    params = 2 * d * km + ((km + d) if conv.include_bias else 0)
    return params, conv.mac_factor * 2 * n * d * km


def msa_cost(n, d, h, rho, conv: Convention = RUNTIME_CONVENTION) -> dict:
    """Global attention over n tokens: params 4*rho*d^2, flops 4*rho*n*d^2 + 2*rho*n^2*d."""
    if d % h:
        raise ConfigError(f"dim {d} not divisible by {h} heads")
    params, flops = _attn_cost(n, d, h, keep_count(d // h, rho), n, 0, conv)
    return {"params": params, "flops": flops}


def wmsa_cost(n, d, h, window, rho, conv: Convention = RUNTIME_CONVENTION) -> dict:
    """Windowed attention: the n^2 term shrinks to n*M^2."""
    if d % h:
        raise ConfigError(f"dim {d} not divisible by {h} heads")
    if n % (window * window):
        raise ConfigError(f"{n} tokens do not tile into {window}x{window} windows")
    params, flops = _attn_cost(n, d, h, keep_count(d // h, rho), window * window,
                               (2 * window - 1) ** 2, conv)
    return {"params": params, "flops": flops}


def mlp_cost(n, d, d_m, rho, conv: Convention = RUNTIME_CONVENTION) -> dict:
    params, flops = _mlp_cost(n, d, keep_count(d_m, rho), conv)
    return {"params": params, "flops": flops}


def model_cost(config: BackboneConfig, rho: float = 1.0,
               conv: Convention = RUNTIME_CONVENTION,
               site_dims: dict | None = None) -> CostReport:
    """Closed-form report over all sites plus non-prunable overhead.

    site_dims (same keys as Backbone.site_dims) overrides the uniform keep
    ratio per site, so reports can be produced for surgically pruned models.
    It may name only some sites; a key that names no site raises ConfigError.
    """
    site_dims = check_site_dims(config, site_dims or {})
    report = CostReport(config=config, rho=rho, convention=conv)
    geoms = stage_geometry(config)
    window = config.window

    for site in sites(config):
        g = geoms[site.stage]
        k = site_dims[site.id] if site.id in site_dims else keep_count(site.full, rho)
        if site.kind == "attn":
            p, f = _attn_cost(g.tokens, g.dim, g.heads, k, window * window,
                              (2 * window - 1) ** 2, conv)
        else:
            p, f = _mlp_cost(g.tokens, g.dim, k, conv)
        report.sites.append(SiteCost(site.id, p, f))

    patch_width = config.in_channels * config.patch_size ** 2
    overhead_p = patch_width * config.base_dim
    overhead_f = conv.mac_factor * geoms[0].tokens * patch_width * config.base_dim
    if conv.include_bias:
        overhead_p += 3 * config.base_dim   # embed bias plus embed norm
    for g in geoms:
        overhead_p += config.depths[g.index] * 4 * g.dim   # two norms per block
        if g.index < config.num_stages - 1:
            overhead_p += 8 * g.dim * g.dim
            if conv.include_bias:
                overhead_p += 8 * g.dim
            overhead_f += conv.mac_factor * 2 * g.tokens * g.dim * g.dim

    last = config.stage_dim(config.num_stages - 1)
    report.head_params = last * config.num_classes + (
        config.num_classes if conv.include_bias else 0)
    report.overhead_params = overhead_p + 2 * last + report.head_params
    report.overhead_flops = overhead_f + conv.mac_factor * last * config.num_classes
    return report


def measured_cost(model: Backbone, mac_factor: int = 1) -> CostReport:
    """Count parameters by enumerating tensors and FLOPs by one counted
    forward pass, split per site by the forward's site scopes."""
    cfg = model.config
    report = CostReport(config=cfg, rho=float("nan"),
                        convention=runtime_convention(cfg, mac_factor))
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
        model.forward(img)
    for key, params in site_params.items():
        report.sites.append(SiteCost(key, params, mac_factor * counter.scopes[key]))
    report.overhead_flops = mac_factor * (counter.macs - sum(counter.scopes.values()))
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
