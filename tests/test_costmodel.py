import numpy as np
import pytest

from dimprune.blocks import (Backbone, BackboneConfig, MlpParams, WindowSpec, build_backbone,
                             forward_batch, mlp_forward, stage_geometry, wmsa_forward)
from dimprune.costmodel import (
    Convention,
    REFERENCE_CONVENTION,
    calibrate_mac_factor,
    measured_cost,
    mlp_cost,
    model_cost,
    msa_cost,
    runtime_convention,
    swin_t_config,
    wmsa_cost,
)
from dimprune.errors import ConfigError
from dimprune.pruner import keep_count, prune_model
from dimprune.scoring import attach_scores
from dimprune.tensor import Tensor, count_macs

from test_blocks import make_attn


def uniform_dims(cfg, rho):
    dims = {}
    for g in stage_geometry(cfg):
        for b in range(cfg.depths[g.index]):
            dims[f"stage{g.index}.block{b}.attn"] = keep_count(g.head_dim, rho)
            dims[f"stage{g.index}.block{b}.mlp"] = keep_count(g.hidden, rho)
    return dims


# Shared matrix for the closed-form vs measured equality criterion:
# (label, config, rho, explicit site_dims or None for uniform rho).
CONFIG_MATRIX = [
    ("default", BackboneConfig(), 1.0, None),
    ("window4", BackboneConfig(window=4), 1.0, None),
    ("deeper", BackboneConfig(depths=(2, 2), heads=(2, 4)), 1.0, None),
    ("threestage", BackboneConfig(depths=(1, 1, 1), heads=(2, 4, 8)), 1.0, None),
    ("ratio3", BackboneConfig(mlp_ratio=3.0), 1.0, None),
    ("rpb", BackboneConfig(use_relative_position_bias=True), 1.0, None),
    ("onestage", BackboneConfig(depths=(3,), heads=(4,), window=4), 1.0, None),
    ("heads3", BackboneConfig(base_dim=12, heads=(3, 6), num_classes=7), 1.0, None),
    ("patch8", BackboneConfig(patch_size=8), 1.0, None),
    ("half", BackboneConfig(), 0.5, None),
    ("oddragged", BackboneConfig(depths=(2, 2), heads=(2, 4)), 0.68, None),
    ("handpicked", BackboneConfig(), 1.0,
     {"stage0.block0.attn": 3, "stage0.block0.mlp": 5,
      "stage1.block0.attn": 7, "stage1.block0.mlp": 33}),
]


# ---------------------------------------------------------------- closed form


def test_msa_cost_unpruned_formula():
    out = msa_cost(n=10, d=8, h=2, rho=1.0)
    assert out["params"] == 4 * 8 * 8
    assert out["flops"] == 4 * 10 * 64 + 2 * 100 * 8


def test_msa_cost_worked_example():
    out = msa_cost(n=3, d=4, h=2, rho=0.5)
    assert out["params"] == 32
    assert out["flops"] == 132


def test_wmsa_cost_reduces_to_msa_when_window_covers_tokens():
    a = wmsa_cost(n=16, d=8, h=2, window=4, rho=0.75)
    b = msa_cost(n=16, d=8, h=2, rho=0.75)
    assert a == b


def test_wmsa_cost_worked_example():
    out = wmsa_cost(n=16, d=4, h=1, window=2, rho=1.0)
    assert out["flops"] == 4 * 16 * 16 + 2 * 16 * 4 * 4 == 1536


def test_wmsa_cheaper_than_msa_on_large_grids():
    for n, m in ((64, 2), (256, 4), (1024, 8)):
        w = wmsa_cost(n=n, d=16, h=4, window=m, rho=1.0)["flops"]
        g = msa_cost(n=n, d=16, h=4, rho=1.0)["flops"]
        assert w < g


# (grid side, window, shift, heads, dim, rho). Global MSA is W-MSA with one
# window over the grid (Swin, arXiv 2103.14030, eqs. 1-2), so the rows with
# window == grid also check msa_cost.
COUNTED_ATTENTION = [(8, 2, 0, 2, 8, 0.75), (8, 8, 0, 2, 8, 0.3), (8, 4, 2, 4, 16, 0.6),
                     (6, 3, 1, 3, 12, 0.5), (4, 4, 0, 3, 12, 1.0), (3, 3, 0, 2, 8, 0.5)]


@pytest.mark.parametrize("grid,window,shift,heads,d,rho", COUNTED_ATTENTION)
def test_counted_wmsa_forward_equals_the_paper_costs(grid, window, shift, heads, d, rho):
    n, k = grid * grid, keep_count(d // heads, rho)
    p = make_attn(np.random.default_rng(grid), d, heads, k, scale_dim=d // heads)
    x = Tensor(np.random.default_rng(window).normal(size=(n, d)))
    with count_macs() as counter:
        wmsa_forward(x, p, WindowSpec(grid, grid, window, shift))
    params = sum(t.size for t in p.wq + p.wk + p.wv + [p.wo])
    costs = [wmsa_cost(n, d, heads, window, rho)]
    if window == grid:
        costs.append(msa_cost(n, d, heads, rho))
    for cost in costs:
        assert (params, counter.macs) == (cost["params"], cost["flops"])


@pytest.mark.parametrize("n,d,d_m,rho", [(16, 8, 16, 1.0), (9, 12, 30, 0.55), (4, 4, 8, 0.2)])
def test_counted_mlp_forward_equals_the_paper_cost(n, d, d_m, rho):
    r = np.random.default_rng(n)
    km = keep_count(d_m, rho)
    p = MlpParams(w1=Tensor(r.normal(size=(d, km))), w2=Tensor(r.normal(size=(km, d))))
    with count_macs() as counter:
        mlp_forward(Tensor(r.normal(size=(n, d))), p)
    cost = mlp_cost(n, d, d_m, rho)
    assert (p.w1.size + p.w2.size, counter.macs) == (cost["params"], cost["flops"])


def test_mlp_cost_examples():
    assert mlp_cost(n=1, d=2, d_m=4, rho=1.0)["params"] == 16
    full = mlp_cost(n=6, d=4, d_m=8, rho=1.0)
    half = mlp_cost(n=6, d=4, d_m=8, rho=0.5)
    assert half["params"] * 2 == full["params"]
    assert half["flops"] * 2 == full["flops"]


def test_cost_validation():
    with pytest.raises(ConfigError):
        msa_cost(n=4, d=7, h=2, rho=1.0)
    with pytest.raises(ConfigError):
        wmsa_cost(n=15, d=4, h=2, window=2, rho=1.0)
    with pytest.raises(ConfigError):
        mlp_cost(n=4, d=4, d_m=8, rho=0.0)
    with pytest.raises(ConfigError):
        Convention(mac_factor=3)


def test_mac_factor_two_doubles_flops():
    conv2 = Convention(mac_factor=2)
    assert wmsa_cost(16, 8, 2, 2, 1.0, conv2)["flops"] \
        == 2 * wmsa_cost(16, 8, 2, 2, 1.0)["flops"]
    assert model_cost(BackboneConfig(), 1.0, conv2).total_flops \
        == 2 * model_cost(BackboneConfig(), 1.0).total_flops


def test_overhead_is_never_scaled_by_rho():
    cfg = BackboneConfig(depths=(2, 2), heads=(2, 4))
    reports = [model_cost(cfg, rho, REFERENCE_CONVENTION)
               for rho in (0.2, 0.5, 1.0)]
    assert len({r.overhead_params for r in reports}) == 1
    assert len({r.overhead_flops for r in reports}) == 1


def test_prunable_terms_linear_in_rho():
    cfg = BackboneConfig()  # every site width divisible by 4
    full = model_cost(cfg, 1.0)
    for rho in (0.25, 0.5, 0.75):
        r = model_cost(cfg, rho)
        assert r.total_params - r.overhead_params == pytest.approx(
            rho * (full.total_params - full.overhead_params))
        assert r.total_flops - r.overhead_flops == pytest.approx(
            rho * (full.total_flops - full.overhead_flops))


def test_report_totals_are_site_sums_plus_overhead():
    rep = model_cost(BackboneConfig(depths=(2, 1), heads=(2, 4)), 0.5)
    assert rep.total_params == sum(s.params for s in rep.sites) + rep.overhead_params
    assert rep.total_flops == sum(s.flops for s in rep.sites) + rep.overhead_flops
    assert len(rep.sites) == 6


# ------------------------------------------------------------ swin-t anchors


def test_swin_t_reference_totals():
    rep = model_cost(swin_t_config(), 1.0, REFERENCE_CONVENTION)
    assert rep.total_params == 27_596_254
    assert rep.total_flops == 4_489_875_456
    assert rep.backbone_params == 27_596_254 - 76_900
    assert abs(rep.total_params - 27.60e6) / 27.60e6 < 0.01
    assert abs(rep.total_flops - 4.49e9) / 4.49e9 < 0.05


def test_swin_t_runtime_totals():
    rep = model_cost(swin_t_config(), 1.0, Convention())
    assert rep.total_params == 27_527_424
    assert rep.total_flops == 4_489_875_456


def test_calibrated_mac_factor_is_one():
    assert calibrate_mac_factor() == 1
    with pytest.raises(ConfigError):
        calibrate_mac_factor(target_flops=1e15)


# ------------------------------------------------------- measured vs analytic


@pytest.mark.parametrize("label,cfg,rho,dims", CONFIG_MATRIX,
                         ids=[row[0] for row in CONFIG_MATRIX])
def test_closed_form_equals_measured(label, cfg, rho, dims):
    model = Backbone(cfg, site_dims=dict(dims) if dims else uniform_dims(cfg, rho),
                     rng=np.random.default_rng(0))
    analytic = model_cost(cfg, rho, runtime_convention(cfg), site_dims=dims)
    measured = measured_cost(model)
    assert analytic.total_params == measured.total_params
    assert analytic.total_flops == measured.total_flops
    assert analytic.total_params == sum(p.size for _, p in model.named_parameters())
    got = {s.site_id: (s.params, s.flops) for s in measured.sites}
    want = {s.site_id: (s.params, s.flops) for s in analytic.sites}
    assert got == want
    assert analytic.overhead_params == measured.overhead_params
    assert analytic.overhead_flops == measured.overhead_flops


def test_model_cost_defaults_to_the_config_runtime_convention():
    """With no convention passed, the closed form counts the tensors the
    model holds, position tables included."""
    cfg = BackboneConfig(depths=(2, 1), heads=(2, 4), use_relative_position_bias=True)
    analytic = model_cost(cfg)
    measured = measured_cost(Backbone(cfg, rng=np.random.default_rng(0)))
    assert analytic.total_params == measured.total_params == 15_624
    assert analytic.total_flops == measured.total_flops


def test_measured_cost_agrees_with_instrumented_full_forward():
    cfg = BackboneConfig(depths=(2, 1), heads=(2, 4))
    model = build_backbone(cfg, seed=1)
    rep = measured_cost(model)
    img = np.zeros((3, 32, 32), dtype=np.float32)
    with count_macs() as counter:
        forward_batch(model, img[None])
    assert rep.total_flops == counter.macs


def test_surgery_counts_match_closed_form():
    cfg = BackboneConfig(depths=(2, 1), heads=(2, 4))
    model = build_backbone(cfg, seed=2)
    scored = attach_scores(model)
    r = np.random.default_rng(3)
    for sv in scored.scores:
        sv.alpha.data[:] = r.normal(1.0, 0.4, size=sv.length).astype(np.float32)
    pruned, report = prune_model(scored, 0.6)
    analytic = model_cost(cfg, 0.6, runtime_convention(cfg))
    measured = measured_cost(pruned)
    assert analytic.total_params == report.post_params
    assert report.post_params == sum(p.size for _, p in pruned.named_parameters())
    assert analytic.total_params == measured.total_params
    assert analytic.total_flops == measured.total_flops


def test_pruning_halves_prunable_flops():
    cfg = BackboneConfig()
    full = model_cost(cfg, 1.0)
    half = model_cost(cfg, 0.5)
    prunable_full = full.total_flops - full.overhead_flops
    prunable_half = half.total_flops - half.overhead_flops
    assert prunable_half == prunable_full // 2


@pytest.mark.parametrize("build", [
    lambda cfg, dims: model_cost(cfg, site_dims=dims),
    lambda cfg, dims: Backbone(cfg, site_dims=dims),
], ids=["model_cost", "Backbone"])
def test_site_dims_key_naming_no_site_rejected(build):
    """A key naming no site raises, and so does a width that is not an
    integer, which a cast would truncate; numpy integers are widths."""
    cfg = BackboneConfig()
    build(cfg, {"stage0.block0.attn": 3})  # a partial map is fine
    build(cfg, {"stage0.block0.attn": np.int64(3), "stage1.block0.mlp": np.int32(5)})
    with pytest.raises(ConfigError, match="stage0.blok0.mlp"):
        build(cfg, {"stage0.block0.attn": 3, "stage0.blok0.mlp": 5})
    for width in (2.9, 2.0, np.float32(2.0), "2"):
        with pytest.raises(ConfigError, match="site stage0.block0.attn width .* is not "
                                              "an integer"):
            build(cfg, {"stage0.block0.attn": width})
