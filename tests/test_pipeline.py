import json

import numpy as np
import pytest

from dimprune.blocks import BackboneConfig, build_backbone
from dimprune.checkpoint import checkpoint_from_model, load_checkpoint, save_checkpoint
from dimprune.errors import ConfigError, NumericError, UsageError
from dimprune.data import synth_dataset
from dimprune.pipeline import (
    AdamW,
    TrainSettings,
    decay_exempt,
    evaluate,
    run_finetune,
    run_prune,
    run_search,
)
from dimprune.scoring import score_l1
from dimprune.tensor import Tensor


def tiny_config(**kw):
    base = dict(image_size=8, patch_size=2, in_channels=1, base_dim=8,
                depths=(1, 1), heads=(2, 4), window=2, mlp_ratio=2.0,
                num_classes=4)
    base.update(kw)
    return BackboneConfig(**base)


def tiny_data(seed=0, n_per_class=8):
    return synth_dataset(seed=seed, num_classes=4, n_per_class=n_per_class,
                         height=8, width=8, channels=1, noise_sigma=0.02)


def settings(**kw):
    base = dict(epochs=2, batch_size=8, lr=0.01, weight_decay=0.01,
                gamma=0.0, seed=0)
    base.update(kw)
    return TrainSettings(**base)


# ------------------------------------------------------------------ optimizer


def one_param(value=1.0, name="w"):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    return name, p


def test_adamw_matches_hand_computed_steps():
    name, p = one_param()
    opt = AdamW([(name, p)], lr=0.01, weight_decay=0.1)
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()
    assert abs(float(p.data[0]) - 0.9890000001) < 1e-6
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()
    assert abs(float(p.data[0]) - 0.9780110001999001) < 1e-6


def test_adamw_zero_grad_zero_decay_is_identity():
    name, p = one_param(0.73)
    opt = AdamW([(name, p)], lr=0.5, weight_decay=0.0)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert float(p.data[0]) == np.float32(0.73)


def test_adamw_decay_exemptions():
    assert decay_exempt("score.stage0.block0.attn")
    assert decay_exempt("stage0.block0.norm1.gain")
    assert decay_exempt("final_norm.bias")
    assert not decay_exempt("stage0.block0.attn.wq0")
    assert not decay_exempt("head")

    _, w = one_param(1.0)
    _, s = one_param(1.0)
    opt = AdamW([("w", w), ("score.site", s)], lr=0.1, weight_decay=0.5)
    w.grad = np.zeros(1, dtype=np.float32)
    s.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert float(s.data[0]) == 1.0          # exempt: untouched by decay
    assert abs(float(w.data[0]) - 0.95) < 1e-6  # 1 - lr*wd*1


def test_adamw_usage_errors():
    name, p = one_param()
    with pytest.raises(UsageError):
        AdamW([(name, p), (name, p)], lr=0.1)
    with pytest.raises(ConfigError):
        AdamW([(name, p)], lr=0.0)
    with pytest.raises(ConfigError):
        AdamW([(name, p)], lr=0.1, weight_decay=-1.0)
    opt = AdamW([(name, p)], lr=0.1)
    with pytest.raises(UsageError):
        opt.step()


def test_adamw_moment_resume_is_exact():
    r = np.random.default_rng(0)
    grads = [r.normal(size=3).astype(np.float32) for _ in range(4)]

    def fresh():
        return Tensor(np.array([0.3, -0.2, 0.9], dtype=np.float32),
                      requires_grad=True)

    a = fresh()
    opt_a = AdamW([("w", a)], lr=0.05, weight_decay=0.2)
    for g in grads:
        a.grad = g.copy()
        opt_a.step()

    b = fresh()
    opt_b = AdamW([("w", b)], lr=0.05, weight_decay=0.2)
    for g in grads[:2]:
        b.grad = g.copy()
        opt_b.step()
    resumed = AdamW([("w", b)], lr=0.05, weight_decay=0.2,
                    m=opt_b.m, v=opt_b.v, step=opt_b.step_count)
    for g in grads[2:]:
        b.grad = g.copy()
        resumed.step()
    assert np.array_equal(a.data, b.data)


def adamw_reference(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """One AdamW step in float64 from the textbook formula."""
    p, g, m, v = (np.asarray(a, dtype=np.float64) for a in (p, g, m, v))
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    return p - lr * (mhat / (np.sqrt(vhat) + eps) + wd * p), m, v


def test_adamw_float32_step_matches_float64_reference():
    r = np.random.default_rng(3)
    shape = (64, 48)
    p0 = r.normal(size=shape).astype(np.float32)
    g = r.normal(scale=1e-2, size=shape).astype(np.float32)
    m0 = r.normal(scale=1e-2, size=shape).astype(np.float32)
    v0 = r.uniform(1e-6, 1e-4, size=shape).astype(np.float32)
    p = Tensor(p0.copy(), requires_grad=True)
    opt = AdamW([("w", p)], lr=0.003, weight_decay=0.05,
                m={"w": m0}, v={"w": v0}, step=6)
    p.grad = g.copy()
    opt.step()
    want_p, want_m, want_v = adamw_reference(p0, g, m0, v0, 7, 0.003, 0.05)
    for got, want in ((p.data, want_p), (opt.m["w"], want_m), (opt.v["w"], want_v)):
        assert got.dtype == np.float32
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-6


def test_adamw_step_leaves_built_checkpoint_unchanged():
    model = build_backbone(tiny_config(), seed=4)
    opt = AdamW(model.named_parameters(), lr=0.01, weight_decay=0.1)
    r = np.random.default_rng(4)

    def step():
        for _, p in opt.params:
            p.grad = r.normal(size=p.shape).astype(np.float32)
        opt.step()

    step()
    ckpt = checkpoint_from_model(model, step=opt.step_count, opt_m=opt.m, opt_v=opt.v)
    before = {key: {name: arr.copy() for name, arr in table.items()}
              for key, table in (("params", ckpt.params), ("opt_m", ckpt.opt_m),
                                 ("opt_v", ckpt.opt_v))}
    step()
    for key, table in before.items():
        now = getattr(ckpt, key)
        assert now.keys() == table.keys()
        for name, arr in table.items():
            assert np.array_equal(now[name], arr), f"{key}[{name}] changed"


# --------------------------------------------------------------------- stages


def test_search_smoke_and_metrics_log(tmp_path):
    log = tmp_path / "metrics.jsonl"
    model = build_backbone(tiny_config(), seed=0)
    ckpt = run_search(model, tiny_data(), settings(epochs=2, gamma=0.001,
                                                   log_path=str(log)))
    assert ckpt.has_scores()
    assert set(ckpt.scores) == {"stage0.block0.attn", "stage0.block0.mlp",
                                "stage1.block0.attn", "stage1.block0.mlp"}
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == 2
    for rec in lines:
        assert rec["stage"] == "search"
        assert np.isfinite(rec["loss"])
        assert 0.0 <= rec["accuracy"] <= 1.0
        assert "score_l1" in rec and "scores_below_0.1" in rec
    assert ckpt.opt_m and ckpt.opt_v and ckpt.step > 0


def test_search_rejects_bad_start():
    with pytest.raises(UsageError):
        run_search("nope", tiny_data(), settings())


def test_regularized_search_shrinks_scores():
    data = tiny_data(seed=1)
    base = run_search(build_backbone(tiny_config(), seed=1), data,
                      settings(epochs=3, gamma=0.0, seed=3))
    reg = run_search(build_backbone(tiny_config(), seed=1), data,
                     settings(epochs=3, gamma=0.05, seed=3))
    sum_base = sum(np.abs(v).sum() for v in base.scores.values())
    sum_reg = sum(np.abs(v).sum() for v in reg.scores.values())
    assert sum_reg < sum_base


def test_search_is_deterministic():
    data = tiny_data(seed=2)
    a = run_search(build_backbone(tiny_config(), seed=2), data,
                   settings(epochs=2, gamma=0.01, seed=5))
    b = run_search(build_backbone(tiny_config(), seed=2), data,
                   settings(epochs=2, gamma=0.01, seed=5))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
    for site in a.scores:
        assert np.array_equal(a.scores[site], b.scores[site])
    for name in a.opt_m:
        assert np.array_equal(a.opt_m[name], b.opt_m[name])


def test_prune_stage_contract(tmp_path):
    model = build_backbone(tiny_config(), seed=4)
    data = tiny_data(seed=4)
    searched = run_search(model, data, settings(epochs=1, gamma=0.01))
    pruned, report = run_prune(searched, 0.5)
    assert not pruned.has_scores()
    assert report.post_params < report.pre_params
    assert sum(v.size for v in pruned.params.values()) == report.post_params
    # round-trips through disk
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, pruned)
    again = load_checkpoint(path)
    assert again.site_dims == pruned.site_dims

    with pytest.raises(UsageError):
        run_prune(pruned, 0.5)


def test_prune_at_full_keep_preserves_evaluation():
    model = build_backbone(tiny_config(), seed=5)
    data = tiny_data(seed=5)
    from dimprune.checkpoint import checkpoint_from_model
    from dimprune.scoring import attach_scores
    scored = attach_scores(model)
    ckpt = checkpoint_from_model(model, scored)
    pruned, _ = run_prune(ckpt, 1.0)
    a = evaluate(ckpt, data)
    b = evaluate(pruned, data)
    assert a == b


def test_finetune_requires_score_free_checkpoint():
    model = build_backbone(tiny_config(), seed=6)
    searched = run_search(model, tiny_data(seed=6), settings(epochs=1))
    with pytest.raises(UsageError):
        run_finetune(searched, tiny_data(seed=6), settings(epochs=1))


def test_finetune_smoke_and_determinism():
    data = tiny_data(seed=7)
    searched = run_search(build_backbone(tiny_config(), seed=7), data,
                          settings(epochs=2, gamma=0.01))
    pruned, _ = run_prune(searched, 0.5)
    tuned_a = run_finetune(pruned, data, settings(epochs=2, seed=9))
    tuned_b = run_finetune(pruned, data, settings(epochs=2, seed=9))
    for name in tuned_a.params:
        assert np.array_equal(tuned_a.params[name], tuned_b.params[name])
    assert not tuned_a.has_scores()
    assert sum(v.size for v in tuned_a.params.values()) \
        == sum(v.size for v in pruned.params.values())


def test_evaluate_contract():
    model = build_backbone(tiny_config(), seed=8)
    data = tiny_data(seed=8, n_per_class=4)
    out = evaluate(model, data)
    again = evaluate(model, data)
    assert out == again
    assert out["count"] == 16
    assert 0.0 <= out["accuracy"] <= 1.0
    # near-zero logits from the small init give chance-level cross entropy
    assert abs(out["loss"] - np.log(4)) < 0.3


def test_evaluate_batch_size_does_not_change_result():
    data = tiny_data(seed=10, n_per_class=8)
    ckpt = run_search(build_backbone(tiny_config(), seed=10), data,
                      settings(epochs=1, gamma=0.001, seed=10))
    one = evaluate(ckpt, data, batch_size=1)
    full = evaluate(ckpt, data, batch_size=64)
    assert one["count"] == full["count"] == 32
    assert one["accuracy"] == full["accuracy"]
    assert abs(one["loss"] - full["loss"]) <= 1e-6 * abs(full["loss"])


def test_non_finite_loss_raises_numeric_error():
    model = build_backbone(tiny_config(), seed=9)
    model.patch_embed.data[0, 0] = np.inf
    with pytest.raises(NumericError):
        run_search(model, tiny_data(seed=9), settings(epochs=1))


def test_settings_validation():
    with pytest.raises(ConfigError):
        settings(epochs=0).validate()
    with pytest.raises(ConfigError):
        settings(lr=-1.0).validate()
    with pytest.raises(ConfigError):
        settings(gamma=-0.1).validate()
    bad = settings(batch_size=0)
    with pytest.raises(ConfigError):
        run_search(build_backbone(tiny_config(), seed=0), tiny_data(), bad)
