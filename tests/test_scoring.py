import numpy as np
import pytest

from dimprune.blocks import (BackboneConfig, build_backbone, forward_batch, forward_features,
                             sites)
from dimprune.errors import ConfigError, UsageError
from dimprune.scoring import (
    ScoredModel,
    attach_scores,
    score_l1,
    score_summary,
    total_loss,
)
from dimprune.tensor import Tape, Tensor, backward

from oracles import assert_grad_matches, ref_cross_entropy


def tiny_model(seed=0, **kw):
    return build_backbone(BackboneConfig(**kw), seed=seed)


def test_attach_creates_expected_site_lengths():
    scored = attach_scores(tiny_model())
    got = {s.site_id: s.length for s in scored.scores}
    assert got == {
        "stage0.block0.attn": 8,
        "stage0.block0.mlp": 32,
        "stage1.block0.attn": 8,
        "stage1.block0.mlp": 64,
    }
    assert all(np.all(s.alpha.data == 1.0) for s in scored.scores)
    assert all(s.alpha.requires_grad for s in scored.scores)


def test_site_ids_match_independent_walker():
    cfg = BackboneConfig(depths=(2, 3), heads=(2, 4))
    walked = []
    for s, depth in enumerate(cfg.depths):
        for b in range(depth):
            for kind in ("attn", "mlp"):
                walked.append(f"stage{s}.block{b}.{kind}")
    assert [site.id for site in sites(cfg)] == walked
    scored = attach_scores(build_backbone(cfg, seed=1))
    assert {s.site_id for s in scored.scores} == set(walked)


def test_double_attach_rejected():
    model = tiny_model()
    attach_scores(model)
    with pytest.raises(UsageError):
        attach_scores(model)


def test_fresh_scores_do_not_change_forward():
    model = tiny_model(seed=2)
    img = np.random.default_rng(0).random((3, 32, 32)).astype(np.float32)
    plain = forward_batch(model, img[None])
    scored = attach_scores(model)
    with_scores = forward_batch(model, img[None], scores=scored.score_map())
    assert np.array_equal(plain.data, with_scores.data)


def test_total_loss_gamma_zero_is_plain_cross_entropy():
    r = np.random.default_rng(3)
    logits = Tensor(r.normal(size=(5, 4)).astype(np.float32))
    labels = np.array([0, 1, 2, 3, 0])
    scored = attach_scores(tiny_model(seed=3))
    loss = total_loss(logits, labels, scored.scores, gamma=0.0)
    assert abs(loss.item() - ref_cross_entropy(logits.data, labels)) < 1e-6


def test_total_loss_zero_scores_kill_regularizer():
    r = np.random.default_rng(4)
    logits = Tensor(r.normal(size=(3, 4)).astype(np.float32))
    labels = np.array([1, 2, 0])
    scored = attach_scores(tiny_model(seed=4))
    for sv in scored.scores:
        sv.alpha.data[:] = 0.0
    loss = total_loss(logits, labels, scored.scores, gamma=5.0)
    assert abs(loss.item() - ref_cross_entropy(logits.data, labels)) < 1e-6


def test_total_loss_matches_independent_sum():
    r = np.random.default_rng(5)
    logits = Tensor(r.normal(size=(4, 4)).astype(np.float32))
    labels = np.array([3, 0, 1, 2])
    scored = attach_scores(tiny_model(seed=5))
    for sv in scored.scores:
        sv.alpha.data[:] = r.normal(0.0, 1.0, size=sv.length).astype(np.float32)
    gamma = 0.37
    want = ref_cross_entropy(logits.data, labels) + gamma * score_l1(scored.scores)
    got = total_loss(logits, labels, scored.scores, gamma).item()
    assert abs(got - want) < 1e-5 * max(1.0, abs(want))


def test_total_loss_rejects_negative_gamma():
    scored = attach_scores(tiny_model(seed=6))
    logits = Tensor(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ConfigError):
        total_loss(logits, np.array([0, 1]), scored.scores, gamma=-0.1)


def test_score_gradient_splits_into_ce_and_sign_terms():
    model = tiny_model(seed=7)
    scored = attach_scores(model)
    r = np.random.default_rng(6)
    for sv in scored.scores:
        sv.alpha.data[:] = r.normal(1.0, 0.2, size=sv.length).astype(np.float32)
    img = r.random((3, 32, 32)).astype(np.float32)
    labels = np.array([2])
    gamma = 0.05

    def run(g):
        scored.zero_grads()
        with Tape() as tape:
            logits = forward_batch(model, img[None], scores=scored.score_map())
            loss = total_loss(logits, labels, scored.scores, g)
        backward(loss, tape)
        return loss, {sv.site_id: sv.alpha.grad.copy() for sv in scored.scores}

    _, grads_reg = run(gamma)
    _, grads_ce = run(0.0)
    for sv in scored.scores:
        expect = grads_ce[sv.site_id] + np.float32(gamma) * np.sign(sv.alpha.data)
        assert np.abs(grads_reg[sv.site_id] - expect).max() < 1e-6

    # finite differences against the full objective for one attention site
    sv = scored.score("stage0.block0.attn")

    def f():
        with Tape() as tape:
            logits = forward_batch(model, img[None], scores=scored.score_map())
            return total_loss(logits, labels, scored.scores, gamma).item()

    _, grads = run(gamma)
    assert_grad_matches(f, sv.alpha.data, grads[sv.site_id],
                        np.random.default_rng(7), points=4)


def test_pure_regularizer_step_shrinks_scores_by_lr_gamma():
    scored = attach_scores(tiny_model(seed=8))
    r = np.random.default_rng(8)
    for sv in scored.scores:
        sv.alpha.data[:] = r.choice([-1.0, 1.0], size=sv.length).astype(np.float32) \
            * r.uniform(0.5, 1.5, size=sv.length).astype(np.float32)
    gamma, lr = 0.5, 0.1
    before = {sv.site_id: np.abs(sv.alpha.data).copy() for sv in scored.scores}
    # cross-entropy on constant logits: its alpha-gradient is exactly zero
    logits = Tensor(np.zeros((2, 4), dtype=np.float32))
    with Tape() as tape:
        loss = total_loss(logits, np.array([0, 1]), scored.scores, gamma)
    backward(loss, tape)
    for sv in scored.scores:
        sv.alpha.data[:] = sv.alpha.data - np.float32(lr) * sv.alpha.grad
        shrink = before[sv.site_id] - np.abs(sv.alpha.data)
        assert np.abs(shrink - lr * gamma).max() < 1e-6


def test_scores_do_not_leak_into_earlier_stages():
    model = tiny_model(seed=9)
    scored = attach_scores(model)
    img = np.random.default_rng(9).random((3, 32, 32)).astype(np.float32)
    _, base_features = forward_features(model, img[None], scores=scored.score_map())
    scored.score("stage1.block0.mlp").alpha.data[:] = 0.25
    scored.score("stage1.block0.attn").alpha.data[:] = -3.0
    _, moved_features = forward_features(model, img[None], scores=scored.score_map())
    assert np.array_equal(base_features[0].data, moved_features[0].data)
    assert not np.array_equal(base_features[1].data, moved_features[1].data)


def test_score_summary_statistics():
    scored = attach_scores(tiny_model(seed=10))
    rows = score_summary(scored.scores, threshold=0.5)
    assert [r["site_id"] for r in rows] == [s.site_id for s in scored.scores]
    for row in rows:
        assert row["min"] == row["median"] == row["max"] == 1.0
        assert row["below_threshold"] == 0

    sv = scored.scores[0]
    sv.alpha.data[:] = 0.0
    sv.alpha.data[:4] = np.array([-2.0, 0.3, -0.05, 1.0], dtype=np.float32)
    row = score_summary([sv], threshold=0.1)[0]
    assert row["max"] == 2.0  # |-2| ranks by magnitude
    assert row["min"] == 0.0
    assert row["below_threshold"] == 5  # 0.05 plus the four zeros
    mags = np.sort(np.abs(sv.alpha.data.astype(np.float64)))
    assert row["median"] == float(np.median(mags))
    assert abs(row["l1"] - mags.sum()) < 1e-12


def test_duplicate_site_ids_rejected():
    scored = attach_scores(tiny_model(seed=11))
    dup = scored.scores + [scored.scores[0]]
    with pytest.raises(UsageError):
        ScoredModel(scored.model, dup)
