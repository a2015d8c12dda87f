import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dimprune import tensor as T
from dimprune.blocks import (BackboneConfig, block_shift, build_backbone, forward_batch,
                             stage_geometry)
from dimprune.checkpoint import checkpoint_from_model, load_checkpoint, save_checkpoint
from dimprune.errors import ConfigError, DimensionError, NumericError, UsageError
from dimprune.data import synth_dataset
from dimprune.pipeline import (
    _BLOCK,
    AdamW,
    TrainSettings,
    decay_exempt,
    evaluate,
    run_finetune,
    run_prune,
    run_search,
)
from dimprune.scoring import attach_scores, score_l1, total_loss
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


def recorded_loss(p):
    """A tape that read ``p`` and the loss it recorded, before backward."""
    with T.Tape() as tape:
        loss = T.sum_all(T.matmul(T.reshape(p, (1, 1)), T.reshape(p, (1, 1))))
    return tape, loss


def test_adamw_step_before_backward_keeps_the_recorded_forward():
    name, p = one_param(0.5)
    _, twin = one_param(0.5)
    opt = AdamW([(name, p)], lr=0.1, weight_decay=0.1)
    with T.Tape() as tape:
        view = T.reshape(p, (1, 1))
        loss = T.sum_all(T.matmul(view, view))
    recorded = view.data.copy()
    for q in (p, twin):
        q.grad = np.ones(1, dtype=np.float32)
    opt.step()
    AdamW([(name, twin)], lr=0.1, weight_decay=0.1).step()
    # the step rebinds p.data to the update; the array the tape recorded,
    # reached through the reshape view, keeps the forward's value
    assert np.array_equal(p.data, twin.data) and float(p.data[0]) != 0.5
    assert view.data.tobytes() == recorded.tobytes()
    p.grad = None
    T.backward(loss, tape)
    assert p.grad.tolist() == [1.0]             # d(p*p)/dp at the recorded 0.5


@pytest.mark.parametrize("shape", [(3,), (3, 2)])
def test_adamw_rejects_a_moment_shaped_unlike_its_parameter(shape):
    p = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    moment = {"w": np.zeros(shape, dtype=np.float32)}
    for table in ("m", "v"):
        with pytest.raises(DimensionError, match=r"parameter w has shape"):
            AdamW([("w", p)], lr=0.1, **{table: moment})


def test_adamw_step_with_a_missing_gradient_changes_nothing():
    _, a = one_param(1.0)
    _, b = one_param(2.0)
    m0 = np.array([0.25], dtype=np.float32)
    v0 = np.array([0.5], dtype=np.float32)
    opt = AdamW([("a", a), ("b", b)], lr=0.1, weight_decay=0.1,
                m={"a": m0, "b": m0}, v={"a": v0, "b": v0}, step=3)
    a.grad = np.ones(1, dtype=np.float32)
    with pytest.raises(UsageError, match="parameter b has no gradient"):
        opt.step()
    assert float(a.data[0]) == 1.0 and float(b.data[0]) == 2.0
    assert a.grad.tolist() == [1.0]             # not released either
    assert opt.step_count == 3
    for name in ("a", "b"):
        assert np.array_equal(opt.m[name], m0) and np.array_equal(opt.v[name], v0)


def test_adamw_step_after_backward_updates():
    name, p = one_param(0.5)
    opt = AdamW([(name, p)], lr=0.1)
    tape, loss = recorded_loss(p)
    T.backward(loss, tape)
    assert p.grad.tolist() == [1.0]             # d(p*p)/dp at 0.5
    opt.step()
    assert opt.step_count == 1 and float(p.data[0]) < 0.5


def test_adamw_step_after_an_abandoned_tape_updates():
    name, p = one_param(0.5)
    opt = AdamW([(name, p)], lr=0.1)
    tape, loss = recorded_loss(p)
    del tape, loss
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()
    assert opt.step_count == 1 and float(p.data[0]) < 0.5


# ------------------------------------------------------- blocked AdamW step


class ReferenceAdamW:
    """AdamW as a loop over parameters, one at a time: the oracle the
    blocked step must match bit for bit."""

    def __init__(self, named_params, lr, weight_decay=0.0, m=None, v=None, step=0):
        self.params = list(named_params)
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = step
        self.m = {n: np.zeros(p.shape, dtype=np.float32) for n, p in self.params}
        self.v = {n: np.zeros(p.shape, dtype=np.float32) for n, p in self.params}
        self.m.update(m or {})
        self.v.update(v or {})

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        root2 = math.sqrt(1.0 - b2 ** t)
        step_size = self.lr * root2 / (1.0 - b1 ** t)
        eps_hat = self.eps * root2
        shrink = 1.0 - self.lr * self.weight_decay
        for name, p in self.params:
            g = p.grad
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


def twin_params(shapes, seed):
    """Two lists of (name, Tensor) with equal values: one for each optimizer."""
    r = np.random.default_rng(seed)
    values = [(name, r.normal(size=shape).astype(np.float32)) for name, shape in shapes]
    return [[(name, Tensor(arr.copy(), requires_grad=True)) for name, arr in values]
            for _ in range(2)]


def assert_same_bits(opt, ref):
    for (name, p), (_, q) in zip(opt.params, ref.params):
        for got, want in ((p.data, q.data), (opt.m[name], ref.m[name]),
                          (opt.v[name], ref.v[name])):
            assert got.shape == want.shape and got.dtype == np.float32
            assert got.tobytes() == want.tobytes(), name


def run_both(shapes, steps=3, seed=0, lr=0.01, weight_decay=0.1, opt=None, ref=None):
    """Step the blocked and the reference optimizer on equal gradients."""
    if opt is None:
        mine, theirs = twin_params(shapes, seed)
        opt = AdamW(mine, lr=lr, weight_decay=weight_decay)
        ref = ReferenceAdamW(theirs, lr=lr, weight_decay=weight_decay)
    r = np.random.default_rng(seed + 100)
    for _ in range(steps):
        for (_, p), (_, q) in zip(opt.params, ref.params):
            p.grad = r.normal(scale=0.1, size=p.shape).astype(np.float32)
            q.grad = p.grad.copy()
        opt.step()
        ref.step()
        assert_same_bits(opt, ref)
    return opt, ref


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_step_matches_the_per_parameter_loop_at_block_edges(size):
    # the parameter alone, then between small neighbours that pack around it
    run_both([("w", (size,))])
    run_both([("a", (3,)), ("stage0.norm1.gain", (5,)), ("w", (size,)),
              ("b", (7, 3)), ("score.site", (4,))], seed=1)


@pytest.mark.parametrize("shapes", [
    [("w", (3, 5)), ("v", (257, 255)), ("u", (256, 256)), ("t", (7, 9363))],
    [("x", (1, 1)), ("y", (129, 511)), ("z", (511, 129)), ("score.s", (33,))],
], ids=["block-edges", "packs-split"])
def test_blocked_step_matches_on_odd_2d_shapes(shapes):
    run_both(shapes, steps=4)


def test_a_pack_mixing_decayed_and_exempt_parameters_keeps_their_bits():
    shapes = [("w1", (4, 6)), ("stage0.block0.norm1.gain", (6,)), ("score.a", (6,)),
              ("w2", (6, 3)), ("final_norm.bias", (3,))]
    opt, _ = run_both(shapes)
    assert len(opt._blocks) == 1                    # all five share one pack
    run_both(shapes, weight_decay=0.0)


def test_blocked_step_resumes_from_its_moments_bit_for_bit():
    shapes = [("a", (5, 5)), ("score.s", (9,)), ("big", (_BLOCK + 3,)), ("c", (11,))]
    opt, ref = run_both(shapes, steps=3)
    resumed = AdamW(opt.params, lr=0.01, weight_decay=0.1, m=opt.m, v=opt.v,
                    step=opt.step_count)
    run_both(shapes, steps=3, seed=5, opt=resumed, ref=ref)


def test_a_rebound_parameter_is_read_afresh_by_the_next_step():
    shapes = [("a", (4, 3)), ("b", (6,)), ("big", (_BLOCK + 1,))]
    opt, ref = run_both(shapes, steps=2)
    r = np.random.default_rng(8)
    for (name, p), (_, q) in zip(opt.params, ref.params):
        if name != "a":
            new = r.normal(size=p.shape).astype(np.float32)
            p.data, q.data = new, new.copy()
    run_both(shapes, steps=2, seed=9, opt=opt, ref=ref)


def test_blocked_step_hands_out_views_that_later_steps_leave_alone():
    opt, _ = run_both([("a", (3,)), ("b", (4, 2))], steps=1)
    held = {name: (p.data, opt.m[name], opt.v[name]) for name, p in opt.params}
    copies = {name: [a.copy() for a in arrays] for name, arrays in held.items()}
    for _, p in opt.params:
        p.grad = np.ones(p.shape, dtype=np.float32)
    opt.step()
    for name, arrays in held.items():
        for a, before in zip(arrays, copies[name]):
            assert a.tobytes() == before.tobytes()
    for name, p in opt.params:
        assert p.data is not held[name][0]


def test_a_step_releases_every_gradient_it_reads():
    # a pack of two, a parameter sliced over three blocks, and a lone small one
    opt, _ = run_both([("a", (3,)), ("b", (4, 2)), ("big", (2 * _BLOCK + 1,)),
                       ("c", (7,))], steps=2)
    assert [len(block.members) for block in opt._blocks] == [2, 1, 1]
    assert all(p.grad is None for _, p in opt.params)


def test_a_second_step_without_backward_raises_and_changes_nothing():
    opt, _ = run_both([("a", (3,)), ("b", (4, 2)), ("big", (_BLOCK + 1,))], steps=1)
    held = {name: [a.tobytes() for a in (p.data, opt.m[name], opt.v[name])]
            for name, p in opt.params}
    with pytest.raises(UsageError, match="parameter a has no gradient"):
        opt.step()
    assert opt.step_count == 1
    for name, p in opt.params:
        assert [a.tobytes() for a in (p.data, opt.m[name], opt.v[name])] == held[name]


def test_a_step_frees_the_gradients_it_has_read():
    tracemalloc.start()
    try:
        # after one traced step, every array the next step rebinds is traced
        opt, _ = run_both([("w", (_BLOCK + 1,)), ("u", (2 * _BLOCK + 3,))], steps=1)
        r = np.random.default_rng(7)
        for _, p in opt.params:
            p.grad = r.normal(size=p.shape).astype(np.float32)
        grad_bytes = sum(p.grad.nbytes for _, p in opt.params)
        before = tracemalloc.get_traced_memory()[0]
        opt.step()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert before - after >= grad_bytes


def test_three_search_steps_on_a_real_model_match_the_loop_bit_for_bit():
    data = tiny_data(seed=2)
    scored = [attach_scores(build_backbone(tiny_config(), seed=3)) for _ in range(2)]
    opt = AdamW(scored[0].named_parameters(), lr=0.01, weight_decay=0.05)
    ref = ReferenceAdamW(scored[1].named_parameters(), lr=0.01, weight_decay=0.05)
    for step in range(3):
        images = data.images[8 * step:8 * step + 8]
        labels = data.labels[8 * step:8 * step + 8]
        for model, optimizer in zip(scored, (opt, ref)):
            model.zero_grads()
            with T.Tape() as tape:
                logits = forward_batch(model.model, images, scores=model.score_map())
                loss = total_loss(logits, labels, model.scores, 0.001)
            T.backward(loss, tape)
            optimizer.step()
        assert_same_bits(opt, ref)


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


def checkpoint_snapshot(ckpt):
    tables = {key: {name: arr.tobytes() for name, arr in getattr(ckpt, key).items()}
              for key in ("params", "scores", "opt_m", "opt_v")}
    return tables, dict(ckpt.site_dims), ckpt.step, ckpt.seed


def test_stages_leave_their_input_checkpoint_unchanged():
    data = tiny_data()
    searched = run_search(build_backbone(tiny_config(), seed=7), data,
                          settings(epochs=1, gamma=0.001))
    pruned, _ = run_prune(searched, 0.5)
    stages = {
        "run_search": (searched, lambda c: run_search(c, data, settings(epochs=1))),
        "run_prune": (searched, lambda c: run_prune(c, 0.5)),
        "run_finetune": (pruned, lambda c: run_finetune(c, data, settings(epochs=1))),
        "evaluate": (searched, lambda c: evaluate(c, data, batch_size=8)),
    }
    for stage, (ckpt, run) in stages.items():
        before = checkpoint_snapshot(ckpt)
        run(ckpt)
        assert checkpoint_snapshot(ckpt) == before, f"{stage} changed its input"


def test_search_rejects_bad_start():
    with pytest.raises(UsageError):
        run_search("nope", tiny_data(), settings())


def test_evaluate_rejects_bad_source():
    with pytest.raises(UsageError, match="Backbone or Checkpoint"):
        evaluate("nope", tiny_data())


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


def table_digest(ckpt):
    """SHA-256 over every tensor table of a checkpoint: within each table
    the names sorted, each followed by its array's bytes. The order a file
    lists its tensors in does not enter."""
    digest = hashlib.sha256()
    for key in ("params", "scores", "opt_m", "opt_v"):
        table = getattr(ckpt, key)
        for name in sorted(table):
            digest.update(f"{key}.{name}".encode())
            digest.update(np.ascontiguousarray(table[name]).tobytes())
    return digest.hexdigest()


# A shifted, position-biased chain. A change that moves one of these must
# say why in CHANGES.md.
CHAIN_DIGESTS = {
    "search": "613de3ff22f96c2b458f22a004113bad8cb833ed47b1073f40017f5a199304fd",
    "prune": "2ac5e54b72662387b5b2d825e909bceee6c3e1a19509cbfc05b3b677a9aefb2a",
    "finetune": "cf429f186bb19813cf8bc6be2fef81744f3b483940ab01bb85c09ff7cf2120b5",
}


def test_search_prune_finetune_checkpoints_keep_their_pinned_digests():
    cfg = tiny_config(image_size=16, base_dim=12, depths=(2, 1), heads=(3, 6),
                      use_relative_position_bias=True)
    assert block_shift(cfg, stage_geometry(cfg)[0].grid, 1) == 1   # a shifted block
    data = synth_dataset(seed=11, num_classes=4, n_per_class=8, height=16, width=16,
                         channels=1, noise_sigma=0.02)
    searched = run_search(build_backbone(cfg, seed=11), data,
                          settings(epochs=2, gamma=0.001, seed=11))
    pruned, _ = run_prune(searched, 0.6)
    tuned = run_finetune(pruned, data, settings(epochs=2, seed=12))
    assert pruned.site_dims["stage0.block1.attn"] == 2
    chain = {"search": searched, "prune": pruned, "finetune": tuned}
    assert {stage: table_digest(ckpt) for stage, ckpt in chain.items()} == CHAIN_DIGESTS


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


def test_evaluate_normalize_flag_picks_the_pixel_statistics():
    model = build_backbone(tiny_config(), seed=11)
    data = tiny_data(seed=11, n_per_class=4)
    mean, std = (s[None, :, None, None] for s in data.channel_stats())
    results = {}
    for normalize, images in ((False, data.images), (True, (data.images - mean) / std)):
        logits = forward_batch(model, images)
        want = T.cross_entropy_with_logits(logits, data.labels).item()
        results[normalize] = evaluate(model, data, normalize=normalize)
        assert results[normalize]["loss"] == pytest.approx(want, rel=1e-12)
    assert results[False]["loss"] != results[True]["loss"]


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


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("weight_decay", float("nan")),
    ("weight_decay", -1.0), ("weight_decay", float("inf")), ("gamma", float("nan")),
    ("gamma", float("inf")), ("seed", -1)])
def test_settings_reject_nan_infinite_and_negative_numbers(field, value):
    with pytest.raises(ConfigError, match=field.replace("lr", "learning rate")):
        settings(**{field: value}).validate()
