import numpy as np
import pytest

from dimprune import pruner
from dimprune.blocks import (
    AttentionParams,
    BackboneConfig,
    MlpParams,
    WindowSpec,
    build_backbone,
    forward_batch,
    mlp_forward,
    wmsa_forward,
)
from dimprune.errors import ConfigError, DimensionError
from dimprune.pruner import (
    KeepSet,
    keep_count,
    masked_scores,
    prune_attention,
    prune_mlp,
    prune_model,
    rank_order,
    select_keep,
)
from dimprune.scoring import attach_scores
from dimprune.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def make_attn(r, d, heads, k):
    t = lambda *s: Tensor(r.normal(0.0, 0.5, size=s).astype(np.float32),
                          requires_grad=True)
    return AttentionParams(
        wq=[t(d, k) for _ in range(heads)],
        wk=[t(d, k) for _ in range(heads)],
        wv=[t(d, k) for _ in range(heads)],
        wo=t(k * heads, d),
        scale_dim=k)


def attn_from(cut, heads, scale_dim):
    """The attention site that ``prune_attention``'s arrays make."""
    return AttentionParams(
        wq=[Tensor(cut[f"wq{j}"]) for j in range(heads)],
        wk=[Tensor(cut[f"wk{j}"]) for j in range(heads)],
        wv=[Tensor(cut[f"wv{j}"]) for j in range(heads)],
        wo=Tensor(cut["wo"]), scale_dim=scale_dim)


class FakeScore:
    def __init__(self, site_id, alpha):
        self.site_id = site_id
        self.alpha = Tensor(np.asarray(alpha, dtype=np.float32))


# ------------------------------------------------------------------ counting


def test_keep_count_examples():
    assert keep_count(8, 1.0) == 8
    assert keep_count(8, 0.8) == 6
    assert keep_count(1, 0.2) == 1
    assert keep_count(8, 0.5) == 4
    assert keep_count(5, 0.5) == 3  # 2.5 rounds half up
    assert keep_count(3, 0.1) == 1  # floor guard


def test_keep_count_rejects_bad_rho():
    for rho in (0.0, -0.5, 1.01, 2.0):
        with pytest.raises(ConfigError):
            keep_count(8, rho)


def test_rank_order_stable_on_ties():
    assert list(rank_order(np.array([0.5, 0.7, 0.5, 0.7]))) == [1, 3, 0, 2]
    assert list(rank_order(np.array([1.0, 1.0, 1.0]))) == [0, 1, 2]


def test_select_keep_examples():
    ks = select_keep(FakeScore("s", [0.9, 0.1, 0.5, 0.05]), 0.5)
    assert ks.indices == (0, 2)
    ks = select_keep(FakeScore("s", [-0.9, 0.1]), 0.5)
    assert ks.indices == (0,)


def test_select_keep_matches_sort_oracle():
    r = rng(1)
    for trial in range(30):
        k = int(r.integers(1, 12))
        alpha = r.normal(size=k)
        if trial % 3 == 0:
            alpha[r.integers(0, k)] = alpha[0]  # force occasional ties
        rho = float(r.uniform(0.05, 1.0))
        ks = select_keep(FakeScore("s", alpha), rho)
        want_n = max(1, int(np.floor(rho * k + 0.5)))
        # oracle: stable sort on (-|a|, index) pairs
        order = sorted(range(k), key=lambda i: (-abs(np.float32(alpha[i])), i))
        assert sorted(order[:want_n]) == list(ks.indices)


def test_keep_sets_grow_monotonically_with_rho():
    r = rng(2)
    for _ in range(15):
        alpha = r.normal(size=int(r.integers(2, 16)))
        sv = FakeScore("s", alpha)
        kept = [set(select_keep(sv, rho).indices)
                for rho in (0.2, 0.4, 0.6, 0.8, 1.0)]
        for smaller, larger in zip(kept, kept[1:]):
            assert smaller <= larger


def test_keep_set_validation():
    """Duplicates are named before the range and the range before the
    order; the same for a tuple, a list and an int64 array."""
    cases = [
        ((0, 0), "duplicate keep indices for s: (0, 0)"),
        ((2, 1, 2), "duplicate keep indices for s: (2, 1, 2)"),
        ((5, 5), "duplicate keep indices for s: (5, 5)"),
        ((-1, 2), "keep indices for s out of range [0, 4)"),
        ((0, 7), "keep indices for s out of range [0, 4)"),
        ((0, 4), "keep indices for s out of range [0, 4)"),
        ((3, 9, 1), "keep indices for s out of range [0, 4)"),
        ((3, 1), "keep indices for s must be sorted"),
        ((0, 2, 1, 3), "keep indices for s must be sorted"),
    ]
    for indices, message in cases:
        for given in (indices, list(indices), np.array(indices, dtype=np.int64)):
            with pytest.raises(DimensionError) as err:
                KeepSet("s", given, 4)
            assert str(err.value) == message


def test_keep_set_indices_are_a_tuple_of_python_ints():
    for given in ((), (0, 2, 3), [1], np.array([0, 3], dtype=np.int64),
                  np.array([1, 2], dtype=np.int32)):
        ks = KeepSet("s", given, 4)
        assert isinstance(ks.indices, tuple)
        assert ks.indices == tuple(int(i) for i in given)
        assert all(type(i) is int for i in ks.indices)
    ks = select_keep(FakeScore("s", [0.3, -0.9, 0.1, 0.8, 0.5]), 0.6)
    assert ks.indices == (1, 3, 4)
    assert all(type(i) is int for i in ks.indices)
    assert str(ks.indices) == "(1, 3, 4)"


# ------------------------------------------------------------------- surgery


def test_prune_attention_full_keep_is_bitwise_identity():
    p = make_attn(rng(3), d=4, heads=2, k=2)
    keep = KeepSet("s", (0, 1), 2)
    out = prune_attention(p, keep, np.ones(2, dtype=np.float32))
    want = {f"{kind}{j}": t.data
            for kind, heads in (("wq", p.wq), ("wk", p.wk), ("wv", p.wv))
            for j, t in enumerate(heads)}
    want["wo"] = p.wo.data
    assert list(out) == list(want)
    for name, arr in out.items():
        assert np.array_equal(arr, want[name]), name


def test_prune_attention_smallest_case():
    p = make_attn(rng(4), d=2, heads=1, k=2)
    alpha = np.array([0.7, 0.2], dtype=np.float32)
    out = prune_attention(p, KeepSet("s", (0,), 2), alpha)
    assert sorted(out) == ["wk0", "wo", "wq0", "wv0"]
    assert out["wq0"].shape == (2, 1)
    assert np.allclose(out["wq0"][:, 0], p.wq[0].data[:, 0] * 0.7, atol=1e-7)
    assert np.allclose(out["wv0"][:, 0], p.wv[0].data[:, 0] * 0.7, atol=1e-7)
    assert np.array_equal(out["wo"], p.wo.data[0:1])


def test_pruned_attention_equals_zero_masked_scores():
    r = rng(5)
    p = make_attn(r, d=4, heads=2, k=4)
    alpha = r.normal(1.0, 0.4, size=4).astype(np.float32)
    keep = select_keep(FakeScore("s", alpha), 0.5)
    pruned = attn_from(prune_attention(p, keep, alpha), heads=2, scale_dim=4)
    x = Tensor(r.normal(size=(9, 4)).astype(np.float32))
    spec = WindowSpec(3, 3, 3)    # one window: attention over all nine rows
    masked = np.zeros(4, dtype=np.float32)
    masked[list(keep.indices)] = alpha[list(keep.indices)]
    want = wmsa_forward(x, p, spec, alpha=Tensor(masked)).data
    got = wmsa_forward(x, pruned, spec).data
    assert np.abs(got - want).max() < 1e-5


def test_prune_mlp_shapes_and_equivalence():
    r = rng(6)
    p = MlpParams(w1=Tensor(r.normal(size=(2, 3)).astype(np.float32)),
                  w2=Tensor(r.normal(size=(3, 2)).astype(np.float32)))
    alpha = np.array([0.1, 0.9, -0.5], dtype=np.float32)
    cut = prune_mlp(p, KeepSet("s", (1,), 3), alpha)
    assert sorted(cut) == ["w1", "w2"]
    assert cut["w1"].shape == (2, 1) and cut["w2"].shape == (1, 2)
    assert np.allclose(cut["w1"][:, 0], p.w1.data[:, 1] * 0.9, atol=1e-7)
    assert np.array_equal(cut["w2"], p.w2.data[1:2])
    out = MlpParams(w1=Tensor(cut["w1"]), w2=Tensor(cut["w2"]))

    x = Tensor(r.normal(size=(4, 2)).astype(np.float32))
    masked = np.array([0.0, 0.9, 0.0], dtype=np.float32)
    want = mlp_forward(x, p, Tensor(masked)).data
    got = mlp_forward(x, out).data
    assert np.abs(got - want).max() < 1e-5


def test_prune_rejects_mismatched_keep_width():
    p = make_attn(rng(7), d=4, heads=2, k=2)
    with pytest.raises(DimensionError):
        prune_attention(p, KeepSet("s", (0,), 3), np.ones(3))


# -------------------------------------------------------------- whole model


def test_prune_model_identity_at_full_keep():
    model = build_backbone(BackboneConfig(), seed=0)
    img = rng(8).random((3, 32, 32)).astype(np.float32)
    base = forward_batch(model, img[None])
    scored = attach_scores(model)
    pruned, report = prune_model(scored, 1.0)
    out = forward_batch(pruned, img[None])
    assert np.array_equal(base.data, out.data)
    assert report.pre_params == report.post_params
    for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                  pruned.named_parameters()):
        assert na == nb and np.array_equal(pa.data, pb.data)


def test_prune_model_masked_equivalence():
    r = rng(9)
    for trial, rho in enumerate((0.25, 0.5, 0.75)):
        model = build_backbone(BackboneConfig(), seed=20 + trial)
        scored = attach_scores(model)
        for sv in scored.scores:
            sv.alpha.data[:] = r.normal(1.0, 0.5, size=sv.length).astype(np.float32)
        pruned, report = prune_model(scored, rho)
        img = r.random((3, 32, 32)).astype(np.float32)
        want = forward_batch(model, img[None], scores=masked_scores(scored, report))
        got = forward_batch(pruned, img[None])
        assert np.abs(got.data - want.data).max() < 1e-4


def test_prune_model_report_and_counts():
    model = build_backbone(BackboneConfig(), seed=1)
    scored = attach_scores(model)
    r = rng(10)
    for sv in scored.scores:
        sv.alpha.data[:] = r.normal(1.0, 0.3, size=sv.length).astype(np.float32)
    pruned, report = prune_model(scored, 0.5)
    assert report.post_params < report.pre_params
    assert report.pre_params == sum(p.size for _, p in model.named_parameters())
    assert report.post_params == sum(p.size for _, p in pruned.named_parameters())
    for ks in report.keeps:
        assert len(ks) == keep_count(ks.original, 0.5)
        sv = scored.score(ks.site_id)
        mags = np.abs(sv.alpha.data.astype(np.float64))
        kept = list(ks.indices)
        dropped = [i for i in range(ks.original) if i not in set(kept)]
        thr = report.thresholds[ks.site_id]
        assert thr == pytest.approx(mags[kept].min())
        if dropped:
            assert mags[dropped].max() <= thr + 1e-12


def test_prune_model_halves_site_dims():
    model = build_backbone(BackboneConfig(), seed=2)
    scored = attach_scores(model)
    pruned, _ = prune_model(scored, 0.5)
    blk0 = pruned.stages[0].blocks[0]
    assert blk0.attn.head_dim == 4 and blk0.attn.scale_dim == 8
    assert blk0.mlp.hidden == 16
    blk1 = pruned.stages[1].blocks[0]
    assert blk1.attn.head_dim == 4 and blk1.attn.scale_dim == 8
    assert blk1.mlp.hidden == 32
    assert not pruned.scores_attached


@pytest.mark.parametrize("cfg", [
    BackboneConfig(depths=(2, 2)),
    BackboneConfig(depths=(1, 2), use_relative_position_bias=True)])
def test_surgery_writes_each_pruned_weight_once(cfg, monkeypatch):
    """Every tensor of the pruned model is a C-contiguous float32 array that
    surgery made or carried over, taken by the model without a copy, with
    the bits of the gather-and-fold formula."""
    model = build_backbone(cfg, seed=12)
    scored = attach_scores(model)
    r = rng(13)
    for sv in scored.scores:
        sv.alpha.data[:] = r.normal(1.0, 0.5, size=sv.length).astype(np.float32)
    cuts = {}

    def recorded(cut_site):
        def cut(p, keep, alpha):
            out = cut_site(p, keep, alpha)
            cuts.update((f"{keep.site_id}.{name}", arr) for name, arr in out.items())
            return out
        return cut

    monkeypatch.setattr(pruner, "prune_attention", recorded(prune_attention))
    monkeypatch.setattr(pruner, "prune_mlp", recorded(prune_mlp))
    pruned, report = prune_model(scored, 0.6)
    parent = dict(model.named_parameters())
    folded = ("wq", "wk", "wv", "w1")
    assert set(cuts) < set(parent)
    for name, t in pruned.named_parameters():
        arr = t.data
        assert arr.dtype == np.float32 and arr.flags.c_contiguous, name
        if name not in cuts:
            assert arr is parent[name].data, name
            continue
        assert arr is cuts[name], name
        site, weight = name.rsplit(".", 1)
        keep = report.keep_for(site)
        idx = list(keep.indices)
        src = parent[name].data
        if weight.startswith(folded):
            want = src[:, idx] * scored.score(site).alpha.data[idx]
        elif weight == "wo":
            heads = src.shape[0] // keep.original
            want = src[[j * keep.original + i for j in range(heads) for i in idx]]
        else:
            want = src[idx]
        assert np.array_equal(arr.view(np.uint32), want.view(np.uint32)), name


def test_prune_model_with_relative_position_bias():
    cfg = BackboneConfig(use_relative_position_bias=True)
    model = build_backbone(cfg, seed=3)
    scored = attach_scores(model)
    pruned, report = prune_model(scored, 0.5)
    src = model.stages[0].blocks[0].attn
    dst = pruned.stages[0].blocks[0].attn
    assert dst.rpb is not None
    assert np.array_equal(dst.rpb[0].data, src.rpb[0].data)
    img = rng(11).random((3, 32, 32)).astype(np.float32)
    want = forward_batch(model, img[None], scores=masked_scores(scored, report))
    got = forward_batch(pruned, img[None])
    assert np.abs(got.data - want.data).max() < 1e-4
