import dataclasses
import math

import numpy as np
import pytest

from dimprune import tensor as T
from dimprune.errors import ConfigError, DimensionError, NumericError
from dimprune.scoring import attach_scores, total_loss
from dimprune.tensor import Tape, Tensor, backward
from dimprune import blocks as B
from dimprune.costmodel import swin_t_config
from dimprune.blocks import (
    AttentionParams,
    Backbone,
    BackboneConfig,
    BlockParams,
    MlpParams,
    WindowSpec,
    block_forward,
    build_backbone,
    forward_batch,
    forward_features,
    mlp_forward,
    patch_embed,
    patch_merge,
    patchify,
    stage_geometry,
    wmsa_forward,
)

from oracles import (
    assert_grad_matches,
    ref_attention,
    ref_gelu,
    ref_layer_norm,
    ref_merge_order,
    ref_mlp,
    ref_msa,
    ref_partition_order,
    ref_patchify,
    ref_softmax,
    ref_window_masks,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def w(r, *shape):
    return Tensor(r.normal(0.0, 0.5, size=shape).astype(np.float32), requires_grad=True)


def make_attn(r, d, heads, k, scale_dim=None, rpb_window=None):
    p = AttentionParams(
        wq=[w(r, d, k) for _ in range(heads)],
        wk=[w(r, d, k) for _ in range(heads)],
        wv=[w(r, d, k) for _ in range(heads)],
        wo=w(r, k * heads, d),
        scale_dim=scale_dim if scale_dim is not None else k,
    )
    if rpb_window is not None:
        span = (2 * rpb_window - 1) ** 2
        p.rpb = [w(r, span, 1) for _ in range(heads)]
    return p


def msa(x, p, alpha=None):
    """Global multi-head attention over the rows of x: W-MSA with one window
    that covers a square grid of x's rows (Swin, arXiv 2103.14030)."""
    side = math.isqrt(x.shape[0])
    assert side * side == x.shape[0]
    return wmsa_forward(x, p, WindowSpec(side, side, side), alpha)


def attention(q, k, v, scale_dim, mask=None):
    """softmax(q k^T / sqrt(scale_dim) [+ mask]) v over [..., m, k] stacks of
    one shape, run through ``T.attention_core`` as one head."""
    *lead, m, width = q.shape
    qkv = np.stack([q, k, v], axis=-2)[..., None, :]           # [..., m, 3, 1, k]
    if mask is not None and mask.ndim > 2:   # the logits carry a heads axis of one
        mask = mask[..., None, :, :]
    out = T.attention_core(Tensor(qkv), 1.0 / np.sqrt(scale_dim),
                           None if mask is None else Tensor(mask))
    return out.data.reshape(q.shape)


def attn_arrays(p):
    return ([t.data for t in p.wq], [t.data for t in p.wk],
            [t.data for t in p.wv], p.wo.data)


# ------------------------------------------------------------------- windows


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(5, 4, 2)
    with pytest.raises(ConfigError):
        WindowSpec(4, 4, 2, shift=2)
    with pytest.raises(ConfigError):
        WindowSpec(4, 4, 0)


def test_single_window_partition_is_input():
    perm, inverse = B._window_order(2, 2, 2, 0)
    assert perm.order.tolist() == inverse.order.tolist() == [0, 1, 2, 3]


def test_partition_reverse_roundtrip_bitwise():
    for shift in (0, 1):
        for images in (1, 3):
            order, inverse = B._window_order(4, 4, 2, shift)
            x = Tensor(rng(2).normal(size=(images * 16, 5)))
            back = T.permute_rows(T.permute_rows(x, order), inverse)
            assert np.array_equal(back.data, x.data)


def test_partition_order_matches_reference():
    for (h, wd, m, s) in [(4, 4, 2, 0), (4, 4, 2, 1), (8, 8, 4, 2), (6, 6, 3, 1)]:
        got = B._partition_permutation(h, wd, m, s)
        assert np.array_equal(got, ref_partition_order(h, wd, m, s))


def test_shifted_origin_lands_in_last_window():
    # With H=W=4, M=2, s=1 the token at grid (0,0) wraps to shifted (3,3),
    # i.e. the final slot of the final window.
    perm = B._partition_permutation(4, 4, 2, 1)
    assert perm[15] == 0


def test_a_tiny_search_step_checks_and_inverts_no_cached_permutation(monkeypatch):
    # the README model with two blocks per stage: shifted and unshifted
    # windows, and a merge
    scored = attach_scores(build_backbone(BackboneConfig(depths=(2, 2), heads=(2, 4)), seed=0))
    images = rng(40).random((8, 3, 32, 32)).astype(np.float32)
    labels = np.arange(8) % 4

    def search_step(count):
        scored.zero_grads()
        with Tape() as tape:
            logits = forward_batch(scored.model, images[:count], scores=scored.score_map())
            loss = total_loss(logits, labels[:count], scored.scores, 1e-3)
        backward(loss, tape)
        return logits.data

    def refuse(*args, **kwargs):
        raise AssertionError("a cached permutation was checked or inverted again")

    first = search_step(8)                  # builds the cached permutations
    monkeypatch.setattr(T.Permutation, "__init__", refuse)
    monkeypatch.setattr(np, "bincount", refuse)
    # a new batch size reuses each grid's orders; each row is its image's
    assert np.array_equal(search_step(3), first[:3])
    assert np.array_equal(forward_batch(scored.model, images[:5],
                                        scores=scored.score_map()).data, first[:5])


def stacked_order(order, images):
    """One image's row order repeated for ``images`` stacked images, each
    run offset by the image's first row."""
    n = len(order)
    return np.concatenate([np.asarray(order) + i * n for i in range(images)])


@pytest.mark.parametrize("images", [1, 3])
@pytest.mark.parametrize("shift", [0, 1])
def test_permute_rows_applies_one_image_order_to_each_image(images, shift):
    r = rng(41 + images + shift)
    x = Tensor(r.normal(size=(images * 16, 3)), requires_grad=True)
    g = r.normal(size=(images * 16, 3)).astype(np.float32)
    merge = [i for cell in ref_merge_order(4, 4) for i in cell]
    for perm, want in [(B._window_order(4, 4, 2, shift)[0], ref_partition_order(4, 4, 2, shift)),
                       (B._window_order(4, 4, 2, shift)[1],
                        np.argsort(ref_partition_order(4, 4, 2, shift))),
                       (B._merge_permutation(4, 4), merge)]:
        order = stacked_order(want, images)
        with Tape() as tape:
            out = T.permute_rows(x, perm)
        (_, [(_, pull)]), = tape._nodes
        scattered = np.zeros_like(g)
        scattered[order] = g
        assert np.array_equal(out.data, x.data[order]) and out.data.flags.c_contiguous
        assert np.array_equal(pull(g), scattered) and pull(g).flags.c_contiguous
    with pytest.raises(DimensionError, match="multiple of 16 rows"):
        T.permute_rows(Tensor(np.ones((images * 16 + 4, 3))), B._merge_permutation(4, 4))


def test_logit_factor_has_the_bits_of_the_numpy_square_root():
    tiny = {g.head_dim for g in stage_geometry(BackboneConfig())}
    swin = {g.head_dim for g in stage_geometry(swin_t_config())}
    assert tiny == {8} and swin == {32}
    for scale_dim in sorted(tiny | swin) + list(range(1, 4097)):
        assert B._logit_factor(scale_dim).hex() == (1.0 / float(np.sqrt(scale_dim))).hex()


def test_window_masks_match_reference():
    for (h, wd, m, s) in [(4, 4, 2, 1), (8, 8, 4, 2), (6, 6, 3, 1)]:
        got = B._window_masks(h, wd, m, s)
        want = ref_window_masks(h, wd, m, s)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert np.array_equal(g, r.astype(np.float32))


def test_masked_pairs_get_negligible_attention():
    masks = B._window_masks(4, 4, 2, 1)
    blocked = [m for m in masks if (m < 0).any()]
    assert blocked
    for m in blocked:
        probs = ref_softmax(np.zeros_like(m) + m)
        assert probs[m < 0].max() < 1e-8


# ----------------------------------------------------------------- attention


def test_attention_single_row_returns_v():
    q = rng(3).normal(size=(1, 4)).astype(np.float32)
    k = rng(4).normal(size=(1, 4)).astype(np.float32)
    v = rng(5).normal(size=(1, 4)).astype(np.float32)
    out = attention(q, k, v, scale_dim=4)
    assert np.abs(out - v).max() < 1e-6


def test_attention_identical_keys_average_values():
    q = rng(6).normal(size=(3, 2)).astype(np.float32)
    k = np.tile(rng(7).normal(size=(1, 2)), (3, 1)).astype(np.float32)
    v = rng(8).normal(size=(3, 2)).astype(np.float32)
    out = attention(q, k, v, scale_dim=2)
    want = v.mean(axis=0, keepdims=True)
    assert np.abs(out - want).max() < 1e-6


def test_attention_matches_reference_with_mask():
    r = rng(9)
    q, k, v = (r.normal(size=(5, 3)).astype(np.float32) for _ in range(3))
    mask = np.where(r.random((5, 5)) < 0.3, B.MASK_VALUE, 0.0).astype(np.float32)
    got = attention(q, k, v, 7, mask)
    assert np.abs(got - ref_attention(q, k, v, 7, mask)).max() < 1e-5


def test_attention_over_stacks_with_a_mask_per_slice_matches_reference():
    r = rng(44)
    q, k, v = (r.normal(size=(2, 3, 5, 4)).astype(np.float32) for _ in range(3))
    mask = np.where(r.random((3, 5, 5)) < 0.3, B.MASK_VALUE, 0.0).astype(np.float32)
    got = attention(q, k, v, 6, mask)
    for i in range(2):
        for j in range(3):
            want = ref_attention(q[i, j], k[i, j], v[i, j], 6, mask[j])
            assert np.abs(got[i, j] - want).max() < 1e-5


def test_attention_shape_errors():
    qkv = Tensor(np.ones((2, 5, 3, 1, 4)))
    with pytest.raises(DimensionError):      # q, k and v are not stacked in threes
        T.attention_core(Tensor(np.ones((2, 5, 2, 1, 4))), 0.5)
    with pytest.raises(DimensionError):      # no heads axis
        T.attention_core(Tensor(np.ones((5, 3, 4))), 0.5)
    with pytest.raises(DimensionError):      # a mask of the wrong row count
        T.attention_core(qkv, 0.5, Tensor(np.zeros((1, 4, 5))))


def test_msa_scores_of_one_are_bitwise_identity():
    r = rng(10)
    p = make_attn(r, d=4, heads=2, k=2)
    x = Tensor(r.normal(size=(4, 4)))
    plain = msa(x, p).data
    scored = msa(x, p, alpha=Tensor(np.ones(2))).data
    assert np.array_equal(plain, scored)


def test_msa_zero_scores_zero_output():
    r = rng(11)
    p = make_attn(r, d=4, heads=2, k=2)
    x = Tensor(r.normal(size=(4, 4)))
    out = msa(x, p, alpha=Tensor(np.zeros(2))).data
    assert np.abs(out).max() == 0.0


def test_msa_matches_per_head_reference():
    r = rng(12)
    p = make_attn(r, d=4, heads=2, k=2)
    x = r.normal(size=(4, 4)).astype(np.float32)
    alpha = r.normal(1.0, 0.3, size=2).astype(np.float32)
    got = msa(Tensor(x), p, alpha=Tensor(alpha)).data
    wq, wk, wv, wo = attn_arrays(p)
    want = ref_msa(x, wq, wk, wv, wo, scale_dim=2, alpha=alpha)
    assert np.abs(got - want).max() < 1e-5


def test_msa_permutation_equivariance():
    r = rng(13)
    p = make_attn(r, d=6, heads=3, k=2)
    x = r.normal(size=(9, 6)).astype(np.float32)
    perm = r.permutation(9)
    direct = msa(Tensor(x[perm]), p).data
    permuted = msa(Tensor(x), p).data[perm]
    assert np.abs(direct - permuted).max() < 1e-5


def test_wmsa_single_window_equals_msa():
    # one window over the grid attends every row to every row: the same bits
    # as the attention core run over all the rows as one group
    r = rng(14)
    p = make_attn(r, d=4, heads=2, k=2)
    x = Tensor(r.normal(size=(4, 4)))
    got = wmsa_forward(x, p, WindowSpec(2, 2, 2, 0)).data
    assert np.array_equal(got, B._attention(x, p, ()).data)
    wq, wk, wv, wo = attn_arrays(p)
    assert np.abs(got - ref_msa(x.data, wq, wk, wv, wo, scale_dim=2)).max() < 1e-5


def test_wmsa_composes_per_window_attention():
    r = rng(15)
    p = make_attn(r, d=4, heads=2, k=2)
    x = r.normal(size=(16, 4)).astype(np.float32)
    spec = WindowSpec(4, 4, 2, 0)
    got = wmsa_forward(Tensor(x), p, spec).data
    wq, wk, wv, wo = attn_arrays(p)
    order = ref_partition_order(4, 4, 2, 0)
    want = np.empty((16, 4))
    for widx in range(4):
        rows = order[widx * 4:(widx + 1) * 4]
        want[rows] = ref_msa(x[rows], wq, wk, wv, wo, scale_dim=2)
    assert np.abs(got - want).max() < 1e-5


def test_wmsa_shifted_matches_masked_reference():
    r = rng(16)
    p = make_attn(r, d=4, heads=2, k=2)
    x = r.normal(size=(16, 4)).astype(np.float32)
    spec = WindowSpec(4, 4, 2, 1)
    got = wmsa_forward(Tensor(x), p, spec).data
    wq, wk, wv, wo = attn_arrays(p)
    order = ref_partition_order(4, 4, 2, 1)
    masks = ref_window_masks(4, 4, 2, 1)
    want = np.empty((16, 4))
    for widx in range(4):
        rows = order[widx * 4:(widx + 1) * 4]
        want[rows] = ref_msa(x[rows], wq, wk, wv, wo, scale_dim=2, mask=masks[widx])
    assert np.abs(got - want).max() < 1e-5


def test_wmsa_unshifted_locality():
    r = rng(17)
    p = make_attn(r, d=4, heads=2, k=2)
    x = r.normal(size=(16, 4)).astype(np.float32)
    spec = WindowSpec(4, 4, 2, 0)
    base = wmsa_forward(Tensor(x), p, spec).data
    poked = x.copy()
    poked[0] += 1.0  # grid (0,0) lives in window 0
    moved = wmsa_forward(Tensor(poked), p, spec).data
    # tokens of the bottom-right window: rows 10, 11, 14, 15
    for row in (10, 11, 14, 15):
        assert np.array_equal(base[row], moved[row])
    assert not np.array_equal(base[0], moved[0])


def test_wmsa_shift_mixes_across_windows():
    r = rng(18)
    p = make_attn(r, d=4, heads=2, k=2)
    x = r.normal(size=(16, 4)).astype(np.float32)
    spec = WindowSpec(4, 4, 2, 1)
    base = wmsa_forward(Tensor(x), p, spec).data
    poked = x.copy()
    poked[5] += 1.0  # grid (1,1), unshifted window 0
    moved = wmsa_forward(Tensor(poked), p, spec).data
    # grid (2,2) = row 10 sits in unshifted window 3 but shares the shifted
    # window and region with (1,1), so the shift lets influence cross.
    assert not np.array_equal(base[10], moved[10])


# ----------------------------------------------------------------- mlp/block


def test_mlp_scores_identity_and_zero():
    r = rng(19)
    p = MlpParams(w1=w(r, 4, 6), w2=w(r, 6, 4))
    x = Tensor(r.normal(size=(3, 4)))
    assert np.array_equal(mlp_forward(x, p).data,
                          mlp_forward(x, p, Tensor(np.ones(6))).data)
    assert np.abs(mlp_forward(x, p, Tensor(np.zeros(6))).data).max() == 0.0


def test_mlp_matches_reference():
    r = rng(20)
    p = MlpParams(w1=w(r, 2, 3), w2=w(r, 3, 2))
    x = r.normal(size=(4, 2)).astype(np.float32)
    alpha = r.normal(1.0, 0.3, size=3).astype(np.float32)
    got = mlp_forward(Tensor(x), p, Tensor(alpha)).data
    assert np.abs(got - ref_mlp(x, p.w1.data, p.w2.data, alpha)).max() < 1e-5


def make_block(r, d, heads, k, hidden, zero_out=False):
    attn = make_attn(r, d, heads, k)
    mlp = MlpParams(w1=w(r, d, hidden), w2=w(r, hidden, d))
    if zero_out:
        attn.wo = Tensor(np.zeros((k * heads, d), dtype=np.float32), requires_grad=True)
        mlp.w2 = Tensor(np.zeros((hidden, d), dtype=np.float32), requires_grad=True)
    return BlockParams(
        norm1_gain=Tensor(np.ones(d), requires_grad=True),
        norm1_bias=Tensor(np.zeros(d), requires_grad=True),
        attn=attn,
        norm2_gain=Tensor(np.ones(d), requires_grad=True),
        norm2_bias=Tensor(np.zeros(d), requires_grad=True),
        mlp=mlp,
    )


def test_block_with_zero_projections_is_identity():
    r = rng(21)
    bp = make_block(r, d=4, heads=2, k=2, hidden=8, zero_out=True)
    x = Tensor(r.normal(size=(16, 4)))
    out = block_forward(x, bp, WindowSpec(4, 4, 2, 0))
    assert np.array_equal(out.data, x.data)


def ref_block(x, bp, spec, alpha_attn=None, alpha_mlp=None):
    wq, wk, wv, wo = attn_arrays(bp.attn)
    order = ref_partition_order(spec.height, spec.width, spec.window, spec.shift)
    masks = (ref_window_masks(spec.height, spec.width, spec.window, spec.shift)
             if spec.shift else None)
    normed = ref_layer_norm(x, bp.norm1_gain.data, bp.norm1_bias.data)
    m2 = spec.window ** 2
    attn_out = np.empty((spec.tokens, x.shape[1]))
    for widx in range(spec.num_windows):
        rows = order[widx * m2:(widx + 1) * m2]
        attn_out[rows] = ref_msa(normed[rows], wq, wk, wv, wo,
                                 scale_dim=bp.attn.scale_dim, alpha=alpha_attn,
                                 mask=masks[widx] if masks else None)
    y = np.asarray(x, dtype=np.float64) + attn_out
    normed = ref_layer_norm(y, bp.norm2_gain.data, bp.norm2_bias.data)
    return y + ref_mlp(normed, bp.mlp.w1.data, bp.mlp.w2.data, alpha_mlp)


def test_block_matches_composed_reference():
    r = rng(22)
    bp = make_block(r, d=4, heads=2, k=2, hidden=8)
    x = r.normal(size=(16, 4)).astype(np.float32)
    spec = WindowSpec(4, 4, 2, 1)
    a_attn = r.normal(1.0, 0.3, size=2).astype(np.float32)
    a_mlp = r.normal(1.0, 0.3, size=8).astype(np.float32)
    got = block_forward(Tensor(x), bp, spec, Tensor(a_attn), Tensor(a_mlp)).data
    want = ref_block(x, bp, spec, a_attn, a_mlp)
    assert np.abs(got - want).max() < 1e-4


def test_block_gradients_match_finite_differences():
    r = rng(23)
    bp = make_block(r, d=4, heads=2, k=2, hidden=6)
    x = Tensor(r.normal(size=(16, 4)).astype(np.float32))
    spec = WindowSpec(4, 4, 2, 1)
    a_attn = Tensor(r.normal(1.0, 0.3, size=2).astype(np.float32), requires_grad=True)
    a_mlp = Tensor(r.normal(1.0, 0.3, size=6).astype(np.float32), requires_grad=True)
    c1 = Tensor(r.normal(size=(4, 1)).astype(np.float32))
    c2 = Tensor(r.normal(size=(16, 1)).astype(np.float32))

    def build():
        out = block_forward(x, bp, spec, a_attn, a_mlp)
        return T.sum_all(T.matmul(T.transpose(T.matmul(out, c1)), c2))

    with Tape() as tape:
        loss = build()
    backward(loss, tape)
    check = rng(24)
    for leaf in (a_attn, a_mlp, bp.attn.wq[0], bp.attn.wo, bp.mlp.w1,
                 bp.norm1_gain, bp.norm2_bias):
        assert leaf.grad is not None
        assert_grad_matches(lambda: build().item(), leaf.data, leaf.grad,
                            check, points=6)


# ------------------------------------------------------------ embed and merge


def test_patchify_matches_reference():
    img = rng(25).normal(size=(3, 8, 8)).astype(np.float32)
    assert np.abs(patchify(img[None], 4) - ref_patchify(img, 4)).max() == 0.0
    assert patchify(img[None], 4).shape == (4, 48)


def test_patch_embed_whole_image_patch():
    img = rng(26).normal(size=(1, 2, 2)).astype(np.float32)
    out = patch_embed(img[None], 2, Tensor(np.eye(4)))
    assert out.shape == (1, 4)
    assert np.abs(out.data[0] - img.reshape(-1)).max() < 1e-6


def test_patch_merge_concat_order():
    r = rng(27)
    x = r.normal(size=(16, 3)).astype(np.float32)
    weight = r.normal(size=(12, 6)).astype(np.float32)
    got = patch_merge(Tensor(x), 4, 4, Tensor(weight)).data
    for out_row, group in enumerate(ref_merge_order(4, 4)):
        stacked = np.concatenate([x[i] for i in group])
        want = stacked.astype(np.float64) @ weight.astype(np.float64)
        assert np.abs(got[out_row] - want).max() < 1e-5


def test_patch_merge_single_cell():
    x = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
    out = patch_merge(x, 2, 2, Tensor(np.eye(8)))
    want = np.concatenate([x.data[0], x.data[2], x.data[1], x.data[3]])
    assert np.array_equal(out.data[0], want)


# -------------------------------------------------------------------- backbone


def test_backbone_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig(image_size=30)          # not divisible by patch
    with pytest.raises(ConfigError):
        BackboneConfig(base_dim=15)            # stage dims not divisible by heads
    with pytest.raises(ConfigError):
        BackboneConfig(depths=(1,), heads=(2, 4))
    with pytest.raises(ConfigError):
        BackboneConfig(window=3)               # grid 8 not divisible
    with pytest.raises(ConfigError):
        BackboneConfig(num_classes=1)
    with pytest.raises(ConfigError):
        BackboneConfig(mlp_ratio=0.3)          # hidden width not integral


@pytest.mark.parametrize("kw, message", [
    (dict(base_dim=15, window=3), "stage 0 dim 15 not divisible by 2 heads"),
    (dict(mlp_ratio=0.3, window=3), "stage 0 hidden width 4.8 is not a positive integer"),
    (dict(image_size=36, window=3, heads=(2, 3)), "stage 1 dim 32 not divisible by 3 heads"),
    (dict(image_size=36, window=3), "stage 0 grid 9 cannot be halved for merging"),
    (dict(window=3, heads=(2, 3)), "stage 0 grid 8 not divisible by window 3"),
    (dict(image_size=16, depths=(1, 1, 1, 1), heads=(2, 4, 8, 16), window=1),
     "stage 2 grid 1 cannot be halved for merging"),
    (dict(window=0), "window must be >= 1, got 0"),
    (dict(window=-2), "window must be >= 1, got -2"),
    (dict(mlp_ratio=float("nan")), "stage 0 hidden width nan is not a positive integer"),
    (dict(mlp_ratio=float("inf")), "stage 0 hidden width inf is not a positive integer"),
    (dict(mlp_ratio=float("-inf")), "stage 0 hidden width -inf is not a positive integer"),
])
def test_backbone_config_reports_the_first_bad_stage_shape(kw, message):
    with pytest.raises(ConfigError) as err:
        BackboneConfig(**kw)
    assert str(err.value) == message


def test_stage_geometry_doubles_dims_and_halves_grid():
    cfg = BackboneConfig()
    geoms = stage_geometry(cfg)
    assert [g.dim for g in geoms] == [16, 32]
    assert [g.grid for g in geoms] == [8, 4]
    assert [g.head_dim for g in geoms] == [8, 8]
    assert [g.hidden for g in geoms] == [32, 64]


def test_backbone_forward_shapes_and_features():
    model = build_backbone(BackboneConfig(), seed=0)
    img = rng(28).random((3, 32, 32)).astype(np.float32)
    logits, features = forward_features(model, img[None])
    assert logits.shape == (1, 4)
    assert np.isfinite(logits.data).all()
    assert [f.shape for f in features] == [(64, 16), (16, 32)]


def test_backbone_build_is_seed_deterministic():
    a = build_backbone(BackboneConfig(), seed=7)
    b = build_backbone(BackboneConfig(), seed=7)
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(pa.data, pb.data)
    c = build_backbone(BackboneConfig(), seed=8)
    assert not np.array_equal(a.patch_embed.data, c.patch_embed.data)


def ref_backbone_logits(model, img):
    cfg = model.config
    x = ref_patchify(img, cfg.patch_size) @ model.patch_embed.data.astype(np.float64)
    grid = cfg.image_size // cfg.patch_size
    for s, stage in enumerate(model.stages):
        for b, blk in enumerate(stage.blocks):
            spec = WindowSpec(grid, grid, cfg.window, B.block_shift(cfg, grid, b))
            x = ref_block(x, blk, spec)
        if stage.merge is not None:
            merged = []
            for group in ref_merge_order(grid, grid):
                merged.append(np.concatenate([x[i] for i in group]))
            x = np.stack(merged) @ stage.merge.data.astype(np.float64)
            grid //= 2
    x = ref_layer_norm(x, model.final_gain.data, model.final_bias.data)
    return x.mean(axis=0) @ model.head.data.astype(np.float64)


def test_backbone_matches_full_reference_composition():
    cfg = BackboneConfig(depths=(2, 1), heads=(2, 4), window=2)
    model = build_backbone(cfg, seed=3)
    img = rng(29).random((3, 32, 32)).astype(np.float32)
    logits = forward_batch(model, img[None])
    want = ref_backbone_logits(model, img)
    assert np.abs(logits.data[0] - want).max() < 1e-4


def test_backbone_alternating_blocks_shift(monkeypatch):
    cfg = BackboneConfig(depths=(2, 2), heads=(2, 4), window=2)
    model = build_backbone(cfg, seed=0)
    shifts = []
    block_forward = B.block_forward

    def spy(x, bp, spec, *args, **kwargs):
        shifts.append(spec.shift)
        return block_forward(x, bp, spec, *args, **kwargs)

    monkeypatch.setattr(B, "block_forward", spy)
    forward_batch(model, np.zeros((1, 3, 32, 32), dtype=np.float32))
    assert shifts == [0, 1, 0, 1]


def test_forward_batch_stacks_single_image_rows():
    model = build_backbone(BackboneConfig(), seed=1)
    imgs = rng(30).random((3, 3, 32, 32)).astype(np.float32)
    batched = forward_batch(model, imgs).data
    for i in range(3):
        single = forward_batch(model, imgs[i][None])
        assert np.array_equal(batched[i], single.data[0])


def test_backbone_with_pruned_site_dims():
    site_dims = {"stage0.block0.attn": 3, "stage0.block0.mlp": 10}
    model = Backbone(BackboneConfig(), site_dims=site_dims,
                     rng=np.random.default_rng(5))
    blk = model.stages[0].blocks[0]
    assert blk.attn.wq[0].shape == (16, 3)
    assert blk.attn.wo.shape == (6, 16)
    assert blk.attn.scale_dim == 8
    assert blk.mlp.w1.shape == (16, 10)
    img = rng(31).random((3, 32, 32)).astype(np.float32)
    logits = forward_batch(model, img[None])
    assert np.isfinite(logits.data).all()


def test_relative_position_bias_participates():
    cfg = BackboneConfig(use_relative_position_bias=True)
    model = build_backbone(cfg, seed=2)
    names = [n for n, _ in model.named_parameters()]
    assert "stage0.block0.attn.rpb0" in names
    img = rng(32).random((3, 32, 32)).astype(np.float32)
    with Tape() as tape:
        logits = forward_batch(model, img[None])
        loss = T.sum_all(logits)
    backward(loss, tape)
    rpb = model.stages[0].blocks[0].attn.rpb[0]
    assert rpb.grad is not None
    assert np.abs(rpb.grad).max() > 0


def test_scores_of_ones_leave_model_output_bitwise():
    cfg = BackboneConfig(depths=(2, 1), heads=(2, 4))
    model = build_backbone(cfg, seed=4)
    ones = {}
    for s, stage in enumerate(model.stages):
        for b, blk in enumerate(stage.blocks):
            ones[f"stage{s}.block{b}.attn"] = Tensor(np.ones(blk.attn.head_dim))
            ones[f"stage{s}.block{b}.mlp"] = Tensor(np.ones(blk.mlp.w1.shape[1]))
    img = rng(33).random((3, 32, 32)).astype(np.float32)
    plain = forward_batch(model, img[None])
    scored = forward_batch(model, img[None], scores=ones)
    assert np.array_equal(plain.data, scored.data)


# ------------------------------------------------------- batched attention core


def ref_position_bias(table, window):
    """[M^2 x M^2] bias: entry (i, j) reads the table at token i's offset from j."""
    coords = [(r, c) for r in range(window) for c in range(window)]
    span = 2 * window - 1
    return np.array([[table[(ri - rj + window - 1) * span + (ci - cj + window - 1)]
                      for (rj, cj) in coords] for (ri, ci) in coords])


def test_wmsa_stacked_images_shifted_with_bias_match_reference():
    r = rng(34)
    p = make_attn(r, d=4, heads=2, k=2, rpb_window=2)
    spec = WindowSpec(4, 4, 2, 1)
    x = r.normal(size=(2 * 16, 4)).astype(np.float32)
    alpha = r.normal(1.0, 0.3, size=2).astype(np.float32)
    got = wmsa_forward(Tensor(x), p, spec, Tensor(alpha)).data
    wq, wk, wv, wo = attn_arrays(p)
    biases = [ref_position_bias(t.data[:, 0], 2) for t in p.rpb]
    order = ref_partition_order(4, 4, 2, 1)
    masks = ref_window_masks(4, 4, 2, 1)
    want = np.empty((32, 4))
    for image in range(2):
        rows_x = x[image * 16:(image + 1) * 16]
        for widx in range(4):
            rows = order[widx * 4:(widx + 1) * 4]
            want[image * 16 + rows] = ref_msa(rows_x[rows], wq, wk, wv, wo, scale_dim=2,
                                              alpha=alpha, mask=masks[widx], rpb=biases)
    assert np.abs(got - want).max() < 1e-5


def test_attention_core_gradients_through_a_shift_mask_match_finite_differences():
    # alpha scales the Q/K/V product's columns, repeated over q/k/v and heads
    r = rng(36)
    heads, k, m, windows, d = 2, 3, 4, 4, 4
    x = w(r, 2 * windows * m, d)
    wqkv = w(r, d, 3 * heads * k)
    alpha = Tensor(r.normal(1.0, 0.3, size=k).astype(np.float32), requires_grad=True)
    table = w(r, 9, heads)
    shift = B._shift_mask(4, 4, 2, 1, heads)
    c1 = Tensor(r.normal(size=(heads * k, 1)).astype(np.float32))
    c2 = Tensor(r.normal(size=(2 * windows * m, 1)).astype(np.float32))

    def build():
        bias = T.reshape(T.transpose(T.gather_rows(table, B._relative_index(2))),
                         (heads, m, m))
        qkv = T.reshape(T.matmul(x, wqkv, alpha), (2, windows, m, 3, heads, k))
        out = T.attention_core(qkv, 0.5, T.add(shift, bias))
        return T.sum_all(T.matmul(T.transpose(T.matmul(out, c1)), c2))

    with Tape() as tape:
        loss = build()
    backward(loss, tape)
    check = rng(37)
    for leaf in (x, wqkv, alpha, table):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        assert_grad_matches(lambda: build().item(), leaf.data, leaf.grad, check, points=6)


def test_wmsa_score_and_bias_gradients_with_a_shift_match_finite_differences():
    r = rng(38)
    p = make_attn(r, d=4, heads=2, k=2, rpb_window=2)
    spec = WindowSpec(4, 4, 2, 1)
    x = Tensor(r.normal(size=(2 * 16, 4)).astype(np.float32))
    alpha = Tensor(r.normal(1.0, 0.3, size=2).astype(np.float32), requires_grad=True)
    c1 = Tensor(r.normal(size=(4, 1)).astype(np.float32))
    c2 = Tensor(r.normal(size=(32, 1)).astype(np.float32))

    def build():
        out = wmsa_forward(x, p, spec, alpha)
        return T.sum_all(T.matmul(T.transpose(T.matmul(out, c1)), c2))

    with Tape() as tape:
        loss = build()
    backward(loss, tape)
    check = rng(39)
    for leaf in (alpha, p.rpb[0], p.rpb[1]):
        assert leaf.grad is not None
        assert_grad_matches(lambda: build().item(), leaf.data, leaf.grad, check, points=6)


def recorded_ops(tape):
    """Names of the ops whose pulls the tape holds, one per record."""
    return [pulls[0][1].__qualname__.split(".")[0] for _, pulls in tape._nodes]


def test_attention_core_and_wmsa_record_one_attention_core_op():
    r = rng(40)
    qkv = Tensor(r.normal(size=(3, 5, 3, 1, 4)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        T.attention_core(qkv, 0.5, Tensor(np.zeros((3, 1, 5, 5)), requires_grad=True))
    plain = recorded_ops(tape)
    p = make_attn(r, d=4, heads=2, k=2)
    with Tape() as tape:
        wmsa_forward(Tensor(r.normal(size=(32, 4))), p, WindowSpec(4, 4, 2, 1),
                     Tensor(np.ones(2), requires_grad=True))
    windowed = recorded_ops(tape)
    assert plain == ["attention_core"]
    assert windowed.count("attention_core") == 1
    assert not {"scale", "transpose"} & set(windowed), windowed
    assert windowed.count("matmul") == 2        # Q/K/V in, output projection out


def search_step_tape_records(batch, heads, image_size):
    cfg = BackboneConfig(image_size=image_size, depths=(2, 2), heads=heads)
    scored = attach_scores(build_backbone(cfg, seed=0))
    imgs = rng(35).random((batch, 3, image_size, image_size)).astype(np.float32)
    with Tape() as tape:
        logits = forward_batch(scored.model, imgs, scores=scored.score_map())
        total_loss(logits, np.arange(batch) % cfg.num_classes, scored.scores, 1e-3)
    return len(tape._nodes)


def test_search_step_tape_size_is_independent_of_batch_heads_and_windows():
    counts = {(batch, heads, size): search_step_tape_records(batch, heads, size)
              for batch, heads, size in [(1, (2, 4), 32), (8, (2, 4), 32),
                                         (8, (4, 8), 32), (8, (2, 4), 64)]}
    assert len(set(counts.values())) == 1, counts
    assert counts[(8, (2, 4), 32)] == 69


def test_scores_add_no_tape_record_to_the_forward():
    # each score is folded into its site's product: a scored step records
    # what an unscored one does, plus the loss's l1 term (l1_norm, scale, add)
    cfg = BackboneConfig(depths=(2, 2))
    scored = attach_scores(build_backbone(cfg, seed=0))
    imgs = rng(36).random((8, 3, 32, 32)).astype(np.float32)
    labels = np.arange(8) % cfg.num_classes

    def records(scores):
        with Tape() as tape:
            logits = forward_batch(scored.model, imgs,
                                   scores=scored.score_map() if scores else None)
            total_loss(logits, labels, scored.scores if scores else [], 1e-3)
        return len(tape._nodes)

    assert records(True) == records(False) + 3


@pytest.mark.parametrize("rpb", [False, True])
def test_backbone_from_params_takes_each_array_by_name(rpb):
    cfg = BackboneConfig(depths=(2, 1), use_relative_position_bias=rpb)
    img = rng(41).random((3, 32, 32)).astype(np.float32)
    for dims in ({}, {"stage0.block1.attn": 3, "stage1.block0.mlp": 10}):
        model = Backbone(cfg, site_dims=dims, rng=np.random.default_rng(40))
        names = [name for name, _ in model.named_parameters()]
        assert len(set(names)) == len(names)
        arrays = {name: t.data for name, t in model.named_parameters()}
        back = Backbone(cfg, site_dims=dims, params=arrays)
        named = back.named_parameters()
        assert [name for name, _ in named] == names
        assert all(t.data is arrays[name] and t.requires_grad for name, t in named)
        assert np.array_equal(forward_batch(back, img[None]).data,
                              forward_batch(model, img[None]).data)


def test_backbone_from_params_names_every_fault():
    cfg = BackboneConfig()
    arrays = {name: t.data for name, t in build_backbone(cfg, seed=42).named_parameters()}
    del arrays["head"]
    arrays["stage0.block0.mlp.w1"] = np.zeros((2, 2), dtype=np.float32)
    arrays["bogus"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(DimensionError) as err:
        Backbone(cfg, params=arrays)
    msg = str(err.value)
    assert "missing ['head']" in msg and "unexpected ['bogus']" in msg
    assert "('stage0.block0.mlp.w1', (2, 2))" in msg


def test_backbone_from_params_builds_nothing_the_config_size_for_a_fault():
    # every entry is misshaped against a config of base_dim 2**40; a
    # placeholder for even one of them would need terabytes
    cfg = BackboneConfig()
    arrays = {name: t.data for name, t in build_backbone(cfg, seed=42).named_parameters()}
    with pytest.raises(DimensionError) as err:
        Backbone(dataclasses.replace(cfg, base_dim=2 ** 40), params=arrays)
    msg = str(err.value)
    assert "missing [], unexpected []" in msg
    assert "('patch_embed', (48, 16))" in msg and "('head', (32, 4))" in msg


# ------------------------------------------------------------- numeric checks


def test_a_value_only_the_softmax_check_sees_is_named_at_its_site(monkeypatch):
    # -inf in a relative-position table reaches the logits only through the
    # mask, and exp(-inf) = 0 turns it finite: the logits cannot show it
    cfg = BackboneConfig(depths=(2, 2), use_relative_position_bias=True)
    model = build_backbone(cfg, seed=5)
    dict(model.named_parameters())["stage0.block1.attn.rpb0"].data[4, 0] = -np.inf
    imgs = np.random.default_rng(6).normal(size=(2, 3, 32, 32)).astype(np.float32)
    with pytest.raises(NumericError, match=r"softmax input .* in site stage0\.block1\.attn$"):
        forward_batch(model, imgs)

    checked = T._finite_or_raise

    def without_softmax_check(arr, what):
        if what != "softmax input":
            checked(arr, what)

    monkeypatch.setattr(T, "_finite_or_raise", without_softmax_check)
    assert np.isfinite(forward_batch(model, imgs).data).all()


def assert_thread_state_is_default():
    assert (T._state.tape, T._state.site, T._state.deferred) == (None, None, False)
    nan = np.ones((2, 2), dtype=np.float32)
    nan[1, 0] = np.nan
    with pytest.raises(NumericError, match=r"matmul output .* in site stage1\.block0\.mlp"):
        with T.mac_scope("stage1.block0.mlp"):
            T.matmul(Tensor(nan), Tensor(np.ones((2, 2))))
    with Tape():
        pass


def test_a_failed_forward_or_backward_restores_the_thread_state():
    model = build_backbone(BackboneConfig(depths=(2, 2)), seed=7)
    dict(model.named_parameters())["stage1.block1.mlp.w2"].data[3, 1] = np.inf
    imgs = np.random.default_rng(8).normal(size=(2, 3, 32, 32)).astype(np.float32)
    with Tape():
        with pytest.raises(NumericError, match=r"matmul output .* in site stage1\.block1\.mlp$"):
            forward_batch(model, imgs)
    assert_thread_state_is_default()
    # a finite forward whose gradient overflows: the head's input gradient
    # is g @ head^T, and a head entry near the float32 maximum overflows it
    model = build_backbone(BackboneConfig(depths=(2, 2)), seed=7)
    model.head.data[0, 0] = 3e38
    imgs = np.zeros((1, 3, 32, 32), dtype=np.float32)
    with Tape() as tape:
        loss = T.sum_all(T.scale(forward_batch(model, imgs), 1e3))
    assert np.isfinite(loss.item())
    with pytest.raises(NumericError, match="gradient of a .* leaf"):
        backward(loss, tape)
    assert_thread_state_is_default()


def count_guards(monkeypatch):
    """Count numpy error-state blocks entered and finiteness scans run."""
    counts = {"errstate": 0, "isfinite": 0}
    errstate, isfinite = np.errstate, np.isfinite

    def errstate_spy(**kwargs):
        counts["errstate"] += 1
        return errstate(**kwargs)

    def isfinite_spy(arr):
        counts["isfinite"] += 1
        return isfinite(arr)

    monkeypatch.setattr(np, "errstate", errstate_spy)
    monkeypatch.setattr(np, "isfinite", isfinite_spy)
    return counts


def test_a_finite_step_and_eval_run_no_per_product_scan(monkeypatch):
    # a tiny step runs 19 forward matmuls, 8 attention products and their
    # gradient products; none of them opens an error state or scans
    cfg = BackboneConfig(depths=(2, 2))
    scored = attach_scores(build_backbone(cfg, seed=9))
    imgs = np.random.default_rng(10).normal(size=(64, 3, 32, 32)).astype(np.float32)
    labels = np.arange(64) % cfg.num_classes
    passes = []
    features = B._features
    monkeypatch.setattr(B, "_features", lambda *a: passes.append(1) or features(*a))
    counts = count_guards(monkeypatch)
    with Tape() as tape:
        logits = forward_batch(scored.model, imgs[:8], scores=scored.score_map())
        loss = total_loss(logits, labels[:8], scored.scores, 1e-3)
    backward(loss, tape)
    # error states: the forward, each of the 4 softmaxes, the backward;
    # scans: the logits, the 4 softmax inputs, the cross-entropy logits and
    # one pack of the 24096 leaf gradient entries
    assert counts == {"errstate": 6, "isfinite": 7}
    counts.update(errstate=0, isfinite=0)
    forward_batch(scored.model, imgs, scores=scored.score_map())
    assert counts == {"errstate": 5, "isfinite": 5}
    assert len(passes) == 2                 # no replay
