import inspect
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimprune.errors import DimensionError, NumericError, UsageError
from dimprune import tensor as T
from dimprune.tensor import Tape, Tensor, backward

from oracles import (
    assert_grad_matches,
    naive_matmul,
    ref_cross_entropy,
    ref_gelu,
    ref_layer_norm,
    ref_softmax,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


def proj_loss(out, c1, c2):
    """Rank-one weighted sum of a 2-D tensor, as an on-tape scalar."""
    col = T.matmul(out, c1)           # [n x 1]
    row = T.matmul(T.transpose(col), c2)  # [1 x 1]
    return T.sum_all(row)


# ---------------------------------------------------------------- construction


def test_tensor_is_float32_row_major():
    t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert t.data.dtype == np.float32
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 3)


def test_zero_sized_dims_rejected():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 0)))


# --------------------------------------------------------------------- matmul


def test_matmul_identity():
    x = Tensor(rng(1).normal(size=(4, 4)))
    eye = Tensor(np.eye(4))
    assert np.array_equal(T.matmul(x, eye).data, x.data)


def test_matmul_small_case():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_naive_loops():
    a = rng(2).normal(size=(3, 4)).astype(np.float32)
    b = rng(3).normal(size=(4, 5)).astype(np.float32)
    got = T.matmul(Tensor(a), Tensor(b)).data
    want = naive_matmul(a, b)
    assert np.abs(got - want).max() < 1e-5


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_rejects_non_finite():
    bad = np.ones((2, 2), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        T.matmul(Tensor(bad), Tensor(np.ones((2, 2))))


def test_matmul_rejects_float32_overflow_from_finite_inputs():
    big = Tensor(np.full((1, 2), 3e38, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        T.matmul(big, T.transpose(big))


def chunk_rows(k, p):
    """Rows per chunk of a 2-D [m, k] @ [k, p] forward product; it chunks
    when narrow and m is at least two of these."""
    return max(2, T._CHUNK_BYTES // (8 * (k + p)))


def count_chunked(monkeypatch):
    """Count the forward products that take the chunked path."""
    calls = []
    chunked = T._chunked_product

    def spy(a, b, chunks, what):
        calls.append(chunks)
        return chunked(a, b, chunks, what)

    monkeypatch.setattr(T, "_chunked_product", spy)
    return calls


@pytest.mark.parametrize("k, p, narrow", [(16, 48, True), (32, 96, True),
                                          (96, 384, False), (384, 96, False)])
def test_forward_product_bits_equal_the_one_shot_product(monkeypatch, k, p, narrow):
    assert (k * p <= T._NARROW * (k + p)) == narrow
    calls = count_chunked(monkeypatch)
    rows = chunk_rows(k, p)
    b = rng(k).normal(size=(k, p)).astype(np.float32)
    for m in (rows - 1, rows, rows + 1, 2 * rows + 3):
        a = (rng(m).normal(size=(m, k)) * 10.0 ** rng(m + 1).integers(
            -3, 4, size=(m, k))).astype(np.float32)
        want = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        before = len(calls)
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert got.dtype == np.float32 and np.array_equal(got, want)
        assert len(calls) - before == (narrow and m >= 2 * rows)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_chunked_product_names_a_non_finite_operand_and_its_site(monkeypatch, bad):
    calls = count_chunked(monkeypatch)
    rows = chunk_rows(16, 48)
    a = rng(40).normal(size=(2 * rows + 3, 16)).astype(np.float32)
    a[rows + 7, 3] = bad
    b = rng(41).normal(size=(16, 48)).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="matmul output .* in site stage0.block1.mlp"):
            with T.mac_scope("stage0.block1.mlp"):
                T.matmul(Tensor(a), Tensor(b))
        with pytest.raises(NumericError, match="matmul output"):
            T.matmul(Tensor(a.clip(-1, 1)), Tensor(np.where(np.arange(48) == 5, bad, b)))
    assert calls == [2, 2]


def test_tiny_batch_of_64_chunks_and_each_row_equals_its_image_alone(monkeypatch):
    from dimprune.blocks import BackboneConfig, build_backbone, forward_batch

    cfg = BackboneConfig(depths=(2, 2))
    model = build_backbone(cfg, seed=3)
    imgs = rng(42).normal(size=(64, 3, 32, 32)).astype(np.float32)
    calls = count_chunked(monkeypatch)
    batched = forward_batch(model, imgs).data
    assert len(calls) == 18       # every product but the [64, 32] @ [32, 4] head
    for i in range(64):
        assert np.array_equal(batched[i], forward_batch(model, imgs[i:i + 1]).data[0])
    assert len(calls) == 18


def test_mac_counter_counts_mkp():
    with T.count_macs() as c:
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))))
    assert c.macs == 2 * 3 * 5


def test_mac_counters_nest():
    with T.count_macs() as outer:
        T.matmul(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 1))))
        with T.count_macs() as inner:
            T.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
    assert inner.macs == 8
    assert outer.macs == 2 + 8


def test_mac_scope_restores_the_outer_site_and_credits_nothing_when_its_body_raises():
    with T.count_macs() as c:
        with T.mac_scope("outer"):
            with pytest.raises(ValueError):
                with T.mac_scope("inner"):
                    T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))))
                    assert T._state.site == "inner"
                    raise ValueError("body failed")
            assert T._state.site == "outer"
        assert T._state.site is None
    assert c.macs == 30
    assert c.scopes == {"outer": 30}


# ------------------------------------------------------------------- plumbing


def test_add_same_shape_and_bias():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.add(x, x).data, 2 * x.data)
    biased = T.add(x, Tensor([10.0, 20.0]))
    assert biased.data.tolist() == [[11.0, 22.0], [13.0, 24.0]]


def test_add_rejects_general_broadcast():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


def test_transpose_reshape_roundtrip_bitwise():
    x = Tensor(rng(4).normal(size=(3, 5)))
    assert np.array_equal(T.transpose(T.transpose(x)).data, x.data)
    assert np.array_equal(T.reshape(T.reshape(x, (5, 3)), (3, 5)).data, x.data)


def test_reshape_size_mismatch():
    with pytest.raises(DimensionError):
        T.reshape(Tensor(np.ones((2, 3))), (4, 2))


def test_concat_rows_and_cols():
    a = Tensor([[1.0, 2.0], [5.0, 6.0]])
    b = Tensor([[3.0], [4.0]])
    assert T.concat([a, b]).data.tolist() == [[1, 2, 3], [5, 6, 4]]
    with pytest.raises(DimensionError):      # columns join rows of equal count
        T.concat([a, Tensor([[3.0, 4.0]])])
    with pytest.raises(DimensionError):
        T.concat([a, Tensor([1.0, 2.0])])


def test_permute_rows_roundtrip_bitwise():
    x = Tensor(rng(5).normal(size=(6, 2)))
    perm = rng(6).permutation(6)
    inv = np.argsort(perm)
    back = T.permute_rows(T.permute_rows(x, perm), inv)
    assert np.array_equal(back.data, x.data)


@pytest.mark.parametrize("rows, d", [(1, 3), (7, 2), (4096, 16), (3136, 96)])
def test_permute_rows_forward_and_gradient_equal_fancy_indexing_and_scatter(rows, d):
    x = leaf(rng(rows).normal(size=(rows, d)))
    perm = rng(rows + 1).permutation(rows)
    g = rng(rows + 2).normal(size=(rows, d)).astype(np.float32)
    with Tape() as tape:
        out = T.permute_rows(x, perm)
    (_, [(_, pull)]), = tape._nodes
    scattered = np.zeros_like(g)
    scattered[perm] = g
    assert np.array_equal(out.data, x.data[perm]) and out.data.flags.c_contiguous
    assert np.array_equal(pull(g), scattered)


def test_permute_rows_rejects_non_permutation():
    x = Tensor(np.ones((3, 1)))
    for perm in ([0, 0, 2],             # duplicate
                 [0, 1, -1],            # negative: must not wrap to the last row
                 [0, 1, 3],             # out of range
                 [0, 1, 2 ** 40],       # far out of range
                 [-(2 ** 40), 1, 2],
                 [0, 1],                # too short
                 [0, 1, 2, 3],          # too long
                 [[0, 1, 2]],           # not 1-D
                 []):
        with pytest.raises(DimensionError):
            T.permute_rows(x, perm)


@pytest.mark.parametrize("op, indices", [
    (T.permute_rows, [0.2, 2.9, 1.5]),      # a cast would read [0, 2, 1]
    (T.permute_rows, [0.0, 2.0, 1.0]),      # integral floats are floats too
    (T.permute_rows, [True, False, True]),
    (T.gather_rows, [1.9, 0.7]),            # a cast would read rows 1 and 0
    (T.gather_rows, np.array([2.0], dtype=np.float32)),
    (T.gather_rows, [False, True]),
])
def test_row_ops_reject_non_integer_indices(op, indices):
    x = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
    with pytest.raises(DimensionError, match=f"{op.__name__} needs integer indices"):
        op(x, indices)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_row_ops_take_any_integer_index_dtype(dtype):
    x = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
    assert T.permute_rows(x, np.array([2, 0, 1], dtype=dtype)).data.tolist() == \
        [[4, 5], [0, 1], [2, 3]]
    assert T.gather_rows(x, np.array([1, 1], dtype=dtype)).data.tolist() == [[2, 3], [2, 3]]


def test_permutation_holds_a_read_only_order_and_its_inverse():
    raw = np.array([2, 0, 3, 1])
    perm = T.Permutation(raw)
    assert raw.flags.writeable                  # the caller's array is not frozen
    assert perm.order.tolist() == [2, 0, 3, 1]
    assert perm.inverse.tolist() == np.argsort(raw).tolist()
    assert perm.order.dtype == perm.inverse.dtype == np.int64
    assert not perm.order.flags.writeable and not perm.inverse.flags.writeable
    inverse = perm.inverted()
    assert inverse.order is perm.inverse and inverse.inverse is perm.order
    x = leaf(rng(7).normal(size=(4, 3)))
    g = rng(8).normal(size=(4, 3)).astype(np.float32)
    with Tape() as tape:
        out = T.permute_rows(x, perm)
    (_, [(_, pull)]), = tape._nodes
    assert np.array_equal(out.data, x.data[raw])
    assert np.array_equal(pull(g), g[perm.inverse])
    assert np.array_equal(T.permute_rows(out, inverse).data, x.data)
    with pytest.raises(DimensionError, match="permutation of 3 rows, got one of 4"):
        T.permute_rows(Tensor(np.ones((3, 2))), perm)


def test_gather_rows_with_repeats():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
    out = T.gather_rows(x, [2, 0, 2])
    assert out.data.tolist() == [[4, 5], [0, 1], [4, 5]]


def test_scaled_matmul_matches_diag_product():
    x = rng(7).normal(size=(3, 4)).astype(np.float32)
    b = rng(11).normal(size=(4, 4)).astype(np.float32)
    v = rng(8).normal(size=4).astype(np.float32)
    got = T.matmul(Tensor(x), Tensor(b), Tensor(v)).data
    want = x.astype(np.float64) @ b.astype(np.float64) @ np.diag(v.astype(np.float64))
    assert np.abs(got - want).max() < 1e-6


@pytest.mark.parametrize("m, k, p", [(5, 3, 6), (2 * chunk_rows(16, 48) + 3, 16, 48)])
def test_scaled_matmul_by_ones_gives_the_plain_product_bitwise(m, k, p):
    a = rng(9).normal(size=(m, k)).astype(np.float32)
    b = rng(10).normal(size=(k, p)).astype(np.float32)
    plain = T.matmul(Tensor(a), Tensor(b)).data
    for n in (p, p // 3):
        assert np.array_equal(T.matmul(Tensor(a), Tensor(b), Tensor(np.ones(n))).data, plain)


def order_sensitive(r, rows, n):
    """float32 columns whose entries of +-2**60 cancel exactly, so which of
    the small entries survive the float64 sum, and so its float32 value,
    depends on the order of the additions."""
    a = r.normal(size=(rows, n))
    quarter = rows // 4
    for j in range(n):
        pos = r.permutation(rows)[:2 * quarter]
        a[pos[:quarter], j] = 2.0 ** 60
        a[pos[quarter:], j] = -2.0 ** 60
    if n > 1:
        a[:, 0] = -0.0      # a sum of -0.0 entries is +0.0 on both paths
    return a.astype(np.float32)


def periodic_columns(r, rows, n):
    """Columns of +2**60, s, -2**60, s, ...: a sum in row order keeps every
    s that follows a -2**60, numpy's pairwise sum of one column keeps none."""
    a = r.uniform(0.5, 1.5, size=(rows, n))
    a[0::4] = 2.0 ** 60
    a[2::4] = -2.0 ** 60
    return a.astype(np.float32)


def test_order_sensitive_columns_tell_summation_orders_apart():
    a = order_sensitive(rng(1), 1000, 8)
    assert not np.array_equal(a.sum(axis=0, dtype=np.float64).astype(np.float32),
                              a[::-1].sum(axis=0, dtype=np.float64).astype(np.float32))
    a = periodic_columns(rng(1), 1000, 1)
    assert (a.sum(dtype=np.float64) == 0.0
            and np.einsum("ij->j", a, dtype=np.float64)[0] > 100.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 31, 49, 64, 96, 128, 192, 384, 768])
def test_column_sums_equal_numpy_float64_sums_over_leading_axes(n):
    r = rng(n)
    for rows in (1, 2, 3, 4, 17, 127, 128, 129, 1000, 4097, 12000):
        if rows * n > 1_600_000:
            continue
        spread = r.normal(size=(rows, n)) * 10.0 ** r.uniform(-8, 8, size=(rows, n))
        for a in (order_sensitive(r, rows, n), periodic_columns(r, rows, n),
                  spread.astype(np.float32)):
            want = a.sum(axis=0, dtype=np.float64).astype(np.float32)
            got = T._column_sums(a, n)
            assert got.dtype == np.float32 and np.array_equal(got, want), (rows, n)
    # 1-5 leading axes, and the mask pull's [images, windows, heads, m, m]
    for shape in [(2, 3, 5, 4, n), (3, 2, 2, 3, 5, n), (3, 1, 7, n), (8, 16, 2, 4, 4)]:
        a = order_sensitive(r, math.prod(shape[:-1]), shape[-1]).reshape(shape)
        for lead in range(1, len(shape)):
            want = a.sum(axis=tuple(range(lead)), dtype=np.float64).astype(np.float32)
            got = T._column_sums(a, math.prod(shape[lead:])).reshape(shape[lead:])
            assert np.array_equal(got, want), (shape, lead)


# ------------------------------------------------------------ scored product


def repeated(s, p):
    """A length-n scale repeated over p columns: column j takes s[j % n]."""
    return np.tile(s, p // s.shape[0])


def scaled_pulls(a, b, s, g):
    """The forward and the a, b and scale pulls of matmul(a, b, s)."""
    with Tape() as tape:
        out = T.matmul(leaf(a), leaf(b), leaf(s))
    (_, pulls), = tape._nodes
    return [out.data] + [pull(g) for _, pull in pulls]


def scale_grad_reference(a, b, g, n):
    """The scale's gradient: numpy's float64 sums of (a^T g) * b, the
    float32 product a^T g widened, over the leading axis of their [-1, n]
    view (b's rows and its repeated column groups)."""
    prods = (a.T @ g).astype(np.float64) * b.astype(np.float64)
    return prods.reshape(-1, n).sum(axis=0).astype(np.float32)


# [m, k] @ [k, p] with a scale of length n: the tiny model's stage-0
# attention (48 columns repeating a score of 8) and MLP, Swin-T's stage-0
# attention (288 columns repeating 32), a full-length score of 384, and tall
# narrow products that run in row chunks
SCALED_SHAPES = [(128, 16, 48, 8), (128, 16, 32, 32), (49, 96, 288, 32), (64, 96, 384, 384),
                 (2 * chunk_rows(16, 48) + 3, 16, 48, 8),
                 (2 * chunk_rows(16, 48) + 3, 16, 48, 48)]


@pytest.mark.parametrize("m, k, p, n", SCALED_SHAPES)
def test_scaled_product_bits_equal_the_float64_formula(monkeypatch, m, k, p, n):
    calls = count_chunked(monkeypatch)
    r = rng(m + k + p + n)
    a = (r.normal(size=(m, k)) * 10.0 ** r.integers(-3, 4, size=(m, k))).astype(np.float32)
    b = r.normal(size=(k, p)).astype(np.float32)
    s = r.normal(size=n).astype(np.float32)
    want = (a.astype(np.float64) @ (b.astype(np.float64) * repeated(s, p))).astype(np.float32)
    got = T.matmul(Tensor(a), Tensor(b), Tensor(s)).data
    assert got.dtype == np.float32 and got.flags.c_contiguous and np.array_equal(got, want)
    assert len(calls) == (m >= 2 * chunk_rows(k, p))


@pytest.mark.parametrize("m, k, p, n", SCALED_SHAPES)
def test_scaled_product_pulls_equal_the_formulas_bitwise(m, k, p, n):
    r = rng(m + k + p + n)
    a, b, g = normal32(r, m, k), normal32(r, k, p), normal32(r, m, p)
    s = normal32(r, n)
    sp = repeated(s, p)
    want = [(g * sp) @ b.T, (a.T @ g) * sp, scale_grad_reference(a, b, g, n)]
    for name, got, ref in zip(("a pull", "b pull", "scale pull"), scaled_pulls(a, b, s, g)[1:],
                              want):
        assert got.dtype == np.float32 and got.shape == ref.shape, name
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("k, p, n", [(16, 48, 8), (32, 96, 96), (8, 4, 1), (32, 64, 1)])
def test_scale_gradient_equals_numpy_float64_sums_on_order_sensitive_data(k, p, n):
    # a permutation matrix makes a^T g an exact row permutation of g, so the
    # products G * b are g's order-sensitive entries, b being ones
    r = rng(k + p + n)
    a = np.eye(k, dtype=np.float32)[r.permutation(k)]
    b = np.ones((k, p), dtype=np.float32)
    for g in (order_sensitive(r, k * p // n, n), periodic_columns(r, k * p // n, n)):
        g = g.reshape(k, p)
        got = scaled_pulls(a, b, normal32(r, n), g)[3]
        assert np.array_equal(got, scale_grad_reference(a, b, g, n))


def test_scaled_matmul_rejects_a_scale_that_does_not_fit():
    a2, b2 = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 6)))
    a3, b3 = Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 6)))
    for a, b, s in [(a2, b2, np.ones(4)), (a2, b2, np.ones(12)), (a2, b2, np.ones((2, 3))),
                    (a3, b3, np.ones(6)), (a3, b3, np.ones(3))]:
        with pytest.raises(DimensionError, match="matmul scale"):
            T.matmul(a, b, Tensor(s))


# ----------------------------------------------------------------- reductions


def test_sum_mean_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert T.sum_all(x).item() == 10.0
    assert T.mean_rows(x).data.tolist() == [[2.0, 3.0]]


def test_l1_norm_values():
    assert T.l1_norm(Tensor([0.0, 0.0])).item() == 0.0
    assert T.l1_norm(Tensor([1.0, -2.0, 3.0])).item() == 6.0


def test_l1_norm_subgradient_sign_and_zero():
    x = leaf([1.5, -2.0, 0.0])
    with Tape() as tape:
        loss = T.l1_norm(x)
    backward(loss, tape)
    assert x.grad.tolist() == [1.0, -1.0, 0.0]


def test_l1_norm_of_several_tensors_is_one_record_with_the_bits_of_the_add_chain():
    r = rng(12)
    arrays = [(r.normal(size=n) * 10.0 ** r.uniform(-4, 4, size=n)).astype(np.float32)
              for n in (8, 64, 1, 16, 128)]
    arrays[2][0] = 0.0

    def run(build):
        xs = [leaf(a) for a in arrays]
        with Tape() as tape:
            loss = T.scale(build(xs), 1e-3)
        records = len(tape._nodes)
        backward(loss, tape)
        return loss.data, [x.grad for x in xs], records

    def chain(xs):
        total = T.l1_norm(xs[0])
        for x in xs[1:]:
            total = T.add(total, T.l1_norm(x))
        return total

    value, grads, records = run(lambda xs: T.l1_norm(*xs))
    value_chain, grads_chain, _ = run(chain)
    assert records == 2
    assert value.dtype == np.float32 and np.array_equal(value, value_chain)
    for a, b in zip(grads, grads_chain):
        assert a.dtype == np.float32 and np.array_equal(a, b)
    with pytest.raises(UsageError):
        T.l1_norm()


# -------------------------------------------------------------- nonlinearities


# The softmax has no op of its own: ``attention_core`` runs ``T._softmax``
# on its logits and ``T._softmax_grad`` in its pull, so both are checked here.


def softmax(rows):
    return T._softmax(np.asarray(rows, dtype=np.float32))


def test_softmax_uniform_rows():
    out = softmax([[0.0, 0.0, 0.0]])
    assert out.dtype == np.float32
    assert np.abs(out - 1.0 / 3.0).max() < 1e-7


def test_softmax_frozen_example():
    out = softmax([[1.0, 2.0, 3.0]])
    want = [0.09003057, 0.24472847, 0.66524096]
    assert np.abs(out[0] - want).max() < 1e-6


def test_softmax_survives_large_equal_logits():
    out = softmax([[1000.0, 1000.0]])
    assert np.abs(out - 0.5).max() < 1e-7


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        softmax([[np.inf, 0.0]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one_and_positive(rows):
    out = softmax(rows)
    assert np.all(out > 0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6


def test_softmax_matches_reference():
    x = rng(10).normal(size=(4, 6)).astype(np.float32)
    got = softmax(x)
    assert np.abs(got - ref_softmax(x)).max() < 1e-6


# Row lengths on both sides of the one crossover, tensor._SHORT_ROW: a max
# and a float64 sum run across a transposed copy through 24 entries.
ROW_LENGTHS = (4, 16, 24, 25, 31, 32, 48, 49, 96)


def test_row_reduce_on_both_sides_of_the_crossover():
    for n in ROW_LENGTHS:
        x = (rng(n).normal(size=(3, 5, 4, n)) * 10.0 ** rng(n + 1).integers(
            -3, 4, size=(3, 5, 4, n))).astype(np.float32)
        assert np.array_equal(T._reduce_rows(np.maximum, x), x.max(axis=-1, keepdims=True))
        sums = T._reduce_rows(np.add, x, np.float64)
        exact = x.astype(np.float64).sum(axis=-1, keepdims=True)
        assert sums.dtype == np.float64 and sums.shape == (3, 5, 4, 1)
        assert np.all(np.abs(sums - exact) <= 1e-13 * np.abs(x).sum(axis=-1, keepdims=True))


def test_short_row_sums_add_in_order_whatever_the_row_count():
    for n in (4, 16, 24):
        for rows in (1, 2, 3, 100, 10000):
            x = (rng(rows).normal(size=(rows, n)) * 10.0 ** rng(n).integers(
                -3, 4, size=(rows, n))).astype(np.float32)
            want = x[:, 0].astype(np.float64)
            for i in range(1, n):
                want = want + x[:, i]
            assert np.array_equal(T._reduce_rows(np.add, x, np.float64)[:, 0], want)


def test_short_row_softmax_on_the_copy_gives_the_bits_of_the_row_ops():
    """A short row's softmax, its max and sum taken across a transposed
    copy, gives the bits of the subtract, exp and divide run on the rows,
    with the row's sum added in order. A lone row, whose transpose is
    already contiguous, is not written in place."""
    for n in (1, 2, 4, 16, 24):
        for shape in ((5, 3, 7, n), (1, n)):
            x = (rng(n).normal(size=shape) * 8.0).astype(np.float32)
            x.reshape(-1)[::5] = -1.0e4
            before = x.copy()
            e = x - x.max(axis=-1, keepdims=True)
            np.exp(e, out=e)
            total = e[..., :1].astype(np.float64)
            for i in range(1, n):
                total = total + e[..., i:i + 1]
            e /= total.astype(np.float32)
            got = T._softmax(x)
            assert got.flags.c_contiguous and np.array_equal(got, e)
            assert np.array_equal(x, before)


def softmax_fd_check(x, g, seed, points=8):
    """Check ``_softmax_grad`` of the output gradient g against central
    differences of sum(g * softmax(x)), taken in float64 over float32 x."""
    x = np.asarray(x, dtype=np.float32)
    g = np.asarray(g, dtype=np.float32)
    grad = T._softmax_grad(g, T._softmax(x))
    assert grad.dtype == np.float32 and grad.shape == x.shape
    gf = g.astype(np.float64)
    assert_grad_matches(lambda: float((gf * T._softmax(x)).sum()), x, grad, rng(seed),
                        points=points)


def test_softmax_matches_reference_on_both_sides_of_the_crossover():
    for n in ROW_LENGTHS:
        x = (rng(n).normal(size=(2, 3, n)) * 3.0).astype(np.float32)
        g = rng(n + 1).normal(size=(2, 3, n)).astype(np.float32)
        y = T._softmax(x)
        grad = T._softmax_grad(g, y)
        ref = ref_softmax(x.reshape(-1, n))
        assert np.abs(y.reshape(-1, n) - ref).max() < 1e-6
        gf = g.reshape(-1, n).astype(np.float64)
        ref_grad = ref * (gf - (gf * ref).sum(axis=1, keepdims=True))
        assert np.abs(grad.reshape(-1, n) - ref_grad).max() < 1e-6
        softmax_fd_check(x.reshape(6, n), g.reshape(6, n), n + 4, points=4)


def test_layer_norm_constant_row_returns_bias():
    out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)),
                       Tensor([1.0, 2.0, 3.0]))
    assert np.abs(out.data - [[1.0, 2.0, 3.0]]).max() < 1e-6


def test_layer_norm_two_point_row():
    out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.abs(out.data - [[-0.999995, 0.999995]]).max() < 1e-6


def test_layer_norm_matches_reference():
    x = rng(11).normal(size=(4, 8)).astype(np.float32)
    g = rng(12).normal(size=8).astype(np.float32)
    b = rng(13).normal(size=8).astype(np.float32)
    got = T.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    assert np.abs(got - ref_layer_norm(x, g, b)).max() < 1e-5


def layer_norm_pulls(x, gain, bias, g):
    """layer_norm's output and its three recorded pulls (x, gain, bias) of g."""
    with Tape() as tape:
        out = T.layer_norm(leaf(x), leaf(gain), leaf(bias))
    (_, pulls), = tape._nodes
    return [out.data] + [pull(g) for _, pull in pulls]


def numpy_reduce_layer_norm(x, gain, bias, g, eps=1e-5):
    """The layer-norm forward and pulls with numpy's row means: the same
    float64 statistics summed in numpy's order, the rest in float32."""
    mu = x.mean(axis=1, keepdims=True, dtype=np.float64)
    xhat = np.empty_like(x)
    np.subtract(x, mu, out=xhat, casting="same_kind")
    var = np.square(xhat, dtype=np.float64).mean(axis=1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    xhat *= inv
    gy = g * gain
    m1 = gy.mean(axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
    m2 = (gy * xhat).mean(axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
    gy -= m1
    gy -= xhat * m2
    gy *= inv
    return [xhat * gain + bias, gy,
            (g * xhat).sum(axis=0, dtype=np.float64).astype(np.float32),
            g.sum(axis=0, dtype=np.float64).astype(np.float32)]


def scaled_rows(r, rows, d):
    """float32 rows with a random scale and offset per row."""
    scale = 10.0 ** r.uniform(-3, 3, size=(rows, 1))
    offset = r.normal(size=(rows, 1)) * 10.0 ** r.uniform(-2, 3, size=(rows, 1))
    return (r.normal(size=(rows, d)) * scale + offset).astype(np.float32)


def test_layer_norm_of_stacked_rows_equals_each_row_alone_bitwise():
    """A row sum whose order depends on the rows stacked with it (a float64
    BLAS product with a ones vector sums a block's tail rows in another
    order) breaks batch invariance here. Sums of float32 entries are mostly
    exact in float64, whatever their order, so the row means are also
    checked on float64 rows whose sums round."""
    for d in (2, 7, 16, 32, 96):
        r = rng(d)
        a64 = r.normal(size=(67, d)) * 10.0 ** r.uniform(-8, 8, size=(67, d))
        means = [T._row_means(a64[i:i + 1]) for i in range(67)]
        for rows in range(1, 68):
            assert np.array_equal(T._row_means(a64[:rows]), np.concatenate(means[:rows])), \
                (d, rows)
        x = scaled_rows(r, 67, d)
        g = r.normal(size=(67, d)).astype(np.float32)
        gain = r.normal(1.0, 0.3, size=d).astype(np.float32)
        bias = r.normal(size=d).astype(np.float32)
        alone = [layer_norm_pulls(x[i:i + 1], gain, bias, g[i:i + 1])[:2] for i in range(67)]
        for rows in range(1, 68):
            out, grad = layer_norm_pulls(x[:rows], gain, bias, g[:rows])[:2]
            assert np.array_equal(out, np.concatenate([a[0] for a in alone[:rows]])), (d, rows)
            assert np.array_equal(grad, np.concatenate([a[1] for a in alone[:rows]])), (d, rows)


@pytest.mark.parametrize("rows, d", [(1, 2), (5, 7), (512, 16), (4096, 16), (1024, 32),
                                     (3136, 96), (49, 768)])
def test_layer_norm_forward_and_pulls_equal_the_numpy_reduce_formula(rows, d):
    r = rng(rows * 1000 + d)
    x = scaled_rows(r, rows, d)
    gain = r.normal(1.0, 0.3, size=d).astype(np.float32)
    bias = r.normal(size=d).astype(np.float32)
    g = r.normal(size=(rows, d)).astype(np.float32)
    got = layer_norm_pulls(x, gain, bias, g)
    want = numpy_reduce_layer_norm(x, gain, bias, g)
    for name, a, b in zip(("forward", "x pull", "gain pull", "bias pull"), got, want):
        assert a.dtype == np.float32 and np.array_equal(a, b), name


def test_gelu_frozen_points():
    pts = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0], dtype=np.float32)
    want = [-0.04540231, -0.15880801, 0.0, 0.34571401, 0.84119199, 1.95459769]
    got = T.gelu(Tensor(pts)).data
    assert np.abs(got - want).max() < 1e-6


def test_gelu_monotone_right_of_dip():
    xs = np.linspace(-0.5, 5.0, 200, dtype=np.float32)
    ys = T.gelu(Tensor(xs)).data
    assert np.all(np.diff(ys) > 0)


@pytest.mark.parametrize("value", [30.0, 1e13, 1e20, 3e38, -30.0, -1e13, -1e20, -3e38])
def test_gelu_extremes_finite_without_warning(value):
    x = leaf([value])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            y = T.gelu(x)
            loss = T.sum_all(y)
        backward(loss, tape)
    assert y.data[0] == np.float32(ref_gelu(x.data)[0])
    grad = float(x.grad[0])
    assert np.isfinite(grad) and grad in (0.0, 1.0)


def test_softmax_and_layer_norm_extremes_without_warning():
    logits = np.array([[3e38, -3e38, 0.0], [-3e38, -3e38, 1.0]], dtype=np.float32)
    rows = np.array([[1e30, -1e30, 5e29, 0.0], [3e4, 3e4 + 1, 3e4 + 2, 3e4 + 3]],
                    dtype=np.float32)
    g = rng(14).normal(size=4).astype(np.float32)
    b = rng(15).normal(size=4).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = T._softmax(logits)
        normed = T.layer_norm(Tensor(rows), Tensor(g), Tensor(b)).data
    assert np.array_equal(probs, ref_softmax(logits).astype(np.float32))
    assert np.abs(normed - ref_layer_norm(rows, g, b)).max() < 1e-5


def test_cross_entropy_frozen_example():
    loss = T.cross_entropy_with_logits(Tensor([[1.0, 2.0], [3.0, 0.0]]), [0, 1])
    assert abs(loss.item() - 2.18092452) < 1e-6


def test_cross_entropy_uniform_logits():
    loss = T.cross_entropy_with_logits(Tensor([[0.0, 0.0]]), [0])
    assert abs(loss.item() - np.log(2.0)) < 1e-6


def test_cross_entropy_matches_reference():
    z = rng(14).normal(size=(5, 7)).astype(np.float32)
    labels = rng(15).integers(0, 7, size=5)
    got = T.cross_entropy_with_logits(Tensor(z), labels).item()
    assert abs(got - ref_cross_entropy(z, labels)) < 1e-6


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(UsageError):
        T.cross_entropy_with_logits(Tensor([[0.0, 0.0]]), [2])


# ------------------------------------------------------------- tape semantics


def test_backward_of_sum_is_ones():
    x = leaf(rng(16).normal(size=(3, 4)))
    with Tape() as tape:
        loss = T.sum_all(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones((3, 4), dtype=np.float32))


def test_shared_subexpression_gradients_accumulate():
    # sum(x * x) realised through two tape paths: gradient is 2x.
    x = leaf([1.0, -2.0, 3.0])
    with Tape() as tape:
        row = T.reshape(x, (1, 3))
        loss = T.sum_all(T.matmul(Tensor([[1.0]]), row, x))
    backward(loss, tape)
    assert np.abs(x.grad - 2 * x.data).max() < 1e-6


def test_tape_consumed_once():
    x = leaf([1.0])
    with Tape() as tape:
        loss = T.sum_all(x)
    backward(loss, tape)
    with pytest.raises(UsageError):
        backward(loss, tape)
    with pytest.raises(UsageError):
        with tape:
            pass


def test_backward_requires_scalar():
    x = leaf(np.ones((2, 2)))
    with Tape() as tape:
        out = T.add(x, x)
    with pytest.raises(UsageError):
        backward(out, tape)


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(UsageError):
            with Tape():
                pass


def test_ops_outside_tape_do_not_record():
    x = leaf(np.ones((2, 2)))
    out = T.add(x, x)
    assert not out.requires_grad
    assert x.grad is None


# --------------------------------------------------------- finite differences


def fd_check(build, leaves, seed, points=8):
    """Run backward once, then compare each leaf's grad to central diffs."""
    with Tape() as tape:
        loss = build()
    backward(loss, tape)
    r = rng(seed)
    for t in leaves:
        assert t.grad is not None
        assert_grad_matches(lambda: build().item(), t.data, t.grad, r, points=points)


def test_grad_matmul():
    a = leaf(rng(20).normal(size=(3, 4)))
    b = leaf(rng(21).normal(size=(4, 2)))
    c1 = Tensor(rng(22).normal(size=(2, 1)))
    c2 = Tensor(rng(23).normal(size=(3, 1)))
    fd_check(lambda: proj_loss(T.matmul(a, b), c1, c2), [a, b], 24)


def test_grad_add_bias():
    x = leaf(rng(25).normal(size=(3, 4)))
    b = leaf(rng(26).normal(size=4))
    c1 = Tensor(rng(27).normal(size=(4, 1)))
    c2 = Tensor(rng(28).normal(size=(3, 1)))
    fd_check(lambda: proj_loss(T.add(x, b), c1, c2), [x, b], 29)


def test_grad_scale_and_reshape_and_transpose():
    x = leaf(rng(30).normal(size=(2, 6)))
    c1 = Tensor(rng(31).normal(size=(4, 1)))
    c2 = Tensor(rng(32).normal(size=(3, 1)))

    def build():
        y = T.scale(x, 1.7)
        y = T.reshape(y, (3, 4))
        return proj_loss(T.transpose(T.transpose(y)), c1, c2)

    fd_check(build, [x], 33)


def test_grad_scaled_matmul_all_inputs():
    x = leaf(rng(34).normal(size=(4, 3)))
    b = leaf(rng(134).normal(size=(3, 3)))
    v = leaf(rng(35).normal(size=3))
    c1 = Tensor(rng(36).normal(size=(3, 1)))
    c2 = Tensor(rng(37).normal(size=(4, 1)))
    fd_check(lambda: proj_loss(T.matmul(x, b, v), c1, c2), [x, b, v], 38)


def test_grad_concat_permute_gather():
    x = leaf(rng(39).normal(size=(6, 2)))
    y = leaf(rng(40).normal(size=(6, 1)))
    perm = rng(41).permutation(6)
    c1 = Tensor(rng(42).normal(size=(6, 1)))
    c2 = Tensor(rng(43).normal(size=(4, 1)))

    def build():
        joined = T.concat([x, y])
        shuffled = T.permute_rows(joined, perm)
        picked = T.gather_rows(shuffled, [0, 2, 2, 5])
        return proj_loss(T.concat([picked, picked]), c1, c2)

    fd_check(build, [x, y], 44)


def test_grad_reductions():
    x = leaf(rng(45).normal(size=(3, 5)))

    def build():
        a = T.sum_all(x)
        b = T.sum_all(T.mean_rows(x))
        return T.add(a, b)

    fd_check(build, [x], 46)


def test_grad_l1_away_from_zero():
    x = leaf(rng(47).normal(size=(4,)) + 2.0)
    fd_check(lambda: T.l1_norm(x), [x], 48)


def test_grad_softmax():
    softmax_fd_check(rng(49).normal(size=(3, 4)), rng(50).normal(size=(3, 4)), 52)


def test_grad_layer_norm_all_inputs():
    x = leaf(rng(53).normal(size=(3, 6)))
    g = leaf(rng(54).normal(size=6))
    b = leaf(rng(55).normal(size=6))
    c1 = Tensor(rng(56).normal(size=(6, 1)))
    c2 = Tensor(rng(57).normal(size=(3, 1)))
    fd_check(lambda: proj_loss(T.layer_norm(x, g, b), c1, c2), [x, g, b], 58)


def test_grad_gelu():
    x = leaf(rng(59).normal(size=(3, 4)))
    c1 = Tensor(rng(60).normal(size=(4, 1)))
    c2 = Tensor(rng(61).normal(size=(3, 1)))
    fd_check(lambda: proj_loss(T.gelu(x), c1, c2), [x], 62)


def test_grad_cross_entropy():
    z = leaf(rng(63).normal(size=(4, 5)))
    labels = rng(64).integers(0, 5, size=4)
    fd_check(lambda: T.cross_entropy_with_logits(z, labels), [z], 65)


# ------------------------------------------------------------------- N-D ops


def test_matmul_overflow_raises_without_warning():
    big = Tensor(np.full((1, 2), 3e38, dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            T.matmul(big, T.transpose(big))


def test_matmul_gradient_overflow_raises_without_warning():
    a = leaf(np.full((1, 2), 1e-20))
    b = leaf(np.full((2, 1), 3e38))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            # the forward stays finite (6e19); d/da = 10 * 3e38 overflows
            loss = T.sum_all(T.scale(T.matmul(a, b), 10.0))
        with pytest.raises(NumericError):
            backward(loss, tape)


def test_an_overflow_in_an_elementwise_gradient_raises_without_warning():
    # the forward stays finite (1e20, then 1e30); the score pull's float64
    # sum (a^T g) * b is 1e10 * 1e30, which overflows float32 as it is
    # rounded, and only the leaf check sees it
    x = leaf([[1e30]])
    v = leaf([1e-10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            loss = T.sum_all(T.scale(T.matmul(Tensor([[1.0]]), x, v), 1e10))
        with pytest.raises(NumericError, match=r"gradient of a \(1,\) leaf"):
            backward(loss, tape)
    assert (T._state.tape, T._state.site, T._state.deferred) == (None, None, False)


def test_checked_forward_replays_a_failed_pass_with_every_check_on():
    passes = []

    def forward(a, b):
        passes.append(T._state.deferred)
        with T.mac_scope("stage0.block0.mlp"):
            return (T.matmul(a, b),)

    ones = Tensor(np.ones((2, 2)))
    T.checked_forward("logits", forward, Tensor(np.ones((1, 2))), ones)
    assert passes == [True]             # a finite pass runs once
    passes.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape, T.count_macs() as counter:
            with pytest.raises(NumericError, match="matmul output .* in site stage0.block0.mlp"):
                T.checked_forward("logits", forward, leaf([[np.inf, 1.0]]), ones)
    # the replay runs with the checks on, off the tape and the counters
    assert passes == [True, False]
    assert len(tape._nodes) == 1 and counter.macs == 4
    assert (T._state.tape, T._state.site, T._state.deferred) == (None, None, False)
    # a replay in which no check fails names the pass's output
    with pytest.raises(NumericError, match="^logits contains non-finite values$"):
        T.checked_forward("logits", lambda: (Tensor([[np.nan]]),))


def test_batched_matmul_matches_per_slice_naive_loops():
    a = rng(70).normal(size=(2, 3, 4, 5)).astype(np.float32)
    b = rng(71).normal(size=(2, 3, 5, 2)).astype(np.float32)
    got = T.matmul(Tensor(a), Tensor(b)).data
    assert got.shape == (2, 3, 4, 2)
    for i in range(2):
        for j in range(3):
            assert np.abs(got[i, j] - naive_matmul(a[i, j], b[i, j])).max() < 1e-5


def test_mac_counter_counts_batched_product():
    with T.count_macs() as c:
        T.matmul(Tensor(np.ones((2, 3, 4, 5))), Tensor(np.ones((2, 3, 5, 6))))
    assert c.macs == (2 * 3) * 4 * 5 * 6


def test_matmul_rejects_mismatched_leading_axes():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(DimensionError):   # no broadcasting of a 2-D rhs
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 5))))


def test_add_trailing_axes_values_and_rejections():
    x = Tensor(rng(72).normal(size=(2, 3, 4)))
    b = Tensor(rng(73).normal(size=(3, 4)))
    assert np.array_equal(T.add(x, b).data, x.data + b.data[None])
    with pytest.raises(DimensionError):
        T.add(x, Tensor(np.ones((2, 4))))
    with pytest.raises(DimensionError):
        T.add(x, Tensor(np.float32(1.0)))


def test_transpose_axes_values_and_rejections():
    x = Tensor(rng(74).normal(size=(3, 4)))
    assert np.array_equal(T.transpose(x).data, x.data.T)
    assert T.transpose(x).data.flags["C_CONTIGUOUS"]
    with pytest.raises(DimensionError):
        T.transpose(Tensor(rng(74).normal(size=(2, 3, 4))))  # swaps 2-D only
    with pytest.raises(DimensionError):
        T.transpose(Tensor(np.ones(3)))


def test_nd_rows_ops_match_per_matrix_results():
    x = rng(75).normal(size=(2, 3, 4, 5)).astype(np.float32)
    soft = T._softmax(x)
    means = T.mean_rows(Tensor(x)).data
    assert means.shape == (2, 3, 1, 5)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(soft[i, j], T._softmax(x[i, j]))
            assert np.array_equal(means[i, j], T.mean_rows(Tensor(x[i, j])).data)


def flat_loss(out, seed):
    """proj_loss of an N-D tensor viewed as [rows x last axis]."""
    cols = out.shape[-1]
    flat = T.reshape(out, (out.size // cols, cols))
    c1 = Tensor(rng(seed).normal(size=(cols, 1)))
    c2 = Tensor(rng(seed + 1).normal(size=(flat.shape[0], 1)))
    return proj_loss(flat, c1, c2)


def test_grad_batched_matmul():
    a = leaf(rng(77).normal(size=(2, 3, 4, 5)))
    b = leaf(rng(78).normal(size=(2, 3, 5, 2)))
    fd_check(lambda: flat_loss(T.matmul(a, b), 79), [a, b], 81)


def test_grad_transpose_axes():
    x = leaf(rng(82).normal(size=(3, 5)))
    fd_check(lambda: flat_loss(T.transpose(x), 83), [x], 85)


def test_grad_add_trailing_axes():
    x = leaf(rng(86).normal(size=(2, 3, 4)))
    b = leaf(rng(87).normal(size=(3, 4)))
    fd_check(lambda: flat_loss(T.add(x, b), 88), [x, b], 90)


def test_grad_softmax_4d():
    softmax_fd_check(rng(91).normal(size=(2, 2, 3, 4)), rng(92).normal(size=(2, 2, 3, 4)), 94)


def test_grad_scaled_matmul_repeated_scale():
    # a score of length 4 repeated over 3 column groups, the product viewed
    # as [2, 3, 4] as an attention site views its Q/K/V columns
    x = leaf(rng(95).normal(size=(2, 5)))
    b = leaf(rng(195).normal(size=(5, 12)))
    v = leaf(rng(96).normal(size=4))
    fd_check(lambda: flat_loss(T.reshape(T.matmul(x, b, v), (2, 3, 4)), 97), [x, b, v], 99)


def test_grad_mean_rows_nd():
    x = leaf(rng(100).normal(size=(2, 3, 4)))
    fd_check(lambda: flat_loss(T.mean_rows(x), 101), [x], 103)


# ------------------------------------------------------------------ lean tape


def test_backward_frees_recorded_grads_and_keeps_leaf_grads():
    x = leaf(rng(104).normal(size=(4, 6)))
    w = leaf(rng(105).normal(size=(6, 6)))
    gain, bias = leaf(np.ones(6)), leaf(np.zeros(6))
    with Tape() as tape:
        h = T.gelu(T.matmul(x, w))
        y = T.layer_norm(T.add(h, x), gain, bias)
        loss = T.sum_all(T.mean_rows(y))
    outs = [out for out, _ in tape._nodes]
    assert len(outs) == 6 and outs[-1] is loss
    backward(loss, tape)
    assert tape._nodes == []
    assert [out.grad is None for out in outs] == [True] * 5 + [False]
    for t in (x, w, gain, bias):
        assert t.grad is not None and t.grad.shape == t.shape


def test_matmul_pulls_hold_no_float64_array():
    a = leaf(rng(106).normal(size=(2, 5, 3)))
    b = leaf(rng(107).normal(size=(2, 3, 4)))
    with Tape() as tape:
        T.matmul(a, b)
    (_, pulls), = tape._nodes
    held = [cell.cell_contents for _, pull in pulls for cell in pull.__closure__ or ()
            if isinstance(cell.cell_contents, np.ndarray)]
    assert held and all(arr.dtype == np.float32 for arr in held)
    assert {id(arr) for arr in held} <= {id(a.data), id(b.data)}


def test_scaled_matmul_record_holds_only_its_operands():
    # the scale is folded into the weight, so no activation-sized array of
    # the product before its scale stays on the tape
    a, b, s = leaf(normal32(rng(116), 64, 4)), leaf(normal32(rng(117), 4, 6)), leaf([1.0, 2.0])
    with Tape() as tape:
        T.matmul(a, b, s)
    (_, pulls), = tape._nodes
    held, seen = [], set()
    cells = [cell for _, pull in pulls for cell in pull.__closure__ or ()]
    while cells:
        value = cells.pop().cell_contents
        if inspect.isfunction(value) and id(value) not in seen:
            seen.add(id(value))
            cells.extend(value.__closure__ or ())
        elif isinstance(value, (np.ndarray, list)):
            held.append(value)
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    assert {id(a.data), id(b.data)} <= {id(v) for v in arrays}
    # besides the operands, only the scale repeated over b's 6 columns
    rows = [v for v in arrays if v is not a.data and v is not b.data]
    assert rows and all(np.array_equal(v, [1, 2, 1, 2, 1, 2]) for v in rows)
    # the b and scale gradients, made by the first of their pulls to run
    assert [v for v in held if isinstance(v, list)] == [[]]


def test_concat_column_gradients_are_contiguous():
    # the optimizer's elementwise passes over a strided gradient are slow
    a, b = leaf(rng(114).normal(size=(3, 2))), leaf(rng(115).normal(size=(3, 4)))
    with Tape() as tape:
        loss = T.sum_all(T.scale(T.concat([a, b]), 2.0))
    backward(loss, tape)
    for t in (a, b):
        assert t.grad.flags.c_contiguous
        assert np.array_equal(t.grad, np.full(t.shape, 2.0, dtype=np.float32))


def test_gradients_sharing_one_array_stay_right():
    # add passes one delta array to both of its inputs
    a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))
    with Tape() as tape:
        loss = T.sum_all(T.add(a, b))
    backward(loss, tape)
    assert np.shares_memory(a.grad, b.grad)
    # a later accumulation into a must leave b's gradient alone
    with Tape() as tape:
        loss = T.sum_all(T.scale(a, 2.0))
    backward(loss, tape)
    assert np.array_equal(a.grad, np.full((2, 3), 3.0, dtype=np.float32))
    assert np.array_equal(b.grad, np.ones((2, 3), dtype=np.float32))

    # one leaf twice: both deltas are the same array
    x = leaf(rng(108).normal(size=(2, 3)))
    with Tape() as tape:
        loss = T.sum_all(T.scale(T.add(x, x), 1.5))
    backward(loss, tape)
    assert np.array_equal(x.grad, np.full((2, 3), 3.0, dtype=np.float32))

    # a's first delta is shared with the output of the inner add; b's is the
    # delta that then accumulates into a
    a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))
    with Tape() as tape:
        loss = T.sum_all(T.add(T.scale(T.add(a, b), 3.0), T.scale(a, 2.0)))
    backward(loss, tape)
    assert np.array_equal(a.grad, np.full((2, 3), 5.0, dtype=np.float32))
    assert np.array_equal(b.grad, np.full((2, 3), 3.0, dtype=np.float32))


def test_tensor_read_by_two_consumers_sums_their_gradients():
    x0 = rng(109).normal(size=(3, 4))
    w = Tensor(rng(110).normal(size=(4, 4)))

    def grad_of(build):
        x = leaf(x0)
        with Tape() as tape:
            loss = build(x)
        backward(loss, tape)
        return x.grad

    both = grad_of(lambda x: T.sum_all(T.add(T.matmul(x, w), T.gelu(x))))
    first = grad_of(lambda x: T.sum_all(T.matmul(x, w)))
    second = grad_of(lambda x: T.sum_all(T.gelu(x)))
    assert np.array_equal(both, first + second)


def test_adamw_step_over_shared_gradient_equals_step_over_copies():
    from dimprune.pipeline import AdamW

    def params():
        return leaf(rng(111).normal(size=(2, 3))), leaf(rng(112).normal(size=(2, 3)))

    shared, copied = params(), params()
    g = rng(113).normal(size=(2, 3)).astype(np.float32)
    with Tape() as tape:
        loss = T.sum_all(T.matmul(T.add(*shared), Tensor(g.T)))
    backward(loss, tape)
    assert shared[0].grad is shared[1].grad
    for p in copied:
        p.grad = shared[0].grad.copy()
    grad = shared[0].grad
    before = grad.copy()
    for pair in (shared, copied):
        AdamW([("a", pair[0]), ("b", pair[1])], lr=0.1, weight_decay=0.2).step()
    assert np.array_equal(grad, before)  # the step never writes into a gradient
    assert shared[0].grad is None and shared[1].grad is None
    for got, want in zip(shared, copied):
        assert np.array_equal(got.data, want.data)


# ------------------------------------------------------------ attention core


@pytest.mark.parametrize("part, what", [(0, "attention logits"), (2, "attention output")])
def test_attention_core_names_the_site_of_a_non_finite_q_or_v(part, what):
    qkv = rng(80).normal(size=(2, 4, 3, 2, 3)).astype(np.float32)
    qkv[1, 2, part, 0, 1] = np.inf
    with T.mac_scope("stage1.block0.attn"):
        with pytest.raises(NumericError, match=f"{what} .* in site stage1.block0.attn"):
            T.attention_core(Tensor(qkv), 0.5)


def test_attention_core_counts_both_products_and_checks_its_mask():
    qkv = Tensor(rng(81).normal(size=(2, 5, 4, 3, 2, 3)))
    with T.count_macs() as c:
        out = T.attention_core(qkv, 0.5, Tensor(np.zeros((2, 4, 4))))
    assert out.shape == (2 * 5 * 4, 2 * 3)
    assert c.macs == 2 * (2 * 5 * 2) * 4 * 4 * 3
    for bad in [(5, 4, 4), (2, 4, 3), (3, 2, 5, 2, 4, 4)]:
        with pytest.raises(DimensionError):
            T.attention_core(qkv, 0.5, Tensor(np.zeros(bad)))
    with pytest.raises(DimensionError):
        T.attention_core(Tensor(np.ones((4, 2, 2, 3))), 0.5)


# qkv and mask shapes: the tiny model's stages, odd windows, Swin-T's
# stage 1 and a pruned Swin-T head width (k = 19)
ATTENTION_SHAPES = [
    ((8, 16, 4, 3, 2, 8), (16, 2, 4, 4)), ((8, 4, 4, 3, 4, 8), (4, 4, 4, 4)),
    ((3, 4, 9, 3, 2, 5), (2, 9, 9)), ((2, 4, 3, 2, 3), (2, 2, 4, 4)),
    ((1, 4, 49, 3, 3, 32), (4, 3, 49, 49)), ((2, 4, 3, 2, 3), None),
    ((1, 4, 49, 3, 3, 19), (4, 3, 49, 49)),
    # several chunks of the leading axis: the tiny model's 64-image stage 0,
    # and a count of images the chunk does not divide
    ((64, 16, 4, 3, 2, 8), (16, 2, 4, 4)), ((40, 4, 9, 3, 2, 16), (2, 9, 9))]


def order_sensitive_qkv(r, shape):
    """q/k/v entries of magnitude 1e-5 to 1e5 and either sign. In each run
    of four entries along the head axis, the last two repeat q's first two
    and negate k's, so large q*k products cancel in pairs two apart: which
    small products survive the float64 logit sum, and so its float32
    value, depends on the order of the additions."""
    qkv = r.choice([-1.0, 1.0], size=shape) * 10.0 ** r.uniform(-5, 5, size=shape)
    for j in range(shape[-1]):
        if j % 4 >= 2:
            qkv[..., 0, :, j] = qkv[..., 0, :, j - 2]
            qkv[..., 1, :, j] = -qkv[..., 1, :, j - 2]
    return qkv.astype(np.float32)


@pytest.mark.parametrize("shape, mask_shape", ATTENTION_SHAPES)
def test_attention_core_gives_the_bits_of_the_composed_ops(shape, mask_shape):
    # matmul, scale, add, the row softmax and matmul, one after another
    r = rng(82 + sum(shape))
    qkv = order_sensitive_qkv(r, shape)
    mask = None
    if mask_shape is not None:
        mask = np.where(r.random(mask_shape) < 0.3, -1e4, 0.0).astype(np.float32)
    got = T.attention_core(Tensor(qkv), 0.5, None if mask is None else Tensor(mask)).data
    *lead, m, _, h, k = shape
    q, kk, v = (qkv[..., i, :, :].swapaxes(-3, -2) for i in range(3))   # [*lead, h, m, k]
    logits = T.scale(T.matmul(Tensor(q), Tensor(kk.swapaxes(-1, -2))), 0.5)
    if mask is not None:
        logits = T.add(logits, Tensor(mask))
    heads = T.matmul(Tensor(T._softmax(logits.data)), Tensor(v))
    want = heads.data.swapaxes(-3, -2).reshape(-1, h * k)
    assert got.shape == (math.prod(lead) * m, h * k) and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_attention_output_rounding_to_inf_raises_without_warning():
    # uniform probs of float32(1/7) sum to more than 1: seven rows of v at the
    # float32 maximum give a finite float64 output that rounds to inf
    top = np.finfo(np.float32).max
    assert np.isfinite(7 * (float(np.float32(1) / np.float32(7)) * float(top)))
    qkv = np.zeros((2, 7, 3, 2, 4), dtype=np.float32)
    qkv[:, :, 2] = top
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with T.mac_scope("stage2.block1.attn"):
            with pytest.raises(NumericError,
                               match="attention output .* in site stage2.block1.attn"):
                T.attention_core(Tensor(qkv), 0.5)


def stacked_attention_pulls(qkv, factor, mask, g):
    """attention_core's pulls as one formula: q/k/v split by np.moveaxis,
    float32 gradient products, the three gradients joined by np.stack and
    the mask's summed over its repeated axes by numpy."""
    *lead, m, _, h, k = qkv.shape
    q, kk, v = (a.swapaxes(-3, -2) for a in np.moveaxis(qkv, -3, 0))
    f = np.float32(factor)
    logits = T.matmul(Tensor(q), Tensor(kk.swapaxes(-1, -2))).data * f
    if mask is not None:
        logits = logits + mask
    probs = T._softmax(logits)
    go = g.reshape(*lead, m, h, k).swapaxes(-3, -2)
    dv = probs.swapaxes(-1, -2) @ go
    ds = T._softmax_grad(go @ v.swapaxes(-1, -2), probs)
    dq, dk = (ds * f) @ kk, (ds * f).swapaxes(-1, -2) @ q
    pulls = [np.stack([a.swapaxes(-3, -2) for a in (dq, dk, dv)], axis=-3)]
    if mask is not None:
        extra = ds.ndim - mask.ndim
        pulls.append(ds.sum(axis=tuple(range(extra)), dtype=np.float64).astype(np.float32)
                     if extra else ds)
    return pulls


@pytest.mark.parametrize("shape, mask_shape", ATTENTION_SHAPES)
def test_attention_core_pulls_equal_the_stacked_formula_bitwise(shape, mask_shape):
    r = rng(sum(shape))
    qkv = r.normal(size=shape).astype(np.float32)
    mask = None
    if mask_shape is not None:
        mask = np.where(r.random(mask_shape) < 0.3, -100.0, r.normal(size=mask_shape))
        mask = mask.astype(np.float32)
    *lead, m, _, h, k = shape
    g = r.normal(size=(math.prod(lead) * m, h * k)).astype(np.float32)
    with Tape() as tape:
        T.attention_core(leaf(qkv), 0.35, None if mask is None else leaf(mask))
    (_, pulls), = tape._nodes
    got = [pull(g) for _, pull in pulls]
    want = stacked_attention_pulls(qkv, 0.35, mask, g)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.float32 and a.shape == b.shape and np.array_equal(a, b)


def image_steps(shape):
    """The images per chunk of each of attention_core's two products, for
    q/k/v of ``shape``."""
    *lead, m, _, h, k = shape
    per = [q + kt + out for q, kt, out in ((h * m * k, h * k * m, h * m * m),
                                           (h * m * m, h * m * k, h * m * k))]
    return [max(1, T._CHUNK_BYTES // (8 * math.prod(lead[1:]) * n)) for n in per]


@pytest.mark.parametrize("mask_kind", [None, "shift", "position"])
def test_chunked_attention_core_equals_the_op_on_one_image_at_a_time(mask_kind):
    """Forward and pulls over several chunks of images equal the op run on
    each image alone, bit for bit. The image's op takes the mask repeated to
    its own [windows, heads, m, m] logits, so its mask pull is that image's
    logit gradient; the batch's mask pull is their float64 sum."""
    shape = (37, 4, 9, 3, 2, 16)
    n, windows, m, _, h, k = shape
    r = rng(7)
    qkv = r.normal(size=shape).astype(np.float32)
    assert all(step < n for step in image_steps(shape))
    mask = None
    if mask_kind is not None:
        mask_shape = (windows, h, m, m) if mask_kind == "shift" else (h, m, m)
        mask = np.where(r.random(mask_shape) < 0.3, -100.0, r.normal(size=mask_shape))
        mask = mask.astype(np.float32)
    g = r.normal(size=(n * windows * m, h * k)).astype(np.float32)

    def run(q, mk, gi):
        with Tape() as tape:
            out = T.attention_core(leaf(q), 0.35, None if mk is None else leaf(mk))
        (_, pulls), = tape._nodes
        return out.data, [pull(gi) for _, pull in pulls]

    got, got_pulls = run(qkv, mask, g)
    rows = windows * m
    alone = [run(qkv[i:i + 1], None if mask is None else
                 np.ascontiguousarray(np.broadcast_to(mask, (windows, h, m, m))),
                 g[i * rows:(i + 1) * rows]) for i in range(n)]
    assert np.array_equal(got, np.concatenate([out for out, _ in alone]))
    assert np.array_equal(got_pulls[0], np.concatenate([p[0] for _, p in alone]))
    if mask is not None:
        ds = np.stack([p[1] for _, p in alone]).astype(np.float64)
        want = ds.reshape(-1, mask.size).sum(axis=0).astype(np.float32)
        assert np.array_equal(got_pulls[1], want.reshape(mask.shape))


def parent_gelu(x):
    """GELU's forward and pull as whole-array float32 steps, in the order
    the op takes them."""
    t = np.clip(x, -T._GELU_SATURATED, T._GELU_SATURATED)
    cubic = t * t
    cubic *= t
    cubic *= T._GELU_CUBIC
    t += cubic
    t *= T._SQRT_2_OVER_PI
    np.tanh(t, out=t)
    y = t + 1.0
    y *= 0.5
    y *= x

    def pull(g):
        du = np.clip(x, -T._GELU_SATURATED, T._GELU_SATURATED)
        np.square(du, out=du)
        du *= 3.0 * T._GELU_CUBIC * T._SQRT_2_OVER_PI
        du += T._SQRT_2_OVER_PI
        local = t * t
        np.subtract(1.0, local, out=local)
        local *= x
        local *= du
        local += t
        local += 1.0
        local *= 0.5
        local *= g
        return local
    return y, pull


@pytest.mark.parametrize("shape", [(5, 7), (3, 50001), (65537,)])
def test_chunked_gelu_gives_the_whole_array_bits(shape):
    """Over chunks the chunk size does not divide, with saturated, +-inf
    and NaN entries on and next to the chunk edges."""
    r = rng(11)
    x = (r.normal(size=shape) * 4).astype(np.float32)
    flat = x.reshape(-1)
    edge = T._CHUNK_BYTES // 4
    special = np.array([np.inf, -np.inf, np.nan, 3e38, -3e38, 12.0, -12.0], dtype=np.float32)
    spots = r.choice(flat.size, size=min(flat.size, 40), replace=False)
    flat[spots] = special[np.arange(spots.size) % special.size]
    for i, j in enumerate(range(edge - 3, min(edge + 4, flat.size))):
        flat[j] = special[i]
    g = r.normal(size=shape).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        want, want_pull = parent_gelu(x)
        plain = T.gelu(Tensor(x)).data
        with Tape() as tape:
            taped = T.gelu(leaf(x))
        (_, [(_, pull)]), = tape._nodes
        got_pull = pull(g)
        want_grad = want_pull(g)
    assert np.array_equal(plain, want, equal_nan=True)
    assert np.array_equal(taped.data, want, equal_nan=True)
    assert np.array_equal(got_pull, want_grad, equal_nan=True)


def test_attention_core_and_gelu_hold_one_chunk_of_temporaries():
    """At the tiny model's 64-image stage-0 shapes, no full-size temporary:
    attention holds its output, the float32 logits and probs, the softmax's
    working copies and one chunk of float64 stacks; the GELU its output
    and two chunk-sized buffers."""
    from test_data import peak_bytes
    r = rng(3)
    qkv = Tensor(r.normal(size=(64, 16, 4, 3, 2, 8)).astype(np.float32))
    mask = Tensor(np.where(r.random((16, 2, 4, 4)) < 0.3, -100.0, 0.0).astype(np.float32))
    out = T.attention_core(qkv, 0.35, mask).data
    logits = math.prod(mask.shape) * 64 * 4
    assert peak_bytes(T.attention_core, qkv, 0.35, mask) <= (
        out.nbytes + 3 * logits + T._CHUNK_BYTES + 32768)
    x = Tensor(r.normal(size=(4096, 32)).astype(np.float32))
    assert peak_bytes(T.gelu, x) <= x.data.nbytes + 2 * T._CHUNK_BYTES + 32768


# ------------------------------------------------ op outputs and pull results


def normal32(r, *shape):
    return r.normal(size=shape).astype(np.float32)


# (op, case, build): build(r) gives an op's input leaves and the call that
# runs it on them. Every op of tensor.py has a case, and an op with more than
# one code path (chunked product, einsum column sums, wide rows, short and
# long softmax rows, a repeated mask) has one per path.
OP_CASES = [
    ("matmul", "2d", lambda r: ([leaf(normal32(r, 5, 4)), leaf(normal32(r, 4, 3))], T.matmul)),
    ("matmul", "chunked", lambda r: ([leaf(normal32(r, 4096, 16)), leaf(normal32(r, 16, 16))],
                                     T.matmul)),
    ("matmul", "scaled", lambda r: ([leaf(normal32(r, 5, 4)), leaf(normal32(r, 4, 6)),
                                     leaf(normal32(r, 3))], T.matmul)),
    ("matmul", "scaled-tall", lambda r: ([leaf(normal32(r, 4096, 16)),
                                          leaf(normal32(r, 16, 48)), leaf(normal32(r, 8))],
                                         T.matmul)),
    ("matmul", "stacked", lambda r: ([leaf(normal32(r, 2, 5, 4)), leaf(normal32(r, 2, 4, 3))],
                                     T.matmul)),
    ("add", "same-shape", lambda r: ([leaf(normal32(r, 3, 4)), leaf(normal32(r, 3, 4))], T.add)),
    ("add", "trailing-axes", lambda r: ([leaf(normal32(r, 4, 3, 5)), leaf(normal32(r, 3, 5))],
                                        T.add)),
    ("add", "row-bias-einsum", lambda r: ([leaf(normal32(r, 256, 6)), leaf(normal32(r, 6))],
                                          T.add)),
    ("scale", "", lambda r: ([leaf(normal32(r, 3, 4))], lambda a: T.scale(a, 0.3))),
    ("transpose", "", lambda r: ([leaf(normal32(r, 3, 5))], T.transpose)),
    ("reshape", "", lambda r: ([leaf(normal32(r, 2, 6))], lambda a: T.reshape(a, (3, 4)))),
    ("concat", "", lambda r: ([leaf(normal32(r, 4, 2)), leaf(normal32(r, 4, 3)),
                               leaf(normal32(r, 4, 1))], lambda *ts: T.concat(ts))),
    ("permute_rows", "indices", lambda r: ([leaf(normal32(r, 5, 3))],
                                           lambda x: T.permute_rows(x, [3, 0, 4, 1, 2]))),
    ("permute_rows", "Permutation", lambda r: (
        [leaf(normal32(r, 5, 3))], lambda x: T.permute_rows(x, T.Permutation([1, 2, 0, 4, 3])))),
    ("gather_rows", "", lambda r: ([leaf(normal32(r, 5, 3))],
                                   lambda x: T.gather_rows(x, [4, 0, 4]))),
    ("sum_all", "", lambda r: ([leaf(normal32(r, 3, 4))], T.sum_all)),
    ("mean_rows", "", lambda r: ([leaf(normal32(r, 2, 5, 3))], T.mean_rows)),
    ("l1_norm", "", lambda r: ([leaf(normal32(r, 4)), leaf(normal32(r, 2, 3))], T.l1_norm)),
    ("attention_core", "short-rows-mask", lambda r: (
        [leaf(normal32(r, 2, 4, 3, 2, 3)), leaf(normal32(r, 2, 2, 4, 4))],
        lambda qkv, mask: T.attention_core(qkv, 0.5, mask))),
    ("attention_core", "repeated-mask", lambda r: (
        [leaf(normal32(r, 2, 4, 3, 2, 3)), leaf(normal32(r, 2, 4, 4))],
        lambda qkv, mask: T.attention_core(qkv, 0.5, mask))),
    ("attention_core", "long-rows", lambda r: (
        [leaf(normal32(r, 1, 2, 30, 3, 2, 4))], lambda qkv: T.attention_core(qkv, 0.5))),
    ("layer_norm", "", lambda r: ([leaf(normal32(r, 6, 5)), leaf(normal32(r, 5)),
                                   leaf(normal32(r, 5))], T.layer_norm)),
    ("gelu", "", lambda r: ([leaf(normal32(r, 4, 5) * 4)], T.gelu)),
    ("cross_entropy_with_logits", "", lambda r: (
        [leaf(normal32(r, 4, 3))], lambda z: T.cross_entropy_with_logits(z, [0, 2, 1, 2]))),
]


def test_the_op_cases_cover_every_op():
    ops = {name for name, f in vars(T).items()
           if inspect.isfunction(f) and f.__module__ == T.__name__
           and not name.startswith("_") and inspect.signature(f).return_annotation == "Tensor"}
    assert ops == {op for op, _, _ in OP_CASES}


@pytest.mark.parametrize("op, case, build", OP_CASES,
                         ids=[f"{op}-{case}" if case else op for op, case, _ in OP_CASES])
def test_every_op_returns_c_contiguous_float32_and_pulls_float32(op, case, build):
    # What lets ops skip Tensor()'s conversion and backward skip a cast.
    r = rng(len(op) + len(case))
    inputs, call = build(r)
    with Tape() as tape:
        out = call(*inputs)
    data = out.data
    assert type(data) is np.ndarray and data.dtype == np.float32
    assert data.flags.c_contiguous and 0 not in data.shape
    (recorded, pulls), = tape._nodes
    assert recorded is out and [t for t, _ in pulls] == inputs
    g = normal32(r, *data.shape)
    for t, pull in pulls:
        got = pull(g)
        assert type(got) is np.ndarray and got.dtype == np.float32
        assert got.shape == t.data.shape


# ------------------------------------------------------------ per-thread state


def run_in_thread(fn):
    """What ``fn`` returns when run in a fresh thread; an exception it
    raises is raised here."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:        # handed to the caller
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_a_fresh_thread_has_no_tape_site_or_counter():
    with Tape() as tape, T.count_macs(), T.mac_scope("stage0.block0.attn"):
        here = (T._state.tape, T._state.site, len(T._state.mac_counters))
        there = run_in_thread(
            lambda: (T._state.tape, T._state.site, list(T._state.mac_counters)))
    assert here == (tape, "stage0.block0.attn", 1)
    assert there == (None, None, [])


def test_count_macs_counts_only_its_own_threads_products():
    def other():
        with T.count_macs() as theirs:
            T.matmul(Tensor(np.ones((4, 4))), Tensor(np.ones((4, 4))))
        return theirs.macs

    with T.count_macs() as mine:
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))))
        theirs = run_in_thread(other)
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))))
    assert (mine.macs, theirs) == (60, 64)


def test_a_tape_entered_in_one_thread_is_invisible_to_another():
    x = leaf(np.ones((2, 2)))

    def other():
        out = T.add(x, x)
        with Tape() as own:                 # no tape is active in this thread
            T.add(x, x)
        return out.requires_grad, len(own._nodes)

    with Tape() as tape:
        seen = run_in_thread(other)
        T.add(x, x)
    assert seen == (False, 1)
    assert len(tape._nodes) == 1
