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
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 4.0]])
    assert T.concat([a, b], axis=0).data.tolist() == [[1, 2], [3, 4]]
    assert T.concat([a, b], axis=-1).data.tolist() == [[1, 2, 3, 4]]


def test_slice_rows_values_and_bounds():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    assert np.array_equal(T.slice_rows(x, 1, 3).data, x.data[1:3])
    with pytest.raises(DimensionError):
        T.slice_rows(x, 2, 5)


def test_permute_rows_roundtrip_bitwise():
    x = Tensor(rng(5).normal(size=(6, 2)))
    perm = rng(6).permutation(6)
    inv = np.argsort(perm)
    back = T.permute_rows(T.permute_rows(x, perm), inv)
    assert np.array_equal(back.data, x.data)


def test_permute_rows_rejects_non_permutation():
    with pytest.raises(DimensionError):
        T.permute_rows(Tensor(np.ones((3, 1))), [0, 0, 2])


def test_gather_rows_with_repeats():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
    out = T.gather_rows(x, [2, 0, 2])
    assert out.data.tolist() == [[4, 5], [0, 1], [4, 5]]


def test_scale_columns_matches_diag_product():
    x = rng(7).normal(size=(3, 4)).astype(np.float32)
    v = rng(8).normal(size=4).astype(np.float32)
    got = T.scale_columns(Tensor(x), Tensor(v)).data
    want = x.astype(np.float64) @ np.diag(v.astype(np.float64))
    assert np.abs(got - want).max() < 1e-6


def test_scale_columns_by_ones_is_bitwise_identity():
    x = rng(9).normal(size=(5, 3)).astype(np.float32)
    out = T.scale_columns(Tensor(x), Tensor(np.ones(3)))
    assert np.array_equal(out.data, x)


# ----------------------------------------------------------------- reductions


def test_sum_mean_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert T.sum_all(x).item() == 10.0
    assert T.mean_all(x).item() == 2.5
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


# -------------------------------------------------------------- nonlinearities


def test_softmax_uniform_rows():
    out = T.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    assert np.abs(out.data - 1.0 / 3.0).max() < 1e-7


def test_softmax_frozen_example():
    out = T.softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
    want = [0.09003057, 0.24472847, 0.66524096]
    assert np.abs(out.data[0] - want).max() < 1e-6


def test_softmax_survives_large_equal_logits():
    out = T.softmax_rows(Tensor([[1000.0, 1000.0]]))
    assert np.abs(out.data - 0.5).max() < 1e-7


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        T.softmax_rows(Tensor([[np.inf, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one_and_positive(rows):
    out = T.softmax_rows(Tensor(np.array(rows, dtype=np.float32))).data
    assert np.all(out > 0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6


def test_softmax_matches_reference():
    x = rng(10).normal(size=(4, 6)).astype(np.float32)
    got = T.softmax_rows(Tensor(x)).data
    assert np.abs(got - ref_softmax(x)).max() < 1e-6


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
        probs = T.softmax_rows(Tensor(logits)).data
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
        loss = T.sum_all(T.scale_columns(row, x))
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


def test_grad_scale_columns_both_inputs():
    x = leaf(rng(34).normal(size=(4, 3)))
    v = leaf(rng(35).normal(size=3))
    c1 = Tensor(rng(36).normal(size=(3, 1)))
    c2 = Tensor(rng(37).normal(size=(4, 1)))
    fd_check(lambda: proj_loss(T.scale_columns(x, v), c1, c2), [x, v], 38)


def test_grad_concat_slice_permute_gather():
    x = leaf(rng(39).normal(size=(4, 3)))
    y = leaf(rng(40).normal(size=(2, 3)))
    perm = rng(41).permutation(6)
    c1 = Tensor(rng(42).normal(size=(6, 1)))
    c2 = Tensor(rng(43).normal(size=(3, 1)))

    def build():
        joined = T.concat([x, y], axis=0)
        shuffled = T.permute_rows(joined, perm)
        picked = T.gather_rows(shuffled, [0, 2, 2, 5])
        wide = T.concat([picked, picked], axis=-1)
        return proj_loss(T.slice_rows(wide, 0, 3), c1, c2)

    fd_check(build, [x, y], 44)


def test_grad_reductions():
    x = leaf(rng(45).normal(size=(3, 5)))

    def build():
        a = T.sum_all(x)
        b = T.mean_all(x)
        c = T.sum_all(T.mean_rows(x))
        return T.add(T.add(a, b), c)

    fd_check(build, [x], 46)


def test_grad_l1_away_from_zero():
    x = leaf(rng(47).normal(size=(4,)) + 2.0)
    fd_check(lambda: T.l1_norm(x), [x], 48)


def test_grad_softmax():
    x = leaf(rng(49).normal(size=(3, 4)))
    c1 = Tensor(rng(50).normal(size=(4, 1)))
    c2 = Tensor(rng(51).normal(size=(3, 1)))
    fd_check(lambda: proj_loss(T.softmax_rows(x), c1, c2), [x], 52)


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
    x = Tensor(rng(74).normal(size=(2, 3, 4)))
    assert np.array_equal(T.transpose(x, (2, 0, 1)).data, x.data.transpose(2, 0, 1))
    with pytest.raises(DimensionError):
        T.transpose(x)                   # the default needs a 2-D tensor
    with pytest.raises(DimensionError):
        T.transpose(x, (0, 1, 1))


def test_nd_rows_ops_match_per_matrix_results():
    x = rng(75).normal(size=(2, 3, 4, 5)).astype(np.float32)
    v = rng(76).normal(size=5).astype(np.float32)
    soft = T.softmax_rows(Tensor(x)).data
    scaled = T.scale_columns(Tensor(x), Tensor(v)).data
    means = T.mean_rows(Tensor(x)).data
    assert means.shape == (2, 3, 1, 5)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(soft[i, j], T.softmax_rows(Tensor(x[i, j])).data)
            assert np.array_equal(scaled[i, j], T.scale_columns(Tensor(x[i, j]), Tensor(v)).data)
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
    x = leaf(rng(82).normal(size=(2, 3, 4)))
    fd_check(lambda: flat_loss(T.transpose(x, (2, 0, 1)), 83), [x], 85)


def test_grad_add_trailing_axes():
    x = leaf(rng(86).normal(size=(2, 3, 4)))
    b = leaf(rng(87).normal(size=(3, 4)))
    fd_check(lambda: flat_loss(T.add(x, b), 88), [x, b], 90)


def test_grad_softmax_4d():
    x = leaf(rng(91).normal(size=(2, 2, 3, 4)))
    fd_check(lambda: flat_loss(T.softmax_rows(x), 92), [x], 94)


def test_grad_scale_columns_nd():
    x = leaf(rng(95).normal(size=(2, 3, 4)))
    v = leaf(rng(96).normal(size=4))
    fd_check(lambda: flat_loss(T.scale_columns(x, v), 97), [x, v], 99)


def test_grad_mean_rows_nd():
    x = leaf(rng(100).normal(size=(2, 3, 4)))
    fd_check(lambda: flat_loss(T.mean_rows(x), 101), [x], 103)
