"""Minimal reverse-mode autodiff over numpy arrays.

Values are stored as 32-bit floats. GEMMs and reductions accumulate in 64
bits before casting back; elementwise ops (GELU among them) run in 32 bits,
as does the optimizer. Operations executed inside an active ``Tape`` context
record how to pull gradients back to their inputs; ``backward`` replays the
records in reverse. A tape belongs to one thread and can be consumed by
exactly one backward pass.

Shapes are explicit: there is no general broadcasting. The only shape-mixing
allowed is ``add`` of a tensor equal to the other's trailing axes (a row
bias is the 1-D case). Ops that act on rows act on the last axis of any
rank, and ``matmul`` multiplies the last two axes of stacks with equal
leading axes, so a batch of attention groups is one call.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, NumericError, UsageError

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
# Beyond this |x| the GELU tanh is exactly +-1 in float32 (its argument
# exceeds 9), so clipping x there in the cubic changes no value or gradient
# and keeps x**3 and x**2 from overflowing.
_GELU_SATURATED = 10.0

_state = threading.local()


def _tape():
    return getattr(_state, "tape", None)


def _counters():
    stack = getattr(_state, "mac_counters", None)
    if stack is None:
        stack = []
        _state.mac_counters = stack
    return stack


class Tensor:
    """A float32 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if any(s < 1 for s in arr.shape):
            raise DimensionError(f"shape entries must be >= 1, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, shape is {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one backward pass.

    Use as a context manager; operations run inside the block are recorded.
    Inputs of every record precede it, so reverse order is a valid
    backpropagation schedule.
    """

    def __init__(self):
        self._nodes = []
        self._consumed = False
        self._active = False

    def __enter__(self):
        if _tape() is not None:
            raise UsageError("a tape is already active on this thread")
        if self._consumed:
            raise UsageError("tape was already consumed by backward")
        _state.tape = self
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        self._active = False
        return False

    def _record(self, out: Tensor, pulls):
        self._nodes.append((out, pulls))


def _finite_or_raise(arr, what: str):
    if not np.isfinite(arr).all():
        site = getattr(_state, "site", None)
        where = f" in site {site}" if site is not None else ""
        raise NumericError(f"{what} contains non-finite values{where}")


def _record(out: Tensor, pulls):
    tape = _tape()
    if tape is not None and out.requires_grad:
        tape._record(out, pulls)


def _wants_grad(*tensors: Tensor) -> bool:
    return _tape() is not None and any(t.requires_grad for t in tensors)


def _accumulate(t: Tensor, delta):
    if t.grad is None:
        t.grad = np.array(delta, dtype=np.float32)
    else:
        t.grad = t.grad + delta.astype(np.float32)


def backward(loss: Tensor, tape: Tape):
    """Run reverse-mode accumulation from a scalar loss through the tape."""
    if tape._consumed:
        raise UsageError("tape was already consumed by backward")
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    for out, pulls in reversed(tape._nodes):
        g = out.grad
        if g is None:
            continue
        for inp, pull in pulls:
            if inp.requires_grad:
                _accumulate(inp, pull(g))
    tape._nodes.clear()


class MacCounter:
    """Accumulates multiply-accumulate counts from matmul calls.

    ``scopes`` maps each ``mac_scope`` name entered while the counter was
    active to the MACs counted inside it.
    """

    def __init__(self):
        self.macs = 0
        self.scopes = {}


@contextmanager
def count_macs():
    """Count matmul MACs executed inside the block (nesting adds to all)."""
    counter = MacCounter()
    _counters().append(counter)
    try:
        yield counter
    finally:
        _counters().pop()


@contextmanager
def mac_scope(name: str):
    """Attribute the MACs counted inside the block to ``name`` in every active
    counter, and name it in a NumericError raised inside. Attribution happens
    at the scope's boundaries, so matmul does no per-call bookkeeping for it."""
    start = [(c, c.macs) for c in _counters()]
    outer = getattr(_state, "site", None)
    _state.site = name
    try:
        yield
    finally:
        _state.site = outer
    for c, macs in start:
        c.scopes[name] = c.scopes.get(name, 0) + c.macs - macs


def _check_2d(t: Tensor, name: str):
    if t.data.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {t.shape}")


# ---------------------------------------------------------------- arithmetic


def _product32(a64, b64, what: str):
    """float64 product rounded to float32, rejecting non-finite entries.

    The product and the cast run with overflow and invalid-value warnings
    off: an inf input or an overflow becomes inf or NaN, which the check
    turns into NumericError without a stray RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (a64 @ b64).astype(np.float32)
    _finite_or_raise(out, what)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading axes must be equal (no
    broadcasting). Counts batch*m*k*p MACs and accumulates in float64."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul needs equal leading axes: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    *lead, m, k = a.shape
    p = b.shape[-1]
    macs = math.prod(lead) * m * k * p
    for c in _counters():
        c.macs += macs
    a64 = a.data.astype(np.float64)
    b64 = b.data.astype(np.float64)
    # Every input entry reaches some output entry (inf * 0 is NaN), so one
    # check of the output also catches non-finite inputs and float32 overflow.
    out = Tensor(_product32(a64, b64, "matmul output"), requires_grad=_wants_grad(a, b))
    if out.requires_grad:
        _record(out, [
            (a, lambda g: _product32(g.astype(np.float64), b64.swapaxes(-1, -2),
                                     "matmul lhs gradient")),
            (b, lambda g: _product32(a64.swapaxes(-1, -2), g.astype(np.float64),
                                     "matmul rhs gradient")),
        ])
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also equal ``a``'s trailing axes (a row bias
    is the 1-D case), and its gradient then sums over the leading axes."""
    if a.shape == b.shape:
        out = Tensor(a.data + b.data, requires_grad=_wants_grad(a, b))
        _record(out, [(a, lambda g: g), (b, lambda g: g)])
        return out
    lead = a.data.ndim - b.data.ndim
    if b.data.ndim >= 1 and lead > 0 and a.shape[lead:] == b.shape:
        out = Tensor(a.data + b.data, requires_grad=_wants_grad(a, b))
        _record(out, [
            (a, lambda g: g),
            (b, lambda g: g.sum(axis=tuple(range(lead)), dtype=np.float64).astype(np.float32)),
        ])
        return out
    raise DimensionError(f"add shapes are incompatible: {a.shape} vs {b.shape}")


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply every entry by a Python scalar."""
    f = float(factor)
    out = Tensor(a.data * np.float32(f), requires_grad=_wants_grad(a))
    _record(out, [(a, lambda g: g * np.float32(f))])
    return out


def scale_columns(x: Tensor, v: Tensor) -> Tensor:
    """Multiply entry i of x's last axis by v[i] (right-multiply by diag(v))."""
    if v.data.ndim != 1 or v.shape[0] != x.shape[-1]:
        raise DimensionError(f"scale_columns needs v of length {x.shape[-1]}, got {v.shape}")
    out = Tensor(x.data * v.data, requires_grad=_wants_grad(x, v))
    if out.requires_grad:
        xd, vd = x.data, v.data
        lead = tuple(range(x.data.ndim - 1))
        _record(out, [
            (x, lambda g: g * vd),
            (v, lambda g: (g * xd).sum(axis=lead, dtype=np.float64).astype(np.float32)),
        ])
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    """Reorder axes as ``np.transpose`` does; the default swaps a 2-D tensor."""
    if axes is None:
        _check_2d(a, "transpose input")
        axes = (1, 0)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"transpose axes {axes} do not reorder shape {a.shape}")
    back = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes), requires_grad=_wants_grad(a))
    _record(out, [(a, lambda g: g.transpose(back))])
    return out


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape
    out = Tensor(a.data.reshape(shape), requires_grad=_wants_grad(a))
    _record(out, [(a, lambda g: g.reshape(old))])
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate 2-D tensors along rows (axis 0) or the last dim (axis 1/-1)."""
    ts = list(tensors)
    if not ts:
        raise UsageError("concat needs at least one tensor")
    for t in ts:
        _check_2d(t, "concat input")
    if axis in (1, -1):
        axis = 1
        rows = ts[0].shape[0]
        if any(t.shape[0] != rows for t in ts):
            raise DimensionError(f"concat axis=1 row counts differ: {[t.shape for t in ts]}")
    elif axis == 0:
        cols = ts[0].shape[1]
        if any(t.shape[1] != cols for t in ts):
            raise DimensionError(f"concat axis=0 col counts differ: {[t.shape for t in ts]}")
    else:
        raise UsageError(f"concat axis must be 0 or 1, got {axis}")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis), requires_grad=_wants_grad(*ts))
    if out.requires_grad:
        pulls = []
        offset = 0
        for t in ts:
            width = t.shape[axis]
            lo, hi = offset, offset + width

            def pull(g, lo=lo, hi=hi, ax=axis):
                return g[lo:hi] if ax == 0 else g[:, lo:hi]

            pulls.append((t, pull))
            offset += width
        _record(out, pulls)
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _check_2d(x, "slice_rows input")
    if not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice_rows [{start}:{stop}] out of range for shape {x.shape}")
    n = x.shape[0]
    out = Tensor(x.data[start:stop], requires_grad=_wants_grad(x))
    if out.requires_grad:
        def pull(g):
            full = np.zeros((n, g.shape[1]), dtype=np.float32)
            full[start:stop] = g
            return full
        _record(out, [(x, pull)])
    return out


def permute_rows(x: Tensor, perm) -> Tensor:
    """Reorder rows by a permutation: out[i] = x[perm[i]]."""
    _check_2d(x, "permute_rows input")
    perm = np.asarray(perm, dtype=np.int64)
    if perm.ndim != 1 or perm.shape[0] != x.shape[0] or len(np.unique(perm)) != x.shape[0]:
        raise DimensionError(f"permute_rows needs a permutation of {x.shape[0]} rows")
    out = Tensor(x.data[perm], requires_grad=_wants_grad(x))
    if out.requires_grad:
        def pull(g):
            back = np.zeros_like(g)
            back[perm] = g
            return back
        _record(out, [(x, pull)])
    return out


def gather_rows(x: Tensor, indices) -> Tensor:
    """Pick rows by index, repeats allowed; gradient scatter-adds."""
    _check_2d(x, "gather_rows input")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.min(initial=0) < 0 or (idx.size and idx.max() >= x.shape[0]):
        raise DimensionError(f"gather_rows indices out of range for shape {x.shape}")
    rows = x.shape[0]
    out = Tensor(x.data[idx], requires_grad=_wants_grad(x))
    if out.requires_grad:
        def pull(g):
            back = np.zeros((rows, g.shape[1]), dtype=np.float32)
            np.add.at(back, idx, g)
            return back
        _record(out, [(x, pull)])
    return out


# ---------------------------------------------------------------- reductions


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.float32(x.data.sum(dtype=np.float64)), requires_grad=_wants_grad(x))
    _record(out, [(x, lambda g: np.full(x.shape, g.reshape(()), dtype=np.float32))])
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = Tensor(np.float32(x.data.mean(dtype=np.float64)), requires_grad=_wants_grad(x))
    _record(out, [(x, lambda g: np.full(x.shape, g.reshape(()) / np.float32(n), dtype=np.float32))])
    return out


def mean_rows(x: Tensor) -> Tensor:
    """Mean over axis -2 (the rows of each trailing matrix), kept as one row."""
    if x.data.ndim < 2:
        raise DimensionError(f"mean_rows input must have at least 2 axes, got shape {x.shape}")
    n = x.shape[-2]
    out_data = x.data.mean(axis=-2, keepdims=True, dtype=np.float64).astype(np.float32)
    out = Tensor(out_data, requires_grad=_wants_grad(x))
    _record(out, [(x, lambda g: np.repeat(g / np.float32(n), n, axis=-2))])
    return out


def l1_norm(x: Tensor) -> Tensor:
    """Sum of absolute values; the subgradient at 0 is 0."""
    out = Tensor(np.float32(np.abs(x.data).sum(dtype=np.float64)), requires_grad=_wants_grad(x))
    if out.requires_grad:
        sign = np.sign(x.data)
        _record(out, [(x, lambda g: (g.reshape(()) * sign).astype(np.float32))])
    return out


# ------------------------------------------------------------- nonlinearities


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by its max; float32 with the
    row sums accumulated in float64."""
    _finite_or_raise(x.data, "softmax input")
    with np.errstate(over="ignore"):    # x - max below -float32 max is -inf, exp 0
        e = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    out = Tensor(e, requires_grad=_wants_grad(x))
    if out.requires_grad:
        y = out.data

        def pull(g):
            gy = g * y
            dot = gy.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
            gy -= dot * y
            return gy

        _record(out, [(x, pull)])
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalisation of a 2-D tensor with learned gain and bias.

    Row statistics (squares included) accumulate in float64, and x - mean is
    formed in float64 and rounded once, so a large row mean costs no
    precision and a large row does not overflow; the rest is float32."""
    _check_2d(x, "layer_norm input")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xd = x.data
    mu = xd.mean(axis=1, keepdims=True, dtype=np.float64)
    xhat = np.empty_like(xd)
    np.subtract(xd, mu, out=xhat, casting="same_kind")
    var = np.square(xhat, dtype=np.float64).mean(axis=1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    xhat *= inv
    out = Tensor(xhat * gain.data + bias.data, requires_grad=_wants_grad(x, gain, bias))
    if out.requires_grad:
        gd = gain.data

        def pull_x(g):
            gy = g * gd
            m1 = gy.mean(axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
            m2 = (gy * xhat).mean(axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
            gy -= m1
            gy -= xhat * m2
            gy *= inv
            return gy

        _record(out, [
            (x, pull_x),
            (gain, lambda g: (g * xhat).sum(axis=0, dtype=np.float64).astype(np.float32)),
            (bias, lambda g: g.sum(axis=0, dtype=np.float64).astype(np.float32)),
        ])
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation, in float32.

    Both directions work in place on fresh float32 buffers: a temporary per
    term would cost more than the arithmetic on large hidden layers."""
    xd = x.data
    t = np.clip(xd, -_GELU_SATURATED, _GELU_SATURATED)
    cubic = t * t
    cubic *= t
    cubic *= _GELU_CUBIC
    t += cubic
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    y = t + 1.0
    y *= 0.5                        # before x: x * 2 overflows near float32 max
    y *= xd
    out = Tensor(y, requires_grad=_wants_grad(x))
    if out.requires_grad:
        def pull(g):
            du = np.clip(xd, -_GELU_SATURATED, _GELU_SATURATED)
            np.square(du, out=du)
            du *= 3.0 * _GELU_CUBIC * _SQRT_2_OVER_PI
            du += _SQRT_2_OVER_PI
            local = t * t
            np.subtract(1.0, local, out=local)
            local *= xd                 # zero wherever tanh saturated
            local *= du
            local += t
            local += 1.0
            local *= 0.5
            local *= g
            return local
        _record(out, [(x, pull)])
    return out


def cross_entropy_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy between logit rows and integer class labels."""
    _check_2d(logits, "cross_entropy logits")
    _finite_or_raise(logits.data, "cross_entropy logits")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise UsageError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    z = logits.data.astype(np.float64)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(n), labels]
    out = Tensor(np.float32((lse - picked).mean()), requires_grad=_wants_grad(logits))
    if out.requires_grad:
        probs = np.exp(z - lse[:, None])

        def pull(g):
            grad = probs.copy()
            grad[np.arange(n), labels] -= 1.0
            return (g.reshape(()) * grad / n).astype(np.float32)

        _record(out, [(logits, pull)])
    return out
