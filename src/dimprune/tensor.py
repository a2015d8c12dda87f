"""Minimal reverse-mode autodiff over numpy arrays.

Values are stored as 32-bit floats. Forward GEMMs and reductions accumulate
in 64 bits before casting back: a float32 GEMM sums in an order that depends
on the row count, which breaks the batch invariance
``test_forward_batch_stacks_single_image_rows`` holds. Gradient GEMMs run in
32 bits over the float32 operands the forward already holds, as elementwise
ops (GELU among them) and the optimizer do;
``test_block_gradients_match_finite_differences`` and acceptance criteria
3, 4 and 8 hold the gradients to that precision.

Every forward product goes through ``_product64``. A 2-D product [m, k] @
[k, p] that is narrow (k*p/(k+p) <= ``_NARROW``) and tall (m at least two
chunks) runs in row chunks of about ``_CHUNK_BYTES`` of float64: a chunk's
rows are cast into one float64 buffer, multiplied into a second and rounded
into the float32 output's rows, so no full-size float64 array is allocated.
Each chunk holds at least two rows, so it runs a BLAS GEMM as the one-shot
product does (numpy runs a one-row product as a GEMV). OpenBLAS does not
keep a row's float64 result apart from the rows beside it: on narrow
products the last float64 bits can differ between the one-shot product and
the same rows taken in smaller blocks. What holds is the float32 rounding:
at the chunk sizes used, the rounded chunks give the one-shot product's
float32 bits, as ``test_forward_product_bits_equal_the_one_shot_product``
and ``test_tiny_batch_of_64_chunks_and_each_row_equals_its_image_alone``
check. Every other product casts both operands whole, to C-ordered float64
arrays, and multiplies once.

Three users follow one chunk rule: no full-size temporary, and work in
chunks of about ``_CHUNK_BYTES``. ``_product64`` runs its narrow, tall
products in row chunks (above). ``attention_core`` runs its two float64
products through ``_stacked_product``, over chunks of the leading (image)
axis sized so that a chunk's float64 operands and product fit in
``_CHUNK_BYTES``; a chunk holds at least one image, so a single image
(Swin-T at B=1) is one chunk. ``gelu`` runs its forward over flat chunks of
``_CHUNK_BYTES`` of float32, reusing one chunk's buffers. Each keeps its
operations and their order, so every output bit stays: numpy multiplies
each slice of a stack alone, and GELU's steps are elementwise. What the
rule saves is page faults, not arithmetic: glibc trims the top of its heap
once more than its trim threshold lies free there (about 1.5 MB in a tiny
run), so a sub-layer whose temporaries pass that threshold faults its pages
in afresh on every forward.

Softmax reduces its rows with ``_reduce_rows``: a row of up to
``_SHORT_ROW`` entries is reduced across a transposed copy, one elementwise
pass per row position, because numpy charges a short-row reduce per row.
The max is exact either way; a sum still accumulates in float64 and adds a
short row's entries in order, whatever the number of rows stacked with it.

Layer norm's row statistics (forward mean and variance, and the two row
means of its input gradient) are float64 sums by ``np.einsum("ij->i")``:
one call of its contiguous inner loop per row, so a row's entries are added
in an order set by the row length alone, whatever the number of rows
stacked with it; on rows of 16-32 entries it is 2-4x faster than numpy's
row reduce. A float64 BLAS product with a ones vector is faster still, but
OpenBLAS sums a lone row and a block's tail rows in another order, so a
row's statistic would depend on its batch.
``test_layer_norm_of_stacked_rows_equals_each_row_alone_bitwise`` holds the
invariance on float64 rows whose sums round.

A sum over leading axes (the pulls of a trailing-axes ``add``, of layer
norm's gain and bias and of the attention mask) is ``_column_sums``: one
``np.einsum("ij->j")`` over the rows in float64. It adds each column's
entries in row order, as numpy's sum over the leading axes does, so the
bits are numpy's; on tall, narrow arrays it is up to 2x faster, because
numpy casts through a buffer and runs one inner loop per short row. numpy
sums a lone column pairwise, as a flat array, so a width of 1 keeps numpy's
sum. ``test_column_sums_equal_numpy_float64_sums_over_leading_axes`` holds
it. The scale pull of a scored product (below) sums float64 products the
same way, with ``np.einsum("ij,ij->j")``;
``test_scale_gradient_equals_numpy_float64_sums_on_order_sensitive_data``
holds it.

A scored product, ``matmul(a, b, scale)``, applies the score to the weight,
as surgery (``pruner._fold``) does, not to the product's [rows, p] output:
a [d, p] weight is smaller than a batch's activations wherever the rows
outnumber d. The forward multiplies b by the scale inside b's float64
cast, one pass writing the float64 array the product reads, which is not
copied again. Each multiply by a scale of n entries repeated over p columns
takes the scale repeated once into a row of p, made once per call: numpy
runs one inner loop per row, so [-1, n] views of short rows cost several
times more. A product of two float32 values is exact
in float64, so the scored product is rounded once, by the product; scaling
the float32 output instead rounded it twice. The record keeps only a, b
and the repeated scale. Its b and scale pulls share G = a^T g, one float32
product made once per record (as ``attention_core`` shares its logit
gradient): the scale gets the float64 sums of G * b over b's rows and
repeated column groups, and b gets G s, scaled in place once those sums
have read G; a gets (g s) b^T. Folding in float32 (b s rounded, then a
plain product) would give surgery's bits instead, but its rounding moves
``test_block_gradients_match_finite_differences`` past its tolerance.

Operations executed inside an active ``Tape`` context record how to pull
gradients back to their inputs; ``backward`` replays the records in reverse
and drops each one, with its output's gradient, once its pulls have run. A
tape belongs to one thread and can be consumed by exactly one backward pass.
Pulls read their inputs' data when backward runs. The package never writes
into an array a Tensor holds: an update builds a fresh array and rebinds
``.data`` to it (``AdamW.step`` does), so a recorded input keeps its values
until backward. Gradients may share arrays with each other, and nothing
writes into a ``.grad`` in place.

A thread's op state lives in ``_state``, a ``threading.local`` holding its
active tape, the site its innermost ``mac_scope`` names, its list of
active MAC counters and ``deferred``, set while a checked pass runs (below).
``tape`` and ``site`` default to None and ``deferred`` to False at class level,
so an op reads its tape once, in one attribute lookup, in a thread that
never entered a ``Tape`` too. An op whose output is a non-empty
C-contiguous float32 array of its own wraps it with ``_fresh``, skipping
``Tensor()``'s conversion and empty-shape check; ``transpose`` (strided),
``gather_rows`` (empty on no indices) and the scalar reductions keep
``Tensor()``. Every pull returns a float32 array of its input's shape, so
``backward`` adds gradients without a cast;
``test_every_op_returns_c_contiguous_float32_and_pulls_float32`` holds
both for every op.

Finiteness is checked once per pass, not once per op. Outside a checked
pass every product (``_product32``, ``_chunked_product``,
``_stacked_product``) runs under its own ``np.errstate`` and scans its
output, and a non-finite entry raises NumericError naming the op and the
innermost ``mac_scope`` site; so do the softmax input and the
cross-entropy logits. The forward of
``blocks.forward_features`` (through ``checked_forward``) and ``backward``
are checked passes: each runs under one ``np.errstate(over="ignore",
invalid="ignore")`` with ``deferred`` set, and the products run bare. A
forward then scans its output, the logits, once. If that scan fails, or a
check kept inside the pass raises, the same forward runs again with
``deferred`` off and no tape or MAC counter, and the first op whose check
fails raises its usual NumericError, naming the op and the site where the
value appeared; the forward is deterministic and nothing writes into a
Tensor's array, so the replay sees the first pass's values. A backward,
once every pull has run, scans the gradients of the leaves it filled
(inputs no record produced): gradients smaller than ``_SCAN_PACK`` entries
are joined into packs of at most that many, as ``AdamW`` packs them, and
each pack is scanned once; a larger gradient is scanned alone. Its error
names a leaf gradient by shape, not a gradient product or a site.
``scan_finite`` packs and scans; ``pipeline._train`` also runs it once over
the weights and scores after the last update, which no later check sees.

One scan at the end sees every non-finite value only where no op on the
way turns one finite again. These ops cannot: a product (every input entry
reaches some output entry, and inf * 0 is NaN), a scored one too (a scale
entry reaches every entry of its columns); ``add`` and ``scale`` (inf - inf
and inf * 0 are NaN); layer norm (a
non-finite entry makes its row's mean non-finite, so every entry of the
row); GELU (inf stays inf, and -inf gives 0 * -inf, NaN); ``mean_rows``;
permutes, reshapes, transposes and ``concat``, which move every entry; and
``gather_rows`` as ``wmsa_forward`` uses it, since ``_relative_index``
reaches every row of the position table. Their pulls pass a non-finite
gradient on in the same way, except that ``concat`` drops the columns of
an input that needs no gradient (the package joins only parameters): a
value dropped there reaches no leaf and changes nothing the pass returns.
The softmax can heal: exp(-inf) is 0, so a -inf logit from the mask or
the position bias leaves its row finite. Its input check stays on inside a
checked pass, and a NumericError it raises there starts the replay, so the
error names the site where the value first appeared, not a later
attention site that saw it.

``permute_rows`` reorders rows by a ``Permutation``, a checked row order
and its inverse, both read-only; raw indices become one at its top.
``blocks`` caches its window and merge permutations as Permutations, so a
forward neither checks nor inverts them again.

Shapes are explicit: there is no general broadcasting. The only shape-mixing
allowed is ``add`` of a tensor equal to the other's trailing axes (a row
bias is the 1-D case). Ops that act on rows act on the last axis of any
rank, and ``matmul`` multiplies the last two axes of stacks with equal
leading axes.

``attention_core`` is the one fused op: softmax(q k^T * s [+ mask]) v over
every group and head of an attention site (Swin's W-MSA, arXiv
2103.14030), with q, k and v stacked in one tensor and one tape record
whose pull is written out by hand (as in FlashAttention, arXiv 2205.14135,
without its tiling). Its forward takes the steps of ``matmul``, ``scale``
and ``add``, the row softmax ``_softmax`` and ``matmul``, in that order and
at their precision, so it gives the bits they give; its gradient products
are float32, as ``matmul``'s are. Its products cast the strided q, k^T and
v views, one chunk of images at a time, to C-ordered float64 stacks, the
layout ``matmul`` casts a Tensor's contiguous array to, so both run the
same float64 product. numpy
multiplies strided stacks several times slower and, at Swin-T's head
widths, adds some of their float64 sums in another order;
``test_attention_core_gives_the_bits_of_the_composed_ops`` holds the
equality on values whose sums depend on the order. The output is rounded
through its [*, heads, m, k] view straight into the [rows, heads*k] rows
it returns, so they are written once.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager, nullcontext

import numpy as np

from .errors import DimensionError, NumericError, UsageError

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
# Beyond this |x| the GELU tanh is exactly +-1 in float32 (its argument
# exceeds 9), so clipping x there in the cubic changes no value or gradient
# and keeps x**3 and x**2 from overflowing.
_GELU_SATURATED = 10.0


class _ThreadState(threading.local):
    """One thread's active tape, ``mac_scope`` site, MAC counters and
    whether a checked pass (``checked_forward`` or ``backward``) is running
    (see the module docstring)."""

    tape = None
    site = None
    deferred = False

    def __init__(self):
        self.mac_counters = []


_state = _ThreadState()


class Tensor:
    """A float32 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if 0 in arr.shape:
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

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def _fresh(data, requires_grad: bool) -> Tensor:
    """A Tensor holding ``data``, an op's own non-empty C-contiguous float32
    output, as it is: ``Tensor()``'s conversion and shape check would find
    nothing to do. ``test_every_op_returns_c_contiguous_float32_and_pulls_float32``
    holds every op that builds its output this way to that."""
    out = object.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out.grad = None
    return out


class Tape:
    """Ordered record of operations for one backward pass.

    Use as a context manager; operations run inside the block are recorded.
    Inputs of every record precede it, so reverse order is a valid
    backpropagation schedule.
    """

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        if _state.tape is not None:
            raise UsageError("a tape is already active on this thread")
        if self._consumed:
            raise UsageError("tape was already consumed by backward")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def _record(self, out: Tensor, pulls):
        self._nodes.append((out, pulls))


def _non_finite(what: str) -> NumericError:
    site = _state.site
    where = f" in site {site}" if site is not None else ""
    return NumericError(f"{what} contains non-finite values{where}")


def _finite_or_raise(arr, what: str):
    if not np.isfinite(arr).all():
        raise _non_finite(what)


def _grad_tape(*tensors: Tensor):
    """The active tape if one of ``tensors`` requires a gradient, else None:
    an op reads it once, builds its output with ``requires_grad`` set when
    it is not None and records its pulls on it."""
    tape = _state.tape
    if tape is not None:
        for t in tensors:
            if t.requires_grad:
                return tape
    return None


def _accumulate(t: Tensor, delta):
    """Add a pull's output, a float32 array of ``t``'s shape, to ``t.grad``.
    The first one is kept as it is, so a gradient may share its array with
    another tensor's or with the delta's source; nothing writes into a
    ``.grad`` in place."""
    t.grad = delta if t.grad is None else t.grad + delta


# Entries per scan of the leaf gradients at the end of ``backward``: smaller
# gradients are packed together up to this many, as ``AdamW`` packs them.
_SCAN_PACK = 1 << 16


def backward(loss: Tensor, tape: Tape):
    """Run reverse-mode accumulation from a scalar loss through the tape.

    Each record is dropped once its pulls have run, with the gradient of its
    output (the loss keeps its own), so what the forward saved is freed as
    the pass goes; leaf gradients are kept. The pulls run as one checked
    pass: one error state and no per-product scans, then one scan of the
    gradients of the leaves (inputs no record produced) the pass filled
    (see the module docstring)."""
    if tape._consumed:
        raise UsageError("tape was already consumed by backward")
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    produced = {id(out) for out, _ in nodes}
    leaves = {}
    outer, _state.deferred = _state.deferred, True
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while nodes:
                out, pulls = nodes.pop()
                g = out.grad
                if g is None:
                    continue
                for inp, pull in pulls:
                    if inp.requires_grad:
                        _accumulate(inp, pull(g))
                        if id(inp) not in produced:
                            leaves[id(inp)] = inp
                if out is not loss:
                    out.grad = None
    finally:
        _state.deferred = outer
        nodes.clear()
    grads = [t.grad for t in leaves.values()]
    scan_finite(grads, lambda i: f"gradient of a {grads[i].shape} leaf")


def scan_finite(arrays, name):
    """Raise NumericError for the first of ``arrays`` that holds a non-finite
    entry, naming it ``name(i)`` by its index. Arrays smaller than
    ``_SCAN_PACK`` entries are joined into packs of at most that many and
    each pack is scanned once; a larger one is scanned alone."""
    lo, filled = 0, 0
    for i, arr in enumerate(arrays):
        if i > lo and filled + arr.size > _SCAN_PACK:
            _scan_pack(arrays, lo, i, name)
            lo, filled = i, 0
        filled += arr.size
    if lo < len(arrays):
        _scan_pack(arrays, lo, len(arrays), name)


def _scan_pack(arrays, lo, hi, name):
    pack = arrays[lo] if hi == lo + 1 else np.concatenate(arrays[lo:hi], axis=None)
    if not np.isfinite(pack).all():
        for i in range(lo, hi):
            _finite_or_raise(arrays[i], name(i))


def checked_forward(what: str, forward, *args):
    """``forward(*args)``, whose result's first element is the pass's output
    Tensor (``what``), run as one checked pass: under one error state, with
    the products' own checks off, and one scan of that output.

    If the scan or a check kept inside the pass fails, the pass runs again
    with every check on and no tape or MAC counter, so the first op to see
    the non-finite value raises its NumericError, naming itself and its
    site; a replay that raises nothing ends in a NumericError naming
    ``what``. See the module docstring."""
    outer, _state.deferred = _state.deferred, True
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = forward(*args)
        if np.isfinite(result[0].data).all():
            return result
    except NumericError:
        pass
    finally:
        _state.deferred = outer
    result = None       # the failed pass's arrays are not needed by the replay
    saved = _state.tape, _state.mac_counters, _state.deferred
    _state.tape, _state.mac_counters, _state.deferred = None, [], False
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            forward(*args)
    finally:
        _state.tape, _state.mac_counters, _state.deferred = saved
    raise _non_finite(what)


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
    _state.mac_counters.append(counter)
    try:
        yield counter
    finally:
        _state.mac_counters.pop()


class mac_scope:
    """Attribute the MACs counted inside the block to ``name`` in every active
    counter, and name it in a NumericError raised inside. Attribution happens
    at the scope's boundaries, so matmul does no per-call bookkeeping for it.
    The outer site is restored on every exit; the MACs are credited only when
    the block ends normally. It is a class because every site of every
    forward enters one, and a generator-based context manager costs more."""

    __slots__ = ("name", "_start", "_outer")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self._start = [(c, c.macs) for c in _state.mac_counters]
        self._outer = _state.site
        _state.site = self.name

    def __exit__(self, exc_type, exc, tb):
        _state.site = self._outer
        if exc_type is None:
            name = self.name
            for c, macs in self._start:
                c.scopes[name] = c.scopes.get(name, 0) + c.macs - macs
        return False


def _check_2d(t: Tensor, name: str):
    if t.data.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {t.shape}")


# ---------------------------------------------------------------- arithmetic


def _product32(a, b, what: str, out=None):
    """Product of two arrays rounded to float32, rejecting non-finite entries;
    ``out``, a float32 view, takes the rounded product in place of a fresh
    array.

    The product and the cast run with overflow and invalid-value warnings
    off: an inf input or an overflow becomes inf or NaN, which the check
    turns into NumericError without a stray RuntimeWarning. Inside a checked
    pass the pass holds that error state and checks later, so the product
    runs bare."""
    if _state.deferred:
        if out is None:
            return (a @ b).astype(np.float32, copy=False)
        return np.matmul(a, b, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        if out is None:
            out = (a @ b).astype(np.float32, copy=False)
        else:
            np.matmul(a, b, out=out)
    _finite_or_raise(out, what)
    return out


# A 2-D forward product does k*p MACs for the k + p float64 entries a row
# casts and writes; at most _NARROW it is bound by that traffic, and the
# allocator maps, faults in and trims its full-size float64 temporaries on
# every forward. In a per-shape sweep (2-core Intel Xeon, 2 MB L2 a core,
# numpy 2.4.6, OpenBLAS; BENCH_17.json), chunks of 256 KB ran the tiny
# model's narrow products in 0.06-0.98 of their one-shot time, 128 KB in
# 0.07-1.05 and 64 KB in 0.10-1.28. Swin-T's products, all wider than 24,
# ran in 0.86-1.09 at 256 KB and up to 1.86 at 64 KB.
_CHUNK_BYTES = 256 * 1024
_NARROW = 24


def _product64(a, b, what: str, out=None):
    """``a @ b`` of two float32 arrays, accumulated in float64 and rounded to
    float32 (into ``out``, a float32 view, if given), rejecting non-finite
    entries as ``_product32`` does. The operands are cast to C-ordered
    float64 arrays, whatever the order of the views passed in; a b already
    in C-ordered float64 (a scored product's folded weight) is used as it
    is. A narrow, tall 2-D product with no ``out`` runs in row chunks (see
    the module docstring)."""
    if a.ndim == 2 and out is None:
        m, k = a.shape
        p = b.shape[1]
        rows = max(2, _CHUNK_BYTES // (8 * (k + p)))
        if k * p <= _NARROW * (k + p) and m >= 2 * rows:
            return _chunked_product(a, b, m // rows, what)
    return _product32(a.astype(np.float64, order="C", copy=False),
                      b.astype(np.float64, order="C", copy=False), what, out)


def _chunked_product(a, b, chunks: int, what: str):
    """``_product64`` of a 2-D product in ``chunks`` near-equal row chunks."""
    m, k = a.shape
    p = b.shape[1]
    size = -(-m // chunks)
    a64 = np.empty((size, k))
    o64 = np.empty((size, p))
    b64 = b.astype(np.float64, copy=False)
    out = np.empty((m, p), dtype=np.float32)
    deferred = _state.deferred
    with nullcontext() if deferred else np.errstate(over="ignore", invalid="ignore"):
        for i in range(chunks):
            lo, hi = i * m // chunks, (i + 1) * m // chunks
            rows_in, rows_out = a64[:hi - lo], o64[:hi - lo]
            rows_in[...] = a[lo:hi]
            np.matmul(rows_in, b64, out=rows_out)
            out[lo:hi] = rows_out
    if not deferred:
        _finite_or_raise(out, what)
    return out


def _stacked_product(a, b, what: str, out):
    """``_product64`` of two stacks into ``out``, a float32 view, over chunks
    of their leading axis: each chunk's float64 operands and product take
    about ``_CHUNK_BYTES`` (at least one slice), and numpy multiplies each
    slice alone, so the chunks give the one-shot product's bits."""
    step = max(1, _CHUNK_BYTES // (8 * (a[0].size + b[0].size + out[0].size)))
    if step >= len(a):
        return _product64(a, b, what, out)
    deferred = _state.deferred
    with nullcontext() if deferred else np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(a), step):
            np.matmul(a[lo:lo + step].astype(np.float64, order="C"),
                      b[lo:lo + step].astype(np.float64, order="C"), out=out[lo:lo + step])
    if not deferred:
        _finite_or_raise(out, what)
    return out


def matmul(a: Tensor, b: Tensor, scale: Tensor | None = None) -> Tensor:
    """Product over the last two axes; leading axes must be equal (no
    broadcasting). Counts batch*m*k*p MACs. The forward accumulates in
    float64; the gradient products run in float32 over the operands' own
    arrays, which must not change before backward.

    ``scale``, a 1-D tensor whose length n divides the p columns of a 2-D
    b, gives a @ (b diag(s)): column j of b is scaled by scale[j % n]. The
    scale is applied in b's float64 cast, so the scored product is rounded
    once (see the module docstring)."""
    ad, bd = a.data, b.data
    ashape, bshape = ad.shape, bd.shape
    if len(ashape) < 2 or len(ashape) != len(bshape) or ashape[:-2] != bshape[:-2]:
        raise DimensionError(f"matmul needs equal leading axes: {ashape} x {bshape}")
    if ashape[-1] != bshape[-2]:
        raise DimensionError(f"matmul inner dims differ: {ashape} x {bshape}")
    *lead, m, k = ashape
    p = bshape[-1]
    if scale is not None and (len(bshape) != 2 or scale.data.ndim != 1
                              or p % scale.data.shape[0]):
        raise DimensionError(f"matmul scale {scale.shape} needs a 2-D product whose "
                             f"column count its length divides: {ashape} x {bshape}")
    macs = math.prod(lead) * m * k * p
    for c in _state.mac_counters:
        c.macs += macs
    # Every input entry reaches some output entry (inf * 0 is NaN), so one
    # check of the output also catches non-finite inputs and float32 overflow.
    if scale is None:
        tape = _grad_tape(a, b)
        out = _fresh(_product64(ad, bd, "matmul output"), tape is not None)
        if tape is not None:
            tape._record(out, [
                (a, lambda g: _product32(g, bd.swapaxes(-1, -2), "matmul lhs gradient")),
                (b, lambda g: _product32(ad.swapaxes(-1, -2), g, "matmul rhs gradient")),
            ])
        return out
    n = scale.data.shape[0]
    row = _repeated(scale.data, p)
    tape = _grad_tape(a, b, scale)
    out = _fresh(_product64(ad, _folded(bd, row), "matmul output"), tape is not None)
    if tape is not None:
        shared = []     # b's and the scale's gradients, made by the first pull

        def rhs_grads(g):
            """Both from one float32 product G = a^T g: the scale's float64
            sums of G * b over the rows of their [-1, n] views, then G,
            scaled in place, as b's gradient."""
            if not shared:
                rhs = _product32(ad.T, g, "matmul rhs gradient")
                shared.append(_product_column_sums(rhs.reshape(-1, n), bd.reshape(-1, n)))
                rhs *= row
                shared.append(rhs)
            return shared

        tape._record(out, [
            (a, lambda g: _product32(g * row, bd.T, "matmul lhs gradient")),
            (b, lambda g: rhs_grads(g)[1]),
            (scale, lambda g: rhs_grads(g)[0]),
        ])
    return out


def _repeated(s, p):
    """The scale s repeated over p columns, entry j being s[j % n], so a
    multiply by it runs over whole rows of p entries, not short rows of n."""
    if s.shape[0] == p:
        return s
    row = np.empty(p, dtype=np.float32)
    row.reshape(-1, s.shape[0])[...] = s
    return row


def _folded(b, row):
    """A 2-D float32 weight b cast to a C-ordered float64 array with each row
    multiplied by ``row``, in one pass. A product of two float32 values is
    exact in float64, so the fold rounds nothing."""
    w64 = np.empty(b.shape)
    # inf * 0 gives NaN, which the product's own check then sees
    with nullcontext() if _state.deferred else np.errstate(invalid="ignore"):
        np.multiply(b, row, out=w64, dtype=np.float64)
    return w64


def _column_sums(a, n):
    """Float64 sums of the columns of ``a`` viewed as rows of n entries,
    rounded to float32: the bits of ``sum`` over the leading axes with
    ``dtype=np.float64`` (see the module docstring)."""
    rows = a.reshape(-1, n)
    # numpy sums a lone column pairwise, as a flat array; einsum adds in order
    if n == 1:
        return rows.sum(axis=0, dtype=np.float64).astype(np.float32)
    return np.einsum("ij->j", rows, dtype=np.float64).astype(np.float32)


def _product_column_sums(x, y):
    """``_column_sums`` of the float64 products of two [rows, n] float32
    arrays, without an array of the products: one
    ``np.einsum("ij,ij->j")`` in float64 adds each column's products in row
    order. einsum adds a lone column in another order, so a width of 1
    keeps numpy's sum, as ``_column_sums`` does."""
    if x.shape[1] == 1:
        return np.multiply(x, y, dtype=np.float64).sum(axis=0).astype(np.float32)
    return np.einsum("ij,ij->j", x, y, dtype=np.float64).astype(np.float32)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also equal ``a``'s trailing axes (a row bias
    is the 1-D case), and its gradient then sums over the leading axes."""
    ad, bd = a.data, b.data
    ashape, bshape = ad.shape, bd.shape
    lead = len(ashape) - len(bshape)
    if lead < 0 or ashape[lead:] != bshape or (lead and not bshape):
        raise DimensionError(f"add shapes are incompatible: {ashape} vs {bshape}")
    tape = _grad_tape(a, b)
    out = _fresh(ad + bd, tape is not None)
    if tape is not None:
        if lead:
            tape._record(out, [
                (a, lambda g: g),
                (b, lambda g: _column_sums(g, bd.size).reshape(bshape)),
            ])
        else:
            tape._record(out, [(a, lambda g: g), (b, lambda g: g)])
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply every entry by a Python scalar."""
    f = np.float32(float(factor))
    tape = _grad_tape(a)
    out = _fresh(a.data * f, tape is not None)
    if tape is not None:
        tape._record(out, [(a, lambda g: g * f)])
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the two axes of a 2-D tensor."""
    _check_2d(a, "transpose input")
    tape = _grad_tape(a)
    out = Tensor(a.data.T, requires_grad=tape is not None)
    if tape is not None:
        tape._record(out, [(a, lambda g: g.T)])
    return out


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    ad = a.data
    old = ad.shape
    if math.prod(shape) != ad.size:
        raise DimensionError(f"cannot reshape {old} to {shape}")
    tape = _grad_tape(a)
    out = _fresh(ad.reshape(shape), tape is not None)
    if tape is not None:
        tape._record(out, [(a, lambda g: g.reshape(old))])
    return out


def concat(tensors) -> Tensor:
    """Join 2-D tensors of equal row count side by side, by columns."""
    ts = list(tensors)
    if not ts:
        raise UsageError("concat needs at least one tensor")
    for t in ts:
        _check_2d(t, "concat input")
    rows = ts[0].data.shape[0]
    if any(t.data.shape[0] != rows for t in ts):
        raise DimensionError(f"concat row counts differ: {[t.shape for t in ts]}")
    tape = _grad_tape(*ts)
    out = _fresh(np.concatenate([t.data for t in ts], axis=1), tape is not None)
    if tape is not None:
        pulls = []
        offset = 0
        for t in ts:
            lo, hi = offset, offset + t.data.shape[1]

            # A column block is copied out: as a strided view it would slow
            # every elementwise pass AdamW makes over the gradient of a
            # per-head weight, and those are concatenated by columns.
            def pull(g, lo=lo, hi=hi):
                return np.ascontiguousarray(g[:, lo:hi])

            pulls.append((t, pull))
            offset = hi
        tape._record(out, pulls)
    return out


def _indices(indices, op: str):
    """``indices`` as an int64 array. Non-integer entries raise
    DimensionError naming ``op``, as a cast would truncate them (2.9 to 2);
    an empty array has none."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu" and idx.size:
        raise DimensionError(f"{op} needs integer indices, got {idx.dtype}")
    return idx.astype(np.int64, copy=False)


class Permutation:
    """A validated row order, out[i] = x[order[i]], and its inverse, both
    read-only int64 arrays. ``permute_rows`` turns raw indices into one; a
    Permutation built once and passed again is neither checked nor inverted
    again."""

    __slots__ = ("order", "inverse")

    def __init__(self, order):
        # a copy, so that freezing it leaves the caller's array writeable
        order = np.array(_indices(order, "permute_rows"))
        n = order.shape[0] if order.ndim == 1 else 0
        # O(n): n indices in [0, n) are a permutation when none repeats. The
        # range check comes first, as bincount sizes its output by the largest
        # index and raises on a negative one.
        if (order.ndim != 1 or n == 0 or order.min() < 0 or order.max() >= n
                or np.bincount(order, minlength=n).max() != 1):
            raise DimensionError(f"permute_rows needs a permutation; indices of shape "
                                 f"{order.shape} are not one")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n)
        order.setflags(write=False)
        inverse.setflags(write=False)
        self.order, self.inverse = order, inverse

    def inverted(self) -> Permutation:
        """The inverse permutation, sharing this one's two arrays."""
        out = object.__new__(Permutation)
        out.order, out.inverse = self.inverse, self.order
        return out


def permute_rows(x: Tensor, perm) -> Tensor:
    """Reorder rows by a permutation: out[i] = x[perm[i]]. ``perm`` is a
    ``Permutation`` or the indices of one."""
    _check_2d(x, "permute_rows input")
    if type(perm) is not Permutation:
        perm = Permutation(perm)
    n = x.data.shape[0]
    if perm.order.shape[0] != n:
        raise DimensionError(f"permute_rows needs a permutation of {n} rows, "
                             f"got one of {perm.order.shape[0]}")
    tape = _grad_tape(x)
    out = _fresh(np.take(x.data, perm.order, axis=0), tape is not None)
    if tape is not None:
        inverse = perm.inverse
        tape._record(out, [(x, lambda g: np.take(g, inverse, axis=0))])
    return out


def gather_rows(x: Tensor, indices) -> Tensor:
    """Pick rows by index, repeats allowed; gradient scatter-adds."""
    _check_2d(x, "gather_rows input")
    idx = _indices(indices, "gather_rows")
    rows = x.data.shape[0]
    if idx.ndim != 1 or idx.min(initial=0) < 0 or (idx.size and idx.max() >= rows):
        raise DimensionError(f"gather_rows indices out of range for shape {x.shape}")
    # Tensor() rejects an empty gather
    tape = _grad_tape(x)
    out = Tensor(x.data[idx], requires_grad=tape is not None)
    if tape is not None:
        def pull(g):
            back = np.zeros((rows, g.shape[1]), dtype=np.float32)
            np.add.at(back, idx, g)
            return back
        tape._record(out, [(x, pull)])
    return out


# ---------------------------------------------------------------- reductions


def sum_all(x: Tensor) -> Tensor:
    """Sum of every entry, accumulated in float64, as a scalar tensor. No
    stage records it: the benchmark's per-layer replay and the tests'
    scalar losses reduce an output with it."""
    tape = _grad_tape(x)
    out = Tensor(np.float32(x.data.sum(dtype=np.float64)), requires_grad=tape is not None)
    if tape is not None:
        shape = x.data.shape
        tape._record(out, [(x, lambda g: np.full(shape, g.reshape(()), dtype=np.float32))])
    return out


def mean_rows(x: Tensor) -> Tensor:
    """Mean over axis -2 (the rows of each trailing matrix), kept as one row."""
    if x.data.ndim < 2:
        raise DimensionError(f"mean_rows input must have at least 2 axes, got shape {x.shape}")
    n = x.data.shape[-2]
    out_data = x.data.mean(axis=-2, keepdims=True, dtype=np.float64).astype(np.float32)
    tape = _grad_tape(x)
    out = _fresh(out_data, tape is not None)
    if tape is not None:
        tape._record(out, [(x, lambda g: np.repeat(g / np.float32(n), n, axis=-2))])
    return out


def l1_norm(*xs: Tensor) -> Tensor:
    """Sum of the absolute values of every entry of the tensors, as one tape
    record; the subgradient at 0 is 0. Each tensor's norm accumulates in
    float64 and is rounded to float32, and the norms are added in order in
    float32, so ``l1_norm(a, b)`` gives the bits of ``add(l1_norm(a),
    l1_norm(b))``."""
    if not xs:
        raise UsageError("l1_norm needs at least one tensor")
    total = None
    for x in xs:
        norm = np.float32(np.abs(x.data).sum(dtype=np.float64))
        total = norm if total is None else total + norm
    tape = _grad_tape(*xs)
    out = Tensor(total, requires_grad=tape is not None)
    if tape is not None:
        def pull(sign):
            return lambda g: (g.reshape(()) * sign).astype(np.float32)
        tape._record(out, [(x, pull(np.sign(x.data))) for x in xs])
    return out


# ------------------------------------------------------------- nonlinearities


# Longest row that a last-axis reduction runs across a transposed contiguous
# copy. numpy reduces a short last axis with one inner-loop call per row,
# about 80 ns each for a float32 max: 650 us for the 8192 rows of 4 in a
# [64,16,2,4,4] attention logit stack. Across the copy, shape [n, rows], it
# is n elementwise passes plus the copy: 32 us. In a sweep of float32 rows of
# length 4-96 at 1024 and 8192 rows (Intel Xeon, numpy 2.4.6), the copy was
# faster for a float64 sum through 24 and slower from 28 (1.4x at 32), and
# for a max through 48 (1.9x slower at 64). (Ratios at 8192 rows.) One
# threshold serves both: no workload has softmax rows of 25-48 entries, as
# 2x2 windows give rows of 4 and Swin-T's 7x7 windows rows of 49.
_SHORT_ROW = 24


def _reduce_rows(ufunc, a, dtype=None):
    """``ufunc.reduce`` of ``a`` over its last axis, kept as a length-1 axis.

    Rows up to ``_SHORT_ROW`` long are reduced across a transposed
    contiguous copy, one elementwise pass per row position, so a sum adds
    each row's entries in order, whatever the number of rows; longer rows
    go through numpy's own row reduce. Either way a max is exact and a
    float64 sum accumulates in float64."""
    n = a.shape[-1]
    if n > _SHORT_ROW:
        return ufunc.reduce(a, axis=-1, dtype=dtype, keepdims=True)
    cols = np.ascontiguousarray(a.reshape(-1, n).T)
    return ufunc.reduce(cols, axis=0, dtype=dtype).reshape(a.shape[:-1] + (1,))


def _softmax(x):
    """Last-axis softmax of a float32 array as a fresh array: the exp of x
    less its row max, divided by the row sums accumulated in float64, both
    reductions by ``_reduce_rows``."""
    _finite_or_raise(x, "softmax input")
    with np.errstate(over="ignore"):    # x - max below -float32 max is -inf, exp 0
        e = x - _reduce_rows(np.maximum, x)
    np.exp(e, out=e)
    e /= _reduce_rows(np.add, e, np.float64).astype(np.float32)
    return e


def _softmax_grad(g, y):
    """Gradient of the softmax input, given the gradient g of its output y."""
    gy = g * y
    dot = _reduce_rows(np.add, gy, np.float64).astype(np.float32)
    gy -= dot * y
    return gy


def attention_core(qkv: Tensor, factor: float, mask: Tensor | None = None) -> Tensor:
    """softmax(q k^T * factor [+ mask]) v for every group and head, as one op.

    qkv stacks queries, keys and values as [*lead, m, 3, heads, k]: m rows
    in each group, one row of each of q, k and v per head. mask must equal
    the trailing axes of the [*lead, heads, m, m] logits. The result is the
    [prod(lead)*m, heads*k] output rows, heads side by side.

    The forward takes the steps of ``matmul``, ``scale``, ``add``,
    ``_softmax`` and ``matmul`` in that order and at their precision:
    float64 products rounded to float32, a float32 scale and mask add, and
    float64 row sums. The two products run over chunks of the leading axis
    (module docstring); the scale, mask add and softmax run once, over the
    whole float32 logits. It counts the two products' MACs as ``matmul`` does.
    One tape record pulls q/k/v, as one stacked gradient, and the mask,
    summed over the axes it was repeated along; the gradient products run
    in float32 over the forward's own arrays.
    """
    qkv_shape = qkv.data.shape
    if len(qkv_shape) < 4 or qkv_shape[-3] != 3:
        raise DimensionError(
            f"attention_core needs [..., m, 3, heads, k] q/k/v, got {qkv_shape}")
    *lead, m, _, h, k = qkv_shape
    logit_shape = (*lead, h, m, m)
    extra = len(logit_shape) - (mask.data.ndim if mask is not None else 0)
    if mask is not None and (extra < 0 or mask.data.shape != logit_shape[extra:]):
        raise DimensionError(f"attention mask {mask.shape} does not match the trailing "
                             f"axes of the {logit_shape} logits")
    macs = 2 * math.prod(lead) * h * m * m * k
    for c in _state.mac_counters:
        c.macs += macs
    # [*lead, heads, m, k] views of q, k and v; each product casts them to
    # C-ordered float64 stacks one chunk of the leading axis at a time
    qd, kd, vd = (qkv.data[..., i, :, :].swapaxes(-3, -2) for i in range(3))
    f = np.float32(factor)
    logits = np.empty(logit_shape, dtype=np.float32)
    _stacked_product(qd, kd.swapaxes(-1, -2), "attention logits", logits)
    logits *= f
    if mask is not None:
        logits += mask.data
    probs = _softmax(logits)
    del logits
    # the output is rounded through its [*lead, heads, m, k] view straight
    # into the [*lead, m, heads, k] rows it is returned as
    rows = np.empty((*lead, m, h, k), dtype=np.float32)
    _stacked_product(probs, vd, "attention output", rows.swapaxes(-3, -2))
    tape = _grad_tape(qkv) if mask is None else _grad_tape(qkv, mask)
    out = _fresh(rows.reshape(-1, h * k), tape is not None)
    if tape is not None:
        shared = []     # the logit gradient, made by the first pull to run

        def logit_grad(g):
            if not shared:
                go = g.reshape(*lead, m, h, k).swapaxes(-3, -2)
                dprobs = _product32(go, vd.swapaxes(-1, -2), "attention probs gradient")
                shared.append(_softmax_grad(dprobs, probs))
            return shared[0]

        def pull_qkv(g):
            ds = logit_grad(g) * f
            # each product writes into its [*lead, heads, m, k] view of one
            # stacked gradient, so no per-gradient array is made and copied
            grad = np.empty(qkv_shape, dtype=np.float32)
            dq, dk, dv = (grad[..., i, :, :].swapaxes(-3, -2) for i in range(3))
            _product32(ds, kd, "attention q gradient", out=dq)
            _product32(ds.swapaxes(-1, -2), qd, "attention k gradient", out=dk)
            _product32(probs.swapaxes(-1, -2), g.reshape(*lead, m, h, k).swapaxes(-3, -2),
                       "attention v gradient", out=dv)
            return grad

        def pull_mask(g):
            return _column_sums(logit_grad(g), mask.data.size).reshape(mask.data.shape)

        tape._record(out, [(qkv, pull_qkv)] + ([] if mask is None else [(mask, pull_mask)]))
    return out


def _row_means(a64):
    """Means of a 2-D float64 array's rows, as a [rows, 1] column: einsum
    sums each row (module docstring), and the sum is divided by the row
    length, as numpy's mean divides it."""
    means = np.einsum("ij->i", a64)
    means /= a64.shape[1]
    return means[:, None]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalisation of a 2-D tensor with learned gain and bias, and
    1e-5 added to each row's variance.

    Row statistics (squares included) accumulate in float64, and x - mean is
    formed in float64 and rounded once, so a large row mean costs no
    precision and a large row does not overflow; the rest is float32."""
    _check_2d(x, "layer_norm input")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    x64 = x.data.astype(np.float64)
    x64 -= _row_means(x64)
    xhat = x64.astype(np.float32)
    np.square(xhat, out=x64, dtype=np.float64)
    inv = (1.0 / np.sqrt(_row_means(x64) + 1e-5)).astype(np.float32)
    del x64
    xhat *= inv
    y = xhat * gain.data
    y += bias.data
    tape = _grad_tape(x, gain, bias)
    out = _fresh(y, tape is not None)
    if tape is not None:
        gd = gain.data

        def pull_x(g):
            gy = g * gd
            g64 = gy.astype(np.float64)
            m1 = _row_means(g64).astype(np.float32)
            np.multiply(gy, xhat, out=g64)      # the float32 product, widened
            m2 = _row_means(g64).astype(np.float32)
            del g64
            gy -= m1
            gy -= xhat * m2
            gy *= inv
            return gy

        tape._record(out, [
            (x, pull_x),
            (gain, lambda g: _column_sums(g * xhat, d)),
            (bias, lambda g: _column_sums(g, d)),
        ])
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation, in float32.

    Both directions work in place on fresh float32 buffers: a temporary per
    term would cost more than the arithmetic on large hidden layers. The
    forward runs over flat chunks of ``_CHUNK_BYTES`` and writes each into
    its one output, so its temporaries are one chunk in size, made once
    per call; under a tape the tanh it keeps for the pull is one full
    array. Each entry takes the same float32 steps either way."""
    xd = x.data
    xf = xd.reshape(-1)
    n = xf.size
    size = min(n, _CHUNK_BYTES // 4)
    tape = _grad_tape(x)
    y = np.empty(xd.shape, dtype=np.float32)
    yf = y.reshape(-1)
    tf = np.empty(n if tape is not None else size, dtype=np.float32)
    cubic = np.empty(size, dtype=np.float32)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        t = tf[lo:hi] if tape is not None else tf[:hi - lo]
        c, yc = cubic[:hi - lo], yf[lo:hi]
        np.clip(xf[lo:hi], -_GELU_SATURATED, _GELU_SATURATED, out=t)
        np.multiply(t, t, out=c)
        c *= t
        c *= _GELU_CUBIC
        t += c
        t *= _SQRT_2_OVER_PI
        np.tanh(t, out=t)
        np.add(t, 1.0, out=yc)
        yc *= 0.5                   # before x: x * 2 overflows near float32 max
        yc *= xf[lo:hi]
    out = _fresh(y, tape is not None)
    if tape is not None:
        t = tf.reshape(xd.shape)

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
        tape._record(out, [(x, pull)])
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
    tape = _grad_tape(logits)
    out = Tensor(np.float32((lse - picked).mean()), requires_grad=tape is not None)
    if tape is not None:
        probs = np.exp(z - lse[:, None])

        def pull(g):
            grad = probs.copy()
            grad[np.arange(n), labels] -= 1.0
            return (g.reshape(()) * grad / n).astype(np.float32)

        tape._record(out, [(logits, pull)])
    return out
