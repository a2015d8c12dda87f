"""Windowed-attention transformer blocks and the staged backbone.

Tokens live in row-major [n x d] layout for an H x W grid, and a batch of B
images is carried as their [B*n x d] rows stacked. Window partitioning,
cyclic shifting and patch merging are all realised as row permutations
(offset per image) so gradients flow through exact index bookkeeping. Every
window of every image and every head of an attention site runs as one
``tensor.attention_core`` op with [B, windows, heads, M^2, M^2] logits, fed
by one Q/K/V product against the site's per-head weights joined
column-wise. Attention logits are scaled by the square root of the original
(pre-pruning) per-head dimension; the scale is kept fixed after pruning so
that pruned and score-masked models agree exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, refuse_oversized
from .tensor import Tensor

MASK_VALUE = -1.0e4


# ------------------------------------------------------------------ geometry


@dataclass(frozen=True)
class WindowSpec:
    """An H x W token grid tiled by M x M windows, cyclically shifted by s."""

    height: int
    width: int
    window: int
    shift: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.height % self.window or self.width % self.window:
            raise ConfigError(
                f"grid {self.height}x{self.width} is not divisible by window {self.window}")
        if not 0 <= self.shift < self.window:
            raise ConfigError(f"shift must lie in [0, {self.window}), got {self.shift}")

    @property
    def tokens(self) -> int:
        return self.height * self.width

    @property
    def num_windows(self) -> int:
        return self.tokens // (self.window * self.window)


def _partition_permutation(height, width, window, shift):
    """Row order that groups shifted M x M windows contiguously."""
    order = np.empty(height * width, dtype=np.int64)
    pos = 0
    for wr in range(height // window):
        for wc in range(width // window):
            for ir in range(window):
                for ic in range(window):
                    r = (wr * window + ir + shift) % height
                    c = (wc * window + ic + shift) % width
                    order[pos] = r * width + c
                    pos += 1
    return order


def _window_masks(height, width, window, shift):
    """Per-window additive masks blocking pairs from disjoint pre-shift regions.

    After rolling the grid by (-s, -s), rows [H-M, H-s) hold tokens that kept
    their neighbourhood while rows [H-s, H) hold wrapped-around tokens (same
    for columns). Tokens in one window may only attend within their region.
    """
    def region(coord, extent):
        if coord < extent - window:
            return 0
        if coord < extent - shift:
            return 1
        return 2

    masks = []
    for wr in range(height // window):
        for wc in range(width // window):
            labels = [
                region(wr * window + ir, height) * 3 + region(wc * window + ic, width)
                for ir in range(window) for ic in range(window)
            ]
            labels = np.array(labels)
            same = labels[:, None] == labels[None, :]
            masks.append(np.where(same, 0.0, MASK_VALUE).astype(np.float32))
    return masks


@functools.lru_cache(maxsize=None)
def _shift_mask(height, width, window, shift, heads):
    """The window masks as one [num_windows, heads, M^2, M^2] constant."""
    masks = np.stack(_window_masks(height, width, window, shift))
    return Tensor(np.repeat(masks[:, None], heads, axis=1))


@functools.lru_cache(maxsize=None)
def _window_order(height, width, window, shift):
    """The permutation grouping one grid's shifted windows, checked and
    inverted once, and its inverse; ``permute_rows`` applies it to each
    image of a stack."""
    perm = T.Permutation(_partition_permutation(height, width, window, shift))
    return perm, perm.inverted()


@functools.lru_cache(maxsize=None)
def _relative_index(window):
    """Flat [M^2 * M^2] lookup into a (2M-1)^2 relative-offset table."""
    coords = [(r, c) for r in range(window) for c in range(window)]
    span = 2 * window - 1
    idx = [
        (ri - rj + window - 1) * span + (ci - cj + window - 1)
        for (ri, ci) in coords for (rj, cj) in coords
    ]
    return np.array(idx, dtype=np.int64)


# ---------------------------------------------------------------- parameters


@dataclass
class AttentionParams:
    """Per-head projection weights for one attention site, and its per-head
    relative-position tables when the model has them.

    The per-head width is read from the weights, so it follows pruning;
    scale_dim is the original width and stays fixed through pruning.
    """

    wq: list
    wk: list
    wv: list
    wo: Tensor
    scale_dim: int
    rpb: list | None = None

    @property
    def heads(self) -> int:
        return len(self.wq)

    @property
    def head_dim(self) -> int:
        return self.wq[0].shape[1]


@dataclass
class MlpParams:
    w1: Tensor
    w2: Tensor


@dataclass
class BlockParams:
    norm1_gain: Tensor
    norm1_bias: Tensor
    attn: AttentionParams
    norm2_gain: Tensor
    norm2_bias: Tensor
    mlp: MlpParams


@dataclass
class StageParams:
    blocks: list
    merge: Tensor | None = None


@dataclass(frozen=True)
class SiteWeight:
    """One weight of a site kind: its name within the site, whether each
    head has its own (named with the head index appended), its shape for
    stage width d, h heads and site width k, and the axis one score entry
    cuts. Axis 1 holds the columns the score scales, which surgery folds
    the score into; axis 0 holds the rows paired with them, one run of k
    rows per head where the weight spans the heads."""

    name: str
    per_head: bool
    shape: Callable
    axis: int

    def names(self, heads: int) -> list:
        """The weight's names within its site, in build order."""
        return [f"{self.name}{j}" for j in range(heads)] if self.per_head else [self.name]


# Each site kind's weights in build order: the one place a site weight's
# shape and cut axis are written. The build, surgery, the cost model and the
# checkpoint's tensor counts read it. Position tables and norms are not cut,
# so they are not listed.
SITE_WEIGHTS = {
    "attn": (SiteWeight("wq", True, lambda d, h, k: (d, k), 1),
             SiteWeight("wk", True, lambda d, h, k: (d, k), 1),
             SiteWeight("wv", True, lambda d, h, k: (d, k), 1),
             SiteWeight("wo", False, lambda d, h, k: (h * k, d), 0)),
    "mlp": (SiteWeight("w1", False, lambda d, h, k: (d, k), 1),
            SiteWeight("w2", False, lambda d, h, k: (k, d), 0)),
}


# ----------------------------------------------------------------- operations


def _logit_factor(scale_dim: int) -> float:
    if scale_dim < 1:
        raise ConfigError(f"scale_dim must be >= 1, got {scale_dim}")
    return 1.0 / math.sqrt(scale_dim)


def _attention(x: Tensor, p: AttentionParams, groups: tuple,
               alpha: Tensor | None = None, mask: Tensor | None = None) -> Tensor:
    """Multi-head attention inside each group of contiguous rows of x.

    x holds prod(groups) groups of m rows; the logits are [*groups, heads,
    m, m], and mask must equal their trailing axes. Q, K and V are one
    matmul against the site's per-head weights joined column-wise, with
    alpha (one entry per head column, repeated over q/k/v and the heads)
    as its scale, and ``T.attention_core`` runs every group and head as one
    op.
    """
    m = x.shape[0] // math.prod(groups)
    h, k = p.heads, p.head_dim
    qkv = T.reshape(T.matmul(x, T.concat(p.wq + p.wk + p.wv), alpha), (*groups, m, 3, h, k))
    out = T.attention_core(qkv, _logit_factor(p.scale_dim), mask)
    return T.matmul(out, p.wo)


def wmsa_forward(x: Tensor, p: AttentionParams, spec: WindowSpec,
                 alpha: Tensor | None = None) -> Tensor:
    """Window-partitioned attention with optional cyclic shift masking.

    x stacks the [tokens x d] rows of one or more images; all their windows
    run through one batched attention core. A site with position tables adds
    each head's relative-position bias to the mask.
    """
    images, extra = divmod(x.shape[0], spec.tokens)
    if images < 1 or extra:
        raise DimensionError(f"expected a multiple of {spec.tokens} token rows, got {x.shape}")
    perm, inverse = _window_order(spec.height, spec.width, spec.window, spec.shift)
    mask = None
    if spec.shift:
        mask = _shift_mask(spec.height, spec.width, spec.window, spec.shift, p.heads)
    if p.rpb is not None:
        m = spec.window * spec.window
        table = T.concat(p.rpb)  # [span, heads]
        index = _relative_index(spec.window)
        bias = T.reshape(T.transpose(T.gather_rows(table, index)), (p.heads, m, m))
        mask = bias if mask is None else T.add(mask, bias)
    grouped = T.permute_rows(x, perm)
    out = _attention(grouped, p, (images, spec.num_windows), alpha, mask)
    return T.permute_rows(out, inverse)


def mlp_forward(x: Tensor, p: MlpParams, alpha: Tensor | None = None) -> Tensor:
    """Two-layer MLP with GELU; alpha scales the hidden columns before GELU,
    folded into the W_1 product."""
    return T.matmul(T.gelu(T.matmul(x, p.w1, alpha)), p.w2)


def block_forward(x: Tensor, bp: BlockParams, spec: WindowSpec,
                  alpha_attn: Tensor | None = None,
                  alpha_mlp: Tensor | None = None,
                  site_ids: tuple = ("attn", "mlp")) -> Tensor:
    """Pre-norm residual block: attention sub-layer then MLP sub-layer.

    Each sub-layer runs in a ``T.mac_scope`` named by ``site_ids`` (the
    attention and MLP site ids), so counters can split its MACs per site.
    """
    attn_site, mlp_site = site_ids
    normed = T.layer_norm(x, bp.norm1_gain, bp.norm1_bias)
    with T.mac_scope(attn_site):
        x = T.add(x, wmsa_forward(normed, bp.attn, spec, alpha_attn))
    normed = T.layer_norm(x, bp.norm2_gain, bp.norm2_bias)
    with T.mac_scope(mlp_site):
        return T.add(x, mlp_forward(normed, bp.mlp, alpha_mlp))


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Flatten non-overlapping P x P patches row-major, channel-major within a
    patch: a [B, C, H, W] stack gives [B*n x C*P^2] rows, its images' rows one
    image after another."""
    b, c, h, w = images.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(
            f"image {h}x{w} is not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    # [B, C, gh, P, gw, P] -> patch-major rows, channel-major features
    view = images.reshape(b, c, gh, patch_size, gw, patch_size)
    rows = view.transpose(0, 2, 4, 1, 3, 5).reshape(b * gh * gw, c * patch_size * patch_size)
    return np.ascontiguousarray(rows, dtype=np.float32)


def patch_embed(images: np.ndarray, patch_size: int, weight: Tensor) -> Tensor:
    """Linear embedding of flattened patches: [B*n x C*P^2] @ [C*P^2 x d]."""
    rows = patchify(images, patch_size)
    if rows.shape[1] != weight.shape[0]:
        raise DimensionError(
            f"patch rows have width {rows.shape[1]}, embed weight is {weight.shape}")
    return T.matmul(Tensor(rows), weight)


@functools.lru_cache(maxsize=None)
def _merge_permutation(height, width) -> T.Permutation:
    """The permutation that lines up each 2x2 cell of one grid, checked
    once; ``permute_rows`` applies it to each image of a stack."""
    order = []
    for i in range(height // 2):
        for j in range(width // 2):
            order.extend([
                (2 * i) * width + 2 * j,        # top-left
                (2 * i + 1) * width + 2 * j,    # bottom-left
                (2 * i) * width + 2 * j + 1,    # top-right
                (2 * i + 1) * width + 2 * j + 1,  # bottom-right
            ])
    return T.Permutation(order)


def patch_merge(x: Tensor, height: int, width: int, weight: Tensor) -> Tensor:
    """Concatenate each 2x2 cell (tl, bl, tr, br) and reduce 4d -> 2d; x
    stacks the [height*width x d] rows of one or more images."""
    rows, d = x.shape
    if height < 2 or width < 2 or height % 2 or width % 2 or rows % (height * width):
        raise DimensionError(
            f"cannot merge {rows} rows as even {height}x{width} grids")
    if weight.shape[0] != 4 * d:
        raise DimensionError(f"merge weight {weight.shape} does not match 4*{d} inputs")
    grouped = T.permute_rows(x, _merge_permutation(height, width))
    stacked = T.reshape(grouped, (rows // 4, 4 * d))
    return T.matmul(stacked, weight)


# ------------------------------------------------------------------- backbone


@dataclass(frozen=True)
class BackboneConfig:
    image_size: int = 32
    patch_size: int = 4
    in_channels: int = 3
    base_dim: int = 16
    depths: tuple = (1, 1)
    heads: tuple = (2, 4)
    window: int = 2
    mlp_ratio: float = 2.0
    num_classes: int = 4
    use_relative_position_bias: bool = False

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        self.validate()

    def validate(self):
        if self.image_size < 1 or self.patch_size < 1 or self.in_channels < 1:
            raise ConfigError("image_size, patch_size and in_channels must be positive")
        if self.image_size % self.patch_size:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch {self.patch_size}")
        if not self.depths or len(self.depths) != len(self.heads):
            raise ConfigError("depths and heads must be non-empty lists of equal length")
        if any(d < 1 for d in self.depths) or any(h < 1 for h in self.heads):
            raise ConfigError("depths and heads entries must be >= 1")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        stage_geometry(self)


@dataclass(frozen=True)
class StageGeometry:
    """One stage's shapes: token width, heads, per-head and MLP hidden
    widths, and the side and row count of its square token grid."""

    index: int
    dim: int
    heads: int
    head_dim: int
    hidden: int
    grid: int
    tokens: int


@functools.lru_cache(maxsize=None)
def stage_geometry(config: BackboneConfig) -> tuple:
    """Every stage's shapes, in order; the one place they are worked out.

    Stage s is base_dim * 2^s wide, and its grid is the patch grid halved
    once per merge before it. A shape that does not divide, or a hidden width
    longer than a numpy axis, raises ConfigError, so ``BackboneConfig``
    rejects it on construction.
    """
    geoms = []
    grid = config.image_size // config.patch_size
    for s, heads in enumerate(config.heads):
        dim = config.base_dim * (1 << s)
        if dim % heads:
            raise ConfigError(f"stage {s} dim {dim} not divisible by {heads} heads")
        hidden = config.mlp_ratio * dim
        if not math.isfinite(hidden) or hidden != int(hidden) or hidden < 1:
            raise ConfigError(
                f"stage {s} hidden width {hidden} is not a positive integer")
        if hidden > np.iinfo(np.intp).max:
            raise ConfigError(f"stage {s} hidden width {int(hidden)} is longer than "
                              "any array axis numpy can hold")
        if s > 0:
            if grid % 2:
                raise ConfigError(
                    f"stage {s - 1} grid {grid} cannot be halved for merging")
            grid //= 2
        if grid % config.window:
            raise ConfigError(
                f"stage {s} grid {grid} not divisible by window {config.window}")
        geoms.append(StageGeometry(index=s, dim=dim, heads=heads, head_dim=dim // heads,
                                   hidden=int(hidden), grid=grid, tokens=grid * grid))
    return tuple(geoms)


@dataclass(frozen=True)
class Site:
    """One prunable site: the attention or MLP sub-layer of one block.

    full is the unpruned width its score vector spans: the per-head width
    for attention, the hidden width for the MLP.
    """

    id: str
    stage: int
    kind: str  # a key of SITE_WEIGHTS: "attn" or "mlp"
    full: int


def block_id(stage: int, block: int) -> str:
    """Name of one block; its site ids and parameter names start with it."""
    return f"stage{stage}.block{block}"


@functools.lru_cache(maxsize=None)
def block_sites(config: BackboneConfig) -> tuple:
    """The (attention, MLP) site pair of every block, one tuple per stage.

    This is the site registry: every site id, score key and site parameter
    name is derived from it.
    """
    return tuple(
        tuple((Site(f"{block_id(g.index, b)}.attn", g.index, "attn", g.head_dim),
               Site(f"{block_id(g.index, b)}.mlp", g.index, "mlp", g.hidden))
              for b in range(config.depths[g.index]))
        for g in stage_geometry(config))


@functools.lru_cache(maxsize=None)
def sites(config: BackboneConfig) -> tuple:
    """Every site of a config in forward order: per block, attention then MLP."""
    return tuple(site for stage in block_sites(config) for pair in stage for site in pair)


def check_site_dims(config: BackboneConfig, site_dims: dict) -> dict:
    """Validate a partial site-width map against the registry; returns it
    with int widths. A key that names no site of this config, a width that
    is not an integer (a cast would truncate 2.9 to 2), or one outside
    [1, full], raises ConfigError."""
    full = {site.id: site.full for site in sites(config)}
    for key, width in site_dims.items():
        if key not in full:
            raise ConfigError(f"site_dims key {key!r} names no site of this config")
        if not isinstance(width, (int, np.integer)):
            raise ConfigError(f"site {key} width {width!r} is not an integer")
        if not 1 <= width <= full[key]:
            raise ConfigError(f"site {key} width {int(width)} outside [1, {full[key]}]")
    return {key: int(width) for key, width in site_dims.items()}


def block_shift(config: BackboneConfig, grid: int, block_index: int) -> int:
    """Alternating shift schedule; no shift when one window covers the grid."""
    if block_index % 2 == 0 or grid <= config.window:
        return 0
    return config.window // 2


class Backbone:
    """Patch embedding, windowed-attention stages, merge layers and head.

    site_dims maps site ids (see ``sites``) to kept widths: the per-head
    width of an attention site, the hidden width of an MLP site. Sites it
    leaves out keep their full width, so pruned variants of a config need
    only name the sites they cut. The one walk that builds the tensors also
    names them, in build order, in the table ``named_parameters`` returns; a
    site's weights are its ``SITE_WEIGHTS`` entries, named
    "<site id>.<weight>".
    """

    def __init__(self, config: BackboneConfig, site_dims: dict | None = None,
                 rng: np.random.Generator | None = None, params: dict | None = None):
        """Weights are drawn from ``rng`` (zero without one); norm gains
        start at one and biases at zero. ``params`` instead maps every
        parameter name, as ``named_parameters`` gives it, to the array the
        model takes as it is, so a restore builds no placeholder. A missing,
        unexpected or misshaped entry raises DimensionError naming them all."""
        self.config = config
        given = check_site_dims(config, site_dims or {})
        self.site_dims = {site.id: given.get(site.id, site.full) for site in sites(config)}
        self.scores_attached = False
        self._table = {}
        missing, misshaped = [], []

        def param(name, shape, fill=None):
            self._table[name] = None
            if params is not None:
                arr = params.get(name)
                if arr is None or tuple(arr.shape) != shape:
                    # Recorded, not built: a fault raises below once every
                    # entry is named, so no array of the config's size is
                    # allocated.
                    (missing if arr is None else misshaped).append(name)
                    return None
            else:
                refuse_oversized(math.prod(shape), f"parameter {name}")
                if fill is None and rng is not None:
                    arr = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
                else:
                    arr = (np.ones if fill else np.zeros)(shape, dtype=np.float32)
            self._table[name] = Tensor(arr, requires_grad=True)
            return self._table[name]

        def site_weights(site, geom):
            """A site's SITE_WEIGHTS by name; a per-head weight as a list."""
            made = {}
            for w in SITE_WEIGHTS[site.kind]:
                shape = w.shape(geom.dim, geom.heads, self.site_dims[site.id])
                tensors = [param(f"{site.id}.{name}", shape) for name in w.names(geom.heads)]
                made[w.name] = tensors if w.per_head else tensors[0]
            return made

        patch_width = config.in_channels * config.patch_size ** 2
        self.patch_embed = param("patch_embed", (patch_width, config.base_dim))
        self.stages = []
        span = (2 * config.window - 1) ** 2
        geoms = stage_geometry(config)
        for geom, pairs in zip(geoms, block_sites(config)):
            blocks = []
            for b, (attn_site, mlp_site) in enumerate(pairs):
                base = block_id(geom.index, b)
                rpb = ([param(f"{attn_site.id}.rpb{j}", (span, 1)) for j in range(geom.heads)]
                       if config.use_relative_position_bias else None)
                attn_params = AttentionParams(**site_weights(attn_site, geom),
                                              scale_dim=geom.head_dim, rpb=rpb)
                blocks.append(BlockParams(
                    norm1_gain=param(f"{base}.norm1.gain", (geom.dim,), 1.0),
                    norm1_bias=param(f"{base}.norm1.bias", (geom.dim,), 0.0),
                    attn=attn_params,
                    norm2_gain=param(f"{base}.norm2.gain", (geom.dim,), 1.0),
                    norm2_bias=param(f"{base}.norm2.bias", (geom.dim,), 0.0),
                    mlp=MlpParams(**site_weights(mlp_site, geom)),
                ))
            merge = None
            if geom.index < len(geoms) - 1:
                merge = param(f"stage{geom.index}.merge", (4 * geom.dim, 2 * geom.dim))
            self.stages.append(StageParams(blocks=blocks, merge=merge))
        last = geoms[-1].dim
        self.final_gain = param("final_norm.gain", (last,), 1.0)
        self.final_bias = param("final_norm.bias", (last,), 0.0)
        self.head = param("head", (last, config.num_classes))
        if params is not None and (missing or misshaped or len(params) != len(self._table)):
            unexpected = set(params).difference(self._table)
            raise DimensionError(
                f"parameters do not match the model: missing {sorted(missing)}, "
                f"unexpected {sorted(unexpected)}, misshaped "
                f"{[(n, tuple(params[n].shape)) for n in misshaped]}")

    def named_parameters(self) -> list:
        """(name, tensor) pairs of the build's name table, in build order."""
        return list(self._table.items())

    def zero_grads(self):
        for _, p in self.named_parameters():
            p.grad = None


def build_backbone(config: BackboneConfig, seed: int) -> Backbone:
    return Backbone(config, rng=np.random.default_rng(seed))


def forward_features(model: Backbone, images, scores: dict | None = None):
    """Logits [B x num_classes] of a [B, C, H, W] stack, run as one pass over
    the stacked [B*n x d] token rows, and each stage's output rows.

    scores maps site ids to the score vectors that scale each site's
    per-head or hidden columns; a site it leaves out runs unscaled. The
    pass is one ``T.checked_forward``: its finiteness is checked once, on
    the logits, and a pass that fails that check runs again to name the op
    and site where the non-finite value appeared."""
    return T.checked_forward("logits", _features, model, images, scores or {})


def _features(model: Backbone, images, scores: dict):
    """The pass of ``forward_features``."""
    cfg = model.config
    images = np.asarray(images, dtype=np.float32)
    side = cfg.image_size
    if images.ndim != 4 or images.shape[2:] != (side, side):
        raise DimensionError(f"expected [B, C, {side}, {side}] images, got shape {images.shape}")
    count = images.shape[0]
    x = patch_embed(images, cfg.patch_size, model.patch_embed)
    features = []
    geoms = stage_geometry(cfg)
    for geom, stage, pairs in zip(geoms, model.stages, block_sites(cfg)):
        for b, (blk, (attn, mlp)) in enumerate(zip(stage.blocks, pairs)):
            shift = block_shift(cfg, geom.grid, b)
            spec = WindowSpec(geom.grid, geom.grid, cfg.window, shift)
            x = block_forward(x, blk, spec, scores.get(attn.id), scores.get(mlp.id),
                              site_ids=(attn.id, mlp.id))
        features.append(x)
        if stage.merge is not None:
            x = patch_merge(x, geom.grid, geom.grid, stage.merge)
    x = T.layer_norm(x, model.final_gain, model.final_bias)
    pooled = T.mean_rows(T.reshape(x, (count, geoms[-1].tokens, x.shape[1])))
    return T.matmul(T.reshape(pooled, (count, x.shape[1])), model.head), features


def forward_batch(model: Backbone, images, scores: dict | None = None) -> Tensor:
    """[B x num_classes] logits of a [B, C, H, W] image stack, in one pass:
    the forward every stage runs. Row i equals the logits of image i alone."""
    return forward_features(model, images, scores)[0]
