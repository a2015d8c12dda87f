"""Windowed-attention transformer blocks and the staged backbone.

Tokens live in row-major [n x d] layout for an H x W grid. Window
partitioning, cyclic shifting and patch merging are all realised as row
permutations so gradients flow through exact index bookkeeping. Attention
logits are scaled by the square root of the original (pre-pruning) per-head
dimension; the scale is kept fixed after pruning so that pruned and
score-masked models agree exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
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


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
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
def _relative_index(window):
    """Flat [M^2 * M^2] lookup into a (2M-1)^2 relative-offset table."""
    coords = [(r, c) for r in range(window) for c in range(window)]
    span = 2 * window - 1
    idx = [
        (ri - rj + window - 1) * span + (ci - cj + window - 1)
        for (ri, ci) in coords for (rj, cj) in coords
    ]
    return np.array(idx, dtype=np.int64)


def window_partition(x: Tensor, spec: WindowSpec) -> Tensor:
    """Group rows of [n x d] tokens into [num_windows x M^2 x d]."""
    if x.shape[0] != spec.tokens:
        raise DimensionError(f"expected {spec.tokens} token rows, got {x.shape}")
    perm = _partition_permutation(spec.height, spec.width, spec.window, spec.shift)
    grouped = T.permute_rows(x, perm)
    return T.reshape(grouped, (spec.num_windows, spec.window * spec.window, x.shape[1]))


def window_reverse(windows: Tensor, spec: WindowSpec) -> Tensor:
    """Invert window_partition back to [n x d] token order."""
    lw, m2, d = windows.shape
    if lw != spec.num_windows or m2 != spec.window * spec.window:
        raise DimensionError(
            f"window tensor {windows.shape} does not match spec {spec}")
    perm = _partition_permutation(spec.height, spec.width, spec.window, spec.shift)
    flat = T.reshape(windows, (spec.tokens, d))
    return T.permute_rows(flat, np.argsort(perm))


# ---------------------------------------------------------------- parameters


@dataclass
class AttentionParams:
    """Per-head projection weights for one attention site.

    head_dim is the current (possibly pruned) per-head width; scale_dim is
    the original width and stays fixed through pruning.
    """

    wq: list
    wk: list
    wv: list
    wo: Tensor
    head_dim: int
    scale_dim: int
    rpb: list | None = None
    rpb_index: np.ndarray | None = None

    @property
    def heads(self) -> int:
        return len(self.wq)


@dataclass
class MlpParams:
    w1: Tensor
    w2: Tensor

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]


@dataclass
class BlockParams:
    norm1_gain: Tensor
    norm1_bias: Tensor
    attn: AttentionParams
    norm2_gain: Tensor
    norm2_bias: Tensor
    mlp: MlpParams
    shift: int = 0


@dataclass
class StageParams:
    blocks: list
    merge: Tensor | None = None


# ----------------------------------------------------------------- operations


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, scale_dim: int,
                         mask=None) -> Tensor:
    """softmax(q k^T / sqrt(scale_dim) [+ mask]) v."""
    if q.shape != k.shape:
        raise DimensionError(f"q and k shapes differ: {q.shape} vs {k.shape}")
    if v.shape[0] != q.shape[0]:
        raise DimensionError(f"v has {v.shape[0]} rows, expected {q.shape[0]}")
    if scale_dim < 1:
        raise ConfigError(f"scale_dim must be >= 1, got {scale_dim}")
    logits = T.scale(T.matmul(q, T.transpose(k)), 1.0 / float(np.sqrt(scale_dim)))
    if mask is not None:
        if not isinstance(mask, Tensor):
            mask = Tensor(mask)
        logits = T.add(logits, mask)
    return T.matmul(T.softmax_rows(logits), v)


def msa_forward(x: Tensor, p: AttentionParams, alpha: Tensor | None = None,
                mask=None) -> Tensor:
    """Multi-head attention; alpha scales each per-head Q/K/V column."""
    n = x.shape[0]
    heads = []
    for j in range(p.heads):
        q = T.matmul(x, p.wq[j])
        k = T.matmul(x, p.wk[j])
        v = T.matmul(x, p.wv[j])
        if alpha is not None:
            q = T.scale_columns(q, alpha)
            k = T.scale_columns(k, alpha)
            v = T.scale_columns(v, alpha)
        extra = None
        if mask is not None:
            extra = mask if isinstance(mask, Tensor) else Tensor(mask)
        if p.rpb is not None:
            bias = T.reshape(T.gather_rows(p.rpb[j], p.rpb_index), (n, n))
            extra = bias if extra is None else T.add(extra, bias)
        heads.append(scaled_dot_attention(q, k, v, p.scale_dim, extra))
    return T.matmul(T.concat(heads, axis=-1), p.wo)


def wmsa_forward(x: Tensor, p: AttentionParams, spec: WindowSpec,
                 alpha: Tensor | None = None) -> Tensor:
    """Window-partitioned attention with optional cyclic shift masking."""
    if x.shape[0] != spec.tokens:
        raise DimensionError(f"expected {spec.tokens} token rows, got {x.shape}")
    perm = _partition_permutation(spec.height, spec.width, spec.window, spec.shift)
    masks = None
    if spec.shift:
        masks = _window_masks(spec.height, spec.width, spec.window, spec.shift)
    grouped = T.permute_rows(x, perm)
    m2 = spec.window * spec.window
    outs = []
    for w in range(spec.num_windows):
        piece = T.slice_rows(grouped, w * m2, (w + 1) * m2)
        outs.append(msa_forward(piece, p, alpha, masks[w] if masks else None))
    return T.permute_rows(T.concat(outs, axis=0), np.argsort(perm))


def mlp_forward(x: Tensor, p: MlpParams, alpha: Tensor | None = None) -> Tensor:
    """Two-layer MLP with GELU; alpha scales the hidden columns before GELU."""
    h = T.matmul(x, p.w1)
    if alpha is not None:
        h = T.scale_columns(h, alpha)
    return T.matmul(T.gelu(h), p.w2)


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


def patchify(image, patch_size: int) -> np.ndarray:
    """Flatten non-overlapping P x P patches of a [C, H, W] image row-major."""
    img = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float32)
    if img.ndim != 3:
        raise DimensionError(f"image must be [C, H, W], got shape {img.shape}")
    c, h, w = img.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(
            f"image {h}x{w} is not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    # [C, gh, P, gw, P] -> patch-major rows, channel-major features
    view = img.reshape(c, gh, patch_size, gw, patch_size)
    rows = view.transpose(1, 3, 0, 2, 4).reshape(gh * gw, c * patch_size * patch_size)
    return np.ascontiguousarray(rows, dtype=np.float32)


def patch_embed(image, patch_size: int, weight: Tensor) -> Tensor:
    """Linear embedding of flattened patches: [n x C*P^2] @ [C*P^2 x d]."""
    rows = patchify(image, patch_size)
    if rows.shape[1] != weight.shape[0]:
        raise DimensionError(
            f"patch rows have width {rows.shape[1]}, embed weight is {weight.shape}")
    return T.matmul(Tensor(rows), weight)


@functools.lru_cache(maxsize=None)
def _merge_permutation(height, width):
    order = []
    for i in range(height // 2):
        for j in range(width // 2):
            order.extend([
                (2 * i) * width + 2 * j,        # top-left
                (2 * i + 1) * width + 2 * j,    # bottom-left
                (2 * i) * width + 2 * j + 1,    # top-right
                (2 * i + 1) * width + 2 * j + 1,  # bottom-right
            ])
    return np.array(order, dtype=np.int64)


def patch_merge(x: Tensor, height: int, width: int, weight: Tensor) -> Tensor:
    """Concatenate each 2x2 cell (tl, bl, tr, br) and reduce 4d -> 2d."""
    n, d = x.shape
    if n != height * width or height % 2 or width % 2:
        raise DimensionError(
            f"cannot merge {n} rows as an even {height}x{width} grid")
    if weight.shape[0] != 4 * d:
        raise DimensionError(f"merge weight {weight.shape} does not match 4*{d} inputs")
    grouped = T.permute_rows(x, _merge_permutation(height, width))
    stacked = T.reshape(grouped, (n // 4, 4 * d))
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
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        grid = self.image_size // self.patch_size
        for s, h in enumerate(self.heads):
            dim = self.base_dim * (1 << s)
            if dim % h:
                raise ConfigError(f"stage {s} dim {dim} not divisible by {h} heads")
            hidden = self.mlp_ratio * dim
            if hidden != int(hidden) or hidden < 1:
                raise ConfigError(
                    f"stage {s} hidden width {hidden} is not a positive integer")
            if s > 0:
                if grid % 2:
                    raise ConfigError(
                        f"stage {s - 1} grid {grid} cannot be halved for merging")
                grid //= 2
            if grid % self.window:
                raise ConfigError(
                    f"stage {s} grid {grid} not divisible by window {self.window}")

    @property
    def num_stages(self) -> int:
        return len(self.depths)

    def stage_dim(self, s: int) -> int:
        return self.base_dim * (1 << s)

    def stage_hidden(self, s: int) -> int:
        return int(self.mlp_ratio * self.stage_dim(s))

    def stage_grid(self, s: int) -> int:
        return (self.image_size // self.patch_size) >> s

    def head_width(self, s: int) -> int:
        return self.stage_dim(s) // self.heads[s]


@dataclass(frozen=True)
class StageGeometry:
    index: int
    dim: int
    heads: int
    head_dim: int
    hidden: int
    grid: int
    tokens: int


def stage_geometry(config: BackboneConfig) -> list:
    geoms = []
    for s in range(config.num_stages):
        grid = config.stage_grid(s)
        geoms.append(StageGeometry(
            index=s,
            dim=config.stage_dim(s),
            heads=config.heads[s],
            head_dim=config.head_width(s),
            hidden=config.stage_hidden(s),
            grid=grid,
            tokens=grid * grid,
        ))
    return geoms


@dataclass(frozen=True)
class Site:
    """One prunable site: the attention or MLP sub-layer of one block.

    full is the unpruned width its score vector spans: the per-head width
    for attention, the hidden width for the MLP.
    """

    id: str
    stage: int
    block: int
    kind: str  # "attn" or "mlp"
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
        tuple((Site(f"{block_id(g.index, b)}.attn", g.index, b, "attn", g.head_dim),
               Site(f"{block_id(g.index, b)}.mlp", g.index, b, "mlp", g.hidden))
              for b in range(config.depths[g.index]))
        for g in stage_geometry(config))


@functools.lru_cache(maxsize=None)
def sites(config: BackboneConfig) -> tuple:
    """Every site of a config in forward order: per block, attention then MLP."""
    return tuple(site for stage in block_sites(config) for pair in stage for site in pair)


def check_site_dims(config: BackboneConfig, site_dims: dict) -> dict:
    """Validate a partial site-width map against the registry; returns it
    with int widths. A key that names no site of this config, or a width
    outside [1, full], raises ConfigError."""
    full = {site.id: site.full for site in sites(config)}
    for key, width in site_dims.items():
        if key not in full:
            raise ConfigError(f"site_dims key {key!r} names no site of this config")
        if not 1 <= int(width) <= full[key]:
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
    only name the sites they cut.
    """

    def __init__(self, config: BackboneConfig, site_dims: dict | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        given = check_site_dims(config, site_dims or {})
        self.site_dims = {site.id: given.get(site.id, site.full) for site in sites(config)}
        self.scores_attached = False

        def weight(shape):
            if rng is None:
                return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
            return Tensor(rng.normal(0.0, 0.02, size=shape).astype(np.float32),
                          requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

        patch_width = config.in_channels * config.patch_size ** 2
        self.patch_embed = weight((patch_width, config.base_dim))
        self.stages = []
        span = (2 * config.window - 1) ** 2
        for geom, pairs in zip(stage_geometry(config), block_sites(config)):
            blocks = []
            for b, (attn_site, mlp_site) in enumerate(pairs):
                k = self.site_dims[attn_site.id]
                km = self.site_dims[mlp_site.id]
                rpb = None
                rpb_index = None
                if config.use_relative_position_bias:
                    rpb = [weight((span, 1)) for _ in range(geom.heads)]
                    rpb_index = _relative_index(config.window)
                attn = AttentionParams(
                    wq=[weight((geom.dim, k)) for _ in range(geom.heads)],
                    wk=[weight((geom.dim, k)) for _ in range(geom.heads)],
                    wv=[weight((geom.dim, k)) for _ in range(geom.heads)],
                    wo=weight((k * geom.heads, geom.dim)),
                    head_dim=k,
                    scale_dim=geom.head_dim,
                    rpb=rpb,
                    rpb_index=rpb_index,
                )
                blocks.append(BlockParams(
                    norm1_gain=ones(geom.dim), norm1_bias=zeros(geom.dim),
                    attn=attn,
                    norm2_gain=ones(geom.dim), norm2_bias=zeros(geom.dim),
                    mlp=MlpParams(w1=weight((geom.dim, km)), w2=weight((km, geom.dim))),
                    shift=block_shift(config, geom.grid, b),
                ))
            merge = None
            if geom.index < config.num_stages - 1:
                merge = weight((4 * geom.dim, 2 * geom.dim))
            self.stages.append(StageParams(blocks=blocks, merge=merge))
        last = config.stage_dim(config.num_stages - 1)
        self.final_gain = ones(last)
        self.final_bias = zeros(last)
        self.head = weight((last, config.num_classes))

    def named_parameters(self) -> list:
        """(name, tensor) pairs; a site's weights are named "<site id>.<weight>"."""
        out = [("patch_embed", self.patch_embed)]
        for s, (stage, pairs) in enumerate(zip(self.stages, block_sites(self.config))):
            for b, (blk, (attn_site, mlp_site)) in enumerate(zip(stage.blocks, pairs)):
                base = block_id(s, b)
                attn, mlp = attn_site.id, mlp_site.id
                out.append((f"{base}.norm1.gain", blk.norm1_gain))
                out.append((f"{base}.norm1.bias", blk.norm1_bias))
                for j in range(blk.attn.heads):
                    out.append((f"{attn}.wq{j}", blk.attn.wq[j]))
                    out.append((f"{attn}.wk{j}", blk.attn.wk[j]))
                    out.append((f"{attn}.wv{j}", blk.attn.wv[j]))
                out.append((f"{attn}.wo", blk.attn.wo))
                if blk.attn.rpb is not None:
                    for j in range(blk.attn.heads):
                        out.append((f"{attn}.rpb{j}", blk.attn.rpb[j]))
                out.append((f"{base}.norm2.gain", blk.norm2_gain))
                out.append((f"{base}.norm2.bias", blk.norm2_bias))
                out.append((f"{mlp}.w1", blk.mlp.w1))
                out.append((f"{mlp}.w2", blk.mlp.w2))
            if stage.merge is not None:
                out.append((f"stage{s}.merge", stage.merge))
        out.append(("final_norm.gain", self.final_gain))
        out.append(("final_norm.bias", self.final_bias))
        out.append(("head", self.head))
        return out

    def parameter_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())

    def zero_grads(self):
        for _, p in self.named_parameters():
            p.grad = None

    def forward(self, image, scores: dict | None = None):
        return backbone_forward(self, image, scores)


def build_backbone(config: BackboneConfig, seed: int) -> Backbone:
    return Backbone(config, rng=np.random.default_rng(seed))


def _logits_row(model: Backbone, image, scores: dict | None):
    cfg = model.config
    x = patch_embed(image, cfg.patch_size, model.patch_embed)
    features = []
    grid = cfg.image_size // cfg.patch_size
    scores = scores or {}
    for stage, pairs in zip(model.stages, block_sites(cfg)):
        for blk, (attn, mlp) in zip(stage.blocks, pairs):
            spec = WindowSpec(grid, grid, cfg.window, blk.shift)
            x = block_forward(x, blk, spec, scores.get(attn.id), scores.get(mlp.id),
                              site_ids=(attn.id, mlp.id))
        features.append(x)
        if stage.merge is not None:
            x = patch_merge(x, grid, grid, stage.merge)
            grid //= 2
    x = T.layer_norm(x, model.final_gain, model.final_bias)
    pooled = T.mean_rows(x)
    return T.matmul(pooled, model.head), features


def backbone_forward(model: Backbone, image, scores: dict | None = None):
    """Run the full backbone on one image: (logits[num_classes], features)."""
    row, features = _logits_row(model, image, scores)
    return T.reshape(row, (model.config.num_classes,)), features


def forward_batch(model: Backbone, images, scores: dict | None = None) -> Tensor:
    """Stack per-image logit rows into a [B x num_classes] tensor."""
    rows = [_logits_row(model, img, scores)[0] for img in images]
    return T.concat(rows, axis=0)
