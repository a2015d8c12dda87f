"""Bit-exact checkpoint files.

Layout: an 8-byte magic, a 4-byte little-endian header length, a JSON header
(version, backbone config, site widths, training state, tensor directory
with byte offsets), then raw little-endian float32 payloads. Everything a
run needs to resume lives in one file; loading rebuilds the exact arrays.

A save writes each array's own buffer, so it holds no second copy of the
payload. A load checks the whole header first, then reads each tensor
straight into a fresh array, so it holds about one file's worth of memory
and no two loaded arrays share a buffer. A load may read only some tensor
groups (prune and eval skip the optimizer moments) and seeks past the
others' bytes. A header that breaks the schema, or whose config implies
other tensor counts than its directory holds, raises FormatError. Files are
written to a temporary name beside the target and renamed over it, so a
reader sees the old file or the whole new one, never a part. A model
restored from a Checkpoint holds its arrays, and a Checkpoint built from a
model holds the model's; neither is written into.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import secrets
import struct
from dataclasses import dataclass, field

import numpy as np

from .blocks import Backbone, BackboneConfig, check_site_dims
from .errors import ConfigError, DimensionError, FormatError, UsageError
from .scoring import ScoredModel, attach_scores

MAGIC = b"DIMPRUNE"
VERSION = 1
_F4 = np.dtype("<f4")
_HEADER_KEYS = {"version", "config", "site_dims", "step", "seed", "rng_state",
                "tensors"}
# JSON type test for each BackboneConfig field, by the type of its default.
_CONFIG_TYPES = {
    int: lambda v: type(v) is int,
    float: lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
    bool: lambda v: type(v) is bool,
    tuple: lambda v: type(v) is list and all(type(x) is int for x in v),
}
_CONFIG_FIELDS = {f.name: _CONFIG_TYPES[type(f.default)]
                  for f in dataclasses.fields(BackboneConfig)}


@dataclass
class Checkpoint:
    config: BackboneConfig
    site_dims: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)   # name -> float32 array
    scores: dict = field(default_factory=dict)   # site_id -> float32 array
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)
    step: int = 0
    seed: int = 0
    # No stage sets it (runs draw from seeds); a loaded file's value round-trips.
    rng_state: dict | None = None

    def has_scores(self) -> bool:
        return bool(self.scores)


_GROUPS = {"param": "params", "score": "scores", "optm": "opt_m", "optv": "opt_v"}
TENSOR_GROUPS = tuple(_GROUPS.values())


def _flatten(ckpt: Checkpoint):
    for prefix, attr in _GROUPS.items():
        for name, arr in getattr(ckpt, attr).items():
            yield f"{prefix}.{name}", np.ascontiguousarray(arr, dtype=_F4)


def write_atomic(path, write):
    """Call ``write(fh)`` on a new binary file beside ``path``, then rename
    it over ``path``. If ``write`` or the rename raises, the temporary file
    is removed and whatever was at ``path`` stays as it was. There is no
    fsync: this guards against a failed or interrupted write, not against
    a power loss."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, ckpt: Checkpoint):
    directory = []
    arrays = []
    offset = 0
    for name, arr in _flatten(ckpt):
        directory.append({"name": name, "shape": list(arr.shape),
                          "offset": offset, "bytes": arr.nbytes})
        arrays.append(arr)
        offset += arr.nbytes
    header = {
        "version": VERSION,
        "config": dataclasses.asdict(ckpt.config),
        "site_dims": {k: int(v) for k, v in ckpt.site_dims.items()},
        "step": int(ckpt.step),
        "seed": int(ckpt.seed),
        "rng_state": ckpt.rng_state,
        "tensors": directory,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")

    def write(fh):
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(arr)

    write_atomic(path, write)


def _checkpoint_from_header(path, header) -> Checkpoint:
    """The Checkpoint a header describes, with empty tensor tables; every
    field is checked against the schema ``save_checkpoint`` writes."""
    if type(header) is not dict:
        raise FormatError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if type(version) is not int or version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version!r}")
    if header.keys() != _HEADER_KEYS:
        raise FormatError(f"{path}: header has keys {sorted(header)}, "
                          f"expected {sorted(_HEADER_KEYS)}")
    raw = header["config"]
    if (type(raw) is not dict or raw.keys() != _CONFIG_FIELDS.keys()
            or not all(ok(raw[key]) for key, ok in _CONFIG_FIELDS.items())):
        raise FormatError(f"{path}: malformed backbone config {raw!r:.300}")
    site_dims = header["site_dims"]
    if type(site_dims) is not dict or any(type(v) is not int
                                          for v in site_dims.values()):
        raise FormatError(f"{path}: site_dims must map site ids to integer widths")
    try:
        config = BackboneConfig(**raw)
    except (ConfigError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    step, seed, rng_state = header["step"], header["seed"], header["rng_state"]
    if type(step) is not int or step < 0 or type(seed) is not int:
        raise FormatError(f"{path}: step must be an integer >= 0 and seed an integer")
    if rng_state is not None and type(rng_state) is not dict:
        raise FormatError(f"{path}: rng_state must be null or an object")
    return Checkpoint(config=config, site_dims=site_dims, step=step, seed=seed,
                      rng_state=rng_state)


def _is_shape(shape) -> bool:
    if type(shape) is not list:
        return False
    for n in shape:
        if type(n) is not int or n < 1:
            return False
    return True


def _directory(path, entries, payload: int) -> list:
    """(table, name, shape) of every tensor, in file order. The entries must
    tile the payload from byte 0, each holding 4 bytes per element of a
    shape whose entries are all >= 1, and fit in the ``payload`` bytes the
    file holds after its header; each optimizer moment must match a
    parameter or score of the file. A load pays this per tensor, so it is
    kept to plain comparisons."""
    if type(entries) is not list:
        raise FormatError(f"{path}: tensor directory must be a list")
    out = []
    seen = set()
    end = 0
    for entry in entries:
        try:
            name, shape, offset, nbytes = (entry["name"], entry["shape"],
                                           entry["offset"], entry["bytes"])
            group, _, key = name.partition(".")
        except (TypeError, KeyError, AttributeError):
            group = key = None
        if not (key and len(entry) == 4 and type(name) is str and group in _GROUPS
                and name not in seen and type(offset) is int and offset == end
                and _is_shape(shape) and type(nbytes) is int
                and nbytes == 4 * math.prod(shape)):
            raise FormatError(f"{path}: malformed tensor entry {entry!r:.300}")
        seen.add(name)
        out.append((_GROUPS[group], key, shape))
        end += nbytes
    if end > payload:
        raise FormatError(f"{path}: truncated payload: the directory needs "
                          f"{end} bytes, the file holds {payload}")
    # An optimizer moment belongs to a parameter, or to a score as
    # ``score.<site>``, and has its shape.
    owners = {key if attr == "params" else f"score.{key}": shape
              for attr, key, shape in out if attr in ("params", "scores")}
    for attr, key, shape in out:
        if attr in ("opt_m", "opt_v") and owners.get(key) != shape:
            raise FormatError(f"{path}: optimizer moment {key} with shape {shape} "
                              f"names no parameter or score of that shape in the file")
    return out


def _tensor_counts(config: BackboneConfig) -> tuple:
    """(parameter, score) tensor counts of a model of ``config``, worked out
    per stage: per block two norms of two tensors, wo, w1, w2 and three
    projections per head (four with a position table), then the patch
    embedding, the merges, the final norm and the head; two sites a block."""
    per_head = 4 if config.use_relative_position_bias else 3
    blocks = zip(config.depths, config.heads)
    params = len(config.depths) + 3 + sum(d * (7 + per_head * h) for d, h in blocks)
    return params, 2 * sum(config.depths)


def _check_against_config(path, ckpt: Checkpoint, directory: list):
    """Compare the directory's tensor counts with the header config's (a
    score table is all or nothing) before site_dims is checked site by site,
    a walk that a corrupt config can make millions of sites long."""
    params, scores = _tensor_counts(ckpt.config)
    held = [attr for attr, _, _ in directory]
    n_params, n_scores = held.count("params"), held.count("scores")
    if n_params != params or n_scores not in (0, scores):
        raise FormatError(
            f"{path}: the header config implies {params} parameter and 0 or "
            f"{scores} score tensors, the directory holds {n_params} and {n_scores}")
    try:
        check_site_dims(ckpt.config, ckpt.site_dims)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_checkpoint(path, groups=TENSOR_GROUPS) -> Checkpoint:
    """The Checkpoint saved at ``path``, with the tensors of ``groups`` (of
    "params", "scores", "opt_m" and "opt_v") read and the others' tables
    left empty. The header and the whole directory are checked either way;
    the bytes of a group not read are skipped."""
    unknown = set(groups) - set(TENSOR_GROUPS)
    if unknown:
        raise UsageError(f"unknown checkpoint tensor groups {sorted(unknown)}")
    start = len(MAGIC) + 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(start)
        if len(lead) < start or lead[:len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        (hlen,) = struct.unpack("<I", lead[len(MAGIC):])
        if size < start + hlen:
            raise FormatError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: unreadable header: {exc}") from exc
        ckpt = _checkpoint_from_header(path, header)
        directory = _directory(path, header["tensors"], size - start - hlen)
        _check_against_config(path, ckpt, directory)
        for attr, name, shape in directory:
            if attr not in groups:
                fh.seek(4 * math.prod(shape), os.SEEK_CUR)
                continue
            arr = np.empty(shape, dtype=_F4)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: truncated payload for {name}")
            getattr(ckpt, attr)[name] = arr
    return ckpt


def checkpoint_from_model(model: Backbone, scored: ScoredModel | None = None,
                          step: int = 0, seed: int = 0,
                          opt_m: dict | None = None,
                          opt_v: dict | None = None) -> Checkpoint:
    params = {name: t.data for name, t in model.named_parameters()}
    scores = {}
    if scored is not None:
        if scored.model is not model:
            raise UsageError("score table belongs to a different model")
        scores = {sv.site_id: sv.alpha.data for sv in scored.scores}
    return Checkpoint(config=model.config, site_dims=dict(model.site_dims),
                      params=params, scores=scores,
                      opt_m=dict(opt_m or {}), opt_v=dict(opt_v or {}),
                      step=step, seed=seed)


def model_from_checkpoint(ckpt: Checkpoint) -> Backbone:
    try:
        return Backbone(ckpt.config, site_dims=dict(ckpt.site_dims), params=ckpt.params)
    except DimensionError as exc:
        raise FormatError(f"checkpoint tensors: {exc}") from exc


def scored_from_checkpoint(ckpt: Checkpoint):
    """Rebuild (model, ScoredModel) with score values restored."""
    model = model_from_checkpoint(ckpt)
    scored = attach_scores(model)
    expected = {sv.site_id for sv in scored.scores}
    if set(ckpt.scores) != expected:
        raise FormatError(
            f"checkpoint score table {sorted(ckpt.scores)} does not match "
            f"model sites {sorted(expected)}")
    for sv in scored.scores:
        arr = ckpt.scores[sv.site_id]
        if arr.shape != (sv.length,):
            raise FormatError(
                f"score {sv.site_id} has length {arr.shape}, expected {sv.length}")
        sv.alpha.data = np.ascontiguousarray(arr, dtype=np.float32)
    return model, scored
