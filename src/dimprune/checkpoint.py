"""Bit-exact checkpoint files.

Layout: an 8-byte magic, a 4-byte little-endian header length, a JSON header
(version, backbone config, site widths, training state, tensor directory
with byte offsets), then raw little-endian float32 payloads. Everything a
run needs to resume lives in one file; loading rebuilds the exact arrays.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .blocks import Backbone, BackboneConfig
from .errors import FormatError, UsageError
from .scoring import ScoredModel, attach_scores
from .tensor import Tensor

MAGIC = b"DIMPRUNE"
VERSION = 1


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
    rng_state: dict | None = None
    version: int = VERSION

    def has_scores(self) -> bool:
        return bool(self.scores)


def _flatten(ckpt: Checkpoint):
    groups = [("param", ckpt.params), ("score", ckpt.scores),
              ("optm", ckpt.opt_m), ("optv", ckpt.opt_v)]
    for prefix, table in groups:
        for name, arr in table.items():
            yield f"{prefix}.{name}", np.ascontiguousarray(arr, dtype="<f4")


def save_checkpoint(path, ckpt: Checkpoint):
    directory = []
    payloads = []
    offset = 0
    seen = set()
    for name, arr in _flatten(ckpt):
        if name in seen:
            raise FormatError(f"duplicate tensor name in checkpoint: {name}")
        seen.add(name)
        raw = arr.tobytes()
        directory.append({"name": name, "shape": list(arr.shape),
                          "offset": offset, "bytes": len(raw)})
        payloads.append(raw)
        offset += len(raw)
    header = {
        "version": ckpt.version,
        "config": dataclasses.asdict(ckpt.config),
        "site_dims": {k: int(v) for k, v in ckpt.site_dims.items()},
        "step": int(ckpt.step),
        "seed": int(ckpt.seed),
        "rng_state": ckpt.rng_state,
        "tensors": directory,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(blob)).astype("<u4").tobytes())
        fh.write(blob)
        for raw in payloads:
            fh.write(raw)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4 or data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    hlen = int(np.frombuffer(data, dtype="<u4", count=1,
                             offset=len(MAGIC))[0])
    start = len(MAGIC) + 4
    if len(data) < start + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(data[start:start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    if header.get("version") != VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint version {header.get('version')}")

    cfg_dict = dict(header["config"])
    cfg_dict["depths"] = tuple(cfg_dict["depths"])
    cfg_dict["heads"] = tuple(cfg_dict["heads"])
    ckpt = Checkpoint(
        config=BackboneConfig(**cfg_dict),
        site_dims={k: int(v) for k, v in header["site_dims"].items()},
        step=int(header["step"]),
        seed=int(header["seed"]),
        rng_state=header.get("rng_state"),
        version=int(header["version"]),
    )
    base = start + hlen
    tables = {"param": ckpt.params, "score": ckpt.scores,
              "optm": ckpt.opt_m, "optv": ckpt.opt_v}
    for entry in header["tensors"]:
        lo = base + entry["offset"]
        hi = lo + entry["bytes"]
        if hi > len(data):
            raise FormatError(f"{path}: truncated payload for {entry['name']}")
        arr = np.frombuffer(data[lo:hi], dtype="<f4").reshape(entry["shape"])
        prefix, _, name = entry["name"].partition(".")
        if prefix not in tables or not name:
            raise FormatError(f"{path}: unknown tensor group in {entry['name']!r}")
        tables[prefix][name] = np.ascontiguousarray(arr)
    return ckpt


def checkpoint_from_model(model: Backbone, scored: ScoredModel | None = None,
                          step: int = 0, seed: int = 0,
                          opt_m: dict | None = None, opt_v: dict | None = None,
                          rng_state: dict | None = None) -> Checkpoint:
    params = {name: t.data.copy() for name, t in model.named_parameters()}
    scores = {}
    if scored is not None:
        if scored.model is not model:
            raise UsageError("score table belongs to a different model")
        scores = {sv.site_id: sv.alpha.data.copy() for sv in scored.scores}
    return Checkpoint(config=model.config, site_dims=dict(model.site_dims),
                      params=params, scores=scores,
                      opt_m=dict(opt_m or {}), opt_v=dict(opt_v or {}),
                      step=step, seed=seed, rng_state=rng_state)


def model_from_checkpoint(ckpt: Checkpoint) -> Backbone:
    model = Backbone(ckpt.config, site_dims=dict(ckpt.site_dims), rng=None)
    expected = dict(model.named_parameters())
    missing = set(expected) - set(ckpt.params)
    extra = set(ckpt.params) - set(expected)
    if missing or extra:
        raise FormatError(
            f"checkpoint tensors do not match model: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    for name, tensor in expected.items():
        arr = ckpt.params[name]
        if tuple(arr.shape) != tensor.shape:
            raise FormatError(
                f"tensor {name} has shape {arr.shape}, model expects {tensor.shape}")
        tensor.data[:] = arr
    return model


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
        sv.alpha.data[:] = arr
    return model, scored
