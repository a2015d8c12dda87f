import contextlib
import dataclasses
import functools
import json
import os
import resource
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimprune import checkpoint as checkpoint_module
from dimprune.blocks import Backbone, BackboneConfig, build_backbone, forward_batch, sites
from dimprune.checkpoint import (
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    scored_from_checkpoint,
)
from dimprune.errors import FormatError, UsageError
from dimprune import pruner
from dimprune.pruner import KeepSet, prune_model
from dimprune.scoring import attach_scores

from test_costmodel import CONFIG_MATRIX


def fixture_checkpoint(seed=0):
    model = build_backbone(BackboneConfig(), seed=seed)
    scored = attach_scores(model)
    r = np.random.default_rng(seed + 1)
    for sv in scored.scores:
        sv.alpha.data[:] = r.normal(1.0, 0.3, size=sv.length).astype(np.float32)
    opt_m = {name: r.normal(size=t.shape).astype(np.float32)
             for name, t in list(model.named_parameters())[:3]}
    opt_v = {name: r.random(t.shape).astype(np.float32)
             for name, t in list(model.named_parameters())[:3]}
    return model, scored, checkpoint_from_model(
        model, scored, step=17, seed=seed, opt_m=opt_m, opt_v=opt_v)


def test_roundtrip_is_bitwise(tmp_path):
    model, scored, ckpt = fixture_checkpoint()
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.site_dims == ckpt.site_dims
    assert back.step == 17 and back.seed == 0
    assert back.rng_state == ckpt.rng_state
    for table in ("params", "scores", "opt_m", "opt_v"):
        a, b = getattr(ckpt, table), getattr(back, table)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name
            assert b[name].dtype == np.float32


def test_a_load_of_params_and_scores_equals_the_full_load_without_moments(tmp_path):
    _, _, ckpt = fixture_checkpoint()
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, ckpt)
    full = load_checkpoint(path)
    part = load_checkpoint(path, ("params", "scores"))
    assert part.opt_m == {} and part.opt_v == {} and full.opt_m and full.opt_v
    for table in ("params", "scores"):
        a, b = getattr(full, table), getattr(part, table)
        assert list(a) == list(b)
        for name in a:
            assert a[name].dtype == b[name].dtype and a[name].shape == b[name].shape
            assert a[name].tobytes() == b[name].tobytes(), name
    for key in ("config", "site_dims", "step", "seed", "rng_state"):
        assert getattr(part, key) == getattr(full, key)
    with pytest.raises(UsageError, match="moments"):
        load_checkpoint(path, ("params", "moments"))


def test_serialization_is_deterministic(tmp_path):
    _, _, ckpt = fixture_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_model_restore_reproduces_forward(tmp_path):
    model, scored, ckpt = fixture_checkpoint(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    img = np.random.default_rng(4).random((3, 32, 32)).astype(np.float32)
    want = forward_batch(model, img[None], scores=scored.score_map())
    rebuilt, rescored = scored_from_checkpoint(load_checkpoint(path))
    got = forward_batch(rebuilt, img[None], scores=rescored.score_map())
    assert np.array_equal(want.data, got.data)


def test_pruned_model_roundtrip(tmp_path):
    model, scored, _ = fixture_checkpoint(seed=5)
    pruned, _ = prune_model(scored, 0.5)
    ckpt = checkpoint_from_model(pruned, step=1, seed=5)
    assert not ckpt.has_scores()
    path = tmp_path / "pruned.ckpt"
    save_checkpoint(path, ckpt)
    back = model_from_checkpoint(load_checkpoint(path))
    assert back.site_dims == pruned.site_dims
    img = np.random.default_rng(6).random((3, 32, 32)).astype(np.float32)
    want = forward_batch(pruned, img[None])
    got = forward_batch(back, img[None])
    assert np.array_equal(want.data, got.data)


def test_checkpoint_error_paths(tmp_path):
    model, scored, ckpt = fixture_checkpoint(seed=7)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, ckpt)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(FormatError):
        load_checkpoint(bad_magic)

    trunc_header = tmp_path / "th.ckpt"
    trunc_header.write_bytes(bytes(raw[:40]))
    with pytest.raises(FormatError):
        load_checkpoint(trunc_header)

    trunc_payload = tmp_path / "tp.ckpt"
    trunc_payload.write_bytes(bytes(raw[:-20]))
    with pytest.raises(FormatError):
        load_checkpoint(trunc_payload)

    garbled = tmp_path / "g.ckpt"
    garbled.write_bytes(bytes(raw[:12]) + b"\xff" * (len(raw) - 12))
    with pytest.raises(FormatError):
        load_checkpoint(garbled)


def test_version_is_checked(tmp_path):
    _, _, ckpt = fixture_checkpoint(seed=8)
    path = tmp_path / "v1.ckpt"
    save_checkpoint(path, ckpt)
    raw = path.read_bytes()
    mutated = raw.replace(b'"version": 1', b'"version": 9', 1)
    assert mutated != raw
    bad = tmp_path / "v9.ckpt"
    bad.write_bytes(mutated)
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_restore_rejects_mismatched_tensor_sets():
    model, scored, ckpt = fixture_checkpoint(seed=9)
    del ckpt.params["head"]
    with pytest.raises(FormatError):
        model_from_checkpoint(ckpt)
    ckpt.params["head"] = np.zeros((32, 4), dtype=np.float32)
    ckpt.params["bogus"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(FormatError):
        model_from_checkpoint(ckpt)
    del ckpt.params["bogus"]
    ckpt.params["head"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(FormatError):
        model_from_checkpoint(ckpt)


def test_scored_restore_validates_sites():
    _, _, ckpt = fixture_checkpoint(seed=10)
    ckpt.scores.pop("stage0.block0.attn")
    with pytest.raises(FormatError):
        scored_from_checkpoint(ckpt)


def test_checkpoint_from_foreign_scores_rejected():
    model_a = build_backbone(BackboneConfig(), seed=11)
    model_b = build_backbone(BackboneConfig(), seed=12)
    scored_b = attach_scores(model_b)
    with pytest.raises(UsageError):
        checkpoint_from_model(model_a, scored_b)


# ------------------------------------------------- copy-free I/O and schema


def rewrite_header(raw: bytes, mutate) -> bytes:
    """The checkpoint bytes ``raw`` with ``mutate`` applied to its parsed
    header; the payload is kept as it was."""
    hlen = int(np.frombuffer(raw, dtype="<u4", count=1, offset=8)[0])
    header = json.loads(raw[12:12 + hlen])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:8] + np.uint32(len(blob)).astype("<u4").tobytes() + blob + raw[12 + hlen:]


def _set(*keys_and_value):
    """A mutation that sets header[k1][k2]... to the last argument."""
    *keys, value = keys_and_value

    def mutate(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return mutate


def _shape_minus_one(header):
    header["tensors"][0]["shape"][0] = -1


def _bytes_one_short(header):
    header["tensors"][0]["bytes"] -= 1


# Header mutations that once escaped load_checkpoint as KeyError, TypeError,
# ValueError or ConfigError, or loaded (the -1 is inferred by a reshape).
HEADER_PROBES = {
    "missing_config": lambda h: h.pop("config"),
    "unknown_config_key": _set("config", "bogus", 1),
    "bytes_one_short": _bytes_one_short,
    "site_dims_as_list": lambda h: h.update(site_dims=sorted(h["site_dims"])),
    "tensors_null": _set("tensors", None),
    "shape_minus_one": _shape_minus_one,
    "backbone_rejects_window_3": _set("config", "window", 3),
}


@pytest.mark.parametrize("rpb", [False, True])
@pytest.mark.parametrize("cfg", [row[1] for row in CONFIG_MATRIX],
                         ids=[row[0] for row in CONFIG_MATRIX])
def test_tensor_counts_per_stage_equal_the_model_and_its_sites(cfg, rpb):
    cfg = dataclasses.replace(cfg, use_relative_position_bias=rpb)
    assert checkpoint_module._tensor_counts(cfg) == (
        len(Backbone(cfg).named_parameters()), len(sites(cfg)))


def test_a_directory_unlike_the_header_config_fails_on_load_naming_both_counts(tmp_path):
    _, _, ckpt = fixture_checkpoint(seed=13)
    path = tmp_path / "deep.ckpt"
    save_checkpoint(path, ckpt)
    path.write_bytes(rewrite_header(path.read_bytes(),
                                    lambda h: h["config"].update(depths=[2 ** 18, 1])))
    with pytest.raises(FormatError, match="implies 3407896 parameter and 0 or 524290 "
                                          "score tensors, the directory holds 37 and 4"):
        load_checkpoint(path)
    ckpt.scores.pop("stage0.block0.attn")     # a score table is all or nothing
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError, match="the directory holds 37 and 3"):
        load_checkpoint(path)


@contextlib.contextmanager
def address_space_capped():
    """Cap the process's address space at its mapped size plus 1 GiB while
    the block runs, so a probe that asks for TiB fails before it touches a
    page, even on a system that would grant it."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    cap = mapped + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_a_huge_head_count_fails_on_the_tensor_counts_without_expanding_heads(tmp_path):
    """The counts are worked out per stage: 2^40 heads a stage fail at once.
    The address-space cap turns a count that built a list per head into a
    MemoryError, not a machine out of memory."""
    _, _, ckpt = fixture_checkpoint(seed=14)
    path = tmp_path / "heads.ckpt"
    save_checkpoint(path, ckpt)
    path.write_bytes(rewrite_header(path.read_bytes(), lambda h: h["config"].update(
        base_dim=2 ** 40, heads=[2 ** 40, 2 ** 40])))
    with address_space_capped(), pytest.raises(
            FormatError, match="implies 6597069766675 parameter and 0 or 4 score "
                               "tensors, the directory holds 37 and 4"):
        load_checkpoint(path)


@pytest.mark.parametrize("probe", sorted(HEADER_PROBES))
def test_header_probes_raise_format_error(tmp_path, probe):
    _, _, ckpt = fixture_checkpoint(seed=12)
    path = tmp_path / "probe.ckpt"
    save_checkpoint(path, ckpt)
    path.write_bytes(rewrite_header(path.read_bytes(), HEADER_PROBES[probe]))
    with pytest.raises(FormatError):
        load_checkpoint(path)


# JSON values of every type; a field takes a mutation from those its schema rejects.
JSON_VALUES = [None, True, 0, -1, 1.5, "x", [], [1.5], ["x"], {}, {"k": 1}]
KINDS = {
    "int": lambda v: type(v) is int,
    "count": lambda v: type(v) is int and v >= 0,
    "number": lambda v: type(v) in (int, float),
    "bool": lambda v: type(v) is bool,
    "ints": lambda v: type(v) is list and all(type(x) is int for x in v) and v != [],
    "str": lambda v: type(v) is str,
    "dict": lambda v: type(v) is dict,
    "list": lambda v: type(v) is list,
    "state": lambda v: v is None or type(v) is dict,
}
TOP_KINDS = {"version": "int", "config": "dict", "site_dims": "dict", "step": "count",
             "seed": "int", "rng_state": "state", "tensors": "list"}
CONFIG_KINDS = {"image_size": "int", "patch_size": "int", "in_channels": "int",
                "base_dim": "int", "depths": "ints", "heads": "ints", "window": "int",
                "mlp_ratio": "number", "num_classes": "int",
                "use_relative_position_bias": "bool"}
ENTRY_KINDS = {"name": "str", "shape": "ints", "offset": "int", "bytes": "int"}
# Values of the right type that BackboneConfig rejects for the 32x32 default.
REJECTED_CONFIG = [("window", 3), ("patch_size", 5), ("heads", [3, 4]),
                   ("depths", [0, 1]), ("depths", [1]), ("num_classes", 1),
                   ("base_dim", 0), ("mlp_ratio", 0.3), ("image_size", 30),
                   ("in_channels", 0)]


@st.composite
def header_mutations(draw):
    """(description, mutate) for one header field that the schema rejects."""
    where = draw(st.sampled_from(["top", "config", "site_dims", "entry", "extra"]))
    if where == "extra":
        scope = draw(st.sampled_from(["top", "config", "entry"]))

        def mutate(h):
            target = {"top": h, "config": h["config"], "entry": h["tensors"][0]}[scope]
            target["bogus"] = 0
        return f"unknown key in {scope}", mutate
    if where == "site_dims":
        choice = draw(st.sampled_from(["zero", "too_wide", "unknown", "wrong_type"]))
        bad = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not int]))

        def mutate(h):
            site = sorted(h["site_dims"])[0]
            value = {"zero": 0, "too_wide": h["site_dims"][site] + 1,
                     "wrong_type": bad}.get(choice)
            if choice == "unknown":
                h["site_dims"]["stage9.block0.attn"] = 1
            else:
                h["site_dims"][site] = value
        return f"site_dims {choice} {bad!r}", mutate
    if where == "entry":
        index = draw(st.integers(1, 20))
        change = draw(st.sampled_from(["drop", "wrong_type", "shift", "nonpositive",
                                       "negated", "group", "no_group", "duplicate"]))
        key = draw(st.sampled_from(sorted(ENTRY_KINDS)))
        bad = draw(st.sampled_from(JSON_VALUES))
        if change == "wrong_type":
            assume(not KINDS[ENTRY_KINDS[key]](bad))
        if change == "shift":
            key = draw(st.sampled_from(["offset", "bytes"]))
            bad = draw(st.integers(1, 64)) * draw(st.sampled_from([-1, 1]))
        if change == "nonpositive":
            bad = draw(st.integers(-3, 0))

        def mutate(h):
            entry = h["tensors"][index]
            if change == "drop":
                del entry[key]
            elif change == "wrong_type":
                entry[key] = bad
            elif change == "shift":
                entry[key] += bad
            elif change == "nonpositive":
                entry["shape"][-1] = bad
            elif change == "negated":
                # Two negative entries keep the product, and so the byte count.
                matrix = next(e for e in h["tensors"][index:] if len(e["shape"]) == 2)
                matrix["shape"] = [-n for n in matrix["shape"]]
            elif change == "group":
                entry["name"] = "bogus." + entry["name"].partition(".")[2]
            elif change == "no_group":
                entry["name"] = entry["name"].partition(".")[0]
            else:
                entry["name"] = h["tensors"][index - 1]["name"]
        return f"entry {index} {change} {key} {bad!r}", mutate
    kinds = TOP_KINDS if where == "top" else CONFIG_KINDS
    key = draw(st.sampled_from(sorted(kinds)))
    action = draw(st.sampled_from(["drop", "wrong_type", "rejected"]))
    if action == "rejected":
        key, value = draw(st.sampled_from(REJECTED_CONFIG))
        return f"config {key}={value!r}", _set("config", key, value)
    if action == "drop":
        return f"drop {where} {key}", (lambda h: h.pop(key) if where == "top"
                                       else h["config"].pop(key))
    value = draw(st.sampled_from(JSON_VALUES + [2]))
    assume(not KINDS[kinds[key]](value) or (key == "version" and value != 1))
    if where == "top":
        return f"{key}={value!r}", _set(key, value)
    return f"config {key}={value!r}", _set("config", key, value)


@functools.lru_cache(maxsize=None)
def _fuzz_base() -> bytes:
    _, _, ckpt = fixture_checkpoint(seed=13)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.ckpt")
        save_checkpoint(path, ckpt)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=200, deadline=None)
@given(mutation=header_mutations())
@example(mutation=("step=-1", _set("step", -1)))
def test_every_single_field_header_mutation_raises_format_error(mutation):
    what, mutate = mutation
    raw = rewrite_header(_fuzz_base(), mutate)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.ckpt")
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(FormatError):
            load_checkpoint(path)
            pytest.fail(f"loaded a header with {what}")


def reference_bytes(ckpt) -> bytes:
    """The VERSION 1 layout written out by hand: magic, the <u4 header
    length, the sorted-keys JSON header, then each tensor's bytes."""
    directory, payloads, offset = [], [], 0
    for prefix, table in (("param", ckpt.params), ("score", ckpt.scores),
                          ("optm", ckpt.opt_m), ("optv", ckpt.opt_v)):
        for name, arr in table.items():
            raw = np.asarray(arr, dtype="<f4").tobytes()
            directory.append({"name": f"{prefix}.{name}", "shape": list(arr.shape),
                              "offset": offset, "bytes": len(raw)})
            payloads.append(raw)
            offset += len(raw)
    header = {"version": 1, "config": dataclasses.asdict(ckpt.config),
              "site_dims": ckpt.site_dims, "step": ckpt.step, "seed": ckpt.seed,
              "rng_state": ckpt.rng_state, "tensors": directory}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return (b"DIMPRUNE" + np.uint32(len(blob)).astype("<u4").tobytes() + blob
            + b"".join(payloads))


def test_saved_bytes_match_the_reference_layout(tmp_path):
    _, _, ckpt = fixture_checkpoint(seed=14)
    path = tmp_path / "ref.ckpt"
    save_checkpoint(path, ckpt)
    assert path.read_bytes() == reference_bytes(ckpt)


def test_loaded_arrays_are_contiguous_float32_and_share_no_memory(tmp_path):
    _, _, ckpt = fixture_checkpoint(seed=15)
    path = tmp_path / "own.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    arrays = [arr for table in (back.params, back.scores, back.opt_m, back.opt_v)
              for arr in table.values()]
    assert len(arrays) == 47
    for i, arr in enumerate(arrays):
        assert arr.dtype == np.float32 and arr.flags.c_contiguous and arr.flags.writeable
        # Its own buffer, not a view into one shared with other tensors, so
        # dropping a tensor frees its memory.
        assert arr.flags.owndata
        for other in arrays[i + 1:]:
            assert not np.shares_memory(arr, other)


def large_checkpoint():
    """About 3.2 MB of payload in the 37 tensors of a two-stage model."""
    cfg = BackboneConfig(base_dim=128)
    return checkpoint_from_model(Backbone(cfg, rng=np.random.default_rng(16)))


def traced_peak(fn):
    """Peak bytes that tracemalloc (which sees numpy's buffers) records while
    ``fn`` runs, above what was allocated before, and fn's result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before, result


def test_save_holds_no_copy_of_the_payload(tmp_path):
    ckpt = large_checkpoint()
    path = tmp_path / "big.ckpt"
    peak, _ = traced_peak(lambda: save_checkpoint(path, ckpt))
    assert peak < 0.10 * path.stat().st_size


def test_load_holds_about_one_file_of_memory(tmp_path):
    ckpt = large_checkpoint()
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, ckpt)
    peak, back = traced_peak(lambda: load_checkpoint(path))
    assert peak < 1.2 * path.stat().st_size
    assert all(np.array_equal(back.params[k], v) for k, v in ckpt.params.items())


@pytest.mark.parametrize("w_scale,a_scale", [
    (1.0, 1.0), (1e20, 1e-20), (1e-20, 1e20), (1e-20, 1e-20), (1e-40, 1.0),
    (1e-40, 1e-5), (1e18, 1e19), (3e-39, 0.7)])
def test_folded_columns_equal_the_float64_formula_bitwise(w_scale, a_scale):
    r = np.random.default_rng(17)
    w1 = (r.normal(size=(6, 40)) * w_scale).astype(np.float32)
    alpha = (r.normal(size=40) * a_scale).astype(np.float32)
    keep = KeepSet("s", tuple(range(0, 40, 3)), 40)
    idx = list(keep.indices)
    want = (w1[:, idx].astype(np.float64) * alpha.astype(np.float64)[idx]).astype(np.float32)
    out = pruner._cut(w1, 1, np.array(idx), 40, alpha[idx])
    assert np.array_equal(out.view(np.uint32), want.view(np.uint32))


def test_folded_attention_columns_equal_the_float64_formula_bitwise():
    model, scored, _ = fixture_checkpoint(seed=18)
    pruned, report = prune_model(scored, 0.5)
    for site in ("stage0.block0.attn", "stage1.block0.attn"):
        stage = int(site[5])
        src = model.stages[stage].blocks[0].attn
        out = pruned.stages[stage].blocks[0].attn
        idx = list(report.keep_for(site).indices)
        alpha = scored.score(site).alpha.data.astype(np.float64)[idx]
        for w_src, w_out in zip(src.wq + src.wk + src.wv, out.wq + out.wk + out.wv):
            want = (w_src.data[:, idx].astype(np.float64) * alpha).astype(np.float32)
            assert np.array_equal(w_out.data.view(np.uint32), want.view(np.uint32))


def test_failed_save_leaves_the_earlier_file_and_no_temp_file(tmp_path, monkeypatch):
    _, _, old = fixture_checkpoint(seed=19)
    path = tmp_path / "keep.ckpt"
    save_checkpoint(path, old)
    before = path.read_bytes()
    real = checkpoint_module.write_atomic

    class FailsPartWay:
        """A file whose sixth write raises, after five went through."""

        def __init__(self, fh):
            self.fh, self.calls = fh, 0

        def write(self, data):
            self.calls += 1
            if self.calls == 6:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint_module, "write_atomic",
                        lambda target, write: real(target,
                                                   lambda fh: write(FailsPartWay(fh))))
    _, _, new = fixture_checkpoint(seed=20)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, new)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["keep.ckpt"]
