"""End-to-end command line behaviour: exit codes, records, full runs."""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from dimprune import cli
from dimprune.blocks import build_backbone, forward_batch
from dimprune.checkpoint import (checkpoint_from_model, load_checkpoint,
                                 model_from_checkpoint, save_checkpoint)
from dimprune.config import config_echo, load_config, make_dataset
from dimprune.errors import NumericError
from dimprune.costmodel import (Convention, REFERENCE_CONVENTION, measured_cost,
                                model_cost, swin_t_config)
from dimprune.pipeline import evaluate
from dimprune.scoring import attach_scores
from test_checkpoint import HEADER_PROBES, rewrite_header

TINY = """
model.image_size = 8
model.patch_size = 2
model.in_channels = 1
model.base_dim = 8
model.depths = 1,1
model.heads = 2,4
model.window = 2
model.mlp_ratio = 2.0
model.num_classes = 4
model.use_relative_position_bias = false
train.epochs = 2
train.batch_size = 8
train.lr = 0.01
train.weight_decay = 0.01
train.gamma = 0.001
train.seed = 0
train.normalize = true
data.kind = synth
data.seed = 1
data.n_per_class = 4
data.noise_sigma = 0.02
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines() if line.strip()]


def test_cost_default_table_hits_reference_totals(capsys):
    rc, out, err = run_cli(capsys, ["cost", "--include-bias", "--include-rpb"])
    assert rc == 0 and err == ""
    assert "27596254" in out
    assert "4489875456" in out
    assert "27.60" in out and "4.49" in out


def test_cost_runtime_convention_differs(capsys):
    rc, out, _ = run_cli(capsys, ["cost"])
    assert rc == 0
    assert "27527424" in out


def test_cost_json_records_sum_to_totals(capsys):
    rc, out, err = run_cli(
        capsys, ["cost", "--json", "--rho", "1.0,0.5", "--include-bias",
                 "--include-rpb"])
    assert rc == 0 and err == ""
    records = json_lines(out)
    for rho in (1.0, 0.5):
        rows = [r for r in records if r["rho"] == rho]
        total = next(r for r in rows if r["site_id"] == "total")
        overhead = next(r for r in rows if r["site_id"] == "overhead")
        sites = [r for r in rows if r["site_id"] not in ("total", "overhead")]
        assert sum(r["params"] for r in sites) + overhead["params"] == total["params"]
        assert sum(r["flops"] for r in sites) + overhead["flops"] == total["flops"]
        want = model_cost(swin_t_config(), rho, REFERENCE_CONVENTION)
        assert total["params"] == want.total_params
        assert total["flops"] == want.total_flops
    # Swin-T has 12 blocks, two sites each
    assert len([r for r in records if r["rho"] == 1.0]) == 26


def test_cost_accepts_config_and_overrides(capsys, tiny_cfg):
    rc, out, _ = run_cli(capsys, ["cost", "--config", tiny_cfg, "--json",
                                  "--set", "model.base_dim=16"])
    assert rc == 0
    records = json_lines(out)
    cfg = load_config(tiny_cfg, ["model.base_dim=16"])
    want = model_cost(cfg.model, 1.0, Convention())
    total = next(r for r in records if r["site_id"] == "total")
    assert total["params"] == want.total_params


def test_cost_calibrate_matches_unit_mac(capsys):
    rc1, out1, _ = run_cli(capsys, ["cost", "--json"])
    rc2, out2, _ = run_cli(capsys, ["cost", "--json", "--calibrate"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cost_mac_factor_two_doubles_flops(capsys):
    _, out1, _ = run_cli(capsys, ["cost", "--json"])
    _, out2, _ = run_cli(capsys, ["cost", "--json", "--mac-factor", "2"])
    t1 = next(r for r in json_lines(out1) if r["site_id"] == "total")
    t2 = next(r for r in json_lines(out2) if r["site_id"] == "total")
    assert t2["flops"] == 2 * t1["flops"]
    assert t2["params"] == t1["params"]


def test_cost_empty_rho_is_config_error(capsys):
    for rho in (" ", "abc", "1,x"):
        rc, out, err = run_cli(capsys, ["cost", "--rho", rho])
        assert rc == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "rho" in record["message"]


def test_unknown_config_key_exits_2(capsys, tiny_cfg):
    rc, _, err = run_cli(capsys, ["cost", "--config", tiny_cfg,
                                  "--set", "model.bogus=1"])
    assert rc == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_missing_checkpoint_exits_3(capsys, tiny_cfg, tmp_path):
    rc, _, err = run_cli(capsys, ["eval", "--config", tiny_cfg,
                                  "--checkpoint", str(tmp_path / "no.ckpt")])
    assert rc == 3
    record = json.loads(err)
    assert record["error"] == "FormatError"
    assert "no.ckpt" in record["message"]


def test_data_split_errors_exit_with_their_codes(capsys, tiny_cfg, tmp_path):
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg,
                                    "--set", "data.split=test"])
    assert (rc, out) == (2, "") and json.loads(err)["error"] == "ConfigError"
    (tmp_path / "data_batch_1.bin").write_bytes(bytes(3073))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, checkpoint_from_model(build_backbone(load_config(tiny_cfg).model,
                                                               seed=0)))
    rc, out, err = run_cli(capsys, ["eval", "--config", tiny_cfg, "--checkpoint", path,
                                    "--set", "data.kind=cifar10",
                                    "--set", f"data.path={tmp_path}",
                                    "--set", "data.split=test"])
    assert (rc, out) == (3, "")
    record = json.loads(err)
    assert record["error"] == "FormatError" and "test_batch.bin" in record["message"]


@pytest.mark.parametrize("probe", sorted(HEADER_PROBES))
def test_eval_of_a_malformed_header_exits_3(capsys, tiny_cfg, tmp_path, probe):
    path = tmp_path / "probe.ckpt"
    save_checkpoint(path, checkpoint_from_model(build_backbone(load_config(tiny_cfg).model,
                                                               seed=0)))
    path.write_bytes(rewrite_header(path.read_bytes(), HEADER_PROBES[probe]))
    rc, out, err = run_cli(capsys, ["eval", "--config", tiny_cfg,
                                    "--checkpoint", str(path)])
    assert (rc, out) == (3, "")
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "FormatError"


@pytest.mark.parametrize("command", ["eval", "prune"])
def test_a_header_config_unlike_the_tensors_exits_3_without_allocating(
        capsys, tiny_cfg, tmp_path, command):
    # A header that claims base_dim 2**40 would make every misshaped entry a
    # placeholder of terabytes; the restore must name them and build none.
    model = build_backbone(load_config(tiny_cfg).model, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint_from_model(model, attach_scores(model)))
    path.write_bytes(rewrite_header(path.read_bytes(),
                                    lambda h: h["config"].update(base_dim=2 ** 40)))
    argv = (["eval", "--config", tiny_cfg, "--checkpoint", str(path)]
            if command == "eval" else
            ["prune", "--checkpoint", str(path), "--rho", "0.6",
             "--out", str(tmp_path / "pruned.ckpt")])
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (3, "")
    record = json.loads(err)
    assert record["error"] == "FormatError"
    for name in ("patch_embed", "stage0.merge", "head"):
        assert f"('{name}', " in record["message"]
    assert not (tmp_path / "pruned.ckpt").exists()


@pytest.mark.parametrize("depth", [2 ** 16, 2 ** 18])
def test_a_header_implying_millions_of_tensors_exits_3_with_a_short_record(
        capsys, tiny_cfg, tmp_path, depth):
    # The load compares tensor counts before it walks the config's sites, so
    # the record names two counts, not every missing entry.
    model = build_backbone(load_config(tiny_cfg).model, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint_from_model(model, attach_scores(model)))
    path.write_bytes(rewrite_header(path.read_bytes(),
                                    lambda h: h["config"].update(depths=[depth, 1])))
    rc, out, err = run_cli(capsys, ["prune", "--checkpoint", str(path), "--rho", "0.6",
                                    "--out", str(tmp_path / "pruned.ckpt")])
    assert (rc, out) == (3, "")
    assert len(err.encode()) < 1024 and err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "FormatError" and "the directory holds 37 and 4" in record["message"]
    assert not (tmp_path / "pruned.ckpt").exists()


def test_numeric_failure_exits_4(capsys, tiny_cfg, tmp_path):
    cfg = load_config(tiny_cfg)
    model = build_backbone(cfg.model, seed=0)
    model.patch_embed.data[0, 0] = np.inf
    path = str(tmp_path / "broken.ckpt")
    save_checkpoint(path, checkpoint_from_model(model))
    rc, _, err = run_cli(capsys, ["eval", "--config", tiny_cfg,
                                  "--checkpoint", path])
    assert rc == 4
    assert json.loads(err)["error"] == "NumericError"


def test_numeric_failure_names_the_site(capsys, tiny_cfg, tmp_path):
    overrides = ["--set", "model.depths=2,1"]
    cfg = load_config(tiny_cfg, ["model.depths=2,1"])
    model = build_backbone(cfg.model, seed=0)
    dict(model.named_parameters())["stage0.block1.mlp.w1"].data[0, 0] = np.inf
    images = np.zeros((1, 1, 8, 8), dtype=np.float32)
    with pytest.raises(NumericError, match=r"stage0\.block1\.mlp\b"):
        forward_batch(model, images)
    path = str(tmp_path / "broken.ckpt")
    save_checkpoint(path, checkpoint_from_model(model))
    rc, _, err = run_cli(capsys, ["eval", "--config", tiny_cfg, *overrides,
                                  "--checkpoint", path])
    assert rc == 4
    record = json.loads(err)
    assert record["error"] == "NumericError"
    assert "stage0.block1.mlp" in record["message"]


@pytest.mark.parametrize("setting", ["train.gamma=3e38", "train.gamma=1e39",
                                     "train.lr=1e39", "train.lr=1e30"])
def test_an_overflowing_setting_exits_4_with_one_record_and_no_warning(
        capsys, tiny_cfg, tmp_path, setting):
    """A huge penalty weight or learning rate overflows outside the checked
    forward; the loss check or the next forward reports it, and no
    RuntimeWarning reaches stderr ahead of the record."""
    rc, _, err = run_cli(capsys, ["search", "--config", tiny_cfg, "--set", setting,
                                  "--set", f"run.output_dir={tmp_path / 'run'}"])
    assert rc == 4
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NumericError"


@pytest.mark.parametrize("stage", ["search", "finetune"])
def test_a_last_step_that_overflows_writes_no_checkpoint(capsys, tiny_cfg, tmp_path, stage):
    """One batch in one epoch: the only update overflows every weight, and
    no loss or forward runs after it to see that; the stage still exits 4
    with one record naming the stage and a parameter, and saves nothing."""
    run = ["--config", tiny_cfg, "--set", f"run.output_dir={tmp_path / 'run'}",
           "--set", "train.epochs=1", "--set", "data.n_per_class=2"]
    if stage == "finetune":
        search, pruned = str(tmp_path / "search.ckpt"), str(tmp_path / "pruned.ckpt")
        assert run_cli(capsys, ["search", *run, "--out", search])[0] == 0
        assert run_cli(capsys, ["prune", "--checkpoint", search, "--rho", "0.5",
                                "--out", pruned])[0] == 0
        run += ["--checkpoint", pruned]
    out = tmp_path / f"{stage}.out.ckpt"
    rc, stdout, err = run_cli(capsys, [stage, *run, "--set", "train.lr=1e39",
                                       "--out", str(out)])
    assert rc == 4 and stdout == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "NumericError"
    assert f"{stage} parameter " in record["message"]
    assert not out.exists()


def _search_checkpoint_with(path, cfg, score, w1):
    """A search checkpoint of ``cfg``'s model whose scores all equal
    ``score`` and whose MLP first-layer weights all equal ``w1``."""
    model = build_backbone(cfg.model, seed=0)
    scored = attach_scores(model)
    for sv in scored.scores:
        sv.alpha.data = np.full(sv.length, score, dtype=np.float32)
    ckpt = checkpoint_from_model(model, scored)
    for name in ckpt.params:
        if name.endswith(".mlp.w1"):
            ckpt.params[name] = np.full(ckpt.params[name].shape, w1, dtype=np.float32)
    save_checkpoint(path, ckpt)


@pytest.mark.parametrize("score, w1, message", [
    (3e38, 10.0, "overflows"), (np.inf, 1.0, "not all finite"),
    (np.nan, 1.0, "not all finite")])
def test_prune_with_scores_that_fold_to_non_finite_weights_exits_4(
        capsys, tiny_cfg, tmp_path, score, w1, message):
    path = str(tmp_path / "search.ckpt")
    _search_checkpoint_with(path, load_config(tiny_cfg), score, w1)
    out = tmp_path / "pruned.ckpt"
    rc, stdout, err = run_cli(capsys, ["prune", "--checkpoint", path, "--rho", "0.6",
                                       "--out", str(out)])
    assert rc == 4 and stdout == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "NumericError"
    assert "stage0.block0." in record["message"] and message in record["message"]
    assert not out.exists() and not (tmp_path / "prune_report.txt").exists()


def test_report_on_empty_dir_exits_3(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["report", "--dir", str(tmp_path)])
    assert rc == 3
    assert json.loads(err)["error"] == "FormatError"


@pytest.mark.parametrize("text", [
    '{"stage": "search", "rho": 1.0',
    '[{"stage": "search"}]',
    '{"stage": "search", "rho": null}',
    '{"stage": "search", "rho": 1.0, "accuracy": "high"}',
    '{"stage": ["search"], "rho": 1.0}',
], ids=["truncated", "list", "null-rho", "string-accuracy", "list-stage"])
def test_report_on_a_malformed_summary_exits_3_naming_the_file(capsys, tmp_path, text):
    (tmp_path / "search.summary.json").write_text('{"stage": "search", "rho": 1.0}\n')
    bad = tmp_path / "bad.summary.json"
    bad.write_text(text)
    for argv in (["report", "--dir", str(tmp_path)],
                 ["report", "--dir", str(tmp_path), "--json"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 3 and out == ""
        record = json.loads(err)
        assert record["error"] == "FormatError"
        assert str(bad) in record["message"]


@pytest.mark.parametrize("setting", ["model.mlp_ratio=nan", "model.mlp_ratio=inf",
                                     "train.lr=nan", "train.weight_decay=nan"])
def test_a_non_finite_setting_exits_2_before_the_run(capsys, tiny_cfg, tmp_path, setting):
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, "--set", setting,
                                    "--set", f"run.output_dir={out_dir}"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ConfigError"
    assert not out_dir.exists()


@pytest.mark.parametrize("setting", ["train.weight_decay=-0.5", "train.lr=-0.01",
                                     "train.gamma=-0.001"])
def test_a_negative_setting_exits_2_before_the_run(capsys, tiny_cfg, tmp_path, setting):
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, "--set", setting,
                                    "--set", f"run.output_dir={out_dir}"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ConfigError"
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["data.seed", "train.seed", "run.model_seed"])
def test_a_negative_seed_exits_2_before_the_run(capsys, tiny_cfg, tmp_path, key):
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, "--set", f"{key}=-1",
                                    "--set", f"run.output_dir={out_dir}"])
    assert rc == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError" and key in record["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("setting, error", [
    ("model.base_dim=1099511627776", "MemoryError"),     # a 32 TiB patch embedding
    ("model.num_classes=1000000000000", "MemoryError"),   # a 116 TiB head weight
    ("data.n_per_class=100000000000", "MemoryError"),     # 93 TiB of images
    # more bytes than numpy can count: it refuses these with a ValueError
    ("data.n_per_class=100000000000000000", "MemoryError"),
    ("model.num_classes=1000000000000000000", "MemoryError"),
    ("model.mlp_ratio=1e30", "ConfigError"),              # a hidden width of 8e30
])
def test_a_setting_too_large_for_memory_exits_2_with_one_record(
        capsys, tiny_cfg, tmp_path, setting, error):
    # Each memory probe asks for TiB, so its allocation fails before a page
    # is touched; the address-space cap keeps that so on a system that
    # would grant it.
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    cap = mapped + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, "--set", setting,
                                        "--set", f"run.output_dir={tmp_path / 'run'}"])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert rc == 2 and out == "" and "Traceback" not in err
    (record,) = json_lines(err)
    assert record["error"] == error


def test_a_config_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"model.base_dim = 16  # \xff\n")
    rc, out, err = run_cli(capsys, ["cost", "--config", str(path)])
    assert rc == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError" and str(path) in record["message"]


def test_full_pipeline_end_to_end(capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = f"run.output_dir={out_dir}"

    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg,
                                    "--set", setting])
    assert rc == 0 and err == ""
    search_rec = json_lines(out)[-1]
    assert search_rec["stage"] == "search" and search_rec["rho"] == 1.0
    assert 0.0 <= search_rec["accuracy"] <= 1.0
    search_ckpt = search_rec["checkpoint"]
    assert os.path.exists(search_ckpt)

    with open(os.path.join(out_dir, "search_metrics.jsonl")) as fh:
        epochs = [json.loads(line) for line in fh]
    assert len(epochs) == 2
    assert {"stage", "epoch", "loss", "accuracy", "score_l1"} <= set(epochs[0])

    with open(os.path.join(out_dir, "search.summary.json")) as fh:
        summary = json.load(fh)
    assert summary["config"]["run.output_dir"] == out_dir
    assert summary["accuracy"] == search_rec["accuracy"]

    pruned_path = os.path.join(out_dir, "pruned.ckpt")
    rc, out, err = run_cli(capsys, ["prune", "--checkpoint", search_ckpt,
                                    "--rho", "0.5", "--out", pruned_path])
    assert rc == 0 and err == ""
    prune_rec = json_lines(out)[-1]
    assert prune_rec["stage"] == "prune"
    assert prune_rec["params"] < prune_rec["pre_params"]
    report_text = open(os.path.join(out_dir, "prune_report.txt")).read()
    assert "stage0.block0.attn: kept 2/4" in report_text
    assert "stage1.block0.mlp: kept 16/32" in report_text
    pruned = load_checkpoint(pruned_path)
    assert pruned.site_dims["stage0.block0.mlp"] == 8
    assert not pruned.has_scores()

    rc, out, err = run_cli(capsys, ["finetune", "--config", tiny_cfg,
                                    "--set", setting,
                                    "--checkpoint", pruned_path])
    assert rc == 0 and err == ""
    tune_rec = json_lines(out)[-1]
    assert tune_rec["stage"] == "finetune"
    assert tune_rec["rho"] == 0.5
    assert tune_rec["params"] == prune_rec["params"]

    rc, out, err = run_cli(capsys, ["eval", "--config", tiny_cfg,
                                    "--set", setting,
                                    "--checkpoint", tune_rec["checkpoint"]])
    assert rc == 0
    eval_rec = json_lines(out)[-1]
    assert eval_rec["accuracy"] == tune_rec["accuracy"]
    assert abs(eval_rec["loss"] - tune_rec["loss"]) < 1e-12

    rc, out, err = run_cli(capsys, ["report", "--dir", out_dir, "--json"])
    assert rc == 0
    rows = json_lines(out)
    assert [r["stage"] for r in rows] == ["search", "finetune"]
    assert rows[0]["rho"] == 1.0 and rows[1]["rho"] == 0.5
    assert rows[1]["params"] < rows[0]["params"]
    assert all("config" not in r for r in rows)

    rc, out, err = run_cli(capsys, ["report", "--dir", out_dir])
    assert rc == 0
    assert "search" in out and "finetune" in out
    assert "acc(%)" in out


def test_search_reruns_are_bitwise_identical(capsys, tiny_cfg, tmp_path):
    outs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        rc, _, _ = run_cli(capsys, ["search", "--config", tiny_cfg,
                                    "--set", f"run.output_dir={out_dir}"])
        assert rc == 0
        with open(os.path.join(out_dir, "search.ckpt"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_prune_rejects_plain_checkpoint(capsys, tiny_cfg, tmp_path):
    cfg = load_config(tiny_cfg)
    model = build_backbone(cfg.model, seed=0)
    path = str(tmp_path / "plain.ckpt")
    save_checkpoint(path, checkpoint_from_model(model))
    rc, _, err = run_cli(capsys, ["prune", "--checkpoint", path,
                                  "--rho", "0.5"])
    assert rc == 2
    assert json.loads(err)["error"] == "UsageError"


def test_search_resume_continues_from_checkpoint(capsys, tiny_cfg, tmp_path):
    out_a = str(tmp_path / "first")
    rc, out, _ = run_cli(capsys, ["search", "--config", tiny_cfg,
                                  "--set", f"run.output_dir={out_a}"])
    assert rc == 0
    first = json_lines(out)[-1]
    out_b = str(tmp_path / "second")
    rc, out, _ = run_cli(capsys, ["search", "--config", tiny_cfg,
                                  "--set", f"run.output_dir={out_b}",
                                  "--resume", first["checkpoint"]])
    assert rc == 0
    resumed = load_checkpoint(os.path.join(out_b, "search.ckpt"))
    assert resumed.step == 2 * load_checkpoint(first["checkpoint"]).step


def test_search_resume_from_pruned_checkpoint_attaches_fresh_scores(
        capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = ["--set", f"run.output_dir={out_dir}"]
    rc, out, _ = run_cli(capsys, ["search", "--config", tiny_cfg, *setting])
    assert rc == 0
    search_path = json_lines(out)[-1]["checkpoint"]
    pruned_path = os.path.join(out_dir, "pruned.ckpt")
    rc, out, _ = run_cli(capsys, ["prune", "--checkpoint", search_path,
                                  "--rho", "0.5", "--out", pruned_path])
    assert rc == 0
    prune_rec = json_lines(out)[-1]
    resumed_path = os.path.join(out_dir, "resumed.ckpt")
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, *setting,
                                    "--resume", pruned_path, "--out", resumed_path])
    assert rc == 0 and err == ""
    rec = json_lines(out)[-1]
    assert (rec["params"], rec["flops"]) == (prune_rec["params"], prune_rec["flops"])
    pruned = load_checkpoint(pruned_path)
    resumed = load_checkpoint(resumed_path)
    assert not pruned.has_scores() and pruned.step == 0
    assert resumed.site_dims == pruned.site_dims
    # one fresh score per kept dimension of every site
    assert {site: arr.shape for site, arr in resumed.scores.items()} == \
        {site: (width,) for site, width in pruned.site_dims.items()}
    # the pruned checkpoint holds no optimizer state, so AdamW starts over
    assert resumed.step == load_checkpoint(search_path).step
    assert set(resumed.opt_m) == set(resumed.params) | {f"score.{site}" for site in
                                                         resumed.scores}


# (moment name, moment shape) given the head parameter's shape
MOMENT_PROBES = {
    "wrong_size": lambda head: ("head", (3,)),
    "transposed": lambda head: ("head", head[::-1]),
    "no_parameter": lambda head: ("head.extra", head),
}


@pytest.mark.parametrize("table", ["opt_m", "opt_v"])
@pytest.mark.parametrize("probe", sorted(MOMENT_PROBES))
def test_search_resume_from_a_misshaped_optimizer_moment_exits_3(
        capsys, tiny_cfg, tmp_path, probe, table):
    model = build_backbone(load_config(tiny_cfg).model, seed=0)
    moments = {name: np.zeros(t.shape, dtype=np.float32)
               for name, t in model.named_parameters()}
    name, shape = MOMENT_PROBES[probe](moments["head"].shape)
    moments[name] = np.zeros(shape, dtype=np.float32)
    path = tmp_path / "moments.ckpt"
    save_checkpoint(path, checkpoint_from_model(model, step=3, **{table: moments}))
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg,
                                    "--set", f"run.output_dir={tmp_path / 'run'}",
                                    "--resume", str(path)])
    assert (rc, out) == (3, "")
    assert len(err.strip().splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "FormatError" and name in record["message"]


@pytest.mark.parametrize("command", ["prune", "eval"])
@pytest.mark.parametrize("probe", sorted(MOMENT_PROBES))
def test_prune_and_eval_skip_the_moments_but_a_misshaped_one_still_exits_3(
        capsys, tiny_cfg, tmp_path, probe, command):
    model = build_backbone(load_config(tiny_cfg).model, seed=0)
    moments = {name: np.zeros(t.shape, dtype=np.float32)
               for name, t in model.named_parameters()}
    name, shape = MOMENT_PROBES[probe](moments["head"].shape)
    moments[name] = np.zeros(shape, dtype=np.float32)
    path = tmp_path / "moments.ckpt"
    save_checkpoint(path, checkpoint_from_model(model, attach_scores(model), step=3,
                                                opt_m=moments))
    argv = (["eval", "--config", tiny_cfg, "--checkpoint", str(path)]
            if command == "eval" else
            ["prune", "--checkpoint", str(path), "--rho", "0.6",
             "--out", str(tmp_path / "pruned.ckpt")])
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (3, "")
    record = json.loads(err)
    assert record["error"] == "FormatError" and name in record["message"]
    assert not (tmp_path / "pruned.ckpt").exists()


def test_eval_summary_writes_the_printed_record(capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = ["--set", f"run.output_dir={out_dir}"]
    rc, out, _ = run_cli(capsys, ["search", "--config", tiny_cfg, *setting])
    assert rc == 0
    ckpt = json_lines(out)[-1]["checkpoint"]
    summary = os.path.join(out_dir, "eval.summary.json")
    rc, out, err = run_cli(capsys, ["eval", "--config", tiny_cfg, *setting,
                                    "--checkpoint", ckpt])
    assert rc == 0 and err == ""
    assert not os.path.exists(summary)
    rc, out, err = run_cli(capsys, ["eval", "--config", tiny_cfg, *setting,
                                    "--checkpoint", ckpt, "--summary"])
    assert rc == 0 and err == ""
    rec = json_lines(out)[-1]
    assert rec["stage"] == "eval" and rec["count"] == 16
    with open(summary) as fh:
        assert json.load(fh) == rec
    rc, out, _ = run_cli(capsys, ["report", "--dir", out_dir, "--json"])
    assert rc == 0
    assert [r["stage"] for r in json_lines(out)] == ["search", "eval"]


def test_search_without_normalize_trains_and_evaluates_on_raw_pixels(
        capsys, tiny_cfg, tmp_path):
    records, ckpts = {}, {}
    for flag in ("true", "false"):
        rc, out, err = run_cli(capsys, [
            "search", "--config", tiny_cfg, "--set", f"train.normalize={flag}",
            "--set", f"run.output_dir={tmp_path / flag}"])
        assert rc == 0 and err == ""
        records[flag] = json_lines(out)[-1]
        ckpts[flag] = load_checkpoint(records[flag]["checkpoint"])
    assert not np.array_equal(ckpts["true"].params["patch_embed"],
                              ckpts["false"].params["patch_embed"])
    dataset = make_dataset(load_config(tiny_cfg))
    raw = evaluate(ckpts["false"], dataset, batch_size=8, normalize=False)
    normed = evaluate(ckpts["false"], dataset, batch_size=8, normalize=True)
    assert records["false"]["loss"] == raw["loss"] != normed["loss"]


def test_rpb_search_and_prune_records_match_measured_cost(capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "rpb")
    overrides = ["--set", f"run.output_dir={out_dir}",
                 "--set", "model.use_relative_position_bias=true",
                 "--set", "model.depths=2,2"]
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, *overrides])
    assert rc == 0 and err == ""
    search_rec = json_lines(out)[-1]
    rc, out, err = run_cli(capsys, ["prune", "--checkpoint", search_rec["checkpoint"],
                                    "--rho", "0.5"])
    assert rc == 0 and err == ""
    prune_rec = json_lines(out)[-1]
    assert prune_rec["params"] < prune_rec["pre_params"] == search_rec["params"]
    for rec in (search_rec, prune_rec):
        model = model_from_checkpoint(load_checkpoint(rec["checkpoint"]))
        assert model.stages[0].blocks[0].attn.rpb is not None
        rep = measured_cost(model)
        assert (rec["params"], rec["flops"]) == (rep.total_params, rep.total_flops)


def search_and_prune(capsys, tiny_cfg, setting, rho="0.6"):
    """``search`` then ``prune`` at ``rho``; returns the pruned checkpoint path."""
    rc, out, _ = run_cli(capsys, ["search", "--config", tiny_cfg, *setting])
    assert rc == 0
    rc, out, _ = run_cli(capsys, ["prune", "--checkpoint", json_lines(out)[-1]["checkpoint"],
                                  "--rho", rho])
    assert rc == 0
    return json_lines(out)[-1]["checkpoint"]


def test_finetune_summary_echoes_the_config_and_report_strips_it(
        capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = ["--set", f"run.output_dir={out_dir}"]
    pruned_path = search_and_prune(capsys, tiny_cfg, setting)
    rc, out, err = run_cli(capsys, ["finetune", "--config", tiny_cfg, *setting,
                                    "--checkpoint", pruned_path])
    assert rc == 0 and err == ""
    tune_rec = json_lines(out)[-1]
    assert "config" not in tune_rec
    with open(os.path.join(out_dir, "finetune.summary.json")) as fh:
        summary = json.load(fh)
    echo = config_echo(load_config(tiny_cfg, [f"run.output_dir={out_dir}"]))
    assert summary == {**tune_rec, "config": echo}
    rc, out, _ = run_cli(capsys, ["report", "--dir", out_dir, "--json"])
    assert rc == 0
    rows = json_lines(out)
    assert [r["stage"] for r in rows] == ["search", "finetune"]
    assert rows[1] == tune_rec and "config" not in rows[0]


def test_search_resumed_from_pruned_checkpoint_records_its_rho(capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = ["--set", f"run.output_dir={out_dir}"]
    pruned_path = search_and_prune(capsys, tiny_cfg, setting)
    assert os.path.basename(pruned_path) == "pruned_0.6.ckpt"
    rho = cli._rho_of(load_checkpoint(pruned_path))
    assert rho < 1.0
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, *setting,
                                    "--resume", pruned_path])
    assert rc == 0 and err == ""
    assert json_lines(out)[-1]["rho"] == rho
    rc, out, _ = run_cli(capsys, ["report", "--dir", out_dir, "--json"])
    assert rc == 0
    assert [(r["stage"], r["rho"]) for r in json_lines(out)] == [("search", rho)]


def test_resumed_search_into_the_same_directory_keeps_both_summaries(
        capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = ["--set", f"run.output_dir={out_dir}"]
    pruned_path = search_and_prune(capsys, tiny_cfg, setting)
    resumed_path = os.path.join(out_dir, "resumed.ckpt")
    rc, out, err = run_cli(capsys, ["search", "--config", tiny_cfg, *setting,
                                    "--resume", pruned_path, "--out", resumed_path])
    assert rc == 0 and err == ""
    resumed_rec = json_lines(out)[-1]
    with open(os.path.join(out_dir, "search.summary.json")) as fh:
        assert json.load(fh)["checkpoint"] == os.path.join(out_dir, "search.ckpt")
    with open(os.path.join(out_dir, "resumed.summary.json")) as fh:
        assert json.load(fh)["checkpoint"] == resumed_path
    rc, out, _ = run_cli(capsys, ["report", "--dir", out_dir, "--json"])
    assert rc == 0
    rows = [(r["stage"], r["rho"], r["checkpoint"]) for r in json_lines(out)]
    assert rows == [("search", 1.0, os.path.join(out_dir, "search.ckpt")),
                    ("search", resumed_rec["rho"], resumed_path)]
    assert resumed_rec["rho"] < 1.0


def test_report_table_marks_counts_an_eval_row_lacks(capsys, tiny_cfg, tmp_path):
    out_dir = str(tmp_path / "run")
    setting = ["--set", f"run.output_dir={out_dir}"]
    pruned_path = search_and_prune(capsys, tiny_cfg, setting)
    rc, out, _ = run_cli(capsys, ["finetune", "--config", tiny_cfg, *setting,
                                  "--checkpoint", pruned_path])
    assert rc == 0
    rc, out, _ = run_cli(capsys, ["eval", "--config", tiny_cfg, *setting, "--checkpoint",
                                  json_lines(out)[-1]["checkpoint"], "--summary"])
    assert rc == 0
    rc, out, err = run_cli(capsys, ["report", "--dir", out_dir])
    assert rc == 0 and err == ""
    header, *rows = out.strip().splitlines()
    assert header.split() == ["stage", "rho", "acc(%)", "Para.(M)", "FLOPS(G)"]
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    assert list(cells) == ["search", "finetune", "eval"]
    assert cells["eval"][0] == "-" and cells["eval"][2:] == ["-", "-"]
    for stage in ("search", "finetune"):
        assert all(float(cell) >= 0 for cell in cells[stage])
    assert {len(row) for row in rows} == {len(header)}     # columns stay aligned


def python_m(module, argv):
    """Run ``python -m <module> argv`` with this checkout's package importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("module", ["dimprune", "dimprune.cli"])
def test_python_m_runs_main_and_keeps_exit_codes(capsys, tmp_path, module):
    argv = ["cost", "--json", "--rho", "1.0,0.5"]
    rc, out, _ = run_cli(capsys, argv)
    proc = python_m(module, argv)
    assert rc == 0 and out.strip()
    assert (proc.returncode, proc.stdout) == (rc, out)
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.bogus = 1\n")
    proc = python_m(module, ["cost", "--config", str(bad)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json_lines(proc.stderr)[0]["error"] == "ConfigError"
    assert len(proc.stderr.strip().splitlines()) == 1
