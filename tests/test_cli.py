"""End-to-end command line behaviour: exit codes, records, full runs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dimprune import cli
from dimprune.blocks import build_backbone, forward_batch
from dimprune.checkpoint import checkpoint_from_model, load_checkpoint, save_checkpoint
from dimprune.config import load_config
from dimprune.errors import NumericError
from dimprune.costmodel import (Convention, REFERENCE_CONVENTION, model_cost,
                                swin_t_config)

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
    rc, out, err = run_cli(capsys, ["cost", "--rho", " "])
    assert rc == 2
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


def test_report_on_empty_dir_exits_3(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["report", "--dir", str(tmp_path)])
    assert rc == 3
    assert json.loads(err)["error"] == "FormatError"


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
