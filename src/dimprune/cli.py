"""Command line entry point: search, prune, finetune, eval, cost, report.

Stages communicate only through checkpoint files. Every command exits 0 on
success; failures print one machine-parseable JSON error record to stderr
and exit 2 (configuration or usage), 3 (I/O) or 4 (numeric failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

from .blocks import build_backbone, sites
from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from .config import config_echo, load_config, make_dataset
from .costmodel import (Convention, calibrate_mac_factor, measured_cost,
                        model_cost, swin_t_config)
from .errors import ConfigError, DimensionError, FormatError, NumericError, UsageError
from .pipeline import evaluate, run_finetune, run_prune, run_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _emit(record: dict, stream=None):
    print(json.dumps(record, sort_keys=True), file=stream or sys.stdout)


def _fail(exc: Exception) -> int:
    _emit({"error": type(exc).__name__, "message": str(exc)}, stream=sys.stderr)
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    if isinstance(exc, (FormatError, OSError)):
        return EXIT_IO
    return EXIT_CONFIG


def _write_summary(output_dir: str, name: str, record: dict):
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, f"{name}.summary.json"), "w") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _model_counts(model) -> dict:
    rep = measured_cost(model)
    return {"params": rep.total_params, "flops": rep.total_flops}


def _load_checkpoint_checked(path):
    if not os.path.exists(path):
        raise FormatError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def cmd_search(args) -> int:
    cfg = load_config(args.config, args.set)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.train.log_path is None:
        cfg.train.log_path = os.path.join(cfg.output_dir, "search_metrics.jsonl")
    start = (_load_checkpoint_checked(args.resume) if args.resume
             else build_backbone(cfg.model, seed=cfg.model_seed))
    dataset = make_dataset(cfg)
    ckpt = run_search(start, dataset, cfg.train)
    out = args.out or os.path.join(cfg.output_dir, "search.ckpt")
    save_checkpoint(out, ckpt)
    metrics = evaluate(ckpt, dataset, batch_size=cfg.train.batch_size,
                       normalize=cfg.train.normalize)
    model = model_from_checkpoint(ckpt)
    record = {"stage": "search", "rho": 1.0, "checkpoint": out,
              "accuracy": metrics["accuracy"], "loss": metrics["loss"],
              **_model_counts(model), "config": config_echo(cfg)}
    _write_summary(cfg.output_dir, "search", record)
    _emit({k: v for k, v in record.items() if k != "config"})
    return EXIT_OK


def cmd_prune(args) -> int:
    ckpt = _load_checkpoint_checked(args.checkpoint)
    pruned, report = run_prune(ckpt, args.rho)
    out = args.out or os.path.join(os.path.dirname(args.checkpoint) or ".",
                                   f"pruned_{args.rho:g}.ckpt")
    save_checkpoint(out, pruned)
    out_dir = os.path.dirname(out) or "."
    lines = [f"rho {report.rho:g}  params {report.pre_params} -> {report.post_params}"]
    for ks in report.keeps:
        lines.append(f"{ks.site_id}: kept {len(ks)}/{ks.original} "
                     f"threshold {report.thresholds[ks.site_id]:.6f} "
                     f"indices {','.join(str(i) for i in ks.indices)}")
    with open(os.path.join(out_dir, "prune_report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    model = model_from_checkpoint(pruned)
    record = {"stage": "prune", "rho": args.rho, "checkpoint": out,
              "pre_params": report.pre_params, **_model_counts(model)}
    _emit(record)
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = load_config(args.config, args.set)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.train.log_path is None:
        cfg.train.log_path = os.path.join(cfg.output_dir, "finetune_metrics.jsonl")
    ckpt = _load_checkpoint_checked(args.checkpoint)
    dataset = make_dataset(cfg)
    tuned = run_finetune(ckpt, dataset, cfg.train)
    out = args.out or os.path.join(cfg.output_dir, "finetune.ckpt")
    save_checkpoint(out, tuned)
    metrics = evaluate(tuned, dataset, batch_size=cfg.train.batch_size,
                       normalize=cfg.train.normalize)
    model = model_from_checkpoint(tuned)
    record = {"stage": "finetune", "rho": _rho_of(ckpt), "checkpoint": out,
              "accuracy": metrics["accuracy"], "loss": metrics["loss"],
              **_model_counts(model)}
    _write_summary(cfg.output_dir, "finetune", record)
    _emit(record)
    return EXIT_OK


def _rho_of(ckpt) -> float:
    """Smallest keep fraction across sites; 1.0 for an unpruned model."""
    return min([1.0] + [ckpt.site_dims.get(site.id, site.full) / site.full
                        for site in sites(ckpt.config)])


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    ckpt = _load_checkpoint_checked(args.checkpoint)
    dataset = make_dataset(cfg)
    metrics = evaluate(ckpt, dataset, batch_size=cfg.train.batch_size,
                       normalize=cfg.train.normalize)
    record = {"stage": "eval", "checkpoint": args.checkpoint, **metrics}
    _emit(record)
    if args.summary:
        _write_summary(cfg.output_dir, "eval", record)
    return EXIT_OK


def cmd_cost(args) -> int:
    if args.config:
        cfg = load_config(args.config, args.set)
        model_cfg = cfg.model
    else:
        model_cfg = swin_t_config()
    if args.mac_factor:
        mac = args.mac_factor
    elif args.calibrate:
        mac = calibrate_mac_factor()
    else:
        mac = 1
    conv = Convention(mac_factor=mac, include_bias=args.include_bias,
                      include_rpb=args.include_rpb)
    rhos = [float(r) for r in args.rho.split(",") if r.strip()]
    if not rhos:
        raise ConfigError("at least one rho value is required")
    rows = []
    for rho in rhos:
        rep = model_cost(model_cfg, rho, conv)
        rows.append({"rho": rho, "params": rep.total_params,
                     "flops": rep.total_flops,
                     "backbone_params": rep.backbone_params,
                     "sites": [dataclasses.asdict(s) for s in rep.sites],
                     "overhead_params": rep.overhead_params,
                     "overhead_flops": rep.overhead_flops})
    if args.json:
        for row in rows:
            for site in row["sites"]:
                _emit({"rho": row["rho"], **site})
            _emit({"rho": row["rho"], "site_id": "overhead",
                   "params": row["overhead_params"],
                   "flops": row["overhead_flops"]})
            _emit({"rho": row["rho"], "site_id": "total",
                   "params": row["params"], "flops": row["flops"],
                   "backbone_params": row["backbone_params"]})
    else:
        print(f"{'rho':>5}  {'params':>12}  {'Para.(M)':>9}  "
              f"{'flops':>14}  {'FLOPS(G)':>9}  {'backbone(M)':>11}")
        for row in rows:
            print(f"{row['rho']:>5g}  {row['params']:>12}  "
                  f"{row['params'] / 1e6:>9.2f}  {row['flops']:>14}  "
                  f"{row['flops'] / 1e9:>9.2f}  "
                  f"{row['backbone_params'] / 1e6:>11.2f}")
    return EXIT_OK


def cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.dir, "*.summary.json")))
    if not paths:
        raise FormatError(f"no summary records found under {args.dir}")
    records = []
    for path in paths:
        with open(path) as fh:
            rec = json.loads(fh.read())
        rec.pop("config", None)
        records.append(rec)
    order = {"search": 0, "prune": 1, "finetune": 2, "eval": 3}
    records.sort(key=lambda r: (order.get(r.get("stage"), 9), -r.get("rho", 1.0)))
    if args.json:
        for rec in records:
            _emit(rec)
        return EXIT_OK
    print(f"{'stage':<10} {'rho':>5}  {'acc(%)':>7}  {'Para.(M)':>9}  {'FLOPS(G)':>9}")
    for rec in records:
        acc = rec.get("accuracy")
        acc_s = f"{100 * acc:7.2f}" if acc is not None else "      -"
        rho = rec.get("rho")
        rho_s = f"{rho:5.2f}" if rho is not None else "    -"
        print(f"{rec.get('stage', '?'):<10} {rho_s}  {acc_s}  "
              f"{rec.get('params', 0) / 1e6:>9.2f}  "
              f"{rec.get('flops', 0) / 1e9:>9.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimprune",
        description="Dimension search and structured pruning for windowed-"
                    "attention transformer backbones.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to a dotted-key config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")

    p = sub.add_parser("search", help="train weights and dimension scores")
    common(p)
    p.add_argument("--out", help="checkpoint path (default <output_dir>/search.ckpt)")
    p.add_argument("--resume", help="warm-start from an existing checkpoint")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("prune", help="cut dimensions ranked by |score|")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rho", type=float, required=True,
                   help="keep ratio in (0, 1]")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("finetune", help="warm-start training of a pruned model")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="accuracy and loss of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--summary", action="store_true",
                   help="also write an eval summary record")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("cost", help="closed-form parameter and FLOP table")
    common(p, config_required=False)
    p.add_argument("--rho", default="1.0", help="comma-separated keep ratios")
    p.add_argument("--mac-factor", type=int, choices=(1, 2), dest="mac_factor")
    p.add_argument("--calibrate", action="store_true",
                   help="pick the mac factor that matches the reference total")
    p.add_argument("--include-bias", action="store_true")
    p.add_argument("--include-rpb", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="machine-readable records, one JSON object per line")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("report", help="consolidated table over a run directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError, DimensionError, NumericError,
            FormatError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
