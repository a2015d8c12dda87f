"""Command line entry point: search, prune, finetune, eval, cost, report.

Stages communicate only through checkpoint files. Every command exits 0 on
success; failures print one machine-parseable JSON error record to stderr
and exit 2 (configuration or usage, including a config whose model or
dataset needs more memory than the machine gives), 3 (I/O) or 4 (numeric
failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

from .blocks import build_backbone, sites
from .checkpoint import TENSOR_GROUPS, load_checkpoint, save_checkpoint, write_atomic
from .config import config_echo, load_config, make_dataset
from .costmodel import Convention, calibrate_mac_factor, model_cost, swin_t_config
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


def _write_text(path: str, text: str):
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def _write_summary(output_dir: str, name: str, record: dict):
    os.makedirs(output_dir, exist_ok=True)
    _write_text(os.path.join(output_dir, f"{name}.summary.json"),
                json.dumps(record, sort_keys=True) + "\n")


def _model_counts(ckpt) -> dict:
    """Parameters and FLOPs of a checkpoint's model, by the formula ``dimprune
    cost`` prints; criterion 5 holds it equal to a counted forward."""
    rep = model_cost(ckpt.config, site_dims=ckpt.site_dims)
    return {"params": rep.total_params, "flops": rep.total_flops}


# What prune and eval read of a checkpoint: the model and its scores, not
# the optimizer moments (about two thirds of a search checkpoint).
_MODEL_GROUPS = ("params", "scores")


def _load_checkpoint_checked(path, groups=TENSOR_GROUPS):
    if not os.path.exists(path):
        raise FormatError(f"checkpoint not found: {path}")
    return load_checkpoint(path, groups)


def _train_stage(args, stage: str, start, run) -> int:
    """Run one training stage: ``run(start(cfg), dataset, cfg.train)``, then
    save, evaluate, and write and print the stage's record."""
    cfg = load_config(args.config, args.set)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.train.log_path is None:
        cfg.train.log_path = os.path.join(cfg.output_dir, f"{stage}_metrics.jsonl")
    source = start(cfg)
    dataset = make_dataset(cfg)
    ckpt = run(source, dataset, cfg.train)
    out = args.out or os.path.join(cfg.output_dir, f"{stage}.ckpt")
    save_checkpoint(out, ckpt)
    metrics = evaluate(ckpt, dataset, batch_size=cfg.train.batch_size,
                       normalize=cfg.train.normalize)
    record = {"stage": stage, "rho": _rho_of(ckpt), "checkpoint": out,
              "accuracy": metrics["accuracy"], "loss": metrics["loss"],
              **_model_counts(ckpt)}
    # The summary is named after the checkpoint, so two runs into one output
    # directory (a search and a resumed search) keep one record each.
    _write_summary(cfg.output_dir, os.path.splitext(os.path.basename(out))[0],
                   {**record, "config": config_echo(cfg)})
    _emit(record)
    return EXIT_OK


def cmd_search(args) -> int:
    return _train_stage(args, "search", lambda cfg: (
        _load_checkpoint_checked(args.resume) if args.resume
        else build_backbone(cfg.model, seed=cfg.model_seed)), run_search)


def cmd_prune(args) -> int:
    ckpt = _load_checkpoint_checked(args.checkpoint, _MODEL_GROUPS)
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
    _write_text(os.path.join(out_dir, "prune_report.txt"), "\n".join(lines) + "\n")
    record = {"stage": "prune", "rho": args.rho, "checkpoint": out,
              "pre_params": report.pre_params, **_model_counts(pruned)}
    _emit(record)
    return EXIT_OK


def cmd_finetune(args) -> int:
    return _train_stage(args, "finetune",
                        lambda cfg: _load_checkpoint_checked(args.checkpoint),
                        run_finetune)


def _rho_of(ckpt) -> float:
    """Smallest keep fraction across sites; 1.0 for an unpruned model."""
    return min([1.0] + [ckpt.site_dims.get(site.id, site.full) / site.full
                        for site in sites(ckpt.config)])


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    ckpt = _load_checkpoint_checked(args.checkpoint, _MODEL_GROUPS)
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
    try:
        rhos = [float(r) for r in args.rho.split(",") if r.strip()]
    except ValueError as exc:
        raise ConfigError(f"--rho takes comma-separated numbers, got {args.rho!r}") from exc
    if not rhos:
        raise ConfigError("at least one rho value is required")
    reports = [model_cost(model_cfg, rho, conv) for rho in rhos]
    if args.json:
        for rep in reports:
            for site in rep.sites:
                _emit({"rho": rep.rho, **dataclasses.asdict(site)})
            _emit({"rho": rep.rho, "site_id": "overhead",
                   "params": rep.overhead_params, "flops": rep.overhead_flops})
            _emit({"rho": rep.rho, "site_id": "total",
                   "params": rep.total_params, "flops": rep.total_flops,
                   "backbone_params": rep.backbone_params})
    else:
        print(f"{'rho':>5}  {'params':>12}  {'Para.(M)':>9}  "
              f"{'flops':>14}  {'FLOPS(G)':>9}  {'backbone(M)':>11}")
        for rep in reports:
            print(f"{rep.rho:>5g}  {rep.total_params:>12}  "
                  f"{rep.total_params / 1e6:>9.2f}  {rep.total_flops:>14}  "
                  f"{rep.total_flops / 1e9:>9.2f}  "
                  f"{rep.backbone_params / 1e6:>11.2f}")
    return EXIT_OK


def _read_summary(path) -> dict:
    """A summary record without its config echo; FormatError, naming the
    file, unless it is a JSON object whose stage is a string and whose rho,
    accuracy, params and flops are numbers wherever present."""
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable summary record: {exc}") from exc
    if (type(rec) is not dict or type(rec.get("stage", "")) is not str
            or any(type(rec[key]) not in (int, float)
                   for key in ("rho", "accuracy", "params", "flops") if key in rec)):
        raise FormatError(f"{path}: malformed summary record {rec!r:.200}")
    rec.pop("config", None)
    return rec


def cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.dir, "*.summary.json")))
    if not paths:
        raise FormatError(f"no summary records found under {args.dir}")
    records = [_read_summary(path) for path in paths]
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
        params, flops = rec.get("params"), rec.get("flops")
        params_s = f"{params / 1e6:>9.2f}" if params is not None else f"{'-':>9}"
        flops_s = f"{flops / 1e9:>9.2f}" if flops is not None else f"{'-':>9}"
        print(f"{rec.get('stage', '?'):<10} {rho_s}  {acc_s}  {params_s}  {flops_s}")
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
            FormatError, OSError, MemoryError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
