"""Run configuration: dotted-key text files plus command-line overrides.

A config file holds `section.key = value` lines (# starts a comment). Keys
are validated against a schema read from the config dataclasses' fields;
anything unknown is rejected so typos fail loudly before a run starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .blocks import BackboneConfig
from .data import Dataset, load_cifar, resize_nearest, synth_dataset
from .errors import ConfigError
from .pipeline import TrainSettings


@dataclass
class DataSpec:
    kind: str = "synth"
    seed: int = 0
    n_per_class: int = 16
    noise_sigma: float = 0.05
    path: str = ""
    split: str = "train"

    def validate(self):
        if self.kind not in ("synth", "cifar10", "cifar100"):
            raise ConfigError(f"data.kind must be synth, cifar10 or cifar100, "
                              f"got {self.kind!r}")
        if self.kind != "synth" and not self.path:
            raise ConfigError(f"data.kind {self.kind} requires data.path")
        if self.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, got {self.seed}")
        if self.n_per_class < 1:
            raise ConfigError("data.n_per_class must be >= 1")
        if self.split not in ("train", "test"):
            raise ConfigError(f"data.split must be train or test, got {self.split!r}")
        if self.kind == "synth" and self.split == "test":
            raise ConfigError("data.split = test needs a cifar dataset; "
                              "the synth task has one split")


@dataclass
class RunConfig:
    model: BackboneConfig = field(default_factory=BackboneConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    data: DataSpec = field(default_factory=DataSpec)
    rho: float = 0.6
    output_dir: str = "runs"
    model_seed: int = 0


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _ints(raw: str):
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def _int(raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _float(raw: str) -> float:
    try:
        value = float(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _str(raw: str) -> str:
    return raw.strip()


_PARSERS = {int: _int, float: _float, bool: _bool, tuple: _ints, str: _str}

# Every config key, read from the dataclass fields: a field whose default is
# an int, float, bool, tuple or str is a key, parsed by its default's type.
# The sub-configs and ``train.log_path`` have no such default; ``rho`` is
# spelled ``prune.rho``.
SCHEMA = {f"{'prune' if f.name == 'rho' else section}.{f.name}":
          (section, f.name, _PARSERS[type(f.default)])
          for section, cls in (("model", BackboneConfig), ("train", TrainSettings),
                               ("data", DataSpec), ("run", RunConfig))
          for f in fields(cls) if type(f.default) in _PARSERS}


def parse_pairs(lines, source: str):
    """Yield (key, raw_value) from `key = value` lines."""
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {line.strip()!r}")
        key, _, raw = text.partition("=")
        yield key.strip(), raw.strip()


def load_config(path: str | None = None, overrides=()) -> RunConfig:
    """Defaults, then file pairs, then override pairs; schema-checked."""
    sections = {"model": {}, "train": {}, "data": {}, "run": {}}

    def apply(key, raw, source):
        if key not in SCHEMA:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        section, attr, caster = SCHEMA[key]
        sections[section][attr] = caster(raw)

    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        for key, raw in parse_pairs(lines, path):
            apply(key, raw, path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply(key.strip(), raw.strip(), "override")

    model = BackboneConfig(**sections["model"])
    train = TrainSettings(**sections["train"])
    train.validate()
    data = DataSpec(**sections["data"])
    data.validate()
    cfg = RunConfig(model=model, train=train, data=data, **sections["run"])
    if cfg.model_seed < 0:
        raise ConfigError(f"run.model_seed must be >= 0, got {cfg.model_seed}")
    if not 0.0 < cfg.rho <= 1.0:
        raise ConfigError(f"prune.rho must lie in (0, 1], got {cfg.rho}")
    return cfg


def config_echo(cfg: RunConfig) -> dict:
    """Flat dotted-key view of a RunConfig, for logs and reports."""
    out = {}
    for key, (section, attr, _) in SCHEMA.items():
        value = getattr(cfg if section == "run" else getattr(cfg, section), attr)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def make_dataset(cfg: RunConfig) -> Dataset:
    """Build the dataset a config describes, shaped to fit the model."""
    m = cfg.model
    d = cfg.data
    if d.kind == "synth":
        return synth_dataset(seed=d.seed, num_classes=m.num_classes,
                             n_per_class=d.n_per_class, height=m.image_size,
                             width=m.image_size, channels=m.in_channels,
                             noise_sigma=d.noise_sigma)
    ds = load_cifar(d.path, d.kind, split=d.split)
    if m.in_channels != 3:
        raise ConfigError(f"cifar images have 3 channels, model wants {m.in_channels}")
    if ds.num_classes != m.num_classes:
        raise ConfigError(f"{d.kind} has {ds.num_classes} classes, model is "
                          f"configured for {m.num_classes}")
    if m.image_size != ds.images.shape[2]:
        ds = Dataset(images=resize_nearest(ds.images, m.image_size),
                     labels=ds.labels, num_classes=ds.num_classes)
    return ds
