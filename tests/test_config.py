"""Config file parsing, overrides, schema validation, dataset construction."""

import json

import numpy as np
import pytest

from dimprune.config import (SCHEMA, DataSpec, RunConfig, config_echo, load_config,
                             make_dataset, parse_pairs)
from dimprune.errors import ConfigError

FULL_FILE = """
# model geometry
model.image_size = 16
model.patch_size = 2
model.in_channels = 1
model.base_dim = 8
model.depths = 1, 1
model.heads = 2, 4
model.window = 2
model.mlp_ratio = 2.0
model.num_classes = 3
model.use_relative_position_bias = false

train.epochs = 2          # short run
train.batch_size = 4
train.lr = 0.01
train.weight_decay = 0.0
train.gamma = 0.001
train.seed = 7
train.augment = no
train.normalize = on

data.kind = synth
data.seed = 11
data.n_per_class = 5
data.noise_sigma = 0.02

prune.rho = 0.5
run.output_dir = out_here
run.model_seed = 3
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_defaults_without_file():
    cfg = load_config()
    assert cfg.rho == 0.6
    assert cfg.output_dir == "runs"
    assert cfg.model.image_size == 32
    assert cfg.data.kind == "synth"


def test_full_file_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path, FULL_FILE))
    assert cfg.model.image_size == 16
    assert cfg.model.depths == (1, 1)
    assert cfg.model.heads == (2, 4)
    assert cfg.model.num_classes == 3
    assert cfg.model.use_relative_position_bias is False
    assert cfg.train.epochs == 2
    assert cfg.train.lr == 0.01
    assert cfg.train.augment is False
    assert cfg.train.normalize is True
    assert cfg.train.seed == 7
    assert cfg.data.seed == 11
    assert cfg.data.n_per_class == 5
    assert cfg.rho == 0.5
    assert cfg.output_dir == "out_here"
    assert cfg.model_seed == 3


def test_overrides_win_over_file(tmp_path):
    path = write_config(tmp_path, FULL_FILE)
    cfg = load_config(path, ["train.epochs=9", "prune.rho=0.25",
                             "model.num_classes = 4"])
    assert cfg.train.epochs == 9
    assert cfg.rho == 0.25
    assert cfg.model.num_classes == 4
    # untouched entries keep their file values
    assert cfg.train.lr == 0.01


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "model.imge_size = 16\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["trian.lr=0.1"])


def test_value_type_errors():
    with pytest.raises(ConfigError, match="boolean"):
        load_config(None, ["train.augment=maybe"])
    with pytest.raises(ConfigError, match="integer"):
        load_config(None, ["train.epochs=two"])
    with pytest.raises(ConfigError, match="number"):
        load_config(None, ["train.lr=fast"])
    with pytest.raises(ConfigError, match="comma-separated integers"):
        load_config(None, ["model.depths=1,x"])


DEFAULT_ECHO = config_echo(load_config())
FLOAT_KEYS = [key for key, value in DEFAULT_ECHO.items() if type(value) is float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_every_float_key_rejects_non_finite_values(key, raw):
    with pytest.raises(ConfigError, match="finite"):
        load_config(None, [f"{key}={raw}"])


def test_schema_keys_come_from_the_dataclasses_in_echo_order():
    assert list(SCHEMA) == list(DEFAULT_ECHO) == [
        "model.image_size", "model.patch_size", "model.in_channels", "model.base_dim",
        "model.depths", "model.heads", "model.window", "model.mlp_ratio",
        "model.num_classes", "model.use_relative_position_bias",
        "train.epochs", "train.batch_size", "train.lr", "train.weight_decay",
        "train.gamma", "train.seed", "train.augment", "train.normalize",
        "data.kind", "data.seed", "data.n_per_class", "data.noise_sigma",
        "data.path", "data.split", "prune.rho", "run.output_dir", "run.model_seed"]
    assert FLOAT_KEYS == ["model.mlp_ratio", "train.lr", "train.weight_decay",
                          "train.gamma", "data.noise_sigma", "prune.rho"]


def test_every_schema_key_round_trips_its_default_text():
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    echo = config_echo(load_config(None, [f"{key}={text(value)}"
                                          for key, value in DEFAULT_ECHO.items()]))
    assert echo == DEFAULT_ECHO
    assert [type(v) for v in echo.values()] == [type(v) for v in DEFAULT_ECHO.values()]


def test_malformed_lines_report_location(tmp_path):
    path = write_config(tmp_path, "model.window = 2\njust words\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config(path)
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["oops"])


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.cfg"))


def test_rho_range_checked():
    with pytest.raises(ConfigError, match="rho"):
        load_config(None, ["prune.rho=0"])
    with pytest.raises(ConfigError, match="rho"):
        load_config(None, ["prune.rho=1.5"])


def test_semantic_validation_still_applies():
    # schema-level casting succeeds, dataclass validation must still fire
    with pytest.raises(ConfigError):
        load_config(None, ["train.lr=-1"])
    with pytest.raises(ConfigError):
        load_config(None, ["data.kind=imagenet"])
    with pytest.raises(ConfigError, match="requires data.path"):
        load_config(None, ["data.kind=cifar10"])


def test_parse_pairs_strips_comments_and_blanks():
    pairs = list(parse_pairs(["", "# full comment", "a.b = 1 # tail", "  "],
                             "mem"))
    assert pairs == [("a.b", "1")]


def test_config_echo_is_flat_and_json_safe(tmp_path):
    cfg = load_config(write_config(tmp_path, FULL_FILE))
    echo = config_echo(cfg)
    assert echo["model.depths"] == [1, 1]
    assert echo["prune.rho"] == 0.5
    assert echo["run.output_dir"] == "out_here"
    assert echo["train.gamma"] == 0.001
    # every echoed key is a valid schema key and the blob survives json
    from dimprune.config import SCHEMA
    assert set(echo) == set(SCHEMA)
    assert json.loads(json.dumps(echo)) == echo


def test_make_dataset_synth_follows_model_geometry():
    cfg = load_config(None, ["model.image_size=16", "model.patch_size=2",
                             "model.in_channels=2", "model.base_dim=8",
                             "model.num_classes=3", "data.n_per_class=4",
                             "model.heads=2,4"])
    ds = make_dataset(cfg)
    assert ds.images.shape == (12, 2, 16, 16)
    assert ds.num_classes == 3
    assert set(np.unique(ds.labels)) == {0, 1, 2}


def _write_cifar10_dir(tmp_path, n=6):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        label = i % 10
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
        rows.append(bytes([label]) + pixels.tobytes())
    (tmp_path / "data_batch_1.bin").write_bytes(b"".join(rows))
    return str(tmp_path)


def test_make_dataset_cifar_checks_and_resizes(tmp_path):
    path = _write_cifar10_dir(tmp_path)
    base = ["data.kind=cifar10", f"data.path={path}", "model.num_classes=10",
            "model.base_dim=8", "model.heads=2,4"]
    cfg = load_config(None, base + ["model.image_size=32"])
    ds = make_dataset(cfg)
    assert ds.images.shape == (6, 3, 32, 32)

    cfg16 = load_config(None, base + ["model.image_size=16", "model.patch_size=2"])
    ds16 = make_dataset(cfg16)
    assert ds16.images.shape == (6, 3, 16, 16)
    # nearest-neighbour downscale keeps exact source pixel values
    assert np.all(ds16.images[0] == ds.images[0][:, ::2, ::2])

    bad_classes = load_config(None, base[:-3] + ["model.num_classes=7",
                                                 "model.base_dim=8",
                                                 "model.heads=2,4"])
    with pytest.raises(ConfigError, match="classes"):
        make_dataset(bad_classes)
    bad_channels = load_config(None, base + ["model.in_channels=1"])
    with pytest.raises(ConfigError, match="channels"):
        make_dataset(bad_channels)


def test_make_dataset_cifar_split_reads_the_test_file(tmp_path):
    path = _write_cifar10_dir(tmp_path)
    (tmp_path / "test_batch.bin").write_bytes(bytes([9]) + bytes(3072))
    base = ["data.kind=cifar10", f"data.path={path}", "model.num_classes=10",
            "model.base_dim=8", "model.heads=2,4"]
    assert len(make_dataset(load_config(None, base))) == 6
    test = make_dataset(load_config(None, base + ["data.split=test"]))
    assert list(test.labels) == [9]


def test_data_split_is_train_or_test():
    with pytest.raises(ConfigError, match="data.split"):
        load_config(None, ["data.split=validation"])
    with pytest.raises(ConfigError, match="synth"):
        load_config(None, ["data.split=test"])
    DataSpec(kind="cifar100", path="somewhere", split="test").validate()


def test_dataspec_direct_validation():
    with pytest.raises(ConfigError):
        DataSpec(kind="synth", n_per_class=0).validate()
    with pytest.raises(ConfigError, match="data.seed"):
        DataSpec(seed=-1).validate()
    DataSpec().validate()
    assert RunConfig().rho == 0.6
