import hashlib
import tracemalloc

import numpy as np
import pytest

from dimprune.data import (
    CIFAR10_RECORD,
    CIFAR100_RECORD,
    Dataset,
    iterate_batches,
    load_cifar,
    preprocess,
    resize_nearest,
    synth_dataset,
)
from dimprune.errors import ConfigError, DimensionError, FormatError

from oracles import nearest_prototype_labels


def cifar10_record(label, pixel_fn):
    rec = bytearray(CIFAR10_RECORD)
    rec[0] = label
    for i in range(3072):
        rec[1 + i] = pixel_fn(i)
    return bytes(rec)


def cifar100_record(coarse, fine, pixel_fn):
    rec = bytearray(CIFAR100_RECORD)
    rec[0] = coarse
    rec[1] = fine
    for i in range(3072):
        rec[2 + i] = pixel_fn(i)
    return bytes(rec)


def test_cifar10_exact_recovery(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar10_record(7, lambda i: (i * 3) % 256)
                     + cifar10_record(2, lambda i: (i + 5) % 256))
    ds = load_cifar(str(path), "cifar10")
    assert len(ds) == 2 and ds.num_classes == 10
    assert list(ds.labels) == [7, 2]
    # byte layout: three 1024-byte planes, each 32x32 row-major
    for (c, r, w) in [(0, 0, 0), (0, 3, 17), (1, 0, 0), (2, 31, 31)]:
        flat = c * 1024 + r * 32 + w
        assert ds.images[0, c, r, w] == np.float32((flat * 3) % 256) / np.float32(255)
        assert ds.images[1, c, r, w] == np.float32((flat + 5) % 256) / np.float32(255)


def test_cifar100_uses_fine_label(tmp_path):
    path = tmp_path / "train.bin"
    path.write_bytes(cifar100_record(3, 42, lambda i: i % 256))
    ds = load_cifar(str(path), "cifar100")
    assert list(ds.labels) == [42]
    assert ds.num_classes == 100
    assert ds.images[0, 0, 0, 5] == np.float32(5) / np.float32(255)


def test_cifar_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar10_record(1, lambda i: 0)[:-10])
    with pytest.raises(FormatError) as err:
        load_cifar(str(path), "cifar10")
    assert "3073" in str(err.value) and str(CIFAR10_RECORD - 10) in str(err.value)


def test_cifar_error_paths(tmp_path):
    with pytest.raises(FormatError):
        load_cifar(str(tmp_path / "missing.bin"), "cifar10")
    with pytest.raises(ConfigError):
        load_cifar(str(tmp_path), "cifar20")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        load_cifar(str(empty), "cifar10")


def test_cifar_directory_concatenates_sorted(tmp_path):
    (tmp_path / "b.bin").write_bytes(cifar10_record(2, lambda i: 0))
    (tmp_path / "a.bin").write_bytes(cifar10_record(1, lambda i: 0))
    ds = load_cifar(str(tmp_path), "cifar10")
    assert list(ds.labels) == [1, 2]
    with pytest.raises(FormatError):
        load_cifar(str(tmp_path / "sub"), "cifar10")


def _write_cifar_layout(directory, files, make_record):
    """One file per (name, labels) pair, one record per label, plus a
    non-record file."""
    for name, labels in files:
        (directory / name).write_bytes(b"".join(make_record(label) for label in labels))
    (directory / "batches.meta.txt").write_text("not a record file\n")


CIFAR10_LAYOUT = [("data_batch_1.bin", [0, 1]), ("data_batch_2.bin", [2, 3]),
                  ("data_batch_3.bin", [4, 5]), ("test_batch.bin", [8, 9])]
CIFAR100_LAYOUT = [("train.bin", [10, 11, 12, 13]), ("test.bin", [98, 99])]


@pytest.mark.parametrize("variant, layout, make_record", [
    ("cifar10", CIFAR10_LAYOUT, lambda label: cifar10_record(label, lambda i: 0)),
    ("cifar100", CIFAR100_LAYOUT, lambda label: cifar100_record(0, label, lambda i: 0)),
], ids=["cifar10", "cifar100"])
def test_cifar_directory_split_selects_files(tmp_path, variant, layout, make_record):
    _write_cifar_layout(tmp_path, layout, make_record)
    *train_files, (test_name, test_labels) = layout
    train = load_cifar(str(tmp_path), variant, split="train")
    assert list(train.labels) == [label for _, labels in train_files for label in labels]
    test = load_cifar(str(tmp_path), variant, split="test")
    assert list(test.labels) == test_labels
    assert np.array_equal(load_cifar(str(tmp_path), variant).labels, train.labels)
    # a file path loads as given, whatever the split
    single = load_cifar(str(tmp_path / test_name), variant, split="train")
    assert list(single.labels) == test_labels


def test_cifar_directory_without_test_file_rejects_test_split(tmp_path):
    _write_cifar_layout(tmp_path, CIFAR10_LAYOUT[:1],
                        lambda label: cifar10_record(label, lambda i: 0))
    with pytest.raises(FormatError, match="test_batch.bin"):
        load_cifar(str(tmp_path), "cifar10", split="test")
    only_test = tmp_path / "only_test"
    only_test.mkdir()
    _write_cifar_layout(only_test, CIFAR10_LAYOUT[-1:],
                        lambda label: cifar10_record(label, lambda i: 0))
    with pytest.raises(FormatError):
        load_cifar(str(only_test), "cifar10", split="train")


def test_cifar_matches_chunked_manual_parse(tmp_path):
    rng = np.random.default_rng(0)
    records = [cifar10_record(int(rng.integers(0, 10)),
                              lambda i, s=s: int((i + s) % 256))
               for s in range(4)]
    path = tmp_path / "batch.bin"
    path.write_bytes(b"".join(records))
    ds = load_cifar(str(path), "cifar10")
    # independent parse: stream the file in odd-sized chunks
    buf = bytearray()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(999)
            if not chunk:
                break
            buf.extend(chunk)
    manual = np.frombuffer(bytes(buf), dtype=np.uint8).reshape(-1, CIFAR10_RECORD)
    assert np.array_equal(ds.labels, manual[:, 0].astype(np.int64))
    want = manual[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    assert np.array_equal(ds.images, want)


def peak_bytes(fn, *args):
    """The tracemalloc peak of ``fn(*args)`` above what was held before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cifar_load_holds_one_float32_stack(tmp_path):
    """The pixels are converted into one float32 stack and scaled in place:
    the peak is that stack plus the uint8 records, not two float32 copies."""
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 256, size=(2, 150, CIFAR10_RECORD), dtype=np.uint8)
    raw[:, :, 0] %= 10
    for i, part in enumerate(raw):
        part.tofile(tmp_path / f"data_batch_{i}.bin")
    pixels = 2 * 150 * 3072
    assert peak_bytes(load_cifar, str(tmp_path), "cifar10") <= 5.5 * pixels
    want = raw[:, :, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    got = load_cifar(str(tmp_path), "cifar10").images
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


# ---------------------------------------------------------------- synthetic


def test_synth_zero_noise_repeats_prototype():
    ds = synth_dataset(seed=0, num_classes=3, n_per_class=4, height=8, width=8,
                       channels=1, noise_sigma=0.0)
    for c in range(3):
        block = ds.images[ds.labels == c]
        assert len(block) == 4
        assert np.array_equal(block, np.broadcast_to(block[0], block.shape))


def test_synth_deterministic_in_seed():
    a = synth_dataset(seed=5, num_classes=4, n_per_class=3, height=8, width=8)
    b = synth_dataset(seed=5, num_classes=4, n_per_class=3, height=8, width=8)
    c = synth_dataset(seed=6, num_classes=4, n_per_class=3, height=8, width=8)
    assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_synth_nearest_prototype_is_perfect_at_low_noise():
    ds = synth_dataset(seed=1, num_classes=4, n_per_class=8, noise_sigma=0.02)
    protos = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(4)])
    got = nearest_prototype_labels(ds.images, protos)
    assert np.array_equal(got, ds.labels)


def test_synth_impossible_margin_raises():
    with pytest.raises(ConfigError):
        synth_dataset(seed=0, num_classes=4, n_per_class=1, noise_sigma=10.0,
                      max_retries=5)


# SHA-256 of images and labels, taken from the pairwise-array version of
# synth_dataset: the benchmark's tiny and Swin-T shapes, and two cases whose
# prototypes are redrawn (twice, and seven times) before every pair separates.
SYNTH_DIGESTS = [
    (dict(seed=0, num_classes=4, n_per_class=16, height=32, width=32, channels=3),
     "6a31bfb07dacff3eb33fbc0198c0982bcd12ec9d8122d813da53ec5adc48d0ec",
     "f54717a1a69a8075bd82874b074c0524b0a7944107396c43e15d5454a3f70c39"),
    (dict(seed=1001, num_classes=4, n_per_class=16, height=32, width=32, channels=3),
     "e25adf46588feadf5d44435dd773fd191f3780ac77b40e28d1f3d53a512fbad5",
     "f54717a1a69a8075bd82874b074c0524b0a7944107396c43e15d5454a3f70c39"),
    (dict(seed=3, num_classes=4, n_per_class=4, height=8, width=8, channels=3,
          noise_sigma=0.1),
     "992386e152c3e147815ea6abec895dc27a56d44a4b0593936e04a0c4f53e356f",
     "410510ff3440c2a3848ba21e24e2d9d4f85ee3d44c44ea9af076db55085cbf51"),
    (dict(seed=1, num_classes=4, n_per_class=4, height=8, width=8, channels=3,
          noise_sigma=0.1),
     "54b9317d1577c07b7664edb4dc289603ef2db8610ec77a3c95765741f767fed3",
     "410510ff3440c2a3848ba21e24e2d9d4f85ee3d44c44ea9af076db55085cbf51"),
    (dict(seed=0, num_classes=10, n_per_class=1, height=224, width=224, channels=3),
     "fae2505fae37770a820ae42e08faa7852ee8c5a80ba265cf00fb91e9e0384663",
     "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a"),
    (dict(seed=1001, num_classes=10, n_per_class=1, height=224, width=224, channels=3),
     "e3a2ee657c8e9fc7c8879ff292e7c9a0369d58a9ec03ac66df307158801898fa",
     "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a"),
]


@pytest.mark.parametrize("kwargs,images_sha,labels_sha", SYNTH_DIGESTS,
                         ids=["tiny-0", "tiny-1001", "redrawn-2", "redrawn-7",
                              "swin-t-0", "swin-t-1001"])
def test_synth_matches_pinned_digests(kwargs, images_sha, labels_sha):
    ds = synth_dataset(**kwargs)
    assert hashlib.sha256(ds.images.tobytes()).hexdigest() == images_sha
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == labels_sha


def test_synth_values_stay_in_unit_range():
    ds = synth_dataset(seed=2, num_classes=4, n_per_class=5, noise_sigma=0.08,
                       max_retries=200)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    # noise at this level must actually hit the clip boundaries
    assert (ds.images == 0.0).any() or (ds.images == 1.0).any()


# --------------------------------------------------------------- validation


def test_dataset_validation():
    good = np.zeros((2, 1, 4, 4), dtype=np.float32)
    with pytest.raises(DimensionError):
        Dataset(images=np.zeros((2, 4, 4)), labels=[0, 1], num_classes=2)
    with pytest.raises(DimensionError):
        Dataset(images=good, labels=[0], num_classes=2)
    with pytest.raises(ConfigError):
        Dataset(images=good, labels=[0, 2], num_classes=2)
    with pytest.raises(ConfigError):
        Dataset(images=good + 2.0, labels=[0, 1], num_classes=2)
    with pytest.raises(ConfigError):
        Dataset(images=good, labels=[0, 1], num_classes=1)


def test_channel_stats():
    imgs = np.zeros((2, 2, 2, 2), dtype=np.float32)
    imgs[:, 1] = 0.5
    ds = Dataset(images=imgs, labels=[0, 1], num_classes=2)
    mean, std = ds.channel_stats()
    assert np.allclose(mean, [0.0, 0.5])
    assert std.min() >= 1e-6


@pytest.mark.parametrize("shape", [(300, 3, 16, 16), (7, 1, 5, 9)])
def test_channel_stats_cast_one_channel_at_a_time(shape):
    """The stats equal the float64 formula over the whole stack, bit for
    bit, while holding about one channel's float64 copy: not two copies
    of the whole stack."""
    imgs = np.random.default_rng(5).random(shape, dtype=np.float32)
    ds = Dataset(images=imgs, labels=np.zeros(shape[0], dtype=np.int64), num_classes=2)
    flat = imgs.astype(np.float64).transpose(1, 0, 2, 3).reshape(shape[1], -1)
    mean, std = ds.channel_stats()
    assert mean.tobytes() == flat.mean(axis=1).astype(np.float32).tobytes()
    assert std.tobytes() == np.maximum(flat.std(axis=1), 1e-6).astype(np.float32).tobytes()
    if shape[1] > 1:
        assert peak_bytes(ds.channel_stats) <= 1.5 * imgs.nbytes


# ------------------------------------------------------------- augmentation


def test_resize_nearest_block_repeat():
    img = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
    out = resize_nearest(img, 4)
    assert out.shape == (1, 1, 4, 4)
    assert np.array_equal(out[0, 0], np.repeat(np.repeat(img[0, 0], 2, 0), 2, 1))
    same = resize_nearest(img, 2)
    assert np.array_equal(same, img)
    single = resize_nearest(img[:1], 4)
    assert np.array_equal(single, out[:1])


def test_preprocess_eval_is_pure_normalization():
    r = np.random.default_rng(3)
    batch = r.random((4, 3, 8, 8)).astype(np.float32)
    mean = np.array([0.1, 0.2, 0.3], dtype=np.float32)
    std = np.array([0.5, 0.5, 0.25], dtype=np.float32)
    out = preprocess(batch, train=False, mean=mean, std=std)
    want = (batch - mean.reshape(1, 3, 1, 1)) / std.reshape(1, 3, 1, 1)
    assert np.allclose(out, want, atol=1e-7)
    ident = preprocess(batch, train=False, mean=0.0, std=1.0)
    assert np.array_equal(ident, batch)


def test_preprocess_train_is_seeded_and_shape_safe():
    r = np.random.default_rng(4)
    batch = r.random((8, 3, 16, 16)).astype(np.float32)
    a = preprocess(batch, True, 0.0, 1.0, rng=np.random.default_rng(9))
    b = preprocess(batch, True, 0.0, 1.0, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.shape == batch.shape
    assert a.min() >= 0.0 and a.max() <= 1.0
    with pytest.raises(ConfigError):
        preprocess(batch, True, 0.0, 1.0, rng=None)


def test_preprocess_crops_come_from_padded_canvas():
    base = np.zeros((1, 1, 6, 6), dtype=np.float32)
    base[0, 0] = np.arange(36, dtype=np.float32).reshape(6, 6) + 1.0
    base /= base.max()
    seen = set()
    for seed in range(1000):
        out = preprocess(base, True, 0.0, 1.0,
                         rng=np.random.default_rng(seed), pad=2)[0, 0]
        src = base[0, 0]
        flipped = src[:, ::-1]
        canvas = np.zeros((10, 10), dtype=np.float32)
        found = None
        for cand in (src, flipped):
            canvas[2:8, 2:8] = cand
            for top in range(5):
                for left in range(5):
                    if np.array_equal(canvas[top:top + 6, left:left + 6], out):
                        found = (top, left, cand is flipped)
        assert found is not None
        seen.add(found[:2])
    assert seen == {(t, l) for t in range(5) for l in range(5)}


def test_iterate_batches_partitions_and_shuffles():
    ds = synth_dataset(seed=7, num_classes=2, n_per_class=5, height=4, width=4,
                       channels=1)
    plain = list(iterate_batches(ds, 4))
    assert [len(lbl) for _, lbl in plain] == [4, 4, 2]
    assert np.array_equal(np.concatenate([l for _, l in plain]), ds.labels)

    s1 = list(iterate_batches(ds, 4, rng=np.random.default_rng(0)))
    s2 = list(iterate_batches(ds, 4, rng=np.random.default_rng(0)))
    for (xa, la), (xb, lb) in zip(s1, s2):
        assert np.array_equal(xa, xb) and np.array_equal(la, lb)
    assert sorted(np.concatenate([l for _, l in s1]).tolist()) \
        == sorted(ds.labels.tolist())
    with pytest.raises(ConfigError):
        next(iterate_batches(ds, 0))
