"""Dataset ingestion: CIFAR binary files, a synthetic stand-in, augmentation.

The synthetic dataset draws each class around a fixed prototype image with
Gaussian noise; prototypes are regenerated until they are pairwise separated
by at least 4 * sigma * sqrt(C*H*W) in L2, so a nearest-prototype rule (and
any decent classifier) can reach perfect accuracy at small noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, refuse_oversized

CIFAR10_RECORD = 3073   # 1 label byte + 3 * 32 * 32 pixels
CIFAR100_RECORD = 3074  # coarse + fine label bytes + pixels


@dataclass
class Dataset:
    images: np.ndarray  # [N, C, H, W] float32 in [0, 1]
    labels: np.ndarray  # [N] int64
    num_classes: int

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DimensionError(f"images must be [N,C,H,W], got {self.images.shape}")
        n = self.images.shape[0]
        if n == 0:
            raise ConfigError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise DimensionError(
                f"labels shape {self.labels.shape} does not match {n} images")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]")
        lo, hi = float(self.images.min()), float(self.images.max())
        if lo < 0.0 or hi > 1.0:
            raise ConfigError(f"image values must lie in [0, 1], got [{lo}, {hi}]")

    def __len__(self):
        return self.images.shape[0]

    def channel_stats(self):
        """Per-channel (mean, std) for normalization; std floored away from 0.
        One channel is cast to float64 at a time, so the peak is one
        channel's float64 copy and ``std``'s temporary of it, not two
        copies of the whole stack."""
        mean, std = [], []
        for c in range(self.images.shape[1]):
            chan = self.images[:, c].astype(np.float64)
            mean.append(chan.mean())
            std.append(max(chan.std(), 1e-6))
        return np.array(mean, dtype=np.float32), np.array(std, dtype=np.float32)


def _cifar_files(path, test_name: str, split: str):
    """The record files of one split. In a directory, the variant's test file
    is the test split and every other .bin file, in name order, the train
    split; a file path is read as given."""
    if os.path.isdir(path):
        if split == "test":
            if not os.path.isfile(os.path.join(path, test_name)):
                raise FormatError(f"no {test_name} found in {path}")
            return [os.path.join(path, test_name)]
        names = sorted(f for f in os.listdir(path)
                       if f.endswith(".bin") and f != test_name)
        if not names:
            raise FormatError(f"no train .bin files found in {path}")
        return [os.path.join(path, f) for f in names]
    if not os.path.exists(path):
        raise FormatError(f"dataset path does not exist: {path}")
    return [path]


def load_cifar(path, variant: str = "cifar10", split: str = "train") -> Dataset:
    """Read CIFAR binary records: label byte(s) then channel-planar RGB."""
    if variant == "cifar10":
        record, num_classes, test_name = CIFAR10_RECORD, 10, "test_batch.bin"
    elif variant == "cifar100":
        record, num_classes, test_name = CIFAR100_RECORD, 100, "test.bin"
    else:
        raise ConfigError(f"unknown cifar variant: {variant!r}")
    if split not in ("train", "test"):
        raise ConfigError(f"split must be train or test, got {split!r}")

    images = []
    labels = []
    for fname in _cifar_files(path, test_name, split):
        raw = np.fromfile(fname, dtype=np.uint8)
        if raw.size == 0 or raw.size % record:
            raise FormatError(
                f"{fname}: expected a multiple of {record} bytes per record, "
                f"got {raw.size} bytes")
        rows = raw.reshape(-1, record)
        labels.append(rows[:, record - 3072 - 1].astype(np.int64))  # fine label
        pixels = rows[:, record - 3072:]
        images.append(pixels.reshape(-1, 3, 32, 32))
    # one float32 stack, scaled where it lies
    imgs = np.concatenate(images, dtype=np.float32)
    imgs /= 255.0
    return Dataset(images=imgs, labels=np.concatenate(labels),
                   num_classes=num_classes)


def synth_dataset(seed: int, num_classes: int = 4, n_per_class: int = 16,
                  height: int = 32, width: int = 32, channels: int = 3,
                  noise_sigma: float = 0.05, max_retries: int = 100) -> Dataset:
    """Prototype-plus-noise classification task, deterministic in seed."""
    if num_classes < 2 or n_per_class < 1:
        raise ConfigError("need at least 2 classes and 1 sample per class")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    dim = channels * height * width
    # no array below (the images, the float64 prototypes and noise) has
    # more entries than the whole image stack
    refuse_oversized(num_classes * n_per_class * dim, "the synthetic dataset")
    rng = np.random.default_rng(seed)
    margin = 4.0 * noise_sigma * np.sqrt(dim)
    for _ in range(max_retries):
        protos = rng.random((num_classes, channels, height, width))
        flat = protos.reshape(num_classes, -1)
        # One pair at a time: a [C, C, C*H*W] difference array is 120 MB at
        # ten classes of 3x224x224.
        if all(np.linalg.norm(flat[i] - flat[j], axis=-1) >= margin
               for i in range(num_classes) for j in range(i + 1, num_classes)):
            break
    else:
        raise ConfigError(
            f"could not separate {num_classes} prototypes by {margin:.3f} "
            f"after {max_retries} attempts; lower noise_sigma")

    images = np.empty((num_classes * n_per_class, channels, height, width),
                      dtype=np.float32)
    labels = np.empty(num_classes * n_per_class, dtype=np.int64)
    for c in range(num_classes):
        noise = rng.normal(0.0, noise_sigma, size=(n_per_class, channels, height, width))
        batch = np.clip(protos[c] + noise, 0.0, 1.0)
        images[c * n_per_class:(c + 1) * n_per_class] = batch
        labels[c * n_per_class:(c + 1) * n_per_class] = c
    return Dataset(images=images, labels=labels, num_classes=num_classes)


def resize_nearest(images: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbor resize of [N, C, H, W] images."""
    n, c, h, w = images.shape
    ri = (np.arange(size) * h // size).astype(np.int64)
    ci = (np.arange(size) * w // size).astype(np.int64)
    return images[:, :, ri][:, :, :, ci]


def _pad_crop(img: np.ndarray, pad: int, top: int, left: int) -> np.ndarray:
    c, h, w = img.shape
    canvas = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=img.dtype)
    canvas[:, pad:pad + h, pad:pad + w] = img
    return canvas[:, top:top + h, left:left + w]


def preprocess(images: np.ndarray, train: bool, mean, std,
               rng: np.random.Generator | None = None, pad: int = 4) -> np.ndarray:
    """Per-channel normalization plus train-time flip and pad-crop."""
    batch = np.ascontiguousarray(images, dtype=np.float32)
    if batch.ndim != 4:
        raise DimensionError(f"expected [N,C,H,W] batch, got {batch.shape}")
    if train:
        if rng is None:
            raise ConfigError("training augmentation needs a seeded generator")
        out = np.empty_like(batch)
        for i, img in enumerate(batch):
            if rng.random() < 0.5:
                img = img[:, :, ::-1]
            top = int(rng.integers(0, 2 * pad + 1))
            left = int(rng.integers(0, 2 * pad + 1))
            out[i] = _pad_crop(img, pad, top, left)
        batch = out
    mean = np.asarray(mean, dtype=np.float32).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(1, -1, 1, 1)
    if np.any(std <= 0):
        raise ConfigError("std entries must be positive")
    return (batch - mean) / std


def iterate_batches(dataset: Dataset, batch_size: int,
                    rng: np.random.Generator | None = None):
    """Yield (images, labels) batches; shuffled when a generator is given."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(dataset))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]
