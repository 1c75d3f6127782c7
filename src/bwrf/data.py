"""Dataset ingestion: CIFAR-10 binary batches, an IDX fallback for smoke
data, normalization, augmentation, and stratified subsampling.

CIFAR-10 binary layout: each record is 1 label byte followed by 3072 pixel
bytes in channel-major (CHW) order; a standard directory holds
data_batch_1..5.bin plus test_batch.bin at 10,000 records each. Pixels are
scaled to [0, 1] and normalized per channel.
"""

from __future__ import annotations

import os
import struct

import numpy as np

CIFAR_RECORD_BYTES = 1 + 3 * 32 * 32
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(Exception):
    """Missing, truncated, or malformed dataset files."""


class Split:
    """Immutable images + labels pair."""

    __slots__ = ("images", "labels")

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        if len(images) != len(labels):
            raise DataError(f"{len(images)} images vs {len(labels)} labels")
        self.images = images
        self.labels = labels

    def __len__(self):
        return len(self.labels)


def normalize(pixels01: np.ndarray, mean, std) -> np.ndarray:
    m = np.asarray(mean, np.float32)[None, :, None, None]
    s = np.asarray(std, np.float32)[None, :, None, None]
    return ((pixels01 - m) / s).astype(np.float32)


def denormalize_to_bytes(images: np.ndarray, mean, std) -> np.ndarray:
    """Invert normalization and [0,1] scaling back to the raw uint8 pixels."""
    m = np.asarray(mean, np.float32)[None, :, None, None]
    s = np.asarray(std, np.float32)[None, :, None, None]
    return np.rint((images * s + m) * 255.0).clip(0, 255).astype(np.uint8)


def _read_cifar_file(path: str):
    if not os.path.exists(path):
        raise DataError(f"missing dataset file {path}")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES != 0:
        full = raw.size // CIFAR_RECORD_BYTES
        raise DataError(
            f"{path}: {raw.size} bytes is not a whole number of {CIFAR_RECORD_BYTES}-byte "
            f"records (truncated after record {full}, byte offset {full * CIFAR_RECORD_BYTES})")
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    pixels = records[:, 1:].reshape(-1, 3, 32, 32)
    return pixels, labels


def load_cifar10(data_dir: str, mean, std) -> tuple:
    """(train, test) splits from standard binary batches, normalized float32."""
    train_files = sorted(
        f for f in os.listdir(data_dir)
        if f.startswith("data_batch") and f.endswith(".bin")
    ) if os.path.isdir(data_dir) else []
    if not train_files:
        raise DataError(f"no data_batch*.bin files under {data_dir!r}")
    pix, lab = [], []
    for name in train_files:
        p, l = _read_cifar_file(os.path.join(data_dir, name))
        pix.append(p)
        lab.append(l)
    train_pixels = np.concatenate(pix)
    train_labels = np.concatenate(lab)
    test_pixels, test_labels = _read_cifar_file(os.path.join(data_dir, "test_batch.bin"))
    bad = [int(b) for b in np.unique(np.concatenate([train_labels, test_labels]))
           if not 0 <= b <= 9]
    if bad:
        raise DataError(f"label bytes outside 0..9: {bad}")
    train = Split(normalize(train_pixels.astype(np.float32) / 255.0, mean, std), train_labels)
    test = Split(normalize(test_pixels.astype(np.float32) / 255.0, mean, std), test_labels)
    return train, test


def write_cifar10_batches(data_dir: str, train_pixels: np.ndarray, train_labels: np.ndarray,
                          test_pixels: np.ndarray, test_labels: np.ndarray,
                          records_per_file: int = 10000):
    """Write uint8 CHW pixels + labels in the binary batch layout."""
    os.makedirs(data_dir, exist_ok=True)

    def write(path, pixels, labels):
        rec = np.empty((len(labels), CIFAR_RECORD_BYTES), np.uint8)
        rec[:, 0] = labels
        rec[:, 1:] = pixels.reshape(len(labels), -1)
        rec.tofile(path)

    n = len(train_labels)
    files = max(1, (n + records_per_file - 1) // records_per_file)
    for i in range(files):
        lo, hi = i * records_per_file, min((i + 1) * records_per_file, n)
        write(os.path.join(data_dir, f"data_batch_{i + 1}.bin"),
              train_pixels[lo:hi], train_labels[lo:hi])
    write(os.path.join(data_dir, "test_batch.bin"), test_pixels, test_labels)


# -- IDX fallback ----------------------------------------------------------------


def _read_idx(path: str, expect_magic: int, expect_dims: int):
    if not os.path.exists(path):
        raise DataError(f"missing dataset file {path}")
    with open(path, "rb") as fh:
        head = fh.read(4 + 4 * expect_dims)
        if len(head) < 4 + 4 * expect_dims:
            raise DataError(f"{path}: header truncated at byte {len(head)}")
        magic = struct.unpack(">i", head[:4])[0]
        if magic != expect_magic:
            raise DataError(f"{path}: magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
        dims = struct.unpack(f">{expect_dims}i", head[4:])
        body = np.fromfile(fh, dtype=np.uint8)
    want = int(np.prod(dims))
    if body.size != want:
        raise DataError(f"{path}: payload has {body.size} bytes, dims {dims} need {want} "
                        f"(mismatch from byte offset {4 + 4 * expect_dims + min(body.size, want)})")
    return body.reshape(dims)


def load_idx(images_path: str, labels_path: str, mean, std) -> Split:
    """Grayscale IDX images + labels; the channel is replicated to 3 so the
    standard 3-channel stem applies to smoke datasets."""
    imgs = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1).astype(np.int64)
    if len(imgs) != len(labels):
        raise DataError(f"{len(imgs)} images vs {len(labels)} labels")
    if len(labels) == 0:
        raise DataError(f"{images_path}: no records")
    chw = np.repeat(imgs[:, None, :, :], 3, axis=1).astype(np.float32) / 255.0
    return Split(normalize(chw, mean, std), labels)


def load_idx_dir(data_dir: str, mean, std) -> tuple:
    train = load_idx(os.path.join(data_dir, "train-images-idx3-ubyte"),
                     os.path.join(data_dir, "train-labels-idx1-ubyte"), mean, std)
    test = load_idx(os.path.join(data_dir, "test-images-idx3-ubyte"),
                    os.path.join(data_dir, "test-labels-idx1-ubyte"), mean, std)
    return train, test


def write_idx(images_path: str, labels_path: str, images: np.ndarray, labels: np.ndarray):
    """images: (N, H, W) uint8; labels: (N,) uint8."""
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">i", IDX_IMAGES_MAGIC))
        fh.write(struct.pack(">3i", *images.shape))
        images.astype(np.uint8).tofile(fh)
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">i", IDX_LABELS_MAGIC))
        fh.write(struct.pack(">i", len(labels)))
        labels.astype(np.uint8).tofile(fh)


# -- augmentation and subsetting ------------------------------------------------------


def augment_batch(images: np.ndarray, rng: np.random.Generator, pad: int = 4) -> np.ndarray:
    """Zero-pad, random crop back to size, and flip horizontally with p=0.5.

    Per-image offsets come from the supplied generator, so a seeded run
    reproduces its batches exactly.
    """
    n, c, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ys = rng.integers(0, 2 * pad + 1, size=n)
    xs = rng.integers(0, 2 * pad + 1, size=n)
    flips = rng.random(n) < 0.5
    out = np.empty_like(images)
    for i in range(n):
        crop = padded[i, :, ys[i]:ys[i] + h, xs[i]:xs[i] + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def subset(split: Split, fraction: float, seed: int) -> Split:
    """Deterministic class-stratified subsample; fraction 1 is the identity."""
    if not 0 < fraction <= 1:
        raise DataError(f"subset fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return split
    rng = np.random.default_rng(seed)
    keep = []
    for cls in np.unique(split.labels):
        idx = np.flatnonzero(split.labels == cls)
        m = int(round(fraction * len(idx)))
        if m == 0:
            raise DataError(f"fraction {fraction} leaves class {int(cls)} empty")
        keep.append(rng.permutation(idx)[:m])
    order = np.sort(np.concatenate(keep))
    return Split(split.images[order], split.labels[order])


def iter_batches(split: Split, batch_size: int, rng: np.random.Generator | None = None,
                 augment: bool = False):
    """Minibatch iterator; shuffles when given a generator, else in order."""
    if augment and rng is None:
        raise ValueError("augmentation needs a random generator")
    n = len(split)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for lo in range(0, n, batch_size):
        idx = order[lo:lo + batch_size]
        images = split.images[idx]
        if augment:
            images = augment_batch(images, rng)
        yield images, split.labels[idx]
