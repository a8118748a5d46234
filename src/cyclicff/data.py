"""Dataset loading, label fusion (positive / negative / neutral), splits.

Fusion follows the two conventions used in the experiments: images overlay
the one-hot label onto the first n_classes pixels; precomputed text
embeddings append the label vector.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049

EMBEDDING_MAGIC = b"CNNE"
EMBEDDING_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_samples, dim) float64
    labels: np.ndarray    # (n_samples,) int
    n_classes: int
    name: str = ""

    def __post_init__(self):
        if len(self.labels) != len(self.features):
            raise ValueError("Dataset: feature/label count mismatch")
        if len(self.labels) and (int(self.labels.min()) < 0
                                 or int(self.labels.max()) >= self.n_classes):
            raise ValueError("Dataset: label out of range")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("Dataset: non-finite features")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx],
                       self.n_classes, self.name)


@dataclass(frozen=True)
class FusionMode:
    mode: str = "concat"  # "concat" or "overlay"

    def __post_init__(self):
        if self.mode not in ("concat", "overlay"):
            raise ValueError(f"unknown fusion mode {self.mode!r}")

    def fused_dim(self, dim: int, n_classes: int) -> int:
        return dim if self.mode == "overlay" else dim + n_classes


@dataclass(frozen=True)
class FusedBatch:
    h_pos: np.ndarray
    h_neg: np.ndarray
    h_neu: np.ndarray
    true_labels: np.ndarray


def _fuse(features: np.ndarray, label_vecs: np.ndarray,
          mode: FusionMode) -> np.ndarray:
    if mode.mode == "concat":
        return np.concatenate([features, label_vecs], axis=1)
    out = features.copy()
    out[:, : label_vecs.shape[1]] = label_vecs
    return out


def fuse_inputs(features: np.ndarray, labels: np.ndarray, n_classes: int,
                mode: FusionMode, rng: np.random.Generator) -> FusedBatch:
    """Build the positive / negative / neutral streams for one batch.

    Negative labels are drawn uniformly from the n_classes - 1 false labels,
    fresh on every call.
    """
    if n_classes < 2:
        raise ValueError("fuse_inputs: need at least 2 classes")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if mode.mode == "overlay" and features.shape[1] < n_classes:
        raise ValueError("fuse_inputs: overlay needs dim >= n_classes")

    batch = len(labels)
    eye = np.eye(n_classes, dtype=np.float64)
    pos_vecs = eye[labels]
    # Shift by 1..n_classes-1 modulo n_classes: never the true label.
    offsets = rng.integers(1, n_classes, size=batch)
    neg_labels = (labels + offsets) % n_classes
    neg_vecs = eye[neg_labels]

    return FusedBatch(
        h_pos=_fuse(features, pos_vecs, mode),
        h_neg=_fuse(features, neg_vecs, mode),
        h_neu=neutral_fusion(features, n_classes, mode),
        true_labels=labels,
    )


def neutral_fusion(features: np.ndarray, n_classes: int,
                   mode: FusionMode) -> np.ndarray:
    """The neutral stream: every class weighted 1 / n_classes."""
    features = np.asarray(features, dtype=np.float64)
    neu = np.full((len(features), n_classes), 1.0 / n_classes)
    return _fuse(features, neu, mode)


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_exact(f, n: int, what: str) -> bytes:
    """The next n bytes of a `what` file; ValueError if it ends first.

    No piece asked of `f.read` is larger than what the file has already
    given (or 1 MiB), so a header that claims more bytes than the file
    holds fails on the bytes that exist, also for a gzip stream whose
    length is not known up front.
    """
    parts, got = [], 0
    while got < n:
        part = f.read(min(n - got, max(got, 1 << 20)))
        if not part:
            raise ValueError(f"{what}: truncated, {got} of {n} bytes read")
        parts.append(part)
        got += len(part)
    return b"".join(parts)


def read_struct(f, fmt: str, what: str) -> tuple:
    """The next `struct` record of format `fmt` from a `what` file."""
    return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), what))


def _read_idx(path, magic: int, n_sizes: int, what: str):
    """(sizes, payload bytes) of a big-endian IDX file of unsigned bytes with
    `n_sizes` dimension sizes, plain or gzip; nothing may follow the data.
    A cut or corrupt gzip stream is a ValueError like any malformed file."""
    try:
        with _open_maybe_gzip(path) as f:
            got, *sizes = read_struct(f, ">" + "I" * (1 + n_sizes), what)
            if got != magic:
                raise ValueError(f"{what}: bad magic {got}")
            raw = read_exact(f, math.prod(sizes), what)
            if f.read(1):
                raise ValueError(f"{what}: trailing bytes after the data")
    except (EOFError, gzip.BadGzipFile, zlib.error) as e:
        raise ValueError(f"{what}: {e}") from None
    return sizes, raw


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load the big-endian IDX image/label pair; pixels scaled to [0, 1]."""
    (count, rows, cols), raw = _read_idx(images_path, MNIST_IMAGE_MAGIC, 3,
                                         "IDX images")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    (label_count,), raw = _read_idx(labels_path, MNIST_LABEL_MAGIC, 1,
                                    "IDX labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise ValueError(
            f"IDX: {count} images but {label_count} labels")
    return Dataset(images.astype(np.float64) / 255.0, labels,
                   n_classes=10, name="mnist")


def load_embeddings(path) -> Dataset:
    """Load the little-endian CNNE embedding export.

    Layout: magic "CNNE", u32 version, u32 n_samples, u32 dim, u32 n_classes,
    then n_samples*dim float32 features, then n_samples uint16 labels, and
    nothing after them.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != EMBEDDING_MAGIC:
            raise ValueError(f"embeddings: bad magic {magic!r}")
        version, n, dim, n_classes = read_struct(f, "<IIII", "embeddings")
        if version != EMBEDDING_VERSION:
            raise ValueError(f"embeddings: unsupported version {version}")
        feat_raw = read_exact(f, n * dim * 4, "embeddings")
        label_raw = read_exact(f, n * 2, "embeddings")
        if f.read(1):
            raise ValueError("embeddings: trailing bytes after the labels")
        features = np.frombuffer(feat_raw, dtype="<f4")
        if not np.isfinite(features).all():
            raise ValueError("embeddings: non-finite features")
        features = features.astype(np.float64)
        labels = np.frombuffer(label_raw, dtype="<u2").astype(np.int64)
    return Dataset(features.reshape(n, dim), labels, n_classes, name="embeddings")


def save_embeddings(d: Dataset, path) -> None:
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<IIII", EMBEDDING_VERSION, d.n_samples,
                            d.dim, d.n_classes))
        f.write(d.features.astype("<f4").tobytes())
        f.write(d.labels.astype("<u2").tobytes())


def synth_blobs(n_per_class: int, dim: int, n_classes: int,
                separation: float, rng: np.random.Generator) -> Dataset:
    """Gaussian blobs at separation * e_c along the first n_classes axes."""
    if separation < 0:
        raise ValueError("synth_blobs: separation must be >= 0")
    if n_classes > dim:
        raise ValueError("synth_blobs: need n_classes <= dim")
    features = []
    labels = []
    for c in range(n_classes):
        center = np.zeros(dim)
        center[c] = separation
        features.append(rng.standard_normal((n_per_class, dim)) + center)
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(np.concatenate(features), np.concatenate(labels),
                   n_classes, name="synth")


def split(d: Dataset, val_fraction: float,
          rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Uniform random train/validation split (disjoint indices)."""
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError("split: val_fraction must be in [0, 1)")
    perm = rng.permutation(d.n_samples)
    n_val = int(round(d.n_samples * val_fraction))
    return d.subset(perm[n_val:]), d.subset(perm[:n_val])


def iter_batches(d: Dataset, batch_size: int, rng: np.random.Generator):
    """One epoch of shuffled batches; the last batch may be smaller."""
    if batch_size < 1:
        raise ValueError("iter_batches: batch_size must be >= 1")
    perm = rng.permutation(d.n_samples)
    for start in range(0, d.n_samples, batch_size):
        idx = perm[start:start + batch_size]
        yield d.features[idx], d.labels[idx]

