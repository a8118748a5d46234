"""Dataset loading, label fusion (positive / negative / neutral), splits.

Fusion follows the two conventions used in the experiments: images overlay
the one-hot label onto the first n_classes pixels; precomputed text
embeddings append the label vector.
"""

from __future__ import annotations

import copy
import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .numerics import check_finite, check_labels

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049

EMBEDDING_MAGIC = b"CNNE"
EMBEDDING_VERSION = 1


def as_features(features, what: str) -> np.ndarray:
    """`features` as an array of its own element type; ValueError, named
    by `what`, unless it is 2-D (rows x dim)."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(
            f"{what}: need 2-D features, got shape {features.shape}")
    return features


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_samples, dim); dtype kept, float64 per batch
    labels: np.ndarray    # (n_samples,) int
    n_classes: int
    name: str = ""

    def __post_init__(self):
        if (np.ndim(self.features), np.ndim(self.labels)) != (2, 1):
            raise ValueError("Dataset: need 2-D features and 1-D labels, got "
                             f"shapes {np.shape(self.features)} and "
                             f"{np.shape(self.labels)}")
        if len(self.labels) != len(self.features):
            raise ValueError("Dataset: feature/label count mismatch")
        check_labels(self.labels, self.n_classes, "Dataset")
        check_finite(self.features,
                     f"{self.name or 'Dataset'}: non-finite features")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        """The rows `idx` (a slice or 1-D index array), unchecked: they
        were checked with this dataset, so `__post_init__` does not run."""
        d = copy.copy(self)
        object.__setattr__(d, "features", self.features[idx])
        object.__setattr__(d, "labels", self.labels[idx])
        return d


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
    if features.shape[1] < label_vecs.shape[1]:
        raise ValueError(f"overlay needs dim >= n_classes, got dim "
                         f"{features.shape[1]} < {label_vecs.shape[1]}")
    out = features.copy()
    out[:, : label_vecs.shape[1]] = label_vecs
    return out


def fuse_inputs(features: np.ndarray, labels: np.ndarray, n_classes: int,
                mode: FusionMode, rng: np.random.Generator) -> FusedBatch:
    """Build the positive / negative / neutral streams for one batch.

    Negative labels are drawn uniformly from the n_classes - 1 false labels,
    fresh on every call. An empty batch, labels that `check_labels` rejects
    or a row count other than the labels' is a ValueError, raised before
    `rng` moves.
    """
    if n_classes < 2:
        raise ValueError("fuse_inputs: need at least 2 classes")
    features = np.asarray(as_features(features, "fuse_inputs"),
                          dtype=np.float64)
    labels = np.asarray(labels)
    if not len(labels):
        raise ValueError("fuse_inputs: empty batch")
    check_labels(labels, n_classes, "fuse_inputs")
    batch = len(labels)
    if len(features) != batch:
        raise ValueError(
            f"fuse_inputs: {len(features)} feature rows for {batch} labels")
    labels = labels.astype(np.int64, copy=False)

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
    features = np.asarray(as_features(features, "neutral_fusion"),
                          dtype=np.float64)
    neu = np.full((len(features), n_classes), 1.0 / n_classes)
    return _fuse(features, neu, mode)


# Largest piece `read_array` asks of a stream at once; a gzip stream
# decompresses each piece into temporaries about 3 times its size.
READ_PIECE = 1 << 16


def read_array(f, shape, dtype, what: str) -> np.ndarray:
    """The next array of `shape` and `dtype` from a `what` file, read
    straight into its buffer; ValueError if the file ends first.

    The buffer grows in place as bytes arrive, never past twice what has
    been read (or READ_PIECE), so a header that claims more than the file
    holds fails on the bytes that exist, also for a pipe or gzip stream.
    """
    dtype = np.dtype(dtype)
    n = math.prod(shape) * dtype.itemsize
    buf = np.empty(min(n, READ_PIECE), np.uint8)
    got = 0
    while got < n:
        if got == len(buf):
            buf.resize(min(n, 2 * got), refcheck=False)
        # Released before any resize, which does not check for live views.
        with memoryview(buf)[got:got + READ_PIECE] as piece:
            k = f.readinto(piece)
        if not k:
            raise ValueError(f"{what}: truncated, {got} of {n} bytes read")
        got += k
    return buf.view(dtype).reshape(shape)


def read_struct(f, fmt: str, what: str) -> tuple:
    """The next `struct` record of format `fmt` from a `what` file."""
    n = struct.calcsize(fmt)
    raw = f.read(n)
    if len(raw) < n:
        raise ValueError(f"{what}: truncated, {len(raw)} of {n} bytes read")
    return struct.unpack(fmt, raw)


def _read_idx(path, magic: int, n_sizes: int, what: str) -> np.ndarray:
    """The uint8 payload, shaped by its `n_sizes` dimension sizes, of a
    big-endian IDX file, plain or gzip; nothing may follow the data.
    A cut or corrupt gzip stream is a ValueError like any malformed file."""
    try:
        with open(path, "rb") as raw:
            # Peeked, not read, so that a pipe loses no byte. GzipFile does
            # not close the file it is given, and `raw` closes twice safely.
            gz = raw.peek(2)[:2] == b"\x1f\x8b"
            with (gzip.GzipFile(fileobj=raw) if gz else raw) as f:
                got, *sizes = read_struct(f, ">" + "I" * (1 + n_sizes), what)
                if got != magic:
                    raise ValueError(f"{what}: bad magic {got}")
                payload = read_array(f, sizes, np.uint8, what)
                if f.read(1):
                    raise ValueError(f"{what}: trailing bytes after the data")
    except (EOFError, gzip.BadGzipFile, zlib.error) as e:
        raise ValueError(f"{what}: {e}") from None
    return payload


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load the big-endian IDX image/label pair; pixels scaled to [0, 1]."""
    images = _read_idx(images_path, MNIST_IMAGE_MAGIC, 3, "IDX images")
    labels = _read_idx(labels_path, MNIST_LABEL_MAGIC, 1, "IDX labels")
    count, rows, cols = images.shape
    if count != len(labels):
        raise ValueError(f"IDX: {count} images but {len(labels)} labels")
    return Dataset(images.reshape(count, rows * cols).astype(np.float64)
                   / 255.0, labels.astype(np.int64),
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
        features = read_array(f, (n, dim), "<f4", "embeddings")
        labels = read_array(f, (n,), "<u2", "embeddings")
        if f.read(1):
            raise ValueError("embeddings: trailing bytes after the labels")
    # Widening keeps every non-finite value non-finite (a signalling NaN
    # turns quiet), so Dataset's one scan rejects it as "embeddings: ...".
    with np.errstate(invalid="ignore"):
        features = features.astype(np.float64)
    return Dataset(features, labels.astype(np.int64), n_classes,
                   name="embeddings")


def save_embeddings(d: Dataset, path) -> None:
    """Write `d` in the `load_embeddings` layout. A label above 65535 (the
    u16 label range) or a feature that is not finite in float32 is a
    ValueError, raised before the file is opened."""
    if d.n_samples and int(d.labels.max()) > 0xFFFF:
        raise ValueError("save_embeddings: label above 65535")
    with np.errstate(over="ignore"):
        features = d.features.astype("<f4", order="C")
    check_finite(features, "save_embeddings: feature not finite in float32")
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<IIII", EMBEDDING_VERSION, d.n_samples,
                            d.dim, d.n_classes))
        f.write(features)
        f.write(d.labels.astype("<u2", order="C"))


def synth_blobs(n_per_class: int, dim: int, n_classes: int,
                separation: float, rng: np.random.Generator) -> Dataset:
    """Gaussian blobs at separation * e_c along the first n_classes axes;
    rows [c * n_per_class, (c + 1) * n_per_class) are class c."""
    if n_classes < 1:
        raise ValueError(f"synth_blobs: n_classes is {n_classes}, need >= 1")
    if n_per_class < 0:
        raise ValueError(
            f"synth_blobs: n_per_class is {n_per_class}, need >= 0")
    if not separation >= 0:
        raise ValueError(
            f"synth_blobs: separation is {separation}, must be >= 0")
    if n_classes > dim:
        raise ValueError("synth_blobs: need n_classes <= dim")
    labels = np.repeat(np.arange(n_classes), n_per_class)
    features = rng.standard_normal((len(labels), dim))
    features[np.arange(len(labels)), labels] += separation
    return Dataset(features, labels, n_classes, name="synth")


def split(d: Dataset, val_fraction: float,
          rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Uniform random train/validation split (disjoint indices). A
    val_fraction outside [0, 1), or one that leaves no training row (an
    empty dataset included), is a ValueError raised before the draw."""
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError("split: val_fraction must be in [0, 1)")
    n_val = int(round(d.n_samples * val_fraction))
    if n_val == d.n_samples:
        raise ValueError(
            f"split: val_fraction {val_fraction} leaves no training rows: "
            f"{d.n_samples} rows, {n_val} to validation")
    perm = rng.permutation(d.n_samples)
    return d.subset(perm[n_val:]), d.subset(perm[:n_val])


def iter_batches(d: Dataset, batch_size: int, rng: np.random.Generator):
    """One epoch of shuffled batches; the last batch may be smaller."""
    if batch_size < 1:
        raise ValueError("iter_batches: batch_size must be >= 1")
    perm = rng.permutation(d.n_samples)
    for start in range(0, d.n_samples, batch_size):
        idx = perm[start:start + batch_size]
        yield d.features[idx], d.labels[idx]

