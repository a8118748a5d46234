import contextlib
import ctypes
import gzip
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

# Defined in the library, where the sweep workers use them; the tests
# import them from here.
from cyclicff.numerics import _bundled_openblas, openblas_thread_calls  # noqa: F401

MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels-idx1-ubyte.gz"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images-idx3-ubyte.gz"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels-idx1-ubyte.gz"),
}


def find_mnist():
    """Locate the canonical IDX files under CYCLIC_FF_DATA_DIR or
    tests/data/mnist; returns a dict of paths or None."""
    roots = []
    if os.environ.get("CYCLIC_FF_DATA_DIR"):
        roots.append(os.environ["CYCLIC_FF_DATA_DIR"])
    roots.append(os.path.join(os.path.dirname(__file__), "data", "mnist"))
    for root in roots:
        paths = {}
        for key, names in MNIST_FILES.items():
            for name in names:
                p = os.path.join(root, name)
                if os.path.exists(p):
                    paths[key] = p
                    break
        if len(paths) == len(MNIST_FILES):
            return paths
    return None


@pytest.fixture(scope="session")
def mnist_paths():
    paths = find_mnist()
    if paths is None:
        pytest.skip("MNIST IDX files not available (set CYCLIC_FF_DATA_DIR "
                    "to a directory holding the canonical files)")
    return paths


def openblas_config():
    """The configuration string of numpy's bundled OpenBLAS (its version,
    build options and core), or None when there is none."""
    lib = _bundled_openblas()
    if lib is None:
        return None
    lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
    return " ".join(lib.scipy_openblas_get_config64_().decode().split())


def write_idx_images(path, images: np.ndarray, gz=False):
    """images: (n, rows, cols) uint8."""
    n, rows, cols = images.shape
    payload = struct.pack(">iiii", 2051, n, rows, cols) + images.tobytes()
    opener = gzip.open if gz else open
    with opener(path, "wb") as f:
        f.write(payload)


def write_idx_labels(path, labels: np.ndarray, gz=False):
    payload = struct.pack(">ii", 2049, len(labels)) + labels.astype(np.uint8).tobytes()
    opener = gzip.open if gz else open
    with opener(path, "wb") as f:
        f.write(payload)


# Headers whose sizes claim far more data than follows them: a CNNE file
# with n_samples = dim = 2**32 - 1, and a CNN1 checkpoint whose only neuron
# has d_in = d_out = 2**32 - 1.
OVERSIZED_EMBEDDINGS = b"CNNE" + struct.pack("<IIII", 1, 2**32 - 1,
                                             2**32 - 1, 2)
OVERSIZED_CHECKPOINT = (b"CNN1" + struct.pack("<IIIII", 1, 1, 8, 2, 0)
                        + struct.pack("<II", 1, 0)
                        + struct.pack("<IId", 2**32 - 1, 2**32 - 1, 1.0))


def chain_checkpoint(base_dim, n_classes, d_outs, fusion_flag=0) -> bytes:
    """A version-2 checkpoint of the chain 0 -> 1 with zero weights and T 2,
    written byte by byte, so that any header, runnable or not, can be
    stored. d_outs is the two neurons' (d_out, d_out)."""
    parts = [b"CNN1",
             struct.pack("<IIIII", 2, 2, base_dim, n_classes, fusion_flag),
             struct.pack("<II", 2, 1), struct.pack("<II", 0, 1)]
    for d_in, d_out in zip((base_dim, base_dim + d_outs[0]), d_outs):
        parts += [struct.pack("<IId", d_in, d_out, 1.0),
                  bytes(8 * d_in * d_out)]
    cols = sum(d_outs)
    parts += [struct.pack("<II", n_classes, cols),
              bytes(8 * n_classes * cols)]
    return b"".join(parts)


# `chain_checkpoint` arguments of nets that cannot run, with the message
# `load_checkpoint` gives for each.
UNRUNNABLE_CHECKPOINTS = {
    "overlay-narrow": ((2, 3, (2, 2), 1),
                       "checkpoint: base_dim is 2, need at least "
                       "n_classes (3)"),
    "concat-narrow": ((2, 3, (2, 2), 0),
                      "checkpoint: base_dim is 2, need at least "
                      "n_classes (3)"),
    "no-classes": ((4, 0, (2, 2), 0),
                   "checkpoint: n_classes is 0, need at least 2"),
    "one-class": ((4, 1, (2, 2), 0),
                  "checkpoint: n_classes is 1, need at least 2"),
    "d_out-0": ((4, 2, (0, 2), 0),
                "checkpoint: neuron 0 has d_out 0, need >= 1"),
}


def central_diff(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Dense central finite differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        f_plus = f(x)
        x[idx] = orig - step
        f_minus = f(x)
        x[idx] = orig
        g[idx] = (f_plus - f_minus) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def peak_bytes(fn, *args):
    """Peak bytes that `tracemalloc` sees allocated while fn(*args) runs,
    counting what the call returns; numpy reports its array buffers."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def fifo_serving(path, data: bytes):
    """A named pipe at `path` that a writer thread fills with `data` once,
    for a reader that must not seek or reopen its file. A reader that opens
    it again gets an empty stream, so it fails rather than blocks. Skips
    the test where `os.mkfifo` is missing."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("named pipes (os.mkfifo) not available")
    os.mkfifo(path)
    done = threading.Event()

    def write():
        try:
            with open(path, "wb") as f:
                f.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass
        while not done.wait(0.01):
            try:  # a write end opened and closed: an empty stream
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is waiting
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        done.set()
        try:
            # A reader that never opened the pipe leaves the writer blocked
            # in `open`; a read end opened and closed here releases it.
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive(), "fifo writer still blocked"
