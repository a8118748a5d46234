"""Dense float64 numerics shared by every other module.

Matrices are plain numpy float64 arrays, row-major. Randomness comes from
counter-based Philox streams keyed by (seed, stream id) so every component
of an experiment can be reseeded independently and reproducibly. The
thread count of numpy's bundled OpenBLAS is read and set here too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

EPS_NORM = 1e-8

# Adam hyper-parameters; only the learning rate and weight decay vary.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# `adam_step` works through its arrays in blocks of this many bytes each.
# A block's slices of the parameter, gradient and both moments and its two
# temporaries (6 x 128 KiB) then stay in a core's L2 cache between the
# passes of the update instead of going back to main memory.
ADAM_BLOCK_BYTES = 1 << 17
ADAM_BLOCK = ADAM_BLOCK_BYTES // 8
# `blas_threads_for` runs a body whose largest product has fewer
# multiply-adds than this on one OpenBLAS thread. Measured on 2 cores
# (OpenBLAS 0.3.31, SkylakeX), complete-4 nets, 1 thread against 2, median
# of 5 alternating processes per shape: training whose largest product is
# 1.1M, 2.4M, 4.0M, 6.5M, 11.3M multiply-adds ran 1.16, 1.17, 1.09, 1.06,
# 0.97x as fast; predict at 2.2M, 4.8M, 8.1M, 12.9M, 22.5M ran 1.03, 1.07,
# 0.90, 0.86, 0.83x. Predict crosses over between 4.8M and 8.1M, so the
# line sits just below it.
SMALL_PRODUCT = 1 << 22

# Named sub-streams. Keeping the ids stable is part of the reproducibility
# contract: a (seed, stream) pair must generate the same sequence forever.
STREAMS = {
    "weights": 0,
    "negative-labels": 1,
    "data-shuffle": 2,
    "graph": 3,
    # The CLI's synthetic blobs: the train/val pool and the test set.
    "synth-data": 100,
    "synth-test": 101,
}


def check_seed(seed: int) -> None:
    """A seed is one Philox key word: an integer in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")


def make_rng(seed: int, stream: int | str = 0) -> np.random.Generator:
    """Independent, platform-stable generator for (seed, stream)."""
    check_seed(seed)
    if isinstance(stream, str):
        stream = STREAMS[stream]
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_finite(a: np.ndarray, message: str) -> None:
    """ValueError(message) unless every entry of `a`, of any shape, is
    finite. The first axis is scanned in blocks of about ADAM_BLOCK_BYTES,
    so no mask the size of `a` is held and `a` is never copied."""
    a = np.atleast_1d(a)
    rows = max(1, ADAM_BLOCK_BYTES // max(1, a[:1].nbytes))
    for start in range(0, len(a), rows):
        if not np.isfinite(a[start:start + rows]).all():
            raise ValueError(message)


def check_labels(labels: np.ndarray, n_classes: int, what: str) -> None:
    """ValueError, named by `what`, unless `labels` is 1-D, of an integer
    type (not bool), and every label is in [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{what}: need 1-D labels, got shape {labels.shape}")
    # A cast to int truncates a float label, and a bool array indexes as a
    # mask.
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"{what}: need integer labels, got {labels.dtype}")
    if len(labels) and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"{what}: label out of range")


def row_norms(m: np.ndarray) -> np.ndarray:
    """max(||row||_2, 1e-8) for each row of a (batch x dim) matrix. The
    guard makes a zero row a fixed point of dividing by it."""
    m = np.asarray(m, dtype=np.float64)
    # vecdot warns when a huge finite row's sum overflows to inf; such a
    # row scales to zero, like any row whose norm is inf.
    with np.errstate(over="ignore"):
        sq = np.vecdot(m, m)
    # A non-finite entry always makes its row sum non-finite; a huge finite
    # one can overflow it too, so only then are the entries scanned.
    if not np.isfinite(sq).all():
        check_finite(m, "row_norms: non-finite input")
    return np.maximum(np.sqrt(sq), EPS_NORM)


def l2_normalize_rows(m: np.ndarray,
                      by: np.ndarray | None = None) -> np.ndarray:
    """Each row of a (batch x dim) matrix over its `row_norms` entry of
    `by`, which defaults to `m`.

    A per-row scale commutes with a linear map, so a neuron can normalise
    its (batch x d_out) product by its input's row norms instead of
    normalising the wider input.
    """
    m = np.asarray(m, dtype=np.float64)
    by = m if by is None else np.asarray(by, dtype=np.float64)
    if by.shape[0] != m.shape[0]:
        raise ValueError(
            f"l2_normalize_rows: {m.shape[0]} rows scaled by {by.shape[0]}")
    return m / row_norms(by)[:, None]


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for overflow safety."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("softmax_stable: empty input")
    check_finite(logits, "softmax_stable: non-finite input")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """(softmax y_hat, mean NLL of the labels with each probability clipped
    at 1e-12, y_hat - onehot): the last is the loss gradient w.r.t. the
    logits times the batch size, left for the caller to divide. Labels
    that are not 1-D, a label count other than the row count, or a label
    outside [0, n_classes), n_classes the logits' width, is a ValueError."""
    y_hat = softmax_stable(logits)
    check_labels(labels, y_hat.shape[-1], "softmax_xent")
    if len(labels) != len(y_hat):
        raise ValueError(f"softmax_xent: {len(labels)} labels for "
                         f"{len(y_hat)} rows")
    rows = np.arange(len(labels))
    loss = float(-np.mean(np.log(np.clip(y_hat[rows, labels], 1e-12, None))))
    delta = y_hat.copy()
    delta[rows, labels] -= 1.0
    return y_hat, loss, delta


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so the
    exponential never overflows: exp(-|x|) is exp(-x) or exp(x) there."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class AdamState:
    """Per-parameter Adam moments, step count, learning rate and decay.

    Weight decay is coupled L2: the decay term is folded into the gradient
    before the moment updates. The moments are None until the first step
    allocates them, so a parameter that never trains holds none.
    """

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.0


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, written in place into `params` and
    the state's moments, which must be contiguous. The first step that
    passes the checks allocates the moments, as zeros like `params`.

    The update is elementwise, so it runs over blocks of ADAM_BLOCK_BYTES
    per array through two block-sized temporaries; the bits do not depend
    on the block. Every product and sum is the one of the textbook formula,
    in its order: g + wd p, m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p - lr (m / c1) / (sqrt(v / c2) + eps).
    """
    # Moments not yet allocated will be shaped like params.
    m, v = (params, params) if state.m is None else (state.m, state.v)
    if not (params.shape == grad.shape == m.shape == v.shape):
        raise ValueError(
            f"adam_step: shape mismatch params {params.shape} "
            f"grad {grad.shape} moments {m.shape} {v.shape}")
    # A non-contiguous array would be reshaped into a copy, and the update
    # would be lost with it.
    if not (params.flags.c_contiguous and m.flags.c_contiguous
            and v.flags.c_contiguous):
        raise ValueError("adam_step: params and moments must be contiguous")
    check_finite(grad, "adam_step: non-finite gradient")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    if params.size <= ADAM_BLOCK:
        blocks = [(params, grad, state.m, state.v)]
    else:
        flat = [x.reshape(-1) for x in (params, grad, state.m, state.v)]
        blocks = [[x[start:start + ADAM_BLOCK] for x in flat]
                  for start in range(0, params.size, ADAM_BLOCK)]

    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    a, b = np.empty_like(blocks[0][0]), np.empty_like(blocks[0][0])
    for p, g, m, v in blocks:
        if p.size < a.size:  # the last block is shorter
            a, b = a[:p.size], b[:p.size]
        if state.weight_decay != 0.0:
            np.multiply(state.weight_decay, p, out=a)
            a += g
            g = a
        np.multiply(1.0 - ADAM_BETA1, g, out=b)
        m *= ADAM_BETA1
        m += b
        np.multiply(1.0 - ADAM_BETA2, g, out=b)
        b *= g
        v *= ADAM_BETA2
        v += b
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        np.divide(m, c1, out=a)
        a *= state.lr
        a /= b
        p -= a


@functools.cache
def _bundled_openblas():
    """numpy's bundled OpenBLAS (the library benchmarks/run.py finds), or
    None when there is none; looked up once per process."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


@functools.cache
def openblas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when there is none."""
    lib = _bundled_openblas()
    if lib is None:
        return None
    get = lib.scipy_openblas_get_num_threads64_
    set_ = lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def openblas_config():
    """The configuration string of numpy's bundled OpenBLAS (its version,
    build options and core), or None when there is none."""
    lib = _bundled_openblas()
    if lib is None:
        return None
    config = lib.scipy_openblas_get_config64_
    config.argtypes, config.restype = [], ctypes.c_char_p
    return " ".join(config().decode().split())


@contextlib.contextmanager
def blas_threads(n: int):
    """The body runs numpy's bundled OpenBLAS at `n` threads, and the
    caller's count is restored on exit, also when the body raises; without
    a bundled OpenBLAS, nothing. The count is process-wide, so bodies run
    concurrently from several Python threads are not supported."""
    calls = openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    threads = get()
    set_(n)
    try:
        yield
    finally:
        set_(threads)


def blas_threads_for(multiply_adds: int):
    """`blas_threads(1)` when the largest product its body computes, of
    `multiply_adds` multiply-adds, is below SMALL_PRODUCT; otherwise a
    scope that does nothing, so it never raises the count. Between two
    small products, OpenBLAS's other threads spin waiting for work, so
    they cost a core for the whole body while saving little on each."""
    return (blas_threads(1) if multiply_adds < SMALL_PRODUCT
            else contextlib.nullcontext())
