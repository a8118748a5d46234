"""Dense float64 numerics shared by every other module.

Matrices are plain numpy float64 arrays, row-major. Randomness comes from
counter-based Philox streams keyed by (seed, stream id) so every component
of an experiment can be reseeded independently and reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_NORM = 1e-8

# Adam hyper-parameters; only the learning rate and weight decay vary.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Named sub-streams. Keeping the ids stable is part of the reproducibility
# contract: a (seed, stream) pair must generate the same sequence forever.
STREAMS = {
    "weights": 0,
    "negative-labels": 1,
    "data-shuffle": 2,
    "graph": 3,
}


def make_rng(seed: int, stream: int | str = 0) -> np.random.Generator:
    """Independent, platform-stable generator for (seed, stream)."""
    if isinstance(stream, str):
        stream = STREAMS[stream]
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def l2_normalize_rows(m: np.ndarray,
                      by: np.ndarray | None = None) -> np.ndarray:
    """Each row of a (batch x dim) matrix over max(||row of by||_2, 1e-8);
    `by` defaults to `m`. The guard makes a zero row a fixed point.

    A per-row scale commutes with a linear map, so a neuron can normalise
    its (batch x d_out) product by its input's row norms instead of
    normalising the wider input.
    """
    m = np.asarray(m, dtype=np.float64)
    by = m if by is None else np.asarray(by, dtype=np.float64)
    if by.shape[0] != m.shape[0]:
        raise ValueError(
            f"l2_normalize_rows: {m.shape[0]} rows scaled by {by.shape[0]}")
    # vecdot warns when a huge finite row's sum overflows to inf; such a
    # row scales to zero, like any row whose norm is inf.
    with np.errstate(over="ignore"):
        sq = np.vecdot(by, by)
    # A non-finite entry always makes its row sum non-finite; a huge finite
    # one can overflow it too, so only then are the entries scanned.
    if not np.isfinite(sq).all() and not np.isfinite(by).all():
        raise ValueError("l2_normalize_rows: non-finite input")
    return m / np.maximum(np.sqrt(sq), EPS_NORM)[:, None]


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for overflow safety."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("softmax_stable: empty input")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax_stable: non-finite input")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """(softmax y_hat, mean NLL of the labels with each probability clipped
    at 1e-12, y_hat - onehot): the last is the loss gradient w.r.t. the
    logits times the batch size, left for the caller to divide."""
    y_hat = softmax_stable(logits)
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
    before the moment updates.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.0

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-3,
                  weight_decay: float = 0.0) -> "AdamState":
        return cls(m=np.zeros_like(param, dtype=np.float64),
                   v=np.zeros_like(param, dtype=np.float64),
                   lr=lr, weight_decay=weight_decay)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, written in place into `params` and
    the state's moments."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError(
            f"adam_step: shape mismatch params {params.shape} "
            f"grad {grad.shape} moments {state.m.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("adam_step: non-finite gradient")

    g = grad
    if state.weight_decay != 0.0:
        g = grad + state.weight_decay * params

    # Params and moments are updated in place through two temporaries;
    # every product and sum is the one of the textbook formula, in its order:
    # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    # params - lr (m / c1) / (sqrt(v / c2) + eps).
    state.t += 1
    tmp = (1.0 - ADAM_BETA1) * g
    state.m *= ADAM_BETA1
    state.m += tmp
    np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
    tmp *= g
    state.v *= ADAM_BETA2
    state.v += tmp
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step = state.m / (1.0 - ADAM_BETA1 ** state.t)
    step *= state.lr
    step /= tmp
    params -= step
