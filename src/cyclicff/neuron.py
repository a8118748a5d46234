"""One computational neuron: linear map + ReLU on an L2-normalized input,
goodness scoring, and the local forward-forward loss with its closed-form
gradient.

Gradients stop at the neuron boundary: the normalized input is a constant
with respect to W, so the chain rule covers only ReLU o linear.

The normalisation is applied after the matmul: a per-row scale commutes
with the linear map, (h / ||h||) @ W.T = (h @ W.T) / ||h||, so only the
(batch x d_out) product is scaled and no normalized copy of the wider
input is built. The gradient carries the same row scale on dz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import l2_normalize_rows, relu, sigmoid

PROB_CLAMP = 1e-12


@dataclass
class NeuronParams:
    """Model state only; the Adam state is in `CyclicNet.neuron_adam`."""
    W: np.ndarray          # (d_out, d_in)
    theta: float

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    @property
    def d_out(self) -> int:
        return self.W.shape[0]

    def copy(self) -> "NeuronParams":
        return NeuronParams(self.W.copy(), self.theta)


def init_neuron(d_in: int, d_out: int, theta: float,
                rng: np.random.Generator) -> NeuronParams:
    """Uniform init on [-1/sqrt(d_in), +1/sqrt(d_in)]."""
    bound = 1.0 / np.sqrt(d_in)
    return NeuronParams(rng.uniform(-bound, bound, size=(d_out, d_in)), theta)


def _forward_parts(p: NeuronParams, h_in: np.ndarray):
    """Returns (input, pre-activation, output)."""
    if h_in.shape[1] != p.d_in:
        raise ValueError(
            f"neuron_forward: input has {h_in.shape[1]} cols, expected {p.d_in}")
    z = l2_normalize_rows(h_in @ p.W.T, h_in)
    return h_in, z, relu(z)


def neuron_forward(p: NeuronParams, h_in: np.ndarray) -> np.ndarray:
    return _forward_parts(p, h_in)[2]


def goodness(h: np.ndarray, theta: float) -> np.ndarray:
    """Per-row logistic(sum(h^2) - theta * n_cols); the probability that the
    row came from the positive stream."""
    h = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise ValueError("goodness: non-finite input")
    g = np.sum(h * h, axis=-1)
    return sigmoid(g - theta * h.shape[-1])


def ff_loss_and_grad(p: NeuronParams, h_in_pos: np.ndarray,
                     h_in_neg: np.ndarray) -> tuple[float, np.ndarray]:
    return ff_loss_grad_outputs(p, h_in_pos, h_in_neg)[:2]


def ff_loss_grad_outputs(p: NeuronParams, h_in_pos: np.ndarray,
                         h_in_neg: np.ndarray):
    """Loss, gradient w.r.t. W, and the stacked batch's outputs in one pass.

    The loss is one logistic classification of the stacked batch, positive
    rows first, by goodness: -sum(log q) / B, where q is p on positive rows
    and 1 - p on negative rows, clamped to [1e-12, 1 - 1e-12] inside the log.
    """
    if h_in_pos.shape[0] != h_in_neg.shape[0]:
        raise ValueError("ff_loss: pos/neg batch size mismatch")
    batch = h_in_pos.shape[0]
    # The benchmark's flop counter reads the two halves, so this copy stays
    # until benchmark v2; ROADMAP item 2 then passes the stacked input whole.
    h_in = np.concatenate([h_in_pos, h_in_neg])
    y = np.arange(2 * batch) < batch

    _, _, h = _forward_parts(p, h_in)
    prob = goodness(h, p.theta)
    q = np.where(y, prob, 1.0 - prob)
    loss = -np.sum(np.log(np.clip(q, PROB_CLAMP, 1 - PROB_CLAMP))) / batch

    # d loss / d logit = (p - y) / B; d logit / d h = 2h, and h = relu(z) is
    # already zero wherever the ReLU blocks the gradient.
    dz = ((prob - y) / batch)[:, None] * 2.0 * h
    grad = l2_normalize_rows(dz, h_in).T @ h_in
    return float(loss), grad, h
