"""Graph-over-MLP network: synchronous synapse propagation, the per-step
local training loop, the softmax readout over all neurons, and inference
with the neutral label.

Propagation is Jacobi-style: within a step every neuron reads only the
previous step's outputs, so the result is independent of neuron visiting
order, which is the property cyclic topologies need for reproducibility.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import (FusionMode, FusedBatch, neutral_fusion, read_exact,
                   read_struct)
from .graph import Topology, predecessors
from .neuron import (NeuronParams, init_neuron, neuron_forward,
                     ff_loss_grad_outputs)
from .numerics import AdamState, adam_step, softmax_xent

CHECKPOINT_MAGIC = b"CNN1"
CHECKPOINT_VERSION = 2
# Weight element type by checkpoint version; the layout is otherwise the
# same. Version 1 stored float32, so its weights round-trip only to float32.
CHECKPOINT_WEIGHTS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

# `predict` works through its input in row blocks sized so that one
# neuron's (rows x d_in) float64 input fits in this many bytes, which keeps
# the per-round temporaries in a core's L2 cache instead of main memory.
PREDICT_BLOCK_BYTES = 1 << 20
# Lower bound on the rows of a block. With wide neurons the budget alone
# gives blocks too short for BLAS to run the matmuls at full speed.
PREDICT_MIN_BLOCK_ROWS = 256
# Largest number of propagation rounds a net may have. The paper and the
# defaults use T = 3 and the demos sweep up to 8; the bound keeps a corrupt
# checkpoint or a typo from running billions of rounds.
MAX_T = 1024


@dataclass
class PropagationState:
    """Per-stream, per-neuron output matrices (batch x d_out)."""
    pos: list[np.ndarray]
    neg: list[np.ndarray]
    neu: list[np.ndarray]


@dataclass
class CyclicNet:
    topology: Topology
    neurons: list[NeuronParams]
    neuron_adam: list[AdamState]   # one per neuron, for its W
    readout_W: np.ndarray          # (n_classes, sum of d_out)
    readout_adam: AdamState
    base_dim: int                  # fused input dimension
    T: int
    n_classes: int
    fusion: FusionMode
    preds: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.preds:
            self.preds = [predecessors(self.topology, j)
                          for j in range(self.topology.n_neurons)]

    @property
    def raw_dim(self) -> int:
        if self.fusion.mode == "overlay":
            return self.base_dim
        return self.base_dim - self.n_classes


def build_network(t: Topology, base_dim: int, d_out: int, n_classes: int,
                  theta: float, T: int, rng: np.random.Generator,
                  lr: float = 1e-3, weight_decay: float = 0.0,
                  fusion: FusionMode = FusionMode("concat")) -> CyclicNet:
    """Resolve every neuron's input width from the topology and initialize.

    d_in(j) = base_dim + d_out per predecessor of j; d_out is uniform.
    """
    if not 1 <= T <= MAX_T or d_out < 1:
        raise ValueError(
            f"build_network: need 1 <= T <= {MAX_T} and d_out >= 1")
    neurons = []
    for j in range(t.n_neurons):
        d_in = base_dim + d_out * len(predecessors(t, j))
        neurons.append(init_neuron(d_in, d_out, theta, rng))
    readout_cols = d_out * t.n_neurons
    readout_W = np.zeros((n_classes, readout_cols))
    adam = partial(AdamState.for_param, lr=lr, weight_decay=weight_decay)
    return CyclicNet(topology=t, neurons=neurons,
                     neuron_adam=[adam(p.W) for p in neurons],
                     readout_W=readout_W, readout_adam=adam(readout_W),
                     base_dim=base_dim, T=T, n_classes=n_classes,
                     fusion=fusion)


def zero_state(net: CyclicNet, batch: int) -> PropagationState:
    def zeros():
        return [np.zeros((batch, n.d_out)) for n in net.neurons]
    return PropagationState(pos=zeros(), neg=zeros(), neu=zeros())


def _round_input(net: CyclicNet, j: int, fused_stream: np.ndarray,
                 outputs: list[np.ndarray] | None):
    """Neuron j's (params, input) for one round of one stream: the fused
    stream, then its predecessors' outputs in ascending order.

    `outputs=None` is the zero state. Every predecessor column of the input
    is then zero, so it adds nothing to the product or to the row norm: the
    neuron runs as the fused-input block of W on the fused stream alone, and
    the zero columns are neither built nor multiplied. A neuron without
    predecessors gets the fused stream itself, not a copy.
    """
    p, preds = net.neurons[j], net.preds[j]
    if outputs is None:
        return NeuronParams(p.W[:, :net.base_dim], p.theta), fused_stream
    if not preds:
        return p, fused_stream
    return p, np.concatenate([fused_stream] + [outputs[i] for i in preds],
                             axis=1)


def forward_round(net: CyclicNet, fused_stream: np.ndarray,
                  outputs: list[np.ndarray] | None) -> list[np.ndarray]:
    """One synchronous forward-only round of one stream: every neuron reads
    the fused input and its predecessors' outputs from the previous round,
    or from the zero state when `outputs` is None."""
    if fused_stream.shape[1] != net.base_dim:
        raise ValueError(
            f"forward_round: fused stream has {fused_stream.shape[1]} "
            f"cols, base_dim is {net.base_dim}")
    return [neuron_forward(*_round_input(net, j, fused_stream, outputs))
            for j in range(len(net.neurons))]


def propagate_step(net: CyclicNet, state: PropagationState,
                   fused: FusedBatch) -> PropagationState:
    """One synchronous round for all three streams."""
    return PropagationState(pos=forward_round(net, fused.h_pos, state.pos),
                            neg=forward_round(net, fused.h_neg, state.neg),
                            neu=forward_round(net, fused.h_neu, state.neu))


def readout_forward_loss_grad(net: CyclicNet, neu_outputs: list[np.ndarray],
                              labels: np.ndarray):
    """Softmax readout over the concatenation of all neurons' neutral
    outputs; returns (y_hat, loss, grad w.r.t. readout_W)."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (int(labels.min()) < 0
                        or int(labels.max()) >= net.n_classes):
        raise ValueError("readout: label out of range")
    x = np.concatenate(neu_outputs, axis=1)
    if x.shape[1] != net.readout_W.shape[1]:
        raise ValueError(
            f"readout: input has {x.shape[1]} cols, "
            f"expected {net.readout_W.shape[1]}")
    y_hat, loss, delta = softmax_xent(x @ net.readout_W.T, labels)
    return y_hat, loss, delta.T @ x / len(labels)


def train_iteration(net: CyclicNet, fused: FusedBatch,
                    freeze_neurons: bool = False,
                    freeze_readout: bool = False):
    """One batch of Algorithm-style local training.

    T rounds of: propagate the neutral stream, then for each neuron build
    its input from last round's stacked [pos; neg] outputs, take its FF
    loss and gradient, and step it at once: only that neuron reads its W.
    Neurons never see the neutral stream; the readout sees only it.
    Updates `net` in place; returns (per-neuron mean FF loss, readout loss).
    """
    if fused.h_pos.shape[1] != net.base_dim:
        raise ValueError(
            f"train_iteration: fused dim {fused.h_pos.shape[1]} != "
            f"base_dim {net.base_dim}")
    batch = len(fused.h_pos)
    h_ff = np.concatenate([fused.h_pos, fused.h_neg])
    ff = neu = None
    loss_sums = np.zeros(net.topology.n_neurons)

    for _ in range(net.T):
        neu = forward_round(net, fused.h_neu, neu)
        new_ff = []
        for j, adam in enumerate(net.neuron_adam):
            p, h_in = _round_input(net, j, h_ff, ff)
            loss, grad, h = ff_loss_grad_outputs(p, h_in[:batch],
                                                 h_in[batch:])
            W = net.neurons[j].W
            # In the zero state the predecessor columns' gradient is zero.
            if p.d_in != W.shape[1]:
                full = np.zeros_like(W)
                full[:, :p.d_in] = grad
                grad = full
            new_ff.append(h)
            loss_sums[j] += loss
            if not freeze_neurons:
                adam_step(W, grad, adam)
        ff = new_ff

    _, readout_loss, readout_grad = readout_forward_loss_grad(
        net, neu, fused.true_labels)
    if not freeze_readout:
        adam_step(net.readout_W, readout_grad, net.readout_adam)

    return loss_sums / net.T, readout_loss


def _block_rows(net: CyclicNet) -> int:
    """Rows per `predict` block: the byte budget over the widest input."""
    widest = max(p.d_in for p in net.neurons)
    return max(PREDICT_MIN_BLOCK_ROWS, PREDICT_BLOCK_BYTES // (8 * widest))


def _row_blocks(n_rows: int, block: int) -> list[tuple[int, int]]:
    """[start, stop) bounds covering n_rows in blocks of `block` rows.

    A 1-row tail joins the block before it: numpy hands a 1-row matmul to
    gemv, whose rows need not match gemm's bitwise. An empty input is one
    empty block.
    """
    stops = list(range(block, n_rows, block)) + [n_rows]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return list(zip([0] + stops[:-1], stops))


def predict(net: CyclicNet, features: np.ndarray) -> np.ndarray:
    """Neutral-label inference: T frozen propagation rounds, readout argmax.
    Ties break toward the lowest class index.

    Rows are independent, so they are processed in cache-sized blocks; the
    per-row arithmetic, and so the result, does not depend on the block.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != net.raw_dim:
        raise ValueError(
            f"predict: features have {features.shape[1]} cols, "
            f"expected {net.raw_dim}")
    preds = []
    for start, stop in _row_blocks(len(features), _block_rows(net)):
        h_neu = neutral_fusion(features[start:stop], net.n_classes,
                               net.fusion)
        outputs = None
        for _ in range(net.T):
            outputs = forward_round(net, h_neu, outputs)
        logits = np.concatenate(outputs, axis=1) @ net.readout_W.T
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds)


def save_checkpoint(net: CyclicNet, path) -> None:
    """Little-endian binary checkpoint; weights stored as float64."""
    dtype = CHECKPOINT_WEIGHTS[CHECKPOINT_VERSION]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        fusion_flag = 1 if net.fusion.mode == "overlay" else 0
        f.write(struct.pack("<IIIII", CHECKPOINT_VERSION, net.T,
                            net.base_dim, net.n_classes, fusion_flag))
        t = net.topology
        f.write(struct.pack("<II", t.n_neurons, len(t.synapses)))
        for src, dst in t.synapses:
            f.write(struct.pack("<II", src, dst))
        for p in net.neurons:
            f.write(struct.pack("<IId", p.d_in, p.d_out, p.theta))
            f.write(p.W.astype(dtype).tobytes())
        rows, cols = net.readout_W.shape
        f.write(struct.pack("<II", rows, cols))
        f.write(net.readout_W.astype(dtype).tobytes())


def load_checkpoint(path) -> CyclicNet:
    """Read a `save_checkpoint` file of any version in CHECKPOINT_WEIGHTS.

    A short or overlong file, a header field out of range, a non-finite
    weight or theta, or weight shapes that disagree with the stored
    topology, is a ValueError. The Adam states start fresh: moments are not
    saved."""
    def matrix(rows, cols, what):
        raw = read_exact(f, rows * cols * dtype.itemsize, "checkpoint")
        W = np.frombuffer(raw, dtype=dtype)
        if not np.isfinite(W).all():
            raise ValueError(f"checkpoint: {what} W is not finite")
        return W.astype(np.float64).reshape(rows, cols)

    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("checkpoint: bad magic")
        version, T, base_dim, n_classes, fusion_flag = read_struct(
            f, "<IIIII", "checkpoint")
        if version not in CHECKPOINT_WEIGHTS:
            raise ValueError(f"checkpoint: unsupported version {version}")
        if T < 1:
            raise ValueError(f"checkpoint: T is {T}, need T >= 1")
        if T > MAX_T:
            raise ValueError(f"checkpoint: T is {T}, need T <= {MAX_T}")
        if fusion_flag not in (0, 1):
            raise ValueError(
                f"checkpoint: fusion flag is {fusion_flag}, need 0 or 1")
        dtype = CHECKPOINT_WEIGHTS[version]
        n, n_edges = read_struct(f, "<II", "checkpoint")
        edges = [read_struct(f, "<II", "checkpoint") for _ in range(n_edges)]
        neurons = []
        for j in range(n):
            d_in, d_out, theta = read_struct(f, "<IId", "checkpoint")
            if not np.isfinite(theta):
                raise ValueError(f"checkpoint: neuron {j} theta is not finite")
            neurons.append(NeuronParams(matrix(d_out, d_in, f"neuron {j}"),
                                        theta))
        readout_W = matrix(*read_struct(f, "<II", "checkpoint"), "readout")
        if f.read(1):
            raise ValueError("checkpoint: trailing bytes after the readout")
    fusion = FusionMode("overlay" if fusion_flag else "concat")
    net = CyclicNet(topology=Topology(n_neurons=n, synapses=tuple(edges)),
                    neurons=neurons,
                    neuron_adam=[AdamState.for_param(p.W) for p in neurons],
                    readout_W=readout_W,
                    readout_adam=AdamState.for_param(readout_W),
                    base_dim=base_dim, T=T, n_classes=n_classes,
                    fusion=fusion)
    for j, (p, preds) in enumerate(zip(neurons, net.preds)):
        d_in = base_dim + sum(neurons[i].d_out for i in preds)
        if p.d_in != d_in:
            raise ValueError(
                f"checkpoint: neuron {j} has d_in {p.d_in}, its inputs "
                f"(base_dim {base_dim}, predecessors {preds}) give {d_in}")
    shape = (n_classes, sum(p.d_out for p in neurons))
    if readout_W.shape != shape:
        raise ValueError(
            f"checkpoint: readout is {readout_W.shape[0]}x"
            f"{readout_W.shape[1]}, expected {shape[0]}x{shape[1]}")
    return net
