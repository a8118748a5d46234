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

from .data import (FusionMode, FusedBatch, as_features, neutral_fusion,
                   read_array, read_struct)
from .graph import Topology, predecessors
from .neuron import (NeuronParams, init_neuron, neuron_forward,
                     ff_loss_grad_outputs)
from .numerics import (EPS_NORM, AdamState, adam_step, check_finite,
                       check_labels, row_norms, softmax_xent)

CHECKPOINT_MAGIC = b"CNN1"
CHECKPOINT_VERSION = 2
# Weight element type by checkpoint version; the layout is otherwise the
# same. Version 1 stored float32, so its weights round-trip only to float32.
CHECKPOINT_WEIGHTS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

# Rows per `predict` block, so its memory does not grow with the dataset;
# it also sizes the round buffers that one `predict` call reuses. 256 rows
# measured at or near the fastest block size on narrow and on wide
# (784-dim) nets alike, also with the reused buffers: 1024-row blocks read
# 5-11% slower in one process on the benchmark workloads' shapes.
PREDICT_BLOCK_ROWS = 256
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
    preds: list[list[int]] = field(init=False)   # from the topology

    def __post_init__(self):
        """ValueError unless the net can run: 1 <= T <= MAX_T, at least 2
        classes, room for the label in the fused input, and every neuron
        and the readout shaped as the topology gives them."""
        self.preds = [predecessors(self.topology, j)
                      for j in range(self.topology.n_neurons)]
        if self.T < 1:
            raise ValueError(f"T is {self.T}, need T >= 1")
        if self.T > MAX_T:
            raise ValueError(f"T is {self.T}, need T <= {MAX_T}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes is {self.n_classes}, need at least 2")
        if self.base_dim < self.n_classes:
            raise ValueError(f"base_dim is {self.base_dim}, need at least "
                             f"n_classes ({self.n_classes})")
        for j, (p, preds) in enumerate(zip(self.neurons, self.preds)):
            if p.d_out < 1:
                raise ValueError(f"neuron {j} has d_out {p.d_out}, need >= 1")
            d_in = self.base_dim + sum(self.neurons[i].d_out for i in preds)
            if p.d_in != d_in:
                raise ValueError(
                    f"neuron {j} has d_in {p.d_in}, its inputs (base_dim "
                    f"{self.base_dim}, predecessors {preds}) give {d_in}")
        shape = (self.n_classes, sum(p.d_out for p in self.neurons))
        if self.readout_W.shape != shape:
            raise ValueError(
                f"readout is {self.readout_W.shape[0]}x"
                f"{self.readout_W.shape[1]}, expected {shape[0]}x{shape[1]}")

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
    `CyclicNet` rejects a net that cannot run; a d_out below 1 is rejected
    here, before the weights are drawn, since numpy cannot draw a negative
    width.
    """
    if d_out < 1:
        raise ValueError(f"build_network: d_out is {d_out}, need >= 1")
    neurons = []
    for j in range(t.n_neurons):
        d_in = base_dim + d_out * len(predecessors(t, j))
        neurons.append(init_neuron(d_in, d_out, theta, rng))
    readout_cols = d_out * t.n_neurons
    readout_W = np.zeros((n_classes, readout_cols))
    adam = partial(AdamState, lr=lr, weight_decay=weight_decay)
    return CyclicNet(topology=t, neurons=neurons,
                     neuron_adam=[adam() for _ in neurons],
                     readout_W=readout_W, readout_adam=adam(),
                     base_dim=base_dim, T=T, n_classes=n_classes,
                     fusion=fusion)


def zero_state(net: CyclicNet, batch: int) -> PropagationState:
    def zeros():
        return [np.zeros((batch, n.d_out)) for n in net.neurons]
    return PropagationState(pos=zeros(), neg=zeros(), neu=zeros())


def _round_input(net: CyclicNet, j: int, fused_stream: np.ndarray,
                 outputs: list[np.ndarray] | None,
                 out: np.ndarray | None = None):
    """Neuron j's (params, input) for one round of one stream: the fused
    stream, then its predecessors' outputs in ascending order.

    `outputs=None` is the zero state. Every predecessor column of the input
    is then zero, so it adds nothing to the product or to the row norm: the
    neuron runs as the fused-input block of W on the fused stream alone, and
    the zero columns are neither built nor multiplied. A neuron without
    predecessors gets the fused stream itself, not a copy.

    With `out`, a 1-D float64 array of at least rows x d_in elements, the
    input is built in its first rows x d_in elements, so one buffer can
    serve every neuron of a round in turn.
    """
    p, preds = net.neurons[j], net.preds[j]
    if outputs is None:
        return NeuronParams(p.W[:, :net.base_dim], p.theta), fused_stream
    if not preds:
        return p, fused_stream
    if out is not None:
        out = _prefix(out, len(fused_stream), p.d_in)
    return p, np.concatenate([fused_stream] + [outputs[i] for i in preds],
                             axis=1, out=out)


def _prefix(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows x cols elements of the 1-D `buf` as a contiguous
    matrix."""
    return buf[:rows * cols].reshape(rows, cols)


def forward_round(net: CyclicNet, fused_stream: np.ndarray,
                  outputs: list[np.ndarray] | None,
                  out: np.ndarray | None = None) -> list[np.ndarray]:
    """One synchronous forward-only round of one stream: every neuron reads
    the fused input and its predecessors' outputs from the previous round,
    or from the zero state when `outputs` is None. `out`, as in
    `_round_input`, holds each neuron's input while it runs."""
    if fused_stream.shape[1] != net.base_dim:
        raise ValueError(
            f"forward_round: fused stream has {fused_stream.shape[1]} "
            f"cols, base_dim is {net.base_dim}")
    return [neuron_forward(*_round_input(net, j, fused_stream, outputs, out))
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
    Labels that are not 1-D or not all in [0, n_classes), a stream whose
    shape is not (labels x base_dim), or an empty batch is a ValueError
    that leaves `net` as it was.
    """
    check_labels(fused.true_labels, net.n_classes, "train_iteration")
    batch = len(fused.true_labels)
    shapes = [np.shape(h) for h in (fused.h_pos, fused.h_neg, fused.h_neu)]
    if any(shape != (batch, net.base_dim) for shape in shapes):
        raise ValueError(
            f"train_iteration: h_pos, h_neg and h_neu need shape "
            f"({batch}, {net.base_dim}) for {batch} labels, got {shapes}")
    if not batch:
        raise ValueError("train_iteration: empty batch")
    h_ff = np.concatenate([fused.h_pos, fused.h_neg])
    ff = neu = None
    loss_sums = np.zeros(net.topology.n_neurons)
    # Every neuron's round input, of either stream, is built here in turn.
    inputs = np.empty(2 * batch * max(p.d_in for p in net.neurons))

    for _ in range(net.T):
        neu = forward_round(net, fused.h_neu, neu, inputs)
        new_ff = []
        for j, adam in enumerate(net.neuron_adam):
            p, h_in = _round_input(net, j, h_ff, ff, inputs)
            loss, grad, h = ff_loss_grad_outputs(p, h_in[:batch],
                                                 h_in[batch:])
            new_ff.append(h)
            loss_sums[j] += loss
            if freeze_neurons:
                continue
            W = net.neurons[j].W
            # In the zero state the predecessor columns' gradient is zero.
            if p.d_in != W.shape[1]:
                full = np.zeros_like(W)
                full[:, :p.d_in] = grad
                grad = full
            adam_step(W, grad, adam)
        ff = new_ff

    _, readout_loss, readout_grad = readout_forward_loss_grad(
        net, neu, fused.true_labels)
    if not freeze_readout:
        adam_step(net.readout_W, readout_grad, net.readout_adam)

    return loss_sums / net.T, readout_loss


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


def predict_blocks(features: np.ndarray, block_logits,
                   what: str) -> np.ndarray:
    """The argmax of `block_logits(x)` for each row of the 2-D `features`,
    ties toward the lowest class index, where `x` is one block of rows
    (`_row_blocks` of PREDICT_BLOCK_ROWS) converted to float64. Only one
    block's float64 rows and logits, and whatever `block_logits` holds, are
    alive at a time, so memory beyond the predictions does not grow with
    the input.

    Each row's arithmetic is its own, but a BLAS may compute a small
    block's products by another kernel (OpenBLAS does for a product of at
    most 1200 outputs), so a row's logits can differ in the last bits from
    a pass over all rows at once, and a near-tie row's prediction with
    them. A block whose logits are not all finite (weights large enough to
    overflow) is a ValueError naming `what`, not a warning and an argmax of
    inf and NaN.
    """
    message = f"{what}: non-finite logits"
    preds = []
    for start, stop in _row_blocks(len(features), PREDICT_BLOCK_ROWS):
        # Not bound to a name, so a converted block is freed before the
        # next one is made.
        with np.errstate(over="ignore", invalid="ignore"):
            logits = block_logits(
                np.asarray(features[start:stop], dtype=np.float64))
        check_finite(logits, message)
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds)


def predict(net: CyclicNet, features: np.ndarray) -> np.ndarray:
    """Neutral-label inference: T frozen propagation rounds, readout argmax,
    by `predict_blocks`: each block's neutral fusion, `_neutral_rounds` in
    one `_RoundBuffers` made for the largest block, and the readout.
    """
    features = as_features(features, "predict")
    if features.shape[1] != net.raw_dim:
        raise ValueError(
            f"predict: features have {features.shape[1]} cols, "
            f"expected {net.raw_dim}")
    blocks = _row_blocks(len(features), PREDICT_BLOCK_ROWS)
    work = _RoundBuffers(net, max(stop - start for start, stop in blocks))

    def block_logits(x):
        h_neu = neutral_fusion(x, net.n_classes, net.fusion)
        return _neutral_rounds(net, h_neu, work) @ net.readout_W.T

    return predict_blocks(features, block_logits, "predict")


class _RoundBuffers:
    """The arrays `_neutral_rounds` writes, for up to `rows` rows, so that
    the rounds and blocks of one `predict` call reuse them instead of
    allocating per neuron and round.

    Per neuron: its fused-input product and two output arrays, alternated
    between rounds (one output for a neuron without predecessors, which
    keeps its round-1 output). Shared: one predecessor input, built as a
    contiguous prefix for each neuron's width, two row-length temporaries
    for the norms, and the readout input (the final outputs side by side).
    """

    def __init__(self, net: CyclicNet, rows: int):
        self.fused_part = [np.empty((rows, p.d_out)) for p in net.neurons]
        self.outputs = [
            [np.empty((rows, p.d_out)) for _ in range(1 + bool(preds))]
            for p, preds in zip(net.neurons, net.preds)]
        self.pred_input = np.empty(rows * max(
            p.d_in - net.base_dim for p in net.neurons))
        self.sq = np.empty(rows)
        self.scale = np.empty(rows)
        self.readout_input = np.empty((rows, net.readout_W.shape[1]))


def _neutral_rounds(net: CyclicNet, fused: np.ndarray,
                    work: _RoundBuffers) -> np.ndarray:
    """Every neuron's output after T frozen rounds of one fused stream,
    from the zero state, side by side in neuron order in the returned
    `work.readout_input[:len(fused)]`, valid until `work` is next used.

    The fused stream and every W are fixed for all T rounds, so each
    neuron's product with its fused-input columns, B = F Wf^T, and the
    stream's squared row norms s = ||F||^2 are computed once. Round 1 is
    relu(B / row_norms(F)), bit for bit `forward_round(net, F, None)`.
    Each later round adds only the predecessor part: with O the
    predecessors' previous-round outputs in ascending order,
    z = (B + O Wp^T) / max(sqrt(s + ||O||^2), 1e-8). That is the full-width
    round summed in another order, so its outputs can differ from
    `forward_round`'s in the last bits. A neuron without predecessors
    keeps its round-1 output.
    """
    rows, base = len(fused), net.base_dim
    norms = row_norms(fused)[:, None]
    outputs = []
    for p, b, out in zip(net.neurons, work.fused_part, work.outputs):
        b = np.matmul(fused, p.W[:, :base].T, out=b[:rows])
        h = np.divide(b, norms, out=out[0][:rows])
        outputs.append(np.maximum(h, 0.0, out=h))
    sq = work.sq[:rows]
    scale = work.scale[:rows]
    with np.errstate(over="ignore"):  # as in row_norms
        np.vecdot(fused, fused, out=sq)
    for r in range(1, net.T):
        new = []
        for p, preds, b, out, prev in zip(net.neurons, net.preds,
                                          work.fused_part, work.outputs,
                                          outputs):
            if not preds:
                new.append(prev)
                continue
            o = np.concatenate(
                [outputs[i] for i in preds], axis=1,
                out=_prefix(work.pred_input, rows, p.d_in - base))
            z = np.matmul(o, p.W[:, base:].T, out=out[r % 2][:rows])
            z += b[:rows]
            np.vecdot(o, o, out=scale)
            scale += sq
            np.sqrt(scale, out=scale)
            np.maximum(scale, EPS_NORM, out=scale)
            z /= scale[:, None]
            new.append(np.maximum(z, 0.0, out=z))
        outputs = new
    return np.concatenate(outputs, axis=1, out=work.readout_input[:rows])


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
            f.write(np.ascontiguousarray(p.W, dtype))
        rows, cols = net.readout_W.shape
        f.write(struct.pack("<II", rows, cols))
        f.write(np.ascontiguousarray(net.readout_W, dtype))


def load_checkpoint(path) -> CyclicNet:
    """Read a `save_checkpoint` file of any version in CHECKPOINT_WEIGHTS.

    A short or overlong file, a header field out of range, a non-finite
    weight or theta, or weight shapes that disagree with the stored
    topology, is a ValueError. The Adam states start fresh: moments are not
    saved, and none are held until the net trains."""
    def matrix(rows, cols, what):
        # Read into an array of the stored type: a version-2 matrix is
        # already the float64 returned, and only version 1 is widened.
        W = read_array(f, (rows, cols), dtype, "checkpoint")
        check_finite(W, f"checkpoint: {what} W is not finite")
        return W.astype(np.float64, copy=False)

    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("checkpoint: bad magic")
        version, T, base_dim, n_classes, fusion_flag = read_struct(
            f, "<IIIII", "checkpoint")
        if version not in CHECKPOINT_WEIGHTS:
            raise ValueError(f"checkpoint: unsupported version {version}")
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
    topology = Topology(n_neurons=n, synapses=tuple(edges))
    try:
        return CyclicNet(
            topology=topology, neurons=neurons,
            neuron_adam=[AdamState() for _ in neurons],
            readout_W=readout_W, readout_adam=AdamState(),
            base_dim=base_dim, T=T, n_classes=n_classes, fusion=fusion)
    except ValueError as e:
        raise ValueError(f"checkpoint: {e}") from None
