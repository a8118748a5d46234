"""Epoch loop with early stopping, evaluation, and the backprop chain
baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (Dataset, FusionMode, as_features, fuse_inputs,
                   iter_batches)
from .graph import GeneratorSpec, generate
from .network import (MAX_T, CyclicNet, build_network, predict,
                      predict_blocks, train_iteration)
from .numerics import (AdamState, adam_step, check_seed, make_rng, relu,
                       softmax_xent)


@dataclass(frozen=True)
class TrainConfig:
    """Checked when made; its generator takes the run's `seed`."""

    generator: GeneratorSpec = GeneratorSpec("complete", 4)
    d_out: int = 200
    T: int = 3
    theta: float = 1.0
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    freeze_neurons: bool = False
    freeze_readout: bool = False
    fusion: FusionMode = FusionMode("concat")
    baseline: str = "none"  # "none" or "bp-chain"

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        for name in ("lr", "theta", "weight_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        for name in ("d_out", "T", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.T > MAX_T:
            raise ValueError(f"T is {self.T}, need T <= {MAX_T}")
        if self.baseline not in ("none", "bp-chain"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        check_seed(self.seed)
        object.__setattr__(self, "generator",
                           replace(self.generator, seed=self.seed))


@dataclass
class EpochRecord:
    epoch: int
    neuron_loss: float
    readout_loss: float
    train_err: float
    val_err: float
    seconds: float


@dataclass
class Metrics:
    records: list[EpochRecord] = field(default_factory=list)
    test_err: float | None = None

    CSV_HEADER = "epoch,neuron_loss,readout_loss,train_err,val_err,seconds"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.neuron_loss:.10g},"
                         f"{r.readout_loss:.10g},{r.train_err:.10g},"
                         f"{r.val_err:.10g},{r.seconds:.6g}")
        return "\n".join(lines) + "\n"

    def best_val_err(self) -> float:
        return min(r.val_err for r in self.records)


def evaluate(model, d: Dataset) -> float:
    """Error rate percent of model predictions on d."""
    if d.n_samples == 0:
        raise ValueError("evaluate: empty dataset")
    if isinstance(model, CyclicNet):
        preds = predict(model, d.features)
    else:
        preds = model.predict(d.features)
    return 100.0 * float(np.mean(preds != d.labels))


def _fit(cfg: TrainConfig, model, train: Dataset, val: Dataset, batch_step,
         weights: list[np.ndarray]):
    """Train until max_epochs or `patience` consecutive epochs without a new
    best validation error; returns `model`, holding the best-validation
    weights, and the metrics. With an empty validation set the training
    error is monitored instead. `batch_step(feats, labels)` updates `model`
    in place and returns the batch's (neuron_loss, readout_loss).

    `weights` are the arrays that `predict` and checkpoints read. Only they
    are kept for the best epoch and written back at the end; the rest of
    the model, such as the Adam moments, is the last epoch's. An empty
    training set is a ValueError before the first epoch."""
    if not train.n_samples:
        raise ValueError("fit: empty training set")
    if val.n_samples and (val.dim != train.dim
                          or val.n_classes != train.n_classes):
        raise ValueError("train/val dataset mismatch")
    shuffle_rng = make_rng(cfg.seed, "data-shuffle")

    metrics = Metrics()
    best = [np.empty_like(w) for w in weights]
    best_err, best_epoch = np.inf, 0
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        neuron_losses, readout_losses = [], []
        for feats, labels in iter_batches(train, cfg.batch_size, shuffle_rng):
            neuron_loss, readout_loss = batch_step(feats, labels)
            neuron_losses.append(neuron_loss)
            readout_losses.append(readout_loss)

        train_err = evaluate(model, train)
        val_err = evaluate(model, val) if val.n_samples else train_err
        metrics.records.append(EpochRecord(
            epoch=epoch,
            neuron_loss=float(np.mean(neuron_losses)),
            readout_loss=float(np.mean(readout_losses)),
            train_err=train_err, val_err=val_err,
            seconds=time.perf_counter() - t0))

        if val_err < best_err:
            best_err, best_epoch = val_err, epoch
            for b, w in zip(best, weights):
                np.copyto(b, w)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    if best_epoch != epoch:
        for b, w in zip(best, weights):
            np.copyto(w, b)
    return model, metrics


def train_loop(cfg: TrainConfig, train: Dataset,
               val: Dataset) -> tuple[CyclicNet, Metrics]:
    """Build the cyclic net and fit it with local forward-forward steps;
    `_fit` holds the epoch and early-stopping rules."""
    topo = generate(cfg.generator)
    base_dim = cfg.fusion.fused_dim(train.dim, train.n_classes)
    net = build_network(topo, base_dim, cfg.d_out, train.n_classes,
                        cfg.theta, cfg.T, make_rng(cfg.seed, "weights"),
                        lr=cfg.lr, weight_decay=cfg.weight_decay,
                        fusion=cfg.fusion)
    neg_rng = make_rng(cfg.seed, "negative-labels")

    def batch_step(feats, labels):
        fused = fuse_inputs(feats, labels, train.n_classes, cfg.fusion,
                            neg_rng)
        per_neuron, r_loss = train_iteration(
            net, fused, freeze_neurons=cfg.freeze_neurons,
            freeze_readout=cfg.freeze_readout)
        return per_neuron.mean(), r_loss

    return _fit(cfg, net, train, val, batch_step,
                [p.W for p in net.neurons] + [net.readout_W])


class BPChainMLP:
    """Four hidden ReLU layers of uniform width plus a softmax head, trained
    end-to-end with hand-derived backpropagation on raw features.

    Every weight and bias is a view of one flat vector, `params`, laid out
    layer by layer as (W, b); one Adam state covers it, so a batch makes a
    single Adam step. Gradients use the same layout.
    """

    N_HIDDEN = 4

    def __init__(self, dim: int, width: int, n_classes: int,
                 rng: np.random.Generator, lr: float = 1e-3,
                 weight_decay: float = 0.0):
        sizes = [dim] + [width] * self.N_HIDDEN + [n_classes]
        self._shapes = list(zip(sizes[1:], sizes[:-1]))   # (d_out, d_in)
        self.params = np.zeros(sum(o * (i + 1) for o, i in self._shapes))
        self.weights, self.biases = self._layers(self.params)
        for w in self.weights:
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        self.adam = AdamState(lr=lr, weight_decay=weight_decay)

    def _layers(self, flat: np.ndarray):
        """(weights, biases): per-layer views of a flat `params`-sized
        vector."""
        weights, biases, start = [], [], 0
        for d_out, d_in in self._shapes:
            stop = start + d_out * d_in
            weights.append(flat[start:stop].reshape(d_out, d_in))
            biases.append(flat[stop:stop + d_out])
            start = stop + d_out
        return weights, biases

    def _features(self, x, what: str) -> np.ndarray:
        """`x` as an array of its own element type; ValueError, named by
        `what`, unless it is 2-D and as wide as the first layer."""
        x = as_features(x, what)
        if x.shape[1] != self.weights[0].shape[1]:
            raise ValueError(f"{what}: features have {x.shape[1]} cols, "
                             f"the model takes {self.weights[0].shape[1]}")
        return x

    def _activations(self, x: np.ndarray):
        """Yields x, then each hidden layer's ReLU output in turn."""
        yield x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = relu(x @ w.T + b)
            yield x

    def _logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.weights[-1].T + self.biases[-1]

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray,
                       out: np.ndarray | None = None):
        """(loss, weight gradients, bias gradients). The gradients are views
        of one flat vector laid out like `params`: `out` when given, else a
        fresh one, so an earlier call's gradients are never overwritten."""
        labels = np.asarray(labels, dtype=np.int64)
        x = self._features(x, "BPChainMLP.loss_and_grads")
        acts = list(self._activations(np.asarray(x, dtype=np.float64)))
        _, loss, delta = softmax_xent(self._logits(acts[-1]), labels)
        delta /= len(labels)
        grad = np.empty_like(self.params) if out is None else out
        w_grads, b_grads = self._layers(grad)
        for l in reversed(range(len(self.weights))):
            np.matmul(delta.T, acts[l], out=w_grads[l])
            np.add.reduce(delta, axis=0, out=b_grads[l])
            if l > 0:
                delta = (delta @ self.weights[l]) * (acts[l] > 0)
        return loss, w_grads, b_grads

    def step(self, grad: np.ndarray) -> None:
        """One Adam step on `params` with a flat gradient laid out like it,
        such as the `out` vector of `loss_and_grads`. A layer rebound to an
        array that is not a view of `params` would not move with it, so
        that is a ValueError."""
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.base is not self.params or b.base is not self.params:
                raise ValueError(
                    f"BPChainMLP.step: layer {l} is not a view of params")
        adam_step(self.params, grad, self.adam)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Argmax of the logits by `predict_blocks`: each block holds only
        its current layer's activation, as backprop's per-layer activations
        are not needed."""
        what = "BPChainMLP.predict"
        return predict_blocks(self._features(features, what),
                              self._block_logits, what)

    def _block_logits(self, x: np.ndarray) -> np.ndarray:
        """The logits of the rows `x`, one layer's activation at a time."""
        for h in self._activations(x):
            pass
        return self._logits(h)


def bp_chain_baseline(cfg: TrainConfig, train: Dataset,
                      val: Dataset) -> tuple[BPChainMLP, Metrics]:
    """Comparison baseline: conventional end-to-end backprop, same optimizer
    and early-stopping machinery (`_fit`) as the local-learning runs."""
    model = BPChainMLP(train.dim, cfg.d_out, train.n_classes,
                       make_rng(cfg.seed, "weights"),
                       lr=cfg.lr, weight_decay=cfg.weight_decay)
    grad = np.empty_like(model.params)

    def batch_step(feats, labels):
        loss, _, _ = model.loss_and_grads(feats, labels, out=grad)
        model.step(grad)
        return 0.0, loss

    return _fit(cfg, model, train, val, batch_step, [model.params])


def run_config(cfg: TrainConfig, train: Dataset, val: Dataset,
               test: Dataset | None = None):
    """Dispatch on cfg.baseline; fills metrics.test_err when test is given."""
    if cfg.baseline == "bp-chain":
        model, metrics = bp_chain_baseline(cfg, train, val)
    else:
        model, metrics = train_loop(cfg, train, val)
    if test is not None and test.n_samples:
        metrics.test_err = evaluate(model, test)
    return model, metrics

