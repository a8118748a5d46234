"""Epoch loop with early stopping, evaluation, and the backprop chain
baseline."""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, FusionMode, fuse_inputs, iter_batches
from .graph import GeneratorSpec, generate
from .network import CyclicNet, build_network, predict, train_iteration
from .numerics import AdamState, adam_step, make_rng, relu, softmax_xent


@dataclass(frozen=True)
class TrainConfig:
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

    def validate(self):
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
        if self.baseline not in ("none", "bp-chain"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        self.generator.validate()


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


def _fit(cfg: TrainConfig, model, train: Dataset, val: Dataset, batch_step):
    """Train until max_epochs or `patience` consecutive epochs without a new
    best validation error; returns the best-validation snapshot and the
    metrics. With an empty validation set the training error is monitored
    instead. `batch_step(feats, labels)` updates `model` in place and
    returns the batch's (neuron_loss, readout_loss)."""
    if val.n_samples and (val.dim != train.dim
                          or val.n_classes != train.n_classes):
        raise ValueError("train/val dataset mismatch")
    shuffle_rng = make_rng(cfg.seed, "data-shuffle")

    metrics = Metrics()
    best, best_err = None, np.inf
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
            best_err = val_err
            best = copy.deepcopy(model)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    return best, metrics


def train_loop(cfg: TrainConfig, train: Dataset,
               val: Dataset) -> tuple[CyclicNet, Metrics]:
    """Build the cyclic net and fit it with local forward-forward steps;
    `_fit` holds the epoch and early-stopping rules."""
    cfg.validate()
    topo = generate(replace(cfg.generator, seed=cfg.seed))
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

    return _fit(cfg, net, train, val, batch_step)


class BPChainMLP:
    """Four hidden ReLU layers of uniform width plus a softmax head, trained
    end-to-end with hand-derived backpropagation on raw features."""

    N_HIDDEN = 4

    def __init__(self, dim: int, width: int, n_classes: int,
                 rng: np.random.Generator, lr: float = 1e-3,
                 weight_decay: float = 0.0):
        sizes = [dim] + [width] * self.N_HIDDEN + [n_classes]
        self.weights, self.biases = [], []
        for d_in, d_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(d_in)
            self.weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
            self.biases.append(np.zeros(d_out))
        self.w_adam = [AdamState.for_param(w, lr=lr, weight_decay=weight_decay)
                       for w in self.weights]
        self.b_adam = [AdamState.for_param(b, lr=lr, weight_decay=weight_decay)
                       for b in self.biases]

    def _forward(self, x: np.ndarray):
        acts = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(relu(acts[-1] @ w.T + b))
        logits = acts[-1] @ self.weights[-1].T + self.biases[-1]
        return acts, logits

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        acts, logits = self._forward(x)
        _, loss, delta = softmax_xent(logits, labels)
        delta /= len(labels)
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for l in reversed(range(len(self.weights))):
            w_grads[l] = delta.T @ acts[l]
            b_grads[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ self.weights[l]) * (acts[l] > 0)
        return loss, w_grads, b_grads

    def step(self, w_grads, b_grads):
        for param, grad, state in zip(self.weights + self.biases,
                                      w_grads + b_grads,
                                      self.w_adam + self.b_adam):
            adam_step(param, grad, state)

    def predict(self, features: np.ndarray) -> np.ndarray:
        _, logits = self._forward(np.asarray(features, dtype=np.float64))
        return np.argmax(logits, axis=1)


def bp_chain_baseline(cfg: TrainConfig, train: Dataset,
                      val: Dataset) -> tuple[BPChainMLP, Metrics]:
    """Comparison baseline: conventional end-to-end backprop, same optimizer
    and early-stopping machinery (`_fit`) as the local-learning runs."""
    cfg.validate()
    model = BPChainMLP(train.dim, cfg.d_out, train.n_classes,
                       make_rng(cfg.seed, "weights"),
                       lr=cfg.lr, weight_decay=cfg.weight_decay)

    def batch_step(feats, labels):
        loss, wg, bg = model.loss_and_grads(feats, labels)
        model.step(wg, bg)
        return 0.0, loss

    return _fit(cfg, model, train, val, batch_step)


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

