"""The benchmark's workloads and the inputs each one generates from a seed.

Why these three:

- `ff-small-synth` is the regime of acceptance criterion 8 (20 dims,
  4 classes, complete-4, d_out 50). Its matmuls are tiny, so per-call
  Python and numpy overhead in `neuron` and `numerics` dominates.
- `ff-mnist-shaped` is the reference shape of the MNIST run (784 dims in
  [0, 1], 10 classes, overlay fusion, complete-4, d_out 200). BLAS work,
  Adam's memory traffic and wide fusion copies dominate, and the
  per-epoch evaluation over the train set is largest here.
- `ff-ws16-sparse` is a 16-neuron Watts-Strogatz graph (cyclic, in-degree
  about 4) with narrow neurons and a large held-out set. Per-neuron
  normalisation and concatenation dominate, `graph.generate` does real
  work, and a dense whole-graph kernel would pad it the most.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from cyclicff import data, graph, network
from cyclicff.data import FusionMode
from cyclicff.graph import GeneratorSpec
from cyclicff.numerics import make_rng
from cyclicff.training import TrainConfig

# Graph, weight, shuffle and negative-label randomness are fixed per
# workload, so every run measures the same network and memory footprint;
# the benchmark's --seed varies only the data.
TRAIN_SEED = 0
THETA = 1.0
T_ROUNDS = 3
BATCH = 64
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n_classes: int
    separation: float
    n_per_class: int        # train + validation pool, per class
    n_test_per_class: int
    fusion: str
    generator: GeneratorSpec
    d_out: int
    lr: float
    epochs: int
    # The mean test error over a run's first repetitions must stay below
    # this. None means the readout is expected to stay near chance in so
    # short a run; the check is then that every repetition's mean neuron
    # loss falls from the first epoch to the last.
    err_ceiling_pct: float | None
    mnist_shaped: bool = False

    def config(self) -> TrainConfig:
        # patience == epochs, so every run trains exactly `epochs` epochs.
        return TrainConfig(generator=self.generator, d_out=self.d_out,
                           T=T_ROUNDS, theta=THETA, lr=self.lr,
                           batch_size=BATCH, max_epochs=self.epochs,
                           patience=self.epochs, seed=TRAIN_SEED,
                           fusion=FusionMode(self.fusion))


WORKLOADS = {w.name: w for w in (
    Workload("ff-small-synth", dim=20, n_classes=4, separation=1.5,
             n_per_class=1000, n_test_per_class=1000, fusion="concat",
             generator=GeneratorSpec("complete", 4), d_out=50, lr=0.01,
             epochs=2, err_ceiling_pct=55.0),
    Workload("ff-mnist-shaped", dim=784, n_classes=10, separation=4.0,
             n_per_class=80, n_test_per_class=200, fusion="overlay",
             generator=GeneratorSpec("complete", 4), d_out=200, lr=1e-3,
             epochs=2, err_ceiling_pct=None, mnist_shaped=True),
    Workload("ff-ws16-sparse", dim=20, n_classes=4, separation=1.5,
             n_per_class=1000, n_test_per_class=2000, fusion="concat",
             generator=GeneratorSpec("ws", 16, ws_k=4, ws_p=0.3), d_out=32,
             lr=0.01, epochs=2, err_ceiling_pct=55.0),
)}


def mnist_pixels(features: np.ndarray, n_classes: int) -> np.ndarray:
    """Map Gaussian blob features to [0, 1] pixels whose class signal sits
    in columns n_classes .. 2*n_classes-1.

    `synth_blobs` puts the class centres on the first n_classes axes, and
    overlay fusion overwrites exactly those columns with the label, so the
    columns are rolled past the overlay before squashing.
    """
    return np.clip(0.5 + np.roll(features, n_classes, axis=1) / 6.0, 0.0, 1.0)


class Setup:
    """The program calls made before the first training step, with the
    seconds spent inside them."""

    def __init__(self, w: Workload, seed: int):
        self.seed = seed
        self.seconds = 0.0
        self.train, self.val, self.test = self._datasets(w, seed)
        topo = self._call(graph.generate,
                          replace(w.generator, seed=TRAIN_SEED))
        fused_dim = FusionMode(w.fusion).fused_dim(w.dim, w.n_classes)
        self.net = self._call(network.build_network, topo, fused_dim,
                              w.d_out, w.n_classes, THETA, T_ROUNDS,
                              make_rng(TRAIN_SEED, "weights"), lr=w.lr,
                              fusion=FusionMode(w.fusion))

    def _call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds += time.perf_counter() - t0
        return out

    def _blobs(self, w: Workload, n_per_class: int, rng) -> data.Dataset:
        d = self._call(data.synth_blobs, n_per_class, w.dim, w.n_classes,
                       w.separation, rng)
        if not w.mnist_shaped:
            return d
        pixels = mnist_pixels(d.features, w.n_classes)
        return self._call(data.Dataset, pixels, d.labels, w.n_classes,
                          "mnist-shaped")

    def _datasets(self, w: Workload, seed: int):
        full = self._blobs(w, w.n_per_class, make_rng(seed, 100))
        train, val = self._call(data.split, full, VAL_FRACTION,
                                make_rng(seed, "data-shuffle"))
        test = self._blobs(w, w.n_test_per_class, make_rng(seed, 101))
        return train, val, test


def train_flops_per_sample(net: network.CyclicNet) -> int:
    """Matmul FLOPs (2 per multiply-add) of one training sample.

    Per round, each neuron runs the pos and neg forwards and their two
    gradient matmuls inside `ff_loss_grad_outputs` (8 d_in d_out) plus the
    neutral forward (2 d_in d_out); the readout's forward and gradient
    matmuls add 4 n_classes n d_out.
    """
    rounds = net.T * sum(10 * p.d_in * p.d_out for p in net.neurons)
    return rounds + 4 * net.readout_W.size


def adam_bytes_per_batch(net: network.CyclicNet) -> int:
    """Bytes Adam touches per training batch: per parameter it reads the
    parameter, gradient and both moments and writes both moments and the
    new parameter, 7 float64 values. Neurons step once per round, the
    readout once per batch."""
    neuron_params = sum(p.W.size for p in net.neurons)
    return 7 * 8 * (net.T * neuron_params + net.readout_W.size)
