"""Desk-scale MNIST run: 4 neurons on a complete graph, width 200, T = 3,
theta = 1, label overlaid on the first 10 pixels.

Needs the canonical IDX files; point CYCLIC_FF_DATA_DIR at a directory
containing train-images-idx3-ubyte(.gz) etc. The same run is available from
the command line:

    cyclicff train --set dataset=mnist --set fusion=overlay --set max_epochs=6
"""

import os
import sys

from cyclicff.data import FusionMode, load_mnist_idx
from cyclicff.graph import GeneratorSpec
from cyclicff.training import TrainConfig, evaluate, train_loop

root = os.environ.get("CYCLIC_FF_DATA_DIR", ".")


def find(*names):
    for name in names:
        p = os.path.join(root, name)
        if os.path.exists(p):
            return p
    sys.exit(f"missing MNIST file {names[0]} under {root!r} "
             "(set CYCLIC_FF_DATA_DIR)")


full = load_mnist_idx(find("train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"),
                      find("train-labels-idx1-ubyte", "train-labels-idx1-ubyte.gz"))
# Slices, not index arrays, so both parts share `full`'s memory.
train = full.subset(slice(0, 50000))
val = full.subset(slice(50000, None))
test = load_mnist_idx(find("t10k-images-idx3-ubyte", "t10k-images-idx3-ubyte.gz"),
                      find("t10k-labels-idx1-ubyte", "t10k-labels-idx1-ubyte.gz"))

cfg = TrainConfig(generator=GeneratorSpec("complete", 4), d_out=200, T=3,
                  theta=1.0, fusion=FusionMode("overlay"),
                  max_epochs=6, patience=6, seed=0)
net, metrics = train_loop(cfg, train, val)
for r in metrics.records:
    print(f"epoch {r.epoch}: train {r.train_err:.2f}% "
          f"val {r.val_err:.2f}% ({r.seconds:.0f}s)")
print(f"test error: {evaluate(net, test):.2f}%")
