"""Desk-scale MNIST run: 4 neurons on a complete graph, width 200, T = 3,
theta = 1, label overlaid on the first 10 pixels.

Needs the canonical IDX files; point CYCLIC_FF_DATA_DIR at a directory
containing train-images-idx3-ubyte(.gz) etc. The same run is available from
the command line:

    cyclicff train --set dataset=mnist --set fusion=overlay --set max_epochs=6
"""

import sys

from cyclicff.cli import effective_config, load_datasets
from cyclicff.data import FusionMode
from cyclicff.graph import GeneratorSpec
from cyclicff.training import TrainConfig, evaluate, train_loop

# The CLI's loader: the fixed 50000-image train / val split, and each IDX
# file found plain or gzipped under $CYCLIC_FF_DATA_DIR (default `.`).
try:
    train, val, test = load_datasets(
        effective_config(None, ["dataset=mnist"]))
except OSError as e:
    sys.exit(f"{e} (set CYCLIC_FF_DATA_DIR)")

cfg = TrainConfig(generator=GeneratorSpec("complete", 4), d_out=200, T=3,
                  theta=1.0, fusion=FusionMode("overlay"),
                  max_epochs=6, patience=6, seed=0)
net, metrics = train_loop(cfg, train, val)
for r in metrics.records:
    print(f"epoch {r.epoch}: train {r.train_err:.2f}% "
          f"val {r.val_err:.2f}% ({r.seconds:.0f}s)")
print(f"test error: {evaluate(net, test):.2f}%")
