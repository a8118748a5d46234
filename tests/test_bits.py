"""The bits of fixed runs, pinned across commits: SHA-256 digests of each
case's checkpoint bytes, metrics CSV (without the wall-clock `seconds`
column) and the float64 logits `predict` takes its argmax of, of the BP
baseline's parameters, CSV and logits, and of a small sweep's summary,
compared with `tests/bits.json`.

Bits depend on the numpy build and the BLAS, so the file keys its digests
by the numpy version, numpy's bundled OpenBLAS configuration and the BLAS
thread count, which the test pins to 1. A key the file does not hold
skips the test, naming the key. After a change that alters bits on
purpose, or to add this machine's key, regenerate the file with

    PYTHONPATH=src python tests/test_bits.py

and state in CHANGES.md why the bits moved.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import openblas_config, openblas_thread_calls
from test_acceptance import synth_splits
import cyclicff.network as network_module
from cyclicff import cli
from cyclicff.data import Dataset, FusionMode, split, synth_blobs
from cyclicff.graph import GeneratorSpec
from cyclicff.network import predict, save_checkpoint
from cyclicff.numerics import make_rng
from cyclicff.training import TrainConfig, bp_chain_baseline, train_loop

BITS_FILE = Path(__file__).with_name("bits.json")

# The benchmark workloads' shapes (benchmarks/workloads.py) at data seed 7,
# cut to 1 epoch: dim, classes, separation, pool and test rows per class,
# fusion, generator, d_out, lr, and whether the features are [0, 1] pixels.
DATA_SEED = 7
WORKLOADS = {
    "ff-small-synth": (20, 4, 1.5, 1000, 1000, "concat",
                       GeneratorSpec("complete", 4), 50, 0.01, False),
    "ff-mnist-shaped": (784, 10, 4.0, 80, 200, "overlay",
                        GeneratorSpec("complete", 4), 200, 1e-3, True),
    "ff-ws16-sparse": (20, 4, 1.5, 1000, 2000, "concat",
                       GeneratorSpec("ws", 16, ws_k=4, ws_p=0.3), 32, 0.01,
                       False),
}
SWEEP_CFG = """
dataset = synth
synth_n_per_class = 60
synth_dim = 8
synth_classes = 2
graph = complete
n = 3
d_out = 8
max_epochs = 2
"""


def bits_key():
    """The key of this machine's digests, or None without a bundled
    OpenBLAS to pin."""
    config = openblas_config()
    if config is None:
        return None
    return f"numpy {np.__version__}; {config}; BLAS threads 1"


@contextlib.contextmanager
def one_blas_thread():
    """The body runs with numpy's bundled OpenBLAS at 1 thread."""
    get, set_ = openblas_thread_calls()
    original = get()
    set_(1)
    try:
        yield
    finally:
        set_(original)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_digest(metrics) -> str:
    """The metrics CSV without its last column, `seconds`."""
    return sha("\n".join(row.rsplit(",", 1)[0]
                         for row in metrics.to_csv().splitlines()).encode())


def run_digests(cfg: TrainConfig, train, val, test, tmp: Path) -> dict:
    net, metrics = train_loop(cfg, train, val)
    path = tmp / "net.ckpt"
    save_checkpoint(net, path)
    # The logits of each block, as predict checks them before its argmax.
    logits = []
    real = network_module.check_finite

    def record(a, message):
        if message == "predict: non-finite logits":
            logits.append(np.ascontiguousarray(a, np.float64).tobytes())
        real(a, message)

    network_module.check_finite = record
    try:
        predict(net, test.features)
    finally:
        network_module.check_finite = real
    return {"checkpoint": sha(path.read_bytes()),
            "metrics_csv": csv_digest(metrics),
            "logits": sha(b"".join(logits))}


def criterion_9(tmp: Path) -> dict:
    # The run of test_acceptance.py's criterion 9.
    cfg = TrainConfig(generator=GeneratorSpec("ba", 4), d_out=24,
                      max_epochs=4, seed=3)
    return run_digests(cfg, *synth_splits(3, 300, 12, 3, 3.0), tmp)


def workload_runs(name: str):
    """(config, train, val, test) of a workload cut to 1 epoch."""
    (dim, classes, sep, n_pool, n_test, fusion, gen, d_out, lr,
     pixels) = WORKLOADS[name]

    def blobs(n, stream):
        d = synth_blobs(n, dim, classes, sep, make_rng(DATA_SEED, stream))
        if not pixels:
            return d
        # Class signal rolled past the overlaid label columns, squashed
        # into [0, 1].
        return Dataset(np.clip(0.5 + np.roll(d.features, classes, axis=1)
                               / 6.0, 0.0, 1.0), d.labels, classes)

    train, val = split(blobs(n_pool, 100), 0.2,
                       make_rng(DATA_SEED, "data-shuffle"))
    cfg = TrainConfig(generator=gen, d_out=d_out, T=3, theta=1.0, lr=lr,
                      batch_size=64, max_epochs=1, patience=1, seed=0,
                      fusion=FusionMode(fusion))
    return cfg, train, val, blobs(n_test, 101)


def workload(name: str, tmp: Path) -> dict:
    return run_digests(*workload_runs(name), tmp)


def bp_chain(tmp: Path) -> dict:
    # The baseline as the benchmark trains it on ff-small-synth. Its head's
    # logits are recorded as `_logits` returns them; stacked, they are the
    # logits of the whole test set, however predict splits its rows.
    cfg, train, val, test = workload_runs("ff-small-synth")
    model, metrics = bp_chain_baseline(cfg, train, val)
    logits = []
    real = model._logits

    def record(h):
        out = real(h)
        logits.append(np.ascontiguousarray(out, np.float64).tobytes())
        return out

    model._logits = record
    model.predict(test.features)
    return {"params": sha(model.params.tobytes()),
            "metrics_csv": csv_digest(metrics),
            "logits": sha(b"".join(logits))}


def sweep(jobs: int, tmp: Path) -> dict:
    cfg = tmp / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + f"out_dir = {tmp / 'out'}\n")
    with contextlib.redirect_stdout(None):
        rc = cli.main(["sweep", "--config", str(cfg), "--set", "T=1,2",
                       "--seeds", "1,2", "--jobs", str(jobs)])
    assert rc == 0
    [summary] = (tmp / "out").iterdir()
    return {"summary": sha(summary.read_bytes())}


CASES = {
    "criterion-9": criterion_9,
    **{name: (lambda tmp, name=name: workload(name, tmp))
       for name in WORKLOADS},
    "bp-chain": bp_chain,
    "sweep-jobs-1": lambda tmp: sweep(1, tmp),
    "sweep-jobs-2": lambda tmp: sweep(2, tmp),
}


@pytest.mark.parametrize("case", CASES)
def test_bits_match_the_pinned_digests(case, tmp_path):
    key = bits_key()
    if key is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    pinned = json.loads(BITS_FILE.read_text()).get(key)
    if pinned is None:
        pytest.skip(f"tests/bits.json has no digests for {key!r}")
    with one_blas_thread():
        assert CASES[case](tmp_path) == pinned[case]


def regenerate() -> None:
    """Recompute every case and write its digests under this machine's
    key, keeping the other keys' entries."""
    key = bits_key()
    if key is None:
        sys.exit("numpy's bundled OpenBLAS not found")
    bits = json.loads(BITS_FILE.read_text()) if BITS_FILE.exists() else {}
    with one_blas_thread():
        entry = {}
        for case, run in CASES.items():
            with tempfile.TemporaryDirectory() as tmp:
                entry[case] = run(Path(tmp))
    bits[key] = entry
    BITS_FILE.write_text(json.dumps(bits, indent=2, sort_keys=True) + "\n")
    print(f"{BITS_FILE}: {len(entry)} cases under {key!r}")


if __name__ == "__main__":
    regenerate()
