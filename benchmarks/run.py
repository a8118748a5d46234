"""cyclicff benchmark: training and prediction throughput on fixed workloads.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload ff-small-synth --seed 1 \\
        --seconds 30 --trace 0

The benchmark is single-process and closed-loop: each training step starts
when the previous one has ended (batch 64). One repetition trains with
`training.train_loop`, evaluates the trained net on the held-out set, trains
the BP-chain baseline at the same width with `training.bp_chain_baseline`,
and round-trips the net through `network.save_checkpoint` and
`network.load_checkpoint`. Repetitions run until `--seconds` have passed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (medians over repetitions). With `--trace 1` the run
alternates untraced and traced repetitions and reports per-layer self time,
call counts and work counts per repetition instead; spans are recorded by
wrappers installed from this directory around each module's functions.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Each repetition sets up this many times and keeps the last set-up.
SETUP_REPEATS = 3
# Runs make at least this many repetitions; test_err_pct is the mean over
# exactly these, so it does not depend on how many fit in --seconds.
MIN_REPEATS = 5
# A traced run makes at least this many untraced/traced pairs.
MIN_TRACED_PAIRS = 2
BP_REPEATS = 3
# Checkpoints store float32 weights, so a held-out row whose top two
# logits nearly tie may flip; the reloaded net's error may differ by this
# many percentage points.
ROUND_TRIP_TOL_PCT = 0.1
# Self times of all spans plus the benchmark's own code between calls must
# cover the traced wall time to within this share.
ACCOUNTING_TOL = 0.02


if not os.path.isfile(os.path.join(SRC, "cyclicff", "__init__.py")):
    sys.exit(f"benchmark: library sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from cyclicff import data, graph, network, neuron, numerics, training  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, Setup, Workload,  # noqa: E402
                       adam_bytes_per_batch, train_flops_per_sample)


# --- traced layers -------------------------------------------------------
# Each counter returns the work one call does, from its argument shapes.

def _adam_bytes(params, grad, state):
    # 7 arrays of the parameter's size; see adam_bytes_per_batch.
    return {"bytes_computed": 7 * params.nbytes}


def _ff_flops(p, h_in_pos, h_in_neg):
    return {"flops_computed": 8 * h_in_pos.shape[0] * p.d_in * p.d_out}


def _forward_flops(p, h_in):
    return {"flops_computed": 2 * h_in.shape[0] * p.d_in * p.d_out}


def _fuse_bytes(features, labels, n_classes, mode, rng):
    width = mode.fused_dim(features.shape[1], n_classes)
    return {"bytes_computed": 3 * 8 * len(labels) * width}


def _predict_rows(net, features):
    return {"rows": len(features)}


def _evaluate_rows(model, d):
    return {"rows": d.n_samples}


# (span name, function, counter); every module binding of the function is
# wrapped. `cli` is not traced: its single-process path is a thin wrapper
# over `training.run_config`.
LAYERS = (
    ("data.synth_blobs", data.synth_blobs, None),
    ("data.split", data.split, None),
    ("data.fuse_inputs", data.fuse_inputs, _fuse_bytes),
    ("data.neutral_fusion", data.neutral_fusion, None),
    ("numerics.adam_step", numerics.adam_step, _adam_bytes),
    ("numerics.l2_normalize_rows", numerics.l2_normalize_rows, None),
    ("neuron.ff_loss_grad_outputs", neuron.ff_loss_grad_outputs, _ff_flops),
    ("neuron.neuron_forward", neuron.neuron_forward, _forward_flops),
    ("graph.generate", graph.generate, None),
    ("network.build_network", network.build_network, None),
    ("network.train_iteration", network.train_iteration, None),
    ("network.readout_forward_loss_grad",
     network.readout_forward_loss_grad, None),
    ("network.predict", network.predict, _predict_rows),
    ("network.save_checkpoint", network.save_checkpoint, None),
    ("network.load_checkpoint", network.load_checkpoint, None),
    ("training.train_loop", training.train_loop, None),
    ("training.evaluate", training.evaluate, _evaluate_rows),
    ("training.bp_chain_baseline", training.bp_chain_baseline, None),
)
# (span name, class, method). Dataset validation runs whenever a dataset is
# built, from the benchmark or inside `split`.
METHODS = (
    ("data.Dataset.post_init", data.Dataset, "__post_init__"),
    ("training.bp.loss_and_grads", training.BPChainMLP, "loss_and_grads"),
    ("training.bp.step", training.BPChainMLP, "step"),
    ("training.bp.predict", training.BPChainMLP, "predict"),
)
# Spans reported as total seconds; neither calls a traced function.
TOTAL_ONLY = ("graph.generate", "network.build_network")
REPORTED_COUNTS = {
    "numerics.adam_step": ("calls", "bytes_computed"),
    "numerics.l2_normalize_rows": ("calls",),
    "neuron.ff_loss_grad_outputs": ("calls", "flops_computed"),
    "neuron.neuron_forward": ("calls", "flops_computed"),
    "network.train_iteration": ("calls",),
    "network.predict": ("rows",),
    "data.fuse_inputs": ("calls", "bytes_computed"),
    "training.evaluate": ("rows",),
}
COUNT_UNITS = {"calls": "count", "rows": "count",
               "bytes_computed": "bytes", "flops_computed": "flop"}


def install(tracer: Tracer) -> None:
    for name, fn, counter in LAYERS:
        if tracer.install(name, fn, counter) == 0:
            raise RuntimeError(f"no module binds {name}")
    for name, cls, attr in METHODS:
        tracer.install_method(name, cls, attr)


def span_names() -> list[str]:
    return ([name for name, _, _ in LAYERS]
            + [name for name, _, _ in METHODS])


# --- one repetition ------------------------------------------------------

class Repetition:
    """Train, predict, train the baseline and round-trip a checkpoint once,
    then check the outputs."""

    def __init__(self, w: Workload, s: Setup, ckpt_path: str):
        cfg = w.config()
        t0 = time.perf_counter()
        net, metrics = training.train_loop(cfg, s.train, s.val)
        self.train_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.test_err = training.evaluate(net, s.test)
        self.predict_s = time.perf_counter() - t0

        # The baseline is an order of magnitude faster than the FF run, so
        # it is timed several times to give as steady a figure.
        self.bp_train_s = []
        for _ in range(BP_REPEATS):
            t0 = time.perf_counter()
            _, bp_metrics = training.bp_chain_baseline(cfg, s.train, s.val)
            self.bp_train_s.append(time.perf_counter() - t0)

        network.save_checkpoint(net, ckpt_path)
        reloaded = network.load_checkpoint(ckpt_path)
        t0 = time.perf_counter()
        self.reloaded_err = training.evaluate(reloaded, s.test)
        self.reloaded_s = time.perf_counter() - t0

        self.rows = s.test.n_samples
        self.epochs = len(metrics.records)
        self.samples = s.train.n_samples * self.epochs
        self.bp_samples = s.train.n_samples * len(bp_metrics.records)
        self.problems = self._check(w, metrics, bp_metrics)

    def _check(self, w, metrics, bp_metrics) -> list[str]:
        problems = []
        if self.epochs != w.epochs:
            problems.append(f"ran {self.epochs} epochs, not {w.epochs}")
        losses = [x for r in metrics.records + bp_metrics.records
                  for x in (r.neuron_loss, r.readout_loss)]
        if not all(math.isfinite(x) for x in losses):
            problems.append("non-finite loss")
        if w.err_ceiling_pct is None and not (
                metrics.records[-1].neuron_loss
                < metrics.records[0].neuron_loss):
            problems.append("mean neuron loss did not fall over the run")
        if abs(self.reloaded_err - self.test_err) > ROUND_TRIP_TOL_PCT:
            problems.append(f"reloaded checkpoint test error "
                            f"{self.reloaded_err}% != {self.test_err}%")
        return problems


def test_err_pct(reps: list[Repetition]) -> float:
    """Mean test error of the first MIN_REPEATS repetitions. Two epochs on
    one data draw leave the error varying by about 12% of its value from
    draw to draw; the mean over several draws is steady."""
    return statistics.fmean(r.test_err for r in reps[:MIN_REPEATS])


def quality_problems(w: Workload, reps: list[Repetition]) -> list[str]:
    err = test_err_pct(reps)
    if w.err_ceiling_pct is not None and not err < w.err_ceiling_pct:
        return [f"mean test error {err:.2f}% is not below "
                f"{w.err_ceiling_pct}%"]
    return []


def rep_seed(seed: int, i: int) -> int:
    """Data seed of the i-th repetition: every repetition draws fresh
    data."""
    return 1000 * seed + i


def time_loop(seconds: float, min_count: int, body) -> int:
    """Call body(i) until `seconds` have passed, at least `min_count`
    times; returns the count."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_count or time.perf_counter() < deadline:
        body(i)
        i += 1
    return i


# --- the two kinds of run ------------------------------------------------

def end_to_end(w: Workload, seed: int, seconds: float, tmp: str):
    reps: list[Repetition] = []
    setup_times: list[float] = []
    ckpt = os.path.join(tmp, "net.ckpt")

    def repetition(i):
        for _ in range(SETUP_REPEATS):
            setup = Setup(w, rep_seed(seed, i))
            setup_times.append(setup.seconds)
        reps.append(Repetition(w, setup, ckpt))

    time_loop(seconds, MIN_REPEATS, repetition)
    metrics = {
        "train_samples_per_s": (statistics.median(
            r.samples / r.train_s for r in reps), "samples/s"),
        "predict_rows_per_s": (statistics.median(
            [r.rows / r.predict_s for r in reps]
            + [r.rows / r.reloaded_s for r in reps]), "rows/s"),
        "bp_train_samples_per_s": (statistics.median(
            r.bp_samples / t for r in reps for t in r.bp_train_s),
            "samples/s"),
        "test_err_pct": (test_err_pct(reps), "%"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return reps, metrics


def traced(w: Workload, seed: int, seconds: float, tmp: str):
    ckpt = os.path.join(tmp, "net.ckpt")
    tracer = Tracer()
    reps: list[Repetition] = []
    plain_s: list[float] = []
    traced_s: list[float] = []

    def timed(i, times):
        t0 = time.perf_counter()
        reps.append(Repetition(w, Setup(w, rep_seed(seed, i)), ckpt))
        times.append(time.perf_counter() - t0)

    def traced_rep(i):
        install(tracer)
        try:
            timed(i, traced_s)
        finally:
            tracer.uninstall()

    def pair(i):
        # Same inputs on both sides; which side runs first alternates.
        if i % 2:
            traced_rep(i)
            timed(i, plain_s)
        else:
            timed(i, plain_s)
            traced_rep(i)

    # The first repetition in a process is slower (allocations, cold
    # caches), so one untimed repetition runs first and biases neither side.
    t0 = time.perf_counter()
    reps.append(Repetition(w, Setup(w, rep_seed(seed, 0)), ckpt))
    n = time_loop(seconds - (time.perf_counter() - t0), MIN_TRACED_PAIRS,
                  pair)
    wall = sum(traced_s)
    problems = []
    metrics = {}
    for name in span_names():
        st = tracer.stats[name]
        if st.calls == 0:
            problems.append(f"layer {name} recorded no calls")
        if name in TOTAL_ONLY:
            metrics[f"{name}.s"] = (st.total_s / n, "s")
        else:
            metrics[f"{name}.self_s"] = (st.self_s / n, "s")
        metrics[f"{name}.share"] = (st.self_s / wall, "fraction")
        for key in REPORTED_COUNTS.get(name, ()):
            value = st.calls if key == "calls" else st.counts[key]
            metrics[f"{name}.{key}"] = (value / n, COUNT_UNITS[key])

    accounted = tracer.self_total_s() / wall
    if not (1.0 - ACCOUNTING_TOL <= accounted <= 1.0 + 1e-9):
        problems.append(f"span self times cover {100 * accounted:.2f}% of "
                        f"traced wall time, outside {100 * ACCOUNTING_TOL}%")
    metrics.update({
        "trace.overhead_pct": (100.0 * (statistics.median(
            t / p for t, p in zip(traced_s, plain_s)) - 1.0), "%"),
        "trace.accounted_pct": (100.0 * accounted, "%"),
    })
    return reps, metrics, problems


# --- reporting -----------------------------------------------------------

def counts(w: Workload) -> dict:
    """Work per training sample and per batch, from the weight shapes.
    They repeat exactly, so a claim may rest on them."""
    net = Setup(w, 0).net
    return {"train_flops_per_sample": (train_flops_per_sample(net), "flop"),
            "adam_bytes_per_batch": (adam_bytes_per_batch(net), "bytes")}


def machine() -> dict:
    info = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if unknown."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    tmp = tempfile.mkdtemp(prefix=".benchtmp-", dir=os.getcwd())
    try:
        if args.trace:
            reps, metrics, problems = traced(w, args.seed, args.seconds, tmp)
        else:
            reps, metrics = end_to_end(w, args.seed, args.seconds, tmp)
            problems = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    work = counts(w)
    if args.trace:
        metrics.update({f"count.{k}": v for k, v in work.items()})

    failed = sum(1 for r in reps if r.problems)
    problems.extend(quality_problems(w, reps))
    for r in reps:
        problems.extend(r.problems)
    for p in dict.fromkeys(problems):
        print(f"CHECK FAILED: {p}")

    print("machine " + json.dumps(machine(), sort_keys=True))
    print("counts " + json.dumps({k: v for k, (v, _) in work.items()}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
