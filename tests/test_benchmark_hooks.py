"""The benchmark under benchmarks/ wraps library functions by name, so a
renamed or no longer called function must fail here too, not only there."""

import os

import pytest

from cyclicff import data, graph, network, neuron, numerics, training
from cyclicff.graph import GeneratorSpec
from cyclicff.numerics import make_rng

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def bench(monkeypatch):
    # Restores sys.path afterwards, including the entry run.py adds.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import run
    import tracing
    return run, tracing


def test_install_and_uninstall(bench):
    run, tracing = bench
    originals = {m: dict(vars(m)) for m in (data, graph, network, neuron,
                                             numerics)}
    tracer = tracing.Tracer()
    run.install(tracer)
    try:
        net = network.build_network(
            graph.generate(GeneratorSpec("complete", 3)), 7, 4, 3, 1.0, 2,
            make_rng(0, "weights"))
        features = make_rng(0, 0).standard_normal((5, 4))
        network.predict(net, features)
        # predict runs its own round kernel; the neuron functions are
        # reached through a forward round.
        network.forward_round(
            net, data.neutral_fusion(features, 3, net.fusion), None)
    finally:
        tracer.uninstall()
    for name in ("network.predict", "data.neutral_fusion",
                 "neuron.neuron_forward", "numerics.l2_normalize_rows"):
        assert tracer.stats[name].calls > 0, name
    assert tracer.stats["network.predict"].counts["rows"] == 5
    for m, before in originals.items():
        assert all(vars(m)[k] is v for k, v in before.items()), m.__name__


def test_training_spans_record_calls(bench):
    # The counters are called with each traced function's own arguments,
    # so a changed signature of a counted function fails here.
    run, tracing = bench
    full = data.synth_blobs(12, 5, 2, 3.0, make_rng(0, 100))
    train, val = data.split(full, 0.25, make_rng(0, "data-shuffle"))
    cfg = training.TrainConfig(generator=GeneratorSpec("complete", 3),
                               d_out=4, T=2, batch_size=8, max_epochs=2)
    tracer = tracing.Tracer()
    run.install(tracer)
    try:
        net, _ = training.train_loop(cfg, train, val)
        training.evaluate(net, val)
    finally:
        tracer.uninstall()
    for name in ("data.fuse_inputs", "numerics.adam_step",
                 "neuron.ff_loss_grad_outputs", "neuron.neuron_forward",
                 "numerics.l2_normalize_rows", "network.train_iteration",
                 "network.predict", "training.train_loop",
                 "training.evaluate"):
        assert tracer.stats[name].calls > 0, name
    for name, key in (("data.fuse_inputs", "bytes_computed"),
                      ("numerics.adam_step", "bytes_computed"),
                      ("neuron.ff_loss_grad_outputs", "flops_computed"),
                      ("neuron.neuron_forward", "flops_computed"),
                      ("network.predict", "rows"),
                      ("training.evaluate", "rows")):
        assert tracer.stats[name].counts[key] > 0, name
    # One norm pass per neuron forward. The FF loss computes its input's
    # row norms once, for the forward and the gradient, without going
    # through `l2_normalize_rows`. The zero-state round runs through the
    # same two functions.
    calls = {name: tracer.stats[name].calls
             for name in ("numerics.l2_normalize_rows",
                          "neuron.neuron_forward",
                          "neuron.ff_loss_grad_outputs")}
    assert calls["numerics.l2_normalize_rows"] == (
        calls["neuron.neuron_forward"]), calls
