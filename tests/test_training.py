import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_threads, central_diff, peak_bytes, rel_err
from test_bits import workload_runs
from cyclicff import cli
from cyclicff import training as training_module
from cyclicff.data import split, synth_blobs
from cyclicff.graph import GeneratorSpec
import cyclicff.network as network_module
from cyclicff.network import PREDICT_BLOCK_ROWS, predict, save_checkpoint
from cyclicff.numerics import make_rng
from cyclicff.training import (BPChainMLP, Metrics, TrainConfig, _fit,
                               bp_chain_baseline, evaluate, run_config,
                               train_loop)


def make_data(seed=0, n_per_class=200, dim=10, n_classes=2, sep=6.0):
    full = synth_blobs(n_per_class, dim, n_classes, sep, make_rng(seed, 100))
    train, val = split(full, 0.2, make_rng(seed, "data-shuffle"))
    test = synth_blobs(50, dim, n_classes, sep, make_rng(seed, 101))
    return train, val, test


def quick_cfg(**kw):
    defaults = dict(generator=GeneratorSpec("complete", 3), d_out=16,
                    max_epochs=3, patience=10, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def bp_predict_logits(model, x):
    """The logits `BPChainMLP.predict` takes its argmax of, all blocks
    stacked."""
    seen = []
    real = network_module.check_finite

    def record(a, message):
        seen.append(a.copy())
        real(a, message)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_module, "check_finite", record)
        model.predict(x)
    return np.concatenate(seen)


class TestEvaluate:
    def test_arithmetic(self):
        class Stub:
            def predict(self, feats):
                return np.zeros(len(feats), dtype=np.int64)

        d = synth_blobs(500, 4, 2, 1.0, make_rng(0, 100))
        # Labels are half zeros, half ones; constant-zero predictor errs 50%.
        assert evaluate(Stub(), d) == pytest.approx(50.0)

    def test_all_correct_and_all_wrong(self):
        class Const:
            def __init__(self, c):
                self.c = c

            def predict(self, feats):
                return np.full(len(feats), self.c, dtype=np.int64)

        d = synth_blobs(10, 4, 2, 1.0, make_rng(0, 100)).subset(range(10))
        assert evaluate(Const(0), d) == 0.0
        assert evaluate(Const(1), d) == 100.0

    def test_empty_rejected(self):
        d = synth_blobs(5, 4, 2, 1.0, make_rng(0, 100)).subset([])
        with pytest.raises(ValueError):
            evaluate(None, d)


class TestTrainLoop:
    def test_max_epochs_cap(self):
        train, val, _ = make_data()
        _, metrics = train_loop(quick_cfg(max_epochs=1), train, val)
        assert len(metrics.records) == 1

    def test_best_snapshot_has_min_val_error(self):
        train, val, _ = make_data(sep=1.0)
        net, metrics = train_loop(quick_cfg(max_epochs=6, patience=2),
                                  train, val)
        assert evaluate(net, val) == pytest.approx(metrics.best_val_err())

    def test_early_stop_by_patience(self):
        # Perfectly separable data plateaus at 0% immediately, so the run
        # must stop after 1 + patience epochs despite a large cap.
        train, val, _ = make_data(sep=8.0)
        _, metrics = train_loop(quick_cfg(max_epochs=50, patience=2),
                                train, val)
        errs = [r.val_err for r in metrics.records]
        best = min(errs)
        first_best = errs.index(best)
        assert len(errs) <= first_best + 1 + 2

    def test_deterministic_metrics(self):
        train, val, _ = make_data()
        _, a = train_loop(quick_cfg(), train, val)
        _, b = train_loop(quick_cfg(), train, val)
        a_csv = "\n".join(ln.rsplit(",", 1)[0]
                          for ln in a.to_csv().splitlines())
        b_csv = "\n".join(ln.rsplit(",", 1)[0]
                          for ln in b.to_csv().splitlines())
        assert a_csv == b_csv  # identical apart from wall-clock column

    def test_empty_val_monitors_train(self):
        full = synth_blobs(100, 10, 2, 6.0, make_rng(0, 100))
        empty = full.subset([])
        _, metrics = train_loop(quick_cfg(max_epochs=2), full, empty)
        for r in metrics.records:
            assert r.val_err == r.train_err

    @pytest.mark.parametrize("fit", [train_loop, bp_chain_baseline],
                             ids=["ff", "bp"])
    @pytest.mark.parametrize("val_kw", [dict(dim=8), dict(n_classes=3)],
                             ids=["dim", "n_classes"])
    def test_dataset_mismatch(self, fit, val_kw):
        train, _, _ = make_data(dim=10)
        _, val, _ = make_data(**{"dim": 10, **val_kw})
        with pytest.raises(ValueError, match="mismatch"):
            fit(quick_cfg(), train, val)

    @pytest.mark.parametrize("fit", [train_loop, bp_chain_baseline],
                             ids=["ff", "bp"])
    def test_empty_training_set_rejected(self, fit):
        train, val, _ = make_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty training set"):
                fit(quick_cfg(), train.subset([]), val)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(baseline="sgd")

    def test_freeze_readout_collapses_to_chance(self):
        train, val, test = make_data(n_per_class=300)
        cfg = quick_cfg(freeze_readout=True, max_epochs=2)
        net, _ = train_loop(cfg, train, val)
        err = evaluate(net, test)
        chance = 100.0 * (1 - 1 / test.n_classes)
        assert abs(err - chance) <= 5.0 or err > chance


class TestBPChainBaseline:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_network_gradient_check(self, seed):
        rng = make_rng(seed, 0)
        model = BPChainMLP(dim=6, width=4, n_classes=3, rng=rng)
        x = rng.standard_normal((10, 6))
        labels = rng.integers(0, 3, size=10)
        # Skip kink-adjacent pre-activations for clean finite differences.
        a = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = a @ w.T + b
            if np.any(np.abs(z) < 1e-4):
                pytest.skip("pre-activation at ReLU kink")
            a = np.maximum(z, 0.0)

        _, w_grads, b_grads = model.loss_and_grads(x, labels)
        for l in range(len(model.weights)):
            def loss_of_w(W, l=l):
                model.weights[l] = W
                return model.loss_and_grads(x, labels)[0]

            W0 = model.weights[l].copy()
            numeric = central_diff(loss_of_w, W0.copy())
            model.weights[l] = W0
            assert rel_err(w_grads[l], numeric) < 1e-4

            def loss_of_b(b, l=l):
                model.biases[l] = b
                return model.loss_and_grads(x, labels)[0]

            b0 = model.biases[l].copy()
            numeric_b = central_diff(loss_of_b, b0.copy())
            model.biases[l] = b0
            assert rel_err(b_grads[l], numeric_b) < 1e-4

    def test_separable_data_low_error(self):
        train, val, test = make_data(n_per_class=500)
        cfg = quick_cfg(baseline="bp-chain", d_out=16, max_epochs=10,
                        patience=10)
        model, _ = bp_chain_baseline(cfg, train, val)
        assert evaluate(model, test) < 2.0

    def test_lr_zero_adam_leaves_weights(self):
        rng = make_rng(0, 0)
        model = BPChainMLP(dim=4, width=3, n_classes=2, rng=rng, lr=0.0)
        before = [w.copy() for w in model.weights]
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 2, size=5)
        grad = np.empty_like(model.params)
        model.loss_and_grads(x, labels, out=grad)
        model.step(grad)
        for b, w in zip(before, model.weights):
            np.testing.assert_array_equal(b, w)

    def test_step_updates_parameters_in_place(self):
        # Every weight and bias stays the same object, and every one moves.
        rng = make_rng(1, 0)
        model = BPChainMLP(dim=4, width=8, n_classes=2, rng=rng)
        params = model.weights + model.biases
        before = [a.copy() for a in params]
        x = rng.standard_normal((16, 4))
        grad = np.empty_like(model.params)
        model.loss_and_grads(x, rng.integers(0, 2, size=16), out=grad)
        model.step(grad)
        for a, b, old in zip(model.weights + model.biases, params, before):
            assert a is b
            assert not np.array_equal(a, old)

    def test_every_weight_and_bias_is_a_view_of_params(self):
        model = BPChainMLP(dim=5, width=3, n_classes=2, rng=make_rng(2, 0))
        arrays = model.weights + model.biases
        assert sum(a.size for a in arrays) == model.params.size
        for a in arrays:
            assert a.base is model.params
        # Together they tile `params`: each element belongs to one of them.
        model.params[...] = np.arange(model.params.size)
        values = np.concatenate([a.ravel() for a in arrays])
        np.testing.assert_array_equal(np.sort(values),
                                      np.arange(model.params.size))

    @pytest.mark.parametrize("part", ["weights", "biases"])
    def test_step_rejects_a_rebound_layer(self, part):
        # A rebound layer is no longer a view of `params`, so a step would
        # move `params` and the Adam moments but not the array the forward
        # pass reads.
        model = BPChainMLP(dim=4, width=3, n_classes=2, rng=make_rng(4, 0))
        layers = getattr(model, part)
        layers[2] = layers[2].copy()
        before = model.params.copy()
        with pytest.raises(ValueError, match="layer 2 is not a view"):
            model.step(np.ones_like(model.params))
        np.testing.assert_array_equal(model.params, before)
        assert model.adam.t == 0

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range_rejected(self, label):
        # Neither trained as the last class (-1) nor an IndexError (3 of 3).
        model = BPChainMLP(dim=4, width=5, n_classes=3, rng=make_rng(0, 0))
        with pytest.raises(ValueError, match="label out of range"):
            model.loss_and_grads(np.zeros((2, 4)), np.array([0, label]))

    @pytest.mark.parametrize("labels", [[0.5, 1.5], [True, False]],
                             ids=["half", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        model = BPChainMLP(dim=4, width=5, n_classes=3, rng=make_rng(0, 0))
        with pytest.raises(ValueError, match="need integer labels"):
            model.loss_and_grads(np.zeros((2, 4)), np.array(labels))

    def test_2d_labels_rejected(self):
        # A label column broadcasts softmax_xent's index to a wrong loss.
        model = BPChainMLP(dim=4, width=5, n_classes=3, rng=make_rng(0, 0))
        x = make_rng(1, 0).standard_normal((6, 4))
        with pytest.raises(ValueError, match="need 1-D labels"):
            model.loss_and_grads(x, np.array([0, 1, 2, 0, 1, 2])[:, None])

    @pytest.mark.parametrize("call", ["predict", "loss_and_grads"])
    def test_wrong_feature_width_rejected(self, call):
        model = BPChainMLP(dim=4, width=5, n_classes=3, rng=make_rng(0, 0))
        x = np.zeros((2, 6))
        with pytest.raises(ValueError, match=(
                f"BPChainMLP.{call}: features have 6 cols, the model "
                "takes 4")):
            if call == "predict":
                model.predict(x)
            else:
                model.loss_and_grads(x, np.array([0, 1]))

    def test_predict_holds_one_layer_at_a_time(self):
        # Bitwise the training forward's argmax, holding under 4 activations
        # of one row block, not of the whole input, plus the predictions.
        rng = make_rng(5, 0)
        model = BPChainMLP(dim=64, width=200, n_classes=10, rng=rng)
        x = rng.standard_normal((4000, 64))
        block_activation = PREDICT_BLOCK_ROWS * 200 * 8
        assert peak_bytes(model.predict, x) < (4 * block_activation
                                               + 2 * 8 * len(x))
        acts = list(model._activations(x))
        np.testing.assert_array_equal(
            model.predict(x), np.argmax(model._logits(acts[-1]), axis=1))

    # Two full blocks, then a 37-row tail, or a 1-row tail that joins the
    # block before it, as functions of the block size B.
    @pytest.mark.parametrize("blocks_of", [
        lambda B: [B, B, 37], lambda B: [B, B + 1]],
        ids=["short-tail", "joined-one-row-tail"])
    def test_predict_runs_the_forward_per_row_block(self, blocks_of):
        # The logits predict takes its argmax of are, bit for bit, the
        # training forward run on each row block. A whole-set pass gives
        # the same hidden activations and predictions, but its logits only
        # to within rounding: OpenBLAS may compute a product of at most
        # 1200 outputs, such as a 37-row block's 10 logits, by another
        # kernel.
        blocks = blocks_of(PREDICT_BLOCK_ROWS)
        rng = make_rng(6, 0)
        model = BPChainMLP(dim=64, width=200, n_classes=10, rng=rng)
        x = rng.standard_normal((sum(blocks), 64))
        heads = []
        real = model._logits

        def head(h):
            heads.append(h.copy())
            return real(h)

        model._logits = head
        got = bp_predict_logits(model, x)
        assert [len(h) for h in heads] == blocks
        stops = np.cumsum(blocks)
        want = np.concatenate([
            real(list(model._activations(x[stop - rows:stop]))[-1])
            for rows, stop in zip(blocks, stops)])
        np.testing.assert_array_equal(got, want)

        whole = list(model._activations(x))[-1]
        np.testing.assert_array_equal(np.concatenate(heads), whole)
        whole_logits = real(whole)
        np.testing.assert_allclose(got, whole_logits, rtol=0,
                                   atol=1e-12 * np.abs(whole_logits).max())
        model._logits = real
        np.testing.assert_array_equal(model.predict(x),
                                      np.argmax(whole_logits, axis=1))

    def test_non_finite_logits_rejected(self):
        # Weights this large overflow the logits to inf and NaN, whose
        # argmax would be a silent prediction; no warning escapes first.
        rng = make_rng(7, 0)
        model = BPChainMLP(dim=8, width=16, n_classes=3, rng=rng)
        for w in model.weights:
            w *= 1e200
        with pytest.raises(ValueError, match=re.escape(
                "BPChainMLP.predict: non-finite logits")):
            model.predict(rng.standard_normal((5, 8)))

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int64])
    def test_input_type_converted_per_block(self, dtype):
        # Integer and float32 features predict as their float64 values,
        # converting one block at a time: the peak rises by at most one
        # block of float64 rows over a float64 input's, never by the whole
        # input's 12.8 MB.
        rng = make_rng(8, 0)
        model = BPChainMLP(dim=784, width=16, n_classes=10, rng=rng)
        pixels = rng.integers(0, 256, (8 * PREDICT_BLOCK_ROWS, 784))
        x64, x = pixels.astype(np.float64), pixels.astype(dtype)
        np.testing.assert_array_equal(model.predict(x), model.predict(x64))
        block = PREDICT_BLOCK_ROWS * 784 * 8
        assert (peak_bytes(model.predict, x)
                <= peak_bytes(model.predict, x64) + 1.1 * block)

    def test_gradients_of_two_calls_do_not_alias(self):
        rng = make_rng(3, 0)
        model = BPChainMLP(dim=4, width=5, n_classes=3, rng=rng)
        x1, x2 = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        labels = rng.integers(0, 3, size=6)
        _, w1, b1 = model.loss_and_grads(x1, labels)
        saved = [a.copy() for a in w1 + b1]
        _, w2, b2 = model.loss_and_grads(x2, labels)
        for a, b, s in zip(w1 + b1, w2 + b2, saved):
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(a, s)
        # With `out`, the gradients are views of it, laid out like params.
        out = np.empty_like(model.params)
        _, w3, b3 = model.loss_and_grads(x2, labels, out=out)
        for a, b in zip(w3 + b3, w2 + b2):
            assert a.base is out
            np.testing.assert_array_equal(a, b)

    def test_fit_returns_best_epoch_weights(self):
        # Epoch 1 trains; epoch 2 zeroes the head and biases it to class 1,
        # a worse model. The result holds epoch 1's weights, written back
        # into the same arrays.
        train, val, _ = make_data(n_per_class=200)
        cfg = quick_cfg(max_epochs=2, patience=5, batch_size=80)
        model = BPChainMLP(train.dim, 8, train.n_classes,
                           make_rng(0, "weights"), lr=0.01)
        params, head = model.params, model.weights[-1]
        batches = len(range(0, train.n_samples, cfg.batch_size))
        grad = np.empty_like(params)
        calls, snapshot = [], []

        def batch_step(feats, labels):
            calls.append(1)
            if len(calls) <= batches:
                model.loss_and_grads(feats, labels, out=grad)
                model.step(grad)
            else:
                if not snapshot:
                    snapshot.append(params.copy())
                model.weights[-1][...] = 0.0
                model.biases[-1][...] = [0.0, 1.0]
            return 0.0, 0.0

        fitted, metrics = _fit(cfg, model, train, val, batch_step, [params])
        assert len(metrics.records) == 2
        first, second = (r.val_err for r in metrics.records)
        assert second > first
        assert fitted is model and model.params is params
        assert model.weights[-1] is head and head.base is params
        np.testing.assert_array_equal(params, snapshot[0])
        assert evaluate(model, val) == first

    def test_run_config_dispatch(self):
        train, val, test = make_data()
        cfg = quick_cfg(baseline="bp-chain", max_epochs=1)
        model, metrics = run_config(cfg, train, val, test)
        assert isinstance(model, BPChainMLP)
        assert metrics.test_err is not None


class TestSweep:
    def test_multiple_configs_reported(self, tmp_path, capsys):
        # The sweep lives in the CLI; each config of the grid gets a row
        # with a test error.
        p = tmp_path / "s.cfg"
        p.write_text("dataset = synth\nsynth_n_per_class = 60\n"
                     "synth_dim = 8\ngraph = complete\nn = 3\n"
                     "d_out = 8\nmax_epochs = 1\n"
                     f"out_dir = {tmp_path / 'out'}\n")
        assert cli.main(["sweep", "--config", str(p), "--set", "T=1,2",
                         "--seeds", "0"]) == 0
        summary = capsys.readouterr().out.strip()
        lines = Path(summary).read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2"]
        assert all(0.0 <= float(r[1]) <= 100.0 for r in rows)


class TestTrainConfig:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            quick_cfg(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_generator_takes_the_run_seed(self, seed):
        gen = GeneratorSpec("ws", 8, ws_k=2, seed=3)
        assert TrainConfig(seed=seed).generator.seed == seed
        assert TrainConfig(generator=gen, seed=seed).generator == \
            GeneratorSpec("ws", 8, ws_k=2, seed=seed)


class TestMetricsCsv:
    def test_header_and_shape(self):
        train, val, _ = make_data()
        _, m = train_loop(quick_cfg(max_epochs=2), train, val)
        lines = m.to_csv().splitlines()
        assert lines[0] == "epoch,neuron_loss,readout_loss,train_err,val_err,seconds"
        assert len(lines) == 3
        assert all(len(ln.split(",")) == 6 for ln in lines[1:])


class TestDeterminism:
    def test_narrow_net_same_bits_at_one_and_two_threads(
            self, two_blas_threads, tmp_path):
        # ff-small-synth's shapes train on one BLAS thread whatever the
        # caller's count, so the count does not move their bits.
        get, set_ = two_blas_threads
        cfg, train, val, _ = workload_runs("ff-small-synth")
        checkpoints = []
        for threads in (1, 2):
            set_(threads)
            net, _ = train_loop(cfg, train, val)
            assert get() == threads
            save_checkpoint(net, tmp_path / "net.ckpt")
            checkpoints.append((tmp_path / "net.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_same_bits_at_a_pinned_blas_thread_count(
            self, two_blas_threads, tmp_path):
        # The README's contract: a fixed numpy build and BLAS thread count
        # give the same checkpoint bytes. Counts are not compared with each
        # other: OpenBLAS splits a wide matmul differently per count.
        get, _ = two_blas_threads
        full = synth_blobs(64, 784, 4, 3.0, make_rng(0, 100))
        train, val = split(full, 0.25, make_rng(0, "data-shuffle"))
        cfg = quick_cfg(generator=GeneratorSpec("complete", 4), d_out=200,
                        max_epochs=1)
        for threads in (1, 2):
            with blas_threads(threads):
                assert get() == threads
                runs = []
                for run in range(2):
                    net, _ = train_loop(cfg, train, val)
                    path = tmp_path / f"{threads}-{run}.ckpt"
                    save_checkpoint(net, path)
                    runs.append(path.read_bytes())
                assert runs[0] == runs[1], threads


class TestBlasThreads:
    """Narrow nets train and predict on one OpenBLAS thread, and the
    caller's count comes back after a return or an error."""

    @staticmethod
    def log_counts(monkeypatch, get):
        """Records the thread count at each `train_iteration` and each
        `predict_blocks` call, as (name, count) pairs."""
        seen = []

        def logged(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen.append((name, get()))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        logged(training_module, "train_iteration")
        logged(network_module, "predict_blocks")
        return seen

    def test_narrow_net_on_one_thread(self, two_blas_threads, monkeypatch):
        # The per-epoch evaluation's predict nests its scope in train_loop's;
        # the steps after it still run on one thread.
        get, _ = two_blas_threads
        seen = self.log_counts(monkeypatch, get)
        train, val, test = make_data()
        net, _ = train_loop(quick_cfg(max_epochs=2), train, val)
        assert get() == 2
        steps = [c for where, c in seen if where == "train_iteration"]
        assert len(steps) > 2 and set(steps) == {1}
        assert [c for where, c in seen if where == "predict_blocks"] == \
            [1] * 4
        seen.clear()
        predict(net, test.features)
        assert seen == [("predict_blocks", 1)]
        assert get() == 2

    def test_wide_net_keeps_the_callers_count(self, two_blas_threads,
                                              monkeypatch):
        # The MNIST shape: 784 dims, complete-4, d_out 200.
        get, _ = two_blas_threads
        seen = self.log_counts(monkeypatch, get)
        train, val, test = make_data(n_per_class=40, dim=784)
        cfg = quick_cfg(generator=GeneratorSpec("complete", 4), d_out=200,
                        max_epochs=1)
        net, _ = train_loop(cfg, train, val)
        predict(net, test.features)
        assert seen and {c for _, c in seen} == {2}
        assert get() == 2

    def test_count_restored_after_predict_error(self, two_blas_threads):
        get, _ = two_blas_threads
        train, val, test = make_data()
        net, _ = train_loop(quick_cfg(max_epochs=1), train, val)
        net.readout_W = 1e300 * np.sign(make_rng(0, 7).standard_normal(
            net.readout_W.shape))
        for p in net.neurons:
            p.W *= 1e10
        with pytest.raises(ValueError, match="predict: non-finite logits"):
            predict(net, test.features)
        assert get() == 2

    def test_count_restored_after_malformed_batch(self, two_blas_threads,
                                                  monkeypatch):
        get, _ = two_blas_threads
        real = training_module.fuse_inputs

        def short_labels(*args):
            fb = real(*args)
            return dataclasses.replace(fb, true_labels=fb.true_labels[:-1])

        monkeypatch.setattr(training_module, "fuse_inputs", short_labels)
        train, val, _ = make_data()
        with pytest.raises(ValueError, match="^train_iteration: "):
            train_loop(quick_cfg(max_epochs=1), train, val)
        assert get() == 2
