import copy
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OVERSIZED_CHECKPOINT, central_diff, rel_err
from cyclicff.data import FusionMode, fuse_inputs, neutral_fusion
from cyclicff.graph import GeneratorSpec, generate
import cyclicff.network as network_module
from cyclicff.network import (MAX_T, CyclicNet, _block_rows, _round_input,
                              build_network, forward_round, load_checkpoint,
                              predict, propagate_step,
                              readout_forward_loss_grad, save_checkpoint,
                              train_iteration, zero_state)
from cyclicff.neuron import ff_loss_grad_outputs, neuron_forward
from cyclicff.numerics import adam_step, make_rng


def small_net(kind="complete", n=4, base_dim=12, d_out=5, n_classes=3,
              theta=1.0, T=3, seed=0, **kw):
    topo = generate(GeneratorSpec(kind, n, seed=seed))
    return build_network(topo, base_dim, d_out, n_classes, theta, T,
                         make_rng(seed, "weights"), **kw)


def fused_batch(net, batch=6, seed=0):
    rng = make_rng(seed, 0)
    feats = rng.standard_normal((batch, net.raw_dim))
    labels = rng.integers(0, net.n_classes, size=batch)
    return fuse_inputs(feats, labels, net.n_classes, net.fusion,
                       make_rng(seed, "negative-labels"))


def full_input(fused, outputs, preds):
    """Reference round input: the fused stream, then each predecessor's
    output in ascending order."""
    return np.hstack([fused] + [outputs[i] for i in preds])


def train_iteration_explicit_zeros(net, fused, narrow_zero_state=False,
                                   freeze_neurons=False):
    """Reference `train_iteration`: separate pos and neg inputs, and every
    neuron steps only after the round's last forward.

    By default every stream starts from explicit zero outputs, so every
    round, the first included, runs each neuron on its full-width input.
    With `narrow_zero_state`, round 1 runs on `_round_input`'s fused-input
    block of W, as `train_iteration` does, and pads its gradient with zeros.
    """
    batch = len(fused.true_labels)
    pos = neg = neu = (None if narrow_zero_state else
                       [np.zeros((batch, p.d_out)) for p in net.neurons])
    loss_sums = np.zeros(len(net.neurons))
    for _ in range(net.T):
        neu = forward_round(net, fused.h_neu, neu)
        new_pos, new_neg, grads = [], [], []
        for j, p in enumerate(net.neurons):
            if pos is None:
                q, h_in_pos = _round_input(net, j, fused.h_pos, None)
                _, h_in_neg = _round_input(net, j, fused.h_neg, None)
            else:
                q = p
                h_in_pos = full_input(fused.h_pos, pos, net.preds[j])
                h_in_neg = full_input(fused.h_neg, neg, net.preds[j])
            loss, grad, h = ff_loss_grad_outputs(q, h_in_pos, h_in_neg)
            new_pos.append(h[:batch])
            new_neg.append(h[batch:])
            grads.append(np.pad(grad, ((0, 0), (0, p.d_in - q.d_in))))
            loss_sums[j] += loss
        if not freeze_neurons:
            for p, g, s in zip(net.neurons, grads, net.neuron_adam):
                adam_step(p.W, g, s)
        pos, neg = new_pos, new_neg
    _, readout_loss, readout_grad = readout_forward_loss_grad(
        net, neu, fused.true_labels)
    adam_step(net.readout_W, readout_grad, net.readout_adam)
    return loss_sums / net.T, readout_loss


def assert_close_to_largest(got, want, rtol=1e-12):
    """Within rtol of the largest entry of `want`."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestBuildNetwork:
    def test_complete_dims(self):
        net = small_net("complete", 4, base_dim=784, d_out=200, n_classes=10)
        assert all(p.d_in == 784 + 3 * 200 for p in net.neurons)
        assert net.readout_W.shape == (10, 800)

    def test_chain_dims(self):
        net = small_net("chain", 4, base_dim=784, d_out=200)
        assert net.neurons[0].d_in == 784
        assert all(net.neurons[j].d_in == 984 for j in (1, 2, 3))

    def test_cycle_dims(self):
        net = small_net("cycle", 4, base_dim=784, d_out=200)
        assert all(p.d_in == 984 for p in net.neurons)

    def test_bad_params(self):
        topo = generate(GeneratorSpec("chain", 2))
        with pytest.raises(ValueError):
            build_network(topo, 4, 0, 2, 1.0, 1, make_rng(0, 0))
        with pytest.raises(ValueError):
            build_network(topo, 4, 3, 2, 1.0, 0, make_rng(0, 0))
        with pytest.raises(ValueError):
            build_network(topo, 4, 3, 2, 1.0, MAX_T + 1, make_rng(0, 0))

    @given(st.sampled_from(["chain", "cycle", "complete", "ws", "ba"]),
           st.integers(4, 8), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_dimension_soundness(self, kind, n, seed):
        net = small_net(kind, n, base_dim=6, d_out=3, n_classes=2, seed=seed)
        fb = fused_batch(net, batch=4, seed=seed)
        state = zero_state(net, 4)
        for _ in range(2):
            state = propagate_step(net, state, fb)
        for j, p in enumerate(net.neurons):
            assert state.pos[j].shape == (4, p.d_out)


class TestPropagateStep:
    def test_zero_state_ignores_predecessors(self):
        net = small_net("complete", 3)
        fb = fused_batch(net)
        state = propagate_step(net, zero_state(net, 6), fb)
        for j, p in enumerate(net.neurons):
            padded = np.hstack([fb.h_pos,
                                np.zeros((6, p.d_in - net.base_dim))])
            np.testing.assert_array_equal(state.pos[j],
                                          neuron_forward(p, padded))

    def test_chain_head_is_plain_first_layer(self):
        net = small_net("chain", 3)
        fb = fused_batch(net)
        state = propagate_step(net, zero_state(net, 6), fb)
        np.testing.assert_array_equal(
            state.pos[0], neuron_forward(net.neurons[0], fb.h_pos))

    def test_chain_reduces_to_sequential_mlp(self):
        # After T = n steps with frozen weights, outputs equal a plain
        # layer-by-layer pass with the concatenated-input convention.
        n = 4
        net = small_net("chain", n, T=n)
        fb = fused_batch(net)
        state = zero_state(net, 6)
        for _ in range(n):
            state = propagate_step(net, state, fb)

        seq = neuron_forward(net.neurons[0], fb.h_pos)
        np.testing.assert_array_equal(state.pos[0], seq)
        for j in range(1, n):
            seq = neuron_forward(net.neurons[j],
                                 np.hstack([fb.h_pos, seq]))
            np.testing.assert_array_equal(state.pos[j], seq)

    def test_order_independence(self):
        # Recompute the same step with reversed neuron visiting order.
        net = small_net("complete", 4)
        fb = fused_batch(net)
        state = propagate_step(net, zero_state(net, 6), fb)
        stepped = propagate_step(net, state, fb)
        reversed_outputs = [None] * 4
        for j in reversed(range(4)):
            h_in = full_input(fb.h_pos, state.pos, net.preds[j])
            reversed_outputs[j] = neuron_forward(net.neurons[j], h_in)
        for j in range(4):
            np.testing.assert_array_equal(stepped.pos[j], reversed_outputs[j])


class TestZeroStateRound:
    # The benchmark workloads' neuron shapes (d_in x d_out): small-synth
    # 174x50 (base 24, complete-4), mnist-shaped 1384x200 (base 784,
    # complete-4), and the narrowest and widest ws16 neurons, 88x32 and
    # 248x32 (base 24, in-degree 2 and 7).
    SHAPES = {"174x50": (24, 50, 4), "1384x200": (784, 200, 4),
              "88x32": (24, 32, 3), "248x32": (24, 32, 8)}

    @pytest.mark.parametrize("fusion", ["concat", "overlay"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_explicit_zeros(self, shape, fusion):
        base_dim, d_out, n = self.SHAPES[shape]
        net = small_net("complete", n, base_dim=base_dim, d_out=d_out,
                        n_classes=4, seed=1, fusion=FusionMode(fusion))
        assert {p.d_in for p in net.neurons} == {base_dim + (n - 1) * d_out}
        feats = make_rng(2, 0).standard_normal((70, net.raw_dim))
        h_neu = neutral_fusion(feats, net.n_classes, net.fusion)
        zeros = [np.zeros((70, p.d_out)) for p in net.neurons]
        for got, want in zip(forward_round(net, h_neu, None),
                             forward_round(net, h_neu, zeros)):
            assert_close_to_largest(got, want)

    def train_both(self, shape, fusion, freeze_neurons=False, **ref_kw):
        """`train_iteration` and the reference on copies of one net: the
        two nets, then each side's (per-neuron losses, readout loss)."""
        base_dim, d_out, n = self.SHAPES[shape]
        net = small_net("complete", n, base_dim=base_dim, d_out=d_out,
                        n_classes=4, seed=1, fusion=FusionMode(fusion))
        ref = copy.deepcopy(net)
        fb = fused_batch(net, batch=32, seed=2)
        got = train_iteration(net, fb, freeze_neurons=freeze_neurons)
        want = train_iteration_explicit_zeros(
            ref, fb, freeze_neurons=freeze_neurons, **ref_kw)
        return net, ref, got, want

    @pytest.mark.parametrize("fusion", ["concat", "overlay"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_train_iteration_matches_explicit_zeros(self, shape, fusion):
        # Round 1 of the pos/neg streams runs on the fused-input block of W
        # and pads its gradient with the zero predecessor columns.
        net, ref, (losses, readout_loss), (ref_losses, ref_readout_loss) = (
            self.train_both(shape, fusion))
        for p, q in zip(net.neurons, ref.neurons):
            assert_close_to_largest(p.W, q.W)
        assert_close_to_largest(net.readout_W, ref.readout_W)
        assert_close_to_largest(losses, ref_losses)
        assert_close_to_largest(readout_loss, ref_readout_loss)

    @pytest.mark.parametrize("freeze_neurons", [False, True],
                             ids=["step", "frozen"])
    @pytest.mark.parametrize("fusion", ["concat", "overlay"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_train_iteration_matches_narrow_reference(self, shape, fusion,
                                                      freeze_neurons):
        # The stacked FF stream and the immediate per-neuron step give the
        # reference's separate streams and deferred steps bit for bit.
        net, ref, (losses, readout_loss), (ref_losses, ref_readout_loss) = (
            self.train_both(shape, fusion, freeze_neurons,
                            narrow_zero_state=True))
        for p, q in zip(net.neurons, ref.neurons):
            np.testing.assert_array_equal(p.W, q.W)
        np.testing.assert_array_equal(net.readout_W, ref.readout_W)
        np.testing.assert_array_equal(losses, ref_losses)
        assert readout_loss == ref_readout_loss

    def test_wrong_fused_width(self):
        net = small_net("complete", 3)
        h = make_rng(0, 0).standard_normal((4, net.base_dim + 1))
        with pytest.raises(ValueError, match="13 cols, base_dim is 12"):
            forward_round(net, h, None)


class TestReadout:
    def test_zero_weights_uniform(self):
        net = small_net()
        fb = fused_batch(net)
        state = propagate_step(net, zero_state(net, 6), fb)
        y_hat, loss, _ = readout_forward_loss_grad(net, state.neu,
                                                   fb.true_labels)
        np.testing.assert_allclose(y_hat, 1.0 / 3.0)
        assert loss == pytest.approx(np.log(3.0))

    def test_one_hot_rows_zero_loss(self):
        net = small_net(n_classes=2, d_out=1, n=2, kind="chain", base_dim=4)
        # Force logits that softmax to ~one-hot at the true class.
        net.readout_W = np.array([[100.0, 0.0], [0.0, 100.0]])
        outputs = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
        _, loss, _ = readout_forward_loss_grad(net, outputs,
                                               np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        net = small_net(n_classes=3)
        outputs = [np.zeros((2, p.d_out)) for p in net.neurons]
        with pytest.raises(ValueError, match="out of range"):
            readout_forward_loss_grad(net, outputs, np.array([0, label]))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        net = small_net("cycle", 3, base_dim=8, d_out=4, n_classes=3,
                        seed=seed)
        rng = make_rng(seed, 7)
        net.readout_W = rng.standard_normal(net.readout_W.shape)
        outputs = [rng.standard_normal((5, 4)) for _ in range(3)]
        labels = rng.integers(0, 3, size=5)
        _, _, analytic = readout_forward_loss_grad(net, outputs, labels)

        def loss_of(W):
            net.readout_W = W
            return readout_forward_loss_grad(net, outputs, labels)[1]

        W0 = net.readout_W.copy()
        numeric = central_diff(loss_of, W0.copy())
        net.readout_W = W0
        assert rel_err(analytic, numeric) < 1e-4


class TestTrainIteration:
    def test_freeze_neurons(self):
        net = small_net()
        fb = fused_batch(net)
        before = [p.W.copy() for p in net.neurons]
        readout_before = net.readout_W.copy()
        losses, _ = train_iteration(net, fb, freeze_neurons=True)
        for b, p in zip(before, net.neurons):
            np.testing.assert_array_equal(b, p.W)
        assert not np.array_equal(readout_before, net.readout_W)
        assert len(losses) == 4 and np.all(np.isfinite(losses))

    def test_freeze_readout(self):
        net = small_net()
        fb = fused_batch(net)
        before = net.readout_W.copy()
        neuron_before = net.neurons[0].W.copy()
        train_iteration(net, fb, freeze_readout=True)
        np.testing.assert_array_equal(before, net.readout_W)
        assert not np.array_equal(neuron_before, net.neurons[0].W)

    def test_single_neuron_chain(self):
        net = small_net("chain", 1, T=1)
        fb = fused_batch(net)
        losses, r_loss = train_iteration(net, fb)
        assert len(losses) == 1 and np.isfinite(r_loss)

    def test_stream_separation(self):
        # Zeroing the neutral stream leaves neuron weights untouched;
        # zeroing pos/neg leaves the readout gradient untouched.
        net_a = small_net(seed=5)
        net_b = small_net(seed=5)
        fb = fused_batch(net_a, seed=5)
        fb_zero_neu = type(fb)(h_pos=fb.h_pos, h_neg=fb.h_neg,
                               h_neu=np.zeros_like(fb.h_neu),
                               true_labels=fb.true_labels)
        train_iteration(net_a, fb, freeze_readout=True)
        train_iteration(net_b, fb_zero_neu, freeze_readout=True)
        for pa, pb in zip(net_a.neurons, net_b.neurons):
            np.testing.assert_array_equal(pa.W, pb.W)

        net_c = small_net(seed=5)
        net_d = small_net(seed=5)
        fb_zero_posneg = type(fb)(h_pos=np.zeros_like(fb.h_pos),
                                  h_neg=np.zeros_like(fb.h_neg),
                                  h_neu=fb.h_neu, true_labels=fb.true_labels)
        train_iteration(net_c, fb, freeze_neurons=True)
        train_iteration(net_d, fb_zero_posneg, freeze_neurons=True)
        np.testing.assert_array_equal(net_c.readout_W, net_d.readout_W)

    def test_copy_is_independent(self):
        net = small_net()
        fb = fused_batch(net)
        train_iteration(net, fb)
        snap = copy.deepcopy(net)

        def arrays(n):
            out = [p.W for p in n.neurons]
            for s in n.neuron_adam + [n.readout_adam]:
                out += [s.m, s.v]
            return out + [n.readout_W]

        before = [a.copy() for a in arrays(snap)]
        steps = [s.t for s in snap.neuron_adam + [snap.readout_adam]]
        train_iteration(net, fb)
        for a, b in zip(arrays(snap), before):
            np.testing.assert_array_equal(a, b)
        assert steps == [s.t for s in snap.neuron_adam + [snap.readout_adam]]
        for a, b in zip(arrays(snap), arrays(net)):
            assert not np.shares_memory(a, b)

    def test_updates_parameters_in_place(self):
        # Every weight array stays the same object, and every one moves.
        net = small_net()
        params = [p.W for p in net.neurons] + [net.readout_W]
        before = [a.copy() for a in params]
        train_iteration(net, fused_batch(net))
        after = [p.W for p in net.neurons] + [net.readout_W]
        for a, b, old in zip(after, params, before):
            assert a is b
            assert not np.array_equal(a, old)

    def test_wrong_fused_dim(self):
        net = small_net()
        fb = fused_batch(net)
        bad = type(fb)(h_pos=fb.h_pos[:, :-1], h_neg=fb.h_neg[:, :-1],
                       h_neu=fb.h_neu[:, :-1], true_labels=fb.true_labels)
        with pytest.raises(ValueError):
            train_iteration(net, bad)


class TestPredict:
    def test_zero_readout_ties_to_class_zero(self):
        net = small_net()
        feats = make_rng(0, 0).standard_normal((5, net.raw_dim))
        preds = predict(net, feats)
        np.testing.assert_array_equal(preds, np.zeros(5, dtype=np.int64))

    def test_identical_rows_identical_predictions(self):
        net = small_net(seed=2)
        net.readout_W = make_rng(2, 7).standard_normal(net.readout_W.shape)
        row = make_rng(3, 0).standard_normal(net.raw_dim)
        preds = predict(net, np.tile(row, (4, 1)))
        assert len(set(preds.tolist())) == 1

    # The row blocks predict should use, as functions of its block size B.
    @pytest.mark.parametrize("blocks_of", [
        lambda B: [0], lambda B: [1], lambda B: [6], lambda B: [B],
        lambda B: [B, B], lambda B: [B, B + 1], lambda B: [B, B, B, B // 2]],
        ids=["empty", "one-row", "six-rows", "one-block", "two-blocks",
             "two-blocks-plus-one-row", "ragged-tail"])
    def test_prediction_is_function_of_features_only(self, blocks_of,
                                                     monkeypatch):
        # No label enters predict at all; check against manual neutral pass
        # over all rows at once, whatever blocks predict splits them into.
        net = small_net(seed=4)
        net.readout_W = make_rng(4, 7).standard_normal(net.readout_W.shape)
        blocks = blocks_of(_block_rows(net))
        rows = sum(blocks)
        feats = make_rng(5, 0).standard_normal((rows, net.raw_dim))
        h_neu = neutral_fusion(feats, net.n_classes, net.fusion)
        outputs = [np.zeros((rows, p.d_out)) for p in net.neurons]
        for _ in range(net.T):
            outputs = [neuron_forward(
                net.neurons[j], full_input(h_neu, outputs, net.preds[j]))
                for j in range(4)]
        logits = np.concatenate(outputs, axis=1) @ net.readout_W.T

        seen = []

        def spy(features, *args):
            seen.append(len(features))
            return neutral_fusion(features, *args)

        monkeypatch.setattr(network_module, "neutral_fusion", spy)
        preds = predict(net, feats)
        assert seen == blocks
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, np.argmax(logits, axis=1))

    def test_dim_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError):
            predict(net, np.zeros((2, net.raw_dim + 1)))


class TestCheckpoint:
    def test_round_trip_inference_exact(self, tmp_path):
        net = small_net("ba", 5, seed=3, fusion=FusionMode("concat"))
        fb = fused_batch(net, seed=3)
        for _ in range(3):
            train_iteration(net, fb)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.topology == net.topology
        assert loaded.T == net.T and loaded.n_classes == net.n_classes
        feats = make_rng(6, 0).standard_normal((10, net.raw_dim))
        first = predict(loaded, feats)
        again = predict(load_checkpoint(path), feats)
        np.testing.assert_array_equal(first, again)

    def test_round_trip_weights_exact(self, tmp_path):
        net = small_net("ws", 6, seed=4)
        for _ in range(2):
            train_iteration(net, fused_batch(net, seed=4))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        assert struct.unpack("<I", path.read_bytes()[4:8]) == (2,)
        loaded = load_checkpoint(path)
        for p, q in zip(loaded.neurons, net.neurons):
            assert np.array_equal(p.W, q.W) and p.theta == q.theta
        assert np.array_equal(loaded.readout_W, net.readout_W)

    def test_version_1_still_loads(self, tmp_path):
        # Version 1 is the same layout with float32 weights.
        net = small_net("cycle", 3, seed=5, fusion=FusionMode("overlay"))
        net.readout_W = make_rng(5, 7).standard_normal(net.readout_W.shape)
        t = net.topology
        parts = [b"CNN1", struct.pack("<IIIII", 1, net.T, net.base_dim,
                                      net.n_classes, 1),
                 struct.pack("<II", t.n_neurons, len(t.synapses))]
        parts += [struct.pack("<II", *edge) for edge in t.synapses]
        for p in net.neurons:
            parts += [struct.pack("<IId", p.d_in, p.d_out, p.theta),
                      p.W.astype("<f4").tobytes()]
        parts += [struct.pack("<II", *net.readout_W.shape),
                  net.readout_W.astype("<f4").tobytes()]
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"".join(parts))
        loaded = load_checkpoint(path)
        assert loaded.topology == t and loaded.fusion.mode == "overlay"
        for p, q in zip(loaded.neurons, net.neurons):
            assert np.array_equal(p.W, q.W.astype(np.float32))
        assert np.array_equal(loaded.readout_W,
                              net.readout_W.astype(np.float32))

    @pytest.mark.parametrize("offset,value,message", [
        (4, 3, "unsupported version 3"),
        (8, 0, "T is 0, need T >= 1"),
        (8, MAX_T + 1, f"T is {MAX_T + 1}, need T <= {MAX_T}"),
        (20, 7, "fusion flag is 7, need 0 or 1"),
    ], ids=["version", "T", "T-above-max", "fusion"])
    def test_bad_header_field(self, tmp_path, offset, value, message):
        path = tmp_path / "net.ckpt"
        save_checkpoint(small_net("cycle", 2), path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_overlay_flag_round_trips(self, tmp_path):
        net = small_net(base_dim=12, n_classes=3,
                        fusion=FusionMode("overlay"))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.fusion.mode == "overlay"
        assert loaded.raw_dim == net.raw_dim

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(small_net("cycle", 2, base_dim=4, d_out=2,
                                  n_classes=2), path)
        good = path.read_bytes()
        for bad in [good[:n] for n in range(len(good))] + [good + b"\0"]:
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="checkpoint"):
                load_checkpoint(path)

    @pytest.mark.parametrize("part,message", [
        ("neuron", "neuron 1 has d_in 7, its inputs (base_dim 12, "
                   "predecessors [0]) give 17"),
        ("readout", "readout is 3x14, expected 3x15"),
    ], ids=["neuron", "readout"])
    def test_shape_disagrees_with_topology(self, tmp_path, part, message):
        net = small_net("cycle", 3)
        if part == "neuron":
            net.neurons[1].W = net.neurons[1].W[:, :7]
        else:
            net.readout_W = net.readout_W[:, :-1]
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_loaded_net_trains(self, tmp_path):
        # Loaded weights are writable arrays that Adam updates in place.
        net = small_net("cycle", 3, seed=6)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        before = [p.W.copy() for p in loaded.neurons]
        losses, r_loss = train_iteration(loaded, fused_batch(loaded, seed=6))
        assert np.all(np.isfinite(losses)) and np.isfinite(r_loss)
        for old, p in zip(before, loaded.neurons):
            assert not np.array_equal(old, p.W)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("part,message", [
        ("W", "checkpoint: neuron 1 W is not finite"),
        ("theta", "checkpoint: neuron 2 theta is not finite"),
        ("readout", "checkpoint: readout W is not finite"),
    ], ids=["W", "theta", "readout"])
    def test_non_finite_rejected(self, tmp_path, monkeypatch, version, part,
                                 message):
        net = small_net("cycle", 3)
        if part == "W":
            net.neurons[1].W[2, 3] = np.nan
        elif part == "theta":
            net.neurons[2].theta = np.nan
        else:
            net.readout_W[1, 4] = np.inf
        monkeypatch.setattr(network_module, "CHECKPOINT_VERSION", version)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_every_bit_flip_rejected_or_round_trips(self, tmp_path):
        # A flipped bit is either a ValueError or a finite net with at most
        # MAX_T rounds that saves and loads back to the same values.
        net = small_net("ws", 4, base_dim=4, d_out=2, n_classes=2, seed=7)
        train_iteration(net, fused_batch(net, seed=7))
        path, again = tmp_path / "net.ckpt", tmp_path / "again.ckpt"
        save_checkpoint(net, path)
        good = path.read_bytes()

        def values(n):
            return (n.topology, n.T, n.base_dim, n.n_classes, n.fusion,
                    [(p.W.tobytes(), struct.pack("<d", p.theta))
                     for p in n.neurons], n.readout_W.tobytes())

        rejected = 0
        for bit in range(8 * len(good)):
            bad = bytearray(good)
            bad[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(bad))
            try:
                loaded = load_checkpoint(path)
            except ValueError:
                rejected += 1
                continue
            assert all(np.isfinite(p.W).all() and np.isfinite(p.theta)
                       for p in loaded.neurons), bit
            assert np.isfinite(loaded.readout_W).all(), bit
            assert 1 <= loaded.T <= MAX_T, bit
            save_checkpoint(loaded, again)
            assert values(load_checkpoint(again)) == values(loaded), bit
        assert 0 < rejected < 8 * len(good)

    def test_header_beyond_file(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(OVERSIZED_CHECKPOINT)
        with pytest.raises(ValueError, match="checkpoint: truncated, 0 of"):
            load_checkpoint(path)
