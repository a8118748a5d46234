import copy
import dataclasses
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OVERSIZED_CHECKPOINT, UNRUNNABLE_CHECKPOINTS,
                      central_diff, chain_checkpoint, fifo_serving,
                      peak_bytes, rel_err)
from cyclicff.data import FusionMode, fuse_inputs, neutral_fusion
from cyclicff.graph import GeneratorSpec, generate, predecessors
import cyclicff.network as network_module
from cyclicff.network import (MAX_T, PREDICT_BLOCK_ROWS, CyclicNet,
                              _neutral_rounds, _round_input, build_network,
                              forward_round, load_checkpoint,
                              predict, propagate_step,
                              readout_forward_loss_grad, save_checkpoint,
                              train_iteration, zero_state)
from cyclicff.neuron import ff_loss_grad_outputs, neuron_forward
from cyclicff.numerics import (EPS_NORM, adam_step, make_rng, relu,
                               row_norms)


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


def forward_round_logits(net, fused):
    """Reference predict block: T full-width `forward_round`s from the zero
    state. Returns (round-1 outputs, logits after round T)."""
    first = outputs = forward_round(net, fused, None)
    for _ in range(net.T - 1):
        outputs = forward_round(net, fused, outputs)
    return first, np.concatenate(outputs, axis=1) @ net.readout_W.T


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

    def test_preds_come_from_the_topology(self):
        net = small_net("ws", 6, seed=2)
        assert net.preds == [predecessors(net.topology, j) for j in range(6)]
        fields = {f.name: f for f in dataclasses.fields(CyclicNet)}
        assert not fields["preds"].init

    @pytest.mark.parametrize("d_out", [0, -1])
    def test_bad_width_rejected_before_drawing(self, d_out):
        topo = generate(GeneratorSpec("chain", 2))
        rng = make_rng(0, 0)
        with pytest.raises(ValueError, match=f"d_out is {d_out}, need >= 1"):
            build_network(topo, 4, d_out, 2, 1.0, 2, rng)
        assert np.array_equal(rng.random(4), make_rng(0, 0).random(4))

    @pytest.mark.parametrize("base_dim,n_classes,fusion,message", [
        (2, 3, "overlay", "base_dim is 2, need at least n_classes (3)"),
        (2, 3, "concat", "base_dim is 2, need at least n_classes (3)"),
        (4, 1, "concat", "n_classes is 1, need at least 2"),
    ], ids=["overlay-narrow", "concat-narrow", "one-class"])
    def test_unrunnable_net_rejected(self, base_dim, n_classes, fusion,
                                     message):
        topo = generate(GeneratorSpec("chain", 2))
        with pytest.raises(ValueError, match=re.escape(message)):
            build_network(topo, base_dim, 3, n_classes, 1.0, 2,
                          make_rng(0, 0), fusion=FusionMode(fusion))

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

    @staticmethod
    def assert_same_net(net, want):
        """Every weight, and every Adam moment and step count, as `want`'s."""
        for got, exp in zip(net.neurons, want.neurons):
            np.testing.assert_array_equal(got.W, exp.W)
        np.testing.assert_array_equal(net.readout_W, want.readout_W)
        for got, exp in zip(net.neuron_adam + [net.readout_adam],
                            want.neuron_adam + [want.readout_adam]):
            np.testing.assert_array_equal(got.m, exp.m)
            np.testing.assert_array_equal(got.v, exp.v)
            assert got.t == exp.t

    @pytest.mark.parametrize("label", [-1, 3])
    def test_bad_label_rejected_before_any_step(self, label):
        net = small_net(n_classes=3)
        fb = fused_batch(net)
        train_iteration(net, fb)
        labels = fb.true_labels.copy()
        labels[2] = label
        bad = type(fb)(h_pos=fb.h_pos, h_neg=fb.h_neg, h_neu=fb.h_neu,
                       true_labels=labels)
        before = copy.deepcopy(net)
        with pytest.raises(ValueError, match="label out of range"):
            train_iteration(net, bad)
        self.assert_same_net(net, before)

    def test_empty_batch_rejected_before_any_step(self):
        net = small_net()
        fb = fused_batch(net)
        train_iteration(net, fb)
        empty = type(fb)(h_pos=fb.h_pos[:0], h_neg=fb.h_neg[:0],
                         h_neu=fb.h_neu[:0], true_labels=fb.true_labels[:0])
        before = copy.deepcopy(net)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty batch"):
                train_iteration(net, empty)
        self.assert_same_net(net, before)


class TestAdamMoments:
    """A parameter holds Adam moments only once it has taken a step."""

    @staticmethod
    def states(net):
        return net.neuron_adam + [net.readout_adam]

    def test_built_and_loaded_nets_hold_no_moments(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        for n in (net, load_checkpoint(path)):
            assert all(s.m is None and s.v is None for s in self.states(n))

    @pytest.mark.parametrize("freeze_neurons", [False, True],
                             ids=["step", "frozen"])
    def test_first_step_allocates_moments_like_params(self, freeze_neurons):
        net = small_net("ws", 6, seed=2)
        train_iteration(net, fused_batch(net), freeze_neurons=freeze_neurons)
        for p, s in zip(net.neurons, net.neuron_adam):
            if freeze_neurons:
                assert s.m is None and s.v is None
            else:
                assert s.m.shape == s.v.shape == p.W.shape
        r = net.readout_adam
        assert r.m.shape == r.v.shape == net.readout_W.shape

    def test_lazy_moments_equal_explicit_zeros(self):
        net = small_net(weight_decay=1e-2)
        ref = copy.deepcopy(net)
        for p, s in zip([q.W for q in ref.neurons] + [ref.readout_W],
                        self.states(ref)):
            s.m, s.v = np.zeros_like(p), np.zeros_like(p)
        for seed in range(3):
            fb = fused_batch(net, seed=seed)
            train_iteration(net, fb)
            train_iteration(ref, fb)
        TestTrainIteration.assert_same_net(net, ref)
        assert all(s.t == 3 * net.T for s in net.neuron_adam)


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
        blocks = blocks_of(PREDICT_BLOCK_ROWS)
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

    @pytest.mark.parametrize("T", [1, 2, 3, 8])
    @pytest.mark.parametrize("fusion", ["concat", "overlay"])
    @pytest.mark.parametrize("kind,n", [("chain", 4), ("cycle", 4),
                                        ("complete", 4), ("ws", 6),
                                        ("ba", 5)])
    def test_round_kernel_matches_forward_round(self, kind, n, fusion, T):
        # Round 1 is bitwise the zero-state round. Later rounds sum the
        # fused and predecessor parts separately, so they agree to within
        # rounding, and only a near-tie row's prediction could differ.
        net = small_net(kind, n, T=T, seed=n, fusion=FusionMode(fusion))
        net.readout_W = make_rng(n, 7).standard_normal(net.readout_W.shape)
        feats = make_rng(n, 0).standard_normal((40, net.raw_dim))
        fused = neutral_fusion(feats, net.n_classes, net.fusion)
        first, want = forward_round_logits(net, fused)

        one_round = _neutral_rounds(dataclasses.replace(net, T=1), fused)
        for got_j, want_j in zip(one_round, first):
            np.testing.assert_array_equal(got_j, want_j)
        got = np.concatenate(_neutral_rounds(net, fused), axis=1) @ (
            net.readout_W.T)
        if T == 1:
            np.testing.assert_array_equal(got, want)
        else:
            assert_close_to_largest(got, want)
        top2 = np.sort(want, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-9
        np.testing.assert_array_equal(predict(net, feats)[clear],
                                      np.argmax(want, axis=1)[clear])

    @pytest.mark.parametrize("T", [4, 7])
    def test_chain_reduces_to_sequential_mlp(self, T):
        # With T >= n rounds a chain's outputs are a layer-by-layer pass;
        # the head has no predecessors, so its output is exact.
        n = 4
        net = small_net("chain", n, T=T)
        fused = neutral_fusion(make_rng(1, 0).standard_normal(
            (6, net.raw_dim)), net.n_classes, net.fusion)
        outputs = _neutral_rounds(net, fused)
        seq = neuron_forward(net.neurons[0], fused)
        np.testing.assert_array_equal(outputs[0], seq)
        for j in range(1, n):
            seq = neuron_forward(net.neurons[j], np.hstack([fused, seq]))
            assert_close_to_largest(outputs[j], seq)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        # The fused stream's row norms check it, as in `forward_round`.
        net = small_net()
        feats = make_rng(0, 0).standard_normal((5, net.raw_dim))
        feats[3, 2] = bad
        with pytest.raises(ValueError, match="row_norms: non-finite input"):
            predict(net, feats)


    def test_non_finite_logits_rejected(self):
        # Weights this large overflow the logits to inf and NaN, whose
        # argmax would be a silent prediction; no warning escapes first.
        net = small_net("complete", 3)
        for p in net.neurons:
            p.W *= 1e10
        net.readout_W = 1e300 * np.sign(make_rng(0, 7).standard_normal(
            net.readout_W.shape))
        feats = make_rng(0, 0).standard_normal((5, net.raw_dim))
        with pytest.raises(ValueError, match="predict: non-finite logits"):
            predict(net, feats)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int64])
    def test_input_type_converted_per_block(self, dtype):
        # Integer and float32 features predict as their float64 values,
        # converting one block at a time: the peak rises by at most one
        # block of float64 rows over a float64 input's, never by the whole
        # input's 12.8 MB.
        net = small_net(base_dim=784, d_out=8, n_classes=10,
                        fusion=FusionMode("overlay"))
        net.readout_W = make_rng(8, 7).standard_normal(net.readout_W.shape)
        pixels = make_rng(8, 0).integers(0, 256, (8 * PREDICT_BLOCK_ROWS,
                                                  net.raw_dim))
        x64, x = pixels.astype(np.float64), pixels.astype(dtype)
        np.testing.assert_array_equal(predict(net, x), predict(net, x64))
        block = PREDICT_BLOCK_ROWS * net.raw_dim * 8
        assert (peak_bytes(predict, net, x)
                <= peak_bytes(predict, net, x64) + 1.1 * block)


def fresh_block_logits(net, fused):
    """One block's logits by the round kernel as it was before its arrays
    were reused: a fresh array for every neuron-round's input, product and
    output."""
    base = net.base_dim
    norms = row_norms(fused)[:, None]
    fused_part = [fused @ p.W[:, :base].T for p in net.neurons]
    outputs = [relu(b / norms) for b in fused_part]
    sq = np.vecdot(fused, fused)
    for _ in range(net.T - 1):
        new = []
        for p, preds, b, out in zip(net.neurons, net.preds, fused_part,
                                    outputs):
            if not preds:
                new.append(out)
                continue
            o = np.concatenate([outputs[i] for i in preds], axis=1)
            z = o @ p.W[:, base:].T
            z += b
            z /= np.maximum(np.sqrt(sq + np.vecdot(o, o)), EPS_NORM)[:, None]
            new.append(np.maximum(z, 0.0, out=z))
        outputs = new
    return np.concatenate(outputs, axis=1) @ net.readout_W.T


def predict_logits(net, feats):
    """The logits `predict` takes its argmax of, all blocks stacked."""
    seen = []
    real = network_module.check_finite

    def record(a, message):
        seen.append(a.copy())
        real(a, message)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_module, "check_finite", record)
        predict(net, feats)
    return np.concatenate(seen)


def fresh_logits(net, feats):
    """`predict_logits` by `fresh_block_logits`, block by block."""
    return np.concatenate([
        fresh_block_logits(net, neutral_fusion(
            feats[start:stop], net.n_classes, net.fusion))
        for start, stop in network_module._row_blocks(len(feats),
                                                      PREDICT_BLOCK_ROWS)])


def reuse_net(kind, T, seed=0):
    """A `ws` net whose neurons have 1, 2 or 3 predecessors, or a chain,
    whose head has none; with a random readout."""
    net = (small_net("ws", 8, T=T, seed=3) if kind == "ws"
           else small_net("chain", 4, T=T, seed=seed))
    net.readout_W = make_rng(seed, 7).standard_normal(net.readout_W.shape)
    return net


def features(net, rows, seed=0):
    return make_rng(seed, 0).standard_normal((rows, net.raw_dim))


class TestBufferReuse:
    """`predict` writes every round and block into one set of buffers and
    `train_iteration` builds every round input in one; the bits are those
    of fresh arrays."""

    def test_nets_cover_the_widths(self):
        assert len({len(p) for p in reuse_net("ws", 3).preds}) == 3
        assert reuse_net("chain", 3).preds[0] == []

    @pytest.mark.parametrize("extra", [37, 1], ids=["short-tail",
                                                    "joined-one-row-tail"])
    @pytest.mark.parametrize("T", [1, 3, 8])
    @pytest.mark.parametrize("kind", ["ws", "chain"])
    def test_blocks_match_fresh_arrays(self, kind, T, extra):
        # Two full blocks, then a 37-row tail, or a 1-row tail that joins
        # the block before it. With T = 3 and 8 the alternating outputs
        # must leave the chain head's round-1 output as it is.
        net = reuse_net(kind, T)
        feats = features(net, 2 * PREDICT_BLOCK_ROWS + extra)
        np.testing.assert_array_equal(predict_logits(net, feats),
                                      fresh_logits(net, feats))

    def test_repeated_and_interleaved_calls(self):
        nets = [reuse_net("ws", 3), reuse_net("chain", 8, seed=1)]
        feats = [features(net, PREDICT_BLOCK_ROWS + 9, seed=i)
                 for i, net in enumerate(nets)]
        want = [fresh_logits(net, f) for net, f in zip(nets, feats)]
        for i in (0, 0, 1, 0, 1, 1):
            np.testing.assert_array_equal(predict_logits(nets[i], feats[i]),
                                          want[i])

    def test_train_inputs_match_fresh_arrays(self, monkeypatch):
        # The reference builds every round input as a fresh array; 3
        # batches must leave every weight and moment bitwise the same.
        net = reuse_net("ws", 3)
        ref = copy.deepcopy(net)
        real = network_module._round_input
        buffered = []

        def spy(net, j, fused_stream, outputs, out=None):
            buffered.append(out is not None)
            return real(net, j, fused_stream, outputs, out)

        def fresh(net, j, fused_stream, outputs, out=None):
            return real(net, j, fused_stream, outputs)

        for model, round_input in ((net, spy), (ref, fresh)):
            monkeypatch.setattr(network_module, "_round_input", round_input)
            for seed in range(3):
                train_iteration(model, fused_batch(model, batch=9, seed=seed))
        assert all(buffered)
        TestTrainIteration.assert_same_net(net, ref)

    def test_peak_memory_is_one_set_of_buffers(self):
        # A ws16-shaped net over four blocks: one set of buffers for the
        # largest block, plus one block's fused stream and logits.
        net = build_network(generate(GeneratorSpec("ws", 16, ws_k=4)), 24,
                            32, 4, 1.0, 3, make_rng(0, "weights"))
        rows = PREDICT_BLOCK_ROWS
        buffers = rows * (
            sum(p.d_out * (2 + bool(preds))
                for p, preds in zip(net.neurons, net.preds))
            + max(p.d_in for p in net.neurons) - net.base_dim
            + 2 + net.readout_W.shape[1])
        block = rows * (net.base_dim + net.n_classes)
        bound = 8 * (buffers + block)
        peak = peak_bytes(predict, net, features(net, 3 * rows + 100))
        assert peak <= 1.1 * bound


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

    def test_load_holds_under_twice_the_weights(self, tmp_path):
        # The loaded weights, plus one matrix's read buffer; no moments.
        net = small_net(base_dim=200, d_out=50, n_classes=10)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        weights = sum(p.W.nbytes for p in net.neurons) + net.readout_W.nbytes
        assert peak_bytes(load_checkpoint, path) < 2 * weights

    def test_load_reads_each_matrix_in_place(self, tmp_path):
        # A version-2 matrix is read into its final float64 array, so a
        # load holds the weights and little else.
        net = small_net(base_dim=200, d_out=50, n_classes=10)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        weights = sum(p.W.nbytes for p in net.neurons) + net.readout_W.nbytes
        assert peak_bytes(load_checkpoint, path) < 1.1 * weights

    def test_load_holds_no_mask(self, tmp_path):
        # An mnist-shaped complete-4 net: each 200 x 1384 matrix is checked
        # for non-finite weights without a mask of its size.
        net = small_net(base_dim=784, d_out=200, n_classes=10)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        weights = sum(p.W.nbytes for p in net.neurons) + net.readout_W.nbytes
        assert peak_bytes(load_checkpoint, path) < 1.01 * weights

    @pytest.mark.parametrize("version", [1, 2])
    def test_loads_from_pipe(self, tmp_path, monkeypatch, version):
        # Each 1.6 MB matrix arrives in many pieces.
        monkeypatch.setattr(network_module, "CHECKPOINT_VERSION", version)
        net = small_net("cycle", 3, base_dim=784, d_out=200, n_classes=10)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        want = load_checkpoint(path)
        with fifo_serving(tmp_path / "net.fifo", path.read_bytes()) as pipe:
            got = load_checkpoint(pipe)
        assert (got.topology, got.T, got.base_dim, got.n_classes,
                got.fusion) == (want.topology, want.T, want.base_dim,
                                want.n_classes, want.fusion)
        for a, b in zip(got.neurons, want.neurons):
            np.testing.assert_array_equal(a.W, b.W)
            assert a.theta == b.theta
        np.testing.assert_array_equal(got.readout_W, want.readout_W)

    def test_save_copies_no_weight_matrix(self, tmp_path):
        net = small_net(base_dim=200, d_out=50, n_classes=10)
        largest = max(p.W.nbytes for p in net.neurons)
        assert peak_bytes(save_checkpoint, net, tmp_path / "net.ckpt") < largest

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

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE_CHECKPOINTS))
    def test_unrunnable_header_rejected(self, tmp_path, case):
        args, message = UNRUNNABLE_CHECKPOINTS[case]
        path = tmp_path / "net.ckpt"
        path.write_bytes(chain_checkpoint(*args))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_header_beyond_file(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(OVERSIZED_CHECKPOINT)
        with pytest.raises(ValueError, match="checkpoint: truncated, 0 of"):
            load_checkpoint(path)
