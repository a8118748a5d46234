from dataclasses import fields

import numpy as np
import pytest

from conftest import central_diff, rel_err
from cyclicff.neuron import (NeuronParams, ff_loss_and_grad,
                             ff_loss_grad_outputs, goodness, init_neuron,
                             neuron_forward)
from cyclicff.numerics import (AdamState, adam_step, l2_normalize_rows,
                               make_rng, relu, sigmoid)


def make_neuron(W, theta=0.0):
    return NeuronParams(np.asarray(W, dtype=np.float64), theta)


class TestForward:
    def test_identity_passes_normalized(self):
        p = make_neuron(np.eye(2))
        out = neuron_forward(p, np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_relu_clips(self):
        p = make_neuron([[1.0, -1.0], [-1.0, 1.0]])
        out = neuron_forward(p, np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.2]], atol=1e-15)

    def test_zero_row_zero_out(self):
        p = make_neuron(make_rng(0, 0).standard_normal((3, 2)))
        out = neuron_forward(p, np.zeros((1, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_dim_mismatch(self):
        p = make_neuron(np.eye(2))
        with pytest.raises(ValueError):
            neuron_forward(p, np.zeros((1, 3)))

    def test_widths_follow_W(self):
        p = make_neuron(np.eye(2))
        p.W = np.zeros((3, 5))
        assert (p.d_in, p.d_out) == (5, 3)
        assert [f.name for f in fields(NeuronParams)] == ["W", "theta"]


class TestNormaliseAfterMatmul:
    """The neuron scales its (batch x d_out) product by the input row norms.
    The reference normalises the input first, as the model is defined;
    the two differ only in rounding, checked to a tolerance of 1e-12 of
    the largest reference value."""

    # (d_in, d_out) of the benchmark workloads' neurons: small-synth,
    # MNIST-shaped, and the narrowest and widest ws16 neuron.
    SHAPES = [(174, 50), (1384, 200), (88, 32), (248, 32)]

    @staticmethod
    def reference(p, pos, neg):
        """Outputs, gradient and the two-term loss
        -mean(log clip p(pos) + log clip (1 - p(neg))), stream by stream."""
        outs, grad, log_q = [], 0.0, 0.0
        for h, positive in ((pos, True), (neg, False)):
            h_tilde = l2_normalize_rows(h)
            z = h_tilde @ p.W.T
            out = relu(z)
            prob = goodness(out, p.theta)
            da = -(1.0 - prob) if positive else prob
            dz = (da[:, None] / len(h) * 2.0 * out) * (z > 0)
            grad = grad + dz.T @ h_tilde
            outs.append(out)
            q = prob if positive else 1.0 - prob
            log_q = log_q + np.log(np.clip(q, 1e-12, 1 - 1e-12))
        return outs, grad, -np.mean(log_q)

    @staticmethod
    def assert_close(actual, ref):
        np.testing.assert_allclose(actual, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def check(self, p, pos, neg):
        (ref_pos, ref_neg), ref_grad, ref_loss = self.reference(p, pos, neg)
        self.assert_close(neuron_forward(p, pos), ref_pos)
        loss, grad, h = ff_loss_grad_outputs(p, pos, neg)
        h_pos, h_neg = h[:len(pos)], h[len(pos):]
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        self.assert_close(h_pos, ref_pos)
        self.assert_close(h_neg, ref_neg)
        self.assert_close(grad, ref_grad)

    @pytest.mark.parametrize("batch", [64, 1])
    @pytest.mark.parametrize("d_in,d_out", SHAPES)
    def test_matches_normalise_first(self, d_in, d_out, batch):
        rng = make_rng(d_in + batch, 0)
        p = init_neuron(d_in, d_out, 0.2, rng)
        self.check(p, rng.standard_normal((batch, d_in)),
                   rng.standard_normal((batch, d_in)))

    @pytest.mark.parametrize("scale", [0.0, 1e-10], ids=["zero", "tiny"])
    def test_row_below_norm_guard(self, scale):
        # A row with norm under 1e-8 is divided by the guard, not its norm.
        rng = make_rng(12, 0)
        p = init_neuron(88, 32, 0.2, rng)
        pos = rng.standard_normal((4, 88))
        neg = rng.standard_normal((4, 88))
        pos[1] *= scale / np.linalg.norm(pos[1])
        neg[2] *= scale / np.linalg.norm(neg[2])
        self.check(p, pos, neg)
        if scale == 0.0:
            assert not np.any(neuron_forward(p, pos)[1])

    def test_nan_input_rejected(self):
        p = init_neuron(5, 3, 1.0, make_rng(13, 0))
        h = np.ones((2, 5))
        h[1, 2] = np.nan
        with pytest.raises(ValueError):
            neuron_forward(p, h)
        with pytest.raises(ValueError):
            ff_loss_grad_outputs(p, np.ones((2, 5)), h)


class TestGoodness:
    def test_zero_row_theta_zero(self):
        assert goodness(np.zeros((1, 4)), 0.0)[0] == pytest.approx(0.5)

    def test_at_threshold(self):
        # sum of squares 2 against theta * d = 2.
        assert goodness(np.array([[1.0, 1.0]]), 1.0)[0] == pytest.approx(0.5)

    def test_above_threshold(self):
        expected = 1.0 / (1.0 + np.exp(-2.0))
        assert goodness(np.array([[1.0, 1.0]]), 0.0)[0] == pytest.approx(expected)

    def test_monotone_in_sum_of_squares(self):
        scales = np.linspace(0.1, 3.0, 15)
        h = np.array([[0.5, 0.5, 0.5]])
        vals = [goodness(s * h, 1.0)[0] for s in scales]
        assert np.all(np.diff(vals) > 0)


class TestFFLoss:
    def test_symmetric_zero_case(self):
        p = make_neuron(np.eye(2), theta=0.0)
        loss, grad = ff_loss_and_grad(p, np.zeros((2, 2)), np.zeros((2, 2)))
        assert loss == pytest.approx(2 * np.log(2.0))
        np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_hand_evaluated_instance(self):
        # W routes the normalized pos input to output [1, 1] (goodness
        # probability 0.5 at theta=1, d=2) and the neg input to [0, 0].
        p = make_neuron([[1.0, 0.0], [1.0, 0.0]], theta=1.0)
        pos = np.array([[5.0, 0.0]])
        neg = np.array([[0.0, 5.0]])
        loss, _ = ff_loss_and_grad(p, pos, neg)
        expected = -(np.log(0.5) + np.log(1.0 - sigmoid(-2.0)))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(0.8201, abs=1e-4)

    def test_batch_mismatch(self):
        p = make_neuron(np.eye(2))
        with pytest.raises(ValueError):
            ff_loss_and_grad(p, np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = make_rng(seed, 0)
        d_in, d_out, batch = 7, 5, 3
        p = init_neuron(d_in, d_out, theta=0.5, rng=rng)
        pos = rng.standard_normal((batch, d_in))
        neg = rng.standard_normal((batch, d_in))
        # Skip kink-adjacent instances.
        from cyclicff.neuron import _forward_parts
        for h in (pos, neg):
            z = _forward_parts(p, h)[1]
            if np.any(np.abs(z) < 1e-5):
                pytest.skip("pre-activation at ReLU kink")

        _, analytic = ff_loss_and_grad(p, pos, neg)

        def loss_of(W):
            q = make_neuron(W, theta=p.theta)
            return ff_loss_and_grad(q, pos, neg)[0]

        numeric = central_diff(loss_of, p.W.copy())
        assert rel_err(analytic, numeric) < 1e-4

    def test_locality(self):
        # The loss/grad of one neuron never depends on another's parameters.
        rng = make_rng(1, 0)
        a = init_neuron(6, 4, 1.0, rng)
        b = init_neuron(6, 4, 1.0, rng)
        pos, neg = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        before = ff_loss_and_grad(a, pos, neg)
        b.W += 100.0  # perturb the other neuron
        after = ff_loss_and_grad(a, pos, neg)
        assert before[0] == after[0]
        np.testing.assert_array_equal(before[1], after[1])


class TestNeuronStep:
    """The neuron's W under the Adam step the network applies to it."""

    def test_zero_grad_no_op(self):
        p = make_neuron(np.eye(3))
        W0 = p.W.copy()
        adam_step(p.W, np.zeros((3, 3)), AdamState())
        np.testing.assert_array_equal(p.W, W0)

    def test_descent_on_fixed_batch(self):
        rng = make_rng(2, 0)
        p = init_neuron(6, 4, 1.0, rng)
        adam = AdamState(lr=1e-3)
        pos = rng.standard_normal((8, 6)) + 2.0
        neg = rng.standard_normal((8, 6))
        losses = []
        for _ in range(10):
            loss, grad = ff_loss_and_grad(p, pos, neg)
            losses.append(loss)
            adam_step(p.W, grad, adam)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_separable_batch_converges(self):
        # Pos/neg differ in their label block: loss below 0.1 in 500 steps.
        rng = make_rng(3, 0)
        p = init_neuron(10, 16, 1.0, rng)
        adam = AdamState(lr=1e-2)
        feats = rng.standard_normal((32, 8))
        pos = np.hstack([feats, np.tile([1.0, 0.0], (32, 1))])
        neg = np.hstack([feats, np.tile([0.0, 1.0], (32, 1))])
        loss = np.inf
        for _ in range(500):
            loss, grad = ff_loss_and_grad(p, pos, neg)
            adam_step(p.W, grad, adam)
        assert loss < 0.1

    def test_determinism(self):
        def run():
            rng = make_rng(4, 0)
            p = init_neuron(5, 3, 1.0, rng)
            adam = AdamState()
            pos = rng.standard_normal((4, 5))
            neg = rng.standard_normal((4, 5))
            for _ in range(3):
                _, grad = ff_loss_and_grad(p, pos, neg)
                adam_step(p.W, grad, adam)
            return p.W

        np.testing.assert_array_equal(run(), run())
