import copy
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import peak_bytes
from cyclicff.numerics import (ADAM_BLOCK, ADAM_BLOCK_BYTES, AdamState,
                               adam_step, check_finite, l2_normalize_rows,
                               make_rng, sigmoid, softmax_stable,
                               softmax_xent)

finite_vectors = arrays(np.float64, st.integers(1, 12),
                        elements=st.floats(-1e6, 1e6, allow_nan=False))


class TestL2Normalize:
    # Single vectors are checked as 1-row matrices.
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]),
                                   [[0.6, 0.8]])

    def test_zero_vector_guarded(self):
        np.testing.assert_array_equal(l2_normalize_rows([[0.0, 0.0]]),
                                      [[0.0, 0.0]])

    def test_single_element(self):
        np.testing.assert_allclose(l2_normalize_rows([[5.0]]), [[1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            l2_normalize_rows([[1.0, np.nan]])

    def test_rows(self):
        m = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
        out = l2_normalize_rows(m)
        np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])

    @given(finite_vectors)
    @settings(max_examples=50)
    def test_idempotent_on_nonzero(self, v):
        if np.linalg.norm(v) < 1e-6:
            return
        once = l2_normalize_rows(v[None, :])
        np.testing.assert_allclose(l2_normalize_rows(once), once, atol=1e-12)


class TestL2NormalizeBy:
    # `by` supplies the row norms; the rows scaled are those of `m`.
    def test_by_self_same_bits_as_default(self):
        m = make_rng(5, 0).standard_normal((7, 13))
        np.testing.assert_array_equal(l2_normalize_rows(m, m),
                                      l2_normalize_rows(m))

    def test_scales_rows_by_other_norms(self):
        out = l2_normalize_rows([[1.0, 2.0], [6.0, 0.0]],
                                [[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(out, [[0.2, 0.4], [3.0, 0.0]],
                                   rtol=1e-15)

    def test_zero_row_of_by_gives_zero_row(self):
        rng = make_rng(6, 0)
        h = rng.standard_normal((3, 5))
        h[1] = 0.0
        out = l2_normalize_rows(h @ rng.standard_normal((5, 4)), h)
        np.testing.assert_array_equal(out[1], np.zeros(4))
        assert np.all(out[[0, 2]] != 0.0)

    def test_rejects_nan_in_by(self):
        with pytest.raises(ValueError):
            l2_normalize_rows(np.ones((2, 2)), [[1.0, 1.0], [np.nan, 1.0]])

    def test_rejects_inf_in_by(self):
        with pytest.raises(ValueError):
            l2_normalize_rows(np.ones((1, 2)), [[np.inf, 1.0]])

    def test_huge_finite_row_is_not_rejected(self):
        # The squared norm overflows to inf, so the row scales to zero
        # without an error or a warning, with or without `by`.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                l2_normalize_rows([[1e200, 1e200]]), [[0.0, 0.0]])
            out = l2_normalize_rows([[3.0, 4.0], [3.0, 4.0]],
                                    [[1e200, 1e200], [3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.0, 0.0], [0.6, 0.8]],
                                   rtol=1e-15)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            l2_normalize_rows(np.ones((2, 3)), np.ones((3, 3)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_stable(np.zeros(2)), [0.5, 0.5])

    def test_log_two(self):
        out = softmax_stable(np.array([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], rtol=1e-12)

    def test_large_logit_no_overflow(self):
        out = softmax_stable(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_stable(np.array([]))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_xent_label_out_of_range(self, label):
        # n_classes is the logits' width, so -1 is not the last class.
        with pytest.raises(ValueError,
                           match="softmax_xent: label out of range"):
            softmax_xent(np.zeros((2, 3)), np.array([0, label]))

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_xent_label_count_must_match_rows(self, n_labels):
        # One label fewer trained only the first row's loss, yet every row
        # entered the gradient; one more was an IndexError.
        with pytest.raises(ValueError, match=(
                f"softmax_xent: {n_labels} labels for 2 rows")):
            softmax_xent(np.zeros((2, 3)), np.zeros(n_labels, dtype=int))

    def test_xent_2d_labels_rejected(self):
        # A (rows x 1) label column broadcasts the fancy index to a wrong
        # loss and delta.
        logits = make_rng(0, 0).standard_normal((6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(ValueError, match=re.escape(
                "softmax_xent: need 1-D labels, got shape (6, 1)")):
            softmax_xent(logits, labels[:, None])

    @given(finite_vectors)
    @settings(max_examples=50)
    def test_sums_to_one_and_keeps_argmax(self, v):
        out = softmax_stable(v)
        assert abs(out.sum() - 1.0) < 1e-12
        # Argmax is only preserved when the top logit is resolvable at
        # float64 precision after max-subtraction.
        top, second = np.sort(v)[::-1][:2] if len(v) > 1 else (v[0], -np.inf)
        if top - second > 1e-9:
            assert np.argmax(out) == np.argmax(v)

    @given(finite_vectors, st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50)
    def test_shift_invariance(self, v, c):
        np.testing.assert_allclose(softmax_stable(v + c), softmax_stable(v),
                                   atol=1e-12)


class TestAdam:
    def test_zero_grad_no_op(self):
        p = np.array([[1.0, -2.0]])
        p0 = p.copy()
        state = AdamState()
        adam_step(p, np.zeros_like(p), state)
        np.testing.assert_array_equal(p, p0)

    def test_first_step_magnitude(self):
        # Fresh state, grad 1: bias-corrected m_hat = v_hat = 1, so the step
        # is lr * 1 / (1 + eps) ~= lr.
        p = np.array([0.0])
        state = AdamState(lr=1e-3)
        adam_step(p, np.array([1.0]), state)
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)
        assert state.t == 1

    def test_determinism(self):
        rng = make_rng(3, 0)
        p = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3))

        def run():
            state = AdamState(lr=0.01, weight_decay=1e-4)
            q = p.copy()
            adam_step(q, g, state)
            adam_step(q, g, state)
            return q

        np.testing.assert_array_equal(run(), run())

    def test_lr_zero_leaves_params(self):
        p = np.array([1.0, 2.0])
        state = AdamState(lr=0.0)
        adam_step(p, np.array([5.0, -3.0]), state)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_weight_decay_pulls_toward_zero(self):
        p = np.array([10.0])
        state = AdamState(lr=1e-3, weight_decay=1e-2)
        adam_step(p, np.zeros(1), state)
        assert p[0] < 10.0

    def test_shape_mismatch(self):
        p = np.zeros((2, 2))
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step(p, np.zeros((2, 3)), state)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_bitwise_textbook_formula(self, weight_decay):
        rng = make_rng(8, 0)
        p = rng.standard_normal((6, 5))
        state = AdamState(lr=0.01, weight_decay=weight_decay)
        q, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        for t in range(1, 6):
            g = rng.standard_normal(p.shape)
            adam_step(p, g, state)
            g = g + weight_decay * q if weight_decay else g
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            q = q - state.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_array_equal(p, q)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    def test_moments_in_place_and_copy_independent(self):
        rng = make_rng(9, 0)
        p = rng.standard_normal((3, 4))
        state = AdamState()
        adam_step(p, rng.standard_normal(p.shape), state)
        m, v = state.m, state.v
        snap = copy.deepcopy(state)
        saved = snap.m.copy(), snap.v.copy()
        adam_step(p, rng.standard_normal(p.shape), state)
        assert state.m is m and state.v is v
        assert not np.shares_memory(snap.m, state.m)
        assert not np.shares_memory(snap.v, state.v)
        np.testing.assert_array_equal(snap.m, saved[0])
        np.testing.assert_array_equal(snap.v, saved[1])
        assert snap.t == 1 and state.t == 2

    def test_nonfinite_grad(self):
        p = np.zeros(2)
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step(p, np.array([np.inf, 0.0]), state)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("size", [1, ADAM_BLOCK - 1, ADAM_BLOCK,
                                      ADAM_BLOCK + 1, 3 * ADAM_BLOCK + 5])
    def test_blocked_update_bitwise_textbook(self, size, weight_decay):
        # The textbook formula over the whole vector at once, against the
        # update that runs over blocks, on either side of a block boundary.
        rng = make_rng(10, 0)
        p = rng.standard_normal(size)
        state = AdamState(lr=0.01, weight_decay=weight_decay)
        q, m, v = p.copy(), np.zeros(size), np.zeros(size)
        for t in range(1, 4):
            g = rng.standard_normal(size)
            adam_step(p, g, state)
            g = g + weight_decay * q if weight_decay else g
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            q = q - state.lr * (m / (1.0 - 0.9 ** t)) / (
                np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            np.testing.assert_array_equal(p, q)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    def test_nonfinite_grad_in_a_later_block_changes_nothing(self):
        p = np.ones(2 * ADAM_BLOCK + 3)
        state = AdamState()
        g = np.ones_like(p)
        g[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient"):
            adam_step(p, g, state)
        assert state.t == 0 and (p == 1.0).all()
        assert state.m is None and state.v is None

    @pytest.mark.parametrize("which", ["params", "m", "v"])
    def test_non_contiguous_rejected(self, which):
        # A strided view would be reshaped into a copy, losing the update.
        arrays = {k: np.zeros((4, 3)) for k in ("params", "m", "v")}
        arrays[which] = np.zeros((4, 6))[:, ::2]
        state = AdamState(m=arrays["m"], v=arrays["v"])
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(arrays["params"], np.ones((4, 3)), state)
        assert state.t == 0


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3 * ADAM_BLOCK + 5,),
                                       (ADAM_BLOCK // 4 + 1, 16),
                                       (3, 2 * ADAM_BLOCK)],
                             ids=["1-D", "2-D", "wide-rows"])
    def test_found_only_in_the_last_block(self, bad, shape):
        a = np.ones(shape)
        a.reshape(-1)[-1] = bad
        with pytest.raises(ValueError, match="^bad entry$"):
            check_finite(a, "bad entry")

    @pytest.mark.parametrize("a", [
        np.float64(1.0), np.array(2.0), np.zeros(0), np.zeros((0, 3)),
        np.zeros((3, 0)), np.ones(ADAM_BLOCK + 1), np.arange(10),
        np.ones((50, 7))[:, 3]],
        ids=["scalar", "0-d", "empty", "no-rows", "no-cols", "1-D", "int",
             "column"])
    def test_accepts_finite_of_any_shape(self, a):
        check_finite(a, "x")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_0d(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_finite(np.array(bad), "x")

    def test_column_slice_scanned_without_a_copy(self):
        # A copy of the strided column would be 320 KB; the scan holds one
        # block's mask, one byte per value.
        a = np.ones((40000, 8))
        assert peak_bytes(check_finite, a[:, 5], "x") < ADAM_BLOCK_BYTES
        a[-1, 5] = np.nan
        with pytest.raises(ValueError, match="x"):
            check_finite(a[:, 5], "x")
        check_finite(a[:, 4], "x")

    def test_holds_no_array_sized_mask(self):
        a = np.ones((4000, 784))
        assert peak_bytes(check_finite, a, "x") < ADAM_BLOCK_BYTES


class TestRng:
    def test_same_key_same_stream(self):
        a = make_rng(42, "weights").standard_normal(8)
        b = make_rng(42, "weights").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(42, "weights").standard_normal(8)
        b = make_rng(42, "data-shuffle").standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            make_rng(seed)

    def test_seed_range_ends(self):
        make_rng(0)
        make_rng(2**64 - 1)


def test_sigmoid_matches_reference():
    x = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                               rtol=1e-12)


def masked_sigmoid(x):
    """Reference: `sigmoid` in its masked form, one exp per half-line."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        1e308, -1e308, tiny, -tiny, 709.8, -709.8,
                        745.2, -745.2])
    rng = make_rng(11, 0)
    scaled = rng.standard_normal(100_000) * 10.0 ** rng.uniform(
        -320, 300, 100_000)
    # Uniformly random bit patterns, NaNs and subnormals among them.
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    x = np.concatenate([special, scaled, bits])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
    want = masked_sigmoid(x)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
