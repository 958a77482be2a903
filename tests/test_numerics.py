import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from segctc import NEG_INF, check_gradient, log_softmax, log_sum_exp
from segctc.numerics import axis_max


def reference_log_softmax(logits, axis=-1):
    """log_softmax as it was written before axis_max: np.max along `axis`."""
    arr = np.asarray(logits, dtype=float)
    m = np.max(arr, axis=axis, keepdims=True)
    shifted = arr - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# 1- to 3-D arrays whose entries mix NaN, +-inf, +-0 and finite values
special_arrays = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=3, max_side=25),
    elements=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]) | st.floats(-30, 30),
)


class TestLogSumExp:
    def test_empty_is_neg_inf(self):
        assert log_sum_exp([]) == NEG_INF

    def test_singleton_identity(self):
        assert log_sum_exp([2.5]) == 2.5

    def test_two_zeros(self):
        assert abs(log_sum_exp([0.0, 0.0]) - np.log(2.0)) < 1e-12

    def test_neg_inf_is_identity_element(self):
        assert log_sum_exp([NEG_INF, 1.25]) == 1.25
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=8)
            assert log_sum_exp(v) == pytest.approx(log_sum_exp(v[::-1]), abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10), st.floats(-100, 100))
    def test_shift_property(self, values, shift):
        base = log_sum_exp(values)
        shifted = log_sum_exp(np.asarray(values) + shift)
        assert shifted == pytest.approx(base + shift, abs=1e-9)

    def test_no_overflow_on_large_inputs(self):
        assert np.isfinite(log_sum_exp([1000.0, 1000.0]))


class TestLogSoftmax:
    def test_two_zeros(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0]), [-np.log(2)] * 2, atol=1e-15)

    def test_constant_vector(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(log_softmax([c, c, c]), [-np.log(3)] * 3, atol=1e-12)

    def test_matches_naive_normalization(self):
        # independent oracle: direct exp-then-normalize in double precision
        x = np.array([1.0, 2.0, 3.0])
        naive = np.log(np.exp(x) / np.exp(x).sum())
        np.testing.assert_allclose(log_softmax(x), naive, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=6)
            np.testing.assert_allclose(
                log_softmax(x + 13.7), log_softmax(x), atol=1e-12
            )

    def test_exp_sums_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 7)) * 10
        sums = np.exp(log_softmax(x, axis=1)).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestAxisMax:
    @settings(max_examples=300)
    @given(special_arrays, st.data())
    def test_equals_max_along_axis(self, a, data):
        # Equal as values: NaN where a lane holds NaN; a zero maximum may
        # carry either sign. log_softmax keeps its bits: two zeros of opposite
        # sign in one lane put its log-sum-exp at log 2 or more, so the sign
        # of a zero maximum never reaches the result.
        axis = data.draw(st.integers(-a.ndim, a.ndim - 1), label="axis")
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(axis_max(a, axis), a.max(axis=axis, keepdims=True))
            got, want = log_softmax(a, axis), reference_log_softmax(a, axis)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


class TestCheckGradient:
    def test_quadratic(self):
        def f(x):
            return 0.5 * float(x @ x), x

        assert check_gradient(f, np.array([1.0, 2.0])) < 1e-8

    def test_constant_function(self):
        def f(x):
            return 4.0, np.zeros_like(x)

        assert check_gradient(f, np.array([0.3, -0.7, 2.0])) == 0.0

    def test_catches_wrong_gradient(self):
        def f(x):
            return 0.5 * float(x @ x), 2.0 * x

        assert check_gradient(f, np.array([1.0, 2.0])) > 0.1

    def test_ctc_loss_on_small_lattice(self):
        # the checker's intended customer: a 4x3 CTC lattice
        from segctc import ctc_loss_and_grad

        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 3))

        def f(x):
            lp = log_softmax(x.reshape(4, 3), axis=1)
            loss, grad = ctc_loss_and_grad(lp, [0, 1])
            return loss, grad.ravel()

        assert check_gradient(f, logits.ravel()) < 1e-4
