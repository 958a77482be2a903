import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segctc import (
    EnumerationTooLargeError,
    InfeasibleTargetError,
    brute_force_ctc,
    check_gradient,
    collapse_path,
    ctc_loss,
    ctc_loss_and_grad,
    greedy_collapse,
    log_softmax,
)


def random_lattice(rng, frames, vocab):
    return log_softmax(rng.normal(size=(frames, vocab + 1)), axis=1)


def random_dedup_target(rng, vocab, length):
    target = []
    for _ in range(length):
        c = int(rng.integers(vocab))
        while target and vocab > 1 and c == target[-1]:
            c = int(rng.integers(vocab))
        target.append(c)
    return target


class TestCtcLoss:
    def test_single_frame_uniform(self):
        lattice = np.log(np.full((1, 3), 1.0 / 3.0))
        assert ctc_loss(lattice, [1]) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_two_frames_single_label_path_sum(self):
        rng = np.random.default_rng(7)
        lattice = random_lattice(rng, 2, 2)
        p = np.exp(lattice)
        blank = 2
        # three paths produce [A]: (b,A), (A,b), (A,A)
        expected = -np.log(
            p[0, blank] * p[1, 0] + p[0, 0] * p[1, blank] + p[0, 0] * p[1, 0]
        )
        assert ctc_loss(lattice, [0]) == pytest.approx(expected, abs=1e-12)

    def test_empty_target_is_all_blank_path(self):
        rng = np.random.default_rng(8)
        lattice = random_lattice(rng, 2, 3)
        expected = -(lattice[0, -1] + lattice[1, -1])
        assert ctc_loss(lattice, []) == pytest.approx(expected, abs=1e-12)

    def test_infeasible_when_target_longer_than_frames(self):
        lattice = np.log(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(lattice, [0, 1, 0])

    def test_adjacent_repeat_without_room_is_infinite(self):
        rng = np.random.default_rng(9)
        lattice = random_lattice(rng, 2, 2)
        assert ctc_loss(lattice, [0, 0]) == np.inf
        assert brute_force_ctc(lattice, [0, 0]) == np.inf

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            frames = int(rng.integers(1, 7))
            vocab = int(rng.integers(1, 5))
            lattice = random_lattice(rng, frames, vocab)
            target = random_dedup_target(rng, vocab, int(rng.integers(0, frames + 1)))
            assert ctc_loss(lattice, target) >= -1e-12


class TestOracleAgreement:
    def test_exhaustive_sweep_small_sizes(self):
        rng = np.random.default_rng(11)
        for frames in range(1, 7):
            for vocab in range(1, 5):
                lattice = random_lattice(rng, frames, vocab)
                max_len = min(frames, 4)
                for length in range(max_len + 1):
                    for target in itertools.product(range(vocab), repeat=length):
                        fast = ctc_loss(lattice, list(target))
                        slow = brute_force_ctc(lattice, list(target))
                        if np.isinf(fast) or np.isinf(slow):
                            assert fast == slow
                        else:
                            assert abs(fast - slow) <= 1e-9

    def test_brute_force_single_frame_empty_target(self):
        rng = np.random.default_rng(12)
        lattice = random_lattice(rng, 1, 3)
        assert brute_force_ctc(lattice, []) == pytest.approx(-lattice[0, -1], abs=1e-12)

    def test_brute_force_unreachable_target(self):
        rng = np.random.default_rng(13)
        lattice = random_lattice(rng, 2, 3)
        assert brute_force_ctc(lattice, [0, 1, 0]) == np.inf

    def test_enumeration_guard(self):
        lattice = np.zeros((30, 4))
        with pytest.raises(EnumerationTooLargeError):
            brute_force_ctc(lattice, [0])


class TestCtcGrad:
    def test_single_frame_degenerates_to_ce(self):
        rng = np.random.default_rng(14)
        lattice = random_lattice(rng, 1, 3)
        grad = ctc_loss_and_grad(lattice, [2])[1]
        expected = np.exp(lattice[0])
        expected[2] -= 1.0
        np.testing.assert_allclose(grad[0], expected, atol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(5, 4))
        target = [0, 2]

        def f(x):
            lp = log_softmax(x.reshape(5, 4), axis=1)
            loss, grad = ctc_loss_and_grad(lp, target)
            return loss, grad.ravel()

        assert check_gradient(f, logits.ravel()) < 1e-4

    def test_occupancy_rows_sum_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            frames = int(rng.integers(1, 7))
            vocab = int(rng.integers(2, 5))
            lattice = random_lattice(rng, frames, vocab)
            target = random_dedup_target(rng, vocab, int(rng.integers(0, frames + 1)))
            loss, grad = ctc_loss_and_grad(lattice, target)
            gamma = np.exp(lattice) - grad
            np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)

    def test_time_reversal_symmetry(self):
        # every frame shares one distribution, so the path set is symmetric
        lattice = np.log(np.full((5, 3), 1.0 / 3.0))
        grad = ctc_loss_and_grad(lattice, [0])[1]
        np.testing.assert_allclose(grad, grad[::-1], atol=1e-12)

    def test_unreachable_target_zero_gradient(self):
        rng = np.random.default_rng(17)
        lattice = random_lattice(rng, 2, 2)
        loss, grad = ctc_loss_and_grad(lattice, [0, 0])
        assert loss == np.inf
        assert np.all(grad == 0.0)


def loop_collapse(path, blank):
    """The frame-by-frame loop that collapse_path replaced: emit each symbol
    that differs from the previous frame's, unless it is blank."""
    out = []
    prev = None
    for sym in path:
        sym = int(sym)
        if sym != prev:
            if sym != blank:
                out.append(sym)
            prev = sym
    return out


class TestCollapse:
    @given(
        st.integers(1, 5).flatmap(
            lambda classes: st.tuples(
                st.lists(st.integers(0, classes - 1), max_size=30), st.just(classes - 1)
            )
        ),
        st.sampled_from([list, np.array, lambda path: np.array(path, dtype=np.int32)]),
    )
    def test_collapse_path_equals_loop(self, path_and_blank, as_type):
        path, blank = path_and_blank
        got = collapse_path(as_type(path), blank)
        assert got == loop_collapse(path, blank)
        assert all(type(sym) is int for sym in got)

    @pytest.mark.parametrize("path", [[], [3], [3, 3, 3, 3]])
    @pytest.mark.parametrize("as_type", [list, np.array])
    def test_collapse_path_empty_and_all_blank(self, path, as_type):
        assert collapse_path(as_type(path), 3) == loop_collapse(path, 3) == []

    def test_collapse_path_examples(self):
        blank = 2
        assert collapse_path([blank, 0, 0, blank, 1], blank) == [0, 1]
        assert collapse_path([blank, blank, blank], blank) == []
        assert collapse_path([0, blank, 0], blank) == [0, 0]

    def test_greedy_collapse(self):
        lattice = np.full((5, 3), -10.0)
        for t, k in enumerate([2, 0, 0, 2, 1]):
            lattice[t, k] = 0.0
        assert greedy_collapse(lattice) == [0, 1]

    def test_greedy_collapse_all_blank(self):
        lattice = np.zeros((4, 3))
        lattice[:, 2] = 5.0
        assert greedy_collapse(lattice) == []

    def test_greedy_ties_break_to_lowest_index(self):
        lattice = np.zeros((1, 4))  # all classes tie; argmax picks index 0
        assert greedy_collapse(lattice) == [0]
