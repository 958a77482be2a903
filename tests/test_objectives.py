import numpy as np
import pytest

import segctc.objectives
from segctc import (
    DimensionMismatchError,
    MaskSpec,
    TrainingMode,
    check_gradient,
    ctc_loss,
    dedup,
    effective_alpha,
    joint_loss,
    joint_loss_batch,
    log_softmax,
    masked_ce_loss,
    masked_ctc_loss,
    merge_spans,
)


def random_instance(rng, frames=8, vocab=4):
    log_probs = log_softmax(rng.normal(size=(frames, vocab + 1)), axis=1)
    ids = rng.integers(0, vocab, size=frames)
    spec = merge_spans([(1, 3), (5, 7)], frames)
    return log_probs, ids, spec


class TestMaskedCeLoss:
    def test_perfect_prediction_gives_zero(self):
        # one-hot rows: log-prob 0 on the correct class
        ids = np.array([0, 1, 2, 0])
        log_probs = np.full((4, 4), -np.inf)
        log_probs[np.arange(4), ids] = 0.0
        spec = MaskSpec(((0, 4),), 4)
        loss, _ = masked_ce_loss(log_probs, ids, spec)
        assert loss == 0.0

    def test_uniform_lattice(self):
        vocab = 5
        log_probs = np.log(np.full((6, vocab + 1), 1.0 / (vocab + 1)))
        ids = np.zeros(6, dtype=int)
        spec = MaskSpec(((2, 5),), 6)
        loss, _ = masked_ce_loss(log_probs, ids, spec)
        assert loss == pytest.approx(np.log(vocab + 1), abs=1e-12)

    def test_unmasked_rows_do_not_matter(self):
        rng = np.random.default_rng(0)
        log_probs, ids, spec = random_instance(rng)
        loss1, _ = masked_ce_loss(log_probs, ids, spec)
        altered = log_probs.copy()
        altered[0] = log_softmax(rng.normal(size=log_probs.shape[1]))
        altered[4] = log_softmax(rng.normal(size=log_probs.shape[1]))
        loss2, _ = masked_ce_loss(altered, ids, spec)
        assert loss1 == loss2

    def test_gradient_zero_on_unmasked_rows(self):
        rng = np.random.default_rng(1)
        log_probs, ids, spec = random_instance(rng)
        _, grad = masked_ce_loss(log_probs, ids, spec)
        unmasked = ~spec.frame_mask()
        assert np.all(grad[unmasked] == 0.0)
        assert np.any(grad[spec.frame_mask()] != 0.0)

    def test_no_masked_frames(self):
        rng = np.random.default_rng(2)
        log_probs = log_softmax(rng.normal(size=(5, 4)), axis=1)
        loss, grad = masked_ce_loss(log_probs, np.zeros(5, dtype=int), MaskSpec((), 5))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_dimension_mismatch(self):
        log_probs = np.zeros((4, 3))
        with pytest.raises(DimensionMismatchError):
            masked_ce_loss(log_probs, [0, 1], MaskSpec(((0, 2),), 4))
        with pytest.raises(DimensionMismatchError):
            masked_ce_loss(log_probs, [0, 1, 2, 2], MaskSpec(((0, 2),), 5))
        with pytest.raises(DimensionMismatchError):
            # label equal to the blank index is not a valid id
            masked_ce_loss(log_probs, [0, 1, 2, 0], MaskSpec(((0, 2),), 4))


class TestMaskedCtcLoss:
    def test_full_cover_reduces_to_plain_ctc(self):
        rng = np.random.default_rng(3)
        log_probs = log_softmax(rng.normal(size=(6, 4)), axis=1)
        ids = np.array([0, 0, 1, 1, 2, 2])
        spec = MaskSpec(((0, 6),), 6)
        loss, _ = masked_ctc_loss(log_probs, ids, spec)
        target = dedup(ids)
        assert loss == pytest.approx(ctc_loss(log_probs, target) / target.size, abs=1e-12)

    def test_two_regions_sum(self):
        rng = np.random.default_rng(4)
        log_probs, ids, spec = random_instance(rng)
        loss, _ = masked_ctc_loss(log_probs, ids, spec)
        pieces = []
        tokens = 0
        for start, end in spec.intervals:
            target = dedup(ids[start:end])
            pieces.append(ctc_loss(log_probs[start:end], target))
            tokens += target.size
        assert loss == pytest.approx(sum(pieces) / tokens, abs=1e-12)

    def test_constant_region_matches_single_label_ctc(self):
        rng = np.random.default_rng(5)
        log_probs = log_softmax(rng.normal(size=(3, 4)), axis=1)
        ids = np.array([2, 2, 2])
        spec = MaskSpec(((0, 3),), 3)
        loss, _ = masked_ctc_loss(log_probs, ids, spec)
        assert loss == pytest.approx(ctc_loss(log_probs, [2]), abs=1e-12)

    def test_no_masked_regions(self):
        rng = np.random.default_rng(6)
        log_probs = log_softmax(rng.normal(size=(5, 4)), axis=1)
        loss, grad = masked_ctc_loss(log_probs, np.zeros(5, dtype=int), MaskSpec((), 5))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_zero_on_unmasked_rows(self):
        rng = np.random.default_rng(7)
        log_probs, ids, spec = random_instance(rng)
        _, grad = masked_ctc_loss(log_probs, ids, spec)
        assert np.all(grad[~spec.frame_mask()] == 0.0)

    def test_region_order_irrelevant(self):
        rng = np.random.default_rng(8)
        log_probs, ids, _ = random_instance(rng)
        spans = [(5, 7), (1, 3)]
        loss1, grad1 = masked_ctc_loss(log_probs, ids, merge_spans(spans, 8))
        loss2, grad2 = masked_ctc_loss(log_probs, ids, merge_spans(spans[::-1], 8))
        assert loss1 == loss2
        np.testing.assert_array_equal(grad1, grad2)


class TestJointLoss:
    def test_alpha_zero_equals_ce(self):
        rng = np.random.default_rng(9)
        log_probs, ids, spec = random_instance(rng)
        ce, ce_grad = masked_ce_loss(log_probs, ids, spec)
        breakdown, grad = joint_loss(log_probs, ids, spec, 0.0)
        assert breakdown.combined == ce
        np.testing.assert_array_equal(grad, ce_grad)

    def test_alpha_one_equals_ctc(self):
        rng = np.random.default_rng(10)
        log_probs, ids, spec = random_instance(rng)
        ctc, ctc_grad = masked_ctc_loss(log_probs, ids, spec)
        breakdown, grad = joint_loss(log_probs, ids, spec, 1.0)
        assert breakdown.combined == ctc
        np.testing.assert_array_equal(grad, ctc_grad)

    def test_alpha_half_is_mean(self):
        rng = np.random.default_rng(11)
        log_probs, ids, spec = random_instance(rng)
        breakdown, _ = joint_loss(log_probs, ids, spec, 0.5)
        assert breakdown.combined == pytest.approx(
            (breakdown.ce + breakdown.ctc) / 2.0, abs=1e-15
        )

    def test_affine_in_alpha(self):
        rng = np.random.default_rng(12)
        log_probs, ids, spec = random_instance(rng)
        at0, _ = joint_loss(log_probs, ids, spec, 0.0)
        at1, _ = joint_loss(log_probs, ids, spec, 1.0)
        for alpha in (0.1, 0.3, 0.5, 0.77, 0.9):
            breakdown, _ = joint_loss(log_probs, ids, spec, alpha)
            expected = alpha * at1.combined + (1.0 - alpha) * at0.combined
            assert breakdown.combined == pytest.approx(expected, abs=1e-12)

    def test_counts_reported(self):
        rng = np.random.default_rng(13)
        log_probs, ids, spec = random_instance(rng)
        breakdown, _ = joint_loss(log_probs, ids, spec, 0.5)
        assert breakdown.masked_frames == spec.masked_frames
        assert breakdown.target_tokens >= len(spec.intervals)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_gradient_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(14)
        frames, vocab = 6, 3
        ids = rng.integers(0, vocab, size=frames)
        spec = merge_spans([(0, 2), (3, 6)], frames)
        logits = rng.normal(size=(frames, vocab + 1))

        def f(x):
            lp = log_softmax(x.reshape(frames, vocab + 1), axis=1)
            breakdown, grad = joint_loss(lp, ids, spec, alpha)
            return breakdown.combined, grad.ravel()

        assert check_gradient(f, logits.ravel()) < 1e-4


class TestJointLossBatch:
    def _batch(self, rng):
        items = []
        for frames in (8, 12, 9):
            log_probs, ids, _ = random_instance(rng, frames=frames)
            spec = merge_spans([(0, 2), (frames - 3, frames)], frames)
            items.append((log_probs, ids, spec))
        return items

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_equals_one_call_per_item(self, alpha):
        items = self._batch(np.random.default_rng(15))
        batched = joint_loss_batch(items, alpha)
        assert len(batched) == len(items)
        for (breakdown, grad), item in zip(batched, items):
            alone, alone_grad = joint_loss(*item, alpha)
            assert breakdown == alone
            np.testing.assert_array_equal(grad, alone_grad)

    def test_empty_batch(self):
        assert joint_loss_batch([], 0.5) == []

    def test_segment_targets_computed_once_per_item(self, monkeypatch):
        items = self._batch(np.random.default_rng(16))
        calls = []
        real = segctc.objectives.segment_targets

        def counting(ids, spec):
            calls.append(spec)
            return real(ids, spec)

        monkeypatch.setattr(segctc.objectives, "segment_targets", counting)
        joint_loss_batch(items, 0.5)
        assert len(calls) == len(items)

    def test_alpha_zero_runs_ctc_forward_only(self, monkeypatch):
        items = self._batch(np.random.default_rng(17))
        expected = [masked_ctc_loss(*item)[0] for item in items]

        def no_backward(*args):
            raise AssertionError("CTC backward ran at alpha 0")

        monkeypatch.setattr(segctc.objectives, "ctc_loss_and_grad_batch", no_backward)
        batched = joint_loss_batch(items, 0.0)
        assert [breakdown.ctc for breakdown, _ in batched] == expected
        for (breakdown, grad), item in zip(batched, items):
            ce, ce_grad = masked_ce_loss(*item)
            assert breakdown.ce == breakdown.combined == ce
            np.testing.assert_array_equal(grad, ce_grad)


class TestEffectiveAlpha:
    def test_during_warmup(self):
        mode = TrainingMode(alpha=1.0, ce_warmup_steps=32000)
        assert effective_alpha(0, mode) == 0.0
        assert effective_alpha(31999, mode) == 0.0

    def test_no_warmup(self):
        mode = TrainingMode(alpha=0.5)
        assert effective_alpha(0, mode) == 0.5
        assert effective_alpha(10**6, mode) == 0.5

    def test_boundary_switches_at_warmup_step(self):
        mode = TrainingMode(alpha=0.8, ce_warmup_steps=100)
        assert effective_alpha(99, mode) == 0.0
        assert effective_alpha(100, mode) == 0.8

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            TrainingMode(alpha=1.5)
        with pytest.raises(ValueError):
            TrainingMode(alpha=0.5, ce_warmup_steps=-1)
