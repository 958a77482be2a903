import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segctc.objectives
from segctc import (
    DimensionMismatchError,
    MaskSpec,
    TrainingMode,
    check_gradient,
    ctc_loss,
    ctc_loss_and_grad,
    dedup,
    effective_alpha,
    joint_loss,
    joint_loss_batch,
    log_softmax,
    masked_ce_loss,
    masked_ctc_loss,
    merge_spans,
)
from segctc.objectives import segment_ctc_terms


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


def pack(items):
    """The (log_probs, ids, spec) items laid end to end: (log_probs, ids, specs)."""
    log_probs = np.concatenate([log_probs for log_probs, _, _ in items])
    ids = np.concatenate([ids for _, ids, _ in items])
    return log_probs, ids, [spec for _, _, spec in items]


def utterance_rows(items):
    ends = np.cumsum([len(ids) for _, ids, _ in items])
    return [slice(end - len(ids), end) for (_, ids, _), end in zip(items, ends)]


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
        breakdowns, grad = joint_loss_batch(*pack(items), alpha)
        assert len(breakdowns) == len(items)
        assert grad.shape == (sum(len(ids) for _, ids, _ in items), items[0][0].shape[1])
        for breakdown, rows, item in zip(breakdowns, utterance_rows(items), items):
            alone, alone_grad = joint_loss(*item, alpha)
            assert breakdown == alone
            np.testing.assert_array_equal(grad[rows], alone_grad)

    def test_empty_batch(self):
        breakdowns, grad = joint_loss_batch(np.zeros((0, 5)), np.zeros(0, dtype=int), [], 0.5)
        assert breakdowns == []
        assert grad.shape == (0, 5)

    def test_alpha_zero_runs_ctc_forward_only(self, monkeypatch):
        items = self._batch(np.random.default_rng(17))
        expected = [masked_ctc_loss(*item)[0] for item in items]
        real = segctc.objectives.ctc_loss_packed

        def forward_only(emissions, regions, targets, with_grad):
            assert not with_grad, "CTC backward ran at alpha 0"
            return real(emissions, regions, targets, with_grad)

        monkeypatch.setattr(segctc.objectives, "ctc_loss_packed", forward_only)
        breakdowns, grad = joint_loss_batch(*pack(items), 0.0)
        assert [breakdown.ctc for breakdown in breakdowns] == expected
        for breakdown, rows, item in zip(breakdowns, utterance_rows(items), items):
            ce, ce_grad = masked_ce_loss(*item)
            assert breakdown.ce == breakdown.combined == ce
            np.testing.assert_array_equal(grad[rows], ce_grad)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_breakdown_fields_are_python_numbers(self, alpha):
        items = self._batch(np.random.default_rng(18))
        log_probs, ids, _ = random_instance(np.random.default_rng(19))
        items.append((log_probs, ids, MaskSpec((), ids.size)))  # nothing masked
        breakdowns, _ = joint_loss_batch(*pack(items), alpha)
        for breakdown in breakdowns:
            for name in ("ce", "ctc", "combined"):
                assert type(getattr(breakdown, name)) is float
            assert type(breakdown.masked_frames) is int
            assert type(breakdown.target_tokens) is int
        assert breakdowns[-1].ce == breakdowns[-1].ctc == 0.0


@st.composite
def whole_utterance_packs(draw):
    """1-6 utterances of 1-30 frames end to end: (log_probs, ids, lengths).
    Few classes, so the ids run in repeats that deduplication collapses."""
    vocab = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = sum(lengths)
    log_probs = log_softmax(rng.normal(scale=2.0, size=(frames, vocab + 1)), axis=1)
    return log_probs, rng.integers(0, vocab, size=frames), lengths


class TestSegmentCtcTerms:
    @settings(max_examples=60, deadline=None)
    @given(whole_utterance_packs())
    def test_whole_utterance_regions_equal_plain_ctc(self, case):
        # The finetuning use: one region per utterance. Each region's bits are
        # those of a pack holding it alone, so plain CTC on the utterance's
        # lattice against its deduplicated ids, over max(1, U), is exact.
        log_probs, ids, lengths = case
        specs = [MaskSpec(((0, n),), n) for n in lengths]
        losses, tokens, grad = segment_ctc_terms(log_probs, ids, specs, with_grad=True)
        ends = np.cumsum(lengths)
        for loss, n, end, frames in zip(losses, tokens, ends, lengths):
            rows = slice(end - frames, end)
            target = dedup(ids[rows])
            want, want_grad = ctc_loss_and_grad(log_probs[rows], target)
            assert n == target.size
            assert loss == want / max(1, target.size)
            np.testing.assert_array_equal(grad[rows], want_grad / max(1, target.size))


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
