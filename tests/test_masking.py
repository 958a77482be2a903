import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segctc import DimensionMismatchError, MaskSpec, apply_mask, merge_spans, sample_mask
from segctc.masking import sample_masks


def reference_merge_spans(spans, total_frames):
    """merge_spans as the loop over sorted span tuples that the vectorized
    merge replaced; kept here only as its reference."""
    clipped = sorted(
        (max(0, int(s)), min(int(e), total_frames)) for s, e in spans if int(e) > int(s)
    )
    merged = []
    for start, end in clipped:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return MaskSpec(tuple((s, e) for s, e in merged), total_frames)


def reference_sample_mask(total_frames, start_prob, span_length, rng):
    """sample_mask as one draw and one loop merge per utterance."""
    n_starts = int(start_prob * total_frames)
    if n_starts == 0:
        return MaskSpec((), total_frames)
    starts = rng.choice(total_frames, size=n_starts, replace=False)
    return reference_merge_spans(((int(s), int(s) + span_length) for s in starts), total_frames)


def reference_intervals_valid(intervals, total_frames):
    """MaskSpec's check as the loop over intervals that it replaced."""
    prev_end = None
    for start, end in intervals:
        if not (0 <= start < end <= total_frames):
            return False
        if prev_end is not None and start <= prev_end:
            return False
        prev_end = end
    return True


def outcome(build, *args):
    """What build(*args) returns, or ValueError if it raises one."""
    try:
        return build(*args)
    except ValueError:
        return ValueError


class TestMaskSpec:
    def test_rejects_unsorted_or_touching(self):
        with pytest.raises(ValueError):
            MaskSpec(((4, 6), (0, 2)), 10)
        with pytest.raises(ValueError):
            MaskSpec(((0, 2), (2, 4)), 10)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            MaskSpec(((0, 11),), 10)
        with pytest.raises(ValueError):
            MaskSpec(((3, 3),), 10)

    def test_frame_mask_and_count(self):
        spec = MaskSpec(((1, 3), (5, 6)), 7)
        np.testing.assert_array_equal(
            spec.frame_mask(), [False, True, True, False, False, True, False]
        )
        assert spec.masked_frames == 3


class TestMergeSpans:
    def test_single_full_cover_span(self):
        spec = merge_spans([(0, 10)], 10)
        assert spec.intervals == ((0, 10),)

    def test_overlapping_spans_merge(self):
        spec = merge_spans([(2, 5), (4, 7)], 20)
        assert spec.intervals == ((2, 7),)

    def test_touching_spans_merge(self):
        spec = merge_spans([(0, 2), (2, 4)], 20)
        assert spec.intervals == ((0, 4),)

    def test_order_independent(self):
        spans = [(8, 12), (0, 3), (2, 5)]
        assert merge_spans(spans, 20) == merge_spans(list(reversed(spans)), 20)

    def test_truncates_at_total_frames(self):
        spec = merge_spans([(8, 15)], 10)
        assert spec.intervals == ((8, 10),)

    def test_merge_preserves_exact_frame_set(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            total = int(rng.integers(1, 40))
            n = int(rng.integers(0, 8))
            starts = rng.integers(0, total, size=n)
            length = int(rng.integers(1, 12))
            spans = [(int(s), int(s) + length) for s in starts]
            spec = merge_spans(spans, total)
            direct = np.zeros(total, dtype=bool)
            for s, e in spans:
                direct[s : min(e, total)] = True
            np.testing.assert_array_equal(spec.frame_mask(), direct)
            # merged intervals are strictly separated
            for (s1, e1), (s2, e2) in zip(spec.intervals, spec.intervals[1:]):
                assert e1 < s2


    @settings(max_examples=300, deadline=None)
    @given(
        total=st.integers(1, 40),
        spans=st.lists(st.tuples(st.integers(-6, 46), st.integers(-6, 56)), max_size=12),
        as_array=st.booleans(),
    )
    def test_equals_loop_merge(self, total, spans, as_array):
        # Spans in any order, overlapping, touching, empty, reversed or out of
        # range: the same MaskSpec as the loop merge, or ValueError from both.
        raw = np.array(spans, dtype=int).reshape(-1, 2) if as_array else spans
        assert outcome(merge_spans, raw, total) == outcome(reference_merge_spans, spans, total)


class TestMaskSpecCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        total=st.integers(0, 12),
        intervals=st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14)), max_size=5),
    )
    def test_equals_loop_check(self, total, intervals):
        valid = total >= 1 and reference_intervals_valid(intervals, total)
        assert (outcome(MaskSpec, tuple(intervals), total) is not ValueError) == valid


class TestSampleMask:
    @settings(max_examples=150, deadline=None)
    @given(
        frames=st.lists(st.integers(1, 60), min_size=1, max_size=6),
        start_prob=st.one_of(st.sampled_from([0.0, 0.08, 1.0]), st.floats(0.0, 1.0)),
        span_length=st.integers(1, 70),
        seed=st.integers(0, 2**16),
    )
    def test_pack_equals_per_utterance_loop(self, frames, start_prob, span_length, seed):
        # One merge over the pack gives each utterance the spec of its own
        # draw and loop merge, also where a span runs to the utterance's end.
        rngs = [np.random.default_rng([seed, i]) for i in range(len(frames))]
        got = sample_masks(frames, start_prob, span_length, rngs)
        rngs = [np.random.default_rng([seed, i]) for i in range(len(frames))]
        want = [reference_sample_mask(n, start_prob, span_length, r) for n, r in zip(frames, rngs)]
        assert got == want
        single = sample_mask(frames[0], start_prob, span_length, np.random.default_rng([seed, 0]))
        assert single == want[0]

    def test_zero_probability_is_empty(self):
        rng = np.random.default_rng(1)
        spec = sample_mask(50, 0.0, 10, rng)
        assert spec.intervals == ()
        assert spec.total_frames == 50

    def test_full_cover_single_start(self):
        # T == l and floor(p*T) == 1, so wherever the start lands the
        # span is truncated to cover every frame
        rng = np.random.default_rng(2)
        spec = sample_mask(10, 0.1, 10, rng)
        assert len(spec.intervals) == 1
        start = spec.intervals[0][0]
        assert spec.intervals == ((start, 10),)

    def test_deterministic_given_seed(self):
        a = sample_mask(200, 0.08, 10, np.random.default_rng(42))
        b = sample_mask(200, 0.08, 10, np.random.default_rng(42))
        assert a == b

    def test_start_count_is_floor(self):
        rng = np.random.default_rng(3)
        # 0.08 * 90 = 7.2 -> 7 starts; masked frames <= 7 * l
        spec = sample_mask(90, 0.08, 5, rng)
        assert 0 < spec.masked_frames <= 35

    def test_monte_carlo_against_independent_sampler(self):
        # reference implementation coded separately: python stdlib sampling
        # plus direct boolean marking, no span merging involved
        total, p, length, trials = 1000, 0.08, 10, 10000
        n_starts = int(p * total)

        ref_rng = random.Random(12345)
        ref_total = 0
        for _ in range(trials):
            marked = bytearray(total)
            for s in ref_rng.sample(range(total), n_starts):
                for t in range(s, min(s + length, total)):
                    marked[t] = 1
            ref_total += sum(marked)
        ref_fraction = ref_total / (trials * total)

        rng = np.random.default_rng(999)
        got_total = 0
        for _ in range(trials):
            got_total += sample_mask(total, p, length, rng).masked_frames
        got_fraction = got_total / (trials * total)

        assert got_fraction == pytest.approx(ref_fraction, abs=0.02)


class TestApplyMask:
    def test_empty_spec_is_identity(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(6, 3))
        out = apply_mask(features, MaskSpec((), 6), np.zeros(3))
        np.testing.assert_array_equal(out, features)
        assert out is not features

    def test_full_cover(self):
        features = np.arange(12.0).reshape(4, 3)
        emb = np.array([7.0, 8.0, 9.0])
        out = apply_mask(features, MaskSpec(((0, 4),), 4), emb)
        np.testing.assert_array_equal(out, np.tile(emb, (4, 1)))

    def test_partial_mask_replaces_only_masked_rows(self):
        features = np.arange(15.0).reshape(5, 3)
        emb = np.full(3, -1.0)
        out = apply_mask(features, MaskSpec(((2, 4),), 5), emb)
        np.testing.assert_array_equal(out[[0, 1, 4]], features[[0, 1, 4]])
        np.testing.assert_array_equal(out[2], emb)
        np.testing.assert_array_equal(out[3], emb)

    def test_dimension_mismatch(self):
        features = np.zeros((5, 3))
        with pytest.raises(DimensionMismatchError):
            apply_mask(features, MaskSpec((), 5), np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            apply_mask(features, MaskSpec((), 6), np.zeros(3))
