import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segctc import LengthMismatchError, MaskSpec, dedup, merge_spans, segment_targets
from segctc.targets import packed_targets


def pack_rows(specs):
    """The intervals of `specs`, utterances laid end to end, as the (R, 2)
    int array of pack rows that packed_targets takes."""
    rows, first = [], 0
    for spec in specs:
        rows += [(start + first, end + first) for start, end in spec.intervals]
        first += spec.total_frames
    return np.array(rows, dtype=int).reshape(-1, 2)


def reference_dedup(ids):
    """dedup as the one-sequence mask it was before it became a view of the
    packed form; kept here only as its reference."""
    arr = np.asarray(ids, dtype=int).reshape(-1)
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    return arr[keep]


@st.composite
def masked_packs(draw):
    """Utterances of 1-12 frames over 1-3 ids (so runs repeat, within a
    region and across region and utterance boundaries), each with a MaskSpec
    merged from 0-4 spans of 1-4 frames: (ids, specs)."""
    vocab = draw(st.integers(1, 3))
    ids, specs = [], []
    for frames in draw(st.lists(st.integers(1, 12), min_size=1, max_size=5)):
        row = st.lists(st.integers(0, vocab - 1), min_size=frames, max_size=frames)
        ids.append(np.array(draw(row)))
        starts = draw(st.lists(st.integers(0, frames - 1), max_size=4))
        spans = [(start, start + draw(st.integers(1, 4))) for start in starts]
        specs.append(merge_spans(spans, frames))
    return ids, specs


class TestDedup:
    def test_boundary_shift_example(self):
        np.testing.assert_array_equal(dedup([187, 187, 187, 288, 288]), [187, 288])
        np.testing.assert_array_equal(dedup([187, 187, 288, 288, 288]), [187, 288])

    def test_three_run_example(self):
        np.testing.assert_array_equal(
            dedup([229, 229, 293, 293, 293, 189, 189]), [229, 293, 189]
        )

    def test_empty(self):
        assert dedup([]).size == 0

    def test_single_run(self):
        np.testing.assert_array_equal(dedup([5, 5, 5, 5]), [5])

    def test_alternating_unchanged(self):
        np.testing.assert_array_equal(dedup([1, 2, 1, 2]), [1, 2, 1, 2])

    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_idempotent_and_no_adjacent_repeats(self, ids):
        once = dedup(ids)
        np.testing.assert_array_equal(dedup(once), once)
        assert not np.any(once[1:] == once[:-1])

    def test_output_is_run_head_subsequence(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ids = rng.integers(0, 4, size=int(rng.integers(0, 30)))
            out = dedup(ids)
            # each output element is the first element of a run, in order
            runs = [ids[0]] if ids.size else []
            for a, b in zip(ids, ids[1:]):
                if b != a:
                    runs.append(b)
            np.testing.assert_array_equal(out, runs)


class TestPackedTargets:
    @settings(max_examples=300, deadline=None)
    @given(masked_packs())
    def test_equals_segment_targets_per_utterance(self, pack):
        # One deduplication over the pack gives every region's target of the
        # per-utterance, per-region loop, in region order.
        ids, specs = pack
        labels, counts = packed_targets(np.concatenate(ids), pack_rows(specs))
        want = [
            reference_dedup(utt_ids[start:end])
            for utt_ids, spec in zip(ids, specs)
            for start, end in spec.intervals
        ]
        assert counts.tolist() == [target.size for target in want]
        np.testing.assert_array_equal(labels, np.concatenate([np.zeros(0, dtype=int), *want]))
        got = [segment_targets(utt_ids, spec) for utt_ids, spec in zip(ids, specs)]
        assert [t.tolist() for targets in got for t in targets] == [t.tolist() for t in want]

    def test_region_boundaries_keep_their_repeats(self):
        # Equal ids across adjacent pack rows of two regions, within one
        # utterance's gap and across two utterances, and a one-frame region.
        specs = [MaskSpec(((0, 2), (3, 4)), 4), MaskSpec(((0, 3),), 3)]
        labels, counts = packed_targets(np.array([5, 5, 5, 5, 5, 6, 6]), pack_rows(specs))
        assert labels.tolist() == [5, 5, 5, 6]
        assert counts.tolist() == [1, 1, 2]

    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_dedup_equals_mask(self, ids):
        np.testing.assert_array_equal(dedup(ids), reference_dedup(ids))


class TestSegmentTargets:
    def test_slice_dedup(self):
        spec = MaskSpec(((1, 5),), 6)
        targets = segment_targets([5, 5, 7, 7, 7, 2], spec)
        assert len(targets) == 1
        np.testing.assert_array_equal(targets[0], [5, 7])

    def test_constant_ids_give_single_label(self):
        spec = MaskSpec(((2, 6),), 8)
        targets = segment_targets([3] * 8, spec)
        np.testing.assert_array_equal(targets[0], [3])

    def test_two_intervals_in_order(self):
        spec = MaskSpec(((0, 2), (4, 6)), 6)
        targets = segment_targets([1, 1, 9, 9, 2, 3], spec)
        np.testing.assert_array_equal(targets[0], [1])
        np.testing.assert_array_equal(targets[1], [2, 3])

    def test_dedup_never_crosses_region_boundary(self):
        # same label on both sides of the gap stays one token per region
        spec = MaskSpec(((0, 2), (3, 5)), 5)
        targets = segment_targets([4, 4, 4, 4, 4], spec)
        np.testing.assert_array_equal(targets[0], [4])
        np.testing.assert_array_equal(targets[1], [4])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            segment_targets([1, 2, 3], MaskSpec(((0, 2),), 4))

    def test_target_length_bounded_by_region_length(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            total = int(rng.integers(4, 30))
            ids = rng.integers(0, 5, size=total)
            start = int(rng.integers(0, total - 1))
            end = int(rng.integers(start + 1, total + 1))
            spec = MaskSpec(((start, end),), total)
            (target,) = segment_targets(ids, spec)
            assert 1 <= target.size <= end - start
